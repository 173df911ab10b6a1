"""commlab benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify_finite --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (``src/commlab`` and
``tests/_oracles.py`` must be there; nothing is installed or built). The
workload runs in its own single-threaded child process (``worker.py``),
closed loop, one client. Before it, ``SETUP_PROBES`` children only set up,
so ``setup_s`` is a median. Every time reported, ``setup_s`` too, is scaled
by the speed of a reference slice timed throughout the workload's loop (see
``worker.py``); the metadata also carries the raw figures.

Output: a metadata line (code identity, Python, kernel backend, nproc, seeds,
op counts, failed_share, spot checks) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. Exit code 0 when a
result was printed, 2 on a bad invocation or a checkout without the sources,
1 when the workload process failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = (ROOT / "src" / "commlab" / "__init__.py", ROOT / "tests" / "_oracles.py")
WORKLOADS = ("verify_finite", "subgroup_rules", "brunnian", "certificates")
SETUP_PROBES = 9
# Beyond --seconds: the timed loop may overrun by up to worker.MAX_OVERRUN_S
# to reach its minimum op count, then the spot checks run.
CHILD_GRACE_S = 120.0


def run_worker(args: argparse.Namespace, setup_only: bool) -> tuple[float, dict]:
    """Start one worker; returns (seconds from start to its first op, output)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=args.seconds + CHILD_GRACE_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["ready"] - started, out


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "commlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"run.py: not a commlab checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        probes = [] if args.trace else [
            run_worker(args, setup_only=True) for _ in range(SETUP_PROBES)
        ]
        setup, out = run_worker(args, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    setups = [s for s, _ in probes] + [setup]
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in out["metrics"].items()}
    if not args.trace:
        scaled = statistics.median(setups) * out["scale"]
        metrics["setup_s"] = {"value": scaled, "unit": "s"}
    meta = {
        **source_identity(),
        "python": platform.python_version(),
        "kernel_backend": out["kernel_backend"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": out["attempted"],
        "failed_share": out["failed"] / out["attempted"],
        "p90_samples_beyond": out.get("p90_samples_beyond"),
        "stream_seeds": out["seeds"],
        "stream_attempted_passed": out["streams"],
        "spot_checks": out["spot_checks"],
        "setup_samples_s": setups,
        "scale": out.get("scale"),
        "ref_slice_s": out.get("ref_s"),
        "ref_slices": out.get("ref_slices"),
        "raw": {**out.get("raw", {}), "setup_s": statistics.median(setups)},
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": out["failed"] == 0 and out["spot_checks_ok"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
