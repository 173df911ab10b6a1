"""One workload in one single-threaded process; prints one JSON line.

Started by ``run.py``, never by hand. Modes:

* ``--setup-only``: import and build the workload, print the monotonic time
  at which the first op could start, exit. ``run.py`` starts several of these to take the median
  set-up time.
* default: also run the closed timed loop (one client, next op only after
  the previous one returns) for ``--seconds`` and at least ``MIN_OPS`` ops,
  then the untimed spot checks.
* ``--trace 1``: run the loop untraced for half the time, then again from
  the same seed with every traced function wrapped for the other half.

Times come from ``time.monotonic`` / ``time.perf_counter``, which on Linux
read the same system-wide clock, so ``run.py`` can subtract its own
timestamp taken just before it started this process.

Calibration: on a shared host the CPU speed drifts by a quarter or more over
minutes, and every op slows down with it. The untraced loop therefore also
times a fixed reference slice (``reference_slice``, code the benchmark owns)
after every ``REF_EVERY_S`` of op time, so that the reference samples the
same moments as the ops. The reported times are scaled by
``REF_NOMINAL_S / mean(reference slice time)``: they are the times on a host
on which one slice takes ``REF_NOMINAL_S``. A change to ``commlab`` moves
them exactly as it moves the raw times, which the metadata also carries.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import commlab  # noqa: E402  (needs the src path above)
import workloads  # noqa: E402

# p90 needs at least ten samples beyond it.
MIN_OPS = 100
# Past this many seconds beyond --seconds the loop stops even short of
# MIN_OPS, so that a run always ends within its time limit.
MAX_OVERRUN_S = 60.0
# One reference slice after every this much op time (~3% of the loop).
REF_EVERY_S = 0.05
# The mean slice time on the host the baseline was taken on.
REF_NOMINAL_S = 0.0014
REF_GENERATORS = ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5))


def reference_slice() -> float:
    """Seconds to close two permutations into S_6, the kind of pure-Python
    tuple and set work that ``commlab`` does. The garbage collector is off,
    so the size of the heap the ops leave behind does not change it."""
    clock = time.perf_counter
    gc.disable()
    t0 = clock()
    seen = {REF_GENERATORS[0]}
    frontier = [REF_GENERATORS[0]]
    while frontier:
        grown = []
        for g in frontier:
            for h in REF_GENERATORS:
                p = tuple([g[i] for i in h])
                if p not in seen:
                    seen.add(p)
                    grown.append(p)
        frontier = grown
    t1 = clock()
    gc.enable()
    assert len(seen) == 720
    return t1 - t0


def timed_loop(wl, seconds, min_ops, tracer=None, calibrate=False):
    """Run ops until both limits are met; returns per-op seconds, tallies and
    the reference slice times (none unless ``calibrate``)."""
    times = array.array("d")  # compact, so it barely shows in peak_rss_mb
    refs = array.array("d")
    since_ref = 0.0
    streams: dict[str, list[int]] = {}
    failed = 0
    clock = time.perf_counter
    start = clock()
    while True:
        stream, op = wl.next_op()
        t0 = clock()
        try:
            ok = op() is True
        except Exception:  # an op that raises is a failed op, not a crash
            ok = False
            if failed == 0:
                traceback.print_exc()
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        times.append(t1 - t0)
        failed += not ok
        tally = streams.setdefault(stream, [0, 0])
        tally[0] += 1
        tally[1] += ok
        elapsed = t1 - start
        if (elapsed >= seconds and len(times) >= min_ops) or (
            elapsed >= seconds + MAX_OVERRUN_S
        ):
            return times, failed, elapsed, streams, refs
        since_ref += t1 - t0
        if calibrate and since_ref >= REF_EVERY_S:
            refs.append(reference_slice())
            since_ref = 0.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    build = workloads.WORKLOADS[args.workload]
    wl = build(args.seed)
    ready = time.monotonic()
    out: dict = {"ready": ready}
    if not args.setup_only:
        if args.trace:
            out.update(traced_run(build, args.seed, args.seconds))
        else:
            out.update(untraced_run(wl, args.seconds))
        spots = wl.spot_check()
        out["spot_checks"] = spots
        out["spot_checks_ok"] = all(spots.values())
        out["seeds"] = wl.streams
        out["kernel_backend"] = commlab.KERNEL_BACKEND
    print(json.dumps(out))


def untraced_run(wl, seconds: float) -> dict:
    times, failed, elapsed, streams, refs = timed_loop(
        wl, seconds, MIN_OPS, calibrate=True
    )
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    ref_s = statistics.fmean(refs) if refs else reference_slice()
    raw = {
        "ops_per_s": len(times) / (elapsed - sum(refs)),
        "op_p50_ms": statistics.median(times) * 1000.0,
        "op_p90_ms": p90 * 1000.0,
    }
    scale = REF_NOMINAL_S / ref_s  # < 1 while the host runs slow
    return {
        "attempted": len(times),
        "failed": failed,
        "streams": streams,
        "p90_samples_beyond": sum(t > p90 for t in times),
        "ref_s": ref_s,
        "ref_slices": len(refs),
        "scale": scale,
        "raw": raw,
        "metrics": {
            "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
            "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
            "op_p90_ms": (raw["op_p90_ms"] * scale, "ms"),
            "verdict_ok_share": (1.0 - failed / len(times), "ratio"),
            "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        },
    }


def traced_run(build, seed: int, seconds: float) -> dict:
    import tracing

    half = seconds / 2
    plain_times, plain_failed, *_ = timed_loop(build(seed), half, 1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        wl = build(seed)
        tracer.reset()  # drop the calls made while building the streams
        times, failed, _, streams, _ = timed_loop(wl, half, 1, tracer)
    ops = len(times)
    traced_ops_per_s = ops / sum(times)
    # Same ops, same order: the untraced loop's time for the first `ops` ops.
    if len(plain_times) >= ops:
        plain_ops_per_s = ops / sum(plain_times[:ops])
    else:
        plain_ops_per_s = len(plain_times) / sum(plain_times)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.ops_per_s_traced"] = (traced_ops_per_s, "1/s")
    metrics["trace.ops_per_s_untraced"] = (plain_ops_per_s, "1/s")
    metrics["trace.overhead_ratio"] = (plain_ops_per_s / traced_ops_per_s, "ratio")
    return {
        "attempted": ops + len(plain_times),
        "failed": failed + plain_failed,
        "streams": streams,
        "metrics": metrics,
    }


if __name__ == "__main__":
    main()
