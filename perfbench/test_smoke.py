"""Smoke test of the benchmark at tiny sizes (about a minute).

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py

Every workload runs end-to-end and traced; every metric BENCHMARK.json names
comes out with its unit; no op fails; and the pass counts agree with the
CLI subcommands replayed on the same seeds through click; and a verifier that
always says yes fails the workload's negative controls.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from commlab import braids, homotopy, magnus  # noqa: E402
from commlab.cli import main as cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    *_, meta_line, result_line = proc.stdout.splitlines()
    return json.loads(meta_line)["meta"], json.loads(result_line)


@pytest.fixture(scope="module")
def runs() -> dict[str, tuple[dict, dict]]:
    return {w: bench(w, trace=0) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_failures(runs, workload):
    meta, result = runs[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and meta["failed_share"] == 0
    assert result["attempted"] == meta["ops"] >= 100
    assert meta["p90_samples_beyond"] >= 10
    assert meta["kernel_backend"] in ("python", "cython")
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    _, result = bench(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def cli_results(tmp_path: Path, args: list[str]) -> dict:
    out = CliRunner().invoke(cli, args + ["--out", str(tmp_path)])
    assert out.exit_code == 0, out.output
    return json.loads(out.stdout)["results"]


def test_pass_counts_match_verify_finite_cli(runs, tmp_path):
    meta, _ = runs["verify_finite"]
    attempted, passed = meta["stream_attempted_passed"]["verify_finite"]
    seed = meta["stream_seeds"]["verify_finite"]
    results = cli_results(tmp_path, [
        "verify-finite", "--trials", str(attempted), "--n", "3", "--seed", str(seed),
    ])
    assert results["summary"]["pass"] == f"{passed}/{attempted}"


def test_pass_counts_match_brunnian_cli(runs, tmp_path):
    meta, _ = runs["brunnian"]
    for n in (6, 7, 8):
        attempted, passed = meta["stream_attempted_passed"][f"n{n}"]
        seed = meta["stream_seeds"][f"n{n}"]
        results = cli_results(tmp_path, [
            "brunnian", "--n", str(n), "--samples", str(attempted),
            "--conj-depth", "4", "--seed", str(seed),
        ])
        assert results["summary"]["pass"] == f"{passed}/{attempted}"
    controls, rejected = meta["stream_attempted_passed"]["controls"]
    assert controls > 0 and rejected == controls


def test_pass_counts_match_homotopy_cli(runs, tmp_path):
    meta, _ = runs["certificates"]
    attempted, passed = meta["stream_attempted_passed"]["pi3"]
    pi3 = cli_results(tmp_path, [
        "homotopy", "--pi", "3", "--samples", str(attempted), "--conj-depth", "4",
        "--seed", str(meta["stream_seeds"]["pi3"]),
    ])
    assert pi3["intersection_passes"] == pi3["gamma_passes"] == passed
    assert pi3["witness_in_intersection"] and not pi3["witness_in_gamma"]
    attempted, passed = meta["stream_attempted_passed"]["pi2"]
    pi2 = cli_results(tmp_path, [
        "homotopy", "--pi", "2", "--trials", str(attempted),
        "--seed", str(meta["stream_seeds"]["pi2"]),
    ])
    assert pi2["in_r1_passes"] == pi2["in_r2_passes"] == passed
    assert pi2["commutator_passes"] == passed
    controls, rejected = meta["stream_attempted_passed"]["controls"]
    assert controls > 0 and rejected == controls


def one_cycle_verdicts(workload: str) -> list[bool]:
    wl = workloads.WORKLOADS[workload](SEED)
    return [op() for _, op in (wl.next_op() for _ in range(22))]


@pytest.mark.parametrize("workload, patches", [
    ("brunnian", [(braids, "is_brunnian", lambda b: True)]),
    ("certificates", [
        (homotopy, "in_intersection", lambda *a: True),
        (magnus, "gamma_membership", lambda *a: True),
    ]),
    ("certificates", [
        (magnus, "expand", lambda w, cutoff: magnus.TruncatedSeries.one(cutoff)),
    ]),
])
def test_always_yes_verifier_fails_the_controls(monkeypatch, workload, patches):
    assert all(one_cycle_verdicts(workload))
    for module, name, fake in patches:
        monkeypatch.setattr(module, name, fake)
    assert not all(one_cycle_verdicts(workload))
