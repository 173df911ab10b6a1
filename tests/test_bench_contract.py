"""The benchmark's workloads and tracer still run against this commlab.

``perfbench/`` sits outside the test paths and its smoke test takes a while,
so this checks the benchmark's contract with the library in well under a
second: every workload ``BENCHMARK.json`` declares builds, its ops return
True both plainly and with every traced function wrapped, and the tracer
reports every per-layer metric it names.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def load_perfbench(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_perfbench("workloads")
tracing = load_perfbench("tracing")
DECLARED = [
    w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]


def run_ops(wl, k, tracer=None):
    verdicts = []
    for _ in range(k):
        _, op = wl.next_op()
        verdicts.append(op())
        if tracer is not None:
            tracer.end_op()
    return verdicts


@pytest.mark.parametrize("name", DECLARED)
def test_workload_ops_pass_plain_and_traced(name):
    build = workloads.WORKLOADS[name]
    assert run_ops(build(SEED), 12) == [True] * 12
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        wl = build(SEED)
        tracer.reset()  # as the worker does: building the streams is not an op
        assert run_ops(wl, 3, tracer) == [True] * 3
    assert tracer.ops == 3
    assert sum(tracer.calls.values()) > 0
    assert list(tracing.layer_metrics(tracer)) == list(tracing.PER_LAYER)
