"""One pass of each benchmark workload on its reference seed.

The benchmark in ``perfbench/`` compares every operation of its warm-up pass
with the digests pinned in ``perfbench/reference.json`` and calls the layer
functions that ``tracer.LAYERS`` names. These tests run the same passes, so
a change to an output or a renamed layer function fails here rather than in
a benchmark run. They only read ``perfbench/``.
"""

import json
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
PINNED = json.loads((BENCH_DIR / "reference.json").read_text())


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``workloads`` and ``tracer`` modules."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH_DIR))
        import tracer
        import workloads
    return workloads, tracer


def run_reference_pass(workloads, name, tracer):
    wl = workloads.WORKLOADS[name]
    ops = wl.run_pass(wl.setup(PINNED["seed"]), tracer)
    assert len(ops) == wl.ops_per_pass
    assert [op.problems for op in ops] == [[]] * len(ops)
    assert [op.digest for op in ops] == PINNED["workloads"][name]


def test_reference_pins_every_workload(bench):
    workloads, _ = bench
    assert set(PINNED["workloads"]) == set(workloads.WORKLOADS)
    assert sum(map(len, PINNED["workloads"].values())) == 404


@pytest.mark.parametrize("name", ["ref-sweep", "large", "trace-audit", "oracle"])
def test_workload_pass_matches_the_pinned_digests(bench, name):
    workloads, tracer = bench
    run_reference_pass(workloads, name, tracer.NullTracer())


def test_traced_pass_reaches_every_layer_it_calls(bench):
    workloads, tracer = bench
    spans = tracer.Tracer()
    with tracer.traced_layers(spans):
        run_reference_pass(workloads, "large", spans)
    assert {span[0] for span in spans.spans} == {
        "bench.op",
        "model.loads_instance",
        "model.validate",
        "ordering.order_flow_level",
        "ordering.order_coflow_level",
        "scheduling.assign_fdls",
        "scheduling.assign_cdls",
        "scheduling.simulate",
    }
