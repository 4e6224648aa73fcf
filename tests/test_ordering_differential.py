"""The sparse ordering pass against the dense numpy one it replaced, exactly.

``_reference_ordering`` keeps the old ``_permute`` verbatim. For every case
both granularities must give the same order, dual cost, trace records and
deltas, compared by ``repr`` so that equal means bit-equal floats. The one
intended difference is the name of a fallback step, which the reference
records as ``"beta"``.
"""

import pytest

import _reference_ordering as reference
from _shared import fb2010_text, load_script, tiny_instance
from coflowsched import ordering
from coflowsched.model import MAX_PORT_TOTAL, Coflow, Instance
from coflowsched.workload import gen_density, gen_mix, parse_trace

PAIRS = [
    (ordering.order_flow_level, reference.order_flow_level),
    (ordering.order_coflow_level, reference.order_coflow_level),
]


def observed(perm):
    return (
        repr(perm.order),
        repr(perm.dual_cost),
        repr(perm.trace.record_dicts()),
        repr(perm.trace.delta),
    )


def named_fallback(perm):
    """The reference's ``perm`` with its fallback steps named ``"fallback"``.

    A fallback step is the only beta step at a bottleneck port with no load
    left: every remaining coflow is flowless.
    """
    for rec in perm.trace.records:
        if rec.branch == "beta" and rec.port_load == 0:
            rec.branch = "fallback"
    return perm


def assert_same(instance, kappa=0.5):
    for run, ref in PAIRS:
        got = run(instance, kappa)
        assert observed(got) == observed(named_fallback(ref(instance, kappa)))
    return got


@pytest.mark.parametrize("release_max", [0, 50, 2000])
def test_generated_instances_match_reference(release_max):
    for seed in range(8):
        assert_same(gen_mix(25, 10, seed, cores=5, release_max=release_max))
        mode = ("dense", "sparse", "combined")[seed % 3]
        assert_same(gen_density(15, 6, mode, seed, cores=1 + seed % 3, release_max=release_max))


@pytest.mark.parametrize("kappa", [0.1, 0.5, 2.0])
def test_tiny_corpus_matches_reference(kappa):
    for idx in range(200):
        assert_same(tiny_instance(idx), kappa)


@pytest.mark.parametrize("kappa", [0.1, 0.5, 2.0])
def test_trace_instances_match_reference(kappa):
    # Release-driven: mostly alpha steps, so each side keeps its bottleneck
    # port across most steps.
    for seed in range(3):
        perm = assert_same(parse_trace(fb2010_text(seed), 150, seed, cores=5), kappa)
        if kappa == 0.5:
            assert {rec.branch for rec in perm.trace.records} == {"alpha"}


def test_sparse_ports_match_reference():
    # 99 coflows of 1-4 flows on 9,999 ports: most ports carry nothing.
    assert_same(load_script("tools/ladder.py").limit_instance(99, 9_999))


def bottlenecks(perm):
    return [(rec.side, rec.port, rec.port_load) for rec in perm.trace.records]


def test_held_port_falls_and_stays_the_strict_maximum():
    # Input 1 carries 10 and input 2 carries 3; every output at most 4.
    # Coflow 3 is released last, so the first step places it and input 1
    # falls to 8, still above every other port.
    coflows = (
        Coflow(1, 0, 1, {(1, 1): 4, (1, 2): 4}),
        Coflow(2, 0, 1, {(2, 3): 3}),
        Coflow(3, 100, 1, {(1, 4): 2}),
    )
    perm = assert_same(Instance(1, 4, coflows))
    assert bottlenecks(perm)[:2] == [("input", 1, 10), ("input", 1, 8)]


def test_held_port_falls_to_a_tie_with_a_lower_port():
    # Input 2 carries 10 and input 1 carries 8. Placing coflow 3 brings
    # input 2 down to 8, and the tie goes to the lower id, input 1.
    coflows = (
        Coflow(1, 0, 1, {(1, 1): 4, (1, 2): 4}),
        Coflow(2, 0, 1, {(2, 3): 4, (2, 4): 4}),
        Coflow(3, 100, 1, {(2, 5): 2}),
    )
    perm = assert_same(Instance(1, 5, coflows))
    assert bottlenecks(perm)[:2] == [("input", 2, 10), ("input", 1, 8)]


def test_held_port_falls_below_another_port():
    # Input 1 carries 10 and input 2 carries 9. Placing coflow 3 brings
    # input 1 down to 7, below input 2.
    coflows = (
        Coflow(1, 0, 1, {(1, 1): 4, (1, 2): 3}),
        Coflow(2, 0, 1, {(2, 3): 5, (2, 4): 4}),
        Coflow(3, 100, 1, {(1, 5): 3}),
    )
    perm = assert_same(Instance(1, 5, coflows))
    assert bottlenecks(perm)[:2] == [("input", 1, 10), ("input", 2, 9)]


def test_tied_port_totals_on_both_sides():
    # Input ports 1 and 2 and output ports 1 and 2 all carry 4.
    coflows = (
        Coflow(1, 0, 2, {(1, 1): 2, (2, 2): 2}),
        Coflow(2, 0, 3, {(1, 2): 2, (2, 1): 2}),
        Coflow(3, 0, 1, {(3, 3): 1}),
    )
    perm = assert_same(Instance(2, 3, coflows))
    assert perm.trace.records[0].side == "output" and perm.trace.records[0].port == 1


def test_tied_beta_ratios():
    # Every coflow has weight 2 and load 2 at the bottleneck: ratio 1 for all.
    coflows = tuple(Coflow(k, 0, 2, {(1, k): 2}) for k in range(1, 5))
    perm = assert_same(Instance(1, 4, coflows))
    assert [rec.coflow for rec in perm.trace.records] == [1, 2, 3, 4]


def test_tied_latest_releases():
    coflows = tuple(Coflow(k, 100 * (k % 2), k, {(1 + k % 2, 1): 1}) for k in range(1, 6))
    perm = assert_same(Instance(1, 2, coflows))
    assert [rec.coflow for rec in perm.trace.records[:3]] == [1, 3, 5]
    assert {rec.branch for rec in perm.trace.records[:3]} == {"alpha"}


def test_flowless_coflows_take_the_fallback():
    coflows = (
        Coflow(1, 0, 3, {}),
        Coflow(2, 0, 1, {(1, 1): 2}),
        Coflow(3, 0, 1, {}),
        Coflow(4, 0, 2, {}),
    )
    perm = assert_same(Instance(1, 1, coflows))
    assert [rec.coflow for rec in perm.trace.records] == [2, 3, 4, 1]
    assert [rec.branch for rec in perm.trace.records] == ["beta"] + ["fallback"] * 3
    assert perm.trace.records[-1].bottleneck_load == 0


def test_no_coflows():
    perm = assert_same(Instance(2, 3, ()))
    assert perm.order == [] and perm.trace.records == []


def test_sizes_at_the_port_total_limit():
    half = MAX_PORT_TOTAL // 2
    coflows = (
        Coflow(1, 0, 1.5, {(1, 1): half, (2, 1): MAX_PORT_TOTAL - half}),
        Coflow(2, 0, 2.5, {(1, 2): MAX_PORT_TOTAL - half}),
        Coflow(3, 7, 0.25, {(2, 2): half}),
    )
    assert_same(Instance(3, 2, coflows))
    assert_same(Instance(1, 1, (Coflow(1, 0, 1, {(1, 1): MAX_PORT_TOTAL}),)))
