"""The sparse ordering pass against the dense numpy one it replaced, exactly.

``_reference_ordering`` keeps the old ``_permute`` verbatim. For every case
both granularities must give the same order, dual cost, trace records and
deltas, compared by ``repr`` so that equal means bit-equal floats. The one
intended difference is the name of a fallback step, which the reference
records as ``"beta"``.
"""

import pytest

import _reference_ordering as reference
from _shared import tiny_instance
from coflowsched import ordering
from coflowsched.model import MAX_PORT_TOTAL, Coflow, Instance
from coflowsched.workload import gen_density, gen_mix

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
