"""Brute-force baselines: enumeration and the per-coflow floor.

enumerate_best is also checked field by field against the loop it replaced
(``_reference_oracle.py``), which simulates the whole instance for every
(permutation, placement) pair.
"""

import numpy as np
import pytest

from _reference_oracle import enumerate_best as reference_best
from _shared import tiny_instance
from coflowsched import oracle, scheduling
from coflowsched.model import Coflow, Instance
from coflowsched.oracle import enumerate_best, trivial_lower_bound
from coflowsched.ordering import order_coflow_level, order_flow_level


def inst(coflow_specs, cores=1, ports=None):
    coflows = tuple(
        Coflow(id=k, release=r, weight=w, demands=d)
        for k, (r, w, d) in enumerate(coflow_specs, start=1)
    )
    ports = ports or max(max(max(i, j) for i, j in c.demands) for c in coflows)
    return Instance(cores=cores, ports=ports, coflows=coflows)


UNIT_PAIR = inst([(0, 1, {(1, 1): 1}), (0, 2, {(1, 1): 1})])


def test_single_flow_any_core_count():
    for m in (1, 2):
        res = enumerate_best(inst([(0, 1, {(1, 1): 4})], cores=m))
        assert res.best_cost == pytest.approx(4.0)
        assert res.best_order == [1]


def test_unit_pair_schedules_heavier_first():
    res = enumerate_best(UNIT_PAIR)
    assert res.best_cost == pytest.approx(4.0)
    assert res.best_order == [2, 1]
    assert res.schedules_examined == 2


def test_disjoint_ports_two_cores_fully_parallel():
    res = enumerate_best(
        inst([(0, 3, {(1, 1): 2}), (0, 1, {(2, 2): 5})], cores=2)
    )
    assert res.best_cost == pytest.approx(3 * 2 + 1 * 5)


def test_enumeration_counts_grow_with_granularity_choice():
    two_flows = inst([(0, 1, {(1, 1): 2, (1, 2): 1}), (0, 1, {(2, 1): 3})], cores=2)
    flow = enumerate_best(two_flows, "flow")
    coflow = enumerate_best(two_flows, "coflow")
    assert flow.schedules_examined == 2 * 2**3
    assert coflow.schedules_examined == 2 * 2**2


def test_caps_refusal():
    big_n = inst([(0, 1, {(1, 1): 1}) for _ in range(7)])
    with pytest.raises(ValueError, match="caps"):
        enumerate_best(big_n)
    wide = inst([(0, 1, {(1, 4): 1})], ports=4)
    with pytest.raises(ValueError, match="caps"):
        enumerate_best(wide)
    many_cores = inst([(0, 1, {(1, 1): 1})], cores=3)
    with pytest.raises(ValueError, match="caps"):
        enumerate_best(many_cores)
    assert enumerate_best(wide, max_ports=4).best_cost == pytest.approx(1.0)


def test_enumerate_rejects_unknown_granularity():
    with pytest.raises(ValueError, match="granularity"):
        enumerate_best(UNIT_PAIR, "halfway")


def test_trivial_bound_examples():
    assert trivial_lower_bound(inst([(2, 1, {(1, 1): 4})])) == pytest.approx(6.0)
    spread = inst([(0, 1, {(1, 1): 5, (1, 2): 5})], cores=2)
    assert trivial_lower_bound(spread) == pytest.approx(5.0)
    assert trivial_lower_bound(UNIT_PAIR) == pytest.approx(3.0)


def test_trivial_bound_below_best():
    assert trivial_lower_bound(UNIT_PAIR) <= enumerate_best(UNIT_PAIR).best_cost


def test_split_coflow_beats_single_core_placement():
    # One coflow, two equal flows out of one input port, released late.
    # Flow-level placement can use both cores; coflow-level cannot, and its
    # dual bound is allowed to exceed the best flow-level schedule.
    lone = inst([(10, 1, {(1, 1): 4, (1, 2): 4})], cores=2)
    flow = enumerate_best(lone, "flow")
    coflow = enumerate_best(lone, "coflow")
    assert flow.best_cost == pytest.approx(14.0)
    assert coflow.best_cost == pytest.approx(18.0)
    assert len(set(flow.best_assignment.values())) == 2
    assert order_flow_level(lone, 0.5).dual_cost == pytest.approx(14.0)
    assert order_coflow_level(lone, 0.5).dual_cost == pytest.approx(18.0)
    assert order_coflow_level(lone, 0.5).dual_cost > flow.best_cost


def random_tiny(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    specs = []
    for _ in range(n):
        flows = int(rng.integers(1, 3))
        demands = {}
        while len(demands) < flows:
            demands[(int(rng.integers(1, 4)), int(rng.integers(1, 4)))] = int(
                rng.integers(1, 5)
            )
        release = int(rng.integers(0, 6)) if rng.random() < 0.5 else 0
        specs.append((release, int(rng.integers(1, 11)), demands))
    return inst(specs, cores=m, ports=3)


def test_dual_below_best_matched_granularity():
    rng = np.random.default_rng(99)
    for _ in range(40):
        instance = random_tiny(rng)
        best_flow = enumerate_best(instance, "flow")
        best_coflow = enumerate_best(instance, "coflow")
        assert trivial_lower_bound(instance) <= best_flow.best_cost + 1e-9
        assert order_flow_level(instance, 0.5).dual_cost <= best_flow.best_cost + 1e-9
        assert (
            order_coflow_level(instance, 0.5).dual_cost <= best_coflow.best_cost + 1e-9
        )


# --- differential check against the loop that simulates every pair ----------
# Distinct per-core runs enumerate_best makes on the 200 tiny acceptance
# instances at both granularities; the reference makes 110,362 whole-instance
# simulate calls there.
TINY_CORE_RUNS = 33_530


def assert_same(got, want):
    assert got == want
    assert repr(got.best_cost) == repr(want.best_cost)


def assert_matches_reference(instance):
    for granularity in ("flow", "coflow"):
        assert_same(enumerate_best(instance, granularity), reference_best(instance, granularity))


@pytest.fixture(scope="module")
def tiny_results():
    """enumerate_best on the tiny corpus, counting per-core runs, no simulate."""
    runs = []
    run_core = oracle._run_core

    def counted(table, rows):
        runs.append(rows)
        return run_core(table, rows)

    def forbidden(*args, **kwargs):
        raise AssertionError("enumerate_best called simulate")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_run_core", counted)
        mp.setattr(scheduling, "simulate", forbidden)
        mp.setattr(oracle, "simulate", forbidden, raising=False)
        results = [
            {g: enumerate_best(tiny_instance(idx), g) for g in ("flow", "coflow")}
            for idx in range(200)
        ]
    return results, len(runs)


def test_matches_reference_on_tiny_corpus(tiny_results):
    results, _ = tiny_results
    for idx, by_granularity in enumerate(results):
        instance = tiny_instance(idx)
        for granularity, got in by_granularity.items():
            assert_same(got, reference_best(instance, granularity))


def test_each_core_subproblem_runs_once(tiny_results):
    results, core_runs = tiny_results
    examined = sum(r.schedules_examined for by_g in results for r in by_g.values())
    assert examined == 110_362
    assert core_runs == TINY_CORE_RUNS


def test_matches_reference_on_random_tiny():
    rng = np.random.default_rng(7)
    for _ in range(40):
        assert_matches_reference(random_tiny(rng))


NINE_FLOWS = [
    (0, 2, {(1, 1): 3, (1, 2): 1, (2, 3): 2}),
    (0, 5, {(2, 1): 4, (3, 3): 1}),
    (0, 1, {(1, 3): 2, (3, 1): 3}),
    (0, 3, {(2, 2): 1, (3, 2): 4}),
]


@pytest.mark.parametrize(
    "instance",
    [
        pytest.param(inst(NINE_FLOWS, cores=1, ports=3), id="one-core-nine-flows"),
        pytest.param(
            # A late coflow first in the order: which core it shares decides
            # whether the early ones run ahead of it.
            inst(
                [(6, 9, {(1, 1): 2, (2, 2): 2}), (0, 1, {(1, 2): 5}), (1, 2, {(2, 1): 3})],
                cores=2,
                ports=2,
            ),
            id="releases-reorder-cores",
        ),
        pytest.param(
            inst([(0, 1, {(1, 1): 2, (1, 2): 2, (1, 3): 2}), (0, 1, {(2, 1): 2})], cores=2),
            id="equal-sizes",
        ),
        pytest.param(
            inst([(0, 2, {(1, 1): 3}), (4, 3, {}), (0, 1, {(1, 2): 1})], cores=2, ports=2),
            id="empty-coflow",
        ),
    ],
)
def test_matches_reference_on_hand_built(instance):
    assert_matches_reference(instance)
