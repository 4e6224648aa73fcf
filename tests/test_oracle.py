"""Brute-force baselines: enumeration and the per-coflow floor.

enumerate_best is also checked field by field against two loops it
replaced: ``_reference_oracle.py`` simulates the whole instance for every
(permutation, placement) pair, and ``_reference_oracle_memo.py`` scores the
pairs one by one from memoised per-core runs, which is fast enough for the
edge cases near the caps.
"""

import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest

from _reference_oracle import enumerate_best as reference_best
from _reference_oracle_memo import enumerate_best as memo_reference_best
from _reference_table import compile_table
from _shared import one_core_instance, tiny_instance
from coflowsched import oracle, scheduling
from coflowsched.model import Coflow, Instance
from coflowsched.oracle import enumerate_best, trivial_lower_bound
from coflowsched.ordering import order_coflow_level, order_flow_level
from coflowsched.scheduling import BIT_HORIZON, Assignment, simulate


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


def test_caps_refusal(monkeypatch):
    big_n = inst([(0, 1, {(1, 1): 1}) for _ in range(7)])
    with pytest.raises(ValueError, match="caps"):
        enumerate_best(big_n)
    wide = inst([(0, 1, {(1, 4): 1})], ports=4)
    with pytest.raises(ValueError, match="caps"):
        enumerate_best(wide)
    many_cores = inst([(0, 1, {(1, 1): 1})], cores=3)
    with pytest.raises(ValueError, match="caps"):
        enumerate_best(many_cores)
    monkeypatch.setattr(oracle, "ORACLE_MAX_PORTS", 4)
    assert enumerate_best(wide).best_cost == pytest.approx(1.0)
    # 18 flows inside the n, N and m caps: 2! x 2^18 x 18 cells at flow
    # level, refused before any placement is built, and 2! x 2^2 x 18 at
    # coflow level.
    full = {(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3)}
    dense = inst([(0, 1, full), (0, 2, full)], cores=2)
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "product", None)
        with pytest.raises(ValueError, match="caps"):
            enumerate_best(dense, "flow")
    assert enumerate_best(dense, "coflow").schedules_examined == 2 * 2**2
    # UNIT_PAIR is 2! x 1^2 x 2 cells at flow level.
    monkeypatch.setattr(oracle, "ORACLE_MAX_CELLS", 4)
    assert enumerate_best(UNIT_PAIR).schedules_examined == 2
    monkeypatch.setattr(oracle, "ORACLE_MAX_CELLS", 3)
    with pytest.raises(ValueError, match="caps"):
        enumerate_best(UNIT_PAIR)


def test_enumerate_rejects_unknown_granularity():
    with pytest.raises(ValueError, match="granularity"):
        enumerate_best(UNIT_PAIR, "halfway")


def test_trivial_bound_examples():
    assert trivial_lower_bound(inst([(2, 1, {(1, 1): 4})])) == pytest.approx(6.0)
    spread = inst([(0, 1, {(1, 1): 5, (1, 2): 5})], cores=2)
    assert trivial_lower_bound(spread) == pytest.approx(5.0)
    assert trivial_lower_bound(UNIT_PAIR) == pytest.approx(3.0)


def dense_lower_bound(instance):
    """``trivial_lower_bound`` as it was, over the rows of the dense loads."""
    table = compile_table(instance)
    m = instance.cores
    total = 0.0
    for c in instance.coflows:
        floor = max(
            c.release + max(c.demands.values(), default=0),
            float(table.load_in[c.id].max()) / m,
            float(table.load_out[c.id].max()) / m,
        )
        total += c.weight * floor
    return total


FLOWLESS = (
    inst([(4, 2, {}), (0, 1, {(1, 2): 3, (2, 2): 5}), (1, 1.5, {})], cores=2, ports=2),
    inst([(0, 1, {}), (7, 3, {})], cores=1, ports=1),
    inst([(0, 3, {(1, 1): 6, (2, 1): 6}), (9, 1, {}), (3, 2, {(2, 2): 1})], cores=2, ports=2),
)


# The busiest port over m sets the floor, on the input side for coflow 1
# (9 / 2 against 3) and on the output side for coflow 2 (7 / 2 against 3).
PORT_BOUND = inst(
    [(0, 2, {(1, 1): 3, (1, 2): 3, (1, 3): 3}), (0, 1, {(1, 3): 2, (2, 3): 2, (3, 3): 3})],
    cores=2,
)


def test_trivial_bound_matches_dense_rows():
    assert trivial_lower_bound(PORT_BOUND) == 2 * 4.5 + 1 * 3.5
    for instance in [*map(tiny_instance, range(200)), *FLOWLESS, PORT_BOUND]:
        got, want = trivial_lower_bound(instance), dense_lower_bound(instance)
        assert repr(got) == repr(want)


def test_trivial_bound_folds_weights_as_python_floats():
    # A float32 weight times a float floor stays float32, so the sum would
    # round to float32 (1.0 here) where enumerate_best's fold does not.
    w1, w2 = np.float32(0.1), np.float32(0.7)
    pair = inst([(0, w1, {(1, 1): 3}), (0, w2, {(2, 2): 1})])
    got = trivial_lower_bound(pair)
    assert type(got) is float
    assert got == 0.0 + float(w1) * 3.0 + float(w2) * 1.0
    assert got == enumerate_best(pair).best_cost


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
    assert type(got.best_cost) is float
    assert all(type(x) is int for x in [*got.best_order, *got.best_assignment.values()])


def assert_matches_reference(instance):
    for granularity in ("flow", "coflow"):
        assert_same(enumerate_best(instance, granularity), reference_best(instance, granularity))


@pytest.fixture(scope="module")
def tiny_results():
    """enumerate_best on the tiny corpus, counting per-core runs, no simulate."""
    runs = []
    run_core = oracle._run_core

    def counted(table, fill, rows, out, ports):
        runs.append(rows)
        run_core(table, fill, rows, out, ports)

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


def test_projections_match_the_direct_filter(tiny_results):
    # Every non-empty coflow subset of every n up to the cap; enumerate_best
    # never asks for the empty one, so the cache holds at most
    # sum(2^n - 1 for n <= 6) = 120 entries, the corpus's included. The
    # orders, as first met in lexicographic permutation order, are
    # permutations(S) in its order, which enumerate_best fills them in.
    for n in range(1, oracle.ORACLE_MAX_COFLOWS + 1):
        perms = list(permutations(range(1, n + 1)))
        for size in range(1, n + 1):
            for coflows in combinations(range(1, n + 1), size):
                picks, count = oracle._projections(n, coflows)
                orders = list(permutations(coflows))
                direct = [tuple(k for k in p if k in coflows) for p in perms]
                assert list(dict.fromkeys(direct)) == orders
                assert count == len(orders)
                assert picks.dtype == np.intp and not picks.flags.writeable
                assert [orders[i] for i in picks] == direct
    assert oracle._projections.cache_info().currsize <= 120


def test_matches_reference_on_random_tiny():
    rng = np.random.default_rng(7)
    for _ in range(40):
        assert_matches_reference(random_tiny(rng))


def long_tiny(rng):
    """``random_tiny`` with each release and size scaled past ``BIT_HORIZON``,
    sizes plus an offset of 0-99, so the oracle takes the run-list fill."""
    tiny, scale = random_tiny(rng), BIT_HORIZON + 1
    coflows = []
    for c in tiny.coflows:
        demands = {p: d * scale + int(rng.integers(0, 100)) for p, d in c.demands.items()}
        coflows.append((c.release * scale, c.weight, demands))
    return inst(coflows, cores=tiny.cores, ports=3)


def test_run_list_path_matches_reference():
    rng = np.random.default_rng(12)
    for instance in [one_core_instance(BIT_HORIZON + 1), *(long_tiny(rng) for _ in range(12))]:
        assert instance.table.horizon > BIT_HORIZON
        assert_matches_reference(instance)


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


# --- edge cases of block scoring, against the pair-by-pair memo loop ----------
def undercuts(instance, granularity):
    """Pairs whose cost is below the running best by less than 1e-12.

    The witness rule keeps the earlier pair for them. Returns how many lie in
    the running witness's own permutation and how many in a later one.
    """
    keys = instance.table.keys
    n, m = instance.n, instance.cores
    slots = len(keys) if granularity == "flow" else n
    best, best_perm, within, across = float("inf"), None, 0, 0
    for perm in permutations(range(1, n + 1)):
        for cores in product(range(1, m + 1), repeat=slots):
            if granularity == "flow":
                placement = dict(zip(keys, cores))
                assignment = Assignment.of_flows(instance, "flow", placement)
            else:
                by_coflow = dict(zip(range(1, n + 1), cores))
                placement = {key: by_coflow[key.k] for key in keys}
                assignment = Assignment.of_flows(instance, "coflow", placement)
            cost = simulate(instance, list(perm), assignment).objective
            if cost < best - 1e-12:
                best, best_perm = cost, perm
            elif cost < best:
                within += perm == best_perm
                across += perm != best_perm
    return within, across


# Float weights whose weighted sums differ in the last bits between pairs of
# equal exact cost, found by a seeded search.
NEAR_TIE_WITHIN = inst(
    [(2, 0.3, {(2, 1): 3}), (1, 0.2, {(2, 2): 2, (1, 2): 1}), (2, 0.2, {(2, 1): 2, (2, 2): 3})],
    cores=2,
)
NEAR_TIE_ACROSS = inst(
    [(2, 0.3, {(1, 1): 3}), (2, 0.7, {(1, 1): 2, (2, 1): 3}), (0, 0.1, {(2, 2): 1, (1, 1): 3})],
    cores=2,
)
NEAR_TIE_ONE_CORE = inst(
    [(2, 0.3, {(1, 1): 2, (2, 1): 1}), (2, 0.1, {(2, 1): 1}), (0, 0.1, {(2, 1): 1})]
)
# Identical coflows: swapping them or their cores gives the same cost.
TWINS = inst([(0, 1, {(1, 1): 2}), (0, 1, {(1, 1): 2})], cores=2)


@pytest.mark.parametrize(
    "instance, granularity, within, across",
    [
        (NEAR_TIE_WITHIN, "flow", 1, 0),
        (NEAR_TIE_ACROSS, "coflow", 0, 6),
        (NEAR_TIE_ONE_CORE, "flow", 0, 3),
    ],
)
def test_cases_undercut_by_less_than_the_tolerance(instance, granularity, within, across):
    assert undercuts(instance, granularity) == (within, across)


EDGE_CASES = [
    pytest.param(NEAR_TIE_WITHIN, id="sub-1e-12-tie-within-permutation"),
    pytest.param(NEAR_TIE_ACROSS, id="sub-1e-12-tie-across-permutations"),
    pytest.param(NEAR_TIE_ONE_CORE, id="sub-1e-12-tie-one-core"),
    # Disjoint unit flows: 0.1 + 0.2 + 0.3 in id order is 0.6000000000000001,
    # in any other order 0.6.
    pytest.param(
        inst([(0, 0.1, {(1, 1): 1}), (0, 0.2, {(2, 2): 1}), (0, 0.3, {(3, 3): 1})]),
        id="fold-order",
    ),
    pytest.param(TWINS, id="exact-ties"),
    pytest.param(Instance(cores=2, ports=2, coflows=()), id="no-coflows"),
    pytest.param(
        inst([(3, 2, {}), (0, 1.5, {}), (1, 4, {})], cores=2, ports=2), id="all-flowless"
    ),
    pytest.param(
        inst([(0, 2, {(1, 1): 3}), (4, 3, {}), (0, 1, {(1, 2): 1, (2, 1): 2})], ports=2),
        id="one-core-with-flowless",
    ),
    pytest.param(
        inst(
            [(5, 1, {}), (0, 2, {(1, 1): 3, (2, 2): 1}), (2, 3, {}), (0, 1, {(1, 2): 2})],
            cores=2,
            ports=2,
        ),
        id="cores-with-flowless",
    ),
]


@pytest.mark.parametrize("block_cells", [1, oracle.BLOCK_CELLS])
@pytest.mark.parametrize("instance", EDGE_CASES)
def test_edge_cases_match_memo_reference(monkeypatch, instance, block_cells):
    # With one cell per block every permutation is scored in a block of its own.
    monkeypatch.setattr(oracle, "BLOCK_CELLS", block_cells)
    for granularity in ("flow", "coflow"):
        want = memo_reference_best(instance, granularity)
        assert_same(enumerate_best(instance, granularity), want)
        assert_same(want, reference_best(instance, granularity))


def test_numpy_weights_fold_as_python_floats():
    # Folded in float32, the objective would be np.float32(1.7), not the
    # oracle's float64 cost.
    weights = np.float32(0.1), np.float32(0.7)
    instance = inst([(0, weights[0], {(1, 1): 3}), (0, weights[1], {(2, 2): 2})], cores=2)
    for granularity in ("flow", "coflow"):
        best = enumerate_best(instance, granularity)
        assignment = Assignment.of_flows(instance, granularity, best.best_assignment)
        objective = simulate(instance, best.best_order, assignment).objective
        assert type(objective) is float
        assert objective == best.best_cost == float(weights[0]) * 3 + float(weights[1]) * 2


def test_exact_ties_keep_the_first_pair():
    res = enumerate_best(TWINS, "flow")
    assert res.best_order == [1, 2]
    assert list(res.best_assignment.values()) == [1, 2]
    empty = enumerate_best(Instance(cores=2, ports=1, coflows=()), "coflow")
    assert (empty.best_cost, empty.best_order, empty.best_assignment) == (0.0, [], {})
    assert empty.schedules_examined == 1


# n=6 with 8 flows on m=2: 720 x 256 = 184,320 pairs at flow level.
NEAR_CAP = inst(
    [
        (0, 1, {(1, 1): 4, (2, 2): 1}),
        (0, 1, {(1, 2): 4}),
        (0, 1, {(1, 3): 4, (3, 3): 2}),
        (0, 1, {(2, 1): 3}),
        (0, 2, {(3, 1): 3}),
        (0, 10, {(1, 1): 1}),
    ],
    cores=2,
    ports=3,
)


# Distinct per-core runs on NEAR_CAP: each distinct core mask once per order
# of its own coflows.
NEAR_CAP_CORE_RUNS = {"flow": 13_960, "coflow": 1_956}


@pytest.fixture(scope="module")
def near_cap():
    """enumerate_best on NEAR_CAP at both granularities with its per-core run
    counts, and the tracemalloc peak of one more flow-level call."""
    results, runs = {}, {}
    run_core = oracle._run_core
    with pytest.MonkeyPatch.context() as mp:
        for granularity in ("flow", "coflow"):
            runs[granularity] = 0

            def counted(table, fill, rows, out, ports, granularity=granularity):
                runs[granularity] += 1
                run_core(table, fill, rows, out, ports)

            mp.setattr(oracle, "_run_core", counted)
            results[granularity] = enumerate_best(NEAR_CAP, granularity)
    # The calls above filled the _projections cache, so the peak is the call's.
    tracemalloc.start()
    try:
        assert enumerate_best(NEAR_CAP, "flow") == results["flow"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return results, runs, peak


def test_near_cap_memory_is_blocked(near_cap):
    # Scoring all 720 permutations in one block would hold 720 x 256 x 8
    # float64 finish times, 11.8 MB. The call peaks at about 1.3 MB: the
    # per-mask runs take 13,960 x 8 float64 (0.9 MB), and a block's picks and
    # gathers are bounded by BLOCK_CELLS. The per-(permutation, mask) memo
    # it replaced peaked at about 3.0-3.5 MB.
    assert near_cap[2] < 6e6


def test_near_cap_fills_each_core_sequence_once(near_cap):
    assert near_cap[1] == NEAR_CAP_CORE_RUNS


def test_near_cap_matches_memo_reference_past_the_first_block(near_cap):
    for granularity, slots in (("flow", 8), ("coflow", 6)):
        got = near_cap[0][granularity]
        assert_same(got, memo_reference_best(NEAR_CAP, granularity))
        assert got.schedules_examined == 720 * 2**slots
        block = oracle.BLOCK_CELLS // (2**slots * 8)
        assert list(permutations(range(1, 7))).index(tuple(got.best_order)) >= block
