"""The one-pass simulator against the per-core event loop, at scale.

``_reference_event_sim.simulate`` is the event loop the one-pass fill
replaced. It runs in O((flows + segments) log flows) per core, so unlike the
rescanning ``_reference_sim`` it can check instances of thousands of flows.
Both run the same greedy list-schedule rule, so flow completions, coflow
completions, the objective and the timeline must be equal, compared with
``==`` and with ``repr``; the coflow completions and the objective are the
ones the reference folds itself.

The last test guards the cost of the fill without timing it: it counts the
``bisect_right`` calls of ``_list_schedule``, at least one per step of its
loop, and bounds them per flow plus segment.
"""

import random

import pytest

from _reference_event_sim import simulate as reference_simulate
from coflowsched import scheduling
from coflowsched.model import MAX_HORIZON, MAX_PORT_TOTAL, Coflow, FlowKey, Instance
from coflowsched.ordering import order_coflow_level, order_flow_level
from coflowsched.scheduling import Assignment, assign_cdls, assign_fdls, simulate
from coflowsched.workload import gen_density, gen_mix

STAGES = {
    "flow": (order_flow_level, assign_fdls),
    "coflow": (order_coflow_level, assign_cdls),
}


def assert_same_schedule(instance, order, assignment):
    new = simulate(instance, order, assignment, emit_timeline=True)
    ref, ref_done, ref_objective = reference_simulate(
        instance, order, assignment, emit_timeline=True
    )
    for got, want in (
        (new.flow_completion, ref.flow_completion),
        (new.coflow_completion, ref_done),
        (new.objective, ref_objective),
        (new.timeline, ref.timeline),
    ):
        assert got == want
        assert repr(got) == repr(want)
    plain = simulate(instance, order, assignment)
    assert repr(plain) == repr(reference_simulate(instance, order, assignment)[0])
    return new


def scale_instances(seed):
    yield gen_mix(60, 20, seed, cores=5)
    yield gen_mix(60, 20, 10 + seed, cores=5, release_max=300)
    yield gen_density(12, 8, "dense", 20 + seed, cores=5)
    yield gen_density(12, 8, "dense", 30 + seed, cores=5, release_max=100)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("granularity", sorted(STAGES))
def test_matches_event_loop_on_policy_schedules(granularity, seed):
    order_fn, assign_fn = STAGES[granularity]
    for instance in scale_instances(seed):
        perm = order_fn(instance, 0.5)
        assert_same_schedule(instance, perm, assign_fn(instance, perm))


@pytest.mark.parametrize("granularity", sorted(STAGES))
def test_matches_event_loop_on_random_orders_and_placements(granularity):
    rng = random.Random(11)
    for seed in range(3):
        for instance in scale_instances(40 + seed):
            n, m = instance.n, instance.cores
            order = rng.sample(range(1, n + 1), n)
            keys = instance.table.keys
            if granularity == "flow":
                placement = {key: rng.randint(1, m) for key in keys}
                assignment = Assignment.of_flows(instance, "flow", placement)
            else:
                by_coflow = {k: rng.randint(1, m) for k in range(1, n + 1)}
                placement = {key: by_coflow[key.k] for key in keys}
                assignment = Assignment.of_flows(instance, "coflow", placement)
            assert_same_schedule(instance, order, assignment)


def in_id_order(coflows, ports, cores=1, core_of=lambda key: 1):
    """An instance ranked by coflow id, each flow on ``core_of(key)``."""
    instance = Instance(cores, ports, tuple(coflows))
    placement = {key: core_of(key) for key in instance.table.keys}
    return instance, list(range(1, instance.n + 1)), Assignment.of_flows(instance, "flow", placement)


def spans(result, key):
    return [(s.start, s.end) for s in result.timeline if s.flow == key]


def test_piece_touches_runs_at_both_ends():
    # Input 1 is busy [0, 2) and [5, 8). Flow (1, 2, 3) fills [2, 5)
    # exactly, so the two runs and the piece merge into one; flow (1, 4, 4)
    # then finds input 1 busy up to 15.
    instance, order, assignment = in_id_order(
        [
            Coflow(1, 0, 1, {(1, 1): 2}),
            Coflow(2, 5, 1, {(1, 3): 3}),
            Coflow(3, 0, 1, {(1, 2): 10}),
            Coflow(4, 0, 1, {(1, 4): 1}),
        ],
        ports=4,
    )
    res = assert_same_schedule(instance, order, assignment)
    assert spans(res, FlowKey(1, 2, 3)) == [(2.0, 5.0), (8.0, 15.0)]
    assert spans(res, FlowKey(1, 4, 4)) == [(15.0, 16.0)]


def test_release_inside_a_busy_run():
    instance, order, assignment = in_id_order(
        [Coflow(1, 0, 1, {(1, 1): 5}), Coflow(2, 3, 1, {(1, 2): 2})], ports=2
    )
    res = assert_same_schedule(instance, order, assignment)
    assert spans(res, FlowKey(1, 2, 2)) == [(5.0, 7.0)]


def test_same_port_pair_twice_on_one_core():
    # Coflows 1 and 2 share the pair (1, 1) on core 1 and run in turn;
    # coflow 3 has it too, but on core 2, so it runs at once.
    instance, order, assignment = in_id_order(
        [
            Coflow(1, 0, 1, {(1, 1): 3}),
            Coflow(2, 0, 1, {(1, 1): 2}),
            Coflow(3, 0, 1, {(1, 1): 4}),
        ],
        ports=1,
        cores=2,
        core_of=lambda key: 2 if key.k == 3 else 1,
    )
    res = assert_same_schedule(instance, order, assignment)
    assert [res.coflow_completion[k] for k in (1, 2, 3)] == [3.0, 5.0, 4.0]


def test_input_and_output_with_the_same_id_are_distinct_ports():
    # (2, 1) and (1, 2) share no port: input 2 is not output 2.
    instance, order, assignment = in_id_order(
        [Coflow(1, 0, 1, {(2, 1): 4}), Coflow(2, 0, 1, {(1, 2): 4}), Coflow(3, 0, 1, {(2, 2): 1})],
        ports=2,
    )
    res = assert_same_schedule(instance, order, assignment)
    assert [res.coflow_completion[k] for k in (1, 2, 3)] == [4.0, 4.0, 5.0]


def test_sizes_and_releases_at_the_limits():
    # Input 1 and output 2 each carry MAX_PORT_TOTAL, and the release plus
    # the total size is MAX_HORIZON: every time is still an exact integer.
    size = MAX_PORT_TOTAL - 1
    release = MAX_HORIZON - (2 * size + 1)
    instance, order, assignment = in_id_order(
        [
            Coflow(1, release, 1, {(1, 1): size}),
            Coflow(2, release, 1, {(2, 2): size}),
            Coflow(3, release, 1, {(1, 2): 1}),
        ],
        ports=2,
    )
    res = assert_same_schedule(instance, order, assignment)
    assert res.coflow_completion[1] == float(release + size)
    assert spans(res, FlowKey(1, 2, 3)) == [(float(release + size), float(release + size + 1))]


# Measured at most 3.07 bisect_right calls per (flow + segment), at n=200
# under flow granularity; the bound leaves a 30% margin. The event loop
# this replaced made about 10 candidate pops per (flow + segment).
STEPS_PER_FLOW_AND_SEGMENT = 4.0


@pytest.mark.parametrize("n", [50, 100, 200])
def test_fill_steps_per_flow_and_segment_are_bounded(n, monkeypatch):
    calls = 0
    bisect_right = scheduling.bisect_right

    def counted(*args):
        nonlocal calls
        calls += 1
        return bisect_right(*args)

    monkeypatch.setattr(scheduling, "bisect_right", counted)
    instance = gen_mix(n, 50, 0, cores=5)
    for order_fn, assign_fn in STAGES.values():
        perm = order_fn(instance, 0.5)
        assignment = assign_fn(instance, perm)
        calls = 0
        res = simulate(instance, perm, assignment, emit_timeline=True)
        work = len(res.flow_completion) + len(res.timeline)
        # Every piece takes a bisect on each port, so fewer calls than
        # flows plus segments means the counter missed the loop.
        assert work <= calls <= STEPS_PER_FLOW_AND_SEGMENT * work, (calls, work)
