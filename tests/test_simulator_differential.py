"""The one-pass simulator against the rescanning reference, exactly.

``_reference_sim.simulate`` is the first simulator: it rebuilds every
core's transmitting set at every event. ``simulate`` instead places each
core's flows best first into the free time of their two ports. Both run
the same greedy list-schedule rule, so flow completions, coflow
completions, the objective and the full timeline must be equal, compared
with ``==`` and with ``repr`` so that a float and an equal int, or two
floats printed differently, also count as a difference; the coflow
completions and the objective are the ones the reference folds itself.
The reference is quadratic, so these instances are small;
``test_simulator_scale.py`` checks large ones against the event loop. On a
tampered placement ``Assignment.of_flows`` must raise the exception the
reference raises, with the same message, except where a key that is no
flow follows a bad core: ``of_flows`` checks the keys before the
constructor checks the cores. The reference takes a bool core for an int,
and then refuses it as ``of_flows`` does when it builds the placement its
result holds.
"""

import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

from _reference_sim import simulate as reference_simulate
from coflowsched.model import Coflow, FlowKey, Instance
from coflowsched.ordering import order_coflow_level, order_flow_level
from coflowsched.scheduling import (
    Assignment,
    ScheduleResult,
    assign_cdls,
    assign_fdls,
    audit_schedule,
    simulate,
)
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
    assert plain.timeline is None
    assert repr(plain.flow_completion) == repr(new.flow_completion)
    assert audit_schedule(instance, order, assignment, new) == []
    return new


def seeded_instances(cores):
    for seed in range(4):
        yield gen_mix(8, 6, seed, cores=cores)
        yield gen_mix(8, 6, 100 + seed, cores=cores, release_max=30)
        yield gen_density(6, 4, "combined", 200 + seed, cores=cores)
        yield gen_density(6, 4, "dense", 300 + seed, cores=cores, release_max=60)


@pytest.mark.parametrize("cores", [1, 2, 3, 5])
@pytest.mark.parametrize("granularity", sorted(STAGES))
def test_matches_reference_on_seeded_instances(granularity, cores):
    order_fn, assign_fn = STAGES[granularity]
    for instance in seeded_instances(cores):
        perm = order_fn(instance, 0.5)
        assert_same_schedule(instance, perm, assign_fn(instance, perm))


@pytest.mark.parametrize("granularity", sorted(STAGES))
def test_matches_reference_on_random_orders_and_placements(granularity):
    # Arbitrary orders and placements reach states the two policies avoid:
    # long preemption chains, idle cores, and many ties on few ports.
    rng = random.Random(7)
    for _ in range(150):
        ports, cores, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 5)
        coflows = []
        for k in range(1, n + 1):
            pairs = rng.sample(
                [(i, j) for i in range(1, ports + 1) for j in range(1, ports + 1)],
                rng.randint(0, ports * ports),
            )
            demands = {pair: rng.randint(1, 4) for pair in pairs}
            coflows.append(Coflow(k, rng.choice([0, 0, 1, 2, 3, 5]), rng.randint(1, 9), demands))
        instance = Instance(cores, ports, tuple(coflows))
        order = rng.sample(range(1, n + 1), n)
        keys = instance.table.keys
        if granularity == "flow":
            placement = {key: rng.randint(1, cores) for key in keys}
            assignment = Assignment.of_flows(instance, "flow", placement)
        else:
            by_coflow = {k: rng.randint(1, cores) for k in range(1, n + 1)}
            placement = {key: by_coflow[key.k] for key in keys}
            assignment = Assignment.of_flows(instance, "coflow", placement)
        assert_same_schedule(instance, order, assignment)


@pytest.mark.parametrize("granularity", sorted(STAGES))
def test_of_flows_rebuilds_pipeline_objects(granularity):
    # A placement and a result that of_flows builds from the views of the
    # pipeline's own equal them, down to the rows and columns they hold, and
    # simulate and the audit read them alike.
    order_fn, assign_fn = STAGES[granularity]
    for instance in seeded_instances(3):
        perm = order_fn(instance, 0.5)
        placed = assign_fn(instance, perm)
        got = simulate(instance, perm, placed, emit_timeline=True)
        hand = Assignment.of_flows(instance, granularity, placed.flow_to_core)
        rebuilt = ScheduleResult.of_flows(hand, got.flow_completion, got.timeline)
        assert hand == placed and repr(hand) == repr(placed)
        assert rebuilt == got and repr(rebuilt) == repr(got)
        assert hand.core_of == placed.core_of and rebuilt.finish == got.finish
        for mine, theirs in zip(rebuilt.columns, got.columns):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert simulate(instance, perm, hand, emit_timeline=True) == got
        assert audit_schedule(instance, perm, hand, rebuilt) == []


def test_timeline_order_past_the_int64_codes():
    # A release of 2**40 leaves (latest end + 1)^2 x flows above int64, so
    # the segments are put in Segment order by np.lexsort, not by one sort
    # of int64 codes. Equal flows on disjoint ports share their start and
    # end, so the key order breaks ties.
    late = 2**40
    instance = Instance(
        2,
        3,
        (
            Coflow(1, late, 2, {(3, 3): 3, (2, 2): 3, (1, 1): 3, (1, 2): 1}),
            Coflow(2, 0, 1, {(2, 1): 4, (1, 3): 4, (3, 2): 4}),
            Coflow(3, late, 1, {(2, 3): 2, (3, 1): 2}),
        ),
    )
    for order_fn, assign_fn in STAGES.values():
        perm = order_fn(instance, 0.5)
        result = assert_same_schedule(instance, perm, assign_fn(instance, perm))
        spans = [(s.start, s.end) for s in result.timeline]
        assert max(spans)[1] > late and len(set(spans)) < len(spans)


def one_core(coflows, ports):
    """A one-core instance, its coflows in id order, every flow on core 1."""
    instance = Instance(1, ports, tuple(coflows))
    placement = {key: 1 for key in instance.table.keys}
    return instance, list(range(1, instance.n + 1)), Assignment.of_flows(instance, "flow", placement)


def test_equal_sizes_tie_on_port_order():
    # Equal sizes rank by (i, j): (1, 1) before (1, 2) before (2, 1).
    instance, order, assignment = one_core(
        [
            Coflow(1, 0, 1, {(1, 1): 3, (1, 2): 3, (2, 1): 3, (2, 2): 3}),
            Coflow(2, 0, 1, {(1, 1): 3, (2, 2): 3}),
        ],
        ports=2,
    )
    res = assert_same_schedule(instance, order, assignment)
    assert res.flow_completion[FlowKey(1, 1, 1)] == 3.0
    assert res.flow_completion[FlowKey(2, 2, 1)] == 3.0
    assert res.flow_completion[FlowKey(1, 2, 1)] == 6.0


def test_completion_at_the_instant_of_a_release():
    # Coflow 1 is released at 4, exactly when coflow 2's flow on its ports
    # completes; coflow 2's second flow is preempted at the same instant.
    instance, order, assignment = one_core(
        [
            Coflow(1, 4, 5, {(1, 2): 2}),
            Coflow(2, 0, 1, {(1, 1): 4, (2, 2): 6}),
        ],
        ports=2,
    )
    res = assert_same_schedule(instance, order, assignment)
    assert res.flow_completion[FlowKey(1, 2, 1)] == 6.0
    assert res.flow_completion[FlowKey(2, 2, 2)] == 8.0
    assert [(s.start, s.end) for s in res.timeline if s.flow == FlowKey(2, 2, 2)] == [
        (0.0, 4.0),
        (6.0, 8.0),
    ]


def test_release_preempts_a_chain_of_flows():
    # At t=2 flow (1, 2) of the top coflow preempts (1, 1), freeing output
    # 1. (2, 1) was waiting only for output 1, so it starts and preempts
    # (2, 3), freeing output 3; (4, 3) then starts and preempts (4, 4).
    instance, order, assignment = one_core(
        [
            Coflow(1, 2, 9, {(1, 2): 3}),
            Coflow(2, 0, 8, {(1, 1): 9}),
            Coflow(3, 0, 7, {(2, 1): 9}),
            Coflow(4, 0, 6, {(2, 3): 9}),
            Coflow(5, 0, 5, {(4, 3): 9}),
            Coflow(6, 0, 4, {(4, 4): 9}),
        ],
        ports=4,
    )
    res = assert_same_schedule(instance, order, assignment)
    preempted_at_2 = sorted(s.flow for s in res.timeline if s.end == 2.0)
    assert preempted_at_2 == [FlowKey(1, 1, 2), FlowKey(2, 3, 4), FlowKey(4, 4, 6)]
    started_at_2 = sorted(s.flow for s in res.timeline if s.start == 2.0)
    assert started_at_2 == [FlowKey(1, 2, 1), FlowKey(2, 1, 3), FlowKey(4, 3, 5)]


def test_empty_coflows_and_an_idle_core():
    # Coflows 2 and 4 have no flows and complete at their releases; core 2
    # of 3 receives no flow.
    instance = Instance(
        3,
        2,
        (
            Coflow(1, 0, 1, {(1, 1): 2, (2, 2): 5}),
            Coflow(2, 7, 3, {}),
            Coflow(3, 1, 2, {(1, 2): 4}),
            Coflow(4, 0, 1, {}),
        ),
    )
    placement = {key: (1 if key.k == 1 else 3) for key in instance.table.keys}
    assignment = Assignment.of_flows(instance, "flow", placement)
    res = assert_same_schedule(instance, [3, 1, 2, 4], assignment)
    assert res.coflow_completion[2] == 7.0 and res.coflow_completion[4] == 0.0
    assert {s.core for s in res.timeline} == {1, 3}


class Core(int):
    """An int subclass, which is a valid core id."""


# Coflow 1 has flows (1, 1, 1) and (1, 2, 1), coflow 2 has (2, 1, 2); m = 2.
PLACED = Instance(
    2, 2, (Coflow(1, 0, 1, {(1, 1): 2, (1, 2): 3}), Coflow(2, 0, 1, {(2, 1): 1}))
)
GOOD = {FlowKey(1, 1, 1): 1, FlowKey(1, 2, 1): 2, FlowKey(2, 1, 2): 1}
STRAY = FlowKey(9, 9, 9)


def with_core(core):
    return {**GOOD, FlowKey(1, 2, 1): core}


# Placements tampered one way each; the last four are accepted. Where a key
# that is no flow follows a bad core, the reference names the bad core, the
# first fault in dict order, and of_flows names the key: it checks the keys
# before the constructor checks the cores, in table order.
PLACEMENTS = {
    "unknown-then-bad-core": {STRAY: 1, **with_core(0)},
    "bad-core-then-unknown": {**with_core(0), STRAY: 1},
    "two-bad-cores": {**with_core(3), FlowKey(2, 1, 2): 0},
    "missing-and-unknown": {FlowKey(1, 1, 1): 1, FlowKey(1, 2, 1): 2, STRAY: 1},
    "missing": {FlowKey(1, 1, 1): 1, FlowKey(2, 1, 2): 2},
    "none": with_core(None),
    "zero": with_core(0),
    "above-m": with_core(3),
    "float": with_core(1.0),
    "np-bool": with_core(np.True_),
    "np-int64": with_core(np.int64(2)),
    "int-subclass": with_core(Core(2)),
    "all-np-int64": {key: np.int64(h) for key, h in GOOD.items()},
    "good": GOOD,
}
ACCEPTED = {"np-int64", "int-subclass", "all-np-int64", "good"}
KEYS_FIRST = {"bad-core-then-unknown": (ValueError, "assignment references unknown flow (9, 9, 9)")}


def outcome(run, instance, order, placement):
    """The exception type and message a simulator raises, or its results' repr.

    ``simulate`` gets the placement through ``Assignment.of_flows``, which
    checks it; the reference reads the dict and checks it itself.
    """
    try:
        if run is simulate:
            assignment = Assignment.of_flows(instance, "flow", placement)
            res = simulate(instance, order, assignment, emit_timeline=True)
            done, objective = res.coflow_completion, res.objective
        else:
            assignment = SimpleNamespace(granularity="flow", flow_to_core=placement)
            res, done, objective = run(instance, order, assignment, emit_timeline=True)
    except Exception as exc:
        return type(exc), str(exc)
    return repr((res.flow_completion, done, objective, res.timeline))


@pytest.mark.parametrize("case", sorted(PLACEMENTS))
def test_placement_check_matches_reference(case):
    placement = PLACEMENTS[case]
    got = outcome(simulate, PLACED, [1, 2], placement)
    want = outcome(reference_simulate, PLACED, [1, 2], placement)
    if case in KEYS_FIRST:
        assert want == (ValueError, "flow (1, 2, 1) assigned to core 0, valid range 1..2")
        want = KEYS_FIRST[case]
    assert got == want
    assert isinstance(got, str) == (case in ACCEPTED)


def test_placement_of_a_bool_core():
    # The reference's own check takes True for core 1, as
    # isinstance(True, int) holds, but the placement its result holds is
    # built by of_flows, which refuses a bool core with the message it
    # gives any bad core, with or without a timeline.
    placement = with_core(True)
    stand_in = SimpleNamespace(granularity="flow", flow_to_core=placement)
    message = "flow (1, 2, 1) assigned to core True, valid range 1..2"
    with pytest.raises(ValueError, match=re.escape(message)):
        reference_simulate(PLACED, [1, 2], stand_in)
    assert outcome(reference_simulate, PLACED, [1, 2], placement) == (ValueError, message)
    assert outcome(simulate, PLACED, [1, 2], placement) == (ValueError, message)


@pytest.mark.parametrize("placement", [{}, {STRAY: 1}, {STRAY: 0}])
def test_placement_check_on_an_empty_instance(placement):
    empty = Instance(1, 1, (Coflow(1, 3, 1, {}),))
    got = outcome(simulate, empty, [1], placement)
    assert got == outcome(reference_simulate, empty, [1], placement)
