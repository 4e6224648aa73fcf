"""Core assignment policies and the one-pass list-schedule simulator.

The simulator places each core's flows best first into the free time of
their two ports; these tests pin its schedules on hand-built cases and the
checks a placement and a result make when they are built.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from _shared import cdls_bound, fdls_bound
from coflowsched.experiments import run_pipeline
from coflowsched.model import Coflow, FlowKey, Instance, dumps_instance, loads_instance
from coflowsched.ordering import order_coflow_level, order_flow_level
from coflowsched.scheduling import (
    Assignment,
    ScheduleResult,
    Segment,
    _list_schedule,
    assign_cdls,
    assign_fdls,
    audit_schedule,
    simulate,
)
from coflowsched.workload import gen_density, gen_mix


def make(coflows, cores=1, ports=None):
    ports = ports or max(
        max(max(i, j) for i, j in c.demands) if c.demands else 1 for c in coflows
    )
    return Instance(cores=cores, ports=ports, coflows=tuple(coflows))


def one_coflow(demands, cores=1, release=0, weight=1, ports=None):
    return make(
        [Coflow(id=1, release=release, weight=weight, demands=demands)],
        cores=cores,
        ports=ports,
    )


# --- FDLS assignment --------------------------------------------------------


def test_fdls_single_core_puts_everything_on_core_one():
    inst = one_coflow({(1, 1): 5, (2, 3): 2, (3, 2): 7}, cores=1, ports=3)
    asg = assign_fdls(inst, [1])
    assert set(asg.flow_to_core.values()) == {1}


def test_fdls_greedy_split_on_shared_input():
    # size 5 goes first (core 1 by tie); size 3 then sees 5 vs 0 -> core 2
    inst = one_coflow({(1, 1): 5, (1, 2): 3}, cores=2)
    asg = assign_fdls(inst, [1])
    assert asg.flow_to_core[FlowKey(1, 1, 1)] == 1
    assert asg.flow_to_core[FlowKey(1, 2, 1)] == 2


def test_fdls_disjoint_ports_tie_to_core_one():
    inst = one_coflow({(1, 1): 6, (2, 2): 4}, cores=2)
    asg = assign_fdls(inst, [1])
    assert asg.flow_to_core[FlowKey(1, 1, 1)] == 1
    assert asg.flow_to_core[FlowKey(2, 2, 1)] == 1


def test_fdls_processes_flows_largest_first():
    # three flows on one input port: 9 -> core1, 6 -> core2, 2 -> core2 (2 vs 9... )
    inst = one_coflow({(1, 1): 9, (1, 2): 6, (1, 3): 2}, cores=2, ports=3)
    asg = assign_fdls(inst, [1])
    assert asg.flow_to_core[FlowKey(1, 1, 1)] == 1
    assert asg.flow_to_core[FlowKey(1, 2, 1)] == 2
    # core 1 input load 9, core 2 input load 6 -> smallest flow joins core 2
    assert asg.flow_to_core[FlowKey(1, 3, 1)] == 2


# --- CDLS assignment --------------------------------------------------------


def coflow_cores(asg):
    """Each coflow's core, read from its flows'; a flowless coflow has none."""
    return {key.k: h for key, h in asg.flow_to_core.items()}


def test_cdls_single_core():
    inst = make(
        [
            Coflow(id=1, release=0, weight=1, demands={(1, 1): 4}),
            Coflow(id=2, release=0, weight=1, demands={(2, 2): 1}),
        ],
        cores=1,
    )
    asg = assign_cdls(inst, [1, 2])
    assert coflow_cores(asg) == {1: 1, 2: 1}


def test_cdls_identical_coflows_spread_out():
    inst = make(
        [
            Coflow(id=1, release=0, weight=1, demands={(1, 1): 4}),
            Coflow(id=2, release=0, weight=1, demands={(1, 1): 4}),
        ],
        cores=2,
    )
    asg = assign_cdls(inst, [1, 2])
    # second coflow: core 1 scores (4+4)+(4+4)=16, core 2 scores 4+4=8
    assert coflow_cores(asg) == {1: 1, 2: 2}


def test_cdls_disjoint_ports_tie_to_core_one():
    inst = make(
        [
            Coflow(id=1, release=0, weight=1, demands={(1, 1): 8}),
            Coflow(id=2, release=0, weight=1, demands={(2, 2): 2}),
        ],
        cores=2,
    )
    asg = assign_cdls(inst, [1, 2])
    assert coflow_cores(asg) == {1: 1, 2: 1}


def test_cdls_score_ignores_ports_the_coflow_skips():
    # Core 1 is busy only on ports coflow 2 never touches, so both cores
    # score the same for it and the tie keeps it on core 1.
    inst = make(
        [
            Coflow(id=1, release=0, weight=1, demands={(3, 3): 50}),
            Coflow(id=2, release=0, weight=1, demands={(1, 1): 2, (2, 2): 2}),
        ],
        cores=2,
        ports=3,
    )
    asg = assign_cdls(inst, [1, 2])
    assert coflow_cores(asg)[2] == 1


def test_cdls_keeps_coflows_whole():
    rng = np.random.default_rng(4)
    for trial in range(10):
        inst = gen_mix(8, 6, int(rng.integers(1 << 30)), cores=3)
        perm = order_coflow_level(inst, 0.5)
        asg = assign_cdls(inst, perm)
        cores = {}
        for key, core in asg.flow_to_core.items():
            cores.setdefault(key.k, set()).add(core)
        assert all(len(on) == 1 for on in cores.values())


def test_cdls_empty_coflow_lands_on_core_one():
    inst = Instance(
        cores=2,
        ports=2,
        coflows=(
            Coflow(id=1, release=0, weight=1, demands={}),
            Coflow(id=2, release=0, weight=1, demands={(1, 1): 3}),
        ),
    )
    # Coflow 1 places no flow, so no core shows for it.
    asg = assign_cdls(inst, [2, 1])
    assert coflow_cores(asg) == {2: 1}


# --- simulation -------------------------------------------------------------


def test_release_plus_size():
    inst = one_coflow({(1, 1): 4}, release=2)
    res = simulate(inst, [1], assign_fdls(inst, [1]))
    assert res.flow_completion[FlowKey(1, 1, 1)] == pytest.approx(6)
    assert res.coflow_completion[1] == pytest.approx(6)
    assert res.objective == pytest.approx(6)


def test_shared_input_serializes_largest_first():
    inst = one_coflow({(1, 1): 5, (1, 2): 3})
    res = simulate(inst, [1], assign_fdls(inst, [1]))
    assert res.flow_completion[FlowKey(1, 1, 1)] == pytest.approx(5)
    assert res.flow_completion[FlowKey(1, 2, 1)] == pytest.approx(8)
    assert res.coflow_completion[1] == pytest.approx(8)


def test_split_cores_run_in_parallel():
    inst = one_coflow({(1, 1): 5, (1, 2): 3}, cores=2)
    res = simulate(inst, [1], assign_fdls(inst, [1]))
    assert res.flow_completion[FlowKey(1, 1, 1)] == pytest.approx(5)
    assert res.flow_completion[FlowKey(1, 2, 1)] == pytest.approx(3)
    assert res.coflow_completion[1] == pytest.approx(5)


def test_coflow_level_priority_is_port_pair_order():
    # same core, flows (1,1,3) and (1,2,5): coflow granularity serves (1,1)
    # first regardless of size; flow granularity serves the 5 first
    inst = one_coflow({(1, 1): 3, (1, 2): 5})
    coflow_asg = assign_cdls(inst, [1])
    res = simulate(inst, [1], coflow_asg)
    assert res.flow_completion[FlowKey(1, 1, 1)] == pytest.approx(3)
    assert res.flow_completion[FlowKey(1, 2, 1)] == pytest.approx(8)

    flow_asg = assign_fdls(inst, [1])
    res = simulate(inst, [1], flow_asg)
    assert res.flow_completion[FlowKey(1, 2, 1)] == pytest.approx(5)
    assert res.flow_completion[FlowKey(1, 1, 1)] == pytest.approx(8)


def test_release_preempts_running_flow():
    # coflow 2 runs alone until coflow 1 (higher priority) releases at t=2
    inst = make(
        [
            Coflow(id=1, release=2, weight=1, demands={(1, 1): 3}),
            Coflow(id=2, release=0, weight=1, demands={(1, 1): 10}),
        ]
    )
    asg = assign_fdls(inst, [1, 2])
    res = simulate(inst, [1, 2], asg, emit_timeline=True)
    assert res.flow_completion[FlowKey(1, 1, 1)] == pytest.approx(5)
    assert res.flow_completion[FlowKey(1, 1, 2)] == pytest.approx(13)
    segs = sorted(s for s in res.timeline if s.flow == FlowKey(1, 1, 2))
    assert [(s.start, s.end) for s in segs] == [(0.0, 2.0), (5.0, 13.0)]


def test_lower_priority_flow_fills_free_ports():
    # order [1, 2], but coflow 2 uses disjoint ports and need not wait
    inst = make(
        [
            Coflow(id=1, release=0, weight=1, demands={(1, 1): 6}),
            Coflow(id=2, release=0, weight=1, demands={(2, 2): 4}),
        ]
    )
    asg = assign_fdls(inst, [1, 2])
    res = simulate(inst, [1, 2], asg)
    assert res.coflow_completion[2] == pytest.approx(4)


def test_zero_flow_coflow_completes_at_release():
    inst = Instance(
        cores=1,
        ports=1,
        coflows=(
            Coflow(id=1, release=9, weight=3, demands={}),
            Coflow(id=2, release=0, weight=1, demands={(1, 1): 2}),
        ),
    )
    asg = assign_fdls(inst, [1, 2])
    res = simulate(inst, [1, 2], asg)
    assert res.coflow_completion[1] == pytest.approx(9)
    assert res.objective == pytest.approx(3 * 9 + 1 * 2)


def test_completion_times_are_integral():
    for seed in range(5):
        inst = gen_mix(10, 6, seed, cores=2, release_max=20)
        perm = order_flow_level(inst, 0.5)
        res = simulate(inst, perm, assign_fdls(inst, perm))
        for value in res.flow_completion.values():
            assert abs(value - round(value)) < 1e-9


def test_simulate_rejects_incomplete_assignment():
    inst = one_coflow({(1, 1): 2, (1, 2): 2}, cores=2)
    with pytest.raises(ValueError):
        simulate(inst, [1], Assignment.of_flows(inst, "flow", {FlowKey(1, 1, 1): 1}))


def test_simulate_rejects_core_out_of_range():
    inst = one_coflow({(1, 1): 2})
    with pytest.raises(ValueError):
        simulate(inst, [1], Assignment.of_flows(inst, "flow", {FlowKey(1, 1, 1): 2}))


@pytest.mark.parametrize("core", [True, np.True_])
def test_simulate_rejects_bool_core(core):
    # True equals 1, but a bool is not a core id.
    inst = one_coflow({(1, 1): 2, (1, 2): 3})
    bad = {FlowKey(1, 1, 1): 1, FlowKey(1, 2, 1): core}
    message = f"flow (1, 2, 1) assigned to core {core!r}, valid range 1..1"
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate(inst, [1], Assignment.of_flows(inst, "flow", bad))


@pytest.mark.parametrize("key", [5, "flow"])
def test_placement_key_that_is_no_flow_is_refused(key):
    inst = one_coflow({(1, 1): 2})
    message = f"assignment references unknown flow {key!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Assignment.of_flows(inst, "flow", {FlowKey(1, 1, 1): 1, key: 1})


def test_simulate_accepts_numpy_integer_core():
    inst = one_coflow({(1, 1): 2, (1, 2): 3}, cores=2)
    asg = Assignment.of_flows(inst, "flow", {FlowKey(1, 1, 1): np.int64(2), FlowKey(1, 2, 1): 1})
    res = simulate(inst, [1], asg, emit_timeline=True)
    assert res.flow_completion == {FlowKey(1, 1, 1): 2.0, FlowKey(1, 2, 1): 3.0}
    assert [s.core for s in res.timeline] == [2, 1]


def test_edited_copies_reach_simulate_and_the_audit():
    # FDLS puts both flows on core 1. The views are read-only, so an edit
    # is a new object built from them: moving (1, 1, 1) to core 2 moves the
    # flow in the next simulate, and the audit of the schedule from before
    # the move is refused: that result holds the placement it ran under,
    # not the edited one. A result is checked when built, so an edit that
    # makes a completion NaN is refused.
    inst = one_coflow({(1, 1): 2, (2, 2): 3}, cores=2)
    before = simulate(inst, [1], assign_fdls(inst, [1]), emit_timeline=True)
    old = assign_fdls(inst, [1]).flow_to_core
    assert old == {FlowKey(1, 1, 1): 1, FlowKey(2, 2, 1): 1}
    asg = Assignment.of_flows(inst, "flow", {**old, FlowKey(1, 1, 1): 2})
    after = simulate(inst, [1], asg, emit_timeline=True)
    assert [(s.flow, s.core) for s in after.timeline] == [
        (FlowKey(1, 1, 1), 2),
        (FlowKey(2, 2, 1), 1),
    ]
    assert audit_schedule(inst, [1], asg, after) == []
    with pytest.raises(ValueError, match="result was built for another placement"):
        audit_schedule(inst, [1], asg, before)
    nan = {**after.flow_completion, FlowKey(2, 2, 1): float("nan")}
    message = "flow (2, 2, 1) completion is not a number"
    with pytest.raises(ValueError, match=re.escape(message)):
        ScheduleResult.of_flows(asg, nan, after.timeline)


def test_views_are_read_only():
    inst = one_coflow({(1, 1): 2, (2, 2): 3}, cores=2)
    asg = assign_fdls(inst, [1])
    res = simulate(inst, [1], asg, emit_timeline=True)
    seg = res.timeline[0]
    with pytest.raises(TypeError):
        asg.flow_to_core[FlowKey(1, 1, 1)] = 2
    with pytest.raises(TypeError):
        res.flow_completion[FlowKey(1, 1, 1)] = 1.0
    with pytest.raises(TypeError):
        res.timeline[0] = seg._replace(core=2)
    # The rows behind the views are tuples, so they cannot be edited either.
    with pytest.raises(TypeError):
        asg.core_of[0] = 2
    with pytest.raises(TypeError):
        res.finish[0] = float("nan")
    assert asg.core_of == (1, 1) and res.finish == (2.0, 3.0)
    assert audit_schedule(inst, [1], asg, res) == []


def test_an_equal_instance_is_accepted_and_another_refused():
    # Objects built for the instance or for an equal one, such as the
    # instance loaded again, are read; those built for any other raise.
    inst = gen_mix(5, 6, 1, cores=2)
    perm = order_flow_level(inst, 0.5)
    asg = assign_fdls(inst, perm)
    res = simulate(inst, perm, asg, emit_timeline=True)
    again = loads_instance(dumps_instance(inst))
    assert again.table is not inst.table
    assert simulate(again, perm, asg, emit_timeline=True) == res
    assert audit_schedule(again, perm, asg, res) == []
    other = gen_mix(5, 6, 2, cores=2)
    with pytest.raises(ValueError, match="assignment was built for another instance"):
        simulate(other, perm, asg)
    with pytest.raises(ValueError, match="assignment was built for another instance"):
        audit_schedule(other, perm, asg, res)
    other_asg = assign_fdls(other, perm)
    with pytest.raises(ValueError, match="result was built for another placement"):
        audit_schedule(other, perm, other_asg, res)


def test_a_placement_on_more_cores_than_the_instance_is_refused():
    # A 2-core instance with the coflows of a 4-core one has an equal flow
    # table, but it is another instance: a flow on core 3 or 4 would run on
    # a core it does not have. Other weights make another instance too.
    wide = gen_mix(5, 6, 1, cores=4)
    narrow = Instance(cores=2, ports=wide.ports, coflows=wide.coflows)
    heavy = Instance(4, wide.ports, tuple(replace(c, weight=c.weight + 1) for c in wide.coflows))
    assert narrow.table == wide.table == heavy.table
    perm = order_flow_level(wide, 0.5)
    asg = assign_fdls(wide, perm)
    res = simulate(wide, perm, asg, emit_timeline=True)
    assert max(asg.core_of) > 2
    for other in (narrow, heavy):
        with pytest.raises(ValueError, match="assignment was built for another instance"):
            simulate(other, perm, asg)
        with pytest.raises(ValueError, match="assignment was built for another instance"):
            audit_schedule(other, perm, asg, res)


@pytest.mark.parametrize(
    "core_of, message",
    [
        ([1, 0], "flow (2, 2, 1) assigned to core 0, valid range 1..2"),
        ([99, 1], "flow (1, 1, 1) assigned to core 99, valid range 1..2"),
        ([1, 2.0], "flow (2, 2, 1) assigned to core 2.0, valid range 1..2"),
        ([True, 1], "flow (1, 1, 1) assigned to core True, valid range 1..2"),
        ([1], "assignment holds 1 cores for 2 flows"),
    ],
)
def test_the_cores_of_a_row_built_placement_are_checked(core_of, message):
    # The row constructor checks the cores once, with the messages of_flows
    # gives, so simulate and the audit never see a bad one.
    inst = one_coflow({(1, 1): 3, (2, 2): 2}, cores=2)
    with pytest.raises(ValueError, match=re.escape(message)):
        Assignment("flow", inst, core_of)


def test_a_coflow_level_placement_keeps_each_coflow_whole():
    # The flows of a coflow go through one core at coflow level, and the
    # coflow-level dual bounds only such schedules. Cores alternating row
    # by row split coflow 1, whose first rows sit on cores 1 and 2.
    inst = gen_mix(4, 5, 1, cores=2)
    keys = inst.table.keys
    split = [1 + r % 2 for r in range(len(keys))]
    assert keys[0].k == keys[1].k == 1
    message = "coflow 1 placed on cores 1 and 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        Assignment("coflow", inst, split)
    with pytest.raises(ValueError, match=re.escape(message)):
        Assignment.of_flows(inst, "coflow", dict(zip(keys, split)))
    # The same rows are a flow-level placement, and one core per coflow is
    # a coflow-level one.
    assert Assignment("flow", inst, split).core_of == tuple(split)
    whole = [1 + key.k % 2 for key in keys]
    assert Assignment("coflow", inst, whole).core_of == tuple(whole)
    # A split after a flowless coflow names the coflow and its first core.
    inst = make(
        [
            Coflow(id=1, release=0, weight=1, demands={(1, 1): 4}),
            Coflow(id=2, release=0, weight=1, demands={}),
            Coflow(id=3, release=0, weight=1, demands={(1, 1): 1, (1, 2): 2, (2, 2): 3}),
        ],
        cores=3,
    )
    with pytest.raises(ValueError, match=re.escape("coflow 3 placed on cores 2 and 3")):
        Assignment("coflow", inst, [1, 2, 2, 3])


@pytest.mark.parametrize(
    "finish, message",
    [
        ({FlowKey(2, 2, 1): float("nan")}, "flow (1, 1, 1) has no completion time"),
        (
            {FlowKey(2, 2, 1): 4.0, FlowKey(1, 1, 1): float("nan")},
            "flow (1, 1, 1) completion is not a number",
        ),
        (
            {FlowKey(2, 2, 1): "7", FlowKey(1, 1, 1): 3.0},
            "flow (2, 2, 1) completion '7' is no int or float",
        ),
        (
            {FlowKey(2, 2, 1): 2.0, FlowKey(1, 1, 1): 10**400},
            "flow (1, 1, 1) completion does not convert to a float",
        ),
        (
            {FlowKey(2, 2, 1): 2.0, FlowKey(1, 1, 1): True},
            "flow (1, 1, 1) completion True is no int or float",
        ),
        (
            {FlowKey(1, 1, 1): 3.0, FlowKey(2, 2, 1): 2.0, FlowKey(9, 9, 9): 1.0},
            "completion of unknown flow FlowKey(i=9, j=9, k=9)",
        ),
    ],
)
def test_the_completions_of_a_hand_built_result_are_checked(finish, message):
    # The first bad row in table order is named, whatever the dict order.
    # A completion must be an int or a float that converts to a float; a
    # bool is refused, as it is for a core. A completion of a flow that is
    # not in the instance is refused too.
    inst = one_coflow({(1, 1): 3, (2, 2): 2}, cores=2)
    with pytest.raises(ValueError, match=re.escape(message)):
        ScheduleResult.of_flows(assign_fdls(inst, [1]), finish)


@pytest.mark.parametrize(
    "finish, message",
    [
        ([3.0], "result holds 1 completions for 2 flows"),
        ([3.0, 2.0, 5.0], "result holds 3 completions for 2 flows"),
        ([float("nan"), 2.0], "flow (1, 1, 1) completion is not a number"),
        ([3.0, np.float64("nan")], "flow (2, 2, 1) completion is not a number"),
        ([3.0, None], "flow (2, 2, 1) has no completion time"),
        ([np.True_, 2.0], "flow (1, 1, 1) completion np.True_ is no int or float"),
        ([3.0, [2.0]], "flow (2, 2, 1) completion [2.0] is no int or float"),
    ],
)
def test_the_completions_of_a_row_built_result_are_checked(finish, message):
    # The row constructor checks the completions once, with the messages
    # of_flows gives, so no result folds misaligned rows or a NaN into its
    # objective.
    inst = one_coflow({(1, 1): 3, (2, 2): 2}, cores=2)
    with pytest.raises(ValueError, match=re.escape(message)):
        ScheduleResult(assign_fdls(inst, [1]), finish, None)


@pytest.mark.parametrize(
    "finish",
    [[3, 2], [np.float32(3.0), np.int64(2)], [float("inf"), float("-inf")], [10**300, 2.0]],
)
def test_a_row_built_result_takes_any_int_or_float(finish):
    # Infinite completions are the audit's to report; +inf and -inf sum to
    # NaN, so the walk that follows the failed fast pass accepts them.
    inst = one_coflow({(1, 1): 3, (2, 2): 2}, cores=2)
    assert ScheduleResult(assign_fdls(inst, [1]), finish, None).finish == tuple(finish)


def _columns(*segments):
    """Timeline columns of (start, end, flow row) segments."""
    start, end, row = zip(*segments)
    return np.array(start), np.array(end), np.array(row)


@pytest.mark.parametrize(
    "segments, message",
    [
        (
            [(0.0, 3.0, 0), (-np.inf, 2.0, 1)],
            "segment Segment(start=-inf, end=2.0, flow=FlowKey(i=2, j=2, k=1), core=2)"
            " has a time that is not a finite number",
        ),
        (
            [(0.0, 3.0, 0), (2.0, 2.0, 1)],
            "empty or reversed segment "
            "Segment(start=2.0, end=2.0, flow=FlowKey(i=2, j=2, k=1), core=2)",
        ),
    ],
    ids=["infinite-time", "empty"],
)
def test_the_segments_of_a_row_built_result_are_checked(segments, message):
    # The row constructor checks each segment once, with the messages
    # of_flows gives, and names the first bad one in timeline order with
    # its flow's placed core; the audit then judges only the schedule's
    # rules.
    inst = one_coflow({(1, 1): 3, (2, 2): 2}, cores=2)
    asg = Assignment("flow", inst, [1, 2])
    with pytest.raises(ValueError, match=re.escape(message)):
        ScheduleResult(asg, [3.0, 2.0], _columns(*segments))


@pytest.mark.parametrize(
    "core, shown",
    [(2, "2"), (3, "3"), (0, "0"), (True, "True"), (1.0, "1.0"), ([1], "[1]")],
    ids=["other-core", "above-m", "zero", "bool", "float", "list"],
)
def test_a_segment_off_its_placed_core_is_refused(core, shown):
    # A flow never leaves its core, so a result holds no core of its own:
    # of_flows refuses a segment that names another core than its flow's
    # placed one, or a value that is no int. Both flows are placed on core
    # 1, and (1, 2, 2) is given on core 2 or on no core at all.
    inst = Instance(2, 2, (Coflow(1, 0, 1, {(1, 1): 4}), Coflow(2, 0, 1, {(1, 2): 4})))
    asg = Assignment("flow", inst, [1, 1])
    seg = Segment(0.0, 4.0, FlowKey(1, 2, 2), core)
    done = {FlowKey(1, 1, 1): 4.0, FlowKey(1, 2, 2): 4.0}
    message = f"segment {seg} is on core {shown}, but flow (1, 2, 2) is placed on core 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        ScheduleResult.of_flows(asg, done, [Segment(0.0, 4.0, FlowKey(1, 1, 1), 1), seg])
    # On core 1, where it is placed, the same flow is read, and the audit
    # finds both flows on input port 1 at once.
    res = ScheduleResult.of_flows(asg, done, [Segment(0, 4, (1, 1, 1), 1), seg._replace(core=1)])
    assert audit_schedule(inst, [1, 2], asg, res) == [
        "core 1 input port 1: overlap at 0.0 before 4.0"
    ]


def test_an_audit_refuses_a_result_of_another_placement():
    # A result holds the placement it was simulated under. Audited against
    # an equal placement it is read; against another of the same instance,
    # as against the placement of the other policy, it is refused.
    inst = gen_mix(5, 6, 1, cores=2)
    perm = order_flow_level(inst, 0.5)
    asg = assign_fdls(inst, perm)
    res = simulate(inst, perm, asg, emit_timeline=True)
    assert res.assignment is asg and res.instance is inst
    assert audit_schedule(inst, perm, Assignment("flow", inst, asg.core_of), res) == []
    message = "result was built for another placement"
    for other in (
        assign_cdls(inst, perm),
        Assignment("coflow", inst, [1] * len(asg.core_of)),
        Assignment("flow", inst, [1] * len(asg.core_of)),
    ):
        assert other != asg
        with pytest.raises(ValueError, match=message):
            audit_schedule(inst, perm, other, res)


def test_equality_reads_the_rows_not_the_views():
    # == compares the instance, the rows and the columns the objects hold,
    # so it builds no keyed view.
    inst = gen_mix(5, 6, 1, cores=2)
    perm = order_flow_level(inst, 0.5)
    asg = assign_fdls(inst, perm)
    res = simulate(inst, perm, asg, emit_timeline=True)
    assert assign_fdls(inst, perm) == asg
    assert simulate(inst, perm, asg, emit_timeline=True) == res
    assert simulate(inst, perm, asg) != res
    assert Assignment("flow", inst, [1] * len(asg.core_of)) != asg
    built = vars(asg).keys() | vars(res).keys()
    assert not {"flow_to_core", "flow_completion", "timeline"} & built


def test_pipeline_and_clean_audit_leave_the_keys_unbuilt():
    # Ordering, placement, simulation and a clean audit read only the flow
    # table's columns. Its FlowKey rows are built when a keyed view is read.
    instance = gen_mix(30, 8, 5, cores=3, release_max=40)
    for granularity, order_fn, assign_fn in (
        ("flow", order_flow_level, assign_fdls),
        ("coflow", order_coflow_level, assign_cdls),
    ):
        run_pipeline(instance, granularity, 0.5, emit_timeline=True)
        perm = order_fn(instance, 0.5)
        assignment = assign_fn(instance, perm)
        result = simulate(instance, perm, assignment, emit_timeline=True)
        assert audit_schedule(instance, perm, assignment, result) == []
    assert "keys" not in vars(instance.table)
    assert result.timeline[0].flow in instance.table.keys
    assert "keys" in vars(instance.table)


def test_list_schedule_checks_fire():
    # A fractional size leaves the integer grid; an infinite one never
    # finishes, and is refused before a later flow on its port runs.
    with pytest.raises(AssertionError):
        _list_schedule([0], [1], [1], [1.5], [0], None)
    with pytest.raises(AssertionError):
        _list_schedule([0, 1], [1, 1], [1, 2], [1.5, 2], [0, 0], None)
    message = "no runnable flow and no pending release"
    with pytest.raises(RuntimeError, match=message):
        _list_schedule([0], [1], [1], [float("inf")], [0], None)
    with pytest.raises(RuntimeError, match=message):
        _list_schedule([0, 1], [1, 1], [1, 1], [float("inf"), 2], [0, 0], None)


def test_simulate_rejects_bad_order():
    inst = one_coflow({(1, 1): 2})
    asg = assign_fdls(inst, [1])
    with pytest.raises(ValueError):
        simulate(inst, [1, 1], asg)


@pytest.mark.parametrize("order", [[True, 2, 3, 4, 5], [1.0, 2, 3, 4, 5], [np.True_, 2, 3, 4, 5]])
def test_every_order_reader_rejects_a_non_integer_id(order):
    # True sorts as 1, so it passed for coflow 1; a float got as far as a
    # list index and raised TypeError there.
    inst = gen_mix(5, 6, 1, cores=2)
    asg = assign_fdls(inst, order_flow_level(inst))
    message = re.escape(f"order must be a permutation of 1..5, got {order}")
    for call in (
        lambda: assign_fdls(inst, order),
        lambda: assign_cdls(inst, order),
        lambda: simulate(inst, order, asg),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_order_readers_accept_numpy_integer_ids():
    inst = gen_mix(5, 6, 1, cores=2)
    order = order_flow_level(inst).order
    asg = assign_fdls(inst, order)
    as_numpy = np.array(order, dtype=np.int64)
    assert assign_fdls(inst, as_numpy) == asg
    assert simulate(inst, as_numpy, asg) == simulate(inst, order, asg)


@pytest.mark.parametrize("granularity", ["Flow", "per-port", None])
def test_assignment_rejects_an_unknown_granularity(granularity):
    # Any value but "flow" used to be simulated with coflow-level priorities.
    inst = gen_mix(5, 6, 1, cores=2)
    placed = assign_fdls(inst, order_flow_level(inst))
    message = f"granularity must be flow or coflow, got {granularity!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Assignment.of_flows(inst, granularity, placed.flow_to_core)


# --- schedule-wide properties ----------------------------------------------


def small_corpus():
    out = []
    for idx in range(24):
        n = 1 + idx % 10
        m = (1, 2, 5)[idx % 3]
        rmax = 25 if idx % 3 == 0 else 0
        if idx % 2:
            out.append(gen_mix(n, 7, 300 + idx, cores=m, release_max=rmax))
        else:
            out.append(gen_density(n, 5, "combined", 400 + idx, cores=m, release_max=rmax))
    return out


def test_audit_passes_on_both_policies():
    for inst in small_corpus():
        for order_fn, assign_fn in (
            (order_flow_level, assign_fdls),
            (order_coflow_level, assign_cdls),
        ):
            perm = order_fn(inst, 0.5)
            asg = assign_fn(inst, perm)
            res = simulate(inst, perm, asg, emit_timeline=True)
            assert audit_schedule(inst, perm, asg, res) == []


def test_audit_flags_tampered_timeline():
    inst = one_coflow({(1, 1): 4})
    asg = assign_fdls(inst, [1])
    res = simulate(inst, [1], asg, emit_timeline=True)
    cut = res.timeline[0]._replace(end=res.timeline[0].end - 1)
    res = ScheduleResult.of_flows(asg, res.flow_completion, [cut])
    assert audit_schedule(inst, [1], asg, res) == [
        "flow (1, 1, 1) transmitted 3.0, size 4",
        "flow (1, 1, 1) completed at 4.0, but its last segment ends at 3.0",
        "core 1: flow (1, 1, 1) idle at t=3.0 with both ports free",
    ]


def test_audit_names_a_hand_built_segment_as_the_rows_hold_it():
    # of_flows keeps a segment as float times and a flow row, and reads its
    # core from the placement, so the timeline view and the constructor's
    # message name a plain-tuple flow as a FlowKey, int times as floats and
    # an np.int64 core as the placed int. A reversed segment is refused
    # when built, so no audit sees it.
    inst = one_coflow({(1, 1): 4})
    done = {FlowKey(1, 1, 1): 4.0}
    asg = Assignment("flow", inst, [np.int64(1)])
    res = ScheduleResult.of_flows(asg, done, [Segment(0, 4, (1, 1, 1), np.int64(1))])
    assert res.timeline == (Segment(0.0, 4.0, FlowKey(1, 1, 1), 1),)
    assert type(res.timeline[0].start) is float and type(res.timeline[0].core) is int
    assert audit_schedule(inst, [1], assign_fdls(inst, [1]), res) == []
    seg = Segment(5, 4, (1, 1, 1), np.int64(1))
    message = (
        "empty or reversed segment "
        "Segment(start=5.0, end=4.0, flow=FlowKey(i=1, j=1, k=1), core=1)"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        ScheduleResult.of_flows(asg, done, [(0, 4, (1, 1, 1), 1), seg])


def test_an_audit_needs_a_timeline():
    inst = one_coflow({(1, 1): 4})
    asg = assign_fdls(inst, [1])
    message = "audit requires a result simulated with emit_timeline=True"
    with pytest.raises(ValueError, match=re.escape(message)):
        audit_schedule(inst, [1], asg, simulate(inst, [1], asg))


def test_weak_duality_on_small_corpus():
    for inst in small_corpus():
        fperm = order_flow_level(inst, 0.5)
        fres = simulate(inst, fperm, assign_fdls(inst, fperm))
        assert fres.objective >= fperm.dual_cost * (1 - 1e-6)
        cperm = order_coflow_level(inst, 0.5)
        cres = simulate(inst, cperm, assign_cdls(inst, cperm))
        assert cres.objective >= cperm.dual_cost * (1 - 1e-6)


def test_list_schedule_bounds_on_small_corpus():
    for inst in small_corpus():
        fperm = order_flow_level(inst, 0.5)
        fres = simulate(inst, fperm, assign_fdls(inst, fperm))
        assert fdls_bound(inst, fperm.order, fres.coflow_completion) == []
        cperm = order_coflow_level(inst, 0.5)
        cres = simulate(inst, cperm, assign_cdls(inst, cperm))
        assert cdls_bound(inst, cperm.order, cres.coflow_completion) == []


def test_single_core_policies_agree_on_placement():
    for inst in small_corpus():
        if inst.cores != 1:
            continue
        perm = order_flow_level(inst, 0.5)
        assert assign_fdls(inst, perm).flow_to_core == assign_cdls(inst, perm).flow_to_core
