"""Core assignment policies and the one-pass list-schedule simulator.

The simulator places each core's flows best first into the free time of
their two ports; these tests pin its schedules on hand-built cases and its
checks on the assignment it is given.
"""

import re

import numpy as np
import pytest

from _shared import cdls_bound, fdls_bound
from coflowsched.experiments import run_pipeline
from coflowsched.model import Coflow, FlowKey, Instance
from coflowsched.ordering import order_coflow_level, order_flow_level
from coflowsched.scheduling import (
    Assignment,
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


def test_cdls_single_core():
    inst = make(
        [
            Coflow(id=1, release=0, weight=1, demands={(1, 1): 4}),
            Coflow(id=2, release=0, weight=1, demands={(2, 2): 1}),
        ],
        cores=1,
    )
    asg = assign_cdls(inst, [1, 2])
    assert asg.coflow_to_core == {1: 1, 2: 1}


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
    assert asg.coflow_to_core == {1: 1, 2: 2}


def test_cdls_disjoint_ports_tie_to_core_one():
    inst = make(
        [
            Coflow(id=1, release=0, weight=1, demands={(1, 1): 8}),
            Coflow(id=2, release=0, weight=1, demands={(2, 2): 2}),
        ],
        cores=2,
    )
    asg = assign_cdls(inst, [1, 2])
    assert asg.coflow_to_core == {1: 1, 2: 1}


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
    assert asg.coflow_to_core[2] == 1


def test_cdls_keeps_coflows_whole():
    rng = np.random.default_rng(4)
    for trial in range(10):
        inst = gen_mix(8, 6, int(rng.integers(1 << 30)), cores=3)
        perm = order_coflow_level(inst, 0.5)
        asg = assign_cdls(inst, perm)
        for key, core in asg.flow_to_core.items():
            assert core == asg.coflow_to_core[key.k]


def test_cdls_empty_coflow_lands_on_core_one():
    inst = Instance(
        cores=2,
        ports=2,
        coflows=(
            Coflow(id=1, release=0, weight=1, demands={}),
            Coflow(id=2, release=0, weight=1, demands={(1, 1): 3}),
        ),
    )
    asg = assign_cdls(inst, [2, 1])
    assert asg.coflow_to_core[1] == 1


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
    partial = Assignment("flow", {FlowKey(1, 1, 1): 1}, None)
    with pytest.raises(ValueError):
        simulate(inst, [1], partial)


def test_simulate_rejects_core_out_of_range():
    inst = one_coflow({(1, 1): 2})
    bad = Assignment("flow", {FlowKey(1, 1, 1): 2}, None)
    with pytest.raises(ValueError):
        simulate(inst, [1], bad)


@pytest.mark.parametrize("core", [True, np.True_])
def test_simulate_rejects_bool_core(core):
    # True equals 1, but a bool is not a core id.
    inst = one_coflow({(1, 1): 2, (1, 2): 3})
    bad = Assignment("flow", {FlowKey(1, 1, 1): 1, FlowKey(1, 2, 1): core}, None)
    message = f"flow (1, 2, 1) assigned to core {core!r}, valid range 1..1"
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate(inst, [1], bad)


def test_simulate_accepts_numpy_integer_core():
    inst = one_coflow({(1, 1): 2, (1, 2): 3}, cores=2)
    asg = Assignment("flow", {FlowKey(1, 1, 1): np.int64(2), FlowKey(1, 2, 1): 1}, None)
    res = simulate(inst, [1], asg, emit_timeline=True)
    assert res.flow_completion == {FlowKey(1, 1, 1): 2.0, FlowKey(1, 2, 1): 3.0}
    assert [s.core for s in res.timeline] == [2, 1]


def test_in_place_view_edits_reach_simulate_and_the_audit():
    # FDLS puts both flows on core 1. Once read, the flow_to_core view is
    # the placement: moving (1, 1, 1) to core 2 in it moves the flow in the
    # next simulate, and the audit of the schedule from before the move
    # finds the flow idle on core 2. An edit of a read flow_completion view
    # reaches the audit likewise.
    inst = one_coflow({(1, 1): 2, (2, 2): 3}, cores=2)
    asg = assign_fdls(inst, [1])
    before = simulate(inst, [1], asg, emit_timeline=True)
    assert asg.flow_to_core == {FlowKey(1, 1, 1): 1, FlowKey(2, 2, 1): 1}
    asg.flow_to_core[FlowKey(1, 1, 1)] = 2
    after = simulate(inst, [1], asg, emit_timeline=True)
    assert [(s.flow, s.core) for s in after.timeline] == [
        (FlowKey(1, 1, 1), 2),
        (FlowKey(2, 2, 1), 1),
    ]
    assert audit_schedule(inst, [1], asg, after) == []
    assert audit_schedule(inst, [1], asg, before) == [
        "core 2: flow (1, 1, 1) idle at t=0.0 with both ports free"
    ]
    after.flow_completion[FlowKey(2, 2, 1)] = float("nan")
    assert audit_schedule(inst, [1], asg, after) == [
        "flow (2, 2, 1) completion is not a number"
    ]


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
    res.timeline[0] = res.timeline[0]._replace(end=res.timeline[0].end - 1)
    assert audit_schedule(inst, [1], asg, res) == [
        "flow (1, 1, 1) transmitted 3.0, size 4",
        "core 1: flow (1, 1, 1) idle at t=3.0 with both ports free",
    ]


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
