"""The interval-sweep audit against the interval-matrix reference, exactly.

``_reference_audit.audit_schedule`` is the audit the per-core sweep
replaced. Both must return the same violation list, order included, on
correct schedules and on a seeded corpus of tampered timelines. A tamper
shortens, shifts, deletes, moves to another core, stretches or nudges one
segment, or splits it into two touching halves, which breaks no rule; some
timelines get two tampers. A nudge moves one end by less than 1e-9, so that
two grid points lie closer than the audit's tolerance. A second, smaller
corpus tampers schedules of 1k+ segments with releases. A tamper that
empties a segment or moves it to a core its flow is not placed on is
refused when the result is built; the reference audit, given the same
timeline and completions, must flag it too.
"""

import os
import random
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from typing import Mapping, NamedTuple

import pytest

from _reference_audit import audit_schedule as reference_audit
from _shared import corpus_instance
from coflowsched.model import Coflow, FlowKey, Instance
from coflowsched.ordering import order_coflow_level, order_flow_level
from coflowsched.scheduling import (
    Assignment,
    ScheduleResult,
    Segment,
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
SRC = str(Path(__file__).resolve().parent.parent / "src")
KINDS = ("shorten", "shift", "delete", "recore", "stretch", "nudge", "split")
TAMPERS_PER_SCHEDULE = 8


def tamper(rng, timeline, kind, cores):
    """Apply one tamper of ``kind`` to a random segment, in place."""
    at = rng.randrange(len(timeline))
    seg = timeline[at]
    if kind == "shorten":
        cut = rng.choice([1.0, 0.5, seg.end - seg.start])
        timeline[at] = seg._replace(end=seg.end - cut)
    elif kind == "shift":
        step = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        timeline[at] = seg._replace(start=seg.start + step, end=seg.end + step)
    elif kind == "delete":
        del timeline[at]
    elif kind == "recore":
        # A flow never leaves its placed core, and core cores + 1 does not
        # exist; a result that holds either is refused.
        other = [h for h in range(1, cores + 2) if h != seg.core]
        timeline[at] = seg._replace(core=rng.choice(other))
    elif kind == "stretch":
        timeline[at] = seg._replace(end=seg.end + rng.choice([1.0, 3.0]))
    elif kind == "split":
        # Two touching halves carry the same volume: no rule is broken.
        mid = (seg.start + seg.end) / 2
        timeline[at : at + 1] = [seg._replace(end=mid), seg._replace(start=mid)]
    else:
        step = rng.choice([-5e-10, -2e-10, 2e-10, 5e-10])
        side = rng.choice(["start", "end"])
        timeline[at] = seg._replace(**{side: getattr(seg, side) + step})


def rebuilt(instance, result, timeline):
    """``result`` with ``timeline`` in place of its own."""
    return ScheduleResult.of_flows(result.assignment, result.flow_completion, timeline)


class StandIn(NamedTuple):
    """What the reference audit reads of a result, unchecked."""

    timeline: tuple
    flow_completion: Mapping
    coflow_completion: Mapping


REFUSED = (
    r"(empty or reversed segment |segment .* is on core \d+, but flow .* is placed on core \d+$)"
)


def audit_tampered(instance, perm, assignment, result, timeline):
    """(refused, violations) for ``result`` with the tampered ``timeline``.

    The audit of the rebuilt result must match the reference's. A timeline
    the constructor refuses never reaches the audit, so the reference
    audits a stand-in holding it and the same completions, and must flag
    it; its list is returned then.
    """
    try:
        broken = rebuilt(instance, result, timeline)
    except ValueError as err:
        assert re.match(REFUSED, str(err)), err
        stand_in = StandIn(tuple(timeline), result.flow_completion, result.coflow_completion)
        got = reference_audit(instance, perm, assignment, stand_in)
        assert got
        return True, got
    got = audit_schedule(instance, perm, assignment, broken)
    assert got == reference_audit(instance, perm, assignment, broken)
    return False, got


def corpus():
    """Yield (instance, order, assignment, result, timeline, tampers) over 80 schedules.

    Each schedule is yielded untampered (its own timeline, tampers 0) and
    then with TAMPERS_PER_SCHEDULE tampered timelines, every third with two
    tampers.
    """
    rng = random.Random(7)
    made = applied = 0
    for idx in range(40):
        cores = (1, 2, 3, 5)[idx % 4]
        release_max = 20 if idx // 4 % 2 else 0
        if idx % 3:
            instance = gen_mix(4 + idx % 5, 5, 500 + idx, cores=cores, release_max=release_max)
        else:
            mode = ("combined", "sparse")[idx % 2]
            instance = gen_density(5, 4, mode, 600 + idx, cores=cores, release_max=release_max)
        for granularity in sorted(STAGES):
            order_fn, assign_fn = STAGES[granularity]
            perm = order_fn(instance, 0.5)
            assignment = assign_fn(instance, perm)
            result = simulate(instance, perm, assignment, emit_timeline=True)
            yield instance, perm, assignment, result, result.timeline, 0
            for _ in range(TAMPERS_PER_SCHEDULE):
                timeline = list(result.timeline)
                tampers = 2 if made % 3 == 2 else 1
                made += 1
                for _ in range(tampers):
                    tamper(rng, timeline, KINDS[applied % len(KINDS)], cores)
                    applied += 1
                yield instance, perm, assignment, result, timeline, tampers


def test_matches_reference_on_tampered_timelines():
    clean = tampered = flagged = refused = 0
    for instance, perm, assignment, result, timeline, tampers in corpus():
        if tampers:
            was_refused, got = audit_tampered(instance, perm, assignment, result, timeline)
            tampered += 1
            flagged += bool(got)
            refused += was_refused
        else:
            clean += 1
            assert audit_schedule(instance, perm, assignment, result) == []
            assert reference_audit(instance, perm, assignment, result) == []
    assert (clean, tampered) == (80, 640)
    # Pinned, so that a change to the corpus that makes it toothless shows.
    # Four nudges that start a segment up to 5e-10 before its release are
    # among the flagged. Every recore is refused.
    assert flagged == 536
    assert refused == 167


def test_matches_reference_on_larger_tampered_timelines():
    # Schedules of 1k+ segments over 12 ports a side, with releases, so that
    # spans of many ports and cores meet in the column sorts of the audit.
    rng = random.Random(11)
    tampered = flagged = refused = 0
    for seed in (900, 902, 904):
        instance = gen_mix(30, 12, seed, cores=5, release_max=200)
        for granularity in sorted(STAGES):
            order_fn, assign_fn = STAGES[granularity]
            perm = order_fn(instance, 0.5)
            assignment = assign_fn(instance, perm)
            result = simulate(instance, perm, assignment, emit_timeline=True)
            assert len(result.timeline) >= 1000
            assert audit_schedule(instance, perm, assignment, result) == []
            for made in range(8):
                timeline = list(result.timeline)
                for _ in range(1 + made % 3):
                    tamper(rng, timeline, rng.choice(KINDS), instance.cores)
                was_refused, got = audit_tampered(instance, perm, assignment, result, timeline)
                tampered += 1
                flagged += bool(got)
                refused += was_refused
    assert tampered == 48
    # Pinned, so that a change to the corpus that makes it toothless shows.
    assert flagged == 46
    assert refused == 18


def test_matches_reference_with_many_empty_cores():
    # CDLS puts six coflows on at most six of 16 cores, so most cores have
    # no segment, and FDLS leaves cores with a flow or two each. A recore
    # tamper moves a segment off its flow's placed core, to core 17 among
    # others, which of_flows refuses.
    rng = random.Random(13)
    tampered = flagged = applied = refused = 0
    for seed in range(700, 708):
        instance = gen_mix(6, 5, seed, cores=16)
        for granularity in sorted(STAGES):
            order_fn, assign_fn = STAGES[granularity]
            perm = order_fn(instance, 0.5)
            assignment = assign_fn(instance, perm)
            result = simulate(instance, perm, assignment, emit_timeline=True)
            assert audit_schedule(instance, perm, assignment, result) == []
            for _ in range(6):
                timeline = list(result.timeline)
                tamper(rng, timeline, KINDS[applied % len(KINDS)], instance.cores)
                applied += 1
                was_refused, got = audit_tampered(instance, perm, assignment, result, timeline)
                tampered += 1
                flagged += bool(got)
                refused += was_refused
    assert tampered == 96
    # Pinned, so that a change to the corpus that makes it toothless shows.
    assert flagged == 76
    assert refused == 20


def test_reports_the_first_starved_flow_in_key_order():
    # On one core, ports 1 and 2 each side. Coflow 1 runs on (1, 1) during
    # [0, 2); coflows 2 and 3 are released at 0 but only run from t=4.
    # In [0, 2), flow (2, 2, 3) is starved, as input 2 and output 2 are
    # free; (1, 2, 2) is not, as input 1 is busy. At [2, 4) both are
    # starved, and the report names (1, 2, 2), the smaller key.
    instance = Instance(
        1,
        2,
        (
            Coflow(1, 0, 1, {(1, 1): 2}),
            Coflow(2, 0, 1, {(1, 2): 2}),
            Coflow(3, 0, 1, {(2, 2): 2}),
        ),
    )
    placement = {key: 1 for key in instance.table.keys}
    assignment = Assignment.of_flows(instance, "flow", placement)
    result = ScheduleResult.of_flows(
        assignment,
        {FlowKey(1, 1, 1): 2.0, FlowKey(1, 2, 2): 6.0, FlowKey(2, 2, 3): 6.0},
        [
            Segment(0.0, 2.0, FlowKey(1, 1, 1), 1),
            Segment(4.0, 6.0, FlowKey(1, 2, 2), 1),
            Segment(4.0, 6.0, FlowKey(2, 2, 3), 1),
        ],
    )
    assert result.coflow_completion == {1: 2.0, 2: 6.0, 3: 6.0} and result.objective == 14.0
    expected = [
        "core 1 output port 2: overlap at 4.0 before 6.0",
        "core 1: flow (2, 2, 3) idle at t=0.0 with both ports free",
        "core 1: flow (1, 2, 2) idle at t=2.0 with both ports free",
    ]
    assert audit_schedule(instance, [1, 2, 3], assignment, result) == expected
    assert reference_audit(instance, [1, 2, 3], assignment, result) == expected


def small_schedule():
    instance = gen_mix(5, 5, 3, cores=2, release_max=10)
    perm = order_flow_level(instance, 0.5)
    assignment = assign_fdls(instance, perm)
    return instance, perm, assignment, simulate(instance, perm, assignment, emit_timeline=True)


def test_edited_timelines_reach_the_audit():
    # The timeline view is a tuple, so an edit is a new result built from
    # it; each audit reads the timeline of the result it is given.
    instance, perm, assignment, result = small_schedule()
    assert audit_schedule(instance, perm, assignment, result) == []
    timeline = list(result.timeline)
    lost = timeline.pop(len(timeline) // 2)
    popped = rebuilt(instance, result, timeline)
    got = audit_schedule(instance, perm, assignment, popped)
    assert f"flow {tuple(lost.flow)} transmitted" in got[0]
    assert got == reference_audit(instance, perm, assignment, popped)
    timeline.append(lost._replace(start=lost.start + 1.0, end=lost.end + 1.0))
    moved_result = rebuilt(instance, result, timeline)
    moved = audit_schedule(instance, perm, assignment, moved_result)
    assert moved and moved != got
    assert moved == reference_audit(instance, perm, assignment, moved_result)


def test_columns_and_views_give_the_same_audit():
    # The audit reads the rows and columns that assign_* and simulate
    # keep. The placements and results of_flows builds from their views
    # give the same lists on a slice of the acceptance corpus, so that not
    # every list compared is empty, also on a copy of each schedule with
    # one tamper that the result accepts. A result holds the placement it
    # ran under, so the audit refuses it against the other policy's.
    rng = random.Random(17)
    flagged = 0
    for idx in range(0, 1000, 10):
        instance = corpus_instance(idx)
        runs = []
        for order_fn, assign_fn in STAGES.values():
            perm = order_fn(instance, 0.5)
            assignment = assign_fn(instance, perm)
            result = simulate(instance, perm, assignment, True)
            while True:
                timeline = list(result.timeline)
                tamper(rng, timeline, rng.choice(KINDS), instance.cores)
                try:
                    broken = rebuilt(instance, result, timeline)
                    break
                except ValueError:
                    pass
            runs += [(perm, assignment, result), (perm, assignment, broken)]
        for perm, assignment, result in runs:
            from_columns = audit_schedule(instance, perm, assignment, result)
            hand = Assignment.of_flows(instance, assignment.granularity, assignment.flow_to_core)
            view = ScheduleResult.of_flows(hand, result.flow_completion, result.timeline)
            assert audit_schedule(instance, perm, hand, view) == from_columns
            assert audit_schedule(instance, perm, hand, result) == from_columns
            flagged += bool(from_columns)
        (fperm, fasg, fres), _, (cperm, casg, cres), _ = runs
        assert audit_schedule(instance, fperm, fasg, fres) == []
        assert audit_schedule(instance, cperm, casg, cres) == []
        for perm, asg, res in ((fperm, casg, fres), (cperm, fasg, cres)):
            with pytest.raises(ValueError, match="result was built for another placement"):
                audit_schedule(instance, perm, asg, res)
    # Pinned, so that a change to the corpus that makes it toothless shows.
    assert flagged == 145


def test_missing_flow_completion_is_reported():
    # A result holds a completion per flow, so of_flows refuses one that
    # lacks any, as the first bad row in table order, and no audit runs.
    instance, perm, assignment, result = small_schedule()
    gone = instance.table.keys[3]
    completion = dict(result.flow_completion)
    del completion[gone]
    del completion[instance.table.keys[5]]
    message = f"flow {tuple(gone)} has no completion time"
    with pytest.raises(ValueError, match=re.escape(message)):
        ScheduleResult.of_flows(assignment, completion, result.timeline)


def test_nan_flow_completion_is_reported():
    # No comparison with NaN holds, so a NaN completion would pass the
    # reference audit; of_flows refuses it.
    instance, perm, assignment, result = small_schedule()
    bad_key = instance.table.keys[3]
    completion = {**result.flow_completion, bad_key: float("nan")}
    message = f"flow {tuple(bad_key)} completion is not a number"
    with pytest.raises(ValueError, match=re.escape(message)):
        ScheduleResult.of_flows(assignment, completion, result.timeline)


def test_segment_of_an_unknown_flow_is_reported():
    # No row holds a flow that is not in the instance, so of_flows refuses it.
    instance, perm, assignment, result = small_schedule()
    stray = Segment(0.0, 1.0, FlowKey(1, 1, 99), 1)
    message = f"segment {stray} of a flow not in the instance"
    with pytest.raises(ValueError, match=re.escape(message)):
        rebuilt(instance, result, [*result.timeline, stray])


@pytest.mark.parametrize("flow", [[9, 9, 9], (9, 9, 9)])
def test_segment_of_an_unhashable_flow_is_reported(flow):
    # A list is no key of any dict; it is refused like the tuple.
    instance = gen_mix(5, 6, 1, cores=2)
    perm = order_flow_level(instance, 0.5)
    assignment = assign_fdls(instance, perm)
    result = simulate(instance, perm, assignment, emit_timeline=True)
    stray = Segment(0.0, 3.0, flow, 1)
    message = f"segment {stray} of a flow not in the instance"
    with pytest.raises(ValueError, match=re.escape(message)):
        rebuilt(instance, result, [*result.timeline, stray])


def test_segment_on_an_unhashable_core_is_on_no_core():
    # A list core is no int, and core 99 is no core of the instance; of_flows
    # refuses both as a core that is not the flow's placed one.
    instance = gen_mix(5, 6, 1, cores=2)
    perm = order_flow_level(instance, 0.5)
    assignment = assign_fdls(instance, perm)
    result = simulate(instance, perm, assignment, emit_timeline=True)
    timeline = list(result.timeline)
    placed = f"but flow {tuple(timeline[2].flow)} is placed on core {timeline[2].core}"
    for core in ([timeline[2].core], 99):
        seg = timeline[2] = timeline[2]._replace(core=core)
        message = f"segment {seg} is on core {core!r}, {placed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            rebuilt(instance, result, timeline)


def test_a_segment_off_its_placed_core_is_refused_when_built():
    # Both flows are placed on core 1, but (1, 2, 2) is given on core 2.
    # Each audit reads the segment's core, so given that timeline both
    # found nothing: on core 2 it is alone, and on core 1 it is not idle,
    # as input port 1 is busy. A result reads every core from its
    # placement, so of_flows refuses the segment; the reference, given a
    # stand-in holding it, still passes it.
    instance = Instance(2, 2, (Coflow(1, 0, 1, {(1, 1): 4}), Coflow(2, 0, 1, {(1, 2): 4})))
    assignment = Assignment.of_flows(instance, "flow", dict.fromkeys(instance.table.keys, 1))
    completion = {FlowKey(1, 1, 1): 4.0, FlowKey(1, 2, 2): 4.0}
    timeline = (Segment(0.0, 4.0, FlowKey(1, 1, 1), 1), Segment(0.0, 4.0, FlowKey(1, 2, 2), 2))
    message = "is on core 2, but flow (1, 2, 2) is placed on core 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        ScheduleResult.of_flows(assignment, completion, timeline)
    stand_in = StandIn(timeline, completion, {1: 4.0, 2: 4.0})
    assert reference_audit(instance, [1, 2], assignment, stand_in) == []


def test_placement_of_an_unknown_flow_is_reported():
    # No row holds a flow that is not in the instance, so of_flows refuses it.
    instance, perm, assignment, result = small_schedule()
    placement = {**assignment.flow_to_core, FlowKey(9, 9, 99): 1}
    with pytest.raises(ValueError, match=re.escape("assignment references unknown flow (9, 9, 99)")):
        Assignment.of_flows(instance, "flow", placement)


@pytest.mark.parametrize("side", ["start", "end"])
def test_nan_segment_time_is_reported(side):
    # No comparison with NaN holds, so the reference passes a NaN end, and
    # a NaN start shows there only as starvation. The constructor refuses
    # the segment, so no audit sees it.
    instance, perm, assignment, result = small_schedule()
    timeline = list(result.timeline)
    seg = timeline[4] = timeline[4]._replace(**{side: float("nan")})
    assert seg.flow == FlowKey(3, 2, 5) and seg.core == 1
    message = f"segment {seg} has a time that is not a finite number"
    with pytest.raises(ValueError, match=re.escape(message)):
        rebuilt(instance, result, timeline)


@pytest.mark.parametrize("bound", [float("inf"), float("-inf")])
def test_segment_at_one_infinity_is_reported_once(bound):
    # Both ends at one infinity give a NaN length, which the reference adds
    # to the flow's volume, so there its missing volume goes unreported.
    # The constructor refuses the segment once, for its times, and computes
    # no NaN to do so.
    instance, perm, assignment, result = small_schedule()
    timeline = list(result.timeline)
    seg = timeline[4] = timeline[4]._replace(start=bound, end=bound)
    assert seg.flow == FlowKey(3, 2, 5) and seg.core == 1
    message = f"segment {seg} has a time that is not a finite number"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            rebuilt(instance, result, timeline)


def audit_both(instance, completion, timeline):
    """The report of each audit on every flow placed on core 1, checked equal."""
    assignment = Assignment.of_flows(instance, "flow", dict.fromkeys(instance.table.keys, 1))
    result = ScheduleResult.of_flows(assignment, completion, timeline)
    got = audit_schedule(instance, [], assignment, result)
    assert got == reference_audit(instance, [], assignment, result)
    return got


def test_a_completion_before_release_plus_size_is_reported():
    # Flow (1, 1, 1), released at 2, sends its 4 units in [2, 6) but its
    # completion reads 5. Both audits report the early completion, and
    # that it is not the end of the last segment; its window [2, 5) is
    # covered, so it is not idle.
    instance = Instance(1, 1, (Coflow(1, 2, 1, {(1, 1): 4}),))
    got = audit_both(instance, {FlowKey(1, 1, 1): 5.0}, [Segment(2.0, 6.0, FlowKey(1, 1, 1), 1)])
    assert got == [
        "flow (1, 1, 1) completed at 5.0, before release + size",
        "flow (1, 1, 1) completed at 5.0, but its last segment ends at 6.0",
    ]


def test_a_flow_sent_before_its_release_is_reported():
    # (1, 1, 1), released at 10, sends during [8, 12), two units before
    # its release; its completion 14 also reads past that last segment.
    instance = Instance(1, 2, (Coflow(1, 10, 1, {(1, 1): 4}), Coflow(2, 0, 1, {(1, 2): 10})))
    timeline = [
        Segment(0.0, 8.0, FlowKey(1, 2, 2), 1),
        Segment(8.0, 12.0, FlowKey(1, 1, 1), 1),
        Segment(12.0, 14.0, FlowKey(1, 2, 2), 1),
    ]
    completion = {FlowKey(1, 1, 1): 14.0, FlowKey(1, 2, 2): 14.0}
    assert audit_both(instance, completion, timeline) == [
        "flow (1, 1, 1) starts at 8.0, before its release 10",
        "flow (1, 1, 1) completed at 14.0, but its last segment ends at 12.0",
    ]


def test_a_completion_after_its_last_segment_is_reported():
    # (1, 1, 1) sends [0, 4) and (1, 2, 2) then [4, 10) on input port 1,
    # but both report completion 10: the objective reads 20 where the
    # timeline gives 14. Every other rule holds.
    instance = Instance(1, 2, (Coflow(1, 0, 1, {(1, 1): 4}), Coflow(2, 0, 1, {(1, 2): 6})))
    timeline = [Segment(0.0, 4.0, FlowKey(1, 1, 1), 1), Segment(4.0, 10.0, FlowKey(1, 2, 2), 1)]
    completion = {FlowKey(1, 1, 1): 10.0, FlowKey(1, 2, 2): 10.0}
    assignment = Assignment("flow", instance, [1, 1])
    assert ScheduleResult.of_flows(assignment, completion, timeline).objective == 20.0
    assert audit_both(instance, completion, timeline) == [
        "flow (1, 1, 1) completed at 10.0, but its last segment ends at 4.0"
    ]


def test_a_completion_before_its_last_segment_is_reported():
    # (1, 1, 1) sends [0, 2) and [6, 8) but reports completion 4, which
    # release + size allows. (1, 2, 2) holds input port 1 during [2, 6),
    # so no flow is idle with both ports free.
    instance = Instance(1, 2, (Coflow(1, 0, 1, {(1, 1): 4}), Coflow(2, 0, 1, {(1, 2): 4})))
    timeline = [
        Segment(0.0, 2.0, FlowKey(1, 1, 1), 1),
        Segment(2.0, 6.0, FlowKey(1, 2, 2), 1),
        Segment(6.0, 8.0, FlowKey(1, 1, 1), 1),
    ]
    completion = {FlowKey(1, 1, 1): 4.0, FlowKey(1, 2, 2): 6.0}
    assert audit_both(instance, completion, timeline) == [
        "flow (1, 1, 1) completed at 4.0, but its last segment ends at 8.0"
    ]


def test_audit_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, which costs about 1.6 MB
    # of resident memory in a fresh process; the audit's grid does without.
    script = textwrap.dedent(
        """
        import sys
        from coflowsched import assign_fdls, audit_schedule, gen_mix, order_flow_level, simulate
        instance = gen_mix(5, 5, 3, cores=2, release_max=10)
        perm = order_flow_level(instance, 0.5)
        assignment = assign_fdls(instance, perm)
        result = simulate(instance, perm, assignment, emit_timeline=True)
        assert audit_schedule(instance, perm, assignment, result) == []
        print("numpy.ma" in sys.modules)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
