"""The interval-sweep audit against the interval-matrix reference, exactly.

``_reference_audit.audit_schedule`` is the audit the per-core sweep
replaced. Both must return the same violation list, order included, on
correct schedules and on a seeded corpus of tampered timelines. A tamper
shortens, shifts, deletes, moves to another core, stretches or nudges one
segment, or splits it into two touching halves, which breaks no rule; some
timelines get two tampers. A nudge moves one end by less than 1e-9, so that
two grid points lie closer than the audit's tolerance. A second, smaller
corpus tampers schedules of 1k+ segments with releases.
"""

import os
import random
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

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
        # Core cores + 1 does not exist; the segment then leaves every core.
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


def corpus():
    """Yield (instance, order, assignment, result, tampers) over 80 schedules.

    Each schedule is yielded untampered (tampers 0) and then with
    TAMPERS_PER_SCHEDULE tampered timelines, every third with two tampers.
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
            yield instance, perm, assignment, result, 0
            for _ in range(TAMPERS_PER_SCHEDULE):
                timeline = list(result.timeline)
                tampers = 2 if made % 3 == 2 else 1
                made += 1
                for _ in range(tampers):
                    tamper(rng, timeline, KINDS[applied % len(KINDS)], cores)
                    applied += 1
                tampered = ScheduleResult(
                    result.flow_completion, result.coflow_completion, result.objective, timeline
                )
                yield instance, perm, assignment, tampered, tampers


def test_matches_reference_on_tampered_timelines():
    clean = tampered = flagged = 0
    for instance, perm, assignment, result, tampers in corpus():
        got = audit_schedule(instance, perm, assignment, result)
        assert got == reference_audit(instance, perm, assignment, result)
        if tampers:
            tampered += 1
            flagged += bool(got)
        else:
            clean += 1
            assert got == []
    assert (clean, tampered) == (80, 640)
    # Pinned, so that a change to the corpus that makes it toothless shows.
    assert flagged == 532


def test_matches_reference_on_larger_tampered_timelines():
    # Schedules of 1k+ segments over 12 ports a side, with releases, so that
    # spans of many ports and cores meet in the column sorts of the audit.
    rng = random.Random(11)
    tampered = flagged = 0
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
                broken = ScheduleResult(
                    result.flow_completion, result.coflow_completion, result.objective, timeline
                )
                got = audit_schedule(instance, perm, assignment, broken)
                assert got == reference_audit(instance, perm, assignment, broken)
                tampered += 1
                flagged += bool(got)
    assert tampered == 48
    # Pinned, so that a change to the corpus that makes it toothless shows.
    assert flagged == 46


def test_matches_reference_with_many_empty_cores():
    # CDLS puts six coflows on at most six of 16 cores, so most cores have
    # no segment, and FDLS leaves cores with a flow or two each. A recore
    # tamper can move a segment to core 17.
    rng = random.Random(13)
    tampered = flagged = applied = 0
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
                broken = ScheduleResult(
                    result.flow_completion, result.coflow_completion, result.objective, timeline
                )
                got = audit_schedule(instance, perm, assignment, broken)
                assert got == reference_audit(instance, perm, assignment, broken)
                tampered += 1
                flagged += bool(got)
    assert tampered == 96
    # Pinned, so that a change to the corpus that makes it toothless shows.
    assert flagged == 76


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
    assignment = Assignment("flow", placement, None)
    result = ScheduleResult(
        {FlowKey(1, 1, 1): 2.0, FlowKey(1, 2, 2): 6.0, FlowKey(2, 2, 3): 6.0},
        {1: 2.0, 2: 6.0, 3: 6.0},
        14.0,
        [
            Segment(0.0, 2.0, FlowKey(1, 1, 1), 1),
            Segment(4.0, 6.0, FlowKey(1, 2, 2), 1),
            Segment(4.0, 6.0, FlowKey(2, 2, 3), 1),
        ],
    )
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


def test_in_place_timeline_edits_reach_the_audit():
    # The audit reads result.timeline afresh on every call, so an edit made
    # in place after a first audit is seen by the next one.
    instance, perm, assignment, result = small_schedule()
    assert audit_schedule(instance, perm, assignment, result) == []
    lost = result.timeline.pop(len(result.timeline) // 2)
    got = audit_schedule(instance, perm, assignment, result)
    assert f"flow {tuple(lost.flow)} transmitted" in got[0]
    assert got == reference_audit(instance, perm, assignment, result)
    result.timeline.append(lost._replace(start=lost.start + 1.0, end=lost.end + 1.0))
    moved = audit_schedule(instance, perm, assignment, result)
    assert moved and moved != got
    assert moved == reference_audit(instance, perm, assignment, result)


def test_columns_and_views_give_the_same_audit():
    # Until a view is read, the audit reads the rows and columns that
    # assign_* and simulate keep; after, the views. On a slice of the
    # acceptance corpus both give the same lists. Each schedule is also
    # audited against the other policy's placement, which puts flows on
    # cores they do not run on, so that not every list compared is empty.
    flagged = 0
    for idx in range(0, 1000, 10):
        instance = corpus_instance(idx)
        table = instance.table
        runs = []
        for order_fn, assign_fn in STAGES.values():
            perm = order_fn(instance, 0.5)
            assignment = assign_fn(instance, perm)
            runs.append((perm, assignment, simulate(instance, perm, assignment, True)))
        (fperm, fasg, fres), (cperm, casg, cres) = runs
        cases = [(fperm, fasg, fres), (cperm, casg, cres), (fperm, casg, fres), (cperm, fasg, cres)]
        from_columns = [audit_schedule(instance, *case) for case in cases]
        for _, assignment, result in runs:
            assert result._timeline_columns(table) is not None
            assignment.flow_to_core, result.flow_completion, result.timeline
            assert result._timeline_columns(table) is assignment._core_rows(table) is None
        assert [audit_schedule(instance, *case) for case in cases] == from_columns
        assert from_columns[:2] == [[], []]
        flagged += bool(from_columns[2]) + bool(from_columns[3])
    # Pinned, so that a change to the corpus that makes it toothless shows.
    assert flagged == 119


def test_missing_flow_completion_is_reported():
    instance, perm, assignment, result = small_schedule()
    gone = instance.table.keys[3]
    completion = dict(result.flow_completion)
    del completion[gone]
    broken = ScheduleResult(
        completion, result.coflow_completion, result.objective, result.timeline
    )
    with pytest.raises(KeyError):
        reference_audit(instance, perm, assignment, broken)
    assert audit_schedule(instance, perm, assignment, broken) == [
        f"flow {tuple(gone)} has no completion time"
    ]


def test_nan_flow_completion_is_reported():
    # The reference audit passes a NaN completion: no comparison with NaN
    # holds, so neither the release + size check nor the coflow check fires.
    instance, perm, assignment, result = small_schedule()
    bad_key = instance.table.keys[3]
    completion = {**result.flow_completion, bad_key: float("nan")}
    broken = ScheduleResult(
        completion, result.coflow_completion, result.objective, result.timeline
    )
    assert reference_audit(instance, perm, assignment, broken) == []
    assert audit_schedule(instance, perm, assignment, broken) == [
        f"flow {tuple(bad_key)} completion is not a number"
    ]


def test_segment_of_an_unknown_flow_is_reported():
    instance, perm, assignment, result = small_schedule()
    stray = Segment(0.0, 1.0, FlowKey(1, 1, 99), 1)
    broken = ScheduleResult(
        result.flow_completion,
        result.coflow_completion,
        result.objective,
        [*result.timeline, stray],
    )
    with pytest.raises(KeyError):
        reference_audit(instance, perm, assignment, broken)
    assert audit_schedule(instance, perm, assignment, broken) == [
        f"segment {stray} of a flow not in the instance"
    ]


@pytest.mark.parametrize("flow", [[9, 9, 9], (9, 9, 9)])
def test_segment_of_an_unhashable_flow_is_reported(flow):
    # A list is no key of any dict; it is reported like the tuple.
    instance = gen_mix(5, 6, 1, cores=2)
    perm = order_flow_level(instance, 0.5)
    assignment = assign_fdls(instance, perm)
    result = simulate(instance, perm, assignment, emit_timeline=True)
    stray = Segment(0.0, 3.0, flow, 1)
    result.timeline.append(stray)
    assert audit_schedule(instance, perm, assignment, result) == [
        f"segment {stray} of a flow not in the instance"
    ]


def test_segment_on_an_unhashable_core_is_on_no_core():
    # A list core is mapped to 0, like the unknown core id 99: either way
    # the segment leaves every core, and its flow reads idle on its own.
    instance = gen_mix(5, 6, 1, cores=2)
    perm = order_flow_level(instance, 0.5)
    assignment = assign_fdls(instance, perm)
    result = simulate(instance, perm, assignment, emit_timeline=True)
    audits = []
    for core in ([1], 99):
        timeline = list(result.timeline)
        timeline[2] = timeline[2]._replace(core=core)
        moved = ScheduleResult(
            result.flow_completion, result.coflow_completion, result.objective, timeline
        )
        audits.append(audit_schedule(instance, perm, assignment, moved))
    assert audits[0] == audits[1] and audits[0]


def test_placement_of_an_unknown_flow_is_reported():
    instance, perm, assignment, result = small_schedule()
    placement = {**assignment.flow_to_core, FlowKey(9, 9, 99): 1}
    broken = Assignment("flow", placement, None)
    with pytest.raises(KeyError):
        reference_audit(instance, perm, broken, result)
    assert audit_schedule(instance, perm, broken, result) == [
        "assignment places flow (9, 9, 99), which is not in the instance"
    ]


@pytest.mark.parametrize("side", ["start", "end"])
def test_nan_segment_time_is_reported(side):
    # No comparison with NaN holds, so the reference passes a NaN end, and
    # a NaN start shows there only as starvation. The audit reports the
    # segment and leaves it out of every other check: its flow then lacks
    # the segment's volume, and its span is free on both ports.
    instance, perm, assignment, result = small_schedule()
    timeline = list(result.timeline)
    seg = timeline[4] = timeline[4]._replace(**{side: float("nan")})
    assert seg.flow == FlowKey(3, 2, 5) and seg.core == 1
    broken = ScheduleResult(
        result.flow_completion, result.coflow_completion, result.objective, timeline
    )
    assert audit_schedule(instance, perm, assignment, broken) == [
        f"segment {seg} has a time that is not a number",
        "flow (3, 2, 5) transmitted 0.0, size 10",
        "core 1: flow (3, 2, 5) idle at t=1.0 with both ports free",
        "core 1: flow (3, 2, 3) idle at t=3.0 with both ports free",
        "core 1: flow (3, 2, 3) idle at t=6.0 with both ports free",
        "core 1: flow (3, 2, 3) idle at t=7.0 with both ports free",
        "core 1: flow (3, 2, 3) idle at t=8.0 with both ports free",
        "core 1: flow (3, 2, 3) idle at t=9.0 with both ports free",
    ]


@pytest.mark.parametrize("bound", [float("inf"), float("-inf")])
def test_segment_at_one_infinity_is_reported_once(bound):
    # Both ends at one infinity give a NaN length, which the reference adds
    # to the flow's volume, so there its missing volume goes unreported.
    # The audit reports the segment once, as empty, leaves it out of every
    # other check as it does a NaN time, and computes no NaN to do so.
    instance, perm, assignment, result = small_schedule()
    timeline = list(result.timeline)
    seg = timeline[4] = timeline[4]._replace(start=bound, end=bound)
    assert seg.flow == FlowKey(3, 2, 5) and seg.core == 1
    broken = ScheduleResult(
        result.flow_completion, result.coflow_completion, result.objective, timeline
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = audit_schedule(instance, perm, assignment, broken)
    assert got == [
        f"empty or reversed segment {seg}",
        "flow (3, 2, 5) transmitted 0.0, size 10",
        "core 1: flow (3, 2, 5) idle at t=1.0 with both ports free",
        "core 1: flow (3, 2, 3) idle at t=3.0 with both ports free",
        "core 1: flow (3, 2, 3) idle at t=6.0 with both ports free",
        "core 1: flow (3, 2, 3) idle at t=7.0 with both ports free",
        "core 1: flow (3, 2, 3) idle at t=8.0 with both ports free",
        "core 1: flow (3, 2, 3) idle at t=9.0 with both ports free",
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
