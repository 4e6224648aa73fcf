"""The schedule audit as it was before the per-core interval sweep.

Kept as the reference that ``test_audit_differential.py`` compares
``coflowsched.scheduling.audit_schedule`` against, verbatim but for two
per-flow rules added to both: no segment starts before its flow's release,
and a flow's completion is the end of its last segment. Its work-conservation
check builds an intervals x flows boolean matrix per core and walks the
intervals one by one, so only small timelines should be fed to it. It
raises ``KeyError`` on a segment of an unknown flow or a flow without a
completion time, which ``ScheduleResult.of_flows`` now refuses. It reads
each segment's core from the segment, so it passes a segment on a core its
flow is not placed on, which ``of_flows`` also refuses.
"""

from __future__ import annotations

import numpy as np

from coflowsched.model import FlowKey, Instance
from coflowsched.scheduling import Assignment, ScheduleResult, Segment


def audit_schedule(
    instance: Instance,
    order,
    assignment: Assignment,
    result: ScheduleResult,
) -> list[str]:
    """Check a simulated schedule against the rules it must obey.

    Verifies port exclusivity per core, transmitted volume per flow, the
    release + size lower bound on every flow completion, no segment before
    its flow's release, each flow completion at its last segment's end,
    coflow completions being the max over their flows, and work
    conservation: no released, incomplete flow may sit idle while both of
    its ports are free on its core. Returns a list of violation
    descriptions, empty when clean.
    """
    if result.timeline is None:
        raise ValueError("audit requires a result simulated with emit_timeline=True")
    bad: list[str] = []
    m, ports = instance.cores, instance.ports
    table = instance.table
    release_of = {c.id: c.release for c in instance.coflows}

    transmitted: dict[FlowKey, float] = dict.fromkeys(table.keys, 0.0)
    first_start: dict[FlowKey, float] = {}
    last_end: dict[FlowKey, float] = {}
    for seg in result.timeline:
        if seg.end <= seg.start:
            bad.append(f"empty or reversed segment {seg}")
        transmitted[seg.flow] += seg.end - seg.start
        first_start[seg.flow] = min(first_start.get(seg.flow, seg.start), seg.start)
        last_end[seg.flow] = max(last_end.get(seg.flow, seg.end), seg.end)
    for key, d, r in zip(table.keys, table.size, table.release):
        if abs(transmitted[key] - d) > 1e-6:
            bad.append(f"flow {tuple(key)} transmitted {transmitted[key]}, size {d}")
        comp = result.flow_completion.get(key)
        if comp is None:
            bad.append(f"flow {tuple(key)} has no completion time")
        elif comp < r + d - 1e-9:
            bad.append(f"flow {tuple(key)} completed at {comp}, before release + size")
        if key in first_start and first_start[key] < r:
            bad.append(f"flow {tuple(key)} starts at {first_start[key]}, before its release {r}")
        if comp is not None and key in last_end and abs(comp - last_end[key]) > 1e-9:
            bad.append(
                f"flow {tuple(key)} completed at {comp}, "
                f"but its last segment ends at {last_end[key]}"
            )

    for c in instance.coflows:
        own = table.keys[table.first[c.id - 1] : table.first[c.id]]
        expect = max(result.flow_completion[k] for k in own) if own else float(c.release)
        got = result.coflow_completion.get(c.id)
        if got is None or abs(got - expect) > 1e-9:
            bad.append(f"coflow {c.id} completion {got}, expected {expect}")

    # Bucket the segments by core, and their spans by (core, side, port).
    segs_of: dict[int, list[Segment]] = {}
    spans_of: dict[tuple[int, int], dict[int, list[tuple[float, float]]]] = {}
    for seg in result.timeline:
        segs_of.setdefault(seg.core, []).append(seg)
        for side, port in ((0, seg.flow.i), (1, seg.flow.j)):
            spans_of.setdefault((seg.core, side), {}).setdefault(port, []).append(
                (seg.start, seg.end)
            )
    placed_on: dict[int, set[FlowKey]] = {}
    for key, h in assignment.flow_to_core.items():
        placed_on.setdefault(h, set()).add(key)

    for h in range(1, m + 1):
        segs_h = segs_of.get(h, [])
        flows_h = sorted({seg.flow for seg in segs_h} | placed_on.get(h, set()))
        if not flows_h:
            continue
        local = {key: p for p, key in enumerate(flows_h)}
        arr_i = np.array([key.i for key in flows_h])
        arr_j = np.array([key.j for key in flows_h])
        arr_rel = np.array([release_of[key.k] for key in flows_h], dtype=float)
        arr_comp = np.array([result.flow_completion[key] for key in flows_h])

        for side, name in enumerate(("input", "output")):
            by_port = spans_of.get((h, side), {})
            for p in sorted(by_port):
                if not 1 <= p <= ports:
                    continue
                spans = sorted(by_port[p])
                for (_, e1), (s2, _) in zip(spans, spans[1:]):
                    if s2 < e1 - 1e-9:
                        bad.append(
                            f"core {h} {name} port {p}: overlap at {s2} before {e1}"
                        )

        bounds = np.unique(
            np.concatenate(
                [
                    [seg.start for seg in segs_h],
                    [seg.end for seg in segs_h],
                    arr_rel,
                    arr_comp,
                ]
            )
        )
        if bounds.size < 2:
            continue
        n_iv = bounds.size - 1
        running = np.zeros((n_iv, len(flows_h)), dtype=bool)
        for seg in segs_h:
            a = int(np.searchsorted(bounds, seg.start))
            b = int(np.searchsorted(bounds, seg.end))
            running[a:b, local[seg.flow]] = True
        for e in range(n_iv):
            a = bounds[e]
            row = running[e]
            occ_in = np.zeros(ports + 1, dtype=bool)
            occ_out = np.zeros(ports + 1, dtype=bool)
            occ_in[arr_i[row]] = True
            occ_out[arr_j[row]] = True
            idle = ~row & (arr_rel <= a + 1e-9) & (arr_comp > a + 1e-9)
            starved = idle & ~(occ_in[arr_i] | occ_out[arr_j])
            if starved.any():
                key = flows_h[int(np.nonzero(starved)[0][0])]
                bad.append(
                    f"core {h}: flow {tuple(key)} idle at t={a} with both ports free"
                )
    return bad
