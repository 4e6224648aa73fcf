"""The list-schedule simulator as it was before the event-driven rewrite.

Kept verbatim as the reference that ``test_simulator_differential.py``
compares ``coflowsched.scheduling.simulate`` against: at every event (a
release, or a flow completing on any core) each core rebuilds its set of
transmitting flows by scanning its whole priority list. Quadratic, so only
small instances should be fed to it.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from coflowsched.model import Instance
from coflowsched.scheduling import Assignment, ScheduleResult, Segment, _order_list


def simulate(
    instance: Instance,
    order,
    assignment: Assignment,
    emit_timeline: bool = False,
) -> ScheduleResult:
    """Run the per-core preemptive list schedule to completion.

    Priority on a core is (coflow position in the order, then size
    non-increasing under flow granularity or port-pair order under coflow
    granularity, then (i, j)). Preemption happens only at events. Completion
    of a coflow is the completion of its last flow; a flowless coflow
    completes at its release.
    """
    table = instance.table
    seq = _order_list(order, instance.n)
    pos = {k: p for p, k in enumerate(seq)}
    m = instance.cores
    keys, sizes, rel = table.keys, table.size, table.release

    known = set(keys)
    for key, h in assignment.flow_to_core.items():
        if key not in known:
            raise ValueError(f"assignment references unknown flow {tuple(key)}")
        if not (isinstance(h, (int, np.integer)) and 1 <= h <= m):
            raise ValueError(f"flow {tuple(key)} assigned to core {h!r}, valid range 1..{m}")
    missing = known - set(assignment.flow_to_core)
    if missing:
        raise ValueError(f"assignment misses {len(missing)} flows, e.g. {tuple(min(missing))}")

    total = len(keys)
    core_of = [assignment.flow_to_core[key] for key in keys]
    by_coflow = assignment.granularity == "coflow"
    per_core: list[list[int]] = [[] for _ in range(m + 1)]
    for idx in range(total):
        per_core[core_of[idx]].append(idx)
    for lst in per_core:
        if by_coflow:
            lst.sort(key=lambda idx: (pos[keys[idx].k], keys[idx].i, keys[idx].j))
        else:
            lst.sort(key=lambda idx: (pos[keys[idx].k], -sizes[idx], keys[idx].i, keys[idx].j))

    remaining = [float(d) for d in sizes]
    finish = [0.0] * total
    release_times = sorted({c.release for c in instance.coflows})
    fi = [key.i for key in keys]
    fj = [key.j for key in keys]

    segs: list[list[float]] = []  # [start, end, flow idx]
    open_seg = [-1] * total
    ports = instance.ports
    left = total
    t = 0.0

    while left:
        running: list[int] = []
        for h in range(1, m + 1):
            occ_in = bytearray(ports + 1)
            occ_out = bytearray(ports + 1)
            for idx in per_core[h]:
                if rel[idx] > t:
                    continue
                i = fi[idx]
                j = fj[idx]
                if occ_in[i] or occ_out[j]:
                    continue
                occ_in[i] = 1
                occ_out[j] = 1
                running.append(idx)
        nxt = bisect_right(release_times, t)
        next_release = release_times[nxt] if nxt < len(release_times) else None
        if not running:
            if next_release is None:
                raise RuntimeError("no runnable flow and no pending release")
            t = float(next_release)
            continue
        t_end = t + min(remaining[idx] for idx in running)
        if next_release is not None and next_release < t_end:
            t_end = float(next_release)
        span = t_end - t
        done_cores = set()
        for idx in running:
            if emit_timeline:
                s = open_seg[idx]
                if s >= 0 and segs[s][1] == t:
                    segs[s][1] = t_end
                else:
                    open_seg[idx] = len(segs)
                    segs.append([t, t_end, idx])
            remaining[idx] -= span
            if remaining[idx] <= 1e-9:
                remaining[idx] = 0.0
                finish[idx] = t_end
                left -= 1
                done_cores.add(core_of[idx])
        for h in done_cores:
            per_core[h] = [idx for idx in per_core[h] if remaining[idx] > 0.0]
        t = t_end

    flow_completion = {keys[idx]: finish[idx] for idx in range(total)}
    coflow_completion: dict[int, float] = {}
    objective = 0.0
    for c in instance.coflows:
        own = finish[table.first[c.id - 1] : table.first[c.id]]
        done = max(own) if own else float(c.release)
        coflow_completion[c.id] = done
        objective += c.weight * done
    # Unit rates over integer demands keep every event on the integer grid.
    for idx in range(total):
        assert abs(finish[idx] - round(finish[idx])) <= 1e-9

    timeline = None
    if emit_timeline:
        timeline = sorted(
            Segment(s, e, keys[idx], core_of[idx]) for s, e, idx in segs
        )
    return ScheduleResult(flow_completion, coflow_completion, objective, timeline)
