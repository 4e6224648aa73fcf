"""The per-core event-loop simulator, kept as it was before the one-pass fill.

Kept verbatim as the reference that ``test_simulator_scale.py`` compares
``coflowsched.scheduling.simulate`` against, apart from returning its own
coflow completions and objective beside the result, which folds them
again. Each core advances on its own completions and releases; a heap
yields candidate flows in rank order, and a completion or a preemption
re-examines only the flows waiting at the two ports it frees. It runs in
O((flows + segments) log flows) per core, so it can check instances far
beyond the rescanning ``_reference_sim``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from heapq import heapify, heappop, heappush
from operator import neg

import numpy as np

from coflowsched.model import Instance
from coflowsched.scheduling import (
    Assignment,
    ScheduleResult,
    Segment,
    _fold_completions,
    _order_list,
    _priority_rows,
)

_CORE_ID_TYPES = (int, np.integer)


def simulate(
    instance: Instance,
    order,
    assignment: Assignment,
    emit_timeline: bool = False,
) -> tuple[ScheduleResult, dict[int, float], float]:
    """Run the per-core preemptive list schedule to completion.

    Priority on a core is (coflow position in the order, then size
    non-increasing under flow granularity or port-pair order under coflow
    granularity, then (i, j)). At every instant each core transmits the
    greedy set of its priority list: a released, unfinished flow runs
    exactly when no better-ranked running flow on that core shares one of
    its ports. Cores share no port, so each core is simulated on its own,
    and the set changes only at that core's own completions and releases.
    Completion of a coflow is the completion of its last flow; a flowless
    coflow completes at its release. Returns the result, then this loop's
    own coflow completions and objective.
    """
    table = instance.table
    seq = _order_list(order, instance.n)
    m = instance.cores
    keys, sizes, rel = table.keys, table.size, table.release
    fi, fj = table.fi, table.fj

    known = set(keys)
    for key, h in assignment.flow_to_core.items():
        if key not in known:
            raise ValueError(f"assignment references unknown flow {tuple(key)}")
        if not (isinstance(h, _CORE_ID_TYPES) and 1 <= h <= m):
            raise ValueError(f"flow {tuple(key)} assigned to core {h!r}, valid range 1..{m}")
    missing = known.difference(assignment.flow_to_core)
    if missing:
        raise ValueError(f"assignment misses {len(missing)} flows, e.g. {tuple(min(missing))}")

    core_of = list(map(assignment.flow_to_core.__getitem__, keys))
    # A stable sort by core keeps the priority order within each core.
    ranked = sorted(_priority_rows(table, seq, assignment.granularity), key=core_of.__getitem__)
    finish = [0.0] * len(keys)
    segs: list[tuple[float, float, int]] | None = [] if emit_timeline else None
    _list_schedule([(core_of[r], fi[r], fj[r], r) for r in ranked], sizes, rel, finish, segs)

    flow_completion = dict(zip(keys, finish))
    done, objective = _fold_completions(instance.coflows, table.first, finish)
    coflow_completion = {c.id: t for c, t in zip(instance.coflows, done)}

    timeline = None
    if segs is not None:
        timeline = sorted(
            Segment(s, e, keys[idx], core_of[idx]) for s, e, idx in segs
        )
    # The result holds the placement it ran under, checked as every one is.
    placed = Assignment.of_flows(instance, assignment.granularity, assignment.flow_to_core)
    result = ScheduleResult.of_flows(placed, flow_completion, timeline)
    return result, coflow_completion, objective


def _list_schedule(ranked, sizes, rel, finish, segs) -> None:
    """Run each core's event loop in turn.

    ``ranked`` rows are (core, input port, output port, flow index) and
    list the flows core by core, best first; a flow is named by its rank g,
    its row. Every port keeps one list, ``queue[port]``: the rank of the flow
    holding it (``free`` when none), then the rank-sorted released,
    unfinished flows on it. Input port i is keyed i and output port j is
    keyed -j. A core ends with every port free and every list empty, so the
    next core reuses them. At an event time t, every completion and release
    of the core at t is applied first. Then a heap yields candidates in
    rank order: a released flow, or the next flow waiting at a port that a
    departing holder freed. Because candidates come best first, every
    better-ranked flow already has its final state for t, so a candidate
    starts exactly when neither port is held by a better-ranked flow,
    preempting worse-ranked holders. A preempted flow lost a port to a
    better flow that keeps it for the rest of t, so no flow stops and
    restarts at the same instant, and a flow's run never splits into two
    touching segments.
    Writes ``finish`` and appends (start, end, flow index) to ``segs``.
    """
    total = len(ranked)
    if not total:
        return
    free = total  # holder value of a free port: above every rank, never "better"
    cols = list(zip(*ranked))
    cores, port_a, flows = cols[0], cols[-3], cols[-1]
    port_b = tuple(map(neg, cols[-2]))
    queue = {port: [free] for port in {*port_a, *port_b}}
    queue_a = list(map(queue.__getitem__, port_a))
    queue_b = list(map(queue.__getitem__, port_b))
    rem = list(map(sizes.__getitem__, flows))  # remaining size at the last start
    end = [-1.0] * total  # finish time while running, -1 otherwise
    arrive = list(map(float, map(rel.__getitem__, flows)))
    never = float("inf")
    arrive.append(never)  # rank ``total`` ends every core's arrival list
    running: list[tuple[float, int]] = []  # heap of (finish time, rank)
    cand: list[tuple[int, int]] = []  # heap of (rank, scanned port or 0 for none)

    lo = 0
    while lo < total:
        hi = bisect_right(cores, cores[lo], lo)
        arrivals = sorted(range(lo, hi), key=arrive.__getitem__)
        arrivals.append(total)
        nxt = 0
        t_rel = arrive[arrivals[0]]
        left = hi - lo
        lo = hi
        while left:
            if running and running[0][0] <= t_rel:
                t = running[0][0]
            elif t_rel < never:
                t = t_rel
            else:
                raise RuntimeError("no runnable flow and no pending release")

            while running and running[0][0] == t:
                g = heappop(running)[1]
                end[g] = -1.0
                # Unit rates over integer demands keep every event on the integer grid.
                assert abs(t - round(t)) <= 1e-9
                finish[flows[g]] = t
                if segs is not None:
                    segs.append((t - rem[g], t, flows[g]))
                left -= 1
                for port in (port_a[g], port_b[g]):
                    lst = queue[port]
                    lst[0] = free
                    p = bisect_left(lst, g, 1)
                    del lst[p]
                    if p < len(lst):
                        cand.append((lst[p], port))
            if t == t_rel:
                while arrive[arrivals[nxt]] == t:
                    g = arrivals[nxt]
                    nxt += 1
                    insort(queue_a[g], g, 1)
                    insort(queue_b[g], g, 1)
                    cand.append((g, 0))
                t_rel = arrive[arrivals[nxt]]
            heapify(cand)

            while cand:
                q, scan = heappop(cand)
                if end[q] >= 0.0:
                    continue  # already running; a scan stops, as q holds the port
                qa, qb = queue_a[q], queue_b[q]
                ha, hb = qa[0], qb[0]
                if ha < q or hb < q:
                    # Blocked by a better holder. A port scan goes on to the
                    # next waiting flow, unless the scanned port is the block.
                    if scan:
                        lst = queue[scan]
                        if lst[0] > q:
                            p = bisect_right(lst, q, 1)
                            if p < len(lst):
                                heappush(cand, (lst[p], scan))
                    continue
                if ha != free or hb != free:
                    # Preempt the worse holders; each frees its other port.
                    worse = ((ha, queue_b, port_b), (hb, queue_a, port_a))
                    for v, other_queue, other_port in worse:
                        if v == free or end[v] < 0.0:
                            continue  # no holder, or already preempted via the other port
                        running.remove((end[v], v))
                        heapify(running)
                        if segs is not None:
                            segs.append((end[v] - rem[v], t, flows[v]))
                        rem[v] = end[v] - t
                        end[v] = -1.0
                        lst = other_queue[v]
                        lst[0] = free
                        p = bisect_right(lst, v, 1)
                        if p < len(lst):
                            heappush(cand, (lst[p], other_port[v]))
                qa[0] = qb[0] = q
                end[q] = t + rem[q]
                heappush(running, (end[q], q))
