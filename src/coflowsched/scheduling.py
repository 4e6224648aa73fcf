"""Core assignment and port-exclusive transmission simulation.

Both assignment policies walk coflows in the given processing order and
balance projected port loads across the m cores. The simulator then runs a
preemptive list schedule per core: at every event (a release, or a flow
completing on any core) each core rebuilds its set of transmitting flows by
scanning its priority list greedily, starting each flow whose input and
output ports are still free on that core. Rates are unit, so with integer
demands and releases every event time is an integer.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .model import FlowKey, Instance
from .ordering import Permutation


class Segment(NamedTuple):
    """One contiguous transmission span of a flow on a core."""

    start: float
    end: float
    flow: FlowKey
    core: int


@dataclass
class Assignment:
    """Flow-to-core placement; coflow_to_core is set under coflow granularity."""

    granularity: str
    flow_to_core: dict[FlowKey, int]
    coflow_to_core: dict[int, int] | None


@dataclass
class ScheduleResult:
    flow_completion: dict[FlowKey, float]
    coflow_completion: dict[int, float]
    objective: float
    timeline: list[Segment] | None = None


def _order_list(order, n: int) -> list[int]:
    seq = list(order.order) if isinstance(order, Permutation) else list(order)
    if sorted(seq) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}, got {seq}")
    return seq


def assign_fdls(instance: Instance, order) -> Assignment:
    """Place each flow on the core with the least projected port load.

    Coflows are visited in processing order, flows within a coflow by
    non-increasing size. The score of core h for flow (i, j) is the load
    already projected on input i plus output j of h; ties take the lowest
    core id.
    """
    table = instance.table
    seq = _order_list(order, instance.n)
    m, ports = instance.cores, instance.ports
    load_in = np.zeros((ports + 1, m + 1), dtype=np.int64)
    load_out = np.zeros((ports + 1, m + 1), dtype=np.int64)
    placement: dict[FlowKey, int] = {}
    keys, size = table.keys, table.size
    for k in seq:
        flows = range(table.first[k - 1], table.first[k])
        for idx in sorted(flows, key=lambda x: -size[x]):
            key = keys[idx]
            h = int(np.argmin(load_in[key.i, 1:] + load_out[key.j, 1:])) + 1
            placement[key] = h
            load_in[key.i, h] += size[idx]
            load_out[key.j, h] += size[idx]
    return Assignment("flow", placement, None)


def assign_cdls(instance: Instance, order) -> Assignment:
    """Place each coflow whole on one core.

    The score of core h for coflow k is the worst projected input-port load
    plus the worst projected output-port load after adding k's own loads,
    taken only over ports where k actually has traffic. Empty coflows score
    the same everywhere and land on core 1.
    """
    table = instance.table
    seq = _order_list(order, instance.n)
    m, ports = instance.cores, instance.ports
    load_in = np.zeros((ports + 1, m + 1), dtype=np.int64)
    load_out = np.zeros((ports + 1, m + 1), dtype=np.int64)
    placement: dict[FlowKey, int] = {}
    coflow_core: dict[int, int] = {}
    for k in seq:
        own_in = table.load_in[k]
        own_out = table.load_out[k]
        used_in = np.nonzero(own_in)[0]
        used_out = np.nonzero(own_out)[0]
        if used_in.size:
            scores = (load_in[used_in, 1:] + own_in[used_in, None]).max(axis=0) + (
                load_out[used_out, 1:] + own_out[used_out, None]
            ).max(axis=0)
            h = int(np.argmin(scores)) + 1
        else:
            h = 1
        coflow_core[k] = h
        for key in table.keys[table.first[k - 1] : table.first[k]]:
            placement[key] = h
        load_in[:, h] += own_in
        load_out[:, h] += own_out
    return Assignment("coflow", placement, coflow_core)


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


def audit_schedule(
    instance: Instance,
    order,
    assignment: Assignment,
    result: ScheduleResult,
) -> list[str]:
    """Check a simulated schedule against the rules it must obey.

    Verifies port exclusivity per core, transmitted volume per flow, the
    release + size lower bound on every flow completion, coflow completions
    being the max over their flows, and work conservation: no released,
    incomplete flow may sit idle while both of its ports are free on its
    core. Returns a list of violation descriptions, empty when clean.
    """
    if result.timeline is None:
        raise ValueError("audit requires a result simulated with emit_timeline=True")
    bad: list[str] = []
    m, ports = instance.cores, instance.ports
    table = instance.table
    release_of = {c.id: c.release for c in instance.coflows}

    transmitted: dict[FlowKey, float] = dict.fromkeys(table.keys, 0.0)
    for seg in result.timeline:
        if seg.end <= seg.start:
            bad.append(f"empty or reversed segment {seg}")
        transmitted[seg.flow] += seg.end - seg.start
    for key, d, r in zip(table.keys, table.size, table.release):
        if abs(transmitted[key] - d) > 1e-6:
            bad.append(f"flow {tuple(key)} transmitted {transmitted[key]}, size {d}")
        comp = result.flow_completion.get(key)
        if comp is None:
            bad.append(f"flow {tuple(key)} has no completion time")
        elif comp < r + d - 1e-9:
            bad.append(f"flow {tuple(key)} completed at {comp}, before release + size")

    for c in instance.coflows:
        own = table.keys[table.first[c.id - 1] : table.first[c.id]]
        expect = max(result.flow_completion[k] for k in own) if own else float(c.release)
        got = result.coflow_completion.get(c.id)
        if got is None or abs(got - expect) > 1e-9:
            bad.append(f"coflow {c.id} completion {got}, expected {expect}")

    for h in range(1, m + 1):
        flows_h = sorted(
            {seg.flow for seg in result.timeline if seg.core == h}
            | {k for k, hh in assignment.flow_to_core.items() if hh == h}
        )
        if not flows_h:
            continue
        local = {key: p for p, key in enumerate(flows_h)}
        arr_i = np.array([key.i for key in flows_h])
        arr_j = np.array([key.j for key in flows_h])
        arr_rel = np.array([release_of[key.k] for key in flows_h], dtype=float)
        arr_comp = np.array([result.flow_completion[key] for key in flows_h])
        segs_h = [seg for seg in result.timeline if seg.core == h]

        for side in ("input", "output"):
            for p in range(1, ports + 1):
                spans = sorted(
                    (seg.start, seg.end)
                    for seg in segs_h
                    if (seg.flow.i if side == "input" else seg.flow.j) == p
                )
                for (_, e1), (s2, _) in zip(spans, spans[1:]):
                    if s2 < e1 - 1e-9:
                        bad.append(
                            f"core {h} {side} port {p}: overlap at {s2} before {e1}"
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
