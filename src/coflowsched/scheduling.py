"""Core assignment and port-exclusive transmission simulation.

Both assignment policies walk coflows in the given processing order and
balance projected port loads across the m cores. The simulator then runs a
preemptive list schedule per core: at every instant a core transmits the
greedy set of its priority list, each flow whose input and output ports
are not taken by a better-ranked flow on that core. A flow never gives way
to a worse-ranked one, so its transmission depends only on the
better-ranked flows of its core. The simulator therefore places the flows
once each, best first: a flow fills the free time of its two ports from
its release on, and what it takes becomes busy time for the flows after
it. Rates are unit, so with integer demands and releases every time is an
integer.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from heapq import heappop, heappush
from itertools import repeat
from operator import add, countOf
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .model import Coflow, FlowKey, FlowTable, Instance, _is_int, _is_int_type
from .ordering import Permutation


class Segment(NamedTuple):
    """One contiguous transmission span of a flow on a core."""

    start: float
    end: float
    flow: FlowKey
    core: int


class _Fields:
    """``repr`` over ``_fields``, as a dataclass writes it, and ``==`` over ``_rows()``.

    ``repr`` reads the fields as attributes, so it builds any view not yet
    built; ``==`` compares only what the object holds, as each subclass's
    ``_rows`` returns it.
    """

    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._rows() == other._rows()


GRANULARITIES = ("flow", "coflow")


def require_granularity(granularity: str) -> None:
    """Raise ValueError unless ``granularity`` is one of ``GRANULARITIES``."""
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be flow or coflow, got {granularity!r}")


class Assignment(_Fields):
    """A core for each flow of ``instance``, checked once, when built.

    ``core_of`` holds the core of each row of the instance's flow table,
    however the placement was built: by ``assign_fdls``, ``assign_cdls``
    or, from a dict keyed by ``FlowKey``, ``of_flows``. The constructor
    raises ValueError unless it holds one int core in 1..m per flow (an
    np.integer counts as an int, a bool does not) and, under coflow
    granularity, one core per coflow; it names the first bad row in table
    order. ``core_of`` is kept as a tuple of ints, so a built placement
    stays checked. ``flow_to_core`` is a read-only view of it keyed by
    ``FlowKey``, built on first read.
    """

    _fields = ("granularity", "flow_to_core")

    def __init__(self, granularity: str, instance: Instance, core_of: Sequence[int]) -> None:
        require_granularity(granularity)
        table, m = instance.table, instance.cores
        core_of = tuple(core_of)
        if len(core_of) != len(table.fi):
            raise ValueError(f"assignment holds {len(core_of)} cores for {len(table.fi)} flows")
        types = set(map(type, core_of))
        if not (
            all(map(_is_int_type, types))
            and 1 <= min(core_of, default=1)
            and max(core_of, default=1) <= m
        ):
            r = next(r for r, h in enumerate(core_of) if not (_is_int(h) and 1 <= h <= m))
            key, h = table.keys[r], core_of[r]
            raise ValueError(f"flow {tuple(key)} assigned to core {h!r}, valid range 1..{m}")
        if types - {int}:
            core_of = tuple(map(int, core_of))
        if granularity == "coflow":
            first = table.first
            for k, lo, hi in zip(range(1, len(first)), first, first[1:]):
                own = core_of[lo:hi]
                if own != own[:1] * len(own):
                    h = next(h for h in own if h != own[0])
                    raise ValueError(f"coflow {k} placed on cores {own[0]} and {h}")
        self.granularity = granularity
        self.instance = instance
        self.core_of = core_of

    @classmethod
    def of_flows(cls, instance: Instance, granularity: str, flow_to_core: Mapping) -> Assignment:
        """The placement ``flow_to_core`` of ``instance``'s flows.

        Raises ValueError for a key that is no flow of the instance, the
        first in dict order, and for flows it misses; the constructor then
        checks the cores.
        """
        keys = instance.table.keys
        known = set(keys)
        for key in flow_to_core:
            if key not in known:
                name = tuple(key) if isinstance(key, tuple) else repr(key)
                raise ValueError(f"assignment references unknown flow {name}")
        missing = known.difference(flow_to_core)
        if missing:
            raise ValueError(f"assignment misses {len(missing)} flows, e.g. {tuple(min(missing))}")
        return cls(granularity, instance, list(map(flow_to_core.get, keys)))

    def _rows(self) -> tuple:
        return self.granularity, self.instance, self.core_of

    @cached_property
    def flow_to_core(self) -> Mapping[FlowKey, int]:
        return MappingProxyType(dict(zip(self.instance.table.keys, self.core_of)))


class ScheduleResult(_Fields):
    """Completion times, the weighted objective and, on request, the timeline.

    A result holds ``assignment``, the placement it ran under, and its
    ``instance``; the placement is the only record of a segment's core.
    ``finish`` holds a completion time for each row of the instance's flow
    table, however the result was built: by ``simulate`` or, from a dict
    keyed by ``FlowKey`` and a ``Segment`` list, by ``of_flows``. The
    constructor raises ValueError unless it holds one completion per flow,
    each an int or a float (an np.integer or np.floating counts, a bool does
    not) that converts to a float and is no NaN; it names the first bad row
    in table order. An infinite completion is accepted; the audit reports it.
    ``finish`` is kept as a tuple, and the coflow completions and the
    objective are folded from it when the result is built. ``columns`` is
    None, or the timeline as start, end and flow row arrays in timeline
    order. The constructor also raises ValueError unless each segment has
    finite times and start < end; it names the first bad one in timeline
    order, as the ``timeline`` view reads it. ``flow_completion`` (keyed by
    ``FlowKey``) and ``timeline`` (a tuple of ``Segment``) are read-only
    views, each built on first read.
    """

    _fields = ("flow_completion", "coflow_completion", "objective", "timeline")

    def __init__(self, assignment: Assignment, finish: Sequence[float], columns) -> None:
        finish = tuple(finish)
        table, placed = assignment.instance.table, assignment.core_of
        if len(finish) != len(table.fi):
            raise ValueError(f"result holds {len(finish)} completions for {len(table.fi)} flows")
        # Python floats whose sum is a number need no walk. A NaN sum may
        # come from +inf and -inf alone, so a walk that finds no fault accepts.
        if countOf(map(type, finish), float) != len(finish) or math.isnan(sum(finish)):
            for key, t in zip(table.keys, finish):
                fault = _completion_fault(t)
                if fault:
                    raise ValueError(f"flow {tuple(key)} {fault}")
        if columns is not None:
            start, end, row = columns
            fault = ~(np.isfinite(start) & np.isfinite(end) & (start < end))
            if fault.any():
                at = int(fault.argmax())
                r = row[at]
                seg = Segment(float(start[at]), float(end[at]), table.keys[r], placed[r])
                if not (math.isfinite(seg.start) and math.isfinite(seg.end)):
                    raise ValueError(f"segment {seg} has a time that is not a finite number")
                raise ValueError(f"empty or reversed segment {seg}")
        self.assignment, self.instance = assignment, assignment.instance
        self.finish = finish
        self.columns = columns
        done, self.objective = _fold_completions(self.instance.coflows, table.first, finish)
        self.coflow_completion = {c.id: t for c, t in zip(self.instance.coflows, done)}

    @classmethod
    def of_flows(
        cls, assignment: Assignment, flow_completion: Mapping, timeline=None
    ) -> ScheduleResult:
        """A result under ``assignment`` given by flow, with the timeline in its order.

        Raises ValueError for a completion or a segment of a flow that is not
        in the instance, and for a segment whose core is no int equal to its
        flow's placed core; the constructor then checks the completions and
        the segment times. A segment is held as float times and its flow's
        row, so the ``timeline`` view and every message name it with float
        times, a ``FlowKey`` and the placed core, whatever its types.
        """
        keys, core_of = assignment.instance.table.keys, assignment.core_of
        row_of = {key: r for r, key in enumerate(keys)}
        for key in flow_completion:
            if key not in row_of:
                raise ValueError(f"completion of unknown flow {key!r}")
        finish = list(map(flow_completion.get, keys))
        columns = None
        if timeline is not None:
            rows = []
            start, end, flows, core = zip(*timeline) if timeline else ((),) * 4
            for seg, flow, h in zip(timeline, flows, core):
                try:
                    r = row_of[flow]
                except (KeyError, TypeError):  # a list is no key of any dict
                    raise ValueError(f"segment {seg} of a flow not in the instance") from None
                if not (_is_int(h) and h == core_of[r]):
                    placed = f"flow {tuple(keys[r])} is placed on core {core_of[r]}"
                    raise ValueError(f"segment {seg} is on core {h!r}, but {placed}")
                rows.append(r)
            columns = tuple(map(np.array, (start, end, rows), (float, float, np.int64)))
        return cls(assignment, finish, columns)

    def _rows(self) -> tuple:
        columns = None if self.columns is None else [column.tolist() for column in self.columns]
        return self.assignment, self.finish, columns

    @cached_property
    def flow_completion(self) -> Mapping[FlowKey, float]:
        return MappingProxyType(dict(zip(self.instance.table.keys, self.finish)))

    @cached_property
    def timeline(self) -> tuple[Segment, ...] | None:
        if self.columns is None:
            return None
        start, end, row = (column.tolist() for column in self.columns)
        flows = map(self.instance.table.keys.__getitem__, row)
        core = map(self.assignment.core_of.__getitem__, row)
        # tuple.__new__ is what Segment._make calls, minus a Python frame each.
        return tuple(map(tuple.__new__, repeat(Segment), zip(start, end, flows, core)))


def _completion_fault(t) -> str | None:
    """What makes ``t`` no completion time, or None when it is one."""
    if t is None:
        return "has no completion time"
    if isinstance(t, bool) or not isinstance(t, (int, float, np.integer, np.floating)):
        return f"completion {t!r} is no int or float"
    try:
        return "completion is not a number" if math.isnan(float(t)) else None
    except OverflowError:
        return "completion does not convert to a float"


def _order_list(order, n: int) -> list[int]:
    """``order`` as a list, when it is a permutation of the coflow ids 1..n.

    Its entries must be ints or np.integers, and no bool: True sorts as 1.
    """
    seq = list(order.order) if isinstance(order, Permutation) else list(order)
    if not (all(map(_is_int_type, set(map(type, seq)))) and sorted(seq) == list(range(1, n + 1))):
        raise ValueError(f"order must be a permutation of 1..{n}, got {seq}")
    return seq


def assign_fdls(instance: Instance, order) -> Assignment:
    """Place each flow on the core with the least projected port load.

    Flows are visited in the flow-level list order of ``_priority_rows``:
    coflows in processing order, flows within a coflow by non-increasing
    size, then (i, j). The score of core h for flow (i, j) is the load
    already projected on input i plus output j of h; ties take the lowest
    core id. Each port that carries a flow keeps a Python list of its m
    projected loads per side, so the scores are exact ints and
    ``index(min(...))`` finds the first minimum.
    """
    table = instance.table
    seq = _order_list(order, instance.n)
    m = instance.cores
    size, fi, fj = table.size, table.fi, table.fj
    load_in = {i: [0] * m for i in set(fi)}
    load_out = {j: [0] * m for j in set(fj)}
    core_of = [0] * len(fi)
    for idx in _priority_rows(table, seq, "flow"):
        row_in, row_out = load_in[fi[idx]], load_out[fj[idx]]
        score = list(map(add, row_in, row_out))
        best = score.index(min(score))
        core_of[idx] = best + 1
        row_in[best] += size[idx]
        row_out[best] += size[idx]
    return Assignment("flow", instance, core_of)


def assign_cdls(instance: Instance, order) -> Assignment:
    """Place each coflow whole on one core.

    The score of core h for coflow k is the worst projected input-port load
    plus the worst projected output-port load after adding k's own loads,
    taken only over ports where k actually has traffic. Ties take the lowest
    core id, so empty coflows, which score 0 everywhere, land on core 1. Each
    port that carries traffic keeps a Python list of its m projected loads per
    side, and a coflow's cells in the flow table give its own loads.
    """
    table = instance.table
    seq = _order_list(order, instance.n)
    m = instance.cores
    sides = (table.cells_in, table.cells_out)
    loads = [{p: [0] * m for p in set(cells.port)} for cells in sides]
    first = table.first
    core_of = [0] * first[-1]
    for k in seq:
        score = [0] * m
        for cells, load_s in zip(sides, loads):
            lo, hi = cells.first[k - 1], cells.first[k]
            own = cells.load[lo:hi]
            if own:
                by_core = zip(*map(load_s.__getitem__, cells.port[lo:hi]))
                score = list(map(add, score, [max(map(add, on_h, own)) for on_h in by_core]))
        h = score.index(min(score)) + 1
        core_of[first[k - 1] : first[k]] = [h] * (first[k] - first[k - 1])
        for cells, load_s in zip(sides, loads):
            lo, hi = cells.first[k - 1], cells.first[k]
            for p, v in zip(cells.port[lo:hi], cells.load[lo:hi]):
                load_s[p][h - 1] += v
    return Assignment("coflow", instance, core_of)


def _priority_rows(table: FlowTable, seq: Sequence[int], granularity: str) -> list[int]:
    """Flow rows best first: the list-schedule priority of every core.

    Rows go by coflow position in ``seq``, then by size non-increasing under
    flow granularity, then by (i, j). A coflow's rows are already in (i, j)
    order, and a stable sort keeps that order among equal sizes.
    """
    first, size = table.first, table.size
    rows: list[int] = []
    for k in seq:
        own = range(first[k - 1], first[k])
        if granularity == "flow":
            own = sorted(own, key=size.__getitem__, reverse=True)
        rows.extend(own)
    return rows


def _fold_completions(
    coflows: Sequence[Coflow], first: Sequence[int], finish: Sequence[float]
) -> tuple[list[float], float]:
    """Coflow completions and the weighted objective, in coflow id order.

    A coflow completes with its last flow, a flowless one at its release.
    The objective adds weight x completion one coflow at a time, in Python
    floats whatever the weight's type, so every caller gets the same float.
    """
    done_of: list[float] = []
    objective = 0.0
    for c, lo, hi in zip(coflows, first, first[1:]):
        done = max(finish[lo:hi]) if hi > lo else float(c.release)
        done_of.append(done)
        objective += float(c.weight) * done
    return done_of, objective


def simulate(
    instance: Instance,
    order,
    assignment: Assignment,
    emit_timeline: bool = False,
) -> ScheduleResult:
    """Run the per-core preemptive list schedule to completion.

    Priority on a core is (coflow position in the order, then size
    non-increasing under flow granularity or port-pair order under coflow
    granularity, then (i, j)). At every instant each core transmits the
    greedy set of its priority list: a released, unfinished flow runs exactly
    when no better-ranked running flow on that core shares one of its ports.
    So a flow's transmission depends only on the better-ranked flows of its
    core, and ``_list_schedule`` places the flows one at a time, best first,
    into the free time of their two ports. Completion of a coflow is the
    completion of its last flow; a flowless coflow completes at its release.
    The placement was checked when built, so it need only be built for
    ``instance`` or an equal one (any other raises ValueError); the result
    holds it, and so each segment's core.
    """
    table = instance.table
    seq = _order_list(order, instance.n)
    _require_instance(assignment.instance, instance, "assignment")
    n = len(table.fi)

    # Each (core, port) gets its own key, so the cores share no busy runs.
    stride = instance.ports + 1
    key_in = [h * stride + i for h, i in zip(assignment.core_of, table.fi)]
    key_out = [h * stride + j for h, j in zip(assignment.core_of, table.fj)]
    ranked = _priority_rows(table, seq, assignment.granularity)
    segs: list[float] | None = [] if emit_timeline else None
    finish = [0.0] * n
    times = _list_schedule(ranked, key_in, key_out, table.size, table.release, segs)
    for r, t in zip(ranked, times):
        finish[r] = t

    columns = None
    if segs is not None:
        flat = np.fromiter(segs, float, len(segs)).reshape(-1, 3)
        start, end, row = flat[:, 0], flat[:, 1], flat[:, 2].astype(np.int64)
        by = _segment_order(start, end, table.key_rank[row], n)
        columns = (start[by], end[by], row[by])
    return ScheduleResult(assignment, finish, columns)


def _require_instance(held: Instance, instance: Instance, what: str) -> None:
    """Raise ValueError unless ``held``, which ``what`` was built for, equals ``instance``."""
    if held is not instance and held != instance:
        raise ValueError(f"{what} was built for another instance")


def _segment_order(start, end, rank, flows: int) -> np.ndarray:
    """The positions of simulated segments in ``Segment`` order.

    That is by start, end, then the flow's rank in key order; the flow
    fixes the core. Times are integers here, so while (latest end + 1)^2 x
    ``flows`` fits in int64, one sort of the distinct codes
    (start x (latest end + 1) + end) x flows + rank gives it, and else
    ``np.lexsort`` does.
    """
    top = int(end.max(initial=0)) + 1
    if top * top * flows >= 2**63:
        return np.lexsort((rank, end, start))
    code = start.astype(np.int64) * top + end.astype(np.int64)
    return np.argsort(code * flows + rank)


def _list_schedule(ranked, key_in, key_out, sizes, rel, segs) -> list[float]:
    """Place the flow rows ``ranked``, best first, into their ports' free time.

    Flow r uses the input port keyed ``key_in[r]`` and the output port keyed
    ``key_out[r]``. Each port keeps its busy time as one flat sorted list
    ``s0, e0, s1, e1, ..., inf`` of disjoint runs [s, e) that do not touch,
    so an odd ``bisect_right`` position means the time lies inside a run. A
    flow starts at its release, skips every run of either port that covers
    the current time, and transmits until the next run start on either port
    or until its size is sent, and so on. Each piece is one timeline
    segment; the loop merges it inline into both ports' runs, so the flows
    after it see it as busy. Inserting or removing a run shifts the later
    runs of that port's list, so a piece costs O(log runs) compares plus
    O(runs) moves on each port. Returns the finish times in ``ranked`` order
    and extends the flat list ``segs`` by start, end and flow row per piece.

    A flow that never finishes raises at once: its infinite end would
    overwrite the ``inf`` sentinel of its ports. Unit rates over integer
    sizes and releases below ``MAX_HORIZON`` keep every time an exact
    integer, which one check over all finish times asserts after the loop.
    """
    never = float("inf")
    busy_in: dict = {}
    busy_out: dict = {}
    finish: list[float] = []
    for r in ranked:
        runs_a = busy_in.get(key_in[r])
        if runs_a is None:
            runs_a = busy_in[key_in[r]] = [never]
        runs_b = busy_out.get(key_out[r])
        if runs_b is None:
            runs_b = busy_out[key_out[r]] = [never]
        t = float(rel[r])
        left = sizes[r]
        while True:
            pa = bisect_right(runs_a, t)
            if pa & 1:
                t = runs_a[pa]
                pa += 1
            pb = bisect_right(runs_b, t)
            if pb & 1:
                t = runs_b[pb]
                continue
            stop = runs_a[pa]
            if runs_b[pb] < stop:
                stop = runs_b[pb]
            end = t + left
            if end < stop:
                stop = end
            # Merge the free span [t, stop) into each port's runs: extend
            # the run ending at t, the run starting at stop, both (joining
            # them) or neither (a new run).
            if pa and runs_a[pa - 1] == t:
                if runs_a[pa] == stop:
                    del runs_a[pa - 1 : pa + 1]
                else:
                    runs_a[pa - 1] = stop
            elif runs_a[pa] == stop:
                runs_a[pa] = t
            else:
                runs_a[pa:pa] = (t, stop)
            if pb and runs_b[pb - 1] == t:
                if runs_b[pb] == stop:
                    del runs_b[pb - 1 : pb + 1]
                else:
                    runs_b[pb - 1] = stop
            elif runs_b[pb] == stop:
                runs_b[pb] = t
            else:
                runs_b[pb:pb] = (t, stop)
            if segs is not None:
                segs += (t, stop, r)
            if stop == end:
                break
            left = end - stop
            t = stop
        if not end < never:
            raise RuntimeError("no runnable flow and no pending release")
        finish.append(end)
    # Unit rates over integer demands keep every completion on the integer grid.
    assert all(map(float.is_integer, finish))
    return finish


def audit_schedule(
    instance: Instance,
    order,
    assignment: Assignment,
    result: ScheduleResult,
) -> list[str]:
    """Check a simulated schedule against the rules it must obey.

    Verifies port exclusivity per core and, per flow, the transmitted
    volume, the release + size lower bound on its completion, that no
    segment starts before its release, and that its completion is the end of
    its last segment (a flow without segments is left to the volume check);
    then work conservation: no released, incomplete flow may sit idle while
    both of its ports are free on its core. The placement and the result
    were checked when built (finite segment times, start < end, each segment
    on its flow's placed core in 1..m, coflow completions folded from the
    flow completions), so the audit judges only these rules. ``order`` is
    not read, but callers, the benchmark among them, pass it. The placement
    must be built for the instance or an equal one, as ``simulate``
    requires, and the result for the placement or an equal one; any other
    raises ValueError.

    Every check runs on the placement's rows and the result's timeline
    columns, a segment's core read from the placement: the volume per flow
    is one ``bincount``, its first start and last end one ``fmin.at`` and
    ``fmax.at``, and the flow checks are masks. Only what a mask flags is
    formatted, in the order a walk over the segments and flows would report
    it. One stable sort by core gives each core its segments as a slice in
    timeline order, and one sort per side by (core, port, start, end) puts
    each port's spans next to the spans they could overlap.

    Work conservation is checked per core on a grid: the sorted distinct
    segment starts and ends, releases and completions on that core, each
    cell running from one grid point to the next. The segments of each
    port are merged into sorted, disjoint busy runs of cells. A flow is
    eligible from the cell of its release up to the cell of its
    completion, and it starved in every eligible cell that neither of its
    ports' runs covers (its own segments are among those runs). One sweep
    over the starved pieces reports, for every cell that any of them
    covers, the starved flow first in (i, j, k) order.

    The table's ``FlowKey`` view is read only to name a flow in a report.

    Cost: per segment and per flow, the Python work is a few C-level
    passes. The rest runs in numpy, O((segments + flows)
    log(segments + flows)) over all cores plus a step per busy run that
    overlaps a flow's window, with Python work only per core, per starved
    piece and per line reported. Returns a list of violation descriptions,
    empty when clean.
    """
    bad: list[str] = []
    m, ports = instance.cores, instance.ports
    table = instance.table
    _require_instance(assignment.instance, instance, "assignment")
    if result.assignment is not assignment and result.assignment != assignment:
        raise ValueError("result was built for another placement")
    if result.columns is None:
        raise ValueError("audit requires a result simulated with emit_timeline=True")
    start, end, row = result.columns
    placed = np.array(assignment.core_of, dtype=np.int64)
    size = table.size
    n = len(size)

    def flow(r: int) -> tuple:
        """Row r's (i, j, k), as a report names the flow."""
        return tuple(table.keys[r])

    # bincount adds each flow's spans in timeline order, as a running += does.
    transmitted = np.bincount(row, weights=end - start, minlength=n)
    # Each flow's first segment start and last segment end; NaN, which no
    # comparison below flags, for a flow without segments. A start is held
    # to the release with no tolerance: a release is an integer, and a
    # simulated flow starts on the integer grid at or after it.
    first_start = np.full(n, np.nan)
    np.fmin.at(first_start, row, start)
    last_end = np.full(n, np.nan)
    np.fmax.at(last_end, row, end)
    done = np.array(result.finish, dtype=float)
    size_a = np.array(size, dtype=np.int64)
    release = np.array(table.release, dtype=float)
    # Every row the checks below report.
    suspect = (
        (np.abs(transmitted - size_a) > 1e-6)
        | (done < release + size_a - 1e-9)
        | (first_start < release)
        | (np.abs(done - last_end) > 1e-9)
    )
    for r in np.flatnonzero(suspect).tolist():
        d, sent, comp = size[r], float(transmitted[r]), result.finish[r]
        rel, first, last = table.release[r], float(first_start[r]), float(last_end[r])
        if abs(sent - d) > 1e-6:
            bad.append(f"flow {flow(r)} transmitted {sent}, size {d}")
        if comp < rel + d - 1e-9:
            bad.append(f"flow {flow(r)} completed at {comp}, before release + size")
        if first < rel:
            bad.append(f"flow {flow(r)} starts at {first}, before its release {rel}")
        if abs(comp - last) > 1e-9:
            bad.append(f"flow {flow(r)} completed at {comp}, but its last segment ends at {last}")

    # The segments, each core's a slice in timeline order. Sorting the
    # distinct codes core x segments + index is a stable sort by core.
    core = placed[row]
    live = np.argsort(core * start.size + np.arange(start.size))
    s_live, e_live, r_live, h_live = start[live], end[live], row[live], core[live]
    seg_edge = np.searchsorted(h_live, np.arange(1, m + 2)).tolist()
    fi = np.array(table.fi, dtype=np.int64)
    fj = np.array(table.fj, dtype=np.int64)

    # Each core's overlap lines, input ports first. The spans are sorted by
    # (start, end), then by (core, port) through distinct codes, so each
    # (core, port) group is in (start, end) order and a pair of neighbours
    # in it overlaps if s2 < e1 - 1e-9.
    overlaps: dict[int, list[str]] = {}
    by_time = np.lexsort((e_live, s_live))
    for name, port_of in (("input", fi), ("output", fj)):
        group = h_live * (ports + 1) + port_of[r_live]
        by = by_time[np.argsort(group[by_time] * by_time.size + np.arange(by_time.size))]
        group = group[by]
        hit = (group[1:] == group[:-1]) & (s_live[by[1:]] < e_live[by[:-1]] - 1e-9)
        for p in np.flatnonzero(hit).tolist():
            s2, e1 = float(s_live[by[p + 1]]), float(e_live[by[p]])
            h, port = divmod(int(group[p]), ports + 1)
            overlaps.setdefault(h, []).append(
                f"core {h} {name} port {port}: overlap at {s2} before {e1}"
            )

    # Each core's flows, the rows placed on it, as a slice in (i, j, k)
    # order: key_rank[r] is row r's position in key order.
    by_core = np.argsort(placed * n + table.key_rank)
    flow_edge = np.searchsorted(placed[by_core], np.arange(1, m + 2)).tolist()

    for h in range(1, m + 1):
        if flow_edge[h - 1] == flow_edge[h]:
            continue
        bad.extend(overlaps.get(h, ()))
        flows_h = by_core[flow_edge[h - 1] : flow_edge[h]]
        cut = slice(seg_edge[h - 1], seg_edge[h])
        span_start, span_end, span_row = s_live[cut], e_live[cut], r_live[cut]
        rel_h, done_h = release[flows_h], done[flows_h]
        # No NaN reaches the grid, so one sort and a neighbour compare dedupe
        # it, infinities included.
        grid = np.sort(np.concatenate([span_start, span_end, rel_h, done_h]))
        bounds = np.concatenate([grid[:1], grid[1:][grid[1:] != grid[:-1]]])
        if bounds.size < 2:
            continue
        for cell, pos in _starved_cells(
            bounds,
            np.searchsorted(bounds, span_start),
            np.searchsorted(bounds, span_end),
            fi[span_row],
            fj[span_row] + ports,
            # A flow is eligible in the cells starting at t with
            # release <= t + 1e-9 < completion.
            np.searchsorted(bounds + 1e-9, rel_h),
            np.searchsorted(bounds + 1e-9, done_h),
            fi[flows_h],
            fj[flows_h] + ports,
        ):
            bad.append(
                f"core {h}: flow {flow(flows_h[pos])} idle at t={bounds[cell]} "
                "with both ports free"
            )
    return bad


def _union(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, disjoint runs [start, end) covering the spans [lo, hi).

    Touching spans merge into one run, and so do empty spans at a run's
    edge.
    """
    if not lo.size:
        return lo, hi
    by_start = np.argsort(lo, kind="stable")
    lo, hi = lo[by_start], hi[by_start]
    reach = np.maximum.accumulate(hi)
    head = np.ones(lo.size, dtype=bool)
    head[1:] = lo[1:] > reach[:-1]
    heads = np.flatnonzero(head)
    return lo[heads], reach[np.append(heads[1:], lo.size) - 1]


def _starved_cells(
    bounds, span_a, span_b, span_in, span_out, flow_lo, flow_hi, flow_in, flow_out
):
    """Yield (cell, flow position) for every cell where some flow starved.

    Segment spans cover cells [span_a, span_b), at least one each, of the
    grid ``bounds`` on the ports ``span_in`` and ``span_out``; flow p is
    eligible in cells [flow_lo[p], flow_hi[p]) and uses ports flow_in[p]
    and flow_out[p]. Input and output ports come as distinct ids. Each
    port's runs are merged in one pass by shifting port q's cells to
    [q * width, (q + 1) * width), and each flow's covered cells likewise to
    flow p's own stretch. A cell is reported with its smallest starved flow
    position, cells in order.
    """
    width = bounds.size  # above every cell index and every window end
    port_base = np.concatenate([span_in, span_out]) * width
    span_a, span_b = np.tile(span_a, 2), np.tile(span_b, 2)
    run_lo, run_hi = _union(span_a + port_base, span_b + port_base)

    (pos,) = np.nonzero(flow_lo < flow_hi)
    lo, hi = flow_lo[pos], flow_hi[pos]
    # Per flow: an empty run at each end of its window, so that gaps at the
    # edges show too, and the busy runs of its two ports that overlap the
    # window, clipped to it. Flow f's cells shift to [f * width, ...).
    owner, cover_lo, cover_hi = [np.arange(pos.size)] * 2, [lo, hi], [lo, hi]
    for ports_of in (flow_in, flow_out):
        base = ports_of[pos] * width
        first = np.searchsorted(run_hi, base + lo, "right")
        count = np.searchsorted(run_lo, base + hi, "left") - first
        who = np.repeat(np.arange(pos.size), count)
        run = np.arange(who.size) + np.repeat(first - (np.cumsum(count) - count), count)
        owner.append(who)
        cover_lo.append(np.maximum(run_lo[run] - base[who], lo[who]))
        cover_hi.append(np.minimum(run_hi[run] - base[who], hi[who]))
    flow_base = np.concatenate(owner) * width
    run_lo, run_hi = _union(
        np.concatenate(cover_lo) + flow_base, np.concatenate(cover_hi) + flow_base
    )
    # Every gap between two runs of the same flow is a starved piece.
    who = run_lo // width
    gap = np.flatnonzero(who[1:] == who[:-1])
    base = who[gap] * width
    pieces = sorted(
        zip(
            (run_hi[gap] - base).tolist(),
            pos[who[gap]].tolist(),
            (run_lo[gap + 1] - base).tolist(),
        )
    )
    # Sweep the pieces in cell order with a heap of (flow position, end).
    active: list[tuple[int, int]] = []
    k = 0
    cell = 0
    while k < len(pieces) or active:
        if not active:
            cell = max(cell, pieces[k][0])
        while k < len(pieces) and pieces[k][0] <= cell:
            _, p, b = pieces[k]
            heappush(active, (p, b))
            k += 1
        while active and active[0][1] <= cell:
            heappop(active)
        if active:
            yield cell, active[0][0]
            cell += 1
