"""Exhaustive baselines for small instances.

enumerate_best scores every coflow permutation crossed with every core
placement (per flow or per coflow, depending on granularity), so its
best_cost is the cheapest list schedule and an upper bound on the optimum of
that granularity. Cores share no port, so a core's schedule depends only on
the flows placed on it, in priority order, and that order depends only on
the order the permutation gives the coflows with flows on the core: their
list orders, which the flow table sorts once, joined. Each placement puts a
bit mask of flows on each core, and each distinct mask is simulated once per
call for each order of its own coflows, by the fill ``simulate`` takes for
the table: the port bit sets when the horizon is at most
``scheduling.BIT_HORIZON``, as it is on instances this small with small
flows. The orders are those ``itertools.permutations`` gives the mask's
coflow blocks; each run writes its finish times into a copy of one zero row,
from port state held in lists indexed by port. ``_projections`` gives which
order each permutation gives and how many there are; it depends on n and the
coflow ids alone, so it is cached across calls. Pairs are scored in blocks
of permutations: one gather picks each permutation's finish-time row of
every mask, and one gather per coflow reads every pair's finish times from
those rows.
The completions and the weighted sum are then folded in coflow id order
from the flow table's weight and release columns, with the same IEEE
operations as the fold ``simulate`` uses, so each pair costs what
simulating it would return, to the bit, whatever numeric types the
instance holds. trivial_lower_bound is the opposite side: a per-coflow
floor no schedule can beat, read from the same columns. Both exist to
sandwich-check the dual bound and the two assignment policies on instances
small enough to enumerate.

The granularities are not interchangeable here. A coflow-level dual cost
can legitimately exceed the best flow-level schedule (splitting a coflow
across cores beats any single-core placement), so each dual must be
compared against the best schedule of its own granularity.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice, permutations, product
from math import factorial
from typing import Iterable

import numpy as np

from .model import FlowKey, FlowTable, Instance
from .scheduling import _blocks, _fill, _idle_ports, require_granularity

# Cells (permutations x placements x flows) of one scoring block. A
# permutation has at most as many distinct core masks as placements, so this
# bounds every float64 array of a block at 128 KB on any instance.
BLOCK_CELLS = 1 << 14

# The largest instance enumerate_best accepts: the search is factorial in n
# and exponential in the flow (or coflow) count, so it also caps the cells
# (permutations x placements x max(flows, 1)) of the whole search, which the
# caps on n, N and m leave unbounded on dense instances. n=6 with 8 flows on
# m=2 is 720 x 256 x 8 = 1,474,560 cells.
ORACLE_MAX_COFLOWS = 6
ORACLE_MAX_PORTS = 3
ORACLE_MAX_CORES = 2
ORACLE_MAX_CELLS = 1 << 21


@dataclass
class OracleResult:
    best_cost: float
    schedules_examined: int
    best_order: list[int]
    best_assignment: dict[FlowKey, int]


def trivial_lower_bound(instance: Instance) -> float:
    """Sum of weighted per-coflow floors.

    Coflow k cannot finish before its release plus its largest flow, nor
    before its most loaded port drains at aggregate rate m.
    """
    table = instance.table
    size, first = table.size, table.first
    m = instance.cores
    total = 0.0
    for k in range(1, len(first)):
        floor = table.coflow_release[k] + max(size[first[k - 1] : first[k]], default=0)
        for cells in (table.cells_in, table.cells_out):
            peak = max(cells.load[cells.first[k - 1] : cells.first[k]], default=0)
            floor = max(floor, float(peak) / m)
        total += table.weight[k] * floor
    return total


def _run_core(table: FlowTable, fill, rows: Iterable[int], out: list[float], ports: int) -> None:
    """Write ``out[r]`` for each of ``rows``, one core's flows best first, run alone.

    ``fill`` is ``scheduling._fill(table)``; the core's ports start idle in
    lists indexed by port, ``ports`` = N + 1 long.
    """
    busy_in, busy_out = _idle_ports(table, ports), _idle_ports(table, ports)
    fill(rows, table.fi, table.fj, table.size, table.release, busy_in, busy_out, out, None)


@cache
def _projections(n: int, coflows: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Which order of ``coflows`` each permutation of 1..n gives, and how many there are.

    ``coflows`` is a sorted, non-empty tuple of coflow ids. The orders are
    numbered as first met in lexicographic permutation order, which is the
    order ``permutations(coflows)`` lists them in; entry i of the read-only
    intp array is the number of permutation i's order.
    """
    seen: dict[tuple[int, ...], int] = {}
    picks = np.array(
        [
            seen.setdefault(tuple([k for k in perm if k in coflows]), len(seen))
            for perm in permutations(range(1, n + 1))
        ],
        dtype=np.intp,
    )
    picks.flags.writeable = False
    return picks, len(seen)


def enumerate_best(instance: Instance, granularity: str = "flow") -> OracleResult:
    """Brute-force the best list schedule at the given granularity.

    Every (permutation, placement) pair is scored, and counted in
    ``schedules_examined``, with the objective ``simulate`` would return for
    it. Each distinct core mask is simulated once per order of its own
    coflows, in ``permutations`` order of their blocks and by one
    ``_run_core`` call each, so no core flow sequence is simulated twice in
    a call, and each block of permutations picks its rows of those runs by
    one gather.
    Refuses instances beyond the ``ORACLE_MAX_*`` caps, before any placement
    is built. The witness is the first minimizer in lexicographic
    (permutation, assignment) order, so results are deterministic.
    """
    table = instance.table
    keys = table.keys
    require_granularity(granularity)
    n, m = instance.n, instance.cores
    if n > ORACLE_MAX_COFLOWS or instance.ports > ORACLE_MAX_PORTS or m > ORACLE_MAX_CORES:
        raise ValueError(
            f"instance exceeds enumeration caps n<={ORACLE_MAX_COFLOWS}, "
            f"N<={ORACLE_MAX_PORTS}, m<={ORACLE_MAX_CORES}"
        )

    flows, first = len(keys), table.first
    slots = flows if granularity == "flow" else n
    if factorial(n) * m**slots * max(flows, 1) > ORACLE_MAX_CELLS:
        raise ValueError(
            f"instance exceeds enumeration caps: {n}! x {m}^{slots} x {max(flows, 1)} "
            f"cells > {ORACLE_MAX_CELLS}"
        )
    # Placements in product order as each flow's core, and the flows each one
    # puts on each core as a bit mask over rows.
    if granularity == "flow":
        slot_bits = [1 << r for r in range(flows)]
    else:
        slot_bits = [(1 << first[k]) - (1 << first[k - 1]) for k in range(1, n + 1)]
    owner = [key.k - 1 for key in keys]
    # A permutation's finish times are one row per distinct core mask, each
    # with the flows of that mask run alone on a core; flattened, flow r of
    # placement p is read from column gather[p, r], and each coflow with
    # flows keeps its own columns of gather.
    placements = []
    index: dict[int, int] = {}
    gather = []
    for cores in product(range(1, m + 1), repeat=slots):
        masks = [0] * (m + 1)
        for bit, h in zip(slot_bits, cores):
            masks[h] |= bit
        core_of = cores if granularity == "flow" else tuple(cores[o] for o in owner)
        placements.append(core_of)
        gather.append(
            [index.setdefault(masks[h], len(index)) * flows + r for r, h in enumerate(core_of)]
        )
    gather = np.array(gather, dtype=np.intp).reshape(len(placements), flows)
    columns = [gather[:, lo:hi] if hi > lo else None for lo, hi in zip(first, first[1:])]

    # A mask's flow sequence depends only on the order a permutation gives
    # the coflows with flows in it, so each mask is filled once per such
    # order, in the order permutations of those coflows' blocks list them:
    # its finish rows, over all flows, go into one float64 array, from row
    # base[j] on, and pick[j] gives each permutation's row offset.
    blocks = list(_blocks(table, range(1, n + 1), granularity))
    fill, ports, zero = _fill(table), instance.ports + 1, [0.0] * flows
    finish = array("d")
    base, pick, filled = [], [], 0
    for mask in index:
        own = [[r for r in rows if mask >> r & 1] for rows in blocks]
        coflows = tuple(k for k, rows in enumerate(own, 1) if rows)
        if coflows:
            picks, orders = _projections(n, coflows)
        else:
            picks, orders = np.zeros(factorial(n), dtype=np.intp), 1
        base.append(filled)
        pick.append(picks)
        filled += orders
        for order in permutations([rows for rows in own if rows]):
            row = zero.copy()
            _run_core(table, fill, chain.from_iterable(order), row, ports)
            finish.fromlist(row)
    distinct = np.frombuffer(finish).reshape(filled, flows)
    base = np.array(base, dtype=np.intp)

    best_cost = float("inf")
    best_order: list[int] = []
    best_assignment: dict[FlowKey, int] = {}
    examined = 0
    perms = permutations(range(1, n + 1))
    block = max(1, BLOCK_CELLS // (len(placements) * max(flows, 1)))
    lo = 0
    while batch := list(islice(perms, block)):
        # Row base[j] + pick[j][lo + i] holds mask j's finish times under the
        # block's permutation i, gathered for every mask at once.
        rows = np.array([p[lo : lo + len(batch)] for p in pick], dtype=np.intp)
        runs = distinct[rows.reshape(-1, len(batch)).T + base]
        runs = runs.reshape(len(batch), len(index) * flows)
        lo += len(batch)
        # The fold of scheduling._fold_completions, one coflow at a time in id
        # order, on every pair of the block at once.
        cost = np.zeros((len(batch), len(placements)))
        for w, r, cols in zip(table.weight[1:], table.coflow_release[1:], columns):
            done = float(r) if cols is None else runs[:, cols].max(axis=2)
            cost += w * done
        cost = cost.ravel()
        pos = 0
        while (hits := np.flatnonzero(cost[pos:] < best_cost - 1e-12)).size:
            pos += int(hits[0])
            best_cost = float(cost[pos])
            b, p = divmod(pos, len(placements))
            best_order = list(batch[b])
            best_assignment = dict(zip(keys, placements[p]))
            pos += 1
        examined += cost.size
    return OracleResult(
        best_cost=best_cost,
        schedules_examined=examined,
        best_order=best_order,
        best_assignment=best_assignment,
    )
