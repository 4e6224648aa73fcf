"""Exhaustive baselines for small instances.

enumerate_best scores every coflow permutation crossed with every core
placement (per flow or per coflow, depending on granularity), so its
best_cost is the cheapest list schedule and an upper bound on the optimum of
that granularity. Cores share no port, so a core's schedule depends only on
the flows placed on it, in priority order; each distinct such sequence is
simulated once per call, by the fill ``simulate`` takes for the table: the
port bit sets when the horizon is at most ``scheduling.BIT_HORIZON``, as it
is on instances this small with small flows. A permutation's priority order
joins the coflows' list orders, which the flow table sorts once. Pairs are
scored in blocks of permutations: each placement puts a bit mask of flows
on each core, a permutation's finish times are one row per distinct mask,
and one gather per coflow reads every pair's finish times from those rows.
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
from itertools import islice, permutations, product

import numpy as np

from .model import FlowKey, FlowTable, Instance
from .scheduling import _fill, _priority_rows, require_granularity

# Cells (permutations x placements x flows) of one scoring block. A
# permutation has at most as many distinct core masks as placements, so this
# bounds every float64 array of a block at 128 KB on any instance.
BLOCK_CELLS = 1 << 14

# The largest instance enumerate_best accepts: the search is factorial in n
# and exponential in the flow (or coflow) count.
ORACLE_MAX_COFLOWS = 6
ORACLE_MAX_PORTS = 3
ORACLE_MAX_CORES = 2


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


def _run_core(table: FlowTable, rows: tuple[int, ...]) -> list[float]:
    """Finish times of ``rows``, one core's flows best first, alone on a core.

    The fill is the one ``simulate`` takes for the table.
    """
    return _fill(table)(rows, table.fi, table.fj, table.size, table.release, None)


def enumerate_best(instance: Instance, granularity: str = "flow") -> OracleResult:
    """Brute-force the best list schedule at the given granularity.

    Every (permutation, placement) pair is scored, and counted in
    ``schedules_examined``, with the objective ``simulate`` would return for
    it; a core's flow sequence that repeats is simulated only once per call.
    Refuses instances beyond the ``ORACLE_MAX_*`` caps. The witness is the
    first minimizer in lexicographic (permutation, assignment) order, so
    results are deterministic.
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
    for cores in product(range(1, m + 1), repeat=len(slot_bits)):
        masks = [0] * (m + 1)
        for bit, h in zip(slot_bits, cores):
            masks[h] |= bit
        core_of = cores if granularity == "flow" else tuple(cores[o] for o in owner)
        placements.append(core_of)
        gather.append(
            [index.setdefault(masks[h], len(index)) * flows + r for r, h in enumerate(core_of)]
        )
    member = [[mask >> r & 1 for r in range(flows)] for mask in index]
    gather = np.array(gather, dtype=np.intp).reshape(len(placements), flows)
    columns = [gather[:, lo:hi] if hi > lo else None for lo, hi in zip(first, first[1:])]

    # Finish times per core flow tuple (rows in priority order), as the bytes
    # of a float64 row over all flows.
    core_runs: dict[tuple[int, ...], bytes] = {}
    idle = [0.0] * flows
    best_cost = float("inf")
    best_order: list[int] = []
    best_assignment: dict[FlowKey, int] = {}
    examined = 0
    orders = permutations(range(1, n + 1))
    block = max(1, BLOCK_CELLS // (len(placements) * max(flows, 1)))
    while batch := list(islice(orders, block)):
        parts = []
        for perm in batch:
            ranked = _priority_rows(table, perm, granularity)
            for bits in member:
                rows = tuple([r for r in ranked if bits[r]])
                part = core_runs.get(rows)
                if part is None:
                    row = idle[:]
                    for r, t in zip(rows, _run_core(table, rows)):
                        row[r] = t
                    part = core_runs[rows] = array("d", row).tobytes()
                parts.append(part)
        runs = np.frombuffer(b"".join(parts)).reshape(len(batch), len(index) * flows)
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
