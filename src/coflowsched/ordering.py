"""Primal-dual construction of the coflow processing order.

The permutation is built from the last position to the first. Each iteration
looks at the most loaded input and output ports over the still-unscheduled
coflows, picks the bottleneck side, and either places the latest-released
coflow there (alpha branch, when its release dominates the bottleneck load)
or raises dual variables until one coflow's budget is exhausted and places
that coflow (beta branch). The accumulated dual objective is a feasible dual
value and therefore a lower bound on the optimal total weighted completion
time of any schedule; no exponential set family is ever materialized.

Two granularities share the skeleton and produce the same permutation. They
differ only in the dual increments: the flow-level form prices individual
flow sizes at the bottleneck port, the coflow-level form prices aggregated
per-coflow port loads.

The pass is plain Python over sparse state. It reads the flow table's port
cells, each coflow's nonzero ports per side with its load and squared flow
sizes there, and keeps, for each port on each side, a column {coflow: load}
over the unscheduled coflows and integer sums: the total load and the squares
the granularity prices. The latest-released coflow comes from a list sorted
once, the smallest slack from a lazy heap that gets one entry per dual
change. Each side holds its busiest port from its last scan and scans its
port totals again only when that port's total has fallen: on the bottleneck
side after every beta step, otherwise only when the placed coflow loaded
that port. A step costs those scans, a scan of the bottleneck column, and
the cells of the removed coflow. Integer sums are exact, and every float
must come from the same IEEE operations in the same order as in the dense
numpy reference in ``tests/_reference_ordering.py``; the differential tests
compare the two bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field
from operator import mul

from .model import Instance, _is_finite_real


@dataclass
class IterationRecord:
    """One iteration of the right-to-left construction.

    branch is alpha, beta, or fallback when every remaining coflow is
    flowless: the one with the smallest slack is placed and no dual variable
    rises. value is the alpha or beta dual value (0.0 on a fallback step);
    increment is the dual objective contribution. bottleneck_load is the
    selected coflow's load at the bottleneck port and port_load the total
    remaining load there; set_cost is the set-function value priced by a
    beta step (0.0 otherwise). slack is w - delta of the selected coflow at
    selection time and min_slack the minimum slack over all still-unscheduled
    coflows, the selected one included, after the dual update.
    """

    r: int
    coflow: int
    branch: str
    side: str
    port: int
    value: float
    increment: float
    bottleneck_load: int
    port_load: int
    set_cost: float
    slack: float
    min_slack: float


@dataclass
class DualTrace:
    records: list[IterationRecord] = field(default_factory=list)
    delta: dict[int, float] = field(default_factory=dict)

    def record_dicts(self) -> list[dict]:
        return [asdict(rec) for rec in self.records]


@dataclass
class Permutation:
    """Processing order (order[0] is handled first) plus its dual certificate."""

    order: list[int]
    dual_cost: float
    trace: DualTrace


def order_flow_level(instance: Instance, kappa: float = 0.5) -> Permutation:
    """Order coflows with dual increments priced on individual flow sizes."""
    return _permute(instance, kappa, coflow_level=False)


def order_coflow_level(instance: Instance, kappa: float = 0.5) -> Permutation:
    """Order coflows with dual increments priced on per-coflow port loads."""
    return _permute(instance, kappa, coflow_level=True)


def _least_slack(heap: list, slack: list) -> tuple[float, int]:
    """Pop stale entries off the slack heap; return the (slack, coflow) on top.

    Ties take the lowest coflow id.
    """
    while heap[0][0] != slack[heap[0][1]]:
        heapq.heappop(heap)
    return heap[0]


def _require_kappa(kappa: float) -> None:
    """Raise ValueError unless kappa is a positive, finite int or float.

    A bool is no number here, and an int too large for a float counts as
    infinite: the alpha test would overflow on it.
    """
    if not (_is_finite_real(kappa) and kappa > 0):
        raise ValueError(f"kappa must be positive and finite, got {kappa}")


def _permute(instance: Instance, kappa: float, coflow_level: bool) -> Permutation:
    _require_kappa(kappa)
    table = instance.table
    n, m, ports = instance.n, instance.cores, instance.ports
    trace = DualTrace()

    # Per side: the table's port cells; the squares the granularity prices in
    # each cell (squared coflow loads, or squared flow sizes); each port's
    # column {coflow: load} over the unscheduled coflows, ids ascending; and
    # each port's total load and priced squares.
    fi, fj, size, first = table.fi, table.fj, table.size, table.first
    sides = (table.cells_in, table.cells_out)
    priced = [list(map(mul, c.load, c.load)) if coflow_level else c.sq for c in sides]
    cols = ([{} for _ in range(ports + 1)], [{} for _ in range(ports + 1)])
    tots = ([0] * (ports + 1), [0] * (ports + 1))
    sqs = ([0] * (ports + 1), [0] * (ports + 1))
    for cells, sq_c, col_s, tot_s, sq_s in zip(sides, priced, cols, tots, sqs):
        for k in range(1, n + 1):
            lo, hi = cells.first[k - 1], cells.first[k]
            for p, v, q in zip(cells.port[lo:hi], cells.load[lo:hi], sq_c[lo:hi]):
                col_s[p][k] = v
                tot_s[p] += v
                sq_s[p] += q

    weight = [0.0] + [float(c.weight) for c in instance.coflows]
    release = [-1] + [int(c.release) for c in instance.coflows]
    # Latest release first, lowest id first among equals (reverse keeps ties stable).
    by_release = sorted(range(1, n + 1), key=release.__getitem__, reverse=True)
    delta = [0.0] * (n + 1)
    # w - delta of each unscheduled coflow, None once scheduled. The heap holds
    # (slack, coflow) pushed at every change; an entry whose slack is no longer
    # current is stale and popped when it surfaces.
    slack: list[float | None] = weight[:]
    heap = [(slack[k], k) for k in range(1, n + 1)]
    heapq.heapify(heap)
    order = [0] * n
    dual = 0.0
    nxt = 0
    # Each side's busiest total and the lowest port holding it, as of that
    # side's last scan. Totals only fall, so while the held port keeps its
    # total no port can pass it or tie it from a lower id, and the side
    # needs no scan. The -1 makes the first step scan both sides.
    tot_in, tot_out = tots
    best_in = best_out = -1
    port_in = port_out = 1

    for r in range(n, 0, -1):
        while slack[by_release[nxt]] is None:
            nxt += 1
        latest = by_release[nxt]
        if tot_in[port_in] != best_in:
            best_in = max(tot_in)
            port_in = tot_in.index(best_in, 1)
        if tot_out[port_out] != best_out:
            best_out = max(tot_out)
            port_out = tot_out.index(best_out, 1)
        s = 0 if best_in > best_out else 1
        side = ("input", "output")[s]
        port_total = (best_in, best_out)[s]
        port = (port_in, port_out)[s]
        col = cols[s][port]

        if release[latest] > kappa * port_total / m:
            chosen = latest
            branch = "alpha"
            value = slack[chosen]
            if coflow_level:
                head = col.get(chosen, 0)
            else:
                at = (fi, fj)[s]
                head = max(
                    (size[x] for x in range(first[chosen - 1], first[chosen]) if at[x] == port),
                    default=0,
                )
            increment = value * (float(release[chosen]) + head)
            set_cost = 0.0
        elif col:
            branch = "beta"
            chosen, value = 0, math.inf
            for k, load in col.items():
                ratio = slack[k] / load
                if ratio < value:
                    chosen, value = k, ratio
            set_cost = (sqs[s][port] + float(port_total) ** 2) / (2.0 * m)
            increment = value * set_cost
            for k, load in col.items():
                if k != chosen:
                    delta[k] += value * load
                    slack[k] = weight[k] - delta[k]
                    heapq.heappush(heap, (slack[k], k))
        else:
            # Every remaining coflow is empty at the bottleneck port, which
            # only happens when they are all flowless: take the smallest
            # slack, raise nothing.
            branch = "fallback"
            chosen = _least_slack(heap, slack)[1]
            value = increment = set_cost = 0.0

        dual += increment
        order[r - 1] = chosen
        trace.records.append(
            IterationRecord(
                r=r,
                coflow=chosen,
                branch=branch,
                side=side,
                port=port,
                value=value,
                increment=increment,
                bottleneck_load=col.get(chosen, 0),
                port_load=port_total,
                set_cost=set_cost,
                slack=slack[chosen],
                min_slack=_least_slack(heap, slack)[0],
            )
        )

        slack[chosen] = None
        for cells, sq_c, col_s, tot_s, sq_s in zip(sides, priced, cols, tots, sqs):
            lo, hi = cells.first[chosen - 1], cells.first[chosen]
            for p, v, q in zip(cells.port[lo:hi], cells.load[lo:hi], sq_c[lo:hi]):
                del col_s[p][chosen]
                tot_s[p] -= v
                sq_s[p] -= q

    # A placed coflow is in no column, so no later step changes its delta.
    trace.delta = dict(zip(range(1, n + 1), delta[1:]))
    return Permutation(order=order, dual_cost=dual, trace=trace)
