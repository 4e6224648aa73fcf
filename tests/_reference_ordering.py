"""The primal-dual ordering as it was before it dropped numpy.

Kept verbatim, apart from reading its dense loads from
``_reference_table.compile_table``, as the reference that
``test_ordering_differential.py`` compares ``coflowsched.ordering`` against:
dense (n + 1) x (ports + 1) int64 aggregates, full-width numpy updates and
an ``np.argmax`` / ``np.argmin`` per step. The rewrite must give the same
order, dual cost, trace records and deltas, bit for bit.
"""

from __future__ import annotations

import numpy as np

from _reference_table import compile_table
from coflowsched.model import Instance
from coflowsched.ordering import DualTrace, IterationRecord, Permutation


def order_flow_level(instance: Instance, kappa: float = 0.5) -> Permutation:
    return _permute(instance, kappa, coflow_level=False)


def order_coflow_level(instance: Instance, kappa: float = 0.5) -> Permutation:
    return _permute(instance, kappa, coflow_level=True)


def _flow_aggregates(table):
    """Per-coflow squared-size sums and largest flow at each port."""
    sq_in = np.zeros_like(table.load_in)
    sq_out = np.zeros_like(sq_in)
    max_in = np.zeros_like(sq_in)
    max_out = np.zeros_like(sq_in)
    if table.keys:
        i, j, k = np.array(table.keys, dtype=np.int64).T
        d = np.array(table.size, dtype=np.int64)
        np.add.at(sq_in, (k, i), d * d)
        np.add.at(sq_out, (k, j), d * d)
        np.maximum.at(max_in, (k, i), d)
        np.maximum.at(max_out, (k, j), d)
    return sq_in, sq_out, max_in, max_out


def _permute(instance: Instance, kappa: float, coflow_level: bool) -> Permutation:
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    dense = compile_table(instance)
    load_in, load_out = dense.load_in, dense.load_out
    n, m = instance.n, instance.cores
    trace = DualTrace()
    if n == 0:
        return Permutation(order=[], dual_cost=0.0, trace=trace)

    sq_in, sq_out, max_in, max_out = _flow_aggregates(dense)
    weights = np.zeros(n + 1)
    releases = np.full(n + 1, -1, dtype=np.int64)
    for c in instance.coflows:
        weights[c.id] = c.weight
        releases[c.id] = c.release

    # Aggregates over the unscheduled set, updated in O(ports) per removal.
    tot_in = load_in.sum(axis=0)
    tot_out = load_out.sum(axis=0)
    flowsq_in = sq_in.sum(axis=0)
    flowsq_out = sq_out.sum(axis=0)
    loadsq_in = (load_in * load_in).sum(axis=0)
    loadsq_out = (load_out * load_out).sum(axis=0)

    delta = np.zeros(n + 1)
    unsched = np.ones(n + 1, dtype=bool)
    unsched[0] = False
    order = [0] * n
    dual = 0.0

    for r in range(n, 0, -1):
        mu1 = int(np.argmax(tot_in[1:])) + 1
        mu2 = int(np.argmax(tot_out[1:])) + 1
        latest = int(np.argmax(np.where(unsched, releases, -1)))
        if tot_in[mu1] > tot_out[mu2]:
            side, port = "input", mu1
            port_total = int(tot_in[mu1])
            loads = load_in[:, mu1]
            flow_sq = int(flowsq_in[mu1])
            load_sq = int(loadsq_in[mu1])
            latest_peak = int(max_in[latest, mu1])
        else:
            side, port = "output", mu2
            port_total = int(tot_out[mu2])
            loads = load_out[:, mu2]
            flow_sq = int(flowsq_out[mu2])
            load_sq = int(loadsq_out[mu2])
            latest_peak = int(max_out[latest, mu2])

        if releases[latest] > kappa * port_total / m:
            chosen = latest
            branch = "alpha"
            value = float(weights[chosen] - delta[chosen])
            head = int(loads[chosen]) if coflow_level else latest_peak
            increment = value * (float(releases[chosen]) + head)
            set_cost = 0.0
        else:
            branch = "beta"
            candidates = unsched & (loads > 0)
            if candidates.any():
                ratios = np.full(n + 1, np.inf)
                ratios[candidates] = (weights[candidates] - delta[candidates]) / loads[
                    candidates
                ]
                chosen = int(np.argmin(ratios))
                value = float(ratios[chosen])
                if coflow_level:
                    set_cost = (load_sq + float(port_total) ** 2) / (2.0 * m)
                else:
                    set_cost = (flow_sq + float(port_total) ** 2) / (2.0 * m)
                increment = value * set_cost
                grow = unsched.copy()
                grow[chosen] = False
                delta[grow] += value * loads[grow]
            else:
                # Every remaining coflow is empty at the bottleneck port,
                # which only happens when they are all flowless: take the
                # smallest slack, raise nothing.
                chosen = int(np.argmin(np.where(unsched, weights - delta, np.inf)))
                value = 0.0
                increment = 0.0
                set_cost = 0.0

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
                bottleneck_load=int(loads[chosen]),
                port_load=port_total,
                set_cost=set_cost,
                slack=float(weights[chosen] - delta[chosen]),
                min_slack=float((weights - delta)[unsched].min()),
            )
        )
        trace.delta[chosen] = float(delta[chosen])

        unsched[chosen] = False
        tot_in -= load_in[chosen]
        tot_out -= load_out[chosen]
        flowsq_in -= sq_in[chosen]
        flowsq_out -= sq_out[chosen]
        loadsq_in -= load_in[chosen] * load_in[chosen]
        loadsq_out -= load_out[chosen] * load_out[chosen]

    trace.delta = {k: trace.delta[k] for k in sorted(trace.delta)}
    return Permutation(order=order, dual_cost=dual, trace=trace)
