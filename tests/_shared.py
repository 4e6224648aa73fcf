"""Helpers shared by scheduling and acceptance tests.

Per-coflow completion caps that the greedy list schedules must satisfy.
Both caps walk the processing order, accumulate per-port prefix loads, and
bound each coflow by the worst cap over its own flows: a flow is delayed
only by same-or-higher-priority traffic on its two ports, so its completion
is at most the release ceiling plus the prefix load on those ports (spread
over m cores under split placement, all on one core under whole-coflow
placement), minus the double-counted share of its own transmission.
"""

import numpy as np


def _prefix_walk(instance, order):
    """Yield (coflow, cumulative in/out port loads, release ceiling)."""
    table = instance.table
    cum_in = np.zeros(instance.ports + 1, dtype=np.int64)
    cum_out = np.zeros(instance.ports + 1, dtype=np.int64)
    max_r = 0
    for k in order:
        c = instance.coflow(k)
        cum_in += table.load_in[k]
        cum_out += table.load_out[k]
        max_r = max(max_r, c.release)
        yield c, cum_in, cum_out, max_r


def fdls_bound(instance, order, completions, tol=1e-9):
    """Caps for split placement.

    C_k <= a*max_release + max over flows (i, j, d) of coflow k of
    (prefix_in[i] + prefix_out[j]) / m + (1 - 2/m) * d. Returns violation
    descriptions, empty when every completion respects its cap.
    """
    a = 1 if any(c.release > 0 for c in instance.coflows) else 0
    m = instance.cores
    bad = []
    for c, cum_in, cum_out, max_r in _prefix_walk(instance, order):
        cap = max(
            (
                (int(cum_in[i]) + int(cum_out[j])) / m + (1 - 2 / m) * d
                for (i, j), d in c.demands.items()
            ),
            default=0.0,
        )
        bound = a * max_r + cap
        if completions[c.id] > bound + tol:
            bad.append(f"coflow {c.id}: C={completions[c.id]} > {bound}")
    return bad


def cdls_bound(instance, order, completions, tol=1e-9):
    """Caps for whole-coflow placement.

    C_k <= a*max_release + max over flows (i, j, d) of coflow k of
    prefix_in[i] + prefix_out[j] - d: in the worst case the entire prefix
    shares the coflow's core, and the flow's own size is counted on both
    ports. Returns violation descriptions.
    """
    a = 1 if any(c.release > 0 for c in instance.coflows) else 0
    bad = []
    for c, cum_in, cum_out, max_r in _prefix_walk(instance, order):
        cap = max(
            (int(cum_in[i]) + int(cum_out[j]) - d for (i, j), d in c.demands.items()),
            default=0,
        )
        bound = a * max_r + cap
        if completions[c.id] > bound + tol:
            bad.append(f"coflow {c.id}: C={completions[c.id]} > {bound}")
    return bad
