"""FDLS placement as it was before it kept its loads in Python lists.

Kept verbatim as the reference that ``test_fdls_differential.py`` compares
``coflowsched.scheduling.assign_fdls`` against: per-port projected loads in
two int64 arrays, one ``np.argmin`` over the m cores per flow.
"""

from __future__ import annotations

import numpy as np

from coflowsched.model import FlowKey, Instance
from coflowsched.scheduling import Assignment, _order_list


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
    keys, size, fi, fj = table.keys, table.size, table.fi, table.fj
    for k in seq:
        flows = range(table.first[k - 1], table.first[k])
        for idx in sorted(flows, key=lambda x: -size[x]):
            i, j = fi[idx], fj[idx]
            h = int(np.argmin(load_in[i, 1:] + load_out[j, 1:])) + 1
            placement[keys[idx]] = h
            load_in[i, h] += size[idx]
            load_out[j, h] += size[idx]
    return Assignment("flow", placement, None)
