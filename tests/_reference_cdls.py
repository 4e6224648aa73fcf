"""CDLS placement as it was before it kept its loads in Python lists.

Kept verbatim, apart from reading each coflow's dense load rows from
``_reference_table.compile_table`` and returning each coflow's core beside
the placement, as the reference that
``test_cdls_differential.py`` compares ``coflowsched.scheduling.assign_cdls``
against: per-port projected loads in two (ports + 1) x (m + 1) int64 arrays,
and per coflow a max over its used ports and one ``np.argmin`` over the m
cores.
"""

from __future__ import annotations

import numpy as np

from _reference_table import compile_table
from coflowsched.model import FlowKey, Instance
from coflowsched.scheduling import Assignment, _order_list


def assign_cdls(instance: Instance, order) -> tuple[Assignment, dict[int, int]]:
    """Place each coflow whole on one core; return the placement and each coflow's core.

    The score of core h for coflow k is the worst projected input-port load
    plus the worst projected output-port load after adding k's own loads,
    taken only over ports where k actually has traffic. Empty coflows score
    the same everywhere and land on core 1.
    """
    table = compile_table(instance)
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
    return Assignment.of_flows(instance, "coflow", placement), coflow_core
