"""The flow-table compile as it was before it read flat columns.

Kept verbatim, apart from ``self`` becoming ``instance``, as the reference
that ``test_table_differential.py`` compares ``Instance.table`` against: it
builds each ``FlowKey`` with a call per flow and feeds ``np.add.at`` from
``np.array(keys)``. Every ``FlowTable`` field must match, dtypes included.
"""

from __future__ import annotations

import numpy as np

from coflowsched.model import FlowKey, FlowTable, Instance, require_valid


def compile_table(instance: Instance) -> FlowTable:
    """The validated, compiled flow table of ``instance``."""
    require_valid(instance)
    keys: list[FlowKey] = []
    fi: list[int] = []
    fj: list[int] = []
    size: list[int] = []
    release: list[int] = []
    first = [0]
    for c in instance.coflows:
        for i, j, d in c.flows():
            keys.append(FlowKey(i, j, c.id))
            fi.append(i)
            fj.append(j)
            size.append(d)
            release.append(c.release)
        first.append(len(keys))
    load_in = np.zeros((instance.n + 1, instance.ports + 1), dtype=np.int64)
    load_out = np.zeros_like(load_in)
    if keys:
        i, j, k = np.array(keys, dtype=np.int64).T
        d = np.array(size, dtype=np.int64)
        np.add.at(load_in, (k, i), d)
        np.add.at(load_out, (k, j), d)
    return FlowTable(keys, fi, fj, size, release, first, load_in, load_out)
