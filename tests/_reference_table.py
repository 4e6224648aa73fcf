"""The flow-table compile as it was before it read flat columns.

Kept verbatim, apart from ``self`` becoming ``instance`` and the result
type, as the reference that ``test_table_differential.py`` compares
``Instance.table`` against: it builds each ``FlowKey`` with a call per flow
and feeds ``np.add.at`` from ``np.array(keys)``. ``DenseTable`` keeps the
dense per-coflow port loads that ``FlowTable`` replaced with sparse cells,
so the other references read their rows from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coflowsched.model import FlowKey, Instance, require_valid


@dataclass(frozen=True)
class DenseTable:
    """``FlowTable``'s flow columns plus the dense loads.

    ``load_in[k, i]`` and ``load_out[k, j]`` are coflow k's total size at a
    port; row 0 and column 0 are unused, so 1-based ids index directly.
    """

    keys: list[FlowKey]
    fi: list[int]
    fj: list[int]
    size: list[int]
    release: list[int]
    first: list[int]
    load_in: np.ndarray
    load_out: np.ndarray


def compile_table(instance: Instance) -> DenseTable:
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
    return DenseTable(keys, fi, fj, size, release, first, load_in, load_out)
