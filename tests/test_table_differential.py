"""``Instance.table`` against the per-flow compile it replaced, field by field.

``_reference_table.compile_table`` builds each ``FlowKey`` with a call per
flow and feeds ``np.add.at`` from ``np.array(keys)``. The flat-column
compile must give the same ports, row bounds and keys, equal under ``==``
and under ``repr`` (so a ``FlowKey`` and a plain tuple, or an ``np.int64``
and an ``int``, count as different): ports stay as the instance gives them.
Sizes and releases must equal the reference's values as plain ints, and
each coflow's weight and release columns must be ``float(c.weight)`` and
``int(c.release)``. Its port cells must be the nonzero cells of the
reference's dense loads, in (coflow, port) order, with the squared sizes
that ``np.add.at`` sums into the same cells.
"""

import dataclasses

import numpy as np
import pytest

from _reference_table import compile_table
from coflowsched.model import MAX_PORT_TOTAL, Coflow, FlowKey, Instance, PortCells
from coflowsched.workload import gen_density, gen_mix


def reference_cells(want, loads, ports):
    """One side's ``PortCells`` from the reference's dense ``loads``."""
    ks, ps = loads.nonzero()
    sq = np.zeros_like(loads)
    if want.keys:
        d = np.array(want.size, dtype=np.int64)
        np.add.at(sq, (np.array([key.k for key in want.keys]), np.array(ports)), d * d)
    assert np.array_equal(sq.nonzero()[0], ks) and np.array_equal(sq.nonzero()[1], ps)
    first = np.searchsorted(ks, np.arange(1, len(loads) + 1)).tolist()
    return PortCells(first, ps.tolist(), loads[ks, ps].tolist(), sq[ks, ps].tolist())


def assert_same_repr(a, b, name):
    assert a == b and repr(a) == repr(b), name


def assert_same_table(instance):
    got, want = instance.table, compile_table(instance)
    names = {field.name for field in dataclasses.fields(got)}
    columns = {"fi", "fj", "first", "size", "release", "weight", "coflow_release"}
    assert names == columns | {"cells_in", "cells_out"}
    for name in ("fi", "fj", "first"):
        assert_same_repr(getattr(got, name), getattr(want, name), name)
    assert_same_repr(got.keys, want.keys, "keys")
    assert all(type(key) is FlowKey for key in got.keys)
    for name in ("size", "release"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is list and set(map(type, a)) <= {int}, name
        assert a == b, name
    coflows = instance.coflows
    assert_same_repr(got.weight, [0.0, *(float(c.weight) for c in coflows)], "weight")
    assert_same_repr(got.coflow_release, [0, *(int(c.release) for c in coflows)], "release")
    for cells, loads, ports in (
        (got.cells_in, want.load_in, want.fi),
        (got.cells_out, want.load_out, want.fj),
    ):
        ref = reference_cells(want, loads, ports)
        assert cells == ref and repr(cells) == repr(ref)


def hand_built():
    """Demands inserted out of (i, j) order, with numpy ports, sizes, releases and weights."""
    i64 = np.int64
    return Instance(
        cores=2,
        ports=4,
        coflows=(
            Coflow(1, 3, 2, {(3, 1): i64(5), (1, 4): 2, (i64(1), i64(2)): i64(7), (2, 2): 1}),
            Coflow(2, np.int32(6), i64(1), {}),
            Coflow(3, i64(9), np.float32(4.5), {(4, 4): 3, (1, 1): i64(1)}),
        ),
    )


def test_hand_built_instance_matches_reference():
    instance = hand_built()
    assert_same_table(instance)
    table = instance.table
    assert table.first == [0, 4, 4, 6]
    assert repr(table.size) == "[7, 2, 1, 5, 1, 3]"
    assert repr(table.release) == "[3, 3, 3, 3, 9, 9]"
    assert repr((table.weight, table.coflow_release)) == "([0.0, 2.0, 1.0, 4.5], [0, 3, 6, 9])"


def test_empty_instances_match_reference():
    assert_same_table(Instance(1, 3, ()))
    assert_same_table(Instance(1, 3, (Coflow(1, 0, 1, {}), Coflow(2, 5, 1, {}))))


@pytest.mark.parametrize("seed", range(4))
def test_generated_instances_match_reference(seed):
    assert_same_table(gen_mix(25, 10, seed, cores=5, release_max=30 * (seed % 2)))
    assert_same_table(gen_mix(60, 20, seed))
    for mode in ("dense", "sparse", "combined"):
        assert_same_table(gen_density(15, 6, mode, seed))


def test_sizes_at_port_total_limit_match_reference():
    # Every port carries MAX_PORT_TOTAL, so the squares summed over all cells
    # pass 2**63, while each cell's own sum stays below it.
    i64 = np.int64
    big, half = MAX_PORT_TOTAL, MAX_PORT_TOTAL // 2
    instance = Instance(
        2,
        3,
        (
            Coflow(1, 0, 1, {(1, 1): i64(big), (2, 2): half}),
            Coflow(2, 0, 1, {(2, 3): i64(big - half), (3, 2): big - half}),
            Coflow(3, 0, 1, {(3, 3): i64(half)}),
        ),
    )
    assert_same_table(instance)
    assert sum(instance.table.cells_in.sq) > 2**63
