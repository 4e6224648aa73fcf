"""``Instance.table`` against the per-flow compile it replaced, field by field.

``_reference_table.compile_table`` builds each ``FlowKey`` with a call per
flow and feeds ``np.add.at`` from ``np.array(keys)``. The flat-column
compile must give the same ``FlowTable``: list fields equal under ``==``
and under ``repr`` (so a ``FlowKey`` and a plain tuple, or an ``np.int64``
and an ``int``, count as different), array fields equal in shape, dtype and
value.
"""

import dataclasses

import numpy as np
import pytest

from _reference_table import compile_table
from coflowsched.model import Coflow, FlowKey, Instance
from coflowsched.workload import gen_density, gen_mix


def assert_same_table(instance):
    got, want = instance.table, compile_table(instance)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b and repr(a) == repr(b), field.name
    assert all(type(key) is FlowKey for key in got.keys)


def hand_built():
    """Demands inserted out of (i, j) order, with np.int64 ports and sizes."""
    i64 = np.int64
    return Instance(
        cores=2,
        ports=4,
        coflows=(
            Coflow(1, 3, 2, {(3, 1): i64(5), (1, 4): 2, (i64(1), i64(2)): i64(7), (2, 2): 1}),
            Coflow(2, 0, 1, {}),
            Coflow(3, 9, 4, {(4, 4): 3, (1, 1): i64(1)}),
        ),
    )


def test_hand_built_instance_matches_reference():
    instance = hand_built()
    assert_same_table(instance)
    assert instance.table.first == [0, 4, 4, 6]


def test_empty_instances_match_reference():
    assert_same_table(Instance(1, 3, ()))
    assert_same_table(Instance(1, 3, (Coflow(1, 0, 1, {}), Coflow(2, 5, 1, {}))))


@pytest.mark.parametrize("seed", range(4))
def test_generated_instances_match_reference(seed):
    assert_same_table(gen_mix(25, 10, seed, cores=5, release_max=30 * (seed % 2)))
    assert_same_table(gen_mix(60, 20, seed))
    for mode in ("dense", "sparse", "combined"):
        assert_same_table(gen_density(15, 6, mode, seed))
