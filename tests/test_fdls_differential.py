"""FDLS on Python lists against the numpy placement it replaced, exactly.

``_reference_fdls.assign_fdls`` keeps the projected port loads in int64
arrays and takes ``np.argmin`` over the cores. The list version must place
every flow on the same core, ties included: the first minimum, so the
lowest core id.
"""

import pytest

from _reference_fdls import assign_fdls as reference_fdls
from coflowsched.model import Coflow, FlowKey, Instance
from coflowsched.ordering import order_flow_level
from coflowsched.scheduling import assign_fdls
from coflowsched.workload import gen_density, gen_mix

CORES = (1, 2, 3, 5, 25)


def assert_same_placement(instance, order):
    got, want = assign_fdls(instance, order), reference_fdls(instance, order)
    assert got.granularity == want.granularity == "flow"
    assert got.flow_to_core == want.flow_to_core
    assert repr(sorted(got.flow_to_core.items())) == repr(sorted(want.flow_to_core.items()))
    return got.flow_to_core


@pytest.mark.parametrize("m", CORES)
def test_generated_instances_match_reference(m):
    for seed in range(3):
        for instance in (
            gen_mix(25, 10, seed, cores=m, release_max=50 * (seed % 2)),
            gen_density(15, 6, "combined", seed, cores=m),
            gen_density(10, 4, "dense", seed, cores=m),
        ):
            perm = order_flow_level(instance, 0.5)
            assert_same_placement(instance, perm)
            assert_same_placement(instance, list(range(instance.n, 0, -1)))


@pytest.mark.parametrize("m", CORES)
def test_equal_sizes_match_reference(m):
    coflows = tuple(
        Coflow(k, 0, 1, {(i, j): 4 for i in range(1, 4) for j in range(1, 4) if (i + j + k) % 2})
        for k in range(1, 7)
    )
    instance = Instance(m, 3, coflows)
    assert_same_placement(instance, list(range(1, 7)))
    assert_same_placement(instance, [4, 2, 6, 1, 5, 3])


def test_flow_tied_on_every_core_lands_on_core_one():
    # (1,1) goes to core 1, (1,2) and then (2,1) to core 2, which leaves input 1
    # plus output 1 at 6 on both cores when coflow 2's (1,1) is placed.
    instance = Instance(
        2, 2, (Coflow(1, 0, 1, {(1, 1): 3, (1, 2): 3, (2, 1): 3}), Coflow(2, 0, 1, {(1, 1): 1}))
    )
    placement = assert_same_placement(instance, [1, 2])
    assert [placement[FlowKey(i, j, 1)] for i, j in ((1, 1), (1, 2), (2, 1))] == [1, 2, 2]
    assert placement[FlowKey(1, 1, 2)] == 1
