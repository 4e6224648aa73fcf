"""CDLS against the numpy placement in ``_reference_cdls``, exactly.

``_reference_cdls.assign_cdls`` keeps the projected port loads in two dense
int64 arrays and takes ``np.argmin`` over the cores of each coflow's worst
input plus worst output load. ``assign_cdls`` must put every coflow, and so
every flow, on the same core, ties included: the first minimum, so the
lowest core id. Each coflow's core is read from ``flow_to_core`` and
compared with the core the reference chose for it. A flowless coflow, which
the reference puts on core 1, places no flow, so it has no core there and
adds no load.
"""

import pytest

from _reference_cdls import assign_cdls as reference_cdls
from coflowsched.model import MAX_PORT_TOTAL, Coflow, Instance
from coflowsched.ordering import order_coflow_level
from coflowsched.scheduling import assign_cdls
from coflowsched.workload import gen_density, gen_mix

CORES = (1, 2, 5, 16)


def assert_same_placement(instance, order):
    got = assign_cdls(instance, order)
    want, want_core = reference_cdls(instance, order)
    assert got.granularity == want.granularity == "coflow"
    assert got.flow_to_core == want.flow_to_core
    assert repr(sorted(got.flow_to_core.items())) == repr(sorted(want.flow_to_core.items()))
    core = {key.k: h for key, h in got.flow_to_core.items()}
    assert core == {k: h for k, h in want_core.items() if k in core}
    return core


def with_flowless(instance):
    """``instance`` with a flowless coflow before every third coflow and at the end."""
    coflows = []
    for c in instance.coflows:
        if c.id % 3 == 1:
            coflows.append(Coflow(len(coflows) + 1, c.id % 5, 2, {}))
        coflows.append(Coflow(len(coflows) + 1, c.release, c.weight, c.demands))
    coflows.append(Coflow(len(coflows) + 1, 0, 1, {}))
    return Instance(instance.cores, instance.ports, tuple(coflows))


def corpus(m):
    for seed in range(3):
        yield gen_mix(25, 10, seed, cores=m, release_max=50 * (seed % 2))
        yield gen_density(15, 6, "combined", seed, cores=m)
        yield gen_density(10, 4, "dense", seed, cores=m)
        yield gen_density(20, 8, "sparse", seed, cores=m)
    yield with_flowless(gen_mix(12, 6, 7, cores=m))


@pytest.mark.parametrize("m", CORES)
def test_generated_instances_match_reference(m):
    for instance in corpus(m):
        perm = order_coflow_level(instance, 0.5)
        assert_same_placement(instance, perm)
        assert_same_placement(instance, list(range(instance.n, 0, -1)))


@pytest.mark.parametrize("m", CORES)
def test_coflow_tied_on_every_core_lands_on_core_one(m):
    # m equal coflows fill one core each; the next one ties on all m cores.
    instance = Instance(m, 2, tuple(Coflow(k, 0, 1, {(1, 1): 2}) for k in range(1, m + 2)))
    placed = assert_same_placement(instance, list(range(1, m + 2)))
    assert placed == {k: (k - 1) % m + 1 for k in range(1, m + 2)}


@pytest.mark.parametrize("m", CORES)
def test_flowless_coflows_land_on_core_one(m):
    instance = Instance(
        m,
        3,
        (
            Coflow(1, 0, 1, {}),
            Coflow(2, 4, 1, {(1, 2): 3, (2, 2): 1}),
            Coflow(3, 0, 2, {}),
            Coflow(4, 0, 1, {(1, 1): 5}),
        ),
    )
    for order in ([1, 2, 3, 4], [2, 4, 3, 1], [4, 3, 2, 1]):
        placed = assert_same_placement(instance, order)
        assert sorted(placed) == [2, 4]


@pytest.mark.parametrize("m", CORES)
def test_sizes_at_port_total_limit_match_reference(m):
    half = MAX_PORT_TOTAL // 2
    instance = Instance(
        m,
        4,
        (
            Coflow(1, 0, 1, {(1, 1): MAX_PORT_TOTAL}),
            Coflow(2, 0, 1, {(2, 2): half, (3, 3): MAX_PORT_TOTAL}),
            Coflow(3, 0, 1, {(2, 4): MAX_PORT_TOTAL - half}),
            Coflow(4, 0, 1, {(4, 2): MAX_PORT_TOTAL - half, (4, 4): half}),
        ),
    )
    for order in ([1, 2, 3, 4], [4, 3, 2, 1], [2, 4, 1, 3]):
        assert_same_placement(instance, order)
