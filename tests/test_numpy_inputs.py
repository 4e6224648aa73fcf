"""Instances that hold numpy scalars give the results of their plain twins.

``Instance.table`` is the one place that reads a coflow's numbers: it holds
sizes and releases as ints and weights as floats. So an instance whose ids,
releases and sizes are np.int64 or np.int32 and whose weights are np.int64
must order, place, simulate, audit and bound exactly as the same instance of
plain numbers does, equal under ``==`` and ``repr``: every time, cost and
bound is a plain float. Its JSON text is the plain instance's text.
"""

import random

import numpy as np
import pytest

from coflowsched import oracle, scheduling
from coflowsched.model import Coflow, Instance, dumps_instance, loads_instance
from coflowsched.ordering import order_coflow_level, order_flow_level
from coflowsched.scheduling import BIT_HORIZON, assign_cdls, assign_fdls, audit_schedule, simulate
from coflowsched.workload import gen_density, gen_mix


def leaky():
    """Numpy sizes and a numpy release that once leaked np.float64 into every result."""
    return Instance(
        1,
        2,
        (
            Coflow(1, np.int64(5), 1.0, {(1, 1): np.int64(3), (1, 2): np.int32(2)}),
            Coflow(2, 0, 1.0, {(1, 1): 4}),
        ),
    )


def plain(instance):
    """``instance`` with every id, release, size and weight a Python number."""
    coflows = tuple(
        Coflow(
            int(c.id),
            int(c.release),
            c.weight.item() if isinstance(c.weight, np.generic) else c.weight,
            {key: int(d) for key, d in c.demands.items()},
        )
        for c in instance.coflows
    )
    return Instance(instance.cores, instance.ports, coflows)


def numpy_twin(instance, seed):
    """``instance`` with np.int64 or np.int32 ids, releases and sizes and np.int64 weights.

    Ports stay plain: the table keeps them as given.
    """
    rng = random.Random(seed)

    def np_int(x):
        return rng.choice((np.int64, np.int32))(x)

    coflows = tuple(
        Coflow(
            np_int(c.id),
            np_int(c.release),
            np.int64(c.weight),
            {key: np_int(d) for key, d in c.demands.items()},
        )
        for c in instance.coflows
    )
    return Instance(instance.cores, instance.ports, coflows)


def pairs():
    """(plain, twin) pairs: the leaky instance and seeded generated ones."""
    yield plain(leaky()), numpy_twin(leaky(), 0)
    for seed in range(3):
        for instance in (
            gen_mix(25, 10, seed, cores=5, release_max=30 * (seed % 2)),
            gen_density(6, 3, "sparse", seed, cores=2),
            gen_density(4, 3, "sparse", seed, cores=2),
        ):
            yield instance, numpy_twin(instance, seed)


PAIRS = list(pairs())


def assert_same(a, b):
    assert a == b
    assert repr(a) == repr(b)


def test_twins_hold_numpy_scalars():
    for instance, twin in PAIRS:
        assert instance == twin
        for a, b in zip(instance.coflows, twin.coflows):
            numbers = (b.id, b.release, b.weight, *b.demands.values())
            assert all(isinstance(x, np.integer) for x in numbers)
            assert set(map(type, a.demands.values())) <= {int}


def test_the_table_holds_plain_numbers():
    for instance, twin in PAIRS:
        table = twin.table
        assert set(map(type, table.size + table.release + table.coflow_release)) <= {int}
        assert set(map(type, table.weight)) == {float}
        assert table == instance.table


@pytest.mark.parametrize(
    "order_fn, assign_fn", [(order_flow_level, assign_fdls), (order_coflow_level, assign_cdls)]
)
def test_twins_order_place_simulate_and_audit_alike(order_fn, assign_fn, monkeypatch):
    for instance, twin in PAIRS:
        if twin.table.horizon <= BIT_HORIZON:
            # A short twin takes the bit fill, as its plain instance does.
            monkeypatch.setattr(scheduling, "_list_schedule", None)
        perm, twin_perm = order_fn(instance, 0.5), order_fn(twin, 0.5)
        assert_same(twin_perm, perm)
        assert type(twin_perm.dual_cost) is float
        asg, twin_asg = assign_fn(instance, perm), assign_fn(twin, twin_perm)
        assert_same(twin_asg, asg)
        res = simulate(instance, perm, asg, emit_timeline=True)
        twin_res = simulate(twin, twin_perm, twin_asg, emit_timeline=True)
        assert_same(twin_res, res)
        assert type(twin_res.objective) is float
        assert set(map(type, twin_res.finish)) <= {float}
        assert set(map(type, twin_res.coflow_completion.values())) <= {float}
        assert_same(audit_schedule(twin, twin_perm, twin_asg, twin_res), [])
        monkeypatch.undo()


def test_twins_have_the_same_bounds():
    for instance, twin in PAIRS:
        bound = oracle.trivial_lower_bound(twin)
        assert_same(bound, oracle.trivial_lower_bound(instance))
        assert type(bound) is float


@pytest.mark.parametrize("granularity", ["flow", "coflow"])
def test_twins_have_the_same_oracle_witness(granularity):
    tiny = [(a, b) for a, b in PAIRS if a.n <= 4]
    assert len(tiny) == 4
    for instance, twin in tiny:
        assert_same(
            oracle.enumerate_best(twin, granularity), oracle.enumerate_best(instance, granularity)
        )


def test_the_leaky_instance_gives_plain_floats():
    for instance in (leaky(), plain(leaky())):
        perm = order_flow_level(instance, 0.5)
        res = simulate(instance, perm, assign_fdls(instance, perm))
        assert repr((perm.dual_cost, res.objective)) == "(12.0, 14.0)"
        assert repr(res.coflow_completion) == "{1: 10.0, 2: 4.0}"
        assert repr(oracle.trivial_lower_bound(instance)) == "12.0"


def test_numpy_scalars_are_written_as_the_numbers_they_hold():
    for _, twin in PAIRS:
        text = dumps_instance(twin)
        assert text == dumps_instance(plain(twin))
        back = loads_instance(text)
        assert back == twin
        assert dumps_instance(back) == text
