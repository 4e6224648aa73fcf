"""The port bit-set fill against the run-list fill, and which one runs.

``_fill_bits`` keeps each port's busy time as the bits of one int and
``_list_schedule`` as a sorted list of busy runs. Given the same core they
must return equal finish lists and extend ``segs`` with equal pieces,
compared with ``==`` and with ``repr`` (float times, int rows). ``simulate``
and ``oracle._run_core`` take the bit fill when the table's horizon is at
most ``BIT_HORIZON``, whatever numeric types the instance holds.

The flow-level list order is sorted once per table, in
``FlowTable.flow_order``; ``_priority_rows`` concatenates its blocks and
must equal the per-call sort it replaced.
"""

import random

import numpy as np
import pytest

from coflowsched import oracle, scheduling
from coflowsched.model import Coflow, Instance
from coflowsched.ordering import order_coflow_level, order_flow_level
from coflowsched.scheduling import (
    BIT_HORIZON,
    _fill_bits,
    _list_schedule,
    _priority_rows,
    assign_cdls,
    assign_fdls,
    simulate,
)
from coflowsched.workload import gen_density, gen_mix


STAGES = ((order_flow_level, assign_fdls), (order_coflow_level, assign_cdls))


def random_core(rng):
    """A core of 1-20 flows on 1-4 ports per side, sizes 1-50, releases 0-100."""
    flows = rng.randint(1, 20)
    ports = rng.randint(1, 4)
    key_in = [rng.randint(1, ports) for _ in range(flows)]
    key_out = [rng.randint(1, ports) for _ in range(flows)]
    sizes = [rng.randint(1, 50) for _ in range(flows)]
    rel = [rng.randint(0, 100) for _ in range(flows)]
    return rng.sample(range(flows), flows), key_in, key_out, sizes, rel


def assert_same_fill(ranked, key_in, key_out, sizes, rel):
    for segs_bits, segs_runs in ((None, None), ([], [])):
        got = _fill_bits(ranked, key_in, key_out, sizes, rel, segs_bits)
        want = _list_schedule(ranked, key_in, key_out, sizes, rel, segs_runs)
        assert got == want
        assert repr(got) == repr(want)
        assert segs_bits == segs_runs
        assert repr(segs_bits) == repr(segs_runs)


def test_fills_agree_on_random_cores():
    rng = random.Random(30)
    for _ in range(2_000):
        assert_same_fill(*random_core(rng))


def horizon_core(horizon):
    """Six flows on one port pair, released at 0 and 7, of total size ``horizon`` - 7."""
    sizes = [100, 1, 50, horizon - 7 - 351, 100, 100]
    rel = [7, 0, 7, 0, 7, 0]
    return [1, 0, 3, 2, 5, 4], [1] * 6, [1] * 6, sizes, rel


@pytest.mark.parametrize("horizon", [BIT_HORIZON, BIT_HORIZON + 1])
def test_fills_agree_at_the_horizon_limit(horizon):
    core = horizon_core(horizon)
    _, _, _, sizes, rel = core
    assert max(rel) + sum(sizes) == horizon
    assert_same_fill(*core)
    # A flow is released at 0, so the port is never idle: the last piece
    # ends when the total size is sent, and the flows ranked first preempt
    # the ones released at 0.
    segs: list = []
    _fill_bits(*core, segs)
    assert max(segs[1::3]) == float(horizon - 7)
    assert len(segs) > 3 * 6


def one_core_instance(horizon):
    """Two coflows on one core whose latest release plus total size is ``horizon``."""
    size = horizon - 3
    return Instance(1, 2, (Coflow(1, 3, 1, {(1, 1): 1, (2, 1): size - 1}), Coflow(2, 0, 2, {})))


@pytest.fixture
def counted(monkeypatch):
    """Calls of each fill, by name, through ``simulate`` and ``oracle._run_core``."""
    calls = {"bits": 0, "runs": 0}

    def wrap(name, fill):
        def counting(*args):
            calls[name] += 1
            return fill(*args)

        return counting

    monkeypatch.setattr(scheduling, "_fill_bits", wrap("bits", _fill_bits))
    monkeypatch.setattr(scheduling, "_list_schedule", wrap("runs", _list_schedule))
    return calls


def random_instance(rng):
    """1-6 coflows of 0-4 flows on 1-4 ports and 1-3 cores, sizes 1-15, releases 0-100.

    Its horizon is at most 100 + 6 x 4 x 15 = 460, below ``BIT_HORIZON``.
    """
    ports = rng.randint(1, 4)
    coflows = []
    for k in range(1, rng.randint(1, 6) + 1):
        demands = {}
        for _ in range(rng.randint(0, 4)):
            demands[rng.randint(1, ports), rng.randint(1, ports)] = rng.randint(1, 15)
        coflows.append(Coflow(k, rng.randint(0, 100), rng.randint(1, 9), demands))
    return Instance(rng.randint(1, 3), ports, tuple(coflows))


def selection_instances():
    yield one_core_instance(BIT_HORIZON)
    yield one_core_instance(BIT_HORIZON + 1)
    yield gen_density(6, 3, "sparse", 0, cores=2)
    yield gen_mix(25, 10, 0, cores=5)
    # The table holds an np.int64 size as an int, so the horizon alone picks the fill.
    yield Instance(1, 1, (Coflow(1, 0, 1, {(1, 1): np.int64(3)}),))


def test_simulate_takes_the_bit_fill_iff_the_horizon_is_short(counted):
    seen = set()
    for instance in selection_instances():
        table = instance.table
        bits = table.horizon <= BIT_HORIZON
        seen.add(bits)
        for order_fn, assign_fn in STAGES:
            perm = order_fn(instance, 0.5)
            assignment = assign_fn(instance, perm)
            counted.update(bits=0, runs=0)
            simulate(instance, perm, assignment, emit_timeline=True)
            assert counted == ({"bits": 1, "runs": 0} if bits else {"bits": 0, "runs": 1})
    assert seen == {True, False}


def test_oracle_takes_the_bit_fill_iff_the_horizon_is_short(counted):
    for instance, bits in (
        (one_core_instance(BIT_HORIZON), True),
        (one_core_instance(BIT_HORIZON + 1), False),
        (gen_density(4, 3, "sparse", 1, cores=2), True),
    ):
        assert (instance.table.horizon <= BIT_HORIZON) is bits
        counted.update(bits=0, runs=0)
        oracle.enumerate_best(instance, "flow")
        runs = counted["bits"] + counted["runs"]
        assert runs > 0
        assert counted == ({"bits": runs, "runs": 0} if bits else {"bits": 0, "runs": runs})


def test_both_fills_give_the_same_results_through_simulate(monkeypatch):
    rng = random.Random(3)
    for _ in range(60):
        instance = random_instance(rng)
        assert instance.table.horizon <= BIT_HORIZON
        order = rng.sample(range(1, instance.n + 1), instance.n)
        for assignment in (assign_fdls(instance, order), assign_cdls(instance, order)):
            bits = simulate(instance, order, assignment, emit_timeline=True)
            with monkeypatch.context() as mp:
                mp.setattr(scheduling, "BIT_HORIZON", 0)
                runs = simulate(instance, order, assignment, emit_timeline=True)
            assert bits == runs
            assert repr(bits) == repr(runs)


def old_priority_rows(table, seq, granularity):
    """The per-call sort that ``FlowTable.flow_order`` replaced."""
    first, size = table.first, table.size
    rows = []
    for k in seq:
        own = range(first[k - 1], first[k])
        if granularity == "flow":
            own = sorted(own, key=size.__getitem__, reverse=True)
        rows.extend(own)
    return rows


def tied_instances():
    # Equal sizes within a coflow, and flowless coflows first, between and last.
    yield Instance(
        2,
        3,
        (
            Coflow(1, 0, 1, {}),
            Coflow(2, 0, 1, {(3, 1): 4, (1, 2): 4, (2, 2): 7, (1, 1): 4}),
            Coflow(3, 2, 1, {}),
            Coflow(4, 0, 2, {(2, 3): 1, (3, 3): 1, (1, 3): 2}),
            Coflow(5, 1, 1, {}),
        ),
    )
    for seed in range(4):
        yield gen_mix(12, 5, seed, cores=3)


@pytest.mark.parametrize("granularity", ["flow", "coflow"])
def test_priority_rows_match_the_per_call_sort(granularity):
    rng = random.Random(17)
    for instance in tied_instances():
        n = instance.n
        for _ in range(5):
            seq = rng.sample(range(1, n + 1), n)
            want = old_priority_rows(instance.table, seq, granularity)
            assert _priority_rows(instance.table, seq, granularity) == want
            # An order of np.int64 ids reads the same blocks.
            assert _priority_rows(instance.table, list(np.array(seq)), granularity) == want


def test_fdls_walks_the_blocks_without_the_row_list(monkeypatch):
    instance = gen_mix(12, 5, 2, cores=3)
    order = order_flow_level(instance, 0.5)
    want = assign_fdls(instance, order)

    def forbidden(*args):
        raise AssertionError("assign_fdls built the list of all rows")

    monkeypatch.setattr(scheduling, "_priority_rows", forbidden)
    assert assign_fdls(instance, order) == want


def test_flow_order_is_built_once_per_table():
    instance = gen_mix(6, 4, 0, cores=2)
    table = instance.table
    assert "flow_order" not in vars(table)
    blocks = table.flow_order
    assert blocks[0] == ()
    assert len(blocks) == instance.n + 1
    assign_fdls(instance, order_flow_level(instance, 0.5))
    assert table.flow_order is blocks

