"""Domain types, the compiled flow table, validation, and the instance JSON format."""

import re

import numpy as np
import pytest

from coflowsched import model
from coflowsched.experiments import run_pipeline
from coflowsched.model import (
    Coflow,
    FlowKey,
    MAX_CORES,
    MAX_FLOWS,
    MAX_HORIZON,
    MAX_PORT_TOTAL,
    MAX_PORTS,
    MAX_TABLE_CELLS,
    Instance,
    PortCells,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    require_valid,
    validate,
)


def make(cores=1, ports=2, coflows=()):
    return Instance(cores=cores, ports=ports, coflows=tuple(coflows))


def test_flowkey_fields():
    key = FlowKey(2, 3, 1)
    assert (key.i, key.j, key.k) == (2, 3, 1)


def test_coflow_accessors():
    c = Coflow(id=1, release=0, weight=2, demands={(1, 2): 3, (1, 1): 5})
    assert c.flow_count == 2
    # flows() is the canonical (i, j) ordering used by serialization
    assert c.flows() == [(1, 1, 5), (1, 2, 3)]


def load_row(cells, k):
    """Coflow k's {port: load} from one side's cells; absent ports carry 0."""
    lo, hi = cells.first[k - 1], cells.first[k]
    return dict(zip(cells.port[lo:hi], cells.load[lo:hi]))


def cell_load(cells, k, port):
    return load_row(cells, k).get(port, 0)


def test_empty_instance_loads_are_zero():
    table = make().table
    assert table.keys == [] and table.first == [0]
    assert table.cells_in == table.cells_out == PortCells([0], [], [], [])
    assert sum(table.cells_in.load) == 0
    assert sum(table.cells_out.load) == 0


def test_single_flow_loads():
    inst = make(coflows=[Coflow(id=1, release=3, weight=1, demands={(1, 1): 4})])
    table = inst.table
    assert cell_load(table.cells_in, 1, 1) == 4
    assert cell_load(table.cells_out, 1, 1) == 4
    assert table.cells_in == table.cells_out == PortCells([0, 1], [1], [4], [16])
    assert (table.size, table.release, table.first) == ([4], [3], [0, 1])


def test_two_flow_loads():
    inst = make(coflows=[Coflow(id=1, release=0, weight=1, demands={(1, 1): 2, (1, 2): 3})])
    table = inst.table
    assert cell_load(table.cells_in, 1, 1) == 5
    assert cell_load(table.cells_out, 1, 1) == 2
    assert cell_load(table.cells_out, 1, 2) == 3
    assert table.cells_in == PortCells([0, 1], [1], [5], [13])
    assert table.cells_out == PortCells([0, 2], [1, 2], [2, 3], [4, 9])


def test_load_consistency_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        ports = int(rng.integers(1, 6))
        coflows = []
        total = 0
        for k in range(1, n + 1):
            demands = {}
            for _ in range(int(rng.integers(0, 5))):
                pair = (int(rng.integers(1, ports + 1)), int(rng.integers(1, ports + 1)))
                demands[pair] = int(rng.integers(1, 50))
            total += sum(demands.values())
            coflows.append(Coflow(id=k, release=0, weight=1, demands=demands))
        table = make(ports=ports, coflows=coflows).table
        assert sum(table.cells_in.load) == sum(table.cells_out.load) == total == sum(table.size)
        # each coflow's cells sum to its own demand, in its own key slice
        for c in coflows:
            own = slice(table.first[c.id - 1], table.first[c.id])
            assert sum(load_row(table.cells_in, c.id).values()) == sum(c.demands.values())
            assert sum(load_row(table.cells_out, c.id).values()) == sum(table.size[own])
            assert table.keys[own] == [FlowKey(i, j, c.id) for i, j, _ in c.flows()]
        assert table.first[-1] == len(table.keys)


def test_validate_ok():
    inst = make(coflows=[Coflow(id=1, release=0, weight=1, demands={(1, 1): 1})])
    assert validate(inst) == []
    require_valid(inst)


def test_validate_zero_demand():
    inst = make(coflows=[Coflow(id=1, release=0, weight=1, demands={(1, 1): 0})])
    problems = validate(inst)
    assert any("zero demand must be absent" in p for p in problems)


def test_validate_port_out_of_range():
    inst = make(ports=2, coflows=[Coflow(id=1, release=0, weight=1, demands={(1, 3): 1})])
    problems = validate(inst)
    assert any("port out of range" in p for p in problems)


@pytest.mark.parametrize("key", [(1, 2, 3), (1,), 5])
def test_validate_reports_a_demand_key_that_is_not_a_pair(key):
    # A key that is not an (i, j) pair is a violation like any other, and
    # the next flow is still checked.
    inst = make(ports=3, coflows=[Coflow(id=1, release=0, weight=1, demands={key: 5, (1, 2): 0})])
    assert validate(inst) == [
        f"coflow 1 flow {key!r}: demand key must be an (i, j) port pair",
        "coflow 1 flow (1,2): zero demand must be absent",
    ]
    with pytest.raises(ValueError, match="invalid instance"):
        inst.table


@pytest.mark.parametrize(
    "demands, shown", [(None, "NoneType"), ([((1, 1), 4)], "list")], ids=["none", "list"]
)
def test_validate_reports_demands_that_are_no_dict(demands, shown):
    # Such a coflow's flows are not counted, and the other coflows' flows
    # are still checked.
    inst = make(
        ports=2,
        coflows=[
            Coflow(id=1, release=0, weight=1, demands=demands),
            Coflow(id=2, release=0, weight=1, demands={(1, 3): 1}),
        ],
    )
    assert validate(inst) == [
        f"coflow 1: demands must be a dict, got {shown}",
        "coflow 2 flow (1,3): port out of range 1..2",
    ]
    with pytest.raises(ValueError, match="invalid instance"):
        inst.table


def test_validate_id_gap():
    inst = make(coflows=[Coflow(id=2, release=0, weight=1, demands={(1, 1): 1})])
    assert any("ids must be 1..n" in p for p in validate(inst))


def test_validate_bad_scalars():
    inst = make(
        cores=0,
        coflows=[Coflow(id=1, release=-1, weight=0, demands={(1, 1): 2.5})],
    )
    problems = "; ".join(validate(inst))
    assert "cores must be a positive integer" in problems
    assert "release must be a nonnegative integer" in problems
    assert "weight must be positive" in problems
    assert "size must be an integer" in problems


def test_validate_accepts_the_stated_limits():
    inst = make(
        coflows=[
            Coflow(id=1, release=0, weight=1, demands={(1, 1): MAX_PORT_TOTAL}),
            Coflow(id=2, release=MAX_HORIZON - 2 * MAX_PORT_TOTAL, weight=1,
                   demands={(2, 2): MAX_PORT_TOTAL}),
        ]
    )
    assert validate(inst) == []
    for granularity in ("flow", "coflow"):
        out = run_pipeline(inst, granularity, 0.5)
        assert out.dual_cost <= out.objective


def test_port_and_core_limits():
    top = Coflow(id=1, release=0, weight=1, demands={(MAX_PORTS, 1): 3})
    inst = make(cores=MAX_CORES, ports=MAX_PORTS, coflows=[top])
    assert validate(inst) == []
    for granularity in ("flow", "coflow"):
        assert run_pipeline(inst, granularity, 0.5).objective == 3.0
    assert validate(make(cores=MAX_CORES + 1, ports=MAX_PORTS, coflows=[top])) == [
        f"cores {MAX_CORES + 1} above the limit {MAX_CORES}"
    ]
    assert validate(make(cores=1, ports=MAX_PORTS + 1, coflows=[top])) == [
        f"ports {MAX_PORTS + 1} above the limit {MAX_PORTS}"
    ]


def test_table_cell_limit():
    # (99 + 1) x (9,999 + 1) cells is exactly the limit; one more coflow is over.
    coflows = [Coflow(id=k, release=0, weight=1, demands={(1, 1): 1}) for k in range(1, 101)]
    assert MAX_TABLE_CELLS == 100 * 10_000
    assert validate(make(ports=9_999, coflows=coflows[:99])) == []
    assert validate(make(ports=9_999, coflows=coflows)) == [
        f"100 coflows x 9999 ports: 1010000 table cells above the limit {MAX_TABLE_CELLS}"
    ]


def test_flow_limit(monkeypatch):
    # The limit is lowered so that an instance above it is small. validate
    # reports it like the other limits, and instance_from_dict refuses the
    # document once its count passes the limit, before it builds that coflow.
    assert MAX_FLOWS == 1_000_000
    monkeypatch.setattr(model, "MAX_FLOWS", 3)
    three = [Coflow(1, 0, 1, {(1, 1): 1, (1, 2): 1}), Coflow(2, 0, 1, {(2, 2): 1})]
    assert validate(make(coflows=three)) == []
    four = [three[0], Coflow(2, 0, 1, {(2, 1): 1, (2, 2): 1})]
    assert validate(make(coflows=four)) == ["4 flows above the limit 3"]
    doc = instance_to_dict(make(coflows=four))
    with pytest.raises(ValueError, match=re.escape("instance JSON: 4 flows above the limit 3")):
        instance_from_dict(doc)
    doc["coflows"][1]["flows"].append({"i": 1})
    with pytest.raises(ValueError, match=re.escape("instance JSON: 5 flows above the limit 3")):
        instance_from_dict(doc)


def test_require_valid_raises():
    inst = make(coflows=[Coflow(id=1, release=0, weight=1, demands={(1, 1): -2})])
    with pytest.raises(ValueError, match="invalid instance"):
        require_valid(inst)
    with pytest.raises(ValueError, match="invalid instance"):
        inst.table


def test_roundtrip_preserves_integers_exactly():
    inst = make(
        cores=3,
        ports=4,
        coflows=[
            Coflow(id=1, release=7, weight=13, demands={(4, 2): 1_000_000_007, (1, 1): 1}),
            Coflow(id=2, release=0, weight=1, demands={(2, 3): 42}),
        ],
    )
    text = dumps_instance(inst)
    back = loads_instance(text)
    assert back == inst
    assert dumps_instance(back) == text


def test_serialization_is_canonical():
    # same coflow content, different dict insertion order -> same bytes
    a = make(coflows=[Coflow(id=1, release=0, weight=1, demands={(1, 2): 3, (1, 1): 5})])
    b = make(coflows=[Coflow(id=1, release=0, weight=1, demands={(1, 1): 5, (1, 2): 3})])
    assert dumps_instance(a) == dumps_instance(b)


def test_from_dict_rejects_duplicate_flow():
    doc = instance_to_dict(
        make(coflows=[Coflow(id=1, release=0, weight=1, demands={(1, 1): 2})])
    )
    doc["coflows"][0]["flows"].append({"i": 1, "j": 1, "size": 3})
    with pytest.raises(ValueError, match="duplicate flow"):
        instance_from_dict(doc)


def test_from_dict_rejects_missing_field():
    with pytest.raises(ValueError, match="missing field"):
        instance_from_dict({"cores": 1, "ports": 1})


def test_instance_accessors():
    inst = make(
        coflows=[
            Coflow(id=1, release=0, weight=1, demands={(1, 1): 1}),
            Coflow(id=2, release=0, weight=1, demands={(2, 2): 1, (1, 2): 1}),
        ]
    )
    assert inst.n == 2
    assert inst.flow_count == 3
    assert inst.table.keys == [FlowKey(1, 1, 1), FlowKey(1, 2, 2), FlowKey(2, 2, 2)]
    assert inst.table.first == [0, 1, 3]
    assert inst.table is inst.table
