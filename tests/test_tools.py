"""Smoke test of the ladder script in ``tools/``."""

from _shared import load_script
from coflowsched.model import MAX_TABLE_CELLS, validate
from coflowsched.scheduling import BIT_HORIZON


def test_ladder_row_times_every_layer():
    ladder = load_script("tools/ladder.py")
    row = ladder.ladder_row("mix", 25, 10, 1)
    assert row["flows"] == 751
    layers = {key for key in row if key.endswith("_ms")}
    assert layers == {
        "generate_ms",
        "validate_ms",
        "table_ms",
        "keys_view_ms",
        *(
            f"{layer}_{g}_ms"
            for layer in ("order", "simulate_no_timeline", "simulate", "audit", "timeline_view")
            for g in ("flow", "coflow")
        ),
        "assign_fdls_ms",
        "assign_cdls_ms",
    }
    assert set(row) == {"flows", "horizon", "fill", "repeats", "table_peak_kb", *layers}
    assert row["table_peak_kb"] > 0
    assert row["horizon"] > BIT_HORIZON and row["fill"] == "runs"
    assert ("mix n=200 N=50 releases", "release", 200, 50) in ladder.ROWS
    assert ladder.ladder_row("release", 25, 10, 1).keys() == row.keys()


def test_limit_row_sits_at_the_table_cell_limit():
    ladder = load_script("tools/ladder.py")
    assert ("limit n=99 N=9999", "limit", 99, 9_999) in ladder.ROWS
    instance = ladder.limit_instance(99, 9_999)
    assert (instance.n + 1) * (instance.ports + 1) == MAX_TABLE_CELLS
    assert validate(instance) == []
    assert {c.flow_count for c in instance.coflows} == {1, 2, 3, 4}
    assert instance == ladder.limit_instance(99, 9_999)


def test_oracle_row_times_both_granularities():
    ladder = load_script("tools/ladder.py")
    instance = ladder.oracle_instance()
    assert (instance.n, instance.ports, instance.cores) == (6, 3, 2)
    row = ladder.oracle_row(1)
    assert row["flows"] == 8
    assert row["horizon"] <= BIT_HORIZON and row["fill"] == "bits"
    assert (row["pairs_flow"], row["pairs_coflow"]) == (720 * 2**8, 720 * 2**6)
    assert row["oracle_flow_ms"] > 0 and row["oracle_coflow_ms"] > 0
