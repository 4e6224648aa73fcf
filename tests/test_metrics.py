"""Objective, ratio conventions, summaries, and report writers."""

import csv
import json

import numpy as np
import pytest

from coflowsched.metrics import (
    ExperimentReport,
    ExperimentRow,
    aggregates_dict,
    ratio,
    summarize,
    write_aggregates_json,
    write_cdf_csv,
    write_rows_csv,
)
from coflowsched.model import Coflow, Instance
from coflowsched.scheduling import assign_fdls, simulate

UNIT_PAIR = Instance(
    cores=1,
    ports=1,
    coflows=(
        Coflow(id=1, release=0, weight=1, demands={(1, 1): 1}),
        Coflow(id=2, release=0, weight=2, demands={(1, 1): 1}),
    ),
)


def test_objective_on_simulated_unit_pair():
    res = simulate(UNIT_PAIR, [2, 1], assign_fdls(UNIT_PAIR, [2, 1]))
    assert res.objective == pytest.approx(4.0)


def test_ratio_conventions():
    assert ratio(4.0, 4.0) == pytest.approx(1.0)
    assert ratio(10.0, 5.0) == pytest.approx(2.0)
    assert ratio(6.0, 6.0) == pytest.approx(1.0)
    assert ratio(0.0, 0.0) == 1.0
    with pytest.raises(ValueError, match="degenerate"):
        ratio(3.0, 0.0)


def test_summarize_constant():
    s = summarize([1, 1, 1])
    assert s == {"count": 3, "mean": 1, "min": 1, "max": 1, "q1": 1, "median": 1, "q3": 1}


def test_summarize_interpolated_quartiles():
    s = summarize([1, 2, 3, 4])
    assert s["q1"] == pytest.approx(1.75)
    assert s["median"] == pytest.approx(2.5)
    assert s["q3"] == pytest.approx(3.25)
    assert s["mean"] == pytest.approx(2.5)


def test_summarize_order_independent(tmp_path):
    assert summarize([4, 1, 3, 2]) == summarize([1, 2, 3, 4])
    write_cdf_csv([4, 1, 3, 2], tmp_path / "a.csv")
    write_cdf_csv([1, 2, 3, 4], tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_cdf_is_a_distribution(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "cdf.csv"
    write_cdf_csv(rng.exponential(size=257), path)
    with open(path, newline="") as fp:
        rows = list(csv.reader(fp))[1:]
    values = [float(v) for v, _ in rows]
    fracs = [float(f) for _, f in rows]
    assert len(rows) == 257
    assert values == sorted(values)
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == pytest.approx(1.0)
    assert min(fracs) > 0


def report_fixture():
    rows = [
        ExperimentRow(point=5, seed=1, algorithm="fdls", objective=8.0, dual_cost=4.0, ratio=2.0),
        ExperimentRow(point=5, seed=2, algorithm="fdls", objective=6.0, dual_cost=4.0, ratio=1.5),
        ExperimentRow(point=9, seed=1, algorithm="fdls", objective=5.0, dual_cost=5.0, ratio=1.0),
    ]
    return ExperimentReport(
        kind="box", granularity="flow", kappa=0.5, ports=10, instances=2, rows=rows
    )


def test_aggregate_groups_by_point():
    rep = report_fixture()
    assert [e["point"] for e in rep.aggregates] == [5, 9]
    assert [e["mean"] for e in rep.aggregates] == pytest.approx([1.75, 1.0])
    # The aggregates are folded from the rows, so a row added later counts.
    rep.rows.append(
        ExperimentRow(point=9, seed=2, algorithm="fdls", objective=6.0, dual_cost=5.0, ratio=1.2)
    )
    assert [e["count"] for e in rep.aggregates] == [2, 2]
    assert rep.aggregates[1]["mean"] == pytest.approx(1.1)


def test_rows_csv_round_trip(tmp_path):
    rep = report_fixture()
    path = tmp_path / "rows.csv"
    write_rows_csv(rep, path)
    with open(path, newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["point", "seed", "algorithm", "objective", "dual_cost", "ratio"]
    assert len(rows) == 4
    assert float(rows[1][5]) == 2.0


def test_aggregates_json_metadata(tmp_path):
    rep = report_fixture()
    path = tmp_path / "agg.json"
    write_aggregates_json(rep, path)
    doc = json.loads(path.read_text())
    assert doc == aggregates_dict(rep)
    assert doc["quartile_method"] == "linear"
    assert doc["experiment"] == "box"
    assert {p["point"] for p in doc["points"]} == {5, 9}


def test_cdf_csv(tmp_path):
    path = tmp_path / "cdf.csv"
    write_cdf_csv([3.0, 1.0, 2.0], path)
    with open(path, newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["value", "cum_fraction"]
    assert [float(r[0]) for r in rows[1:]] == [1.0, 2.0, 3.0]
    assert float(rows[-1][1]) == pytest.approx(1.0)
