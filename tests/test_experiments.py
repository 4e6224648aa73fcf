"""Experiment driver: sweeps, seeding, and output files."""

import json

import pytest

from coflowsched import model
from coflowsched.experiments import (
    ExperimentConfig,
    child_seed,
    default_config,
    run_experiment,
    run_pipeline,
)
from coflowsched.workload import gen_density, gen_mix, parse_trace


def test_default_config_sweeps():
    assert default_config("ratio-vs-coflows").coflows == (5, 10, 15, 20, 25)
    assert default_config("ratio-vs-cores").cores == (5, 10, 15, 20, 25)
    assert default_config("trace-threshold").ports == 150
    assert default_config("box", granularity="coflow").granularity == "coflow"
    assert default_config("box", instances=7).instances == 7
    with pytest.raises(ValueError, match="kind"):
        default_config("violin")


def test_validation_errors():
    with pytest.raises(ValueError, match="granularity"):
        run_experiment(ExperimentConfig("box", granularity="per-port"))
    with pytest.raises(ValueError, match="instances"):
        run_experiment(ExperimentConfig("box", instances=0))
    with pytest.raises(ValueError, match="nonempty"):
        run_experiment(ExperimentConfig("box", coflows=()))
    with pytest.raises(ValueError, match="density"):
        run_experiment(ExperimentConfig("density", density="medium"))
    with pytest.raises(ValueError, match="trace_path"):
        run_experiment(ExperimentConfig("trace-threshold"))
    for kappa in (0.0, -1.0, float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            run_experiment(ExperimentConfig("box", kappa=kappa))


def test_child_seed_is_stable_and_spread():
    assert child_seed(0, 0, 0) == child_seed(0, 0, 0)
    seen = {child_seed(7, p, i) for p in range(3) for i in range(50)}
    assert len(seen) == 150


def test_run_pipeline_shape():
    inst = gen_mix(6, 8, 12, cores=2)
    obj, dual, rat, result, perm = run_pipeline(inst, "flow", 0.5)
    assert obj == result.objective
    assert dual == perm.dual_cost
    assert rat == pytest.approx(obj / dual)
    assert rat >= 1 - 1e-9
    assert result.timeline is None
    cobj, cdual, crat, _, cperm = run_pipeline(inst, "coflow", 0.5, emit_timeline=True)
    assert crat >= 1 - 1e-9
    assert (cobj, cdual) != (obj, dual)
    assert cperm.order == perm.order


@pytest.mark.parametrize("granularity", ["flow", "coflow"])
def test_each_instance_is_validated_once(monkeypatch, granularity):
    text = model.dumps_instance(gen_mix(5, 6, 3, cores=2, release_max=9))
    makers = {
        "gen_mix": lambda: gen_mix(6, 5, 1, cores=2),
        "gen_density": lambda: gen_density(5, 4, "combined", 2, cores=3, release_max=10),
        "parse_trace": lambda: parse_trace(
            "9 2\n1 0 2 1 2 2 1:6 3:6\n2 500 1 3 1 2:9\n", rack_count=3, weight_seed=0, cores=2
        ),
        "loads_instance": lambda: model.loads_instance(text),
    }
    calls = []
    validate = model.validate
    monkeypatch.setattr(model, "validate", lambda inst: calls.append(inst) or validate(inst))
    for name, make in makers.items():
        calls.clear()
        inst = make()
        run_pipeline(inst, granularity, 0.5, emit_timeline=True)
        assert len(calls) == 1 and calls[0] is inst, name


def small(kind, **overrides):
    cfg = default_config(kind, **overrides)
    return cfg


def test_run_experiment_deterministic():
    cfg = small("ratio-vs-coflows", coflows=(3, 5), instances=4, ports=6)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.rows == b.rows
    assert a.aggregates == b.aggregates


def test_sweep_points_and_grouping():
    cfg = small("ratio-vs-cores", coflows=(4,), cores=(1, 2, 3), instances=3, ports=5)
    rep = run_experiment(cfg)
    assert [e["point"] for e in rep.aggregates] == [1, 2, 3]
    assert all(e["count"] == 3 for e in rep.aggregates)
    assert len(rep.rows) == 9


def test_density_sweeps_all_modes_by_default():
    cfg = small("density", coflows=(4,), instances=2, ports=5)
    rep = run_experiment(cfg)
    assert [e["point"] for e in rep.aggregates] == ["dense", "sparse", "combined"]


def test_density_narrows_to_one_mode():
    cfg = small("density", coflows=(4,), instances=2, ports=5, density="sparse")
    rep = run_experiment(cfg)
    assert [e["point"] for e in rep.aggregates] == ["sparse"]


def test_cdf_collects_completions():
    cfg = small("cdf", coflows=(4,), instances=3, ports=5)
    rep = run_experiment(cfg)
    assert rep.completion_times is not None
    assert len(rep.completion_times) == 3 * 4


def test_trace_threshold_sweep(tmp_path):
    lines = [
        "1 0 1 1 1 2:4",
        "2 0 2 1 2 2 1:6 2:6",
        "3 1000 2 1 3 3 1:9 2:9 3:9",
    ]
    trace = tmp_path / "toy.txt"
    trace.write_text("\n".join([f"9 {len(lines)}", *lines]) + "\n")
    cfg = default_config(
        "trace-threshold",
        ports=3,
        instances=2,
        thresholds=(1, 4, 6),
        trace_path=str(trace),
    )
    rep = run_experiment(cfg)
    assert [e["point"] for e in rep.aggregates] == [1, 4, 6]
    assert all(e["count"] == 2 for e in rep.aggregates)
    assert all(row.ratio >= 1 - 1e-9 for row in rep.rows)


def test_write_report_files(tmp_path):
    cfg = small("cdf", coflows=(3,), instances=2, ports=5, granularity="coflow")
    run_experiment(cfg, out_dir=tmp_path)
    rows = tmp_path / "cdf_coflow_rows.csv"
    agg = tmp_path / "cdf_coflow_aggregates.json"
    cdf = tmp_path / "cdf_coflow_cdf.csv"
    assert rows.exists() and agg.exists() and cdf.exists()
    doc = json.loads(agg.read_text())
    assert doc["granularity"] == "coflow"
    assert doc["points"]
