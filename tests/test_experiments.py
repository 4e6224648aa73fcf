"""Experiment driver: sweeps, seeding, and output files."""

import hashlib
import json

import pytest

from coflowsched import metrics, model
from coflowsched.experiments import (
    KINDS,
    ExperimentConfig,
    _validate,
    child_seed,
    default_config,
    run_experiment,
    run_pipeline,
)
from coflowsched.scheduling import GRANULARITIES
from coflowsched.workload import gen_density, gen_mix, parse_trace


def test_default_config_sweeps():
    assert default_config("ratio-vs-coflows").coflows == (5, 10, 15, 20, 25)
    assert default_config("ratio-vs-cores").cores == (5, 10, 15, 20, 25)
    assert default_config("trace-threshold").ports == 150
    assert default_config("box", granularity="coflow").granularity == "coflow"
    assert default_config("box", instances=7).instances == 7
    with pytest.raises(ValueError, match="kind"):
        default_config("violin")


@pytest.mark.parametrize("kind", KINDS)
def test_default_config_is_valid(kind):
    overrides = {"trace_path": "trace.txt"} if kind == "trace-threshold" else {}
    _validate(default_config(kind, **overrides))


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
    # Both copies of a repeated point would hold the same runs, so its
    # aggregate would count each of them twice.
    with pytest.raises(ValueError, match=r"thresholds must be distinct, got \(4, 4, 1\)"):
        run_experiment(ExperimentConfig("trace-threshold", thresholds=(4, 4, 1), trace_path="-"))
    for kappa in (0.0, -1.0, float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            run_experiment(ExperimentConfig("box", kappa=kappa))
    with pytest.raises(ValueError, match="nonempty"):
        run_experiment(ExperimentConfig("trace-threshold", thresholds=(), trace_path="-"))
    # An empty instance has no coflow completions for a CDF.
    with pytest.raises(ValueError, match=r"coflow counts must be >= 1, got \(0,\)"):
        run_experiment(ExperimentConfig("cdf", coflows=(0,)))
    with pytest.raises(ValueError, match=r"coflow counts must be >= 1, got \(3, -1\)"):
        run_experiment(ExperimentConfig("ratio-vs-coflows", coflows=(3, -1)))
    # A field the kind does not read may not leave its default ...
    with pytest.raises(ValueError, match="box experiments do not read density, got 'dense'"):
        run_experiment(ExperimentConfig("box", density="dense"))
    with pytest.raises(ValueError, match=r"box experiments do not read thresholds, got \(3,\)"):
        run_experiment(ExperimentConfig("box", thresholds=(3,)))
    with pytest.raises(ValueError, match="cdf experiments do not read trace_path"):
        run_experiment(ExperimentConfig("cdf", trace_path="-"))
    with pytest.raises(ValueError, match=r"trace-threshold experiments do not read coflows"):
        run_experiment(ExperimentConfig("trace-threshold", coflows=(3,), trace_path="-"))
    # ... and only the swept field may hold more than one value.
    message = r"ratio-vs-cores experiments do not sweep coflows, got \(3, 5\)"
    with pytest.raises(ValueError, match=message):
        run_experiment(ExperimentConfig("ratio-vs-cores", coflows=(3, 5), cores=(1, 2)))
    with pytest.raises(ValueError, match=r"ratio-vs-coflows experiments do not sweep cores"):
        run_experiment(ExperimentConfig("ratio-vs-coflows", cores=(1, 2)))
    with pytest.raises(ValueError, match=r"density experiments do not sweep coflows"):
        run_experiment(ExperimentConfig("density", coflows=(3, 5)))


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


@pytest.mark.parametrize("granularity", ["Flow", "per-port", ""])
def test_run_pipeline_rejects_an_unknown_granularity(granularity):
    # Any value but "flow" used to run the coflow-level pipeline.
    inst = gen_mix(5, 6, 1, cores=2)
    message = f"granularity must be flow or coflow, got {granularity!r}"
    with pytest.raises(ValueError, match=message):
        run_pipeline(inst, granularity, 0.5)


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


def toy_trace(directory):
    """A three-coflow shuffle trace of 1, 2 and 3 flows on 3 racks."""
    lines = [
        "1 0 1 1 1 2:4",
        "2 0 2 1 2 2 1:6 2:6",
        "3 1000 2 1 3 3 1:9 2:9 3:9",
    ]
    trace = directory / "toy.txt"
    trace.write_text("\n".join([f"9 {len(lines)}", *lines]) + "\n")
    return str(trace)


def test_trace_threshold_sweep(tmp_path):
    cfg = default_config(
        "trace-threshold",
        ports=3,
        instances=2,
        thresholds=(1, 4, 6),
        trace_path=toy_trace(tmp_path),
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

# One small seeded config per experiment kind (and both density forms).
PIN_CONFIGS = {
    "ratio-vs-coflows": dict(coflows=(3, 5), instances=3, ports=6),
    "ratio-vs-cores": dict(coflows=(4,), cores=(1, 2, 3), instances=3, ports=5),
    "density": dict(coflows=(4,), instances=2, ports=5),
    "density-sparse": dict(coflows=(4,), instances=2, ports=5, density="sparse"),
    "box": dict(instances=5, seed=3),
    "cdf": dict(coflows=(4,), instances=3, ports=5),
    "trace-threshold": dict(ports=3, instances=2, thresholds=(1, 4, 6)),
}

# Flow- and coflow-level digests of each config's output files and its
# aggregates dict: every kind's row order, seeds and values stay fixed.
PINNED_OUTPUTS = {
    "ratio-vs-coflows": (
        "0d1a1c770408f5816fd5e5d7ace878f7fda4c88942e126c48b8d9dd2e5b70e74",
        "9f5c5d792f1b1fd0ea28b5d2caaf459fb1a0c5e44a050a6f1d6268588093aa41",
    ),
    "ratio-vs-cores": (
        "320e94187c5d1b39fd821aefb53782b8229f218e954550b0f429cb29d5dee110",
        "8b85ab1ffdeb8ac9446498ac899c2a791fe551f47aa4be32e8de7b658a7a4ffb",
    ),
    "density": (
        "1d7f8215b89e0fd15ee8da9dc04975d6c667434b3a8fc190a55d6f9f05ff215b",
        "93eb9f20af021895f806e3f429b177a45df0f245a73dd955532862a4cc8aa2c6",
    ),
    "density-sparse": (
        "06876f0ee9adbca674455e497875275b867398e3cb078228eba1e8ee64b51330",
        "12b3ed608d063cd46b150582312d2c4d33e1415bb9f79f7518b9d03f6d31c927",
    ),
    "box": (
        "7c8014382d2aacf43a0d4ab8d26838cc9d4151bc597567a54482f65da9570b4d",
        "04a3259b78275ff1046b92f6d1c0c6aff609d8b8dbc941e68972471673f9e992",
    ),
    "cdf": (
        "b341361c126730bb176868305f14b9336b1116888ca622771e49bc4471c64479",
        "d4891423a6b3f6d1a630f0563e6fbdfb6319c77c51b4e67b1fae7ce602aecb1c",
    ),
    "trace-threshold": (
        "7bea4771ebe6ffdff042d9a43aba55dbfc34c848c54312308f3bd6cfa96344f7",
        "6879041d8a78323e7e6ad7cde5963ca9418b646dded594d78f0b59e471f4e2c2",
    ),
}


def output_digest(name, granularity, out_dir):
    overrides = dict(PIN_CONFIGS[name])
    if name == "trace-threshold":
        overrides["trace_path"] = toy_trace(out_dir)
    config = default_config(name.removesuffix("-sparse"), granularity, **overrides)
    report = run_experiment(config, out_dir / "out")
    digest = hashlib.sha256()
    for path in sorted((out_dir / "out").iterdir()):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    digest.update(json.dumps(metrics.aggregates_dict(report), indent=2).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("name", list(PIN_CONFIGS))
def test_experiment_outputs_are_pinned(tmp_path, name, granularity):
    pinned = PINNED_OUTPUTS[name][GRANULARITIES.index(granularity)]
    assert output_digest(name, granularity, tmp_path) == pinned
