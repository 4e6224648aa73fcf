"""Batch experiment driver.

Each experiment sweeps one knob (coflow count, core count, density mode, or
trace threshold), runs the full order / assign / simulate pipeline per
sampled instance, and reports per-instance ratios against the matching dual
lower bound plus aggregate statistics. Instance seeds derive from the
configured seed, the point index, and the instance index, so reruns are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import metrics, workload
from .model import Instance
from .ordering import Permutation, _require_kappa, order_coflow_level, order_flow_level
from .scheduling import ScheduleResult, assign_cdls, assign_fdls, require_granularity, simulate

KINDS = ("ratio-vs-coflows", "ratio-vs-cores", "density", "trace-threshold", "box", "cdf")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    granularity: str = "flow"
    coflows: tuple[int, ...] = (25,)
    cores: tuple[int, ...] = (5,)
    ports: int = 10
    instances: int = 100
    seed: int = 0
    kappa: float = 0.5
    density: str | None = None
    thresholds: tuple[int, ...] = (1, 10, 20, 30, 40, 50)
    trace_path: str | None = None


def default_config(kind: str, granularity: str = "flow", **overrides) -> ExperimentConfig:
    """Per-kind defaults mirroring the reference experiments."""
    base = {
        "ratio-vs-coflows": ExperimentConfig(kind, coflows=(5, 10, 15, 20, 25)),
        "ratio-vs-cores": ExperimentConfig(kind, coflows=(25,), cores=(5, 10, 15, 20, 25)),
        "density": ExperimentConfig(kind),
        "trace-threshold": ExperimentConfig(kind, ports=150, instances=5),
        "box": ExperimentConfig(kind),
        "cdf": ExperimentConfig(kind, coflows=(15,)),
    }
    if kind not in base:
        raise ValueError(f"unknown experiment kind {kind!r}, expected one of {KINDS}")
    return replace(base[kind], granularity=granularity, **overrides)


def child_seed(seed: int, point_index: int, instance_index: int) -> int:
    """Stable per-instance seed; independent of execution order."""
    seq = np.random.SeedSequence([seed, point_index, instance_index])
    return int(seq.generate_state(1)[0])


def _validate(config: ExperimentConfig) -> None:
    if config.kind not in KINDS:
        raise ValueError(f"unknown experiment kind {config.kind!r}, expected one of {KINDS}")
    require_granularity(config.granularity)
    if config.instances < 1:
        raise ValueError("instances must be >= 1")
    _require_kappa(config.kappa)
    if not config.coflows or not config.cores:
        raise ValueError("coflows and cores sweeps must be nonempty")
    if config.density is not None and config.density not in workload.DENSITY_MODES:
        raise ValueError(f"density must be one of {workload.DENSITY_MODES}, got {config.density!r}")
    if config.kind == "trace-threshold":
        if config.trace_path is None:
            raise ValueError("trace-threshold experiments need trace_path")
        if not config.thresholds:
            raise ValueError("thresholds sweep must be nonempty")


class PipelineResult(NamedTuple):
    objective: float
    dual_cost: float
    ratio: float
    result: ScheduleResult
    perm: Permutation


def run_pipeline(
    instance: Instance, granularity: str, kappa: float, emit_timeline: bool = False
) -> PipelineResult:
    """Order, place and simulate one instance at one granularity.

    Flow granularity pairs the flow-level dual with FDLS placement, coflow
    granularity the coflow-level dual with CDLS.
    """
    require_granularity(granularity)
    if granularity == "flow":
        perm = order_flow_level(instance, kappa)
        assignment = assign_fdls(instance, perm)
    else:
        perm = order_coflow_level(instance, kappa)
        assignment = assign_cdls(instance, perm)
    result = simulate(instance, perm, assignment, emit_timeline=emit_timeline)
    ratio = metrics.ratio(result.objective, perm.dual_cost)
    return PipelineResult(result.objective, perm.dual_cost, ratio, result, perm)


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> metrics.ExperimentReport:
    _validate(config)
    algo = "FDLS" if config.granularity == "flow" else "CDLS"
    report = metrics.ExperimentReport(
        kind=config.kind,
        granularity=config.granularity,
        kappa=config.kappa,
        ports=config.ports,
        instances=config.instances,
    )
    completions: list[float] = []

    if config.kind == "trace-threshold":
        text = Path(config.trace_path).read_text()
        for idx in range(config.instances):
            seed = child_seed(config.seed, 0, idx)
            parsed = workload.parse_trace(
                text, config.ports, weight_seed=seed, cores=config.cores[0]
            )
            for threshold in config.thresholds:
                kept = workload.filter_min_flows(parsed, threshold)
                out = run_pipeline(kept, config.granularity, config.kappa)
                report.rows.append(
                    metrics.ExperimentRow(
                        threshold, seed, algo, out.objective, out.dual_cost, out.ratio
                    )
                )
        report.rows.sort(key=lambda row: config.thresholds.index(row.point))
    else:
        points = _sweep_points(config)
        for p_idx, (label, n, m) in enumerate(points):
            for idx in range(config.instances):
                seed = child_seed(config.seed, p_idx, idx)
                instance = _generate(config, label, n, m, seed)
                out = run_pipeline(instance, config.granularity, config.kappa)
                report.rows.append(
                    metrics.ExperimentRow(
                        label, seed, algo, out.objective, out.dual_cost, out.ratio
                    )
                )
                if config.kind == "cdf":
                    completions.extend(out.result.coflow_completion.values())

    report.aggregate()
    if config.kind == "cdf":
        report.completion_times = completions
    if out_dir is not None:
        write_report(report, config, Path(out_dir))
    return report


def _sweep_points(config: ExperimentConfig) -> list[tuple[int | str, int, int]]:
    """(point label, coflow count, core count) per sweep point."""
    if config.kind == "ratio-vs-coflows":
        return [(n, n, config.cores[0]) for n in config.coflows]
    if config.kind == "ratio-vs-cores":
        return [(m, config.coflows[0], m) for m in config.cores]
    if config.kind == "density":
        modes = (config.density,) if config.density else workload.DENSITY_MODES
        return [(mode, config.coflows[0], config.cores[0]) for mode in modes]
    # box and cdf are single-point experiments
    return [(config.coflows[0], config.coflows[0], config.cores[0])]


def _generate(
    config: ExperimentConfig, label: int | str, n: int, m: int, seed: int
) -> Instance:
    if config.kind == "density":
        return workload.gen_density(n, config.ports, str(label), seed, cores=m)
    return workload.gen_mix(n, config.ports, seed, cores=m)


def write_report(
    report: metrics.ExperimentReport, config: ExperimentConfig, out_dir: Path
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{report.kind}_{report.granularity}"
    metrics.write_rows_csv(report, out_dir / f"{stem}_rows.csv")
    metrics.write_aggregates_json(report, out_dir / f"{stem}_aggregates.json")
    if report.completion_times is not None:
        metrics.write_cdf_csv(report.completion_times, out_dir / f"{stem}_cdf.csv")
