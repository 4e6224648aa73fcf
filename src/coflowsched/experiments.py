"""Batch experiment driver.

Each experiment kind sweeps at most one knob (coflow count, core count,
density mode, or trace threshold) and reports per-instance ratios against
the matching dual lower bound. ``_KINDS`` gives each kind the field it
sweeps, the fields it reads and its defaults; a config that sets any other
field is refused. One case stream, ``_cases``, yields every run of every
kind, point by point, as (point label, seed, instance), and
``run_experiment`` walks it with one loop through the full order / assign
/ simulate pipeline. A trace is parsed once per instance index, and every
threshold point filters those same parses. Instance seeds derive from the
configured seed, the point index (0 for every threshold) and the instance
index, so reruns are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import metrics, workload
from .model import Instance
from .ordering import Permutation, _require_kappa, order_coflow_level, order_flow_level
from .scheduling import ScheduleResult, assign_cdls, assign_fdls, require_granularity, simulate


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


# Every kind reads these fields; the table gives each kind the field it
# sweeps (None for one point), the other fields it reads, and its departures
# from the ExperimentConfig defaults.
_READ_BY_ALL = ("kind", "granularity", "ports", "instances", "seed", "kappa")
_KINDS: dict[str, tuple[str | None, tuple[str, ...], dict]] = {
    "ratio-vs-coflows": ("coflows", ("cores",), {"coflows": (5, 10, 15, 20, 25)}),
    "ratio-vs-cores": ("cores", ("coflows",), {"cores": (5, 10, 15, 20, 25)}),
    "density": ("density", ("coflows", "cores"), {}),
    "trace-threshold": ("thresholds", ("cores", "trace_path"), {"ports": 150, "instances": 5}),
    "box": (None, ("coflows", "cores"), {}),
    "cdf": (None, ("coflows", "cores"), {"coflows": (15,)}),
}
KINDS = tuple(_KINDS)


def default_config(kind: str, granularity: str = "flow", **overrides) -> ExperimentConfig:
    """Per-kind defaults mirroring the reference experiments."""
    if kind not in _KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}, expected one of {KINDS}")
    return ExperimentConfig(kind, granularity, **{**_KINDS[kind][2], **overrides})


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
    if not (config.coflows and config.cores and config.thresholds):
        raise ValueError("coflows, cores and thresholds sweeps must be nonempty")
    # A field the kind would ignore, or a sweep it would cut to its first point.
    sweep, reads, _ = _KINDS[config.kind]
    for f in fields(config):
        value = getattr(config, f.name)
        unread = f.name not in (*_READ_BY_ALL, sweep, *reads) and value != f.default
        unswept = f.name in ("coflows", "cores") and f.name != sweep and len(value) > 1
        if unread or unswept:
            verb = "read" if unread else "sweep"
            raise ValueError(f"{config.kind} experiments do not {verb} {f.name}, got {value!r}")
    if min(config.coflows) < 1:
        raise ValueError(f"coflow counts must be >= 1, got {config.coflows}")
    if config.density is not None and config.density not in workload.DENSITY_MODES:
        raise ValueError(f"density must be one of {workload.DENSITY_MODES}, got {config.density!r}")
    if config.kind == "trace-threshold" and config.trace_path is None:
        raise ValueError("trace-threshold experiments need trace_path")
    if len(set(config.thresholds)) != len(config.thresholds):
        raise ValueError(f"thresholds must be distinct, got {config.thresholds}")


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
        completion_times=[] if config.kind == "cdf" else None,
    )
    for label, seed, instance in _cases(config):
        out = run_pipeline(instance, config.granularity, config.kappa)
        report.rows.append(
            metrics.ExperimentRow(label, seed, algo, out.objective, out.dual_cost, out.ratio)
        )
        if report.completion_times is not None:
            report.completion_times.extend(out.result.coflow_completion.values())
    if out_dir is not None:
        write_report(report, Path(out_dir))
    return report


def _cases(config: ExperimentConfig) -> Iterator[tuple[int | str, int, Instance]]:
    """(point label, seed, instance) for each run, point by point."""
    kind, m, ports = config.kind, config.cores[0], config.ports
    if kind == "trace-threshold":
        text = Path(config.trace_path).read_text()
        seeds = [child_seed(config.seed, 0, idx) for idx in range(config.instances)]
        parses = [workload.parse_trace(text, ports, weight_seed=s, cores=m) for s in seeds]
        for threshold in config.thresholds:
            for seed, parsed in zip(seeds, parses):
                yield threshold, seed, workload.filter_min_flows(parsed, threshold)
        return
    # (point label, config of that point) per sweep point; a kind that
    # sweeps nothing runs one point, labelled by its coflow count.
    if kind == "density":
        modes = (config.density,) if config.density else workload.DENSITY_MODES
        points = [(mode, config) for mode in modes]
    else:
        sweep = _KINDS[kind][0] or "coflows"
        points = [(v, replace(config, **{sweep: (v,)})) for v in getattr(config, sweep)]
    for p_idx, (label, point) in enumerate(points):
        n, cores = point.coflows[0], point.cores[0]
        for idx in range(config.instances):
            seed = child_seed(config.seed, p_idx, idx)
            if kind == "density":
                yield label, seed, workload.gen_density(n, ports, label, seed, cores=cores)
            else:
                yield label, seed, workload.gen_mix(n, ports, seed, cores=cores)


def write_report(report: metrics.ExperimentReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{report.kind}_{report.granularity}"
    metrics.write_rows_csv(report, out_dir / f"{stem}_rows.csv")
    metrics.write_aggregates_json(report, out_dir / f"{stem}_aggregates.json")
    if report.completion_times is not None:
        metrics.write_cdf_csv(report.completion_times, out_dir / f"{stem}_cdf.csv")
