"""Approximation ratios and experiment summaries."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def ratio(objective_value: float, dual_cost: float) -> float:
    """objective / dual lower bound; >= 1 up to float noise.

    A zero bound with zero objective (all coflows empty, released at 0) is
    ratio 1 by convention. A zero bound against real cost has no meaningful
    ratio and is rejected.
    """
    if dual_cost <= 1e-12:
        if abs(objective_value) <= 1e-9:
            return 1.0
        raise ValueError(
            f"degenerate instance: objective {objective_value} with dual bound {dual_cost}"
        )
    return objective_value / dual_cost


def summarize(values: Iterable[float]) -> dict:
    """Count, mean, extremes and quartiles of ``values``.

    Quartiles use linear interpolation between order statistics, matching
    numpy's default quantile method.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("summarize needs at least one value")
    q1, median, q3 = (
        float(q) for q in np.quantile(arr, [0.25, 0.5, 0.75], method="linear")
    )
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "q1": q1,
        "median": median,
        "q3": q3,
    }


@dataclass
class ExperimentRow:
    point: int | str
    seed: int
    algorithm: str
    objective: float
    dual_cost: float
    ratio: float


@dataclass
class ExperimentReport:
    kind: str
    granularity: str
    kappa: float
    ports: int
    instances: int
    rows: list[ExperimentRow] = field(default_factory=list)
    completion_times: list[float] | None = None

    @property
    def aggregates(self) -> list[dict]:
        """Ratio summary per (point, algorithm) group of rows, in first-seen order."""
        groups: dict[tuple, list[float]] = {}
        for row in self.rows:
            groups.setdefault((row.point, row.algorithm), []).append(row.ratio)
        return [
            {"point": point, "algorithm": algo, **summarize(vals)}
            for (point, algo), vals in groups.items()
        ]


def write_rows_csv(report: ExperimentReport, path: Path) -> None:
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["point", "seed", "algorithm", "objective", "dual_cost", "ratio"])
        for row in report.rows:
            writer.writerow(
                [row.point, row.seed, row.algorithm,
                 repr(row.objective), repr(row.dual_cost), repr(row.ratio)]
            )


def write_aggregates_json(report: ExperimentReport, path: Path) -> None:
    with open(path, "w") as fp:
        json.dump(aggregates_dict(report), fp, indent=2)
        fp.write("\n")


def aggregates_dict(report: ExperimentReport) -> dict:
    return {
        "experiment": report.kind,
        "granularity": report.granularity,
        "kappa": report.kappa,
        "ports": report.ports,
        "instances": report.instances,
        "quartile_method": "linear",
        "points": report.aggregates,
    }


def write_cdf_csv(values: Sequence[float], path: Path) -> None:
    """Empirical CDF as two columns, for plotting."""
    ordered = sorted(map(float, values))
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["value", "cum_fraction"])
        for pos, v in enumerate(ordered):
            writer.writerow([repr(v), repr((pos + 1) / len(ordered))])
