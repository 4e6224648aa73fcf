"""Synthetic instance generators and shuffle-trace ingestion.

All generators are deterministic in their seed; the same seed yields the
same instance, byte for byte after serialization.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import IO, Iterable

import numpy as np

from .model import MAX_HORIZON, Coflow, Instance

# Arrival time units per millisecond: 128 MBps links, 1 unit = 1 MB.
UNITS_PER_SECOND = 128

DENSITY_MODES = ("dense", "sparse", "combined")


@dataclass(frozen=True)
class CoflowTemplate:
    """Port-width and flow-size ranges for one synthetic coflow class."""

    width_min: int
    width_max: int
    size_min: int
    size_max: int
    probability: float


def mix_templates(ports: int) -> tuple[CoflowTemplate, ...]:
    """The four-class mix: narrow/wide crossed with short/long flows."""
    return (
        CoflowTemplate(1, 4, 1, 10, 0.41),
        CoflowTemplate(1, 4, 10, 1000, 0.29),
        CoflowTemplate(4, ports, 1, 10, 0.09),
        CoflowTemplate(4, ports, 10, 1000, 0.21),
    )


def _check_counts(n: int, release_max: int) -> None:
    """Reject a negative coflow count or release spread before any draw."""
    if n < 0:
        raise ValueError(f"coflow count must be >= 0, got {n}")
    if release_max < 0:
        raise ValueError(f"release_max must be >= 0, got {release_max}")


def _release(rng: np.random.Generator, release_max: int) -> int:
    return int(rng.integers(0, release_max + 1)) if release_max else 0


def gen_mix(
    n: int,
    ports: int,
    seed: int,
    cores: int = 1,
    release_max: int = 0,
) -> Instance:
    """Sample n coflows from the four-class template mix.

    Each coflow draws a template, then independent input and output widths
    w1, w2 in the template's range, picks that many distinct ports per side,
    and places a flow on every (input, output) pair of the grid with a size
    uniform in the template's range. The w1 * w2 sizes come from one draw,
    input-major. Weights are uniform integers in [1, 100]. Releases are 0
    unless release_max spreads them.
    """
    _check_counts(n, release_max)
    if ports < 4:
        raise ValueError(f"the template mix needs at least 4 ports, got {ports}")
    rng = np.random.default_rng(seed)
    templates = mix_templates(ports)
    # rng.choice(4, p=probs) as numpy computes it: the same normalised cdf
    # and the same single double from the stream, without its per-call checks.
    cdf = np.cumsum([t.probability for t in templates])
    cdf = (cdf / cdf[-1]).tolist()
    coflows = []
    for k in range(1, n + 1):
        t = templates[bisect_right(cdf, rng.random())]
        w1 = int(rng.integers(t.width_min, t.width_max + 1))
        w2 = int(rng.integers(t.width_min, t.width_max + 1))
        inputs = sorted(int(p) + 1 for p in rng.choice(ports, size=w1, replace=False))
        outputs = sorted(int(p) + 1 for p in rng.choice(ports, size=w2, replace=False))
        sizes = rng.integers(t.size_min, t.size_max + 1, size=w1 * w2).tolist()
        demands = dict(zip(product(inputs, outputs), sizes))
        release = _release(rng, release_max)
        weight = int(rng.integers(1, 101))
        coflows.append(Coflow(k, release, weight, demands))
    instance = Instance(cores, ports, tuple(coflows))
    instance.table  # validates once and compiles the table every stage reads
    return instance


def gen_density(
    n: int,
    ports: int,
    mode: str,
    seed: int,
    cores: int = 1,
    release_max: int = 0,
) -> Instance:
    """Sample n coflows controlled by flow-count density.

    dense coflows have uniform {N..N^2} flows, sparse ones uniform {1..N};
    combined flips a fair coin per coflow. Flows land on distinct port pairs
    with sizes uniform in {1..100}, drawn in one call per coflow; weights are
    uniform in [1, 100].
    """
    _check_counts(n, release_max)
    if ports < 1:
        raise ValueError(f"ports must be >= 1, got {ports}")
    if mode not in DENSITY_MODES:
        raise ValueError(f"density mode must be one of {DENSITY_MODES}, got {mode!r}")
    rng = np.random.default_rng(seed)
    coflows = []
    for k in range(1, n + 1):
        pick = mode
        if mode == "combined":
            pick = "dense" if rng.random() < 0.5 else "sparse"
        if pick == "dense":
            count = int(rng.integers(ports, ports * ports + 1))
        else:
            count = int(rng.integers(1, ports + 1))
        cells = rng.choice(ports * ports, size=count, replace=False).tolist()
        sizes = rng.integers(1, 101, size=count).tolist()
        demands = {
            (cell // ports + 1, cell % ports + 1): d for cell, d in zip(cells, sizes)
        }
        release = _release(rng, release_max)
        weight = int(rng.integers(1, 101))
        coflows.append(Coflow(k, release, weight, demands))
    instance = Instance(cores, ports, tuple(coflows))
    instance.table  # validates once and compiles the table every stage reads
    return instance


def parse_trace(
    source: str | IO[str] | Iterable[str],
    rack_count: int,
    weight_seed: int,
    cores: int = 1,
) -> Instance:
    """Read a shuffle trace into an instance.

    Format: a header line "<machines> <coflows>", then one line per coflow:
    "<id> <arrival ms> <#mappers> <mapper racks...> <#reducers>
    <rack>:<megabytes>...". Every (mapper rack, reducer rack) pair becomes a
    flow whose size is the reducer's megabytes split equally over the
    mappers, each share rounded up to at least 1 unit (1 unit = 1 MB).
    Pairs that collide (two mappers on one rack) merge by summing. Arrival
    times convert at 128 units per second. Coflows are renumbered 1..n in
    file order; weights are uniform integers in [1, 100] drawn from
    weight_seed.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ValueError("trace is empty")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"trace line 1: header must be '<machines> <coflows>', got {lines[0]!r}")
    try:
        declared = int(header[1])
    except ValueError as exc:
        raise ValueError(f"trace line 1: malformed header {lines[0]!r}") from exc
    if len(lines) - 1 != declared:
        raise ValueError(f"trace declares {declared} coflows but contains {len(lines) - 1}")

    rng = np.random.default_rng(weight_seed)
    coflows = []
    for lineno, line in enumerate(lines[1:], start=2):
        tok = line.split()
        try:
            arrival_ms = int(tok[1])
            n_map = int(tok[2])
            mappers = [int(x) for x in tok[3 : 3 + n_map]]
            if len(mappers) != n_map:
                raise ValueError("mapper list shorter than declared")
            n_red = int(tok[3 + n_map])
            reducer_toks = tok[4 + n_map : 4 + n_map + n_red]
            if len(reducer_toks) != n_red or len(tok) != 4 + n_map + n_red:
                raise ValueError("reducer list does not match declared count")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from exc
        if arrival_ms < 0:
            raise ValueError(f"trace line {lineno}: negative arrival {arrival_ms}")
        if arrival_ms > MAX_HORIZON:
            raise ValueError(f"trace line {lineno}: arrival {arrival_ms} ms above the limit 2**53")
        if n_red and not n_map:
            raise ValueError(f"trace line {lineno}: {n_red} reducers but no mappers")
        demands: dict[tuple[int, int], int] = {}
        for rack in mappers:
            if not 1 <= rack <= rack_count:
                raise ValueError(
                    f"trace line {lineno}: mapper rack {rack} out of range 1..{rack_count}"
                )
        for chunk in reducer_toks:
            try:
                rack_txt, mb_txt = chunk.split(":")
                rack = int(rack_txt)
                megabytes = float(mb_txt)
            except ValueError as exc:
                raise ValueError(f"trace line {lineno}: malformed reducer {chunk!r}") from exc
            if not 1 <= rack <= rack_count:
                raise ValueError(
                    f"trace line {lineno}: reducer rack {rack} out of range 1..{rack_count}"
                )
            if not megabytes > 0:
                raise ValueError(f"trace line {lineno}: megabytes must be positive, got {mb_txt}")
            if megabytes == math.inf:
                raise ValueError(f"trace line {lineno}: megabytes must be finite, got {mb_txt}")
            share = max(1, math.ceil(megabytes / n_map))
            for mapper in mappers:
                key = (mapper, rack)
                demands[key] = demands.get(key, 0) + share
        release = int(round(arrival_ms * UNITS_PER_SECOND / 1000))
        weight = int(rng.integers(1, 101))
        coflows.append(Coflow(len(coflows) + 1, release, weight, demands))
    instance = Instance(cores, rack_count, tuple(coflows))
    instance.table  # validates once and compiles the table every stage reads
    return instance


def filter_min_flows(instance: Instance, threshold: int) -> Instance:
    """Keep coflows with at least threshold flows, renumbered densely."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    kept = [c for c in instance.coflows if c.flow_count >= threshold]
    coflows = tuple(
        Coflow(pos, c.release, c.weight, dict(c.demands))
        for pos, c in enumerate(kept, start=1)
    )
    return Instance(instance.cores, instance.ports, coflows)
