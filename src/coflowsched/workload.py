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

from .model import MAX_HORIZON, MAX_PORTS, Coflow, Instance

# Time units per second: 128 MBps links, 1 unit = 1 MB.
UNITS_PER_SECOND = 128

DENSITY_MODES = ("dense", "sparse", "combined")

_INT64_MAX = 2**63 - 1
_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1


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
    """Reject a negative coflow count or a release spread outside int64 before any draw."""
    if n < 0:
        raise ValueError(f"coflow count must be >= 0, got {n}")
    if release_max < 0:
        raise ValueError(f"release_max must be >= 0, got {release_max}")
    if release_max > _INT64_MAX:
        raise ValueError(f"release_max must be below 2**63, got {release_max}")


class _Draws:
    """numpy 2.4 ``Generator`` draws, made in Python from PCG64's raw words.

    ``default_rng(seed)`` seeds the bit generator; its 64-bit words are read
    in chunks through ``random_raw`` and turned into draws the way numpy's C
    code turns them: ``uint32`` hands out a word's low half and keeps the
    high half pending, ``random`` takes a whole word, ``bounded`` is Lemire's
    method, and ``sample`` is Floyd's algorithm with numpy's shuffle. Each
    call gives the value the ``Generator`` method named in its docstring
    gives at the same point of the stream.
    """

    def __init__(self, seed: int, chunk: int):
        self._bits = np.random.default_rng(seed).bit_generator
        self._chunk = chunk
        self._words = iter(())
        self._half: int | None = None

    def _word(self) -> int:
        try:
            return next(self._words)
        except StopIteration:
            self._words = iter(self._bits.random_raw(self._chunk).tolist())
            return next(self._words)

    def uint32(self) -> int:
        """numpy's ``next_uint32``: the low half of a word, then its high half."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """``rng.random()``: the top 53 bits of one word, scaled to [0, 1)."""
        return (self._word() >> 11) * 2.0**-53

    def bounded(self, span: int) -> int:
        """``rng.integers(0, span + 1)`` for 0 <= span < 2**63; span 0 draws nothing.

        Lemire's nearly divisionless method (ACM TOMACS 2019): a 32-bit
        multiply and rejection below 2**32 - 1, one ``uint32`` at exactly
        2**32 - 1, and the 64-bit form above.
        """
        if span < _MASK32:
            if not span:
                return 0
            excl = span + 1
            m = self.uint32() * excl
            if (m & _MASK32) < excl:
                threshold = 2**32 % excl
                while (m & _MASK32) < threshold:
                    m = self.uint32() * excl
            return m >> 32
        if span == _MASK32:
            return self.uint32()
        excl = span + 1
        m = self._word() * excl
        if (m & _MASK64) < excl:
            threshold = 2**64 % excl
            while (m & _MASK64) < threshold:
                m = self._word() * excl
        return m >> 64

    def sample(self, pop: int, size: int) -> list[int]:
        """``rng.choice(pop, size, replace=False).tolist()`` for pop <= 10,000.

        Floyd's algorithm (Bentley and Floyd, CACM 1987), then the shuffle
        numpy applies to its result. Above 10,000 numpy may shuffle the tail
        of the whole population instead, so larger pops must not come here.
        """
        out = []
        seen = set()
        for j in range(pop - size, pop):
            val = self.bounded(j)
            if val in seen:
                val = j
            seen.add(val)
            out.append(val)
        for i in range(size - 1, 0, -1):
            k = self.bounded(i)
            out[i], out[k] = out[k], out[i]
        return out


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

    The draws are those of ``rng = np.random.default_rng(seed)``, made in
    this order per coflow: ``rng.random()`` against the template cdf (as
    ``rng.choice(4, p=probs)`` draws it), two scalar ``rng.integers`` for the
    widths, ``rng.choice(ports, size=w, replace=False)`` per side,
    ``rng.integers(lo, hi + 1, size=w1 * w2)`` for the sizes, then the
    release (only when release_max > 0) and the weight. ``_Draws`` reproduces numpy 2.4's C code for
    each of them from the PCG64 bit stream, so an instance depends only on
    that stream, not on how numpy's ``Generator`` methods are built.
    """
    _check_counts(n, release_max)
    if ports < 4:
        raise ValueError(f"the template mix needs at least 4 ports, got {ports}")
    if ports > MAX_PORTS:
        raise ValueError(f"ports {ports} above the limit {MAX_PORTS}")
    # About 20 words per box-config coflow; a short chunk only costs a refill.
    draws = _Draws(seed, chunk=min(32 * n + 64, 2**16))
    bounded = draws.bounded
    templates = mix_templates(ports)
    # The normalised cdf numpy's choice(4, p=probs) searches with one double.
    cdf = np.cumsum([t.probability for t in templates])
    cdf = (cdf / cdf[-1]).tolist()
    coflows = []
    for k in range(1, n + 1):
        t = templates[bisect_right(cdf, draws.random())]
        w1 = t.width_min + bounded(t.width_max - t.width_min)
        w2 = t.width_min + bounded(t.width_max - t.width_min)
        inputs = sorted(p + 1 for p in draws.sample(ports, w1))
        outputs = sorted(p + 1 for p in draws.sample(ports, w2))
        span = t.size_max - t.size_min
        sizes = [t.size_min + bounded(span) for _ in range(w1 * w2)]
        demands = dict(zip(product(inputs, outputs), sizes))
        release = bounded(release_max)
        weight = 1 + bounded(99)
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

    parsed = []
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
        # arrival_ms * 128 / 1000 rounded to the nearest integer, in exact
        # integer arithmetic: floats misround above about 2.8e14 ms. No tie
        # can occur, since 16 * arrival_ms / 125 is never a half.
        release = (2 * UNITS_PER_SECOND * arrival_ms + 1000) // 2000
        parsed.append((release, demands))
    # One block draw takes the same stream as one scalar draw per coflow.
    weights = np.random.default_rng(weight_seed).integers(1, 101, size=len(parsed)).tolist()
    coflows = tuple(
        Coflow(k, release, weight, demands)
        for k, ((release, demands), weight) in enumerate(zip(parsed, weights), start=1)
    )
    instance = Instance(cores, rack_count, coflows)
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
