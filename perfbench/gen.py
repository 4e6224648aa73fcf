"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed. Each one fixes the amount of
work per seed (flow count, schedule count) by quota and draws only the
content from the seed, so that run-to-run spread across seeds stays inside
the benchmark's bounds: plain ``gen_mix`` at n=80, N=30 gives 4.7k to 10k
flows and 0.8 to 4.4 s per simulate depending on the seed.
"""

from __future__ import annotations

import math

import numpy as np

from coflowsched import Coflow, Instance, mix_templates

# FB2010 shuffle trace shape: 3000 machines on 150 racks, 526 coflows
# arriving over one hour.
TRACE_MACHINES = 3000
TRACE_RACKS = 150
TRACE_COFLOWS = 526
TRACE_SPAN_MS = 3_600_000
STRUCTURE_SEED = 0


def _quota(lo: int, hi: int, count: int, tail: float) -> list[int]:
    """``count`` values in [lo, hi] at evenly spaced quantiles.

    A positive ``tail`` is a Pareto shape: values follow
    lo / (1 - q) ** (1 / tail), capped at hi. ``tail=0`` spreads the values
    uniformly over [lo, hi].
    """
    out = []
    for idx in range(count):
        q = (idx + 0.5) / count
        if tail <= 0:
            v = lo + q * (hi - lo + 1)
        else:
            v = lo / (1.0 - q) ** (1.0 / tail)
        out.append(min(hi, max(lo, int(v))))
    return out


def stratified_mix(n: int, ports: int, seed: int, cores: int) -> Instance:
    """A gen_mix-style instance with a fixed structure and seeded flow sizes.

    The four ``mix_templates`` classes get round(n * probability) coflows
    each, with input and output widths evenly spaced over the template range.
    ``STRUCTURE_SEED`` fixes which coflow gets which shape, its ports and its
    weight; ``seed`` draws the flow sizes. With seeded shapes and weights the
    mean ratio of one n=70 instance moves by about 11% from seed to seed (IQR
    over median), with only the sizes seeded by about 2%.
    """
    layout = np.random.default_rng(STRUCTURE_SEED)
    rng = np.random.default_rng(seed)
    shapes: list[tuple[int, int, int, int]] = []  # (w1, w2, size_min, size_max)
    for t in mix_templates(ports):
        count = round(n * t.probability)
        w1 = _quota(t.width_min, t.width_max, count, tail=0)
        # A fixed pairing that decorrelates the two widths.
        w2 = w1[count // 2 :] + w1[: count // 2]
        shapes += [(a, b, t.size_min, t.size_max) for a, b in zip(w1, w2[::-1])]
    coflows = []
    for k, idx in enumerate(layout.permutation(len(shapes)), start=1):
        w1, w2, lo, hi = shapes[idx]
        inputs = sorted(int(p) + 1 for p in layout.choice(ports, size=w1, replace=False))
        outputs = sorted(int(p) + 1 for p in layout.choice(ports, size=w2, replace=False))
        demands = {(i, j): int(rng.integers(lo, hi + 1)) for i in inputs for j in outputs}
        coflows.append(Coflow(k, 0, int(layout.integers(1, 101)), demands))
    return Instance(cores, ports, tuple(coflows))


# (coflows, cores, flows, copies) per oracle instance shape. Fixing the shapes
# fixes the number of schedules enumerate_best examines: n! * m**flows at flow
# granularity plus n! * m**n at coflow granularity.
ORACLE_SHAPES = (
    (5, 2, 5, 2),
    (4, 2, 6, 7),
    (4, 2, 5, 10),
    (4, 2, 4, 10),
    (3, 2, 5, 31),
    (5, 1, 9, 20),
    (3, 1, 3, 20),
)
ORACLE_PORTS = 3


def oracle_instances(seed: int) -> list[Instance]:
    """About 100 enumerable instances: N=3, sizes 1-4, releases 0-6 on odd ones."""
    rng = np.random.default_rng(seed)
    out = []
    pairs = [(i, j) for i in range(1, ORACLE_PORTS + 1) for j in range(1, ORACLE_PORTS + 1)]
    for n, m, flows, copies in ORACLE_SHAPES:
        for _ in range(copies):
            spread = len(out) % 2 == 1
            # Every coflow gets one flow, the rest land on random coflows.
            owners = list(range(n)) + [int(x) for x in rng.integers(0, n, size=flows - n)]
            demands: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
            for owner in owners:
                free = [p for p in pairs if p not in demands[owner]]
                pick = free[int(rng.integers(0, len(free)))]
                demands[owner][pick] = int(rng.integers(1, 5))
            coflows = tuple(
                Coflow(
                    k + 1,
                    int(rng.integers(0, 7)) if spread else 0,
                    int(rng.integers(1, 11)),
                    demands[k],
                )
                for k in range(n)
            )
            out.append(Instance(m, ORACLE_PORTS, coflows))
    return out


def fb2010_text(seed: int) -> str:
    """A synthetic shuffle trace in the FB2010 text format.

    It stands in for the Varys FB2010 trace, which the repository does not
    hold: 526 coflows on 150 racks, arrivals spread over one hour, and
    heavy-tailed mapper and reducer counts. The counts come from a fixed
    Pareto quota, so every seed has the same flow count; the seed draws
    which coflow gets which shape, the racks, the arrivals and the reducer
    megabytes. Racks within a coflow are distinct, so no flows merge.
    """
    rng = np.random.default_rng(seed)
    mappers = _quota(1, 40, TRACE_COFLOWS, tail=1.3)
    reducers = _quota(1, 30, TRACE_COFLOWS, tail=1.5)
    # A fixed pairing: large mapper counts meet spread-out reducer counts.
    reducers = [reducers[(idx * 211) % TRACE_COFLOWS] for idx in range(TRACE_COFLOWS)]
    shapes = list(zip(mappers, reducers))
    arrivals = np.sort(rng.integers(0, TRACE_SPAN_MS, size=TRACE_COFLOWS))
    lines = [f"{TRACE_MACHINES} {TRACE_COFLOWS}"]
    for cid, (arrival, idx) in enumerate(zip(arrivals, rng.permutation(TRACE_COFLOWS)), 1):
        n_map, n_red = shapes[idx]
        racks_m = sorted(int(r) + 1 for r in rng.choice(TRACE_RACKS, size=n_map, replace=False))
        racks_r = sorted(int(r) + 1 for r in rng.choice(TRACE_RACKS, size=n_red, replace=False))
        megabytes = np.exp(rng.normal(math.log(30.0), 1.5, size=n_red))
        reds = " ".join(f"{r}:{max(mb, 0.1):.1f}" for r, mb in zip(racks_r, megabytes))
        lines.append(
            f"{cid} {int(arrival)} {n_map} {' '.join(map(str, racks_m))} {n_red} {reds}"
        )
    return "\n".join(lines) + "\n"
