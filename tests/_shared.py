"""Helpers shared by scheduling, oracle, ordering and acceptance tests.

``corpus_instance`` builds the 1000 mixed instances of the acceptance
corpus, ``tiny_instance`` the 200 acceptance instances small enough to
enumerate exhaustively, ``fb2010_text`` a seeded shuffle trace, and
``load_script`` loads a script of the repository, such as
``tools/ladder.py``, as a module.

Per-coflow completion caps that the greedy list schedules must satisfy.
Both caps walk the processing order, accumulate per-port prefix loads, and
bound each coflow by the worst cap over its own flows: a flow is delayed
only by same-or-higher-priority traffic on its two ports, so its completion
is at most the release ceiling plus the prefix load on those ports (spread
over m cores under split placement, all on one core under whole-coflow
placement), minus the double-counted share of its own transmission.
"""

import importlib.util
import random
from pathlib import Path

import numpy as np

from _reference_table import compile_table
from coflowsched.experiments import child_seed
from coflowsched.model import Coflow, Instance
from coflowsched.workload import gen_density, gen_mix

ROOT = Path(__file__).resolve().parent.parent


def _prefix_walk(instance, order):
    """Yield (coflow, cumulative in/out port loads, release ceiling)."""
    table = compile_table(instance)
    cum_in = np.zeros(instance.ports + 1, dtype=np.int64)
    cum_out = np.zeros(instance.ports + 1, dtype=np.int64)
    max_r = 0
    for k in order:
        c = instance.coflow(k)
        cum_in += table.load_in[k]
        cum_out += table.load_out[k]
        max_r = max(max_r, c.release)
        yield c, cum_in, cum_out, max_r


def fdls_bound(instance, order, completions, tol=1e-9):
    """Caps for split placement.

    C_k <= a*max_release + max over flows (i, j, d) of coflow k of
    (prefix_in[i] + prefix_out[j]) / m + (1 - 2/m) * d. Returns violation
    descriptions, empty when every completion respects its cap.
    """
    a = 1 if any(c.release > 0 for c in instance.coflows) else 0
    m = instance.cores
    bad = []
    for c, cum_in, cum_out, max_r in _prefix_walk(instance, order):
        cap = max(
            (
                (int(cum_in[i]) + int(cum_out[j])) / m + (1 - 2 / m) * d
                for (i, j), d in c.demands.items()
            ),
            default=0.0,
        )
        bound = a * max_r + cap
        if completions[c.id] > bound + tol:
            bad.append(f"coflow {c.id}: C={completions[c.id]} > {bound}")
    return bad


def cdls_bound(instance, order, completions, tol=1e-9):
    """Caps for whole-coflow placement.

    C_k <= a*max_release + max over flows (i, j, d) of coflow k of
    prefix_in[i] + prefix_out[j] - d: in the worst case the entire prefix
    shares the coflow's core, and the flow's own size is counted on both
    ports. Returns violation descriptions.
    """
    a = 1 if any(c.release > 0 for c in instance.coflows) else 0
    bad = []
    for c, cum_in, cum_out, max_r in _prefix_walk(instance, order):
        cap = max(
            (int(cum_in[i]) + int(cum_out[j]) - d for (i, j), d in c.demands.items()),
            default=0,
        )
        bound = a * max_r + cap
        if completions[c.id] > bound + tol:
            bad.append(f"coflow {c.id}: C={completions[c.id]} > {bound}")
    return bad


def corpus_instance(idx: int) -> Instance:
    """Acceptance corpus instance idx of 0..999, from seed 0."""
    seed = child_seed(0, 41, idx)
    n = 1 + idx % 25
    m = (1, 2, 5)[idx % 3]
    release_max = 50 if idx % 5 == 4 else 0
    style = idx % 4
    if style == 0:
        return gen_mix(n, 10, seed, cores=m, release_max=release_max)
    mode = ("dense", "sparse", "combined")[style - 1]
    return gen_density(n, 10, mode, seed, cores=m, release_max=release_max)


def tiny_instance(idx: int) -> Instance:
    """Tiny acceptance instance idx of 0..199, from seed 0."""
    rng = np.random.default_rng(child_seed(0, 88, idx))
    if idx % 40 == 0:
        n, max_flows = 5, 1
    else:
        n, max_flows = 1 + idx % 4, 2
    m = 1 + idx % 2
    coflows = []
    for k in range(1, n + 1):
        count = int(rng.integers(1, max_flows + 1))
        demands: dict[tuple[int, int], int] = {}
        while len(demands) < count:
            pair = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            demands[pair] = int(rng.integers(1, 5))
        release = int(rng.integers(0, 7)) if idx % 2 else 0
        coflows.append(
            Coflow(id=k, release=release, weight=int(rng.integers(1, 11)), demands=demands)
        )
    return Instance(cores=m, ports=3, coflows=tuple(coflows))


def fb2010_text(seed, coflows=60, racks=150):
    """A seeded trace in the FB2010 text format; mapper racks may repeat."""
    rng = random.Random(seed)
    lines = [f"3000 {coflows}"]
    arrival = 0
    for cid in range(1, coflows + 1):
        arrival += rng.randint(0, 120_000)
        mappers = [rng.randint(1, racks) for _ in range(rng.randint(1, 12))]
        reducers = [
            f"{rng.randint(1, racks)}:{rng.uniform(0.1, 900):.1f}" for _ in range(rng.randint(1, 8))
        ]
        lines.append(
            f"{cid} {arrival} {len(mappers)} {' '.join(map(str, mappers))} "
            f"{len(reducers)} {' '.join(reducers)}"
        )
    return "\n".join(lines) + "\n"


def load_script(relative: str):
    """The repository's script at ``relative``, such as ``tools/ladder.py``, as a module."""
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
