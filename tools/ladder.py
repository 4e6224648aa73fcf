"""Print the per-layer instance ladder of ROADMAP.md as JSON.

    python3 tools/ladder.py [--src DIR]

Each row is one seeded instance (seed 0, m=5): ``gen_mix`` at n=25 N=10,
``gen_density(..., "dense")`` at n=25 N=10, and ``gen_mix`` at n=200 N=50,
once with every release at 0 and once with releases drawn up to
``RELEASE_MAX``, about the n=200 instance's busiest port load over m, so that
most ordering steps take the release-driven (alpha) branch. The last row
sits at the table-cell limit: 99 coflows of 1-4 flows each on 9,999 ports,
so (n + 1) x (ports + 1) is ``MAX_TABLE_CELLS``, drawn with
``random.Random(SEED)``.
For each it times every layer of the pipeline on its own, ``REPEATS`` times,
and reports the median in ms: the generator call that builds the row's
instance, with its validation and table compile, then validate, the table
compile alone (validation stubbed out), the build of the table's ``keys``
view of ``FlowKey`` rows on a fresh table, order at flow and coflow level
(F/C), FDLS and CDLS placement, simulate without and with the timeline
(F/C), the audit (F/C), and the build of the ``result.timeline`` view of
``Segment`` tuples on a fresh result (F/C), so that the cost of the
timeline, the cost that its view defers to the first read, and the audit's
cost against the simulation it checks read off one run. ``table_peak_kb`` is
the ``tracemalloc`` peak of one more, untimed compile. ``flows`` is read
from the table's columns, so that no row builds the ``keys`` view before it
is timed. ``horizon`` is the table's latest release plus total size, and
``fill`` the fill ``simulate`` takes for it: ``bits`` (port bit sets, up to
``scheduling.BIT_HORIZON``) or ``runs`` (sorted busy-run lists).
One more row times ``oracle.enumerate_best`` at both granularities on a
seeded instance at the oracle's caps: n=6 on N=3 ports and m=2 cores, with 8
flows, so 720 x 256 pairs at flow level. Beside each granularity's pairs,
``core_runs`` counts the per-core runs (fills) of one more, untimed call.
``--src`` imports ``coflowsched`` from another checkout's ``src``, so two
trees can be compared by running the script on each in turn. Times are
wall clock on whatever host runs it; the benchmark in ``perfbench/`` is the
measure of record.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import platform
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = (
    ("mix n=25 N=10", "mix", 25, 10),
    ("dense n=25 N=10", "dense", 25, 10),
    ("mix n=200 N=50", "mix", 200, 50),
    ("mix n=200 N=50 releases", "release", 200, 50),
    ("limit n=99 N=9999", "limit", 99, 9_999),
)
SEED, CORES, KAPPA, REPEATS = 0, 5, 0.5, 3
RELEASE_MAX = 90_000
ORACLE_ROW = "oracle n=6 N=3 m=2"


def timed(fn, repeats: int):
    """(median ms, last result) of ``repeats`` calls of fn()."""
    times, out = [], None
    for _ in range(repeats):
        # Collect what earlier layers left, so their garbage is not timed here.
        gc.collect()
        start = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - start) * 1e3)
    return round(statistics.median(times), 3), out


def limit_instance(n: int, ports: int):
    """n coflows of 1-4 flows each on distinct random port pairs, sizes 1-100."""
    from coflowsched.model import Coflow, Instance

    rng = random.Random(SEED)
    coflows = []
    for k in range(1, n + 1):
        demands: dict = {}
        count = rng.randint(1, 4)
        while len(demands) < count:
            demands[rng.randint(1, ports), rng.randint(1, ports)] = rng.randint(1, 100)
        coflows.append(Coflow(k, 0, rng.randint(1, 10), demands))
    return Instance(cores=CORES, ports=ports, coflows=tuple(coflows))


def peak_kb(fn) -> float:
    """The ``tracemalloc`` peak of one call of fn(), in KiB."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 1024, 1)
    finally:
        tracemalloc.stop()


def ladder_row(kind: str, n: int, ports: int, repeats: int) -> dict:
    from coflowsched import model
    from coflowsched.ordering import order_coflow_level, order_flow_level
    from coflowsched.scheduling import assign_cdls, assign_fdls, audit_schedule, simulate
    from coflowsched.workload import gen_density, gen_mix

    def generate():
        if kind in ("mix", "release"):
            release_max = RELEASE_MAX if kind == "release" else 0
            return gen_mix(n, ports, SEED, cores=CORES, release_max=release_max)
        if kind == "limit":
            instance = limit_instance(n, ports)
            instance.table  # validated and compiled, as the generators return theirs
            return instance
        return gen_density(n, ports, "dense", SEED, cores=CORES)

    generate_ms, instance = timed(generate, repeats)
    row: dict = {"flows": len(instance.table.fi), **fill_of(instance), "repeats": repeats}
    row["generate_ms"] = generate_ms
    row["validate_ms"], _ = timed(lambda: model.validate(instance), repeats)

    def compile_table():
        return dataclasses.replace(instance).table

    require_valid = model.require_valid
    model.require_valid = lambda _: None
    try:
        row["table_ms"], _ = timed(compile_table, repeats)
        row["table_peak_kb"] = peak_kb(compile_table)
    finally:
        model.require_valid = require_valid
    fresh_tables = iter([compile_table() for _ in range(repeats)])
    row["keys_view_ms"], _ = timed(lambda: next(fresh_tables).keys, repeats)
    # Built here, so that the first timeline view below does not time it.
    instance.table.keys

    for tag, order_fn, assign_fn in (
        ("flow", order_flow_level, assign_fdls),
        ("coflow", order_coflow_level, assign_cdls),
    ):
        row[f"order_{tag}_ms"], perm = timed(lambda: order_fn(instance, KAPPA), repeats)
        row[f"{assign_fn.__name__}_ms"], asg = timed(lambda: assign_fn(instance, perm), repeats)
        row[f"simulate_no_timeline_{tag}_ms"], _ = timed(
            lambda: simulate(instance, perm, asg), repeats
        )
        row[f"simulate_{tag}_ms"], res = timed(
            lambda: simulate(instance, perm, asg, emit_timeline=True), repeats
        )
        row[f"audit_{tag}_ms"], bad = timed(
            lambda: audit_schedule(instance, perm, asg, res), repeats
        )
        if bad:
            raise SystemExit(f"error: audit of {kind} n={n} ({tag}) failed: {bad[0]}")
        fresh = iter([simulate(instance, perm, asg, emit_timeline=True) for _ in range(repeats)])
        row[f"timeline_view_{tag}_ms"], _ = timed(lambda: next(fresh).timeline, repeats)
    return row


def fill_of(instance) -> dict:
    """The table's horizon and the fill ``simulate`` takes for it."""
    from coflowsched import scheduling

    table = instance.table
    bits = scheduling._fill(table) is scheduling._fill_bits
    return {"horizon": table.horizon, "fill": "bits" if bits else "runs"}


def oracle_instance():
    """n=6, N=3, m=2 with 8 flows: one per coflow and two more on random ones."""
    from coflowsched.model import Coflow, Instance

    rng = random.Random(SEED)
    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    demands: list[dict] = [{} for _ in range(6)]
    for k in [*range(6), rng.randrange(6), rng.randrange(6)]:
        pair = rng.choice([p for p in pairs if p not in demands[k]])
        demands[k][pair] = rng.randint(1, 4)
    coflows = tuple(
        Coflow(k + 1, rng.randint(0, 6), rng.randint(1, 10), demands[k]) for k in range(6)
    )
    return Instance(cores=2, ports=3, coflows=coflows)


def core_runs(instance, granularity: str) -> int:
    """Per-core runs of one more, untimed ``enumerate_best`` call, counted by
    wrapping ``oracle._run_core``."""
    from coflowsched import oracle

    calls = 0
    run_core = oracle._run_core

    def counted(table, fill, rows, out, ports):
        nonlocal calls
        calls += 1
        run_core(table, fill, rows, out, ports)

    oracle._run_core = counted
    try:
        oracle.enumerate_best(instance, granularity)
    finally:
        oracle._run_core = run_core
    return calls


def oracle_row(repeats: int) -> dict:
    from coflowsched.oracle import enumerate_best

    instance = oracle_instance()
    row: dict = {"flows": len(instance.table.fi), **fill_of(instance), "repeats": repeats}
    for tag in ("flow", "coflow"):
        row[f"oracle_{tag}_ms"], best = timed(lambda: enumerate_best(instance, tag), repeats)
        row[f"pairs_{tag}"] = best.schedules_examined
        row[f"core_runs_{tag}"] = core_runs(instance, tag)
    return row


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy

    import coflowsched

    out = {
        "src": str(Path(coflowsched.__file__).resolve().parent.parent),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": SEED,
        "cores": CORES,
        "rows": {},
    }
    for label, kind, n, ports in ROWS:
        out["rows"][label] = ladder_row(kind, n, ports, REPEATS)
    out["rows"][ORACLE_ROW] = oracle_row(REPEATS)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
