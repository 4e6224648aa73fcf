"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ref-sweep --seed 1 --seconds 25 --trace 0

The program is imported from the ``src`` directory beside this one. The run
sets up its inputs from the seed (three times, reporting the median), makes
one untimed warm-up pass on the reference seed and compares each operation
with the digests pinned in ``reference.json``, then runs timed passes on the
seeded inputs for ``--seconds``. With ``--trace 1`` it alternates untraced
and traced passes, reports the per-layer metrics of BENCHMARK.json and
writes the spans to ``perfbench/out/``; otherwise it reports the end-to-end
metrics, with times scaled to a reference host speed (see ``speed.py``).
Every metric is printed with its unit and direction, and the last line is
one JSON object. The exit code is 1 when any operation failed.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Pin BLAS pools before numpy loads: the benchmark runs on one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 3
MIN_PASSES = 3


def load_program() -> None:
    """Import the package from this checkout's sources, or exit with an error."""
    package = SRC / "coflowsched"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: coflowsched sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import coflowsched

    if Path(coflowsched.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported coflowsched from {coflowsched.__file__}")


class Gate:
    """Counts gated operations and keeps the first few problems for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note)

    def run_pass(self, wl, inputs, tracer, reference: list[str] | None):
        """One gated pass: (wall seconds, ops), ops None when the pass raised."""
        self.attempted += wl.ops_per_pass
        start = time.perf_counter()
        try:
            with tracer.span("bench.pass"):
                ops = wl.run_pass(inputs, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail(wl.ops_per_pass, "pass raised")
            return time.perf_counter() - start, None
        wall = time.perf_counter() - start
        if len(ops) != wl.ops_per_pass:
            self.fail(wl.ops_per_pass, f"pass made {len(ops)} operations")
            return wall, None
        for idx, op in enumerate(ops):
            if reference is not None and op.digest != reference[idx]:
                op.problems.append("result differs from the first pass on these inputs")
            if op.problems:
                self.fail(1, f"operation {idx}: {'; '.join(op.problems)}")
        return wall, ops


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def op_latencies(passes) -> list[float]:
    """Each operation's median latency over the passes, in seconds.

    Every operation repeats once per pass on the same input; percentiles are
    then taken across the operations.
    """
    per_op = zip(*(ops for _, _, ops, _, _ in passes))
    return [statistics.median(op.latency_s for op in repeats) for repeats in per_op]


def median_wall(passes) -> float:
    return statistics.median(wall for _, wall, _, _, _ in passes)


def measure(name: str, seed: int, seconds: float, trace: bool, import_s: float,
            min_passes: int = MIN_PASSES) -> dict:
    """Run one workload; returns the metric values and the gate's tallies."""
    import speed
    from tracer import NullTracer, Tracer, traced_layers
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    # Set-up is scaled by probes taken around it, not by those of the passes.
    setup_probes: list[float] = []
    speed.sample(setup_probes)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.setup(seed)
        setups.append(time.perf_counter() - start)
    speed.sample(setup_probes)
    raw_setup_s = import_s + statistics.median(setups)
    setup_s = raw_setup_s * speed.scale(setup_probes)

    gate = Gate()
    untraced = NullTracer()
    # Warm-up on the reference seed, checked against the pinned digests.
    _, warm_ops = gate.run_pass(wl, wl.setup(REFERENCE_SEED), untraced, None)
    pinned = json.loads(REFERENCE.read_text())["workloads"][name]
    got = [op.digest for op in warm_ops] if warm_ops else []
    mismatches = sum(a != b for a, b in zip(got, pinned)) + abs(len(got) - len(pinned))

    probes: list[float] = []
    speed.sample(probes)
    tracer = Tracer() if trace else None
    need = min_passes + min_passes % 2 if trace else min_passes
    first: list[str] | None = None
    passes = []  # (traced, wall, ops, first span, last span)
    began = time.perf_counter()
    while len(passes) < need or time.perf_counter() - began + passes[-1][1] <= seconds:
        traced = trace and len(passes) % 2 == 1
        if traced:
            lo = len(tracer.spans)
            with traced_layers(tracer):
                wall, ops = gate.run_pass(wl, inputs, tracer, first)
            passes.append((True, wall, ops, lo, len(tracer.spans)))
        else:
            wall, ops = gate.run_pass(wl, inputs, untraced, first)
            passes.append((False, wall, ops, 0, 0))
        speed.sample(probes)
        if first is None and ops is not None:
            first = [op.digest for op in ops]

    good = [p for p in passes if p[2] is not None]
    plain = [p for p in good if not p[0]]
    if not plain or (trace and len(good) == len(plain)):
        return {"gate": gate, "metrics": {}, "info": {}}
    ops_first = good[0][2]
    info = {
        "pass_s": " ".join(f"{'t' if p[0] else ''}{p[1]:.3f}" for p in passes),
        "reference_checked": len(pinned),
        "reference_mismatches": mismatches,
        "error_rate": gate.failed / gate.attempted,
        "ratio_mean": statistics.fmean(op.ratio for op in ops_first),
    }
    if not trace:
        # Host seconds scaled to the reference host speed (see speed.py).
        scale = speed.scale(probes)
        latencies = [t * scale for t in op_latencies(plain)]
        wall = median_wall(plain) * scale
        info["host_scale"] = scale
        info["raw_wall_s"] = median_wall(plain)
        info["raw_setup_s"] = raw_setup_s
        info["pipeline_samples"] = f"{len(latencies)} operations x {len(plain)} repeats"
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "instances_per_s": len(ops_first) / wall,
            "flows_per_s": sum(op.flows for op in ops_first) / wall,
            "schedules_per_s": sum(op.schedules for op in ops_first) / wall,
            "pipeline_p50_ms": statistics.median(latencies) * 1e3,
            "pipeline_p95_ms": percentile(latencies, 95) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ratio_mean": info["ratio_mean"],
            "reference_match_rate": 1 - mismatches / len(pinned),
            "success_rate": 1 - gate.failed / gate.attempted,
        }
        return {"gate": gate, "metrics": values, "info": info}

    values = layer_metrics(wl, inputs, tracer, [p for p in good if p[0]], ops_first)
    values["trace.overhead_frac"] = (
        median_wall([p for p in good if p[0]]) / median_wall(plain) - 1
    )
    values["bench.setup_ms"] = setup_s * 1e3
    tracer.write(BENCH_DIR / "out" / f"spans-{name}-seed{seed}.csv.gz")
    return {"gate": gate, "metrics": values, "info": info}


def layer_metrics(wl, inputs, tracer, traced_passes, ops) -> dict:
    """Per-layer self times (median over traced passes) and per-pass counts."""
    from tracer import LAYERS

    own = tracer.self_seconds()
    per_pass = []
    for _, wall, _, lo, hi in traced_passes:
        self_s = {name: 0.0 for name in LAYERS}
        calls = {name: 0 for name in LAYERS}
        harness = 0.0
        for idx in range(lo, hi):
            name = tracer.spans[idx][0]
            if name in self_s:
                self_s[name] += own[idx]
                calls[name] += 1
            else:
                harness += own[idx]
        per_pass.append((wall, self_s, calls, harness))

    def med(fn):
        return statistics.median(fn(*p) for p in per_pass)

    values = {f"{name}.self_ms": med(lambda w, s, c, h, n=name: s[n] * 1e3) for name in LAYERS}
    if hasattr(wl, "timeline_counts"):
        segments, events = wl.timeline_counts(inputs)
    else:
        segments, events = sum(op.segments for op in ops), sum(op.events for op in ops)
    flows = sum(op.flows for op in ops)
    alpha = sum(op.alpha for op in ops)
    beta = sum(op.beta for op in ops)
    simulate_us = values["scheduling.simulate.self_ms"] * 1e3
    calls = sum(op.schedules for op in ops)
    order_us = (
        values["ordering.order_flow_level.self_ms"] + values["ordering.order_coflow_level.self_ms"]
    ) * 1e3
    values.update(
        {
            "scheduling.simulate.calls": calls,
            "scheduling.simulate.us_per_call": simulate_us / calls,
            "scheduling.simulate.us_per_flow": simulate_us / flows,
            "scheduling.simulate.segments": segments,
            "scheduling.simulate.preemptions": segments - flows if segments else 0,
            "scheduling.simulate.events": events,
            "scheduling.audit_schedule.us_per_segment": (
                values["scheduling.audit_schedule.self_ms"] * 1e3 / segments if segments else 0.0
            ),
            "ordering.alpha_steps": alpha,
            "ordering.beta_steps": beta,
            "ordering.us_per_step": order_us / (alpha + beta),
            "model.loads_instance.calls": per_pass[0][2]["model.loads_instance"],
            "oracle.schedules_examined": sum(op.examined for op in ops),
            "bench.pass_ms": med(lambda w, s, c, h: w * 1e3),
            "bench.self_ms": med(lambda w, s, c, h: h * 1e3),
        }
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    load_program()
    import numpy

    import_s = time.perf_counter() - START
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    gate = result["gate"]

    print(
        f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace} | python {platform.python_version()} numpy "
        f"{numpy.__version__} nproc {len(os.sched_getaffinity(0))}"
    )
    for note in gate.notes:
        print(f"# FAILED {note}")
    for key, value in result["info"].items():
        print(f"# {key} {value}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if result["metrics"] and {m["name"] for m in declared} != set(result["metrics"]):
        raise SystemExit("error: computed metrics differ from those BENCHMARK.json declares")
    out = {}
    for m in declared:
        if m["name"] not in result["metrics"]:
            continue
        value = result["metrics"][m["name"]]
        print(f"{m['name']} = {value!r} {m['unit']} ({m['better']} is better)")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = gate.failed == 0 and bool(out)
    print(
        json.dumps(
            {"correct": correct, "attempted": gate.attempted, "failed": gate.failed, "metrics": out}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
