"""The four benchmark workloads.

Each workload builds its inputs from a seed (``setup``) and runs one pass
over them (``run_pass``), calling the package only through its public
module functions. A pass is a list of operations; an operation is one
instance at one granularity. Every operation is checked as it completes:
its problems list is empty when it passed the correctness gate.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

from coflowsched import experiments, metrics, model, oracle, ordering, scheduling, workload

import gen
from tracer import swap

GRANULARITIES = ("flow", "coflow")
TOL = 1e-9
CORES = 5


@dataclass
class Op:
    """What one operation produced, reduced to what the metrics need."""

    latency_s: float
    digest: str
    ratio: float
    flows: int  # flows simulated, summed over every simulate call
    schedules: int  # simulate calls
    examined: int  # schedules enumerate_best examined
    alpha: int
    beta: int
    segments: int = 0
    events: int = 0
    problems: list[str] = field(default_factory=list)


def _digest(*parts) -> str:
    # json writes floats with repr, so equal digests mean bit-equal values.
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def _order(instance, granularity):
    if granularity == "flow":
        return ordering.order_flow_level(instance)
    return ordering.order_coflow_level(instance)


def _assign(instance, perm, granularity):
    if granularity == "flow":
        return scheduling.assign_fdls(instance, perm)
    return scheduling.assign_cdls(instance, perm)


def _dual_problems(perm, objective: float) -> list[str]:
    problems = []
    if not perm.dual_cost <= objective + TOL:
        problems.append(f"dual {perm.dual_cost!r} above objective {objective!r}")
    slack = min((rec.min_slack for rec in perm.trace.records), default=0.0)
    if slack < -TOL:
        problems.append(f"dual trace min_slack {slack!r}")
    return problems


def _steps(perm) -> tuple[int, int]:
    alpha = sum(rec.branch == "alpha" for rec in perm.trace.records)
    return alpha, len(perm.trace.records) - alpha


def _count_timeline(timeline) -> tuple[int, int]:
    """(segments, distinct segment endpoints) of a simulated timeline."""
    return len(timeline), len({t for seg in timeline for t in (seg.start, seg.end)})


def schedule_op(latency_s, granularity, instance, perm, result) -> Op:
    """Gate and digest one order / assign / simulate run."""
    alpha, beta = _steps(perm)
    return Op(
        latency_s=latency_s,
        digest=_digest(
            granularity,
            perm.order,
            perm.dual_cost,
            result.objective,
            sorted(result.coflow_completion.items()),
        ),
        ratio=metrics.ratio(result.objective, perm.dual_cost),
        flows=instance.flow_count,
        schedules=1,
        examined=0,
        alpha=alpha,
        beta=beta,
        problems=_dual_problems(perm, result.objective),
    )


class RefSweep:
    """``run_experiment`` on the box config (gen_mix n=25 N=10 m=5, 100 instances)."""

    name = "ref-sweep"
    ops_per_pass = 2 * 100

    def setup(self, seed: int) -> int:
        # run_experiment generates its instances from the config seed.
        return seed

    def run_pass(self, seed: int, tracer) -> list[Op]:
        ops: list[Op] = []
        with self._probe(ops, tracer):
            for granularity in GRANULARITIES:
                config = experiments.default_config("box", granularity, seed=seed)
                experiments.run_experiment(config)
        return ops

    @contextmanager
    def _probe(self, ops, tracer):
        """Time and gate each run_pipeline call that run_experiment makes."""
        perms = []

        def capture(fn):
            def captured(*args, **kwargs):
                perms.append(fn(*args, **kwargs))
                return perms[-1]

            return captured

        with ExitStack() as stack:
            for attr in ("order_flow_level", "order_coflow_level"):
                stack.enter_context(swap(experiments, attr, capture(getattr(experiments, attr))))
            run_pipeline = experiments.run_pipeline

            def timed(instance, granularity, kappa):
                perms.clear()
                with tracer.operation():
                    start = time.perf_counter()
                    out = run_pipeline(instance, granularity, kappa)
                    latency = time.perf_counter() - start
                    ops.append(schedule_op(latency, granularity, instance, perms[-1], out[3]))
                return out

            stack.enter_context(swap(experiments, "run_pipeline", timed))
            yield


class Large:
    """One congested mix instance (4,372 flows), from canonical JSON text."""

    name = "large"
    ops_per_pass = 2

    def setup(self, seed: int) -> str:
        return model.dumps_instance(gen.stratified_mix(45, 30, seed, cores=CORES))

    def run_pass(self, text: str, tracer) -> list[Op]:
        ops = []
        for granularity in GRANULARITIES:
            with tracer.operation():
                start = time.perf_counter()
                instance = model.loads_instance(text)
                perm = _order(instance, granularity)
                result = scheduling.simulate(instance, perm, _assign(instance, perm, granularity))
                latency = time.perf_counter() - start
                ops.append(schedule_op(latency, granularity, instance, perm, result))
        return ops

    def timeline_counts(self, text: str) -> tuple[int, int]:
        """Segments and events of one pass, from an untimed run with the timeline on."""
        instance = model.loads_instance(text)
        segments = events = 0
        for granularity in GRANULARITIES:
            perm = _order(instance, granularity)
            assignment = _assign(instance, perm, granularity)
            result = scheduling.simulate(instance, perm, assignment, emit_timeline=True)
            s, e = _count_timeline(result.timeline)
            segments, events = segments + s, events + e
        return segments, events


class TraceAudit:
    """A synthetic FB2010-format trace, both pipelines with timelines, then the audit."""

    name = "trace-audit"
    ops_per_pass = 2

    def setup(self, seed: int) -> tuple[int, str]:
        return seed, gen.fb2010_text(seed)

    def run_pass(self, inputs: tuple[int, str], tracer) -> list[Op]:
        seed, text = inputs
        instance = workload.parse_trace(text, gen.TRACE_RACKS, weight_seed=seed, cores=CORES)
        ops = []
        for granularity in GRANULARITIES:
            with tracer.operation():
                start = time.perf_counter()
                perm = _order(instance, granularity)
                assignment = _assign(instance, perm, granularity)
                result = scheduling.simulate(instance, perm, assignment, emit_timeline=True)
                bad = scheduling.audit_schedule(instance, perm, assignment, result)
                latency = time.perf_counter() - start
                op = schedule_op(latency, granularity, instance, perm, result)
                op.segments, op.events = _count_timeline(result.timeline)
                op.problems += [f"audit: {line}" for line in bad[:3]]
                ops.append(op)
        return ops


class Oracle:
    """enumerate_best at both granularities over 100 tiny instances."""

    name = "oracle"
    ops_per_pass = 2 * sum(shape[-1] for shape in gen.ORACLE_SHAPES)

    def setup(self, seed: int):
        return gen.oracle_instances(seed)

    def run_pass(self, instances, tracer) -> list[Op]:
        ops = []
        for instance in instances:
            for granularity in GRANULARITIES:
                with tracer.operation():
                    start = time.perf_counter()
                    perm = _order(instance, granularity)
                    best = oracle.enumerate_best(instance, granularity)
                    latency = time.perf_counter() - start
                    alpha, beta = _steps(perm)
                    ops.append(
                        Op(
                            latency_s=latency,
                            digest=_digest(
                                granularity,
                                perm.order,
                                perm.dual_cost,
                                best.best_cost,
                                best.best_order,
                                sorted(best.best_assignment.items()),
                                best.schedules_examined,
                            ),
                            ratio=metrics.ratio(best.best_cost, perm.dual_cost),
                            flows=best.schedules_examined * instance.flow_count,
                            schedules=best.schedules_examined,
                            examined=best.schedules_examined,
                            alpha=alpha,
                            beta=beta,
                            # The dual must not exceed the best schedule of its
                            # own granularity.
                            problems=_dual_problems(perm, best.best_cost),
                        )
                    )
        return ops


WORKLOADS = {w.name: w for w in (RefSweep(), Large(), TraceAudit(), Oracle())}
