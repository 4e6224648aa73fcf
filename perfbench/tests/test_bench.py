"""Tests of the benchmark itself: inputs, gate, tracer and repeatability.

    python3 -m pytest perfbench/tests -q

The repeatability test runs every workload twice (about two minutes).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import workloads
from coflowsched import experiments, model, scheduling, workload
from tracer import NullTracer, Tracer, traced_layers


def test_fb2010_text_parses_and_repeats_byte_for_byte():
    text = gen.fb2010_text(3)
    assert gen.fb2010_text(3) == text
    assert gen.fb2010_text(4) != text
    assert text.splitlines()[0] == "3000 526"
    instance = workload.parse_trace(text, gen.TRACE_RACKS, weight_seed=3, cores=5)
    other = workload.parse_trace(gen.fb2010_text(4), gen.TRACE_RACKS, weight_seed=4, cores=5)
    assert instance.n == 526 and instance.ports == 150
    assert instance.flow_count == other.flow_count
    releases = [c.release for c in instance.coflows]
    assert releases == sorted(releases) and releases[-1] > releases[0]


def test_generators_fix_the_work_per_seed():
    a, b = (gen.stratified_mix(70, 30, seed, cores=5) for seed in (1, 2))
    assert a.flow_count == b.flow_count
    assert model.dumps_instance(a) != model.dumps_instance(b)
    assert model.validate(a) == []

    def schedules(instances):
        return sum(
            math.factorial(i.n) * (i.cores ** i.flow_count + i.cores ** i.n) for i in instances
        )

    small = gen.oracle_instances(1)
    assert len(small) == workloads.Oracle.ops_per_pass // 2 == 100
    assert schedules(small) == schedules(gen.oracle_instances(2))
    assert all(model.validate(i) == [] for i in small)
    assert any(c.release for c in small[1].coflows)


def test_dual_problems_flag_each_check():
    instance = workload.gen_mix(6, 4, seed=1, cores=2)
    perm = workloads._order(instance, "flow")
    assert workloads._dual_problems(perm, perm.dual_cost) == []
    assert workloads._dual_problems(perm, perm.dual_cost * 0.5)
    perm.trace.records[0].min_slack = -1e-6
    assert workloads._dual_problems(perm, perm.dual_cost)


class _OneOp:
    ops_per_pass = 1

    def __init__(self, digest, problems=()):
        self.op = workloads.Op(0.0, digest, 1.0, 1, 1, 0, 0, 1, problems=list(problems))

    def run_pass(self, inputs, tracer):
        return [self.op]


def test_gate_counts_failed_checks_and_drift():
    gate = run.Gate()
    gate.run_pass(_OneOp("a"), None, NullTracer(), ["a"])
    assert (gate.attempted, gate.failed) == (1, 0)
    gate.run_pass(_OneOp("a", ["audit: overlap"]), None, NullTracer(), None)
    gate.run_pass(_OneOp("b"), None, NullTracer(), ["a"])
    assert (gate.attempted, gate.failed) == (3, 2)


def test_self_times_subtract_children_and_wrappers_restore():
    tracer = Tracer()
    original = scheduling.simulate
    instance = workload.gen_mix(5, 4, seed=2, cores=2)
    with traced_layers(tracer):
        assert experiments.simulate is not original
        with tracer.operation():
            experiments.run_pipeline(instance, "flow", 0.5)
    assert scheduling.simulate is original and experiments.simulate is original
    names = [span[0] for span in tracer.spans]
    assert names[0] == "bench.op" and "model.validate" in names
    assert {span[4] for span in tracer.spans} == {1}
    own = tracer.self_seconds()
    assert all(t >= 0 for t in own)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(own) == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_and_ratios_repeat_exactly(name):
    first, second = (
        run.measure(name, seed=1, seconds=0, trace=True, import_s=0.0, min_passes=1)
        for _ in range(2)
    )
    for result in (first, second):
        assert result["gate"].failed == 0, result["gate"].notes
        assert result["info"]["reference_mismatches"] == 0
        assert result["info"]["reference_checked"] > 0
    assert first["info"]["ratio_mean"] == second["info"]["ratio_mean"]
    counts = [
        key for key in first["metrics"]
        if key.endswith((".calls", "_steps", ".segments", ".preemptions", ".events"))
        or key == "oracle.schedules_examined"
    ]
    assert len(counts) == 8
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    # One traced pass: the self times, the benchmark's own included, add up to it.
    m = first["metrics"]
    own = sum(value for key, value in m.items() if key.endswith(".self_ms"))
    assert own == pytest.approx(m["bench.pass_ms"], rel=1e-3)
    PURPOSE[name](m)


def _large(m):
    assert m["scheduling.simulate.self_ms"] > 0.8 * m["bench.pass_ms"]
    assert m["ordering.alpha_steps"] == 0 and m["scheduling.simulate.preemptions"] > 0
    assert m["scheduling.audit_schedule.self_ms"] == 0


def _trace_audit(m):
    assert m["ordering.alpha_steps"] > 0.9 * (m["ordering.alpha_steps"] + m["ordering.beta_steps"])
    assert m["scheduling.audit_schedule.self_ms"] > 0 and m["workload.parse_trace.self_ms"] > 0


def _oracle(m):
    assert m["scheduling.simulate.calls"] == m["oracle.schedules_examined"] > 50_000
    assert m["scheduling.audit_schedule.self_ms"] == 0


def _ref_sweep(m):
    assert m["scheduling.simulate.calls"] == 200 and m["workload.gen_mix.self_ms"] > 0
    assert m["scheduling.audit_schedule.self_ms"] == 0


PURPOSE = {"large": _large, "trace-audit": _trace_audit, "oracle": _oracle, "ref-sweep": _ref_sweep}


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
