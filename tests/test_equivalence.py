"""Pinned end-to-end digests: refactors must keep schedules byte-identical.

Each digest covers, for every instance of a seeded corpus, the processing
order, the dual cost, the objective, the coflow completions and the full
timeline of one granularity's pipeline. The pinned values were computed
before the flow-table refactor; a change that moves any of them changes
observable output and must say why.
"""

import hashlib
import json

import pytest

from coflowsched.cli import main
from coflowsched.model import dumps_instance
from coflowsched.ordering import order_coflow_level, order_flow_level
from coflowsched.scheduling import assign_cdls, assign_fdls, audit_schedule, simulate
from coflowsched.workload import gen_density, gen_mix

KAPPA = 0.5

PINNED = {
    "flow": "19da9fcda744e27850eb751b3bb3ac0e33df6a87278808562202da03863f16fc",
    "coflow": "8a5839479fa865b8932f28e520533a8f334ffd0e6bfec084732ec7adddad2d7d",
}

STAGES = {
    "flow": (order_flow_level, assign_fdls),
    "coflow": (order_coflow_level, assign_cdls),
}


def corpus():
    for seed in range(30):
        yield gen_mix(10, 6, seed, cores=3, release_max=50 if seed % 2 else 0)
    for seed in range(30):
        yield gen_density(10, 6, "combined", 1000 + seed, cores=3)


@pytest.mark.parametrize("granularity", sorted(PINNED))
def test_pipeline_digest_is_pinned(granularity):
    order_fn, assign_fn = STAGES[granularity]
    digest = hashlib.sha256()
    for instance in corpus():
        perm = order_fn(instance, KAPPA)
        assignment = assign_fn(instance, perm)
        result = simulate(instance, perm, assignment, emit_timeline=True)
        assert audit_schedule(instance, perm, assignment, result) == []
        doc = [
            perm.order,
            perm.dual_cost,
            result.objective,
            sorted(result.coflow_completion.items()),
            [[s.start, s.end, *s.flow, s.core] for s in result.timeline],
        ]
        # json writes floats with repr, so equal digests mean bit-equal values.
        digest.update(json.dumps(doc).encode() + b"\n")
    assert digest.hexdigest() == PINNED[granularity]


# Dual-trace digests, pinned before the ordering was rewritten without numpy.
# They cover the ``order --emit-trace`` JSONL bytes, the order document and
# ``trace.delta`` of a release-heavy instance (mostly alpha steps) and a
# release-free one (beta steps only).
PINNED_TRACE = {
    "flow": "b8248520c0c9d1aa8668f2cf6e1ef82d8b3071ff7eb11d1768aa3d751ca12032",
    "coflow": "bf5167c1f96456312fb3b6b7e605299c5d51cb2a2411081e1cac6b160e5b12f5",
}

TRACE_INSTANCES = {
    "alpha": gen_mix(30, 8, 7, cores=3, release_max=2000),
    "beta": gen_density(30, 8, "combined", 11, cores=3),
}


@pytest.mark.parametrize("granularity", sorted(PINNED_TRACE))
def test_dual_trace_digest_is_pinned(tmp_path, capsys, granularity):
    order_fn = STAGES[granularity][0]
    digest = hashlib.sha256()
    for name, instance in sorted(TRACE_INSTANCES.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(dumps_instance(instance))
        out = tmp_path / name
        code = main(
            ["order", str(path), "--granularity", granularity, "--emit-trace", "--out", str(out)]
        )
        assert code == 0 and capsys.readouterr().err == ""
        digest.update((out / f"order_{granularity}.json").read_bytes())
        digest.update((out / f"dual_trace_{granularity}.jsonl").read_bytes())
        delta = order_fn(instance, KAPPA).trace.delta
        digest.update(json.dumps(list(delta.items())).encode() + b"\n")
    assert digest.hexdigest() == PINNED_TRACE[granularity]
