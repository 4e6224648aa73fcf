"""The ordering's port scans, counted.

Each ordering step needs the busiest port of each side. A side keeps its
busiest port from its last scan and scans its port totals again only when
that port's total has fallen. These tests guard that cost without timing
it: they count the ``max`` calls of ``ordering`` that get one list, the
port totals of one side, and bound them per step. A release-driven trace
places the latest-released coflow at most steps, which leaves the
bottleneck ports alone, so there the scans must be far fewer than the
steps.
"""

import pytest

from _shared import fb2010_text, load_script, tiny_instance
from coflowsched import ordering
from coflowsched.workload import DENSITY_MODES, gen_density, gen_mix, parse_trace

ORDERINGS = (ordering.order_flow_level, ordering.order_coflow_level)


@pytest.fixture
def scans(monkeypatch):
    """A list whose length is the number of port-total scans so far."""
    seen = []

    def counting_max(*args, **kwargs):
        if len(args) == 1 and not kwargs and type(args[0]) is list:
            seen.append(len(args[0]))
        return max(*args, **kwargs)

    monkeypatch.setattr(ordering, "max", counting_max, raising=False)
    return seen


def count_scans(scans, instance, kappa=0.5):
    """Scans made by each ordering of instance, one count per ordering."""
    counts = []
    for run in ORDERINGS:
        scans.clear()
        run(instance, kappa)
        counts.append(len(scans))
    return counts


def test_at_most_one_scan_per_side_and_step(scans):
    cases = [gen_mix(25, 10, seed, cores=5, release_max=50 * seed) for seed in range(6)]
    cases += [gen_density(15, 6, mode, 3, cores=2, release_max=100) for mode in DENSITY_MODES]
    cases += [tiny_instance(idx) for idx in range(0, 200, 7)]
    cases += [parse_trace(fb2010_text(seed), 150, seed, cores=5) for seed in range(3)]
    cases.append(load_script("tools/ladder.py").limit_instance(99, 9_999))
    for instance in cases:
        for kappa in (0.1, 0.5, 2.0):
            for count in count_scans(scans, instance, kappa):
                assert 2 <= count <= 2 * instance.n


def test_beta_steps_rescan_the_bottleneck_side(scans):
    # With no releases every step is a beta step, which lowers its
    # bottleneck port's total: the side scans again at the next step.
    for seed in range(3):
        instance = gen_mix(25, 10, seed, cores=5)
        for count in count_scans(scans, instance):
            assert instance.n + 1 <= count <= 2 * instance.n


def test_trace_scans_far_fewer_ports_than_steps(scans):
    # Seeds 0-9 read 17-25 scans over 60 steps, at both granularities.
    for seed in range(10):
        instance = parse_trace(fb2010_text(seed), 150, seed, cores=5)
        assert instance.n == 60
        for count in count_scans(scans, instance):
            assert count <= 30


def test_benchmark_trace_scans_far_fewer_ports_than_steps(scans):
    # perfbench's 526-coflow trace: seeds 0-4 read 20-38 scans over 526
    # steps at both granularities, where a scan per side and step makes 1,052.
    gen = load_script("perfbench/gen.py")
    for seed in range(5):
        instance = parse_trace(gen.fb2010_text(seed), gen.TRACE_RACKS, weight_seed=seed, cores=5)
        assert instance.n == gen.TRACE_COFLOWS
        for count in count_scans(scans, instance):
            assert count <= 60
