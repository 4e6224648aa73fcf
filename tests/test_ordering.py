"""Primal-dual ordering: hand-run duals, branch selection, and invariants.

The worked values here were derived by executing the accumulator algorithm by
hand: each assertion pins one branch decision or one dual increment.
"""

import time

import pytest

from coflowsched.model import Coflow, Instance
from coflowsched.ordering import order_coflow_level, order_flow_level
from coflowsched.workload import gen_density, gen_mix

KAPPA = 0.5


def single(demands, release=0, weight=1, cores=1, ports=None):
    ports = ports or max(max(i, j) for i, j in demands)
    return Instance(
        cores=cores,
        ports=ports,
        coflows=(Coflow(id=1, release=release, weight=weight, demands=demands),),
    )


# --- worked single-coflow runs ---------------------------------------------


def test_single_coflow_beta_flow_level():
    # r=0 <= kappa*L/m = 2 -> beta branch; beta = 1/4, f({4}) = 16
    perm = order_flow_level(single({(1, 1): 4}), KAPPA)
    assert perm.order == [1]
    assert perm.dual_cost == pytest.approx(4.0, abs=1e-12)
    rec = perm.trace.records[0]
    assert rec.branch == "beta"
    assert rec.value == pytest.approx(0.25)


def test_single_coflow_beta_coflow_level():
    perm = order_coflow_level(single({(1, 1): 4}), KAPPA)
    assert perm.order == [1]
    assert perm.dual_cost == pytest.approx(4.0, abs=1e-12)


def test_single_coflow_alpha_both_levels():
    # r=10 > kappa*1/1 -> alpha branch, increment w*(r + d) = 11
    inst = single({(1, 1): 1}, release=10)
    for run in (order_flow_level, order_coflow_level):
        perm = run(inst, KAPPA)
        assert perm.order == [1]
        assert perm.trace.records[0].branch == "alpha"
        assert perm.dual_cost == pytest.approx(11.0, abs=1e-12)


def test_two_unit_coflows_worked_example():
    # Both coflows hold one unit flow on (1,1); w = 1, 2.
    # r=2: tie on sides -> output; beta, argmin{1/1, 2/1} = coflow 1 last,
    #      delta_2 <- 1, increment 1 * f({1,1}) = 3.
    # r=1: beta = (2-1)/1 = 1, increment 1 * f({1}) = 1. Total 4.
    inst = Instance(
        cores=1,
        ports=1,
        coflows=(
            Coflow(id=1, release=0, weight=1, demands={(1, 1): 1}),
            Coflow(id=2, release=0, weight=2, demands={(1, 1): 1}),
        ),
    )
    for run in (order_flow_level, order_coflow_level):
        perm = run(inst, KAPPA)
        assert perm.order == [2, 1]
        assert perm.dual_cost == pytest.approx(4.0, abs=1e-12)

    perm = order_flow_level(inst, KAPPA)
    last, first = perm.trace.records  # records go r=n..1
    assert last.r == 2 and last.coflow == 1 and last.side == "output"
    assert last.increment == pytest.approx(3.0)
    assert first.r == 1 and first.coflow == 2
    assert first.increment == pytest.approx(1.0)
    assert perm.trace.delta[2] == pytest.approx(1.0)


def test_side_tie_goes_to_output():
    # one flow: input total equals output total -> output side by strict >
    perm = order_flow_level(single({(2, 1): 6}, ports=2), KAPPA)
    assert perm.trace.records[0].side == "output"


def test_input_side_when_strictly_heavier():
    # input port 1 carries 5, each output port at most 3
    perm = order_flow_level(single({(1, 1): 3, (1, 2): 2}), KAPPA)
    assert perm.trace.records[0].side == "input"
    assert perm.trace.records[0].port == 1


def test_alpha_threshold_is_strict():
    # r = kappa * L / m exactly -> beta branch (strict > required)
    inst = single({(1, 1): 4}, release=2)  # kappa*L/m = 2
    perm = order_flow_level(inst, KAPPA)
    assert perm.trace.records[0].branch == "beta"
    inst = single({(1, 1): 4}, release=3)
    perm = order_flow_level(inst, KAPPA)
    assert perm.trace.records[0].branch == "alpha"


def test_alpha_increment_uses_bottleneck_peak_flow_level():
    # coflow with two flows from input 1: alpha credits r + max_j d_{1,j,k}
    inst = single({(1, 1): 3, (1, 2): 5}, release=100, weight=2)
    perm = order_flow_level(inst, KAPPA)
    assert perm.trace.records[0].branch == "alpha"
    assert perm.dual_cost == pytest.approx(2 * (100 + 5))


def test_alpha_increment_uses_port_load_coflow_level():
    inst = single({(1, 1): 3, (1, 2): 5}, release=100, weight=2)
    perm = order_coflow_level(inst, KAPPA)
    assert perm.dual_cost == pytest.approx(2 * (100 + 8))


def test_empty_instance():
    inst = Instance(cores=1, ports=1, coflows=())
    perm = order_flow_level(inst, KAPPA)
    assert perm.order == []
    assert perm.dual_cost == 0.0


def test_kappa_must_be_positive():
    inst = single({(1, 1): 1})
    # A bool, a string and None are no kappa: True would run as 1.
    for kappa in (0, -1, float("nan"), float("inf"), float("-inf"), 10**400, True, "0.5", None):
        for run in (order_flow_level, order_coflow_level):
            with pytest.raises(ValueError, match="kappa must be positive and finite"):
                run(inst, kappa)


def test_invalid_instance_rejected():
    inst = Instance(
        cores=1, ports=1, coflows=(Coflow(id=1, release=0, weight=0, demands={}),)
    )
    with pytest.raises(ValueError):
        order_flow_level(inst, KAPPA)


# --- invariants over random instances --------------------------------------


def corpus():
    out = []
    for idx in range(40):
        n = 1 + idx % 12
        m = (1, 2, 5)[idx % 3]
        rmax = 30 if idx % 4 == 0 else 0
        if idx % 2:
            out.append(gen_mix(n, 8, 1000 + idx, cores=m, release_max=rmax))
        else:
            mode = ("dense", "sparse", "combined")[idx % 3]
            out.append(gen_density(n, 6, mode, 2000 + idx, cores=m, release_max=rmax))
    return out


@pytest.mark.parametrize("run", [order_flow_level, order_coflow_level])
def test_permutation_is_bijection(run):
    for inst in corpus():
        perm = run(inst, KAPPA)
        assert sorted(perm.order) == list(range(1, inst.n + 1))


@pytest.mark.parametrize("run", [order_flow_level, order_coflow_level])
def test_slack_never_negative(run):
    # w_k - delta_k >= 0 for every unscheduled coflow at every iteration
    for inst in corpus():
        perm = run(inst, KAPPA)
        for rec in perm.trace.records:
            assert rec.min_slack >= -1e-9
            assert rec.value >= -1e-9


@pytest.mark.parametrize("run", [order_flow_level, order_coflow_level])
def test_tightness_at_selection(run):
    # alpha: value == w - delta; beta: value * bottleneck_load == w - delta
    for inst in corpus():
        perm = run(inst, KAPPA)
        for rec in perm.trace.records:
            if rec.branch == "alpha":
                assert rec.slack - rec.value == pytest.approx(0, abs=1e-9)
            else:
                assert rec.bottleneck_load > 0  # generated coflows have flows
                assert rec.slack - rec.value * rec.bottleneck_load == pytest.approx(
                    0, abs=1e-9
                )


@pytest.mark.parametrize("run", [order_flow_level, order_coflow_level])
def test_dual_cost_is_sum_of_increments(run):
    for inst in corpus():
        perm = run(inst, KAPPA)
        assert perm.dual_cost == pytest.approx(
            sum(r.increment for r in perm.trace.records), rel=1e-12
        )
        assert all(r.increment >= -1e-9 for r in perm.trace.records)


def test_beta_set_cost_obeys_observation_bound():
    # port_load^2 <= 2m * f(set at the port), Observations 2 and 4
    for inst in corpus():
        for run in (order_flow_level, order_coflow_level):
            perm = run(inst, KAPPA)
            for rec in perm.trace.records:
                if rec.branch == "beta":
                    assert rec.port_load**2 <= 2 * inst.cores * rec.set_cost + 1e-6


def test_granularities_share_the_permutation():
    # The branch and selection rules read the same loads at both levels;
    # only the credited increments differ.
    for inst in corpus():
        a = order_flow_level(inst, KAPPA)
        b = order_coflow_level(inst, KAPPA)
        assert a.order == b.order


def test_determinism():
    inst = gen_mix(12, 8, 77, cores=2)
    runs = [order_flow_level(inst, KAPPA) for _ in range(3)]
    assert runs[0].order == runs[1].order == runs[2].order
    assert runs[0].dual_cost == runs[1].dual_cost == runs[2].dual_cost


def test_zero_flow_coflows_take_the_fallback():
    inst = Instance(
        cores=1,
        ports=1,
        coflows=(
            Coflow(id=1, release=0, weight=5, demands={}),
            Coflow(id=2, release=0, weight=3, demands={}),
        ),
    )
    perm = order_flow_level(inst, KAPPA)
    assert sorted(perm.order) == [1, 2]
    assert perm.dual_cost == 0.0
    assert all(r.bottleneck_load == 0 for r in perm.trace.records)
    assert [r.branch for r in perm.trace.records] == ["fallback", "fallback"]
    # the fallback fills positions back to front with the smallest slack,
    # so the lighter coflow (w=3) lands at the back
    assert perm.order == [1, 2]


def test_weight_scaling_leaves_order_fixed():
    base = gen_mix(10, 8, 5, cores=2)
    scaled = Instance(
        cores=base.cores,
        ports=base.ports,
        coflows=tuple(
            Coflow(id=c.id, release=c.release, weight=c.weight * 7, demands=c.demands)
            for c in base.coflows
        ),
    )
    pa = order_flow_level(base, KAPPA)
    pb = order_flow_level(scaled, KAPPA)
    assert pa.order == pb.order
    assert pb.dual_cost == pytest.approx(7 * pa.dual_cost, rel=1e-9)


def test_moderate_instance_runs_fast():
    # O(n^2) loop with O(Nn) state: n=300 must come back in well under 5s
    inst = gen_mix(300, 10, 9, cores=5)
    t0 = time.perf_counter()
    perm = order_flow_level(inst, KAPPA)
    elapsed = time.perf_counter() - t0
    assert sorted(perm.order) == list(range(1, 301))
    assert elapsed < 5.0
