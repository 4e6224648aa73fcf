"""The dual certificate of both orderings, rebuilt exactly.

Each ordering step raises one dual variable and places one coflow. An alpha
step raises the chosen coflow's own variable, which charges ``value`` to
that coflow and adds ``value x (release + head)`` to the dual objective;
the head is the coflow's largest flow at the bottleneck port at flow level
and its load there at coflow level. A beta step raises the variable of the
bottleneck port and the set S of coflows still unplaced, ``order[:r]``. It
charges ``value x L_pk`` to every coflow k of S with load L_pk at that port
and adds ``value x (A_p(S) + L_p(S)^2) / (2m)``, where L_p(S) is the load of
S at the port and A_p(S) the sum of its squared flow sizes at flow level or
of its squared coflow loads at coflow level. A fallback step raises nothing.

The test rebuilds that solution in ``fractions.Fraction`` from the instance's
coflows, ``perm.order`` and each record's ``r``, ``coflow``, ``branch``,
``side``, ``port`` and ``value``, and reads none of the ordering's own
slack, delta, increment or set cost. The solution is feasible when no
coflow is charged more than its weight; the float sums may pass it by a
rounding, so the weight is allowed a factor of 1 + 1e-15 and no more. The
rebuilt objective must match ``dual_cost`` to 1e-14 relative.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from _shared import corpus_instance, fb2010_text, load_script
from coflowsched.model import MAX_PORT_TOTAL, Coflow, Instance, validate
from coflowsched.ordering import order_coflow_level, order_flow_level
from coflowsched.workload import gen_mix, parse_trace

ORDERINGS = {"flow": order_flow_level, "coflow": order_coflow_level}
SIDES = ("input", "output")
LOAD_MARGIN = 1 + Fraction(1, 10**15)
OBJECTIVE_TOL = Fraction(1, 10**14)


def port_cells(instance):
    """Per coflow and side, {port: [load, squared flow sizes, largest flow]}."""
    cells = {}
    for c in instance.coflows:
        own = cells[c.id] = ({}, {})
        for (i, j), d in c.demands.items():
            for side, port in zip(own, (i, j)):
                cell = side.setdefault(port, [0, 0, 0])
                cell[0] += d
                cell[1] += d * d
                cell[2] = max(cell[2], d)
    return cells


def rebuild(instance, perm, coflow_level):
    """Each coflow's charged load and the dual objective, exactly."""
    cells = port_cells(instance)
    release = {c.id: c.release for c in instance.coflows}
    charged = dict.fromkeys(cells, Fraction(0))
    objective = Fraction(0)
    order = perm.order
    assert [rec.r for rec in perm.trace.records] == list(range(instance.n, 0, -1))
    for rec in perm.trace.records:
        assert order[rec.r - 1] == rec.coflow
        s = SIDES.index(rec.side)
        value = Fraction(rec.value)
        assert value >= 0
        if rec.branch == "alpha":
            load, _, largest = cells[rec.coflow][s].get(rec.port, (0, 0, 0))
            charged[rec.coflow] += value
            objective += value * (release[rec.coflow] + (load if coflow_level else largest))
        elif rec.branch == "beta":
            group = {k: cells[k][s][rec.port] for k in order[: rec.r] if rec.port in cells[k][s]}
            total = sum(load for load, _, _ in group.values())
            squares = sum(load * load if coflow_level else sq for load, sq, _ in group.values())
            for k, (load, _, _) in group.items():
                charged[k] += value * load
            objective += value * Fraction(squares + total * total, 2 * instance.cores)
        else:
            assert rec.branch == "fallback" and value == 0
    return charged, objective


def assert_certified(instance, kappa=0.5):
    for granularity, order_fn in ORDERINGS.items():
        perm = order_fn(instance, kappa)
        charged, objective = rebuild(instance, perm, granularity == "coflow")
        for c in instance.coflows:
            assert charged[c.id] <= Fraction(c.weight) * LOAD_MARGIN, (granularity, c.id)
        error = abs(objective - Fraction(perm.dual_cost))
        assert error <= OBJECTIVE_TOL * objective, granularity


def test_acceptance_corpus_slice():
    for idx in range(0, 1000, 8):
        assert_certified(corpus_instance(idx))


@pytest.mark.parametrize("release_max", [0, 100, 5_000])
def test_box_instances(release_max):
    for seed in range(5):
        assert_certified(gen_mix(25, 10, seed, cores=5, release_max=release_max))


@pytest.mark.parametrize("kappa", [0.1, 0.5, 2.0])
def test_shuffle_traces(kappa):
    for seed in range(3):
        assert_certified(parse_trace(fb2010_text(seed), 150, seed, cores=5), kappa)


def test_ladder_limit_instance():
    assert_certified(load_script("tools/ladder.py").limit_instance(99, 9_999))


def test_weights_over_nine_decades():
    rng = random.Random(5)
    for seed in range(5):
        base = gen_mix(25, 10, 40 + seed, cores=5, release_max=50 * seed)
        weights = [0.001, 1e6] + [10 ** rng.uniform(-3, 6) for _ in base.coflows[2:]]
        rng.shuffle(weights)
        coflows = tuple(replace(c, weight=w) for c, w in zip(base.coflows, weights))
        assert_certified(Instance(base.cores, base.ports, coflows))


def near_cap_instance(rng):
    """A small instance whose sizes mostly lie within 20-40x of MAX_PORT_TOTAL."""
    ports = rng.randint(2, 6)
    coflows = []
    for k in range(1, rng.randint(3, 12) + 1):
        demands = {}
        for _ in range(rng.randint(1, 3)):
            pair = (rng.randint(1, ports), rng.randint(1, ports))
            if rng.random() < 0.7:
                demands[pair] = rng.randint(MAX_PORT_TOTAL // 40, MAX_PORT_TOTAL // 20)
            else:
                demands[pair] = rng.randint(1, 10**6)
        release = rng.choice([0, rng.randint(0, 2**40)])
        coflows.append(Coflow(k, release, 10 ** rng.uniform(-3, 6), demands))
    return Instance(rng.randint(1, 5), ports, tuple(coflows))


@pytest.mark.parametrize("kappa", [0.1, 0.5, 2.0])
def test_sizes_near_the_port_total_cap(kappa):
    # Sizes near the cap put a beta step's squared port load within a
    # decade of 2**63; the margins stay 1e-15 and 1e-14 there too.
    rng = random.Random(23)
    for _ in range(20):
        instance = near_cap_instance(rng)
        assert validate(instance) == []
        assert_certified(instance, kappa)
