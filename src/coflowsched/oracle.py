"""Exhaustive baselines for small instances.

enumerate_best tries every coflow permutation crossed with every core
placement (per flow or per coflow, depending on granularity) and simulates
each, so its best_cost is the cheapest list schedule and an upper bound on
the optimum of that granularity. trivial_lower_bound is the opposite side:
a per-coflow floor no schedule can beat. Both exist to sandwich-check the
dual bound and the two assignment policies on instances small enough to
enumerate.

The granularities are not interchangeable here. A coflow-level dual cost
can legitimately exceed the best flow-level schedule (splitting a coflow
across cores beats any single-core placement), so each dual must be
compared against the best schedule of its own granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .model import FlowKey, Instance
from .scheduling import Assignment, simulate


@dataclass
class OracleResult:
    best_cost: float
    lower_bound: float
    schedules_examined: int
    best_order: list[int]
    best_assignment: dict[FlowKey, int]


def trivial_lower_bound(instance: Instance) -> float:
    """Sum of weighted per-coflow floors.

    Coflow k cannot finish before its release plus its largest flow, nor
    before its most loaded port drains at aggregate rate m.
    """
    table = instance.table
    m = instance.cores
    total = 0.0
    for c in instance.coflows:
        floor = max(
            c.release + c.max_demand,
            float(table.load_in[c.id].max()) / m,
            float(table.load_out[c.id].max()) / m,
        )
        total += c.weight * floor
    return total


def enumerate_best(
    instance: Instance,
    granularity: str = "flow",
    max_coflows: int = 6,
    max_ports: int = 3,
    max_cores: int = 2,
) -> OracleResult:
    """Brute-force the best list schedule at the given granularity.

    Refuses instances beyond the caps: the search is factorial in n and
    exponential in the flow (or coflow) count. The witness is the first
    minimizer in lexicographic (permutation, assignment) order, so results
    are deterministic.
    """
    keys = instance.table.keys
    if granularity not in ("flow", "coflow"):
        raise ValueError(f"granularity must be flow or coflow, got {granularity!r}")
    n, m = instance.n, instance.cores
    if n > max_coflows or instance.ports > max_ports or m > max_cores:
        raise ValueError(
            f"instance exceeds enumeration caps n<={max_coflows}, "
            f"N<={max_ports}, m<={max_cores}"
        )

    best_cost = float("inf")
    best_order: list[int] = []
    best_assignment: dict[FlowKey, int] = {}
    examined = 0
    for perm in permutations(range(1, n + 1)):
        if granularity == "flow":
            choices = product(range(1, m + 1), repeat=len(keys))
        else:
            choices = product(range(1, m + 1), repeat=n)
        for cores in choices:
            if granularity == "flow":
                placement = dict(zip(keys, cores))
                assignment = Assignment("flow", placement, None)
            else:
                by_coflow = dict(zip(range(1, n + 1), cores))
                placement = {key: by_coflow[key.k] for key in keys}
                assignment = Assignment("coflow", placement, by_coflow)
            result = simulate(instance, list(perm), assignment)
            examined += 1
            if result.objective < best_cost - 1e-12:
                best_cost = result.objective
                best_order = list(perm)
                best_assignment = placement
    return OracleResult(
        best_cost=best_cost,
        lower_bound=trivial_lower_bound(instance),
        schedules_examined=examined,
        best_order=best_order,
        best_assignment=best_assignment,
    )
