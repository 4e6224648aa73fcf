"""The exhaustive oracle loop as it was before per-core memoisation.

Kept verbatim as the reference that ``test_oracle.py`` compares
``coflowsched.oracle.enumerate_best`` against: it simulates the whole
instance for every (permutation, placement) pair. It calls the reference
simulator of ``_reference_sim.py``, which has its own priority sort and
completion fold, so a fault in the helpers that ``simulate`` and the oracle
share shows up as a difference.
"""

from __future__ import annotations

from itertools import permutations, product

from _reference_sim import simulate
from coflowsched.model import FlowKey, Instance
from coflowsched.oracle import OracleResult
from coflowsched.scheduling import Assignment


def enumerate_best(
    instance: Instance,
    granularity: str = "flow",
    max_coflows: int = 6,
    max_ports: int = 3,
    max_cores: int = 2,
) -> OracleResult:
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
                assignment = Assignment.of_flows(instance, "flow", placement)
            else:
                by_coflow = dict(zip(range(1, n + 1), cores))
                placement = {key: by_coflow[key.k] for key in keys}
                assignment = Assignment.of_flows(instance, "coflow", placement)
            objective = simulate(instance, list(perm), assignment)[2]
            examined += 1
            if objective < best_cost - 1e-12:
                best_cost = objective
                best_order = list(perm)
                best_assignment = placement
    return OracleResult(
        best_cost=best_cost,
        schedules_examined=examined,
        best_order=best_order,
        best_assignment=best_assignment,
    )
