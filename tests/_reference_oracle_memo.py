"""The exhaustive oracle loop as it was with a per-core memo, pair by pair.

Kept verbatim as the reference that ``test_oracle.py`` compares the block
scoring of ``coflowsched.oracle.enumerate_best`` against. For every
(permutation, placement) pair it builds each core's ranked flow tuple, looks
it up in a per-call memo, scatters the finish times and folds the coflow
completions with ``scheduling._fold_completions``. It is fast enough for the
hundreds of thousands of pairs of the edge cases, which the whole-instance
reference of ``_reference_oracle.py`` is not.
"""

from __future__ import annotations

from itertools import permutations, product

from coflowsched.model import FlowKey, FlowTable, Instance
from coflowsched.oracle import OracleResult
from coflowsched.scheduling import _fold_completions, _list_schedule, _priority_rows


def _run_core(table: FlowTable, rows: tuple[int, ...]) -> list[float]:
    """Finish times of ``rows``, one core's flows best first, alone on a core."""
    return _list_schedule(rows, table.fi, table.fj, table.size, table.release, None)


def enumerate_best(
    instance: Instance,
    granularity: str = "flow",
    max_coflows: int = 6,
    max_ports: int = 3,
    max_cores: int = 2,
) -> OracleResult:
    """Brute-force the best list schedule at the given granularity.

    Every (permutation, placement) pair is scored, and counted in
    ``schedules_examined``, with the objective ``simulate`` would return for
    it; a core's flow sequence that repeats is simulated only once per call.
    Refuses instances beyond the caps: the search is factorial in n and
    exponential in the flow (or coflow) count. The witness is the first
    minimizer in lexicographic (permutation, assignment) order, so results
    are deterministic.
    """
    table = instance.table
    keys = table.keys
    if granularity not in ("flow", "coflow"):
        raise ValueError(f"granularity must be flow or coflow, got {granularity!r}")
    n, m = instance.n, instance.cores
    if n > max_coflows or instance.ports > max_ports or m > max_cores:
        raise ValueError(
            f"instance exceeds enumeration caps n<={max_coflows}, "
            f"N<={max_ports}, m<={max_cores}"
        )

    owner = [key.k - 1 for key in keys]
    # Finish times per core flow tuple (rows in priority order); an idle
    # core has none.
    core_runs: dict[tuple[int, ...], list[float]] = {(): []}
    finish = [0.0] * len(keys)
    best_cost = float("inf")
    best_order: list[int] = []
    best_assignment: dict[FlowKey, int] = {}
    examined = 0
    slots = len(keys) if granularity == "flow" else n
    for perm in permutations(range(1, n + 1)):
        ranked = _priority_rows(table, perm, granularity)
        for cores in product(range(1, m + 1), repeat=slots):
            core_of = cores if granularity == "flow" else [cores[o] for o in owner]
            for h in range(1, m + 1):
                rows = tuple(r for r in ranked if core_of[r] == h)
                times = core_runs.get(rows)
                if times is None:
                    times = core_runs[rows] = _run_core(table, rows)
                for r, t in zip(rows, times):
                    finish[r] = t
            cost = _fold_completions(table, finish)[1]
            examined += 1
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_order = list(perm)
                best_assignment = dict(zip(keys, core_of))
    return OracleResult(
        best_cost=best_cost,
        schedules_examined=examined,
        best_order=best_order,
        best_assignment=best_assignment,
    )
