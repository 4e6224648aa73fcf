"""``validate`` against its per-flow-formatting reference, message for message.

``_reference_validate.validate`` formats every flow's location and runs the
general integer test on every port and size. The current ``validate`` does
neither for a well-formed flow, so each message branch is driven here on
``Instance`` objects built directly, bypassing the JSON reader's own checks,
and the two message lists must be equal, order included.
"""

import numpy as np
import pytest

from _reference_validate import validate as reference_validate
from coflowsched.model import (
    MAX_CORES,
    MAX_HORIZON,
    MAX_PORT_TOTAL,
    MAX_PORTS,
    MAX_TABLE_CELLS,
    Coflow,
    Instance,
    _clears,
    validate,
)
from coflowsched.workload import gen_density, gen_mix
from test_fuzz import VALUES


def coflow(k=1, release=0, weight=1, demands=None):
    return Coflow(id=k, release=release, weight=weight, demands=demands or {(1, 2): 3})


def make(*coflows, cores=2, ports=3):
    return Instance(cores=cores, ports=ports, coflows=tuple(coflows))


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def cases():
    yield "empty", make()
    yield "valid", make(coflow(1), coflow(2, 4, 1.5, {(3, 1): 2, (2, 2): 1}))
    for t in (np.int64, np.int32):
        name = t.__name__
        yield f"{name}-ports", make(coflow(demands={(t(1), t(3)): 2}))
        yield f"{name}-size", make(coflow(demands={(1, 1): t(7)}))
        yield f"{name}-scalars", make(coflow(t(1), t(2)), cores=t(2), ports=t(3))
        yield f"{name}-out-of-range", make(coflow(demands={(t(0), t(4)): t(1)}))
    yield "bool-id", make(coflow(True))
    yield "bool-input", make(coflow(demands={(True, 1): 2}))
    yield "bool-output", make(coflow(demands={(1, False): 2}))
    yield "bool-size", make(coflow(demands={(1, 1): True}))
    yield "bool-scalars", make(coflow(), cores=True, ports=True)
    for size in (2.5, 2.0, 0, -1, -(10**30), 10**30):
        yield f"size-{size!r}", make(coflow(demands={(1, 1): size, (2, 3): 1}))
    for i, j in ((0, 1), (4, 1), (1, 0), (1, 4), (-1, 9)):
        yield f"out-of-range-{i}-{j}", make(coflow(demands={(i, j): 1, (1, 1): 2}))
        for ports in (0, -2, "x", None, 2.0, True, 10**6):
            yield f"out-of-range-{i}-{j}-ports-{ports!r}", make(
                coflow(demands={(i, j): 1}), ports=ports
            )
    for extra in (0, 1):
        yield f"cores-limit+{extra}", make(coflow(), cores=MAX_CORES + extra)
        yield f"ports-limit+{extra}", make(coflow(), ports=MAX_PORTS + extra)
        total = MAX_PORT_TOTAL + extra
        yield f"input-total+{extra}", make(coflow(demands={(1, 1): total - 5, (1, 2): 5}))
        yield f"output-total+{extra}", make(coflow(demands={(1, 3): total - 5, (2, 3): 5}))
        yield f"horizon+{extra}", make(
            coflow(release=MAX_HORIZON - 10 + extra, demands={(1, 1): 4, (2, 2): 6})
        )
        yield f"table-cells+{extra}", make(
            *(coflow(k) for k in range(1, 100 + extra)),
            ports=MAX_TABLE_CELLS // 100 - 1,
        )
    # Every fuzz value in every coflow and flow field, then in cores and ports.
    for idx, value in enumerate(VALUES):
        tag = f"{idx}:{value!r:.12}"
        yield f"fuzz-id-{tag}", make(coflow(value), coflow(2))
        yield f"fuzz-release-{tag}", make(coflow(release=value))
        yield f"fuzz-weight-{tag}", make(coflow(weight=value))
        yield f"fuzz-size-{tag}", make(coflow(demands={(1, 2): value, (2, 1): 1}))
        if _hashable(value):
            yield f"fuzz-i-{tag}", make(coflow(demands={(value, 2): 3, (2, 1): 1}))
            yield f"fuzz-j-{tag}", make(coflow(demands={(1, value): 3, (2, 1): 1}))
        yield f"fuzz-cores-{tag}", make(coflow(), cores=value)
        yield f"fuzz-ports-{tag}", make(coflow(demands={(1, 2): 3, (9, 9): 1}), ports=value)
    # Inputs the accept pass leaves to the loop, and the edges of its sums.
    yield "deferred-int64-ports-and-sizes", make(
        coflow(demands={(np.int64(1), np.int64(3)): np.int64(2), (2, 2): np.int64(4)})
    )
    yield "deferred-float64-weight", make(coflow(weight=np.float64(1.5)), coflow(2))
    yield "deferred-huge-int-weight", make(coflow(weight=10**400))
    yield "deferred-bool-size", make(coflow(demands={(1, 2): True, (2, 1): 3}))
    for extra in (0, 1):
        # Two ports at the limit, so the total is above it: the accept pass
        # adds up each side's ports.
        yield f"split-total+{extra}", make(
            coflow(demands={(1, 1): MAX_PORT_TOTAL, (2, 2): MAX_PORT_TOTAL}),
            coflow(2, demands={(1, 3) if extra else (3, 3): 1}),
        )
    yield "many-faults", make(
        coflow(3, -1, 0, {(0, 1): 0, ("a", 1): 1, (1, 1): 2.5, (2, 2): -4}),
        coflow(2, 1, float("nan"), {(1, 1): True, (3, 3): 10**30}),
        cores=0,
    )


CASES = dict(cases())
assert len(CASES) == len(list(cases())), "case names must be unique"


@pytest.mark.parametrize("name", sorted(CASES))
def test_messages_match_reference(name):
    instance = CASES[name]
    assert validate(instance) == reference_validate(instance)


def test_every_branch_is_reached():
    # Each message kind must appear in some case, so no branch goes unchecked.
    seen = "\n".join(m for inst in CASES.values() for m in reference_validate(inst))
    for text in (
        "cores must be a positive integer",
        f"cores {MAX_CORES + 1} above",
        "ports must be a positive integer",
        f"ports {MAX_PORTS + 1} above",
        "table cells above the limit",
        "coflow ids must be 1..n",
        "release must be a nonnegative integer",
        "weight must be positive and finite",
        "ports must be integers",
        "port out of range 1..3",
        "size must be an integer",
        "zero demand must be absent",
        "size must be positive",
        "input port 1 carries",
        "output port 3 carries",
        "exceeds the time horizon limit",
    ):
        assert text in seen, text
    valid = [name for name, inst in CASES.items() if not reference_validate(inst)]
    for name in ("int64-ports", "int32-size", "cores-limit+0", "ports-limit+0",
                 "input-total+0", "output-total+0", "horizon+0", "table-cells+0"):
        assert name in valid


def test_accept_pass_never_accepts_what_the_loop_rejects():
    # The accept pass may defer any instance to the loop, but whatever it
    # accepts must be valid. It must also accept the well-formed instances
    # of plain ints and floats, or it would defer everything.
    accepted = {name for name, inst in CASES.items() if _clears(inst)}
    for name in accepted:
        assert reference_validate(CASES[name]) == [], name
    assert {
        "valid", "empty", "cores-limit+0", "ports-limit+0", "input-total+0",
        "output-total+0", "split-total+0", "horizon+0", "table-cells+0",
    } <= accepted
    for name in (
        "deferred-int64-ports-and-sizes", "deferred-float64-weight",
        "deferred-huge-int-weight", "deferred-bool-size", "split-total+1",
        "input-total+1", "horizon+1",
    ):
        assert name not in accepted, name


@pytest.mark.parametrize("seed", range(3))
def test_generated_instances_match_reference(seed):
    for instance in (
        gen_mix(30, 10, seed, cores=3, release_max=40),
        gen_density(20, 6, "combined", seed),
    ):
        assert validate(instance) == reference_validate(instance) == []
        assert _clears(instance)
