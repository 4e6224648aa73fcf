"""Domain model: coflows, instances, the compiled flow table, JSON round-trip.

Ports, coflow ids, and core ids are 1-based everywhere they cross a module
boundary or a file format. Internal arrays pad index 0 so that external ids
index them directly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, countOf, itemgetter, sub
from typing import Any, NamedTuple

import numpy as np


class FlowKey(NamedTuple):
    """One flow: input port i, output port j, owning coflow k."""

    i: int
    j: int
    k: int


@dataclass(frozen=True)
class Coflow:
    """A weighted group of flows released together.

    ``demands`` maps (input port, output port) to a positive integer size in
    data units. A pair that carries no traffic is absent, never stored as 0.
    Instances are treated as immutable after construction.
    """

    id: int
    release: int
    weight: float
    demands: dict[tuple[int, int], int] = field(default_factory=dict)

    def flows(self) -> list[tuple[int, int, int]]:
        """Flows as (i, j, size), sorted by (i, j)."""
        return sorted((i, j, d) for (i, j), d in self.demands.items())

    @property
    def flow_count(self) -> int:
        return len(self.demands)


@dataclass(frozen=True)
class Instance:
    """A scheduling instance: m identical cores, N ports per side, n coflows.

    Coflow ids must be exactly 1..n in list order; ``validate`` enforces this
    along with positivity of sizes and weights.
    """

    cores: int
    ports: int
    coflows: tuple[Coflow, ...]

    @property
    def n(self) -> int:
        return len(self.coflows)

    @property
    def flow_count(self) -> int:
        return sum(c.flow_count for c in self.coflows)

    @cached_property
    def table(self) -> FlowTable:
        """The validated, compiled flow table, built on first use.

        Raises ValueError if the instance is invalid. The table is computed
        once, so the instance must not be mutated afterwards. The table
        keeps the flows as columns; their ``FlowKey`` rows are built only
        when ``FlowTable.keys`` is first read.
        """
        require_valid(self)
        pairs: list[tuple[int, int]] = []
        size: list[int] = []
        release: list[int] = []
        first = [0]
        for c in self.coflows:
            own = sorted(c.demands)
            pairs += own
            size += map(c.demands.__getitem__, own)
            release += [c.release] * len(own)
            first.append(len(pairs))
        fi = list(map(itemgetter(0), pairs))
        fj = list(map(itemgetter(1), pairs))
        sizes = np.fromiter(size, np.int64, len(size))
        cells_in = _port_cells(fi, sizes, first, self.ports)
        cells_out = _port_cells(fj, sizes, first, self.ports)
        return FlowTable(fi, fj, size, release, first, cells_in, cells_out)


class PortCells(NamedTuple):
    """One side's nonzero (coflow, port) cells, in compressed sparse rows.

    Coflow k's cells are ``first[k - 1]:first[k]``, in ascending port order.
    Cell x is port ``port[x]``, where the coflow carries ``load[x]`` in total
    and ``sq[x]`` in squared flow sizes. A coflow without flows has no cells.
    """

    first: list[int]
    port: list[int]
    load: list[int]
    sq: list[int]


def _port_cells(port: list[int], size: np.ndarray, first: list[int], ports: int) -> PortCells:
    """One side's cells, from one sort of the flows by (coflow, port).

    ``port`` holds each flow's port on this side and ``size`` its size, as
    int64. Each run of equal codes ``coflow x (ports + 1) + port`` is one
    cell, and ``np.add.reduceat`` sums its sizes and squared sizes. A cell's
    load and squared sizes are at most MAX_PORT_TOTAL and its square, so
    int64 sums are exact; ``tolist`` stores each as a Python int.
    """
    n = len(first) - 1
    if not port:
        return PortCells([0] * (n + 1), [], [], [])
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(first))
    code = owner * (ports + 1) + np.fromiter(port, np.int64, len(port))
    by = np.argsort(code, kind="stable")
    code, d = code[by], size[by]
    heads = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))
    cell_owner, cell_port = np.divmod(code[heads], ports + 1)
    return PortCells(
        np.searchsorted(cell_owner, np.arange(n + 1)).tolist(),
        cell_port.tolist(),
        np.add.reduceat(d, heads).tolist(),
        np.add.reduceat(d * d, heads).tolist(),
    )


@dataclass(frozen=True)
class FlowTable:
    """An instance compiled once into the flat form every stage reads.

    Flows are listed in (coflow, i, j) order, one row each, and coflow k's
    flows are rows ``first[k - 1]:first[k]``. ``fi`` and ``fj`` hold each
    flow's input and output port, ``size`` and ``release`` its size and its
    coflow's release. ``cells_in`` and ``cells_out`` hold each coflow's
    nonzero input and output ports with its load and squared flow sizes
    there. ``keys``, each row's ``FlowKey``, is a view built on first read:
    ordering, placement and simulation read only the columns.
    """

    fi: list[int]
    fj: list[int]
    size: list[int]
    release: list[int]
    first: list[int]
    cells_in: PortCells
    cells_out: PortCells

    @cached_property
    def keys(self) -> list[FlowKey]:
        """Each row's ``FlowKey(i, j, k)``, built on first read.

        Row r belongs to coflow k when ``first[k - 1] <= r < first[k]``.
        """
        first = self.first
        owner = chain.from_iterable(map(repeat, range(1, len(first)), map(sub, first[1:], first)))
        # tuple.__new__ is what FlowKey._make calls, minus a Python frame per flow.
        return list(map(tuple.__new__, repeat(FlowKey), zip(self.fi, self.fj, owner)))

    @cached_property
    def key_rank(self) -> np.ndarray:
        """Each row's position in (i, j, k) key order, built on first use.

        Rows are in (k, i, j) order, so a stable sort by (i, j) keeps equal
        pairs in k order.
        """
        fi = np.array(self.fi, dtype=np.int64)
        pair = fi * (max(self.fj, default=0) + 1) + np.array(self.fj, dtype=np.int64)
        rank = np.empty(fi.size, dtype=np.int64)
        rank[np.argsort(pair, kind="stable")] = np.arange(fi.size)
        return rank


# Largest total size any one port may carry, summed over all coflows:
# floor(sqrt(2**63 - 1)). A sum of squares is at most the square of the sum,
# so every int64 port load, squared load and squared-size aggregate stays
# exact below it.
MAX_PORT_TOTAL = 3_037_000_499
# Largest release + total size: every simulated event time is at most this,
# and float64 holds every integer up to 2**53 exactly.
MAX_HORIZON = 2**53
# Largest port and core counts. Nothing is sized by their product: the
# ordering keeps a column per port, and each placement a list of m core
# loads only for the ports that carry traffic.
MAX_PORTS = 10_000
MAX_CORES = 256
# Largest (coflows + 1) x (ports + 1). No array of that shape is built: the
# flow table keeps only each coflow's nonzero port cells, at most one per
# flow and side. The limit bounds the ordering's time: every beta step scans
# its bottleneck side's ports + 1 totals again, so a beta-heavy ordering costs
# up to coflows x ports.
MAX_TABLE_CELLS = 1_000_000
# Largest flow count, about 22x the 44,501 flows of the largest ladder
# instance. The generators, the trace reader and the JSON loader count the
# flows before they build them, so no input above it is built.
MAX_FLOWS = 1_000_000
_FLOAT_MAX = sys.float_info.max


# A bool is an int, but no id, size or core; np.bool_ is no np.integer.
def _is_int_type(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


def _is_int(x: Any) -> bool:
    return _is_int_type(type(x))


def _is_finite_real(x: Any) -> bool:
    if not isinstance(x, (int, float, np.integer, np.floating)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _require_flows(flows: int, where: str) -> None:
    """Raise ValueError when ``flows``, counted up to ``where``, pass MAX_FLOWS."""
    if flows > MAX_FLOWS:
        raise ValueError(f"{where}: {flows} flows above the limit {MAX_FLOWS}")


def _clears(instance: Instance) -> bool:
    """True when C-level passes show that ``instance`` is well formed.

    The passes test types first (plain ints; ints and floats for weights;
    each demand key a tuple of two), then ranges by ``min`` and ``max``, and
    the horizon and every port total by one ``sum`` of the sizes. False
    means only that the loop in ``validate`` must decide: numpy scalars,
    bools, a non-finite or huge int weight, a key that is not a pair, a total
    size above ``MAX_PORT_TOTAL`` and every fault are left to it, and it
    alone writes messages.
    """
    cores, ports, coflows = instance.cores, instance.ports, instance.coflows
    n = len(coflows)
    if not (
        type(cores) is int
        and 1 <= cores <= MAX_CORES
        and type(ports) is int
        and 1 <= ports <= MAX_PORTS
        and (n + 1) * (ports + 1) <= MAX_TABLE_CELLS
    ):
        return False
    ids = list(map(attrgetter("id"), coflows))
    release = list(map(attrgetter("release"), coflows))
    weight = list(map(attrgetter("weight"), coflows))
    demands = list(map(attrgetter("demands"), coflows))
    # Types first, so that every comparison after them is between ints or floats.
    if not (
        set(map(type, chain(ids, release))) <= {int}
        and set(map(type, weight)) <= {int, float}
        and set(map(type, demands)) <= {dict}
        and ids == list(range(1, n + 1))
        and min(release, default=0) >= 0
        # Past the largest float, an int weight would overflow math.isfinite.
        and max(weight, default=1) <= _FLOAT_MAX
        and all(map(math.isfinite, weight))
        and min(weight, default=1) > 0
    ):
        return False
    pairs = list(chain.from_iterable(demands))
    flows = len(pairs)
    # Per flow, counting types is cheaper than collecting them in a set.
    if not (
        flows <= MAX_FLOWS
        and countOf(map(type, pairs), tuple) == flows
        and countOf(map(len, pairs), 2) == flows
    ):
        return False
    fi = list(map(itemgetter(0), pairs))
    fj = list(map(itemgetter(1), pairs))
    size = list(chain.from_iterable(map(dict.values, demands)))
    if countOf(map(type, chain(fi, fj, size)), int) != 3 * flows:
        return False
    used = set(chain(fi, fj))
    total = sum(size)
    if not (
        1 <= min(used, default=1)
        and max(used, default=1) <= ports
        and min(size, default=1) >= 1
        and max(release, default=0) + total <= MAX_HORIZON
    ):
        return False
    # No port carries more than the total size.
    return total <= MAX_PORT_TOTAL


def validate(instance: Instance) -> list[str]:
    """Return a list of violations, empty when the instance is well formed.

    ``_clears`` accepts a well-formed instance of plain ints and floats in
    C-level passes. Any other instance runs the loop over the flows, which
    writes every message and formats a flow's location only for a message
    it writes.
    """
    if _clears(instance):
        return []
    bad: list[str] = []
    ports = instance.ports
    if not _is_int(instance.cores) or instance.cores < 1:
        bad.append(f"cores must be a positive integer, got {instance.cores!r}")
    elif instance.cores > MAX_CORES:
        bad.append(f"cores {instance.cores} above the limit {MAX_CORES}")
    ports_ok = _is_int(ports) and ports >= 1
    if not ports_ok:
        bad.append(f"ports must be a positive integer, got {ports!r}")
    elif ports > MAX_PORTS:
        bad.append(f"ports {ports} above the limit {MAX_PORTS}")
    elif (instance.n + 1) * (ports + 1) > MAX_TABLE_CELLS:
        bad.append(
            f"{instance.n} coflows x {ports} ports: "
            f"{(instance.n + 1) * (ports + 1)} table cells "
            f"above the limit {MAX_TABLE_CELLS}"
        )
    flows = sum(len(c.demands) for c in instance.coflows if isinstance(c.demands, dict))
    if flows > MAX_FLOWS:
        bad.append(f"{flows} flows above the limit {MAX_FLOWS}")
    port_in: dict[int, int] = {}
    port_out: dict[int, int] = {}
    total_size = 0
    max_release = 0
    for pos, c in enumerate(instance.coflows, start=1):
        where = f"coflow {c.id}"
        if not _is_int(c.id) or c.id != pos:
            bad.append(f"coflow ids must be 1..n in order: position {pos} holds id {c.id!r}")
        if not _is_int(c.release) or c.release < 0:
            bad.append(f"{where}: release must be a nonnegative integer, got {c.release!r}")
        else:
            max_release = max(max_release, c.release)
        if not (_is_finite_real(c.weight) and c.weight > 0):
            bad.append(f"{where}: weight must be positive and finite, got {c.weight!r}")
        if not isinstance(c.demands, dict):
            bad.append(f"{where}: demands must be a dict, got {type(c.demands).__name__}")
            continue
        for key, d in c.demands.items():
            try:
                i, j = key
            except (TypeError, ValueError):
                bad.append(f"{where} flow {key!r}: demand key must be an (i, j) port pair")
                continue
            if not (_is_int(i) and _is_int(j)):
                bad.append(f"{where} flow ({i},{j}): ports must be integers")
                continue
            if ports_ok and not (1 <= i <= ports and 1 <= j <= ports):
                bad.append(f"{where} flow ({i},{j}): port out of range 1..{ports}")
            if not _is_int(d):
                bad.append(f"{where} flow ({i},{j}): size must be an integer, got {d!r}")
            elif d == 0:
                bad.append(f"{where} flow ({i},{j}): zero demand must be absent")
            elif d < 0:
                bad.append(f"{where} flow ({i},{j}): size must be positive, got {d}")
            else:
                port_in[i] = port_in.get(i, 0) + d
                port_out[j] = port_out.get(j, 0) + d
                total_size += d
    for side, totals in (("input", port_in), ("output", port_out)):
        port = max(totals, key=totals.__getitem__, default=None)
        if port is not None and totals[port] > MAX_PORT_TOTAL:
            bad.append(
                f"{side} port {port} carries {totals[port]} in total, "
                f"above the limit {MAX_PORT_TOTAL}"
            )
    if max_release + total_size > MAX_HORIZON:
        bad.append(
            f"latest release {max_release} plus total size {total_size} "
            f"exceeds the time horizon limit 2**53"
        )
    return bad


def require_valid(instance: Instance) -> None:
    bad = validate(instance)
    if bad:
        raise ValueError("invalid instance: " + "; ".join(bad))


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    """Canonical JSON form: coflows by id, flows sorted by (i, j)."""
    return {
        "cores": instance.cores,
        "ports": instance.ports,
        "coflows": [
            {
                "id": c.id,
                "release": c.release,
                "weight": c.weight,
                "flows": [{"i": i, "j": j, "size": d} for i, j, d in c.flows()],
            }
            for c in instance.coflows
        ],
    }


def _objects(value: Any, what: str) -> list[dict[str, Any]]:
    if not (isinstance(value, list) and all(map(isinstance, value, repeat(dict)))):
        raise ValueError(f"instance JSON: {what} must be a list of objects")
    return value


def instance_from_dict(data: dict[str, Any]) -> Instance:
    if not isinstance(data, dict):
        raise ValueError("instance JSON must be an object")
    try:
        coflows = []
        flows = 0
        for entry in _objects(data["coflows"], "coflows"):
            demands: dict[tuple[int, int], int] = {}
            listed = _objects(entry["flows"], "flows")
            flows += len(listed)
            _require_flows(flows, "instance JSON")
            for f in listed:
                key = (f["i"], f["j"])
                try:
                    duplicate = key in demands
                except TypeError:  # an unhashable port value, such as a list
                    raise ValueError(
                        f"coflow {entry['id']} flow ({key[0]!r},{key[1]!r}): "
                        "ports must be integers"
                    ) from None
                if duplicate:
                    raise ValueError(
                        f"coflow {entry['id']}: duplicate flow on port pair {key}"
                    )
                demands[key] = f["size"]
            coflows.append(
                Coflow(
                    id=entry["id"],
                    release=entry["release"],
                    weight=entry["weight"],
                    demands=demands,
                )
            )
        instance = Instance(cores=data["cores"], ports=data["ports"], coflows=tuple(coflows))
    except KeyError as exc:
        raise ValueError(f"instance JSON missing field {exc}") from exc
    instance.table  # validates once and compiles the table every stage reads
    return instance


def dumps_instance(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def loads_instance(text: str) -> Instance:
    return instance_from_dict(json.loads(text))
