"""Instance validation as it was before the per-flow fixed cost was removed.

Kept verbatim as the reference that ``test_validate_differential.py``
compares ``coflowsched.model.validate`` against: it formats each flow's
location text and runs two ``isinstance`` checks for every flow, whether or
not a message is written. The messages, and their order, must match.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from coflowsched.model import (
    MAX_CORES,
    MAX_HORIZON,
    MAX_PORT_TOTAL,
    MAX_PORTS,
    MAX_TABLE_CELLS,
    Instance,
)


def _is_int(x: Any) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_finite_real(x: Any) -> bool:
    if not isinstance(x, (int, float, np.integer, np.floating)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def validate(instance: Instance) -> list[str]:
    """Return a list of violations, empty when the instance is well formed."""
    bad: list[str] = []
    if not _is_int(instance.cores) or instance.cores < 1:
        bad.append(f"cores must be a positive integer, got {instance.cores!r}")
    elif instance.cores > MAX_CORES:
        bad.append(f"cores {instance.cores} above the limit {MAX_CORES}")
    ports_ok = _is_int(instance.ports) and instance.ports >= 1
    if not ports_ok:
        bad.append(f"ports must be a positive integer, got {instance.ports!r}")
    elif instance.ports > MAX_PORTS:
        bad.append(f"ports {instance.ports} above the limit {MAX_PORTS}")
    elif (instance.n + 1) * (instance.ports + 1) > MAX_TABLE_CELLS:
        bad.append(
            f"{instance.n} coflows x {instance.ports} ports: "
            f"{(instance.n + 1) * (instance.ports + 1)} table cells "
            f"above the limit {MAX_TABLE_CELLS}"
        )
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
        for (i, j), d in c.demands.items():
            spot = f"{where} flow ({i},{j})"
            if not (_is_int(i) and _is_int(j)):
                bad.append(f"{spot}: ports must be integers")
                continue
            if ports_ok and not (1 <= i <= instance.ports and 1 <= j <= instance.ports):
                bad.append(f"{spot}: port out of range 1..{instance.ports}")
            if not _is_int(d):
                bad.append(f"{spot}: size must be an integer, got {d!r}")
            elif d == 0:
                bad.append(f"{spot}: zero demand must be absent")
            elif d < 0:
                bad.append(f"{spot}: size must be positive, got {d}")
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
