"""Host speed probe for scaling the end-to-end times.

The benchmark was built on a virtual machine whose cores are shared with
other tenants. Its speed moves by up to 1.7x between phases that last from
seconds to minutes, and within a 25 s run those phases moved the median
pass time by 20-27% (IQR over median of ten runs) on every workload, more
than any bound a regression check can use. A fixed kernel, which does not
call the package, is timed between passes; the median of its samples gives
the host's speed during the run. Set-up and pass times, operation latencies
and rates are reported as they would read on a host where the kernel takes
``REFERENCE_S``: raw time multiplied by ``REFERENCE_S / median kernel
time``. A change to the package cannot change the kernel, so it moves the
scaled times as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.02
SAMPLES = 5

_PORTS = 30
_FLOWS = list(range(4000))
_IN = [k % _PORTS for k in _FLOWS]
_OUT = [(k * 7) % _PORTS for k in _FLOWS]


def kernel() -> int:
    """About 20 ms of work shaped like the package's hot loops.

    A greedy scan over flows with port occupancy, as in the simulator, and
    small numpy argmin updates, as in the assignment.
    """
    started = 0
    for _ in range(48):
        occ_in = bytearray(_PORTS)
        occ_out = bytearray(_PORTS)
        for idx in _FLOWS:
            i, j = _IN[idx], _OUT[idx]
            if occ_in[i] or occ_out[j]:
                continue
            occ_in[i] = occ_out[j] = 1
            started += 1
    load = np.zeros((_PORTS, 6), dtype=np.int64)
    for k in range(2400):
        h = int(np.argmin(load[k % _PORTS, 1:] + load[(k * 7) % _PORTS, 1:])) + 1
        load[k % _PORTS, h] += k
    return started


def sample(into: list[float]) -> None:
    """Time the kernel SAMPLES times, appending the seconds to ``into``."""
    for _ in range(SAMPLES):
        start = time.perf_counter()
        kernel()
        into.append(time.perf_counter() - start)


def scale(samples: list[float]) -> float:
    """Factor that turns this run's host seconds into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
