"""Correct op times for the speed the shared host lends this process.

On a shared vCPU the same op takes up to ~1.8x longer while other tenants
load the physical core, and that load shifts over seconds to minutes.
`HostSpeed` times a fixed reference workload (interpreter arithmetic,
small-object churn and small numpy calls, the mix latcf's trials run)
after every timed interval, and scales the interval by REFERENCE_NS over
the mean of the probes on either side of it.  A corrected time is the
time the interval would have taken while the reference ran in
REFERENCE_NS, its time on an unloaded vCPU of the host that recorded
bench/baseline.json.  The probes run outside the timed intervals.
"""

from __future__ import annotations

import time

import numpy as np

# time of `_reference` on an unloaded vCPU of the 2.0 GHz Xeon host of
# bench/baseline.json (its tenth percentile there, rounded); a constant,
# so runs of two commits compare
REFERENCE_NS = 1_000_000
# a probe above this was preempted, not slowed: it counts as this
PROBE_CAP_NS = 3 * REFERENCE_NS

_KEYS = list(range(1200))
_VALUES = np.random.default_rng(0).random(len(_KEYS)).tolist()
_SMALL = np.arange(8.0)


def _reference() -> float:
    s = 0
    for i in range(3000):
        s += i * i % 7
    d = {(k, k & 7): v * 1.5 for k, v in zip(_KEYS, _VALUES)}
    top = sorted(d.values())[-1]
    total = sum(d[(k, k & 7)] for k in _KEYS[::3])
    for _ in range(120):
        total += float((_SMALL * 1.5 + 2.0).sum())
    return s + top + total


def probe_ns() -> int:
    t0 = time.perf_counter_ns()
    _reference()
    return time.perf_counter_ns() - t0


class HostSpeed:
    """Call `factor()` right after each timed interval; multiply the
    interval's time by it."""

    def __init__(self):
        self.last = min(probe_ns(), PROBE_CAP_NS)
        self.probes: list[int] = [self.last]

    def factor(self) -> float:
        now = min(probe_ns(), PROBE_CAP_NS)
        self.probes.append(now)
        f = 2 * REFERENCE_NS / (self.last + now)
        self.last = now
        return f


class WallClock:
    """No correction: raw wall time (traced runs)."""

    probes = ()

    def factor(self) -> float:
        return 1.0
