"""Fixed reference kernels, timed next to the program's calls.

The speed of a shared host can change by a factor of two within seconds,
and CPU time tracks wall time, so the change is not time spent off the
CPU: the same instructions simply run slower.  An untraced pass times a
kernel before its first call and again whenever at least ``EVERY_S`` of
calls have run since, and divides each call's time by the mean of the two
kernel times around it.  That cancels most of the host's drift.  The
kernels are the benchmark's own code and do not change with the program,
so a faster program still reads faster.

Contention was seen to slow interpreted code and small numpy calls much
more than work on large arrays, so each workload uses the kernel that
does the kind of work it does (``workloads.REFERENCE``):

- ``small``: interpreted Python (dict lookups, small tuples, string keys)
  and numpy calls on a 256-element complex array, like the 9 to 256
  amplitude states of ``presets`` and ``verify``;
- ``large``: the steps of a SWAP rotation on a 46,656-amplitude restricted
  basis (bit tests, binary search, gathers and scatters), like the
  largest states of ``ladder``.
"""

from __future__ import annotations

import functools
import time

EVERY_S = 0.1  # at most this much call time between two kernel runs


@functools.cache
def _states():
    """46,656 distinct sorted 36-bit integers, like a restricted basis."""
    import numpy as np

    rng = np.random.default_rng(2)
    return np.unique(rng.integers(0, 1 << 36, size=50_000))[:46_656]


@functools.cache
def _arrays(size: int, seed: int):
    """A complex array and a fixed permutation of it.  numpy is imported
    here, not at module level, so that the set-up probe still times the
    package's own numpy import."""
    import numpy as np

    return np.exp(1j * np.arange(size) / 7.0), np.random.default_rng(seed).permutation(size)


def _small() -> float:
    counts: dict = {}
    total = 0
    for i in range(12_000):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
        total += len(str(i % 101))
    base, order = _arrays(256, 0)
    x = base.copy()
    for _ in range(800):
        x = x[order] * 0.5 + base
        x /= abs(x).max()
    return total + len(counts) + float(x.real.sum())


def _large() -> float:
    """The steps of one SWAP rotation on a restricted basis: bit tests,
    a binary search for each partner state, gathers and scatters."""
    import numpy as np

    amps, order = _arrays(46_656, 1)
    states = _states()
    out = amps.copy()
    for bit in range(8):
        has = (states & (1 << bit)) != 0
        moved = np.nonzero(has)[0]
        partners = np.searchsorted(states, states[moved] ^ (3 << bit)) % len(states)
        out = out * 0.5
        out[moved] = 0.8 * amps[moved] + 0.6j * amps[partners]
        out[partners] = 0.8 * amps[partners] + 0.6j * out[order[moved]]
    return float(out.real.sum())


KERNELS = {"small": _small, "large": _large}


def timed(kind: str) -> float:
    """Seconds one run of the kernel took."""
    kernel = KERNELS[kind]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
