"""How fast the machine runs right now, from a fixed job that shares no code with the program.

A small VM on a shared host does not run at one speed: the host slows
every vCPU down, by up to 1.5x, in stretches of seconds to minutes, and
CPU time slows with wall time, so nothing in the process hides it.  Wall
times taken in a slow stretch and in a fast one cannot be compared.

The probe is a fixed job in three parts, one for each kind of work the
program spends its time on: integer arithmetic in a pure-Python loop
(the interpreter), updates of a dict keyed by tuples (row
materialisation and grouping in Python), and a sort, a factorisation and
a grouped sum over fixed numpy arrays (the vectorised operators).  It is
timed next to the work it calibrates, and a wall time ``t`` measured
while the probe takes ``p`` ms is reported as ``t * NOMINAL_MS / p``:
the time the work would have taken where the probe takes ``NOMINAL_MS``.
A change to the program moves that figure as it moves the wall time; a
change in the host's speed moves the probe with it, and mostly cancels.
In two sets of ten 30-second runs per workload on a 2-vCPU VM, scaling
cut the spread of the round medians (interquartile range over median)
from 0.065-0.138 to 0.024-0.045.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

#: The probe's time, in ms, on the machine the figures are quoted at (a
#: 2-vCPU KVM guest on a Xeon of the Sapphire Rapids generation, in the
#: faster of its speed states).  Only a scale: it makes a scaled time read
#: in plain milliseconds there.
NOMINAL_MS = 13.0

#: Iterations of the probe's arithmetic loop and of its dict loop, and
#: rows of its arrays.
LOOP = 25_000
DICT_LOOP = 15_000
ROWS = 25_000

_rng = np.random.default_rng(20240601)
_KEYS = _rng.integers(0, ROWS // 2, ROWS)
_VALUES = _rng.integers(0, 10**9, ROWS).astype(np.float64)


def probe_ms() -> float:
    """One timing of the fixed job, in ms."""
    started = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    groups: dict = {}
    for i in range(DICT_LOOP):
        key = (i % 997, i & 7)
        groups[key] = groups.get(key, 0) + i
    order = np.argsort(_KEYS, kind="stable")
    _, inverse = np.unique(_KEYS, return_inverse=True)
    np.bincount(inverse, weights=_VALUES)
    np.cumsum(_VALUES[order])
    return 1e3 * (time.perf_counter() - started)


def probes(count: int) -> List[float]:
    return [probe_ms() for _ in range(count)]


def scale(samples: Sequence[float]) -> float:
    """The factor that takes a wall time measured beside ``samples`` to nominal speed."""
    return NOMINAL_MS / statistics.median(samples)
