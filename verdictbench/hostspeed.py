"""How fast the host runs Python right now, to take its drift out of timings.

On a shared host the cores switch between a fast and a slow state (the
same Python code takes 1.2 to 1.7 times as long, CPU time equal to wall
time), for spells of a fraction of a second to tens of seconds, and the
share of slow time differs from one 20 s run to the next. The median of a
run's per-verdict latencies then lands in one state or the other. So the
benchmark times a fixed calibration right before and right after a short
single-threaded pass, and scales the pass's times by REFERENCE_S over the
calibration's time, interpolated between the two to the moment the work
ran. A timing then reads as what it would have taken on a host where the
calibration takes REFERENCE_S.

The calibration is the benchmark's own pure-Python code, in the same style
as the program's hot loops (integer arithmetic, bit masks over rule bodies,
tuples and dicts); nothing in it calls asp_testkit, so a change to the
program cannot move it.
"""

from __future__ import annotations

import itertools
import statistics
import time
from typing import NamedTuple, Optional

# The calibration's median time on a 2-core shared x86-64 host in its fast
# spells, with CPython 3. Only the ratio to it matters; it fixes the scale.
REFERENCE_S = 0.014
REPEATS = 3

_RULES = [((1 << (i % 11)) | (1 << (i * 5 % 11)), 1 << (i * 7 % 11)) for i in range(40)]
_CHAIN = [(i, i + 1) for i in range(6)]


def _arithmetic() -> int:
    total = 0
    for i in range(70_000):
        total += i * i % 7
    return total


def _blocked(interp: int) -> bool:
    for pos, neg in _RULES:
        if pos & interp == pos and not neg & interp:
            return True
    return False


def _bitmasks() -> int:
    return sum(not _blocked(interp) for interp in range(1 << 13))


def _colorings() -> int:
    count = 0
    for colors in itertools.product(range(3), repeat=7):
        color = dict(enumerate(colors))
        count += all(color[a] != color[b] for a, b in _CHAIN)
    return count


class Calibration(NamedTuple):
    at: float    # perf_counter clock, middle of the calibration
    took_s: float


def calibrate() -> Calibration:
    """Median time of REPEATS runs of the calibration."""
    start = time.perf_counter()
    times = []
    for _ in range(REPEATS):
        begun = time.perf_counter()
        _arithmetic()
        _bitmasks()
        _colorings()
        times.append(time.perf_counter() - begun)
    return Calibration((start + time.perf_counter()) / 2, statistics.median(times))


def scale(before: Calibration, after: Calibration, at: Optional[float] = None) -> float:
    """Factor for work done between two calibrations: REFERENCE_S over the
    calibration time interpolated (geometrically) to the moment `at`, by
    default halfway."""
    share = 0.5 if at is None else (at - before.at) / (after.at - before.at)
    took = before.took_s ** (1 - share) * after.took_s ** share
    return REFERENCE_S / took
