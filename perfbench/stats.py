"""The benchmark's own arithmetic: medians, tail percentiles, spans and
the calibration that scales reported times to a reference host speed.

Standard library only, so the unit tests (``test_stats.py``) run without
the package under test and a forkserver child re-importing the driver
pays nothing for it.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: A percentile is reported only when at least this many samples lie
#: beyond it, so the tail figure rests on more than one or two outliers.
TAIL_SAMPLES = 10
#: Iterations of :func:`calibration_loop` (a few milliseconds).
CALIBRATION_ITERATIONS = 10_000
#: The loop's reference time: about its median on a 2-vCPU virtual machine
#: shared with other tenants, in a quiet hour.  Reported times are scaled
#: to a host where the loop takes this long.
CALIBRATION_REF_S = 0.004


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def calibration_loop(clock=time.perf_counter) -> float:
    """Seconds a fixed pure-Python loop takes: dict, call, string and
    float work, like the interpreters and the compile stack it calibrates.
    The benchmark owns it, so no change to the program can move it."""
    t0 = clock()
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        k = i & 63
        table[k] = table.get(k, 0) + i
        acc += abs(math.sin(k)) * len(str(i))
    return clock() - t0


def calibrate(value: float, unit: str, loop_s: float | None) -> float:
    """``value``, measured just after :func:`calibration_loop` took
    ``loop_s``, as it would read where the loop takes
    :data:`CALIBRATION_REF_S`: a time (``s``) scales with the loop, a rate
    (``1/s``) inversely.  Other units, and a ``loop_s`` of ``None`` (work
    outside the benchmark's own process), are not scaled."""
    if loop_s is None:
        return value
    if loop_s <= 0:
        raise ValueError(f"calibration loop took {loop_s} s")
    if unit == "s":
        return value * CALIBRATION_REF_S / loop_s
    if unit == "1/s":
        return value * loop_s / CALIBRATION_REF_S
    return value


def tail_percentile(n: int, beyond: int = TAIL_SAMPLES) -> int | None:
    """The highest whole percentile with at least ``beyond`` of ``n``
    samples strictly above its nearest-rank position, or ``None`` when
    there are too few samples for any."""
    best = None
    for p in range(100):
        rank = max(1, math.ceil(p / 100 * n))  # samples at or below p
        if n - rank >= beyond:
            best = p
    return best


def nearest_rank(values, p: int) -> float:
    """The ``p``-th percentile by the nearest-rank rule (p=0: minimum)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    return float(xs[max(0, math.ceil(p / 100 * len(xs)) - 1)])


def summarize(values) -> dict:
    """Median, sample count and the tail percentile of one metric."""
    xs = list(values)
    out = {"median": median(xs), "n": len(xs), "tail_p": None,
           "tail": None}
    p = tail_percentile(len(xs))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = nearest_rank(xs, p)
    return out


def fail_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("fail_frac: nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"fail_frac: {failed} failures of {attempted}")
    return failed / attempted


class Recorder:
    """Spans and counts the benchmark records around layer calls.

    A span's duration is added to its name's inclusive total; its self
    total excludes the part covered by spans opened inside it.  Spans
    opened while no other span is open on the thread add to
    :attr:`top_level`, so ``wall - top_level`` is the time no layer
    claimed.  A span re-entered under its own name (recursion) is timed
    once, by the outermost call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_level = 0.0
        self.path = ""                 # label of the execution path running
        self.stash: list = []          # (kind, value) results kept for later
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if any(frame[0] == name for frame in stack):
            yield
            return
        frame = [name, 0.0]
        stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            dt = self.clock() - t0
            stack.pop()
            with self._lock:
                self.inclusive[name] += dt
                self.self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_level += dt

    def add(self, name: str, n: float) -> None:
        with self._lock:
            self.counts[name] += n
