"""Thread-safe counters, gauges, and histograms for the pipeline.

A :class:`MetricsRegistry` hands out named instruments on first use
(``registry.counter("analysis.dependence.tests").inc()``); all mutation is
lock-guarded so instrumented code may run under OpenMP-style thread pools.
As with tracing, the installed default is a no-op registry
(:data:`NULL_METRICS`) whose instruments are shared inert singletons.
"""

from __future__ import annotations

import math
import random
import threading
import zlib
from typing import Iterable

from ..runconfig import current

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "get_metrics",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Last-written value (e.g. current thread count, directive count)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, v: float) -> None:
        with self._lock:
            self._value = float(v)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Streaming summary (count/sum/min/max) plus retained samples.

    Samples are kept in a bounded reservoir (``max_samples``) so reports
    can show medians without a dependency.  Once full, each new
    observation replaces a uniformly random slot with probability
    ``max_samples / count`` (Vitter's Algorithm R), so every observation
    — early or late — is retained with equal probability and the
    percentile estimates stay unbiased.  The RNG is seeded from the
    instrument name, so two runs observing the same stream report the
    same percentiles.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples",
                 "_max_samples", "_rng", "_lock")

    def __init__(self, name: str, max_samples: int = 4096):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list[float] = []
        self._max_samples = max_samples
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        v = float(v)
        with self._lock:
            self.count += 1
            self.total += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            if len(self._samples) < self._max_samples:
                self._samples.append(v)
            else:
                j = self._rng.randrange(self.count)
                if j < self._max_samples:
                    self._samples[j] = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        with self._lock:
            xs = sorted(self._samples)
        if not xs:
            return 0.0
        i = min(len(xs) - 1, max(0, round(q / 100.0 * (len(xs) - 1))))
        return xs[i]

    def summary(self) -> dict[str, float]:
        # One locked read of the whole tuple: a concurrent observe() can
        # never yield a count from one observation and a sum from another
        # (the sampler and the vectorized executor observe from threads).
        with self._lock:
            count, total = self.count, self.total
            mn, mx = self.min, self.max
        if not count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {"count": count, "sum": total, "min": mn,
                "max": mx, "mean": total / count}


class MetricsRegistry:
    """Named instruments, created on first access, listed sorted."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name)
            return h

    def counters(self) -> Iterable[Counter]:
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> Iterable[Gauge]:
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> Iterable[Histogram]:
        return [self._histograms[k] for k in sorted(self._histograms)]

    def snapshot(self) -> dict[str, dict]:
        """Plain-dict view used by the JSON exporter."""
        return {
            "counters": {c.name: c.value for c in self.counters()},
            "gauges": {g.name: g.value for g in self.gauges()},
            "histograms": {h.name: h.summary() for h in self.histograms()},
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class _NullInstrument:
    """Shared inert counter/gauge/histogram."""

    __slots__ = ()
    name = ""
    value = 0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, n: int = 1) -> None:
        return None

    def set(self, v: float) -> None:
        return None

    def observe(self, v: float) -> None:
        return None

    def summary(self) -> dict[str, float]:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Default no-op registry: every instrument is one shared singleton."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def counters(self) -> list:
        return []

    def gauges(self) -> list:
        return []

    def histograms(self) -> list:
        return []

    def snapshot(self) -> dict[str, dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        return None


NULL_METRICS = NullMetricsRegistry()


def get_metrics() -> MetricsRegistry | NullMetricsRegistry:
    """The run's registry (no-op unless observation is active)."""
    metrics = current().metrics
    return NULL_METRICS if metrics is None else metrics
