"""Background resource sampling: RSS, CPU time, GC counts over time.

A :class:`ResourceSampler` is a daemon thread that wakes every
``interval`` seconds and records one tick — resident set size, process
CPU seconds, and the generation-0/1/2 garbage-collector counts.  Each
tick is (a) appended to the sampler's own time series, which the run
ledger persists under ``samples`` and the Chrome exporter renders as
counter tracks, and (b) written into the active metrics registry as
gauges (``sample.rss_mb``, ``sample.cpu_s``, ``sample.gc_gen0``) plus a
``sample.rss_mb`` histogram, so long vectorized or fuzz runs expose
their memory trajectory through the ordinary metrics machinery.

Sampling is **off by default**: it costs a thread and a syscall per
tick, and the zero-overhead contract of :mod:`repro.observe` only bends
when the user asks (``repro <cmd> --sample SECONDS``).  Starting and
stopping each record one ``sample:resource`` decision event.

RSS comes from ``/proc/self/statm`` where available (Linux), falling
back to ``resource.getrusage`` (macOS/BSD report ``ru_maxrss`` — a high
watermark, still monotone and useful) and to 0.0 where neither exists.
"""

from __future__ import annotations

import contextvars
import gc
import os
import threading
import time
from typing import Callable

__all__ = ["ResourceSampler", "read_rss_bytes"]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes() -> float:
    """Current resident set size in bytes (best effort, never raises)."""
    try:
        with open("/proc/self/statm", "rb") as f:
            return float(f.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; on Linux /proc above wins, so
        # treat the value as KiB only when it is implausibly small.
        return float(rss) * (1024.0 if rss < 1 << 32 else 1.0)
    except Exception:
        return 0.0


class ResourceSampler:
    """Periodic RSS/CPU/GC sampler attached to the active observation.

    Use as a context manager or via :meth:`start` / :meth:`stop`::

        with ResourceSampler(interval=0.05) as sampler:
            run_long_workload()
        ticks = sampler.series()        # [{"t": ..., "rss_mb": ...}, ...]

    ``clock`` is injectable for tests; ticks carry ``t`` seconds relative
    to the sampler's start (re-based onto a tracer epoch by the caller
    when needed).
    """

    def __init__(self, interval: float = 0.05,
                 clock: Callable[[], float] = time.perf_counter):
        if interval <= 0:
            raise ValueError("sample interval must be > 0 seconds")
        self.interval = float(interval)
        self._clock = clock
        self._samples: list[dict] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._epoch = 0.0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            raise RuntimeError("ResourceSampler already started")
        from .decisions import get_decisions

        self._epoch = self._clock()
        self._stop.clear()
        # The thread ticks under a copy of this context, so its samples
        # reach the caller's metrics.
        self._thread = threading.Thread(
            target=contextvars.copy_context().run, args=(self._run,),
            name="repro-resource-sampler", daemon=True)
        self._thread.start()
        get_decisions().record(
            "sample:resource", "cli", 0, "sampler", "started",
            interval_s=self.interval)
        return self

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self.tick()                     # final point closes the series
        from .decisions import get_decisions

        get_decisions().record(
            "sample:resource", "cli", 0, "sampler", "stopped",
            interval_s=self.interval, ticks=len(self._samples))

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------
    def tick(self) -> dict:
        """Take one sample now (the thread calls this; tests may too)."""
        from .metrics import get_metrics

        counts = gc.get_count()
        sample = {
            "t": round(self._clock() - self._epoch, 6),
            "rss_mb": round(read_rss_bytes() / (1024.0 * 1024.0), 3),
            "cpu_s": round(time.process_time(), 6),
            "gc_gen0": counts[0],
            "gc_gen1": counts[1],
            "gc_gen2": counts[2],
        }
        with self._lock:
            self._samples.append(sample)
        m = get_metrics()
        if m.enabled:
            m.gauge("sample.rss_mb").set(sample["rss_mb"])
            m.gauge("sample.cpu_s").set(sample["cpu_s"])
            m.gauge("sample.gc_gen0").set(sample["gc_gen0"])
            m.histogram("sample.rss_mb").observe(sample["rss_mb"])
        return sample

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    # -- results -------------------------------------------------------
    def series(self) -> list[dict]:
        """A copy of the recorded time series, in tick order."""
        with self._lock:
            return [dict(s) for s in self._samples]

    @property
    def ticks(self) -> int:
        with self._lock:
            return len(self._samples)
