"""Resource sampler: background RSS/CPU sampling into registry gauges.

A perf number without its memory/CPU context is half a measurement —
the streaming preprocess work (DESIGN §8) is *about* bounding RSS, and
a latency win that doubles resident memory is not a win.  The sampler
runs a daemon thread that periodically reads the process's resident set
size and CPU utilization and publishes them as gauges:

- ``proc.rss.bytes`` — current resident set size;
- ``proc.rss.peak_bytes`` — high-water mark seen by the sampler;
- ``proc.cpu.percent`` — CPU utilization since the previous sample
  (user+system time delta over wall delta; >100 means multiple cores).

Use it as a context manager around a run::

    with ResourceSampler() as rs:
        ...work...
    print(rs.summary())   # {"rss_peak_bytes": ..., "cpu_mean_percent": ...}

The summary reports maxima/means over the whole window, which is what
``repro preprocess``/``train`` print.
Reading ``/proc/self/statm`` costs microseconds; at the default 50 ms
interval the sampler's own footprint is noise.  On platforms without
procfs it falls back to ``resource.getrusage`` (whose ru_maxrss is a
peak, not a level — close enough for the summary's purpose).
"""

from __future__ import annotations

import os
import threading
import time

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["ResourceSampler", "read_rss_bytes"]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes() -> int:
    """Current resident set size in bytes (0 when unknowable)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        # ru_maxrss is kilobytes on Linux (bytes on macOS, where the
        # procfs path above is unavailable anyway).
        import sys

        scale = 1 if sys.platform == "darwin" else 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
    except Exception:
        return 0


class ResourceSampler:
    """Samples RSS and CPU on a daemon thread; summarizes on stop.

    Args:
        interval: seconds between samples.
        registry: metrics registry to publish gauges into (the global
            registry by default).
    """

    def __init__(
        self, interval: float = 0.05, registry: MetricsRegistry | None = None
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        registry = registry or get_registry()
        self._rss_gauge = registry.gauge("proc.rss.bytes")
        self._rss_peak_gauge = registry.gauge("proc.rss.peak_bytes")
        self._cpu_gauge = registry.gauge("proc.cpu.percent")
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._samples = 0
        self._rss_peak = 0
        self._rss_last = 0
        self._cpu_sum = 0.0
        self._cpu_peak = 0.0
        self._cpu_samples = 0
        self._last_cpu = 0.0
        self._last_wall = 0.0

    # -- sampling --------------------------------------------------------

    def _cpu_seconds(self) -> float:
        t = os.times()
        return t.user + t.system

    def sample_once(self) -> None:
        """Take one sample now (also called by the background thread)."""
        rss = read_rss_bytes()
        now_wall = time.perf_counter()
        now_cpu = self._cpu_seconds()
        with self._lock:
            self._samples += 1
            self._rss_last = rss
            self._rss_peak = max(self._rss_peak, rss)
            if self._last_wall > 0 and now_wall > self._last_wall:
                percent = 100.0 * (now_cpu - self._last_cpu) / (now_wall - self._last_wall)
                self._cpu_sum += percent
                self._cpu_peak = max(self._cpu_peak, percent)
                self._cpu_samples += 1
                self._cpu_gauge.set(percent)
            self._last_wall = now_wall
            self._last_cpu = now_cpu
        self._rss_gauge.set(rss)
        self._rss_peak_gauge.set(self._rss_peak)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:
                # A sampling failure (e.g. procfs vanishing mid-shutdown)
                # must not leave the thread looping on errors or wedge
                # join(); the summary simply covers fewer samples.
                break

    # -- lifecycle -------------------------------------------------------

    def start(self) -> ResourceSampler:
        """Start the daemon thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self.sample_once()
            self._thread = threading.Thread(
                target=self._run, name="repro-resource-sampler", daemon=True
            )
            self._thread.start()
        return self

    @property
    def running(self) -> bool:
        """Whether the background thread is currently alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def stop(self) -> dict:
        """Stop sampling (idempotent) and return :meth:`summary`.

        Safe to call while unwinding an exception: the thread is always
        signalled and joined, and a failing final sample is swallowed so
        ``stop`` never masks the original error.
        """
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
            try:
                self.sample_once()  # final reading covers the tail of the run
            except Exception:
                pass
        return self.summary()

    def __enter__(self) -> ResourceSampler:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- reporting -------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready maxima/means over the sampled window."""
        with self._lock:
            return {
                "samples": self._samples,
                "rss_peak_bytes": self._rss_peak,
                "rss_last_bytes": self._rss_last,
                "cpu_mean_percent": (
                    self._cpu_sum / self._cpu_samples if self._cpu_samples else 0.0
                ),
                "cpu_peak_percent": self._cpu_peak,
            }

    def format_summary(self) -> str:
        """One-line human summary for CLI runs."""
        s = self.summary()
        return (
            f"resources: peak rss {s['rss_peak_bytes'] / 2**20:.1f} MiB, "
            f"cpu mean {s['cpu_mean_percent']:.0f}% "
            f"(peak {s['cpu_peak_percent']:.0f}%, {s['samples']} samples)"
        )
