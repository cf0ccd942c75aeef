"""Metrics registry: named counters, gauges, and histograms.

Counters accumulate monotonically (``fae.sync.bytes``), gauges hold the
latest value of a level (``scheduler.rate``), histograms collect samples
and summarize them with percentiles (``serve.request.latency``).  All
three are created on first use through a :class:`MetricsRegistry`::

    from repro.obs import get_registry

    registry = get_registry()
    registry.counter("fae.sync.events").inc()
    registry.gauge("scheduler.rate").set(50)
    registry.histogram("serve.request.latency").observe(0.0042)

Unlike tracing (ambient, off by default), metrics are explicit: only
code that calls the registry pays for it, so the registry is always
live.  ``snapshot()`` returns a JSON-ready view of every instrument;
``reset()`` zeroes them (tests and per-run deltas use both).  All
instruments are thread-safe.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]


class Counter:
    """A monotonically increasing sum.

    Attributes:
        name: registry name.
    """

    __slots__ = ("name", "_lock", "_value", "_count")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._count = 0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self._value += amount
            self._count += 1

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def summary(self) -> dict:
        with self._lock:
            return {"kind": "counter", "value": self._value, "increments": self._count}

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0
            self._count = 0


class Gauge:
    """The most recent value of some level (rate, fraction, depth)."""

    __slots__ = ("name", "_lock", "_value", "_set_count")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._set_count = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._set_count += 1

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (gauges may go down)."""
        with self._lock:
            self._value += delta
            self._set_count += 1

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def summary(self) -> dict:
        with self._lock:
            return {"kind": "gauge", "value": self._value, "updates": self._set_count}

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0
            self._set_count = 0


class Histogram:
    """Sample collector with percentile summaries.

    Retains at most ``max_samples`` observations.  Past the cap, new
    observations overwrite the buffer cyclically (a ring keyed on the
    running count), so the retained set is approximately the **most
    recent** ``max_samples`` observations — *not* a uniform reservoir
    over the whole stream.  Interior percentiles therefore reflect the
    trailing window once the cap is exceeded (fine for steady-state
    latency distributions, biased for drifting ones), while ``count`` /
    ``sum`` / ``min`` / ``max`` stay exact over the full stream, and
    ``percentile(0)`` / ``percentile(100)`` always return the exact
    stream min/max.
    """

    __slots__ = ("name", "max_samples", "_lock", "_samples", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, max_samples: int = 65536) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.name = name
        self.max_samples = max_samples
        self._lock = threading.Lock()
        self._samples: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if len(self._samples) < self.max_samples:
                self._samples.append(value)
            else:
                # Deterministic stride replacement keeps a spread of the
                # stream without unbounded growth.
                self._samples[self._count % self.max_samples] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile over retained samples.

        Edge cases (pinned by tests): an empty histogram raises
        ``ValueError``; ``p=0`` and ``p=100`` return the *exact* stream
        min/max (tracked independently of the retention buffer, so they
        are immune to the ring-buffer bias documented on the class); a
        single retained sample is returned for every ``p``.

        Args:
            p: percentile in [0, 100].
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if self._count == 0:
                raise ValueError(f"histogram {self.name} has no samples")
            if p == 0:
                return self._min
            if p == 100:
                return self._max
            samples = sorted(self._samples)
        if len(samples) == 1:
            return samples[0]
        rank = p / 100 * (len(samples) - 1)
        low = int(rank)
        high = min(low + 1, len(samples) - 1)
        fraction = rank - low
        return samples[low] * (1 - fraction) + samples[high] * fraction

    def summary(self) -> dict:
        with self._lock:
            if self._count == 0:
                return {"kind": "histogram", "count": 0}
            base = {
                "kind": "histogram",
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count,
                "min": self._min,
                "max": self._max,
            }
        return base | {
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")


class MetricsRegistry:
    """Creates and holds named instruments; names are unique per kind."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, factory, kind):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory(name)
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str, max_samples: int = 65536) -> Histogram:
        """Get or create the histogram called ``name``."""
        return self._get(name, lambda n: Histogram(n, max_samples), Histogram)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready summaries of every instrument, by name."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: instruments[name].summary() for name in sorted(instruments)}

    def reset(self) -> None:
        """Zero every instrument (names stay registered)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.reset()

    def clear(self) -> None:
        """Forget every instrument entirely."""
        with self._lock:
            self._instruments.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY
