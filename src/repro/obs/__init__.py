"""Observability: tracing spans, metrics, and run artifacts.

Zero-dependency telemetry for the FAE pipeline — the measurement
substrate every perf PR regresses against:

- :mod:`repro.obs.trace` — nestable, thread-safe wall-time spans
  (``with span("calibrate.optimize"): ...``), off by default and free
  when off; :func:`timed` always measures and backs the legacy
  ``last_elapsed_seconds``-style attributes.
- :mod:`repro.obs.metrics` — named counters, gauges, and histograms
  (``fae.sync.bytes``, ``scheduler.rate``, ``serve.request.latency``)
  with snapshot/reset semantics and percentile summaries.
- :mod:`repro.obs.export` — JSONL trace/metric dumps and the
  human-readable span summary tree.
- :mod:`repro.obs.analyze` — trace profiling: per-span self time,
  call-tree aggregation, hotspot tables, and critical-path extraction
  over exported span JSONL (``repro trace analyze``).
- :mod:`repro.obs.sampler` — background RSS/CPU sampling into registry
  gauges with a peak/mean summary, wired into preprocess/train runs.

Timing claims are measured from outside by ``perfbench/`` (the repo's
only timing benchmark), not by this package.

Enable tracing with :func:`tracing` (a context manager), ``REPRO_TRACE=1``,
or the ``--trace [PATH]`` flag of ``repro preprocess`` / ``repro train``.
"""

from repro.obs.analyze import (
    TraceAnalysis,
    analyze_file,
    analyze_records,
    render_analysis,
)
from repro.obs.export import (
    export_jsonl,
    load_jsonl,
    metric_records,
    summary_tree,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.sampler import ResourceSampler, read_rss_bytes
from repro.obs.trace import (
    Span,
    SpanRecord,
    Timer,
    Tracer,
    get_tracer,
    span,
    timed,
    tracing,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ResourceSampler",
    "Span",
    "SpanRecord",
    "Timer",
    "TraceAnalysis",
    "Tracer",
    "analyze_file",
    "analyze_records",
    "export_jsonl",
    "get_registry",
    "get_tracer",
    "load_jsonl",
    "metric_records",
    "read_rss_bytes",
    "render_analysis",
    "span",
    "summary_tree",
    "timed",
    "tracing",
    "tracing_enabled",
]
