"""Metric definitions: the names, units and directions BENCHMARK.json lists.

``END_TO_END`` and ``PER_LAYER`` are the single source; ``selftest.py`` checks
that ``BENCHMARK.json`` says the same.  Every workload reports every metric:
a per-layer metric of a layer the workload never enters reads 0, which is the
prediction the workload exists to make (``nn.*`` on ``preprocess-shards``,
``core.cache_*`` on ``train-dlrm-steady``).

Per-layer times come from ``tracer.analyze`` (self time per span name, divided
by the number of traced passes); counts come from the program's public
results (``TrainResult``, ``cache.stats()``, ``get_registry()`` deltas) and
are filled in by the workload.
"""

from __future__ import annotations

from tracer import SPAN_NAMES, TraceAnalysis

# name, unit, better, bound
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
)

# metric -> span names whose self time it sums (seconds per traced pass):
# every span is its own metric, ``serve.*`` excepted (milliseconds, below).
SPAN_SECONDS: dict[str, tuple[str, ...]] = {
    f"{span}_s": (span,) for span in SPAN_NAMES if not span.startswith("serve.")
}

# metric -> span names, reported as milliseconds per request (serve-rank only)
SERVE_SPAN_MS: dict[str, tuple[str, ...]] = {
    "serve.rank_self_ms": ("serve.rank",),
    "serve.predict_batch_ms": ("serve.predict_batch",),
    "serve.model_forward_ms": (
        "models.forward_self",
        "nn.mlp_fwd",
        "nn.interaction",
        "nn.attention",
    ),
    "serve.embedding_fwd_ms": ("nn.embedding_fwd",),
    "serve.cache_observe_ms": ("core.cache_observe", "core.sketch_add"),
    "serve.cache_rebalance_ms": ("core.cache_plan", "core.cache_apply"),
}

# name, unit, better.  Times first (from spans), then counts and ratios.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((name, "s", "lower") for name in SPAN_SECONDS),
    *((name, "ms", "lower") for name in SERVE_SPAN_MS),
    ("data.shard_read_mib", "MiB", "lower"),
    ("core.fae_bytes", "B", "lower"),
    ("core.hot_input_fraction", "fraction", "higher"),
    ("core.sync_events", "count", "lower"),
    ("core.sync_bytes", "B", "lower"),
    ("core.scheduler_transitions", "count", "lower"),
    ("core.scheduler_segments", "count", "lower"),
    ("core.cache_hit_rate", "fraction", "higher"),
    ("core.cache_promotions", "count", "lower"),
    ("core.cache_demotions", "count", "lower"),
    ("core.cache_rebalances", "count", "lower"),
    ("train.steps", "count", "higher"),
    ("train.final_test_loss", "loss", "lower"),
    ("train.test_accuracy", "fraction", "higher"),
    ("train.baseline_samples_per_s", "1/s", "higher"),
    ("train.fae_over_baseline", "ratio", "higher"),
    ("dist.allreduce_calls", "count", "lower"),
    ("dist.allreduce_bytes", "B", "lower"),
    ("dist.replica_divergence", "abs", "lower"),
    ("resilience.checkpoint_saves", "count", "lower"),
    ("resilience.checkpoint_bytes", "B", "lower"),
    ("serve.rebalance_request_share", "fraction", "lower"),
    ("serve.open_p50_ms", "ms", "lower"),
    ("serve.open_p99_ms", "ms", "lower"),
    ("serve.open_late_start_p99_ms", "ms", "lower"),
    ("serve.open120_p99_ms", "ms", "lower"),
    ("serve.cluster_overhead_us", "us", "lower"),
    ("serve.cluster_virtual_p99_ms", "ms", "lower"),
    ("obs.trace_wall_s", "s", "lower"),
    ("obs.trace_overhead_share", "fraction", "lower"),
    ("obs.trace_conservation_error", "fraction", "lower"),
    ("obs.program_tracing_overhead_share", "fraction", "lower"),
)

UNITS = {name: unit for name, unit, *_rest in (*END_TO_END, *PER_LAYER)}

# Registry counters whose per-pass deltas feed the count metrics.
COUNTER_METRICS: dict[str, tuple[str, ...]] = {
    "core.sync_events": ("fae.sync.events",),
    "core.sync_bytes": ("fae.sync.bytes",),
    "core.scheduler_transitions": ("scheduler.transitions",),
    "core.scheduler_segments": ("scheduler.segments.hot", "scheduler.segments.cold"),
    "dist.allreduce_calls": ("dist.collective.calls",),
    "dist.allreduce_bytes": ("dist.collective.bytes",),
    "resilience.checkpoint_saves": ("resilience.checkpoint.saves",),
    "resilience.checkpoint_bytes": ("resilience.checkpoint.bytes",),
}


def read_counters() -> dict[str, float]:
    """Current values of every registry counter ``COUNTER_METRICS`` reads."""
    from repro.obs import get_registry

    registry = get_registry()
    return {
        counter: registry.counter(counter).value
        for counters in COUNTER_METRICS.values()
        for counter in counters
    }


def per_layer_metrics(
    analysis: TraceAnalysis,
    passes: int,
    counters_before: dict[str, float],
    counters_after: dict[str, float],
    requests: int = 0,
    extra: dict[str, float] | None = None,
) -> dict[str, float]:
    """Every per-layer metric of one traced run; unset ones read 0.

    Args:
        analysis: self times over the traced passes.
        passes: traced passes (times and counts are per pass).
        counters_before / counters_after: ``read_counters()`` around them.
        requests: traced serving requests (0 off ``serve-rank``).
        extra: values the workload measured itself (override the zeros).
    """
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for metric, spans in SPAN_SECONDS.items():
        values[metric] = analysis.seconds(*spans) / passes
    if requests:
        for metric, spans in SERVE_SPAN_MS.items():
            values[metric] = 1e3 * analysis.seconds(*spans) / requests
    for metric, counters in COUNTER_METRICS.items():
        values[metric] = (
            sum(counters_after[c] - counters_before[c] for c in counters) / passes
        )
    values["obs.trace_wall_s"] = analysis.roots_seconds / passes
    values["obs.trace_conservation_error"] = analysis.conservation_error
    for name, value in (extra or {}).items():
        if name not in values:
            raise KeyError(f"{name!r} is not a per-layer metric")
        values[name] = float(value)
    return values
