"""Unit tests for the observability subsystem (repro.obs)."""

import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    export_jsonl,
    get_registry,
    get_tracer,
    load_jsonl,
    metric_records,
    span,
    summary_tree,
    timed,
    tracing,
    tracing_enabled,
)


@pytest.fixture
def clean_telemetry():
    """Enable tracing on a clean global tracer/registry; restore after."""
    tracer = get_tracer()
    registry = get_registry()
    previous = tracer.enabled
    tracer.reset()
    registry.clear()
    tracer.enabled = True
    yield tracer, registry
    tracer.enabled = previous
    tracer.reset()
    registry.clear()


class TestSpans:
    def test_records_wall_time(self, clean_telemetry):
        tracer, _ = clean_telemetry
        with span("work"):
            pass
        (record,) = tracer.records()
        assert record.name == "work"
        assert record.duration >= 0.0
        assert record.parent_id is None
        assert record.depth == 0

    def test_nesting_parent_child(self, clean_telemetry):
        tracer, _ = clean_telemetry
        with span("outer"):
            with span("inner"):
                pass
        inner, outer = tracer.records()  # inner exits (and records) first
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1
        assert outer.parent_id is None

    def test_sibling_spans_share_parent(self, clean_telemetry):
        tracer, _ = clean_telemetry
        with span("root"):
            with span("a"):
                pass
            with span("b"):
                pass
        a, b, root = tracer.records()
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_attributes_at_open_and_via_set(self, clean_telemetry):
        tracer, _ = clean_telemetry
        with span("work", rows=10) as sp:
            sp.set(bytes=2048)
        (record,) = tracer.records()
        assert record.attributes == {"rows": 10, "bytes": 2048}

    def test_exception_safety(self, clean_telemetry):
        tracer, _ = clean_telemetry
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("boom")
        inner, outer = tracer.records()
        assert "boom" in inner.attributes["error"]
        assert "boom" in outer.attributes["error"]
        # The stack unwound fully: a fresh span is a root again.
        with span("after"):
            pass
        assert tracer.records()[-1].parent_id is None

    def test_disabled_records_nothing(self, clean_telemetry):
        tracer, _ = clean_telemetry
        tracer.enabled = False
        with span("invisible") as sp:
            sp.set(rows=1)
        assert len(tracer.records()) == 0

    def test_disabled_span_is_shared_noop(self, clean_telemetry):
        tracer, _ = clean_telemetry
        tracer.enabled = False
        assert span("a") is span("b")

    def test_tracing_context_manager_restores_state(self):
        tracer = get_tracer()
        before = tracer.enabled
        with tracing(enabled=True):
            assert tracing_enabled()
        assert tracer.enabled == before

    def test_thread_safety_of_tracer(self, clean_telemetry):
        tracer, _ = clean_telemetry
        errors = []

        def worker(tag):
            try:
                for _ in range(50):
                    with span(f"thread.{tag}"):
                        with span(f"thread.{tag}.inner"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        records = tracer.records()
        assert len(records) == 4 * 50 * 2
        # Every inner span's parent must be a same-thread outer span.
        by_id = {r.span_id: r for r in records}
        for record in records:
            if record.name.endswith(".inner"):
                parent = by_id[record.parent_id]
                assert parent.name == record.name[: -len(".inner")]


class TestTimed:
    def test_measures_even_when_disabled(self, clean_telemetry):
        tracer, _ = clean_telemetry
        tracer.enabled = False
        with timed("work") as timer:
            pass
        assert timer.seconds >= 0.0
        assert len(tracer.records()) == 0

    def test_records_span_when_enabled(self, clean_telemetry):
        tracer, _ = clean_telemetry
        with timed("work", rows=3) as timer:
            timer.set(extra=1)
        (record,) = tracer.records()
        assert record.name == "work"
        assert record.attributes == {"rows": 3, "extra": 1}
        assert timer.seconds == pytest.approx(record.duration, abs=1e-3)


class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert counter.summary()["increments"] == 2

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_percentiles(self):
        hist = MetricsRegistry().histogram("h")
        for v in range(1, 101):  # 1..100
            hist.observe(float(v))
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(90) == pytest.approx(90.1)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)

    def test_histogram_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h").percentile(50)

    def test_histogram_empty_p0_p100_also_raise(self):
        hist = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            hist.percentile(0)
        with pytest.raises(ValueError):
            hist.percentile(100)

    def test_histogram_out_of_range_percentile_raises(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(-1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_histogram_single_sample_every_percentile(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(3.5)
        for p in (0, 1, 50, 99, 100):
            assert hist.percentile(p) == 3.5

    def test_histogram_bounded_retention(self):
        hist = MetricsRegistry().histogram("h", max_samples=8)
        for v in range(100):
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.summary()["max"] == 99.0
        assert len(hist._samples) == 8

    def test_histogram_extremes_exact_past_retention_cap(self):
        # The ring buffer keeps a trailing window, but p=0/p=100 track
        # the exact stream min/max independently of the buffer.
        hist = MetricsRegistry().histogram("h", max_samples=4)
        hist.observe(-100.0)
        for v in range(1000):
            hist.observe(float(v))
        hist.observe(9999.0)
        assert hist.percentile(0) == -100.0
        assert hist.percentile(100) == 9999.0
        # Interior percentiles reflect the trailing window (documented
        # ring-buffer bias): the evicted early outlier no longer skews p50.
        assert hist.percentile(50) > 0.0

    def test_histogram_summary_includes_p95(self):
        hist = MetricsRegistry().histogram("h")
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.summary()["p95"] == pytest.approx(95.05)

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.gauge("b").set(2)
        registry.histogram("c").observe(1.0)
        snap = registry.snapshot()
        assert snap["a"]["value"] == 5
        assert snap["b"]["value"] == 2
        assert snap["c"]["count"] == 1
        registry.reset()
        snap = registry.snapshot()
        assert snap["a"]["value"] == 0
        assert snap["c"]["count"] == 0
        assert registry.names() == ["a", "b", "c"]

    def test_thread_safety_of_registry(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(1000):
                registry.counter("hits").inc()
                registry.histogram("lat").observe(0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("hits").value == 8000
        assert registry.histogram("lat").count == 8000


class TestExport:
    def test_jsonl_round_trip(self, clean_telemetry, tmp_path):
        tracer, registry = clean_telemetry
        with span("outer", rows=7):
            with span("inner"):
                pass
        registry.counter("events").inc(3)
        registry.histogram("lat").observe(0.25)

        path = export_jsonl(tmp_path / "run.jsonl")
        records = load_jsonl(path)
        spans = [r for r in records if r["type"] == "span"]
        metrics = [r for r in records if r["type"] == "metric"]
        assert {s["name"] for s in spans} == {"outer", "inner"}
        assert len(spans) == 2
        outer = next(s for s in spans if s["name"] == "outer")
        inner = next(s for s in spans if s["name"] == "inner")
        assert inner["parent_id"] == outer["span_id"]
        assert outer["attributes"] == {"rows": 7}
        by_name = {m["name"]: m for m in metrics}
        assert by_name["events"]["value"] == 3
        assert by_name["lat"]["count"] == 1
        # Each line is standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_metric_records_one_per_instrument(self, clean_telemetry):
        _, registry = clean_telemetry
        registry.counter("a").inc()
        registry.gauge("b").set(1)
        assert len(metric_records(registry)) == 2

    def test_summary_tree_structure(self, clean_telemetry):
        tracer, registry = clean_telemetry
        with span("calibrate"):
            with span("calibrate.sample"):
                pass
            with span("calibrate.sample"):
                pass
        registry.counter("fae.sync.events").inc(2)
        text = summary_tree()
        assert "calibrate" in text
        assert "calibrate.sample" in text
        assert "count     2" in text
        assert "fae.sync.events: 2" in text

    def test_summary_tree_empty(self, clean_telemetry):
        text = summary_tree(Tracer(), MetricsRegistry())
        assert "no spans" in text

    def test_summary_tree_has_self_column(self, clean_telemetry):
        with span("work"):
            with span("inner"):
                pass
        text = summary_tree()
        assert "self%" in text.split("\n")[0]

    def test_summary_tree_siblings_sorted_by_total_then_name(
        self, clean_telemetry, monkeypatch
    ):
        import types

        import repro.obs.trace as trace_module

        # An injected clock: on the real one the two light spans are a few
        # microseconds each and never equal, so the name tie-break was not
        # what decided their order.  Opened in the order b, z, a so that
        # recording order cannot stand in for it either.
        ticks = iter([0.0, 0.0, 5.0, 5.0, 6.0, 6.0, 7.0, 7.0])
        monkeypatch.setattr(
            trace_module, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks))
        )
        with span("root"):
            with span("b_heavy"):
                pass
            with span("z_light"):
                pass
            with span("a_light"):
                pass
        lines = summary_tree().split("\n")
        # Heaviest first; equal-weight siblings tie-break on name, so
        # a_light precedes z_light and the order is deterministic.
        b = next(i for i, line in enumerate(lines) if line.strip().startswith("b_heavy"))
        a = next(i for i, line in enumerate(lines) if line.strip().startswith("a_light"))
        z = next(i for i, line in enumerate(lines) if line.strip().startswith("z_light"))
        assert b < a < z


class TestOverhead:
    def test_disabled_span_allocates_nothing(self, clean_telemetry):
        tracer, _ = clean_telemetry
        tracer.enabled = False
        noop = span("hot.path")
        for _ in range(1000):
            assert span("hot.path") is noop
        assert len(tracer.records()) == 0
