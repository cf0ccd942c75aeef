"""Unit tests for the trace analyzer (repro.obs.analyze)."""

import json

import pytest

from repro.obs import (
    analyze_file,
    analyze_records,
    render_analysis,
    span,
    tracing,
)
from repro.obs.analyze import ANALYSIS_SCHEMA_VERSION


def _span(span_id, name, start, end, parent_id=None):
    return {
        "type": "span",
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "end": end,
        "duration": end - start,
    }


@pytest.fixture
def simple_trace():
    """One root (0..10) with two children (1..4 and 5..9), one grandchild."""
    return [
        _span(1, "root", 0.0, 10.0),
        _span(2, "load", 1.0, 4.0, parent_id=1),
        _span(3, "train", 5.0, 9.0, parent_id=1),
        _span(4, "train.step", 6.0, 8.0, parent_id=3),
    ]


class TestSelfTime:
    def test_self_is_duration_minus_direct_children(self, simple_trace):
        analysis = analyze_records(simple_trace)
        by_path = {st.path: st for st in analysis.aggregates}
        assert by_path[("root",)].self_time == pytest.approx(10.0 - 3.0 - 4.0)
        assert by_path[("root", "load")].self_time == pytest.approx(3.0)
        assert by_path[("root", "train")].self_time == pytest.approx(4.0 - 2.0)
        assert by_path[("root", "train", "train.step")].self_time == pytest.approx(2.0)

    def test_conservation_self_total_equals_roots_total(self, simple_trace):
        analysis = analyze_records(simple_trace)
        assert analysis.roots_total == pytest.approx(10.0)
        assert analysis.self_total == pytest.approx(analysis.roots_total)
        assert analysis.coverage() == pytest.approx(1.0)

    def test_multiple_roots_sum_into_roots_total(self):
        analysis = analyze_records(
            [_span(1, "a", 0.0, 2.0), _span(2, "b", 3.0, 8.0)]
        )
        assert analysis.roots_total == pytest.approx(7.0)
        assert analysis.self_total == pytest.approx(7.0)

    def test_negative_self_left_unclamped_in_stats(self):
        # Improperly nested child longer than its parent: self goes
        # negative in the stats (so sums stay honest) and is clamped
        # only in the rendered output.
        records = [_span(1, "p", 0.0, 1.0), _span(2, "c", 0.0, 3.0, parent_id=1)]
        analysis = analyze_records(records)
        by_path = {st.path: st for st in analysis.aggregates}
        assert by_path[("p",)].self_time == pytest.approx(-2.0)
        assert "-2.0000" not in render_analysis(analysis)


class TestAggregation:
    def test_same_path_instances_aggregate(self):
        records = [
            _span(1, "root", 0.0, 10.0),
            _span(2, "step", 1.0, 2.0, parent_id=1),
            _span(3, "step", 3.0, 7.0, parent_id=1),
        ]
        analysis = analyze_records(records)
        by_path = {st.path: st for st in analysis.aggregates}
        step = by_path[("root", "step")]
        assert step.count == 2
        assert step.total == pytest.approx(5.0)
        assert step.min == pytest.approx(1.0)
        assert step.max == pytest.approx(4.0)

    def test_same_name_different_parents_stay_separate(self):
        records = [
            _span(1, "a", 0.0, 4.0),
            _span(2, "sync", 0.0, 1.0, parent_id=1),
            _span(3, "b", 5.0, 9.0),
            _span(4, "sync", 5.0, 6.0, parent_id=3),
        ]
        paths = {st.path for st in analyze_records(records).aggregates}
        assert ("a", "sync") in paths
        assert ("b", "sync") in paths

    def test_aggregates_ordered_by_total_then_path(self, simple_trace):
        analysis = analyze_records(simple_trace)
        keys = [(-st.total, st.path) for st in analysis.aggregates]
        assert keys == sorted(keys)

    def test_determinism_across_record_order(self, simple_trace):
        shuffled = list(reversed(simple_trace))
        a = analyze_records(simple_trace).to_dict()
        b = analyze_records(shuffled).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestCriticalPath:
    def test_heaviest_chain_from_longest_root(self, simple_trace):
        analysis = analyze_records(simple_trace)
        names = [hop["name"] for hop in analysis.critical_path]
        assert names == ["root", "train", "train.step"]

    def test_longest_root_wins(self):
        records = [
            _span(1, "short", 0.0, 1.0),
            _span(2, "long", 2.0, 9.0),
            _span(3, "inner", 3.0, 8.0, parent_id=2),
        ]
        names = [h["name"] for h in analyze_records(records).critical_path]
        assert names == ["long", "inner"]


class TestInputsAndSchema:
    def test_empty_trace_raises(self):
        with pytest.raises(ValueError, match="no spans"):
            analyze_records([])

    def test_metric_records_ignored(self, simple_trace):
        records = simple_trace + [{"type": "metric", "name": "x", "value": 1}]
        assert analyze_records(records).spans == len(simple_trace)

    def test_to_dict_schema(self, simple_trace):
        doc = analyze_records(simple_trace).to_dict(top=2)
        assert doc["schema_version"] == ANALYSIS_SCHEMA_VERSION
        assert doc["kind"] == "trace_analysis"
        assert len(doc["hotspots"]) == 2
        assert doc["coverage"] == pytest.approx(1.0)
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_hotspots_ranked_by_self_time(self, simple_trace):
        hotspots = analyze_records(simple_trace).hotspots(top=10)
        selfs = [st.self_time for st in hotspots]
        assert selfs == sorted(selfs, reverse=True)

    def test_analyze_file_round_trip(self, simple_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in simple_trace) + "\n", encoding="utf-8"
        )
        analysis = analyze_file(path)
        assert analysis.spans == len(simple_trace)
        assert analysis.coverage() == pytest.approx(1.0)


class TestLiveTrace:
    def test_real_tracer_records_conserve_self_time(self):
        with tracing(enabled=True) as tracer:
            tracer.reset()
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
            records = tracer.records()
            tracer.reset()
        analysis = analyze_records(records)
        assert analysis.spans == 3
        assert analysis.self_total == pytest.approx(analysis.roots_total, rel=1e-9)

    def test_render_nests_children_under_parent(self, simple_trace):
        text = render_analysis(analyze_records(simple_trace))
        lines = text.split("\n")
        root_idx = next(i for i, line in enumerate(lines) if line.startswith("root"))
        assert lines[root_idx + 1].startswith("  train")  # heavier child first
        assert lines[root_idx + 2].startswith("    train.step")
        assert lines[root_idx + 3].startswith("  load")
        assert "critical path" in text
        assert "hotspots" in text
