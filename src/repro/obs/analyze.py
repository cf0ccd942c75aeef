"""Trace analysis: self-time attribution, hotspots, and the critical path.

The tracer (:mod:`repro.obs.trace`) answers *what ran*; this module
answers *where the time actually went*.  It ingests exported span
records — either live :class:`~repro.obs.trace.SpanRecord` objects or
the dicts round-tripped through ``trace.jsonl`` — and computes:

- **self time** per span instance: its duration minus the summed
  durations of its *direct* children.  Because spans nest properly
  (a child's interval lies inside its parent's), self times are a
  partition of the wall clock: summed over every instance they equal
  the summed duration of the root spans, to floating-point noise.
  ``repro trace analyze`` asserts this conservation and reports the
  coverage so a broken trace is visible immediately.
- **call-tree aggregation** by name path (``calibrate`` →
  ``calibrate.optimize`` → ``calibrate.estimate``, the last one instance
  per large table, each sweeping the whole threshold grid), with total /
  self / count / min / max per path, deterministically ordered by
  (-total, path) so output diffs are stable across runs.
- **hotspots**: the top-N paths by aggregated self time — the table a
  perf PR quotes before and after.
- **critical path**: starting from the longest root instance, the
  chain of heaviest children down to a leaf; the sequence of frames
  that bounds the end-to-end wall time.

Everything is exact arithmetic over the recorded intervals; no
sampling, no clock reads of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.export import load_jsonl

__all__ = [
    "TraceAnalysis",
    "analyze_file",
    "analyze_records",
    "render_analysis",
]

ANALYSIS_SCHEMA_VERSION = 1


@dataclass
class PathStat:
    """Aggregated statistics for one name path in the call tree."""

    path: tuple[str, ...]
    total: float = 0.0
    self_time: float = 0.0
    count: int = 0
    min: float = float("inf")
    max: float = float("-inf")

    @property
    def name(self) -> str:
        return self.path[-1]

    def to_dict(self) -> dict:
        return {
            "path": "/".join(self.path),
            "name": self.name,
            "depth": len(self.path) - 1,
            "total_s": self.total,
            "self_s": self.self_time,
            "count": self.count,
            "min_s": self.min,
            "max_s": self.max,
        }


@dataclass
class TraceAnalysis:
    """The full analysis of one trace.

    Attributes:
        spans: number of span instances analyzed.
        roots_total: summed duration of all root spans (the wall time
            the trace accounts for; one term per thread's roots).
        self_total: summed self time over every instance.  Equal to
            ``roots_total`` up to floating-point noise on any properly
            nested trace — the conservation property ``repro trace
            analyze`` checks.
        aggregates: per-path statistics, ordered by (-total, path).
        critical_path: instance chain from the longest root down its
            heaviest children; each hop carries name/duration/self.
    """

    spans: int
    roots_total: float
    self_total: float
    aggregates: list[PathStat]
    critical_path: list[dict] = field(default_factory=list)

    def coverage(self) -> float:
        """self_total / roots_total (1.0 on a well-nested trace)."""
        if self.roots_total <= 0:
            return 1.0
        return self.self_total / self.roots_total

    def hotspots(self, top: int = 10) -> list[PathStat]:
        """Top paths by aggregated self time (deterministic order)."""
        ranked = sorted(self.aggregates, key=lambda s: (-s.self_time, s.path))
        return ranked[: max(0, top)]

    def to_dict(self, top: int = 10) -> dict:
        """JSON-ready analysis document (schema-versioned)."""
        return {
            "schema_version": ANALYSIS_SCHEMA_VERSION,
            "kind": "trace_analysis",
            "spans": self.spans,
            "roots_total_s": self.roots_total,
            "self_total_s": self.self_total,
            "coverage": self.coverage(),
            "tree": [stat.to_dict() for stat in self.aggregates],
            "hotspots": [stat.to_dict() for stat in self.hotspots(top)],
            "critical_path": list(self.critical_path),
        }


def _as_dicts(records) -> list[dict]:
    """Accept SpanRecord objects or already-exported dicts."""
    out = []
    for record in records:
        if hasattr(record, "to_dict"):
            record = record.to_dict()
        if record.get("type", "span") == "span":
            out.append(record)
    return out


def analyze_records(records) -> TraceAnalysis:
    """Analyze span records (SpanRecords or exported dicts).

    Raises:
        ValueError: if the trace contains no spans.
    """
    spans = _as_dicts(records)
    if not spans:
        raise ValueError("trace contains no spans — was tracing enabled?")

    by_id = {s["span_id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    roots: list[dict] = []
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(s)
        else:
            roots.append(s)

    # Per-instance self time: duration minus direct children.  Left
    # unclamped so the conservation identity holds exactly; negative
    # values (clock jitter) are clamped only at display time.
    def duration(s: dict) -> float:
        return s.get("duration", s["end"] - s["start"])

    self_times = {
        s["span_id"]: duration(s)
        - sum(duration(c) for c in children.get(s["span_id"], ()))
        for s in spans
    }

    # Aggregate by name path from the root.
    path_cache: dict[int, tuple[str, ...]] = {}

    def path_of(s: dict) -> tuple[str, ...]:
        sid = s["span_id"]
        cached = path_cache.get(sid)
        if cached is not None:
            return cached
        parent = s.get("parent_id")
        if parent is not None and parent in by_id:
            result = path_of(by_id[parent]) + (s["name"],)
        else:
            result = (s["name"],)
        path_cache[sid] = result
        return result

    stats: dict[tuple[str, ...], PathStat] = {}
    for s in spans:
        stat = stats.setdefault(path_of(s), PathStat(path_of(s)))
        d = duration(s)
        stat.total += d
        stat.self_time += self_times[s["span_id"]]
        stat.count += 1
        stat.min = min(stat.min, d)
        stat.max = max(stat.max, d)

    aggregates = sorted(stats.values(), key=lambda st: (-st.total, st.path))

    # Critical path: the longest root, then its heaviest child, down to
    # a leaf.  Ties break on (start, name) so the walk is deterministic.
    critical: list[dict] = []
    if roots:
        node = max(roots, key=lambda s: (duration(s), -s["start"]))
        while node is not None:
            critical.append(
                {
                    "name": node["name"],
                    "total_s": duration(node),
                    "self_s": self_times[node["span_id"]],
                }
            )
            kids = children.get(node["span_id"])
            node = (
                max(kids, key=lambda s: (duration(s), -s["start"], s["name"]))
                if kids
                else None
            )

    return TraceAnalysis(
        spans=len(spans),
        roots_total=sum(duration(r) for r in roots),
        self_total=sum(self_times.values()),
        aggregates=aggregates,
        critical_path=critical,
    )


def analyze_file(path: str | Path) -> TraceAnalysis:
    """Analyze an exported ``trace.jsonl`` (metric records are ignored)."""
    return analyze_records(load_jsonl(path))


def render_analysis(analysis: TraceAnalysis, top: int = 10) -> str:
    """Human-readable analysis: tree, hotspot table, critical path."""
    lines = [
        f"trace: {analysis.spans} spans, root wall time "
        f"{analysis.roots_total:.4f}s, self-time coverage "
        f"{100 * analysis.coverage():.1f}%"
    ]

    name_width = max(
        [24] + [2 * (len(st.path) - 1) + len(st.name) for st in analysis.aggregates]
    ) + 2
    lines.append("")
    lines.append(
        f"{'span':<{name_width}} {'total':>10}  {'self':>10}  {'self%':>6}  {'calls':>7}"
    )
    denominator = analysis.roots_total or 1.0

    # Hierarchical walk: siblings by (-total, name), children nested
    # under their parent so indentation reads as the call tree.
    by_parent: dict[tuple[str, ...], list[PathStat]] = {}
    for stat in analysis.aggregates:
        by_parent.setdefault(stat.path[:-1], []).append(stat)

    def emit(parent: tuple[str, ...]) -> None:
        for stat in sorted(
            by_parent.get(parent, ()), key=lambda st: (-st.total, st.name)
        ):
            label = "  " * (len(stat.path) - 1) + stat.name
            self_display = max(0.0, stat.self_time)
            lines.append(
                f"{label:<{name_width}} {stat.total:9.4f}s  {self_display:9.4f}s  "
                f"{100 * self_display / denominator:5.1f}%  {stat.count:7d}"
            )
            emit(stat.path)

    emit(())

    hotspots = analysis.hotspots(top)
    if hotspots:
        lines.append("")
        lines.append(f"hotspots (top {len(hotspots)} by self time):")
        for rank, stat in enumerate(hotspots, start=1):
            self_display = max(0.0, stat.self_time)
            lines.append(
                f"  {rank:2d}. {'/'.join(stat.path):<40} self {self_display:9.4f}s "
                f"({100 * self_display / denominator:5.1f}%)  calls {stat.count}"
            )

    if analysis.critical_path:
        lines.append("")
        lines.append("critical path (heaviest chain from the longest root):")
        for hop in analysis.critical_path:
            lines.append(
                f"  {hop['name']:<40} total {hop['total_s']:9.4f}s  "
                f"self {max(0.0, hop['self_s']):9.4f}s"
            )
    return "\n".join(lines)
