"""Exporters: JSONL dumps and the span summary tree.

Two consumers, two formats:

- :func:`export_jsonl` — one JSON record per finished span and one per
  metric snapshot, machine-parseable (benchmarks regress against this);
- :func:`summary_tree` — the human-readable breakdown printed by
  ``--trace``: span tree with total / self time and call counts,
  followed by a metrics section.

:func:`load_jsonl` round-trips either JSONL file back into dicts.

All artifact writes are atomic (temp file + ``os.replace`` via
:mod:`repro.resilience.atomic`), so a crash mid-export never leaves a
truncated artifact under the final name.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import SpanRecord, Tracer, get_tracer
from repro.resilience.atomic import atomic_write

__all__ = [
    "export_jsonl",
    "load_jsonl",
    "metric_records",
    "summary_tree",
]


def metric_records(registry: MetricsRegistry | None = None) -> list[dict]:
    """One JSON-ready record per instrument in the registry."""
    registry = registry or get_registry()
    return [
        {"type": "metric", "name": name} | summary
        for name, summary in registry.snapshot().items()
    ]


def export_jsonl(
    path: str | Path,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
) -> Path:
    """Write spans then metric snapshots as JSON Lines to ``path``."""
    tracer = tracer or get_tracer()
    path = Path(path)
    with atomic_write(path) as tmp:
        with tmp.open("w", encoding="utf-8") as handle:
            for record in tracer.records():
                handle.write(json.dumps(record.to_dict()) + "\n")
            for record in metric_records(registry):
                handle.write(json.dumps(record) + "\n")
    return path


def load_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSONL export back into a list of dicts."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class _Node:
    """Aggregation node for one span path in the summary tree."""

    __slots__ = ("name", "total", "child_time", "count", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.child_time = 0.0
        self.count = 0
        self.children: dict[str, _Node] = {}

    @property
    def self_time(self) -> float:
        return max(0.0, self.total - self.child_time)


def _build_tree(records: list[SpanRecord]) -> _Node:
    """Aggregate spans by their name-path from the root."""
    by_id = {r.span_id: r for r in records}

    def path_of(record: SpanRecord) -> tuple[str, ...]:
        names: list[str] = []
        cursor: SpanRecord | None = record
        while cursor is not None:
            names.append(cursor.name)
            cursor = by_id.get(cursor.parent_id) if cursor.parent_id else None
        return tuple(reversed(names))

    root = _Node("")
    for record in records:
        node = root
        for name in path_of(record):
            node = node.children.setdefault(name, _Node(name))
        node.total += record.duration
        node.count += 1
        parent_record = by_id.get(record.parent_id) if record.parent_id else None
        if parent_record is not None:
            parent_node = root
            for name in path_of(parent_record):
                parent_node = parent_node.children.setdefault(name, _Node(name))
            parent_node.child_time += record.duration
    return root


def _render(
    node: _Node, lines: list[str], depth: int, name_width: int, wall: float
) -> None:
    # Deterministic order — total time descending, then name — so the
    # summary is diff-stable across runs with equal-cost siblings.
    for child in sorted(node.children.values(), key=lambda n: (-n.total, n.name)):
        label = "  " * depth + child.name
        lines.append(
            f"{label:<{name_width}} total {child.total:9.4f}s  "
            f"self {child.self_time:9.4f}s  "
            f"self% {100 * child.self_time / wall:5.1f}  count {child.count:5d}"
        )
        _render(child, lines, depth + 1, name_width, wall)


def summary_tree(
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    include_metrics: bool = True,
) -> str:
    """Human-readable span tree plus (optionally) a metrics section."""
    tracer = tracer or get_tracer()
    records = tracer.records()
    lines: list[str] = []
    if not records:
        lines.append("(no spans recorded — is tracing enabled?)")
    else:
        root = _build_tree(records)

        def widest(node: _Node, depth: int) -> int:
            width = 0
            for child in node.children.values():
                width = max(width, 2 * depth + len(child.name), widest(child, depth + 1))
            return width

        name_width = max(24, widest(root, 0) + 2)
        wall = sum(child.total for child in root.children.values()) or 1.0
        lines.append(
            f"{'span':<{name_width}} {'time':>15}  {'self':>14}  "
            f"{'self%':>11}  {'calls':>11}"
        )
        _render(root, lines, 0, name_width, wall)

    if include_metrics:
        snapshot = (registry or get_registry()).snapshot()
        if snapshot:
            lines.append("")
            lines.append("metrics:")
            for name, summary in snapshot.items():
                kind = summary.get("kind")
                if kind == "histogram":
                    if summary.get("count", 0) == 0:
                        lines.append(f"  {name}: (no samples)")
                    else:
                        lines.append(
                            f"  {name}: count {summary['count']}  mean {summary['mean']:.6g}  "
                            f"p50 {summary['p50']:.6g}  p99 {summary['p99']:.6g}"
                        )
                else:
                    lines.append(f"  {name}: {summary['value']:.6g}")
    return "\n".join(lines)
