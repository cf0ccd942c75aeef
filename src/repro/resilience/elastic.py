"""The rank-rejoin event log of elastic distributed training.

:class:`~repro.dist.fae_parallel.DistributedFAETrainer` run with
``rejoin`` parks a rank that dies at a collective and re-admits it at the
next segment boundary.  Each step of that lifecycle (``death``, then
``rejoin``) is emitted into a schema-versioned JSONL event log,
:class:`SupervisorEventLog`, and the re-admissions are mirrored by the
``resilience.elastic.rejoins`` counter in the metrics registry, so a
chaos run is auditable after the fact (``repro train --events-jsonl``).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from repro.resilience.atomic import atomic_write_text

__all__ = ["ELASTIC_EVENT_VERSION", "SupervisorEventLog"]

#: Schema version stamped into every event record.
ELASTIC_EVENT_VERSION = 1


class SupervisorEventLog:
    """Schema-versioned, sequence-numbered JSONL supervisor event log.

    Events accumulate in memory; :meth:`flush` writes the whole log
    atomically (same discipline as the quarantine ledger), so a crashed
    run never leaves a truncated log.  Each record carries ``v`` (schema
    version), ``seq`` (monotonic), ``ts`` (wall clock), and ``event``
    plus event-specific fields.

    Args:
        path: JSONL destination, or None for an in-memory-only log.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.events: list[dict] = []
        self._seq = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, event: str, **fields) -> dict:
        """Append one event record and return it."""
        with self._lock:
            record = {
                "v": ELASTIC_EVENT_VERSION,
                "seq": self._seq,
                "ts": round(time.time(), 6),
                "event": event,
                **fields,
            }
            self._seq += 1
            self.events.append(record)
        return record

    def count(self, event: str) -> int:
        """Occurrences of one event kind."""
        return sum(1 for record in self.events if record["event"] == event)

    def flush(self) -> Path | None:
        """Atomically (re)write the log file; returns its path (or None)."""
        if self.path is None:
            return None
        with self._lock:
            lines = [json.dumps(record, sort_keys=True) for record in self.events]
        atomic_write_text(self.path, "".join(line + "\n" for line in lines))
        return self.path

    @staticmethod
    def load(path: str | Path) -> list[dict]:
        """Parse a flushed event log back into records.

        Raises:
            ValueError: on a non-JSON line or an unsupported schema
                version (the error names the file and line).
        """
        records = []
        for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), 1
        ):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"event log {path}:{lineno} is corrupt: {exc}") from exc
            if record.get("v") != ELASTIC_EVENT_VERSION:
                raise ValueError(
                    f"event log {path}:{lineno} has schema version "
                    f"{record.get('v')!r} (expected {ELASTIC_EVENT_VERSION})"
                )
            records.append(record)
        return records
