"""Write-ahead journal for hot-cache refresh transactions.

A cache refresh at a segment boundary mutates four things that must
agree: cache membership, GPU replica bags, the repacked batch streams,
and the scheduler's pools.  A crash between any two of those leaves the
run inconsistent.  The journal makes the refresh a transaction:

1. **intent** — before anything mutates, the planned delta (promoted /
   demoted ids per table), the cache's logical tick, and the target
   generation are written to ``refresh.journal`` via the fsynced
   atomic-write machinery;
2. the refresh mutations run;
3. **commit** — after ``repack_pools`` the record is rewritten with
   ``status="committed"``.

Recovery does not replay the journal.  Checkpoints are taken *before*
the refresh and :meth:`EmbeddingHotCache.plan_rebalance` is a pure
function of cache state, so the resumed trainer simply re-plans and
rolls the refresh forward; the journal's pending intent is then used to
*verify* that the re-derived delta matches what the crashed process was
about to do (any mismatch means nondeterminism and is a hard error).
One record suffices — a refresh only begins after the previous one
committed, and a pending intent is superseded exactly when the re-plan
that matches it commits.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.resilience.atomic import atomic_write_text

__all__ = ["JOURNAL_VERSION", "JournalError", "RefreshJournal"]

#: Schema version of ``refresh.journal`` records.
JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """The refresh journal contradicts the trainer's state."""


def _delta_to_json(delta) -> dict:
    """CacheDelta -> JSON-safe sorted id lists (deterministic bytes)."""
    return {
        side: {name: ids.tolist() for name, ids in sorted(mapping.items()) if ids.size}
        for side, mapping in (("promoted", delta.promoted), ("demoted", delta.demoted))
    }


class RefreshJournal:
    """One-record write-ahead journal under a checkpoint directory.

    Args:
        directory: the checkpoint directory; the journal lives next to
            the checkpoints it guards, as ``refresh.journal``.
    """

    FILENAME = "refresh.journal"

    def __init__(self, directory: str | Path) -> None:
        self.path = Path(directory) / self.FILENAME
        self._intent: dict | None = None  # what begin() wrote, until committed

    def _write(self, record: dict) -> None:
        atomic_write_text(self.path, json.dumps(record, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    # Transaction protocol
    # ------------------------------------------------------------------

    def begin(self, *, refresh_index: int, tick: int, generation: int, delta) -> dict:
        """Durably record the intent to apply ``delta`` — call *before*
        any cache/replica/scheduler mutation.
        """
        with span("resilience.journal.begin", tick=int(tick)):
            record = {
                "version": JOURNAL_VERSION,
                "status": "intent",
                "refresh_index": int(refresh_index),
                "tick": int(tick),
                "generation": int(generation),
                "delta": _delta_to_json(delta),
            }
            self._write(record)
        self._intent = dict(record)  # the caller's copy cannot alter the commit
        get_registry().counter("resilience.journal.begins").inc()
        return record

    def commit(self) -> None:
        """Mark the in-flight refresh complete — call after ``repack_pools``.

        Commits the intent this object's :meth:`begin` wrote, from memory.
        An intent left on disk by a crashed process is never committed
        as is: the resumed run re-plans, verifies and begins it again.

        Raises:
            JournalError: if this journal has no begun, uncommitted intent.
        """
        if self._intent is None:
            raise JournalError(
                f"journal {self.path} has no pending intent to commit"
            )
        with span("resilience.journal.commit"):
            self._write({**self._intent, "status": "committed"})
        self._intent = None
        get_registry().counter("resilience.journal.commits").inc()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def read(self) -> dict | None:
        """The journal record, or None when absent.

        Raises:
            JournalError: on an unparseable or wrong-version record — the
                file is written atomically, so garbage is not a torn
                write but real corruption worth surfacing.
        """
        if not self.path.exists():
            return None
        text = self.path.read_text(encoding="utf-8")
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise JournalError(f"journal {self.path} is unreadable: {exc}") from exc
        if record.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {self.path} has version {record.get('version')}, "
                f"expected {JOURNAL_VERSION}"
            )
        return record

    def pending(self) -> dict | None:
        """The uncommitted intent record, or None."""
        record = self.read()
        if record is not None and record.get("status") == "intent":
            return record
        return None

    def matches(self, record: dict, *, tick: int, delta) -> bool:
        """Whether a re-derived plan reproduces a journaled intent."""
        return int(record.get("tick", -1)) == int(tick) and record.get(
            "delta"
        ) == _delta_to_json(delta)

    def verify_rollforward(self, *, tick: int, delta) -> None:
        """Check a re-planned refresh against the pending intent, if any.

        A pending intent drawn at the same logical tick must describe the
        same delta the resumed trainer just re-derived; anything else
        means the "deterministic" re-plan was not deterministic, and
        rolling it forward would silently diverge from the crashed run.

        Raises:
            JournalError: on a delta mismatch at the intent's tick.
        """
        record = self.pending()
        if record is None or int(record.get("tick", -1)) != int(tick):
            return
        if not self.matches(record, tick=tick, delta=delta):
            raise JournalError(
                f"journal {self.path} intent at tick {tick} does not match "
                "the re-derived refresh delta — refusing to roll forward a "
                "nondeterministic refresh"
            )
        get_registry().counter("resilience.journal.rollforwards").inc()
