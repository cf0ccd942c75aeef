"""Shuffle Scheduler (paper SS III-C, Eq. 7): adaptive hot/cold interleaving.

Training only on hot mini-batches for long stretches updates only the hot
rows and hurts convergence; swapping every batch maximizes randomness but
pays a hot-bag synchronization per swap.  The scheduler balances the two
with a *rate* ``r`` in [1, 100]: each segment issues ``r%`` of the cold
pool, then ``r%`` of the hot pool, and so on (cold first — cold inputs
touch the widest range of rows).  After every completed segment the
caller reports the test loss and the rate adapts:

- test loss **increased** -> halve ``r`` (more interleaving), floor R(1);
- test loss improved ``u`` consecutive times -> double ``r`` (fewer
  syncs), cap R(100);
- otherwise ``r`` is unchanged.

The paper starts at R(50) and uses ``u = 4`` (after Prechelt's
early-stopping strip heuristic).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import get_registry

__all__ = ["ScheduleEvent", "ShuffleScheduler"]


@dataclass(frozen=True)
class ScheduleEvent:
    """One completed segment of the schedule.

    Attributes:
        kind: execution mode, ``"hot"`` or ``"cold"``.  After
            :meth:`ShuffleScheduler.degrade` every segment is ``"cold"``.
        num_batches: mini-batches issued in the segment.
        rate: the rate in force when the segment was planned.
        test_loss: loss reported after the segment (None until recorded).
        pool: which batch pool the segment drains (``"hot"``/``"cold"``);
            differs from ``kind`` only in degraded mode, where hot-pool
            batches execute on the cold path.  None means same as kind.
    """

    kind: str
    num_batches: int
    rate: int
    test_loss: float | None = None
    pool: str | None = None

    @property
    def drain_pool(self) -> str:
        """The batch pool this segment consumes."""
        return self.pool or self.kind


class ShuffleScheduler:
    """Plans hot/cold segments and adapts the rate from test loss.

    Args:
        num_hot_batches: size of the hot mini-batch pool.
        num_cold_batches: size of the cold mini-batch pool.
        initial_rate: starting rate R(.), paper default 50.
        strip_length: ``u`` consecutive improvements before doubling.
    """

    MIN_RATE = 1
    MAX_RATE = 100

    def __init__(
        self,
        num_hot_batches: int,
        num_cold_batches: int,
        initial_rate: int = 50,
        strip_length: int = 4,
    ) -> None:
        if num_hot_batches < 0 or num_cold_batches < 0:
            raise ValueError("batch pool sizes must be non-negative")
        if not self.MIN_RATE <= initial_rate <= self.MAX_RATE:
            raise ValueError(f"initial_rate must be in [1, 100], got {initial_rate}")
        if strip_length < 1:
            raise ValueError("strip_length must be >= 1")
        self.total_hot = num_hot_batches
        self.total_cold = num_cold_batches
        self.remaining_hot = num_hot_batches
        self.remaining_cold = num_cold_batches
        self.rate = initial_rate
        self.strip_length = strip_length
        self.history: list[ScheduleEvent] = []
        self.transitions = 0
        self.degraded = False
        self._improvement_streak = 0
        self._last_loss: float | None = None
        self._next_kind = "cold"  # the scheduler always begins with cold

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _segment_size(self, kind: str) -> int:
        pool = self.total_cold if kind == "cold" else self.total_hot
        return max(1, round(pool * self.rate / 100))

    def next_segment(self) -> ScheduleEvent | None:
        """Plan the next segment, or None when both pools are drained."""
        if self.remaining_hot == 0 and self.remaining_cold == 0:
            return None

        pool = self._next_kind
        if pool == "cold" and self.remaining_cold == 0:
            pool = "hot"
        elif pool == "hot" and self.remaining_hot == 0:
            pool = "cold"

        available = self.remaining_cold if pool == "cold" else self.remaining_hot
        count = min(self._segment_size(pool), available)

        if pool == "cold":
            self.remaining_cold -= count
        else:
            self.remaining_hot -= count

        # Degraded mode (hot replicas evicted): both pools keep draining,
        # but every segment executes on the cold path.
        kind = "cold" if self.degraded else pool
        if self.history and self.history[-1].kind != kind:
            self.transitions += 1
            get_registry().counter("scheduler.transitions").inc()
        event = ScheduleEvent(kind=kind, num_batches=count, rate=self.rate, pool=pool)
        get_registry().counter(f"scheduler.segments.{kind}").inc()
        self.history.append(event)
        self._next_kind = "hot" if pool == "cold" else "cold"
        return event

    def segments(self):
        """Iterate all remaining segments (rate still adapts mid-flight)."""
        while True:
            segment = self.next_segment()
            if segment is None:
                return
            yield segment

    def repack_pools(self, num_hot_batches: int, num_cold_batches: int) -> None:
        """Swap in freshly re-packed pools after a hot-cache turnover.

        The trainer re-packs its *remaining* batches when cache
        membership changes mid-epoch; the scheduler adopts the new pool
        sizes as both totals and remaining counts (the repacked dataset
        starts from cursor 0).  Rate, adaptation state, and history all
        persist — only the pool geometry changes.  Later epochs iterate
        the most recently repacked pools: the trainer keeps the repacked
        dataset and :meth:`reset_epoch` refills from it.
        """
        if num_hot_batches < 0 or num_cold_batches < 0:
            raise ValueError("batch pool sizes must be non-negative")
        self.total_hot = num_hot_batches
        self.total_cold = num_cold_batches
        self.remaining_hot = num_hot_batches
        self.remaining_cold = num_cold_batches
        get_registry().counter("scheduler.repacks").inc()

    # ------------------------------------------------------------------
    # Rate adaptation (Eq. 7)
    # ------------------------------------------------------------------

    def record_test_loss(self, loss: float) -> None:
        """Report the post-segment test loss and adapt the rate."""
        if self.history:
            last = self.history[-1]
            self.history[-1] = ScheduleEvent(
                kind=last.kind,
                num_batches=last.num_batches,
                rate=last.rate,
                test_loss=loss,
                pool=last.pool,
            )
        registry = get_registry()
        if self._last_loss is not None:
            if loss > self._last_loss:
                self.rate = max(self.MIN_RATE, self.rate // 2)
                self._improvement_streak = 0
                registry.counter("scheduler.rate.halved").inc()
            else:
                self._improvement_streak += 1
                if self._improvement_streak >= self.strip_length:
                    self.rate = min(self.MAX_RATE, self.rate * 2)
                    self._improvement_streak = 0
                    registry.counter("scheduler.rate.doubled").inc()
        registry.gauge("scheduler.rate").set(self.rate)
        self._last_loss = loss

    # ------------------------------------------------------------------
    # Degradation (hot-replica loss)
    # ------------------------------------------------------------------

    def degrade(self) -> None:
        """Force every future segment onto the cold/baseline path.

        Called when the hot replicas are lost (simulated GPU memory
        pressure evicting the hot bags).  The hot batch pool still
        drains — its inputs are valid against the CPU master tables —
        but no segment executes on the (gone) replicas.  One-way for the
        remainder of the run.
        """
        if not self.degraded:
            self.degraded = True
            get_registry().counter("scheduler.degraded").inc()

    # ------------------------------------------------------------------
    # Checkpointable state
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of planning + adaptation state."""
        return {
            "total_hot": self.total_hot,
            "total_cold": self.total_cold,
            "remaining_hot": self.remaining_hot,
            "remaining_cold": self.remaining_cold,
            "rate": self.rate,
            "strip_length": self.strip_length,
            "transitions": self.transitions,
            "degraded": self.degraded,
            "improvement_streak": self._improvement_streak,
            "last_loss": self._last_loss,
            "next_kind": self._next_kind,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot from :meth:`state_dict`.

        Raises:
            ValueError: if the snapshot's pool sizes disagree with this
                scheduler's (the checkpoint belongs to another dataset).
        """
        if (
            int(state["total_hot"]) != self.total_hot
            or int(state["total_cold"]) != self.total_cold
        ):
            raise ValueError(
                f"scheduler state is for pools "
                f"({state['total_hot']} hot, {state['total_cold']} cold); "
                f"this scheduler has ({self.total_hot} hot, {self.total_cold} cold)"
            )
        self.remaining_hot = int(state["remaining_hot"])
        self.remaining_cold = int(state["remaining_cold"])
        self.rate = int(state["rate"])
        self.strip_length = int(state["strip_length"])
        self.transitions = int(state["transitions"])
        self.degraded = bool(state["degraded"])
        self._improvement_streak = int(state["improvement_streak"])
        last_loss = state["last_loss"]
        self._last_loss = None if last_loss is None else float(last_loss)
        self._next_kind = str(state["next_kind"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def reset_epoch(self, num_hot_batches: int, num_cold_batches: int) -> None:
        """Fill both pools with the next epoch's batches; rate and history
        persist."""
        self.total_hot = self.remaining_hot = num_hot_batches
        self.total_cold = self.remaining_cold = num_cold_batches
        self._next_kind = "cold"
