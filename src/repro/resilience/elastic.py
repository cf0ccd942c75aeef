"""Elastic real-process execution: a supervised worker pool.

Everything else in :mod:`repro.resilience` survives *simulated* faults —
exceptions raised inside one Python process.  This module is the
real-process substrate: a supervisor that spawns genuine
``multiprocessing`` workers, detects their deaths by missed heartbeats,
re-runs their work elsewhere, and degrades gracefully when processes are
not available at all.  The design mirrors how production parameter-server
and data-preprocessing fleets stay up (the Facebook training-efficiency
paper attributes a large share of lost throughput to crashes, hangs, and
stragglers — exactly the three fault kinds injected here):

- **heartbeats** — each worker runs a daemon thread that beats over a
  queue every ``heartbeat_interval``; the supervisor declares a worker
  dead after ``heartbeat_miss_budget`` consecutive missed beats (a
  SIGKILL stops the beats instantly; a wedged process that stops
  beating is indistinguishable from a dead one, which is the point).
- **task leases** — every dispatch is a lease.  A lease whose worker
  dies, or that outlives ``lease_timeout``, is re-dispatched to another
  worker.  A task that burns ``max_task_leases`` failed leases is a
  *poison task*: it is quarantined into the same JSONL ledger format as
  :class:`~repro.resilience.guards.QuarantineLedger` and the run fails
  loudly instead of looping forever.
- **speculation** — with ``speculate`` on, an idle worker duplicates the
  oldest still-running task once it has been outstanding for
  ``speculate_after`` seconds.  First result wins; the loser's result is
  discarded on arrival (and its worker reclaimed), which is how
  MapReduce-style backup tasks cancel without preemption.
- **degradation** — when process spawn is unavailable (or ``workers``
  <= 1, or the pool burns its respawn budget), the remaining tasks run
  in-process, sequentially, in task order — deterministic and
  fault-free, so callers always get an answer.

Task functions are addressed as ``"module.path:function"`` strings and
resolved by import inside the worker, so the pool works under both
``fork`` and ``spawn`` start methods; payloads and results cross the
process boundary by pickling.  Tasks must be pure (re-executable): a
re-dispatched or speculated task runs from scratch elsewhere, and the
supervisor keeps only the first result.

Every lifecycle step is emitted into a schema-versioned JSONL event log
(:class:`SupervisorEventLog`) and mirrored as ``resilience.elastic.*``
counters in the metrics registry, so a chaos run is fully auditable:
spawn, heartbeat-miss, death, re-dispatch, speculate, quarantine,
degrade, cancel — and the trainers add ``rejoin``.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing as mp
import os
import queue as queue_mod
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs.metrics import get_registry
from repro.resilience.atomic import atomic_write_text
from repro.resilience.faults import WORKER_FAULTS

__all__ = [
    "ELASTIC_EVENT_VERSION",
    "ElasticConfig",
    "ElasticError",
    "SupervisorEventLog",
    "TaskQuarantinedError",
    "WorkerPool",
]

#: Schema version stamped into every supervisor event record.
ELASTIC_EVENT_VERSION = 1

#: How long an injected hang sleeps; far past any sane heartbeat budget,
#: so the supervisor always wins the race.
_HANG_SECONDS = 600.0


class ElasticError(RuntimeError):
    """The worker pool could not complete the submitted tasks."""


class TaskQuarantinedError(ElasticError):
    """One or more tasks were quarantined as poison.

    Attributes:
        task_ids: quarantined task indices, ascending.
        ledger_path: quarantine ledger location (None when no directory
            was configured).
        results: results of the tasks that *did* complete, by task id.
    """

    def __init__(
        self,
        kind: str,
        task_ids: list[int],
        ledger_path: Path | None,
        results: dict[int, Any],
    ) -> None:
        where = f" (ledger: {ledger_path})" if ledger_path else ""
        super().__init__(
            f"{len(task_ids)} poison task(s) quarantined running {kind}: "
            f"{task_ids}{where}"
        )
        self.task_ids = task_ids
        self.ledger_path = ledger_path
        self.results = results


@dataclass(frozen=True)
class ElasticConfig:
    """Supervisor knobs for the elastic worker pool.

    Attributes:
        workers: worker processes; <= 1 runs tasks in-process (the
            deterministic degraded mode).
        heartbeat_interval: seconds between worker heartbeats.
        heartbeat_miss_budget: consecutive missed beats before a worker
            is declared dead.
        lease_timeout: seconds a single task lease may run before it is
            re-dispatched (catches live-but-stuck workers).
        max_task_leases: failed leases before a task is quarantined.
        speculate: duplicate the slowest outstanding task onto an idle
            worker (first result wins).
        speculate_after: seconds a task must be outstanding before it is
            eligible for speculation.
        max_respawns: replacement workers the supervisor may spawn over
            the pool's lifetime before degrading to in-process execution.
        spawn_grace: seconds a freshly spawned worker has to deliver its
            first heartbeat (covers slow ``spawn``-method interpreter
            startup) before liveness checks apply.
        run_timeout: hard wall-clock ceiling on one :meth:`WorkerPool.run`
            call — a supervisor bug must never hang the caller.
        start_method: multiprocessing start method, or None to prefer
            ``fork`` (falling back to the platform default).
    """

    workers: int = 0
    heartbeat_interval: float = 0.05
    heartbeat_miss_budget: int = 5
    lease_timeout: float = 30.0
    max_task_leases: int = 3
    speculate: bool = False
    speculate_after: float = 1.0
    max_respawns: int = 8
    spawn_grace: float = 10.0
    run_timeout: float = 300.0
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_miss_budget < 1:
            raise ValueError("heartbeat_miss_budget must be >= 1")
        if self.lease_timeout <= 0 or self.run_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.max_task_leases < 1:
            raise ValueError("max_task_leases must be >= 1")
        if self.speculate_after < 0:
            raise ValueError("speculate_after must be >= 0")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")

    @property
    def process_mode(self) -> bool:
        """Whether this config asks for real worker processes."""
        return self.workers > 1

    @property
    def death_after(self) -> float:
        """Silence, in seconds, that flips a worker to dead."""
        return self.heartbeat_interval * self.heartbeat_miss_budget


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

    def kinds(self) -> list[str]:
        """Distinct event kinds, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self.events:
            seen.setdefault(record["event"], None)
        return list(seen)

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


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def resolve_task(kind: str) -> Callable[[Any], Any]:
    """Resolve a ``"module.path:function"`` task kind to its callable.

    Raises:
        ValueError: on a malformed kind string.
        ImportError / AttributeError: when the target does not exist.
    """
    module_name, sep, attr = kind.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(f"task kind {kind!r} is not 'module.path:function'")
    return getattr(importlib.import_module(module_name), attr)


def _apply_worker_faults(faults: dict | None, task_id: int, lease: int, stop_beats) -> None:
    """Fire any injected fault targeting this (task, lease) in the worker.

    Faults only fire on lease 0 — a re-dispatched lease must succeed, or
    chaos runs would never terminate.  The hang fault stops the
    heartbeat thread *first*, modeling a fully wedged process (e.g. a
    native loop holding the GIL), so detection flows through the
    supervisor's heartbeat-miss path as designed.
    """
    if not faults or lease != 0:
        return
    if faults.get("straggle_task") == task_id:
        time.sleep(faults["straggle_seconds"])
    if faults.get("hang_task") == task_id:
        stop_beats.set()
        time.sleep(_HANG_SECONDS)
    if faults.get("kill_task") == task_id:
        os.kill(os.getpid(), signal.SIGKILL)


def _worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    beat_queue,
    heartbeat_interval: float,
    faults: dict | None,
) -> None:
    """Worker process entry: beat, take leases, return results."""
    stop_beats = threading.Event()

    def beat_loop() -> None:
        while not stop_beats.wait(heartbeat_interval):
            try:
                beat_queue.put(("beat", worker_id))
            except Exception:
                return  # supervisor gone; the process is being torn down

    beat_queue.put(("beat", worker_id))
    threading.Thread(
        target=beat_loop, name=f"elastic-beat-{worker_id}", daemon=True
    ).start()

    while True:
        message = task_queue.get()
        if message is None:
            return
        task_id, lease, kind, payload = message
        try:
            _apply_worker_faults(faults, task_id, lease, stop_beats)
            result = resolve_task(kind)(payload)
        except BaseException as exc:  # noqa: BLE001 - must never kill the loop
            result_queue.put(
                ("fail", worker_id, task_id, lease, f"{type(exc).__name__}: {exc}")
            )
        else:
            result_queue.put(("done", worker_id, task_id, lease, result))


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------


class _Task:
    """Supervisor-side state of one submitted task."""

    __slots__ = ("task_id", "payload", "status", "failures", "leases", "running", "speculated")

    def __init__(self, task_id: int, payload: Any) -> None:
        self.task_id = task_id
        self.payload = payload
        self.status = "pending"  # pending | running | done | failed
        self.failures = 0
        self.leases = 0  # next lease number to issue
        self.running: dict[int, tuple[int, float]] = {}  # lease -> (worker, t0)
        self.speculated = False


class _Worker:
    """Supervisor-side state of one worker process."""

    __slots__ = ("worker_id", "proc", "queue", "last_beat", "beats_seen", "spawned_at", "assignment")

    def __init__(self, worker_id: int, proc, queue) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.queue = queue
        self.last_beat = time.monotonic()
        self.beats_seen = 0
        self.spawned_at = self.last_beat
        self.assignment: tuple[int, int] | None = None  # (task_id, lease)


class WorkerPool:
    """Supervised elastic worker pool (see the module docstring).

    Args:
        config: supervisor knobs.
        worker_faults: picklable injected-fault spec for the workers
            (from :meth:`~repro.resilience.faults.FaultPlan.worker_faults`),
            or None for a clean run.
        events: event log to emit into (a fresh in-memory log by default).
        quarantine_dir: directory for the poison-task ledger
            (``quarantine.jsonl``, same format as the ingest ledger);
            None keeps quarantine records in events/counters only.
    """

    def __init__(
        self,
        config: ElasticConfig,
        worker_faults: dict | None = None,
        events: SupervisorEventLog | None = None,
        quarantine_dir: str | Path | None = None,
    ) -> None:
        self.config = config
        self.worker_faults = worker_faults
        self.events = events if events is not None else SupervisorEventLog()
        self.quarantine_dir = Path(quarantine_dir) if quarantine_dir else None
        registry = get_registry()
        self._counters = {
            name: registry.counter(f"resilience.elastic.{name}")
            for name in (
                "spawns",
                "heartbeat_misses",
                "deaths",
                "redispatches",
                "lease_expiries",
                "speculations",
                "duplicates_ignored",
                "quarantined",
                "degraded",
                "tasks_completed",
                "cancelled",
            )
        }

    # -- public API ------------------------------------------------------

    def run(self, kind: str, payloads: list) -> dict[int, Any]:
        """Execute ``kind`` over every payload; results by task index.

        Tasks may complete in any order and on any worker (or twice, under
        speculation) — the returned dict is keyed by submission index, so
        callers merge in canonical order regardless.

        Raises:
            TaskQuarantinedError: when any task exhausted its leases
                (partial results ride on the exception).
            ElasticError: on supervisor-level failure (e.g. run timeout).
        """
        resolve_task(kind)  # fail fast in the parent on a bad kind
        tasks = [_Task(index, payload) for index, payload in enumerate(payloads)]
        if not tasks:
            return {}
        try:
            if not self.config.process_mode:
                results: dict[int, Any] = {}
                self._run_inline(kind, tasks, results, reason="workers<=1")
            else:
                results = self._run_supervised(kind, tasks)
        finally:
            if self.events.path is not None:
                self.events.flush()
        failed = sorted(t.task_id for t in tasks if t.status == "failed")
        if failed:
            ledger_path = self._flush_quarantine(kind, tasks)
            raise TaskQuarantinedError(kind, failed, ledger_path, results)
        return results

    # -- degraded (in-process) execution ---------------------------------

    def _run_inline(
        self, kind: str, tasks: list[_Task], results: dict[int, Any], reason: str
    ) -> None:
        """Deterministic sequential fallback; never injects faults."""
        remaining = [t for t in tasks if t.status not in ("done", "failed")]
        self.events.emit("degrade", reason=reason, remaining=len(remaining))
        self._counters["degraded"].inc()
        fn = resolve_task(kind)
        for task in remaining:
            try:
                results[task.task_id] = fn(task.payload)
            except Exception as exc:  # deterministic failure: straight to poison
                task.failures += 1
                self._quarantine(task, f"{type(exc).__name__}: {exc}")
            else:
                task.status = "done"
                self._counters["tasks_completed"].inc()

    # -- supervised (real-process) execution -----------------------------

    def _context(self):
        if self.config.start_method is not None:
            return mp.get_context(self.config.start_method)
        methods = mp.get_all_start_methods()
        return mp.get_context("fork" if "fork" in methods else None)

    def _run_supervised(self, kind: str, tasks: list[_Task]) -> dict[int, Any]:
        try:
            ctx = self._context()
            result_queue = ctx.Queue()
            beat_queue = ctx.Queue()
        except Exception as exc:
            results: dict[int, Any] = {}
            self._run_inline(kind, tasks, results, reason=f"no-multiprocessing: {exc}")
            return results

        workers: dict[int, _Worker] = {}
        state = {"next_worker_id": 0}

        def spawn() -> _Worker | None:
            worker_id = state["next_worker_id"]
            try:
                task_queue = ctx.Queue()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        worker_id,
                        task_queue,
                        result_queue,
                        beat_queue,
                        self.config.heartbeat_interval,
                        self.worker_faults,
                    ),
                    daemon=True,
                    name=f"elastic-worker-{worker_id}",
                )
                proc.start()
            except Exception:
                return None
            state["next_worker_id"] += 1
            worker = _Worker(worker_id, proc, task_queue)
            workers[worker_id] = worker
            self.events.emit("spawn", worker=worker_id, pid=proc.pid)
            self._counters["spawns"].inc()
            return worker

        for _ in range(min(self.config.workers, len(tasks))):
            if spawn() is None:
                break
        if not workers:
            results = {}
            self._run_inline(kind, tasks, results, reason="process spawn unavailable")
            return results

        results = {}
        try:
            self._supervise(kind, tasks, results, workers, spawn, result_queue, beat_queue)
        finally:
            self._shutdown(workers, tasks)
        return results

    def _supervise(
        self, kind, tasks, results, workers, spawn, result_queue, beat_queue
    ) -> None:
        """The supervisor loop: dispatch, drain, detect, re-dispatch."""
        config = self.config
        pending: deque[_Task] = deque(tasks)
        deadline = time.monotonic() + config.run_timeout
        poll = min(config.heartbeat_interval / 2, 0.05)

        def dispatch(worker: _Worker, task: _Task, speculative: bool = False) -> None:
            lease = task.leases
            task.leases += 1
            now = time.monotonic()
            task.running[lease] = (worker.worker_id, now)
            task.status = "running"
            worker.assignment = (task.task_id, lease)
            self._note_armed_faults(task.task_id, lease)
            worker.queue.put((task.task_id, lease, kind, task.payload))
            if speculative:
                task.speculated = True
                self.events.emit(
                    "speculate", task=task.task_id, lease=lease, worker=worker.worker_id
                )
                self._counters["speculations"].inc()
            else:
                self.events.emit(
                    "dispatch", task=task.task_id, lease=lease, worker=worker.worker_id
                )

        def fail_lease(task: _Task, lease: int, reason: str) -> None:
            """A lease died/expired: re-dispatch the task or quarantine it."""
            task.running.pop(lease, None)
            if task.status in ("done", "failed"):
                return
            task.failures += 1
            if task.failures >= config.max_task_leases:
                self._quarantine(task, reason)
                return
            if not task.running:
                task.status = "pending"
            pending.appendleft(task)
            self.events.emit(
                "re-dispatch", task=task.task_id, failures=task.failures, reason=reason
            )
            self._counters["redispatches"].inc()

        def on_worker_death(worker: _Worker, reason: str) -> None:
            self.events.emit(
                "death", worker=worker.worker_id, pid=worker.proc.pid, reason=reason
            )
            self._counters["deaths"].inc()
            if worker.proc.is_alive():
                worker.proc.terminate()
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=2.0)
            assignment = worker.assignment
            del workers[worker.worker_id]
            if assignment is not None:
                task_id, lease = assignment
                fail_lease(tasks[task_id], lease, reason)
            if state_needs_worker() and state_can_respawn():
                self._respawns_used += 1
                spawn()

        self._respawns_used = 0

        def state_can_respawn() -> bool:
            return self._respawns_used < config.max_respawns

        def state_needs_worker() -> bool:
            outstanding = sum(1 for t in tasks if t.status in ("pending", "running"))
            return outstanding > 0 and len(workers) < config.workers

        while any(t.status in ("pending", "running") for t in tasks):
            if time.monotonic() > deadline:
                raise ElasticError(
                    f"elastic run exceeded run_timeout={config.run_timeout}s "
                    f"({sum(1 for t in tasks if t.status == 'done')}/{len(tasks)} done)"
                )

            # Drain heartbeats (non-blocking).
            while True:
                try:
                    _, worker_id = beat_queue.get_nowait()
                except queue_mod.Empty:
                    break
                worker = workers.get(worker_id)
                if worker is not None:
                    worker.last_beat = time.monotonic()
                    worker.beats_seen += 1

            # Drain results; block briefly on the first read as the loop's pace.
            blocking = True
            while True:
                try:
                    message = (
                        result_queue.get(timeout=poll)
                        if blocking
                        else result_queue.get_nowait()
                    )
                except queue_mod.Empty:
                    break
                blocking = False
                status, worker_id, task_id, lease, payload = message
                worker = workers.get(worker_id)
                if worker is not None and worker.assignment == (task_id, lease):
                    worker.assignment = None
                    worker.last_beat = time.monotonic()
                task = tasks[task_id]
                task.running.pop(lease, None)
                if task.status in ("done", "failed"):
                    self.events.emit(
                        "duplicate-ignored", task=task_id, lease=lease, worker=worker_id
                    )
                    self._counters["duplicates_ignored"].inc()
                    continue
                if status == "done":
                    task.status = "done"
                    results[task_id] = payload
                    self.events.emit("complete", task=task_id, lease=lease, worker=worker_id)
                    self._counters["tasks_completed"].inc()
                else:
                    fail_lease(task, lease, f"task error: {payload}")

            now = time.monotonic()

            # Liveness: exited processes and heartbeat silence.
            for worker in list(workers.values()):
                if not worker.proc.is_alive():
                    on_worker_death(worker, "exited")
                    continue
                grace = (
                    config.spawn_grace
                    if worker.beats_seen == 0
                    else config.death_after
                )
                silence = now - worker.last_beat
                if silence > config.death_after and worker.beats_seen > 0:
                    self.events.emit(
                        "heartbeat-miss",
                        worker=worker.worker_id,
                        silence=round(silence, 4),
                        budget=config.heartbeat_miss_budget,
                    )
                    self._counters["heartbeat_misses"].inc(config.heartbeat_miss_budget)
                    on_worker_death(worker, "heartbeat-miss")
                elif worker.beats_seen == 0 and silence > grace:
                    on_worker_death(worker, "never-beat")

            # Lease expiry: live workers stuck on one task too long.
            for task in tasks:
                if task.status != "running":
                    continue
                for lease, (worker_id, started) in list(task.running.items()):
                    if now - started <= config.lease_timeout:
                        continue
                    self.events.emit(
                        "lease-expiry", task=task.task_id, lease=lease, worker=worker_id
                    )
                    self._counters["lease_expiries"].inc()
                    worker = workers.get(worker_id)
                    if worker is not None and worker.assignment == (task.task_id, lease):
                        # The worker is wedged on this lease: recycle it.
                        on_worker_death(worker, "lease-expiry")
                    else:
                        fail_lease(task, lease, "lease expired")

            # Dispatch pending work to idle workers.
            idle = [w for w in workers.values() if w.assignment is None]
            while pending and idle:
                task = pending.popleft()
                if task.status in ("done", "failed"):
                    continue
                dispatch(idle.pop(), task)

            # Speculation: duplicate the oldest outstanding task.
            if config.speculate and not pending and idle:
                candidates = [
                    t
                    for t in tasks
                    if t.status == "running" and not t.speculated and len(t.running) == 1
                ]
                if candidates:
                    oldest = min(
                        candidates, key=lambda t: next(iter(t.running.values()))[1]
                    )
                    started = next(iter(oldest.running.values()))[1]
                    if now - started >= config.speculate_after:
                        dispatch(idle.pop(), oldest, speculative=True)

            # All workers gone and no respawn budget: finish inline.
            if not workers:
                self._run_inline(kind, tasks, results, reason="worker pool exhausted")
                return

    # -- shared helpers --------------------------------------------------

    def _note_armed_faults(self, task_id: int, lease: int) -> None:
        """Count injected worker faults at arm time (the child can't)."""
        if not self.worker_faults or lease != 0:
            return
        registry = get_registry()
        for kind in WORKER_FAULTS:
            if self.worker_faults.get(f"{kind}_task") == task_id:
                registry.counter(f"faults.worker_{kind}.injected").inc()
                self.events.emit("fault-armed", task=task_id, kind=kind)

    def _quarantine(self, task: _Task, reason: str) -> None:
        task.status = "failed"
        self.events.emit(
            "quarantine", task=task.task_id, failures=task.failures, reason=reason
        )
        self._counters["quarantined"].inc()

    def _flush_quarantine(self, kind: str, tasks: list[_Task]) -> Path | None:
        """Write poison tasks into a guards-format quarantine ledger."""
        failed = [t for t in tasks if t.status == "failed"]
        if self.quarantine_dir is None or not failed:
            return None
        from repro.resilience.guards import QuarantineLedger

        ledger = QuarantineLedger(self.quarantine_dir)
        for task in failed:
            ledger.record(
                task.task_id,
                ["elastic.poison_task"],
                detail={"kind": kind, "failures": task.failures},
            )
        return ledger.flush()

    def _shutdown(self, workers: dict[int, _Worker], tasks: list[_Task]) -> None:
        """Stop every worker; terminate stragglers (cancelled duplicates)."""
        for worker in workers.values():
            try:
                worker.queue.put(None)
            except Exception:
                pass
        for worker in workers.values():
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                if worker.assignment is not None:
                    self.events.emit(
                        "cancel", worker=worker.worker_id, task=worker.assignment[0]
                    )
                    self._counters["cancelled"].inc()
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(timeout=1.0)
            for q in (worker.queue,):
                try:
                    q.close()
                    q.cancel_join_thread()
                except Exception:
                    pass
