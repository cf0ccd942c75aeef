"""Crash-anywhere certification: SIGKILL real training, resume, byte-compare.

The durability claim worth certifying is not "resume works" but "resume
is *exact* no matter where the crash lands".  This harness proves it the
only way that counts — with real processes and real SIGKILLs:

1. an **uninterrupted reference** run trains to completion and writes a
   deterministic final-state fingerprint (:func:`write_final_state`);
2. for every kill point — each refresh phase of the journaled cache
   turnover (``crash_refresh=SEG@PHASE``), each checkpoint boundary
   (``crash_checkpoint=N``), and optional mid-segment steps
   (``crash_step=N``) — a fresh run is launched with that crash fault
   armed and must die by SIGKILL (a clean exit means the kill point
   never fired, which is itself a failure: the certification would be
   vacuous);
3. the killed run is resumed from its newest good checkpoint and writes
   its own final-state fingerprint;
4. the two fingerprints are compared **byte-for-byte** with
   :func:`filecmp.cmp`.

The fingerprint covers SHA-256 digests of every dense parameter and
embedding table, the resume-invariant fields of the
:class:`~repro.train.trainer.TrainResult`, and the cache's full durable
state (stats plus a digest of its entire ``state_dict`` tree), all as
sorted-key JSON — a pure function of the final training state, so two
runs agree iff they converged to identical bytes.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.resilience.atomic import atomic_write_text
from repro.resilience.faults import REFRESH_PHASES

__all__ = [
    "CERTIFY_VERSION",
    "SIGKILL_RETURNCODE",
    "CertifyConfig",
    "format_certification",
    "run_certification",
    "write_final_state",
]

#: Schema version of final-state fingerprints and certification reports.
CERTIFY_VERSION = 1

#: What ``subprocess`` reports for a process that died by SIGKILL.
SIGKILL_RETURNCODE = -9


# ----------------------------------------------------------------------
# Final-state fingerprint
# ----------------------------------------------------------------------


def _array_digest(hasher: "hashlib._Hash", array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    hasher.update(str(array.dtype).encode())
    hasher.update(str(array.shape).encode())
    hasher.update(array.tobytes())


def _tree_digest(tree) -> str:
    """SHA-256 over a nested dict/list/array tree, order-independent.

    Dict keys are walked sorted and fed into the hash alongside the leaf
    bytes, so two trees digest equal iff they hold identical values at
    identical paths.
    """
    hasher = hashlib.sha256()

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], f"{path}/{key}")
        elif isinstance(node, (list, tuple)):
            for index, item in enumerate(node):
                walk(item, f"{path}[{index}]")
        elif isinstance(node, np.ndarray):
            hasher.update(path.encode())
            _array_digest(hasher, node)
        else:
            hasher.update(path.encode())
            hasher.update(repr(node).encode())

    walk(tree, "")
    return hasher.hexdigest()


def write_final_state(path: str | Path, model, result, cache=None) -> Path:
    """Write the deterministic final-state fingerprint of a finished run.

    The JSON bytes are a pure function of the final training state:
    resumed and uninterrupted runs that converged to identical state
    produce identical files (compare with ``cmp`` / :func:`filecmp.cmp`).
    Histories, sync counts, and wall times are deliberately excluded —
    they legitimately differ across a resume.
    """
    dense_hasher = hashlib.sha256()
    for param in model.dense_parameters():
        _array_digest(dense_hasher, param.value)
    tables = {
        name: _tree_digest(table.weight.value)
        for name, table in sorted(model.tables.items())
    }
    fingerprint = {
        "version": CERTIFY_VERSION,
        "params": {"dense": dense_hasher.hexdigest(), "tables": tables},
        "result": {
            "iterations": int(result.history.points[-1].iteration)
            if result.history.points
            else 0,
            "final_train_accuracy": float(result.final_train_accuracy),
            "final_test_accuracy": float(result.final_test_accuracy),
            "degraded": bool(result.degraded),
        },
        "cache": None
        if cache is None
        else {"stats": cache.stats(), "state": _tree_digest(cache.state_dict())},
    }
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        destination, json.dumps(fingerprint, indent=2, sort_keys=True) + "\n"
    )
    return destination


# ----------------------------------------------------------------------
# Certification harness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyConfig:
    """One certification campaign (all kill points share these knobs).

    Scaled so the default run refreshes its cache at least once within a
    couple of minutes: tiny schema, small log, aggressive
    ``cache_every``.

    Attributes:
        phases: refresh phases to SIGKILL at (``refresh_index`` selects
            which turnover).
        checkpoints: checkpoint-save indices (0-based) to SIGKILL after.
        steps: optimizer-iteration numbers to SIGKILL after (mid-segment
            kill points; resume replays from the previous boundary).
        gpus: > 1 certifies the distributed trainer instead.
        timeout: per-subprocess wall clock bound, seconds.
    """

    dataset: str = "criteo-kaggle"
    scale: str = "tiny"
    samples: int = 2048
    seed: int = 12
    epochs: int = 1
    batch_size: int = 64
    lr: float = 0.15
    budget_bytes: int = 32 * 1024
    cache_budget: int = 32 * 1024
    cache_every: int = 256
    checkpoint_every: int = 1
    refresh_index: int = 0
    phases: tuple[str, ...] = REFRESH_PHASES
    checkpoints: tuple[int, ...] = (0,)
    steps: tuple[int, ...] = ()
    gpus: int = 1
    timeout: float = 600.0

    def __post_init__(self) -> None:
        for phase in self.phases:
            if phase not in REFRESH_PHASES:
                raise ValueError(
                    f"unknown refresh phase {phase!r}; expected one of {REFRESH_PHASES}"
                )

    def kill_specs(self) -> list[str]:
        """Every kill point as a ``FaultPlan.parse`` crash-fault spec."""
        specs = [f"crash_refresh={self.refresh_index}@{phase}" for phase in self.phases]
        specs += [f"crash_checkpoint={index}" for index in self.checkpoints]
        specs += [f"crash_step={iteration}" for iteration in self.steps]
        return specs


def _train_argv(
    config: CertifyConfig,
    checkpoint_dir: Path,
    final_state: Path | None,
    faults: str | None = None,
    resume: bool = False,
) -> list[str]:
    argv = [
        sys.executable,
        "-m",
        "repro",
        "train",
        config.dataset,
        "--mode",
        "fae",
        "--scale",
        str(config.scale),
        "--samples",
        str(config.samples),
        "--seed",
        str(config.seed),
        "--epochs",
        str(config.epochs),
        "--batch-size",
        str(config.batch_size),
        "--lr",
        str(config.lr),
        "--budget-bytes",
        str(config.budget_bytes),
        "--cache-budget",
        str(config.cache_budget),
        "--cache-every",
        str(config.cache_every),
        "--checkpoint-dir",
        str(checkpoint_dir),
        "--checkpoint-every",
        str(config.checkpoint_every),
    ]
    if config.gpus > 1:
        argv += ["--gpus", str(config.gpus)]
    if final_state is not None:
        argv += ["--final-state", str(final_state)]
    if faults is not None:
        argv += ["--faults", faults]
    if resume:
        argv += ["--resume"]
    return argv


def _run(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run one training subprocess with the repro package importable."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return subprocess.run(
        argv, capture_output=True, text=True, timeout=timeout, env=env
    )


def run_certification(
    config: CertifyConfig, out_dir: str | Path, log=print
) -> dict:
    """Run the full crash-anywhere campaign; returns the report dict.

    Layout under ``out_dir``: ``reference/`` holds the uninterrupted
    run's checkpoints and ``final_state.json``; each kill point gets its
    own subdirectory (checkpoints, journal, crash/resume logs, and its
    fingerprint).  The report itself is written to
    ``out_dir/certify_report.json``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    reference_dir = out_dir / "reference"
    reference_state = reference_dir / "final_state.json"
    log(f"certify: reference run -> {reference_dir}")
    completed = _run(
        _train_argv(config, reference_dir / "ckpt", reference_state),
        config.timeout,
    )
    if completed.returncode != 0 or not reference_state.exists():
        raise RuntimeError(
            "certification reference run failed "
            f"(exit {completed.returncode}):\n{completed.stderr[-2000:]}"
        )

    points: list[dict] = []
    for spec in config.kill_specs():
        slug = spec.replace("=", "-").replace("@", "-")
        point_dir = out_dir / slug
        checkpoint_dir = point_dir / "ckpt"
        point_state = point_dir / "final_state.json"
        point: dict = {"kill": spec, "killed": False, "resumed": False, "match": False}

        crashed = _run(
            _train_argv(config, checkpoint_dir, None, faults=spec),
            config.timeout,
        )
        point["crash_returncode"] = crashed.returncode
        (point_dir / "crash.log").parent.mkdir(parents=True, exist_ok=True)
        (point_dir / "crash.log").write_text(
            crashed.stdout + crashed.stderr, encoding="utf-8"
        )
        if crashed.returncode != SIGKILL_RETURNCODE:
            # A clean exit means the kill point never fired: the matrix
            # entry proved nothing, so the certification fails loudly.
            point["error"] = (
                f"expected SIGKILL ({SIGKILL_RETURNCODE}), got {crashed.returncode} "
                "— crash point never fired"
            )
            log(f"certify: {spec}: FAIL ({point['error']})")
            points.append(point)
            continue
        point["killed"] = True

        resumed = _run(
            _train_argv(config, checkpoint_dir, point_state, resume=True),
            config.timeout,
        )
        point["resume_returncode"] = resumed.returncode
        (point_dir / "resume.log").write_text(
            resumed.stdout + resumed.stderr, encoding="utf-8"
        )
        if resumed.returncode != 0 or not point_state.exists():
            point["error"] = f"resume failed (exit {resumed.returncode})"
            log(f"certify: {spec}: FAIL ({point['error']})")
            points.append(point)
            continue
        point["resumed"] = True

        point["match"] = filecmp.cmp(reference_state, point_state, shallow=False)
        log(f"certify: {spec}: {'ok' if point['match'] else 'MISMATCH'}")
        points.append(point)

    report = {
        "version": CERTIFY_VERSION,
        "config": {
            "dataset": config.dataset,
            "scale": config.scale,
            "samples": config.samples,
            "seed": config.seed,
            "epochs": config.epochs,
            "batch_size": config.batch_size,
            "cache_budget": config.cache_budget,
            "cache_every": config.cache_every,
            "checkpoint_every": config.checkpoint_every,
            "refresh_index": config.refresh_index,
            "gpus": config.gpus,
        },
        "reference": str(reference_state),
        "points": points,
        "passed": bool(points) and all(p["match"] for p in points),
    }
    atomic_write_text(
        out_dir / "certify_report.json",
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )
    return report


def format_certification(report: dict) -> str:
    """Human-readable campaign summary (one line per kill point)."""
    lines = [
        f"crash-anywhere certification: {len(report['points'])} kill point(s), "
        f"{'PASS' if report['passed'] else 'FAIL'}"
    ]
    for point in report["points"]:
        if point["match"]:
            status = "ok (byte-identical resume)"
        else:
            status = point.get("error", "final state MISMATCH")
        lines.append(f"  {point['kill']:<28} {status}")
    return "\n".join(lines)
