"""Integration tests: telemetry wired through the FAE pipeline.

Covers the pipeline instrumentation (spans from calibrate through
train), the registry counters the trainer feeds into
:class:`TrainResult`, the ``repro trace`` CLI, and smoke-runs of the
telemetry-wired examples.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    FAEConfig,
    FAETrainer,
    SyntheticClickLog,
    SyntheticConfig,
    fae_preprocess,
    train_test_split,
)
from repro.cli import main
from repro.data.schema import DatasetSchema, EmbeddingTableSpec
from repro.dist import DistributedFAETrainer
from repro.models.dlrm import DLRM, DLRMConfig
from repro.obs import get_registry, get_tracer, load_jsonl
from repro.obs.analyze import analyze_records

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def clean_telemetry():
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


@pytest.fixture
def small_setup():
    schema = DatasetSchema(
        name="obs-tiny",
        num_dense=4,
        tables=(
            EmbeddingTableSpec("table_00", num_rows=600, dim=8, zipf_exponent=1.2),
            EmbeddingTableSpec("table_01", num_rows=400, dim=8, zipf_exponent=1.1),
            EmbeddingTableSpec("table_02", num_rows=12, dim=8, zipf_exponent=0.5),
        ),
        num_samples=3000,
    )
    log = SyntheticClickLog(schema, SyntheticConfig(num_samples=3000, seed=7))
    train, test = train_test_split(log, 0.2, seed=7)
    config = FAEConfig(
        gpu_memory_budget=16 * 1024,
        sample_rate=0.2,
        large_table_min_bytes=1024,
        chunk_size=32,
        seed=7,
    )
    return schema, train, test, config


class TestPipelineSpans:
    def test_preprocess_emits_span_tree(self, clean_telemetry, small_setup):
        tracer, _ = clean_telemetry
        schema, train, _test, config = small_setup
        fae_preprocess(train, config, batch_size=128)
        names = {r.name for r in tracer.records()}
        for expected in (
            "preprocess",
            "calibrate",
            "calibrate.sample",
            "calibrate.profile",
            "calibrate.optimize",
            "calibrate.estimate",
            "classify",
            "classify.pack",
        ):
            assert expected in names, f"missing span {expected}"
        # calibrate nests under preprocess.
        by_id = {r.span_id: r for r in tracer.records()}
        calibrate = next(r for r in tracer.records() if r.name == "calibrate")
        assert by_id[calibrate.parent_id].name == "preprocess"

    def test_trainer_spans_and_sync_counters(self, clean_telemetry, small_setup):
        self._check_trainer_telemetry(clean_telemetry, small_setup, world_size=1)

    def test_distributed_trainer_emits_the_same_telemetry(self, clean_telemetry, small_setup):
        self._check_trainer_telemetry(clean_telemetry, small_setup, world_size=2)

    @staticmethod
    def _check_trainer_telemetry(clean_telemetry, small_setup, world_size):
        """Both faces of the segment engine emit the same telemetry."""
        tracer, registry = clean_telemetry
        schema, train, test, config = small_setup
        plan = fae_preprocess(train, config, batch_size=128)
        replicas = [DLRM(schema, DLRMConfig("4-8", "8-1", seed=1)) for _ in range(world_size)]

        events_before = registry.counter("fae.sync.events").value
        bytes_before = registry.counter("fae.sync.bytes").value
        trainer = (
            FAETrainer(replicas[0], plan, lr=0.1)
            if world_size == 1
            else DistributedFAETrainer(replicas, plan, lr=0.1)
        )
        result = trainer.train(train, test, epochs=1, eval_samples=256)

        # The registry counters and the TrainResult agree — the result is
        # fed from the counter deltas.
        assert result.sync_events == int(
            registry.counter("fae.sync.events").value - events_before
        )
        assert result.sync_bytes == int(
            registry.counter("fae.sync.bytes").value - bytes_before
        )
        assert result.sync_events == trainer.replicator.sync_events
        assert result.sync_events > 0
        assert result.sync_bytes > 0

        names = {r.name for r in tracer.records()}
        assert names >= {
            "replicate.build",
            "replicate.sync",
            "train.eval",
            "train.segment.hot",
            "train.segment.cold",
        }
        steps = result.history.final.iteration
        assert registry.histogram("train.step.latency").count == steps
        assert (
            registry.counter("train.batches.hot").value
            + registry.counter("train.batches.cold").value
            == steps
        )
        assert registry.gauge("train.batch.hot_fraction").value == pytest.approx(
            plan.hot_input_fraction
        )
        analysis = analyze_records([r.to_dict() for r in tracer.records()])
        assert analysis.coverage() == pytest.approx(1.0)

        # Transition counters can never exceed sync events (extra syncs
        # come from eval flushes).
        transitions = (
            registry.counter("train.transitions.to_hot").value
            + registry.counter("train.transitions.to_cold").value
        )
        assert transitions <= result.sync_events
        assert registry.gauge("scheduler.rate").value >= 1

    def test_hot_fraction_gauge_set(self, clean_telemetry, small_setup):
        _, registry = clean_telemetry
        schema, train, _test, config = small_setup
        plan = fae_preprocess(train, config, batch_size=128)
        gauge = registry.gauge("train.batch.hot_fraction")
        assert gauge.value == pytest.approx(plan.hot_input_fraction)

    def test_telemetry_off_pipeline_still_works(self, clean_telemetry, small_setup):
        tracer, _ = clean_telemetry
        tracer.enabled = False
        schema, train, test, config = small_setup
        plan = fae_preprocess(train, config, batch_size=128)
        model = DLRM(schema, DLRMConfig("4-8", "8-1", seed=1))
        result = FAETrainer(model, plan, lr=0.1).train(
            train, test, epochs=1, eval_samples=256
        )
        assert len(tracer.records()) == 0  # no spans recorded
        assert result.sync_events > 0  # counters still flow
        # Legacy timing aliases keep working without tracing.
        assert plan.calibration.profiling_seconds > 0
        assert plan.classify_seconds > 0


TRAIN_FAE = ["train", "criteo-kaggle", "--mode", "fae", "--epochs", "1", "--batch-size", "128"]


class TestTraceCommand:
    def test_prints_span_tree(self, capsys):
        assert main(TRAIN_FAE + ["--samples", "4096", "--trace"]) == 0
        out = capsys.readouterr().out
        for token in ("calibrate", "classify", "replicate", "train.segment"):
            assert token in out, f"summary tree missing {token}"
        assert "metrics:" in out
        assert "fae.sync.events" in out

    def test_out_writes_jsonl(self, capsys, tmp_path):
        out_file = tmp_path / "trace.jsonl"
        assert main(TRAIN_FAE + ["--samples", "2048", "--trace", str(out_file)]) == 0
        records = load_jsonl(out_file)
        span_names = {r["name"] for r in records if r["type"] == "span"}
        metric_names = {r["name"] for r in records if r["type"] == "metric"}
        assert "calibrate" in span_names
        assert "fae.sync.bytes" in metric_names
        assert all("duration" in r for r in records if r["type"] == "span")

    def test_trace_does_not_leak_enabled_state(self):
        previous = get_tracer().enabled
        main(TRAIN_FAE + ["--samples", "1024", "--trace"])
        assert get_tracer().enabled == previous

    def test_train_trace_flag(self, capsys):
        code = main(
            [
                "train",
                "criteo-kaggle",
                "--mode",
                "fae",
                "--samples",
                "2000",
                "--epochs",
                "1",
                "--batch-size",
                "128",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "train.segment" in out

    def test_preprocess_trace_flag(self, capsys):
        code = main(
            ["preprocess", "criteo-kaggle", "--samples", "2000", "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "calibrate" in out


class TestExamplesSmoke:
    @pytest.mark.parametrize(
        "script", ["drift_monitoring.py", "realtime_serving.py"]
    )
    def test_example_runs(self, script):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / script)],
            capture_output=True,
            text=True,
            timeout=300,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert "telemetry" in result.stdout
