"""Tests for the command-line interface."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.commands.common import config_from
from repro.dist import DistributedFAETrainer
from repro.resilience import FaultPlan, GuardAbort, SupervisorEventLog
from repro.train import roc_auc
from repro.train.popshift import PopShiftConfig


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "movielens"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "taobao"],
            ["preprocess", "criteo-kaggle", "--samples", "100"],
            ["train", "taobao", "--mode", "fae", "--epochs", "1"],
            ["simulate", "RMC3", "--gpus", "2"],
        ],
    )
    def test_accepts_valid_commands(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


class TestInfo:
    def test_prints_geometry(self, capsys):
        assert main(["info", "taobao", "--scale", "paper"]) == 0
        out = capsys.readouterr().out
        assert "taobao" in out
        assert "lookups/sample: 43" in out

    def test_numeric_scale(self, capsys):
        assert main(["info", "criteo-kaggle", "--scale", "0.001"]) == 0
        assert "criteo-kaggle" in capsys.readouterr().out


class TestPreprocess:
    def test_runs_and_writes(self, capsys, tmp_path):
        out_file = tmp_path / "plan.npz"
        code = main(
            [
                "preprocess",
                "criteo-kaggle",
                "--samples",
                "5000",
                "--batch-size",
                "128",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert "threshold" in out
        from repro.core import load_fae_dataset

        dataset, _bags, _threshold = load_fae_dataset(out_file)
        total = sum(len(b) for b in dataset.hot_batches + dataset.cold_batches)
        assert total == 5000


class TestPreprocessUsage:
    def test_shard_size_without_out_is_a_usage_error(self, capsys):
        argv = ["preprocess", "criteo-kaggle", "--samples", "2000", "--shard-size", "4"]
        assert main(argv) == 2
        assert "--shard-size requires --out" in capsys.readouterr().err


class TestTrain:
    def test_fae_mode(self, capsys):
        code = main(
            [
                "train",
                "criteo-kaggle",
                "--mode",
                "fae",
                "--samples",
                "4000",
                "--epochs",
                "1",
                "--batch-size",
                "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FAE:" in out
        assert "AUC" in out

    def test_both_modes(self, capsys):
        code = main(
            [
                "train",
                "criteo-kaggle",
                "--mode",
                "both",
                "--samples",
                "3000",
                "--epochs",
                "1",
                "--batch-size",
                "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline:" in out and "FAE:" in out


class TestTrainResilience:
    CHAOS = [
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
        "--gpus",
        "2",
        "--faults",
        "seed=7,collective=0.05,death=1@10,evict=15,loader=0.02",
    ]

    def test_chaos_run_reports_summary(self, capsys, tmp_path):
        code = main(self.CHAOS + ["--checkpoint-dir", str(tmp_path / "ckpts")])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos:" in out
        assert "world shrinks" in out
        assert list((tmp_path / "ckpts").glob("ckpt-*.npz"))

    def test_resume_picks_up_latest_checkpoint(self, capsys, tmp_path):
        ckpt_dir = str(tmp_path / "ckpts")
        assert main(self.CHAOS + ["--checkpoint-dir", ckpt_dir]) == 0
        capsys.readouterr()
        assert main(self.CHAOS + ["--checkpoint-dir", ckpt_dir, "--resume"]) == 0
        assert "resuming from" in capsys.readouterr().out

    def test_resume_without_checkpoints_starts_fresh(self, capsys, tmp_path):
        argv = self.CHAOS + ["--checkpoint-dir", str(tmp_path / "empty"), "--resume"]
        assert main(argv) == 0
        assert "starting fresh" in capsys.readouterr().out

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(self.CHAOS + ["--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_faults_require_fae_mode(self, capsys):
        argv = [
            "train",
            "criteo-kaggle",
            "--mode",
            "baseline",
            "--samples",
            "2000",
            "--faults",
            "seed=1",
        ]
        assert main(argv) == 2
        assert "fae" in capsys.readouterr().err


class TestEventLog:
    ARGV = [
        "train",
        "criteo-kaggle",
        "--mode",
        "fae",
        "--samples",
        "2000",
        "--epochs",
        "1",
        "--gpus",
        "3",
        "--rejoin",
    ]

    def test_a_failing_run_keeps_its_death_record(self, capsys, monkeypatch, tmp_path):
        def die_after_a_death(self, *args, **kwargs):
            self._emit("death", rank=1, world_size=2, parked=True)
            raise GuardAbort("numeric", "rolled back too often")

        monkeypatch.setattr(DistributedFAETrainer, "train", die_after_a_death)
        path = tmp_path / "events.jsonl"
        assert main(self.ARGV + ["--events-jsonl", str(path)]) == 3
        assert "GuardAbort" in capsys.readouterr().err
        (record,) = SupervisorEventLog.load(path)
        assert (record["event"], record["rank"], record["parked"]) == ("death", 1, True)

    def test_a_run_without_events_still_writes_the_log(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        assert main(self.ARGV + ["--events-jsonl", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        assert path.exists() and SupervisorEventLog.load(path) == []


class TestRemovedSpellings:
    """The worker-pool options, fault keys, ``trace run`` (now ``--trace PATH``)
    and ``report`` (now ``bench-report``) are gone, and say so."""

    REMOVED_COMMANDS = {"trace run --rows 2048": "run", "report --out R.md": "report"}

    @pytest.mark.parametrize(
        "spelling",
        [
            "preprocess criteo-kaggle --workers 2",
            "preprocess criteo-kaggle --speculate",
            "preprocess criteo-kaggle --heartbeat-interval 1",
            "preprocess criteo-kaggle --faults seed=7",
            "train criteo-kaggle --workers 2",
            "kill_task=1",
            *REMOVED_COMMANDS,
        ],
        ids=lambda spelling: "_".join(word for word in spelling.split() if word != "criteo-kaggle"),
    )
    def test_fails_loudly(self, capsys, spelling):
        if "=" in spelling.split()[0]:  # a fault spec, not a command line
            with pytest.raises(ValueError, match="'kill_task'"):
                FaultPlan.parse(spelling)
            return
        argv = spelling.split()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        if spelling in self.REMOVED_COMMANDS:
            expected = f"invalid choice: '{self.REMOVED_COMMANDS[spelling]}'"
        else:
            expected = f"error: unrecognized arguments: {' '.join(argv[2:])}"
        assert expected in capsys.readouterr().err


class TestScale:
    """``--scale`` is a named scale or a finite positive number, on every command."""

    @staticmethod
    def argv(command, tmp_path):
        out = ["--out", str(tmp_path / "report.json")]
        return {
            "info": ["info", "criteo-kaggle"],
            "drift": ["drift", "--days", "3", "--shift-day", "1", "--samples-per-day", "600"] + out,
            "serve-bench": ["serve-bench", "--requests", "48", "--candidates", "64"] + out,
        }[command]

    @pytest.mark.parametrize("command", ["drift", "serve-bench"])  # info: TestInfo
    def test_numeric_scale(self, capsys, tmp_path, command):
        assert main(self.argv(command, tmp_path) + ["--scale", "0.0005"]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["info", "drift", "serve-bench"])
    def test_non_finite_scale_exits_1(self, capsys, tmp_path, command, value):
        assert main(self.argv(command, tmp_path) + ["--scale", value]) == 1
        assert "scale must be finite and positive" in capsys.readouterr().err


class TestDocumentedCommandLines:
    def test_every_documented_command_line_parses(self, capsys):
        """Each ``python -m repro`` line of README and TUTORIAL, continuations
        joined and comments dropped, is a valid command line."""
        root = Path(__file__).resolve().parents[1]
        lines = []
        for rel in ("README.md", "docs/TUTORIAL.md"):
            text = (root / rel).read_text(encoding="utf-8").replace("\\\n", " ")
            lines += [(rel, ln) for ln in text.splitlines() if ln.startswith("python -m repro ")]
        assert len(lines) > 20
        rejected = []
        for rel, line in lines:
            try:
                build_parser().parse_args(shlex.split(line, comments=True)[3:])
            except SystemExit:
                rejected.append(f"{rel}: {line}")
        capsys.readouterr()
        assert not rejected, rejected


class TestTrainGuards:
    BASE = [
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
        "--gpus",
        "2",
    ]

    @staticmethod
    def overflowing_matmul():
        """The bit-flipped row (~1e38) overflows float32 in the GEMMs it
        reaches until the guard trips: expected here, an error elsewhere."""
        return pytest.warns(RuntimeWarning, match="encountered in matmul")

    def test_guarded_chaos_run_completes(self, capsys, tmp_path):
        argv = self.BASE + [
            "--guards",
            "rollbacks=2,skips=6",
            "--validate",
            "quarantine",
            "--quarantine-dir",
            str(tmp_path / "quarantine"),
            "--checkpoint-dir",
            str(tmp_path / "ckpts"),
            "--faults",
            "seed=7,ingest=0.01,bad_row=5,corrupt=bitflip,bad_batch=0.05,max_bad_batch=3",
        ]
        with self.overflowing_matmul():
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "guards: rollbacks" in out

        ledger = tmp_path / "quarantine" / "quarantine.jsonl"
        entries = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert entries
        assert all("reasons" in entry for entry in entries)

    def test_rollback_budget_exhaustion_exits_3_with_hints(self, capsys, tmp_path):
        argv = self.BASE + [
            "--guards",
            "rollbacks=0,skips=2",
            "--checkpoint-dir",
            str(tmp_path / "ckpts"),
            "--faults",
            "seed=7,bad_row=5,corrupt=bitflip",
        ]
        with self.overflowing_matmul():
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert "GuardAbort[numeric]" in err
        # The error must be actionable: tell the operator which knob to turn.
        assert "--guards rollbacks=" in err

    def test_guards_require_fae_mode(self, capsys):
        argv = [
            "train",
            "criteo-kaggle",
            "--mode",
            "baseline",
            "--samples",
            "2000",
            "--guards",
            "rollbacks=1",
        ]
        assert main(argv) == 2
        assert "fae" in capsys.readouterr().err

    def test_quarantine_policy_requires_dir(self, capsys):
        argv = self.BASE + ["--validate", "quarantine"]
        assert main(argv) == 1
        assert "--quarantine-dir" in capsys.readouterr().err

    def test_preprocess_accepts_validate_policy(self):
        argv = [
            "preprocess",
            "criteo-kaggle",
            "--samples",
            "1000",
            "--validate",
            "clamp",
        ]
        assert main(argv) == 0


class TestErrorHandling:
    BAD_SPEC = [
        "train",
        "criteo-kaggle",
        "--mode",
        "fae",
        "--samples",
        "2000",
        "--faults",
        "bogus=1",
    ]

    def test_failures_exit_nonzero_with_one_line_error(self, capsys):
        assert main(self.BAD_SPEC) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_traceback_flag_reraises(self):
        with pytest.raises(ValueError):
            main(["--traceback"] + self.BAD_SPEC)


class TestSimulate:
    def test_all_modes_reported(self, capsys):
        assert main(["simulate", "RMC2", "--gpus", "2"]) == 0
        out = capsys.readouterr().out
        for token in ("baseline", "fae", "nvopt", "speedup"):
            assert token in out

    def test_budget_knob(self, capsys):
        main(["simulate", "RMC3", "--gpus", "1", "--budget-mb", "64"])
        out64 = capsys.readouterr().out
        main(["simulate", "RMC3", "--gpus", "1", "--budget-mb", "1024"])
        out1024 = capsys.readouterr().out

        def hot_pct(text):
            return float(text.split("hot inputs ")[1].split("%")[0])

        assert hot_pct(out1024) > hot_pct(out64)


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc(np.array([3.0, 2.0, -1.0]), np.array([1, 1, 0])) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc(np.array([-3.0, 2.0]), np.array([1, 0])) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=20_000)
        labels = rng.integers(0, 2, size=20_000)
        assert roc_auc(logits, labels) == pytest.approx(0.5, abs=0.02)

    def test_ties_averaged(self):
        # All-equal scores -> AUC exactly 0.5 regardless of labels.
        assert roc_auc(np.zeros(10), np.array([1, 0] * 5)) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([1.0, 2.0]), np.array([1.0, 1.0]))

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=200)
        labels = rng.integers(0, 2, size=200).astype(float)
        pos = logits[labels == 1]
        neg = logits[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        expected = wins / (len(pos) * len(neg))
        assert roc_auc(logits, labels) == pytest.approx(expected, rel=1e-9)


class TestTraceCli:
    def _run_trace(self, tmp_path, *extra):
        out = tmp_path / "trace.jsonl"
        argv = [
            "train",
            "criteo-kaggle",
            "--mode",
            "fae",
            "--scale",
            "tiny",
            "--samples",
            "512",
            "--epochs",
            "1",
            "--batch-size",
            "128",
            "--trace",
            str(out),
        ]
        assert main(argv + list(extra)) == 0
        return out

    def test_trace_run_then_analyze(self, tmp_path, capsys):
        out = self._run_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "analyze", str(out)]) == 0
        text = capsys.readouterr().out
        assert "self-time coverage" in text
        assert "hotspots" in text
        assert "critical path" in text

    def test_trace_analyze_json_to_stdout(self, tmp_path, capsys):
        out = self._run_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "analyze", str(out), "--json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "trace_analysis"
        assert doc["coverage"] == pytest.approx(1.0, abs=1e-6)

    def test_trace_analyze_json_to_file(self, tmp_path, capsys):
        out = self._run_trace(tmp_path)
        dest = tmp_path / "analysis.json"
        assert main(["trace", "analyze", str(out), "--json", str(dest)]) == 0
        doc = json.loads(dest.read_text(encoding="utf-8"))
        assert doc["spans"] > 0

    def test_bare_trace_is_a_usage_error(self, capsys):
        # `repro trace <flags>` without `run`/`analyze` is no longer rewritten.
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--rows", "8"])
        assert exit_info.value.code == 2
        assert "usage: repro trace" in capsys.readouterr().err


class TestDriftCli:
    ARGS = [
        "drift",
        "--days",
        "3",
        "--shift-day",
        "1",
        "--samples-per-day",
        "600",
        "--seed",
        "7",
    ]

    def test_parser_accepts_drift(self):
        args = build_parser().parse_args(self.ARGS)
        assert args.command == "drift"
        config = config_from(args, PopShiftConfig)
        assert config.dataset == "criteo-kaggle"
        assert config.num_days == 3

    def test_prints_summary_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "popshift.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "popularity shift" in text
        assert "post-shift" in text
        assert "hot-access hit rate" in text
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["kind"] == "popshift_report"
        assert report["seed"] == 7
        assert len(report["days"]) == 2

    def test_report_bytes_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(self.ARGS + ["--out", str(first)]) == 0
        assert main(self.ARGS + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestServeBenchCli:
    ARGS = [
        "serve-bench",
        "--requests",
        "48",
        "--candidates",
        "64",
        "--scale",
        "tiny",
        "--seed",
        "5",
    ]

    def test_writes_report_and_prints_slo(self, tmp_path, capsys):
        out = tmp_path / "slo.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "slo report" in text
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["kind"] == "slo_report"
        assert report["schema_version"] == 2
        assert report["replicas"] == 1
        assert report["requests"]["total"] == 48

    def test_default_out_lands_under_out_dir(self, tmp_path):
        out_dir = tmp_path / "bench-out"
        assert main(self.ARGS + ["--out-dir", str(out_dir)]) == 0
        assert (out_dir / "slo_report.json").exists()

    def test_slow_window_flag(self, tmp_path):
        out = tmp_path / "slo.json"
        # 512 candidates span several scoring chunks, so the injected
        # slow window actually accrues cost before the deadline check.
        argv = self.ARGS + [
            "--candidates",
            "512",
            "--faults",
            "slow_replica=0@8:40,slow_replica_factor=100",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["faults_injected"]["replica_slow"] == 1
        assert report["requests"]["degraded"] + report["requests"]["shed"] > 0

    def test_mode_and_slow_flags_are_gone(self, capsys):
        for flag in (["--mode", "wall"], ["--slow", "8:40:100"]):
            with pytest.raises(SystemExit) as excinfo:
                main(self.ARGS + flag)
            assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags",
        [
            # Both ended "NoReplicaError: no live replica available", exit 1.
            ["--reload-at", "5"],
            ["--replicas", "2", "--faults", "kill_replica=0@60,flap_replica=1@80/10"],
        ],
    )
    def test_pool_with_nowhere_to_route_still_reports(self, tmp_path, flags):
        out = tmp_path / "slo.json"
        argv = ["serve-bench", "--requests", "200", "--scale", "tiny"]
        assert main(argv + flags + ["--out", str(out)]) == 0
        requests = json.loads(out.read_text(encoding="utf-8"))["requests"]
        assert (
            requests["completed"] + requests["shed"] + requests["rejected"]
            + requests["unavailable"]
        ) == requests["total"] == 200

    def test_cluster_path_with_faults_and_reload(self, tmp_path, capsys):
        out = tmp_path / "cluster_slo.json"
        argv = self.ARGS + [
            "--requests",
            "120",
            "--replicas",
            "3",
            "--hedge-after",
            "20",
            "--reload-at",
            "60",
            "--faults",
            "seed=7,kill_replica=1@40",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "slo report (seed 5, 3 replicas)" in text
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["kind"] == "slo_report"
        assert report["replicas"] == 3
        assert report["requests"]["completed"] == report["requests"]["admitted"]
        assert report["failovers"] >= 1
        assert report["reload"]["complete"]
        assert report["reload"]["mixed_generation_responses"] == 0
