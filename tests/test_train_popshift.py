"""Tests for the popularity-shift scenario (repro.train.popshift)."""

import json

import pytest

from repro.train.popshift import (
    POPSHIFT_SCHEMA_VERSION,
    PopShiftConfig,
    run_popularity_shift,
)

#: CI-sized shape: two rotated days, ~0.3s per run, margins still visible.
QUICK = dict(num_days=3, shift_day=1, samples_per_day=600, seed=7)


@pytest.fixture(scope="module")
def quick_report():
    return run_popularity_shift(PopShiftConfig(**QUICK))


class TestConfig:
    def test_defaults_are_valid(self):
        PopShiftConfig()

    def test_shift_day_must_be_inside_run(self):
        with pytest.raises(ValueError):
            PopShiftConfig(num_days=4, shift_day=0)
        with pytest.raises(ValueError):
            PopShiftConfig(num_days=4, shift_day=4)

    def test_budget_must_sit_between_costs(self):
        with pytest.raises(ValueError):
            PopShiftConfig(hot_batch_cost=1.0, cold_batch_cost=3.0, budget_per_batch=4.0)
        with pytest.raises(ValueError):
            PopShiftConfig(hot_batch_cost=2.0, cold_batch_cost=1.0)


class TestReport:
    def test_schema_and_shape(self, quick_report):
        r = quick_report
        assert r["schema_version"] == POPSHIFT_SCHEMA_VERSION
        assert r["kind"] == "popshift_report"
        assert len(r["days"]) == QUICK["num_days"] - 1
        for day in r["days"]:
            assert set(day) >= {"day", "rotated", "static", "cached", "drift", "turnover"}
        assert set(r["post_shift"]) >= {
            "hit_margin",
            "accuracy_margin",
            "loss_margin",
            "static_hit_rate",
            "cached_hit_rate",
        }

    def test_cache_recovers_hit_rate_static_degrades(self, quick_report):
        post = quick_report["post_shift"]
        assert post["hit_margin"] > 0.2
        assert post["cached_hit_rate"] > post["static_hit_rate"]
        # The last rotated day's cache membership beats the frozen set.
        last = quick_report["days"][-1]
        assert last["cached"]["hit_rate"] > last["static"]["hit_rate"]

    @pytest.mark.parametrize(
        "path, pinned",
        [
            (("post_shift", "hit_margin"), 0.3329166666666667),
            (("post_shift", "cached_hit_rate"), 0.43520833333333336),
            (("post_shift", "static_hit_rate"), 0.10229166666666667),
            (("counters", "hotcache.promotions"), 345),
            (("counters", "hotcache.rebalances"), 2),
        ],
    )
    def test_quick_shape_outputs_pinned(self, quick_report, path, pinned):
        """Deterministic cache outputs of the CI shape (`repro drift` step)."""
        section, key = path
        assert quick_report[section][key] == pytest.approx(pinned, abs=1e-12)

    def test_turnover_and_counters_flow(self, quick_report):
        counters = quick_report["counters"]
        assert counters["hotcache.promotions"] > 0
        assert counters["hotcache.hits"] > 0
        assert counters["hotcache.rebalances"] > 0
        assert quick_report["cache"]["rebalances"] > 0
        # Turnover shows up in the day reports and the recalibration diff.
        assert any(d["turnover"] for d in quick_report["days"])
        assert sum(e["added"] for e in quick_report["recalibration"].values()) > 0

    def test_rotated_days_flag_drift(self, quick_report):
        for day in quick_report["days"]:
            assert day["drift"]["drifted"] == day["rotated"]

    def test_budget_caps_simulated_seconds(self, quick_report):
        config = PopShiftConfig(**QUICK)
        for day in quick_report["days"]:
            for arm in ("static", "cached"):
                entry = day[arm]
                budget = config.budget_per_batch * entry["batches_packed"]
                assert entry["sim_seconds"] <= budget + 1e-9

    def test_deterministic_per_seed(self, quick_report):
        rerun = run_popularity_shift(PopShiftConfig(**QUICK))
        assert json.dumps(quick_report, sort_keys=True) == json.dumps(
            rerun, sort_keys=True
        )

    def test_seed_changes_report(self, quick_report):
        other = run_popularity_shift(PopShiftConfig(**{**QUICK, "seed": 9}))
        assert (
            other["post_shift"]["cached_hit_rate"]
            != quick_report["post_shift"]["cached_hit_rate"]
        )

    def test_shard_dir_roundtrip_matches_tempdir(self, quick_report, tmp_path):
        explicit = run_popularity_shift(
            PopShiftConfig(**QUICK), shard_dir=str(tmp_path)
        )
        assert json.dumps(explicit, sort_keys=True) == json.dumps(
            quick_report, sort_keys=True
        )
