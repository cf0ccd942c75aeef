"""Unit tests for the Shuffle Scheduler (paper Eq. 7)."""

import pytest

from repro.core import ShuffleScheduler


def drain(scheduler):
    return list(scheduler.segments())


class TestPlanning:
    def test_starts_cold(self):
        scheduler = ShuffleScheduler(10, 10, initial_rate=50)
        assert scheduler.next_segment().kind == "cold"

    def test_alternates(self):
        scheduler = ShuffleScheduler(10, 10, initial_rate=50)
        kinds = [s.kind for s in drain(scheduler)]
        assert kinds == ["cold", "hot", "cold", "hot"]

    def test_all_batches_issued_exactly_once(self):
        scheduler = ShuffleScheduler(37, 23, initial_rate=30)
        segments = drain(scheduler)
        assert sum(s.num_batches for s in segments if s.kind == "hot") == 37
        assert sum(s.num_batches for s in segments if s.kind == "cold") == 23

    def test_rate_100_is_two_blocks(self):
        scheduler = ShuffleScheduler(10, 10, initial_rate=100)
        segments = drain(scheduler)
        assert [s.kind for s in segments] == ["cold", "hot"]
        assert scheduler.transitions == 1

    def test_rate_1_fine_interleaving(self):
        scheduler = ShuffleScheduler(100, 100, initial_rate=1)
        segments = drain(scheduler)
        assert len(segments) == 200
        assert all(s.num_batches == 1 for s in segments)

    def test_empty_hot_pool(self):
        scheduler = ShuffleScheduler(0, 5, initial_rate=50)
        segments = drain(scheduler)
        assert all(s.kind == "cold" for s in segments)
        assert sum(s.num_batches for s in segments) == 5

    def test_empty_cold_pool(self):
        scheduler = ShuffleScheduler(5, 0, initial_rate=50)
        segments = drain(scheduler)
        assert all(s.kind == "hot" for s in segments)

    def test_exhausted_flag(self):
        scheduler = ShuffleScheduler(4, 4, initial_rate=100)
        drain(scheduler)
        assert scheduler.remaining_hot == scheduler.remaining_cold == 0
        assert scheduler.next_segment() is None

    def test_reset_epoch_refills(self):
        scheduler = ShuffleScheduler(4, 4, initial_rate=100)
        drain(scheduler)
        scheduler.reset_epoch(4, 4)
        assert (scheduler.remaining_hot, scheduler.remaining_cold) == (4, 4)
        assert sum(s.num_batches for s in drain(scheduler)) == 8

    def test_reset_epoch_takes_the_new_epochs_pools(self):
        scheduler = ShuffleScheduler(0, 0, initial_rate=50)
        assert scheduler.next_segment() is None
        scheduler.reset_epoch(0, 6)
        assert [(s.kind, s.num_batches) for s in drain(scheduler)] == [("cold", 3)] * 2

    def test_transition_count(self):
        scheduler = ShuffleScheduler(20, 20, initial_rate=25)
        drain(scheduler)
        # 4 cold + 4 hot segments alternating -> 7 transitions
        assert scheduler.transitions == 7


class TestRateAdaptation:
    def test_loss_increase_halves_rate(self):
        scheduler = ShuffleScheduler(100, 100, initial_rate=40)
        scheduler.next_segment()
        scheduler.record_test_loss(1.0)
        scheduler.next_segment()
        scheduler.record_test_loss(1.1)  # worse
        assert scheduler.rate == 20

    def test_rate_floor_r1(self):
        scheduler = ShuffleScheduler(100, 100, initial_rate=2)
        scheduler.record_test_loss(1.0)
        for loss in (1.1, 1.2, 1.3):
            scheduler.record_test_loss(loss)
        assert scheduler.rate == 1

    def test_u_consecutive_improvements_double_rate(self):
        scheduler = ShuffleScheduler(100, 100, initial_rate=10, strip_length=4)
        scheduler.record_test_loss(1.0)
        for loss in (0.9, 0.8, 0.7, 0.6):
            scheduler.record_test_loss(loss)
        assert scheduler.rate == 20

    def test_improvement_streak_resets_on_increase(self):
        scheduler = ShuffleScheduler(100, 100, initial_rate=10, strip_length=4)
        scheduler.record_test_loss(1.0)
        for loss in (0.9, 0.8, 0.85, 0.7, 0.6, 0.5):
            scheduler.record_test_loss(loss)
        # the 0.85 increase halved the rate (10 -> 5) and reset the streak;
        # only three improvements follow, so no doubling yet.
        assert scheduler.rate == 5

    def test_rate_cap_r100(self):
        scheduler = ShuffleScheduler(100, 100, initial_rate=80, strip_length=1)
        scheduler.record_test_loss(1.0)
        scheduler.record_test_loss(0.9)
        scheduler.record_test_loss(0.8)
        assert scheduler.rate == 100

    def test_flat_loss_keeps_rate(self):
        scheduler = ShuffleScheduler(100, 100, initial_rate=30, strip_length=10)
        scheduler.record_test_loss(1.0)
        scheduler.record_test_loss(1.0)
        assert scheduler.rate == 30

    def test_history_records_loss(self):
        scheduler = ShuffleScheduler(10, 10, initial_rate=50)
        scheduler.next_segment()
        scheduler.record_test_loss(0.5)
        assert scheduler.history[-1].test_loss == 0.5

    def test_rate_change_affects_future_segments(self):
        scheduler = ShuffleScheduler(100, 100, initial_rate=50)
        first = scheduler.next_segment()
        assert first.num_batches == 50
        scheduler.record_test_loss(1.0)
        scheduler.next_segment()
        scheduler.record_test_loss(2.0)  # halve to 25
        nxt = scheduler.next_segment()
        assert nxt.num_batches == 25


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_hot_batches=-1, num_cold_batches=0),
            dict(num_hot_batches=1, num_cold_batches=1, initial_rate=0),
            dict(num_hot_batches=1, num_cold_batches=1, initial_rate=101),
            dict(num_hot_batches=1, num_cold_batches=1, strip_length=0),
        ],
    )
    def test_rejects(self, kwargs):
        defaults = dict(num_hot_batches=1, num_cold_batches=1)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            ShuffleScheduler(**defaults)
