"""Tests for the automatic GPU memory-budget planner."""

import pytest

from repro.core.memory_planner import FRAMEWORK_RESERVED, plan_memory_budget
from repro.hw import characterize
from repro.hw.spec import DeviceSpec
from repro.models import workload_by_name


@pytest.fixture(scope="module")
def rmc2():
    return characterize(workload_by_name("RMC2"))


class TestPlanMemoryBudget:
    def test_v100_leaves_room_for_paper_budget(self, rmc2):
        plan = plan_memory_budget(rmc2, per_gpu_batch=1024)
        assert plan.feasible
        # A V100 easily accommodates the paper's 256 MB choice.
        assert plan.recommended_budget >= 256 * 2**20

    def test_max_budget_cap(self, rmc2):
        plan = plan_memory_budget(rmc2, per_gpu_batch=1024, max_budget=256 * 2**20)
        assert plan.recommended_budget == 256 * 2**20

    def test_budget_shrinks_with_batch(self, rmc2):
        small = plan_memory_budget(rmc2, per_gpu_batch=1024)
        large = plan_memory_budget(rmc2, per_gpu_batch=65536)
        assert large.recommended_budget < small.recommended_budget
        assert large.activation_bytes > small.activation_bytes

    def test_infeasible_on_tiny_gpu(self, rmc2):
        tiny_gpu = DeviceSpec(
            name="tiny",
            peak_flops=1e12,
            mem_bandwidth=1e11,
            mem_capacity=FRAMEWORK_RESERVED + 1000,
            gemm_efficiency=0.5,
            gather_efficiency=0.5,
            op_overhead=1e-6,
        )
        plan = plan_memory_budget(rmc2, per_gpu_batch=1024, gpu=tiny_gpu)
        assert not plan.feasible
        assert plan.recommended_budget == 0

    def test_utilization_bounded(self, rmc2):
        plan = plan_memory_budget(rmc2, per_gpu_batch=2048)
        assert 0 < plan.utilization() <= 1.0

    def test_accounts_for_model_state(self, rmc2):
        plan = plan_memory_budget(rmc2, per_gpu_batch=1024)
        # 3x dense params: weights + grads + optimizer state.
        assert plan.model_bytes == pytest.approx(3 * rmc2.dense_param_bytes)

    def test_rejects_bad_batch(self, rmc2):
        with pytest.raises(ValueError):
            plan_memory_budget(rmc2, per_gpu_batch=0)
