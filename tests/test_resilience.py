"""Tests for the resilience layer: atomic writes, checkpoints, fault
injection, retry policies, and the trainers' recovery paths (crash/resume
trajectory equivalence, world shrink, and hot→cold degradation)."""

import argparse
import dataclasses
import inspect
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_parser
from repro.core import fae_preprocess
from repro.core.fae_format import load_fae_dataset
from repro.core.scheduler import ShuffleScheduler
from repro.data import train_test_split
from repro.data.loader import MiniBatch, fetch_batch
from repro.dist import DistributedFAETrainer
from repro.models.dlrm import DLRM, DLRMConfig
from repro.nn.optim import SGD
from repro.obs import get_registry
from repro.resilience import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointManager,
    FaultPlan,
    LoaderHiccup,
    PermanentRankFailure,
    RetryExhaustedError,
    RetryPolicy,
    TrainerCheckpoint,
    TransientCollectiveError,
    atomic_write,
    atomic_write_text,
    capture_training_state,
    latest_checkpoint,
    load_checkpoint,
    restore_training_state,
    save_checkpoint,
    verify_checkpoint,
    with_retries,
)
from repro.resilience.faults import _SPEC_KEYS, REFRESH_PHASES
from repro.resilience.guards import (
    _GUARD_SPEC_KEYS,
    GUARD_POLICIES,
    IngestPolicy,
    NumericGuardConfig,
)
from repro.serve import InferenceEngine
from repro.train import FAETrainer


def small_dlrm(schema, seed=3):
    return DLRM(schema, DLRMConfig("4-8", "8-1", seed=seed))


def counter_value(name):
    return get_registry().counter(name).value


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------


class TestAtomicWrite:
    def test_success_replaces_destination(self, tmp_path):
        target = tmp_path / "artifact.txt"
        target.write_text("old")
        with atomic_write(target) as tmp:
            tmp.write_text("new")
        assert target.read_text() == "new"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_leaves_destination_untouched(self, tmp_path):
        target = tmp_path / "artifact.txt"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as tmp:
                tmp.write_text("half-written")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "old"
        # No stray temp files either.
        assert list(tmp_path.iterdir()) == [target]

    def test_temp_keeps_destination_suffix(self, tmp_path):
        # np.savez appends ".npz" to suffix-less paths; the temp file must
        # already end in ".npz" so the archive lands under the temp name.
        with atomic_write(tmp_path / "packed.npz") as tmp:
            assert tmp.suffix == ".npz"
            np.savez(tmp, x=np.arange(3))
        with np.load(tmp_path / "packed.npz") as archive:
            np.testing.assert_array_equal(archive["x"], np.arange(3))

    def test_atomic_write_text(self, tmp_path):
        path = atomic_write_text(tmp_path / "note.txt", "hello\n")
        assert path.read_text() == "hello\n"


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


def _collective_fault_pattern(plan, calls):
    pattern = []
    for _ in range(calls):
        try:
            plan.check_collective()
            pattern.append(False)
        except TransientCollectiveError:
            pattern.append(True)
    return pattern


class TestFaultPlan:
    def test_same_seed_injects_identically(self):
        a = FaultPlan(seed=5, collective_failure_rate=0.3)
        b = FaultPlan(seed=5, collective_failure_rate=0.3)
        assert _collective_fault_pattern(a, 50) == _collective_fault_pattern(b, 50)

    def test_different_seeds_diverge(self):
        a = FaultPlan(seed=5, collective_failure_rate=0.3)
        b = FaultPlan(seed=6, collective_failure_rate=0.3)
        assert _collective_fault_pattern(a, 200) != _collective_fault_pattern(b, 200)

    def test_transient_failures_capped(self):
        plan = FaultPlan(seed=0, collective_failure_rate=0.9, max_collective_failures=3)
        fired = sum(_collective_fault_pattern(plan, 500))
        assert fired == 3

    def test_rank_death_fires_exactly_once(self):
        plan = FaultPlan(seed=0, rank_death=(1, 3))
        plan.check_collective()
        plan.check_collective()
        with pytest.raises(PermanentRankFailure) as excinfo:
            plan.check_collective("all_reduce")
        assert excinfo.value.rank == 1
        # Already fired: survivors' future collectives proceed.
        plan.check_collective()

    def test_eviction_fires_exactly_once(self):
        plan = FaultPlan(seed=0, hot_eviction_at=5)
        assert not plan.should_evict_hot(4)
        assert plan.should_evict_hot(5)
        assert not plan.should_evict_hot(6)

    def test_loader_hiccups_capped(self):
        plan = FaultPlan(seed=0, loader_hiccup_rate=0.9, max_loader_hiccups=2)
        fired = 0
        for _ in range(200):
            try:
                plan.check_loader()
            except LoaderHiccup:
                fired += 1
        assert fired == 2

    def test_parse_full_spec(self):
        plan = FaultPlan.parse("seed=7,collective=0.05,death=1@40,evict=80,loader=0.02")
        assert plan.seed == 7
        assert plan.collective_failure_rate == 0.05
        assert plan.rank_death == (1, 40)
        assert plan.hot_eviction_at == 80
        assert plan.loader_hiccup_rate == 0.02

    @pytest.mark.parametrize("spec", ["bogus=1", "collective", "death=1", "collective=x"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(collective_failure_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(rank_death=(0, 0))

    def test_state_roundtrip_resumes_fault_schedule(self):
        plan = FaultPlan(seed=9, collective_failure_rate=0.3)
        _collective_fault_pattern(plan, 25)
        state = plan.state_dict()
        expected = _collective_fault_pattern(plan, 50)

        fresh = FaultPlan(seed=9, collective_failure_rate=0.3)
        fresh.load_state_dict(state)
        assert _collective_fault_pattern(fresh, 50) == expected


# ----------------------------------------------------------------------
# Spec grammar.  The hand-written parsers and validation ladder that the
# key tables replaced are kept here verbatim as the oracle: a table-driven
# parse must build the same plan, or both must refuse the spec.
# ----------------------------------------------------------------------


def _reference_fault_parse(spec):
    """``FaultPlan.parse`` as an if/elif chain; returns the constructor kwargs."""
    kwargs: dict = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ValueError(f"fault spec entry {entry!r} is not key=value")
        key, _, value = entry.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "collective":
                kwargs["collective_failure_rate"] = float(value)
            elif key == "max_collective":
                kwargs["max_collective_failures"] = int(value)
            elif key == "loader":
                kwargs["loader_hiccup_rate"] = float(value)
            elif key == "max_loader":
                kwargs["max_loader_hiccups"] = int(value)
            elif key == "death":
                rank_str, _, call_str = value.partition("@")
                kwargs["rank_death"] = (int(rank_str), int(call_str))
            elif key == "evict":
                kwargs["hot_eviction_at"] = int(value)
            elif key == "ingest":
                kwargs["ingest_corruption_rate"] = float(value)
            elif key == "max_ingest":
                kwargs["max_ingest_corruptions"] = int(value)
            elif key == "bad_batch":
                kwargs["batch_corruption_rate"] = float(value)
            elif key == "max_bad_batch":
                kwargs["max_batch_corruptions"] = int(value)
            elif key == "bad_grad":
                kwargs["gradient_corruption_at"] = int(value)
            elif key == "bad_row":
                kwargs["hot_row_corruption_at"] = int(value)
            elif key == "corrupt":
                kwargs["corruption_mode"] = value
            elif key == "kill_replica":
                replica_str, _, request_str = value.partition("@")
                kwargs["replica_kill"] = (int(replica_str), int(request_str))
            elif key == "slow_replica":
                replica_str, _, window = value.partition("@")
                start_str, _, stop_str = window.partition(":")
                kwargs["replica_slow"] = (
                    int(replica_str), int(start_str), int(stop_str)
                )
            elif key == "slow_replica_factor":
                kwargs["replica_slow_factor"] = float(value)
            elif key == "flap_replica":
                replica_str, _, window = value.partition("@")
                start_str, _, period_str = window.partition("/")
                kwargs["replica_flap"] = (
                    int(replica_str), int(start_str), int(period_str)
                )
            elif key == "crash_refresh":
                index_str, _, phase = value.partition("@")
                kwargs["crash_refresh"] = (int(index_str), phase.strip())
            elif key == "crash_checkpoint":
                kwargs["crash_checkpoint"] = int(value)
            elif key == "crash_step":
                kwargs["crash_step"] = int(value)
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        except ValueError as exc:
            raise ValueError(f"bad fault spec entry {entry!r}: {exc}") from exc
    return kwargs


def _reference_fault_post_init(self):
    """``FaultPlan.__post_init__`` as a validation ladder."""
    if not 0.0 <= self.collective_failure_rate < 1.0:
        raise ValueError("collective_failure_rate must be in [0, 1)")
    if not 0.0 <= self.loader_hiccup_rate < 1.0:
        raise ValueError("loader_hiccup_rate must be in [0, 1)")
    if not 0.0 <= self.ingest_corruption_rate < 1.0:
        raise ValueError("ingest_corruption_rate must be in [0, 1)")
    if not 0.0 <= self.batch_corruption_rate < 1.0:
        raise ValueError("batch_corruption_rate must be in [0, 1)")
    if self.corruption_mode not in ("nan", "bitflip"):
        raise ValueError(
            f"corruption_mode must be 'nan' or 'bitflip', got {self.corruption_mode!r}"
        )
    if self.rank_death is not None:
        rank, at_call = self.rank_death
        if rank < 0 or at_call < 1:
            raise ValueError(f"invalid rank_death {self.rank_death}")
    if self.replica_kill is not None:
        replica, at_request = self.replica_kill
        if replica < 0 or at_request < 0:
            raise ValueError(f"invalid replica_kill {self.replica_kill}")
    if self.replica_slow is not None:
        replica, start, stop = self.replica_slow
        if replica < 0 or start < 0 or stop <= start:
            raise ValueError(f"invalid replica_slow {self.replica_slow}")
    if self.replica_slow_factor <= 1.0:
        raise ValueError("replica_slow_factor must be > 1")
    if self.replica_flap is not None:
        replica, start, period = self.replica_flap
        if replica < 0 or start < 0 or period < 1:
            raise ValueError(f"invalid replica_flap {self.replica_flap}")
    if self.crash_refresh is not None:
        refresh_index, phase = self.crash_refresh
        if refresh_index < 0 or phase not in REFRESH_PHASES:
            raise ValueError(
                f"invalid crash_refresh {self.crash_refresh}: phase must "
                f"be one of {REFRESH_PHASES}"
            )
    if self.crash_checkpoint is not None and self.crash_checkpoint < 0:
        raise ValueError("crash_checkpoint must be >= 0")
    if self.crash_step is not None and self.crash_step < 1:
        raise ValueError("crash_step must be >= 1")
    np.random.default_rng(self.seed)


def _reference_guard_parse(spec):
    """``NumericGuardConfig.parse`` with its own ``key=value`` loop."""
    spec = spec.strip()
    if spec in ("", "default"):
        return NumericGuardConfig()
    kwargs: dict = {}
    keys = {
        "ema": ("ema_beta", float),
        "spike": ("spike_factor", float),
        "warmup": ("warmup_steps", int),
        "rollbacks": ("max_rollbacks", int),
        "backoff": ("lr_backoff", float),
        "skips": ("max_skipped_steps", int),
    }
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ValueError(f"guard spec entry {entry!r} is not key=value")
        key, _, value = entry.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(
                f"unknown guard spec key {key!r} (have {sorted(keys)})"
            )
        name, cast = keys[key]
        kwargs[name] = cast(value.strip())
    return NumericGuardConfig(**kwargs)


def _reference_ingest_parse(spec):
    """``IngestPolicy.parse`` with its own ``field=policy`` loop."""
    spec = spec.strip()
    if spec in GUARD_POLICIES:
        return IngestPolicy(sparse=spec, dense=spec, labels=spec)
    kwargs: dict[str, str] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ValueError(
                f"ingest policy entry {entry!r} is not field=policy "
                f"(fields: sparse, dense, labels; policies: {GUARD_POLICIES})"
            )
        key, _, value = entry.partition("=")
        key, value = key.strip(), value.strip()
        if key not in ("sparse", "dense", "labels"):
            raise ValueError(f"unknown ingest policy field {key!r}")
        kwargs[key] = value
    return IngestPolicy(**kwargs)


_FAULT_DEFAULTS = {f.name: f.default for f in dataclasses.fields(FaultPlan) if f.init}


def _reference_fault_plan(spec):
    """Public fields of the plan the reference parser and ladder build."""
    fields = {**_FAULT_DEFAULTS, **_reference_fault_parse(spec)}
    _reference_fault_post_init(SimpleNamespace(**fields))
    return fields


def _fault_plan_fields(spec):
    plan = FaultPlan.parse(spec)
    return {name: getattr(plan, name) for name in _FAULT_DEFAULTS}


#: flag -> (parser under test, reference), both returning comparable values.
_SPEC_PARSERS = {
    "faults": (_fault_plan_fields, _reference_fault_plan),
    "guards": (NumericGuardConfig.parse, _reference_guard_parse),
    "validate": (IngestPolicy.parse, _reference_ingest_parse),
}


def _outcome(parse, spec):
    try:
        return parse(spec)
    except ValueError:
        return ValueError


_N = st.integers(-2, 60).map(str)


def _joined(separators, malformed):
    """``A@B``-style values from the grammar, plus malformed ones."""

    def join(parts):
        return "".join(p + s for p, s in zip(parts, separators)) + parts[-1]

    well_formed = st.tuples(*[_N] * (len(separators) + 1)).map(join)
    return st.one_of(well_formed, st.sampled_from(malformed))


# Values are drawn per cast in the key table.  No NaN: the table rejects a
# NaN slow factor, which the ladder's `<=` let through.
_INT_VALUES = st.one_of(_N, st.sampled_from(["", "x", "1.5", "0x3", " 7"]))
_RATE_VALUES = st.sampled_from(["0", "0.0", "0.05", "0.5", "0.999", "1.0", "-0.1", "2", "x", ""])
_FLOAT_VALUES = st.sampled_from(["0.25", "0.5", "1", "1.5", "20", "-1", "0", "x", ""])
_COMPOSITE_VALUES = {
    "death": _joined("@", ["1", "1@", "@3", "1@3@4", "a@b", "1:3"]),
    "kill_replica": _joined("@", ["0", "0@", "0@1@2", "0@1:2"]),
    "slow_replica": _joined("@:", ["0@4", "0@4:", "0:4", "0@1:2:3", "0@4/5"]),
    "flap_replica": _joined("@/", ["0@4", "0@4:5", "0@1/2/3", "0/4"]),
    "crash_refresh": st.one_of(
        st.tuples(_N, st.sampled_from([*REFRESH_PHASES, "warp", "", " repack"])).map("@".join),
        st.sampled_from(["0", "x@plan", "@plan", "0@plan@1"]),
    ),
}


def _fault_values(key):
    name, cast = _SPEC_KEYS[key]
    if key in _COMPOSITE_VALUES:
        return _COMPOSITE_VALUES[key]
    if cast is int:
        return _INT_VALUES
    if cast is float:
        return _RATE_VALUES if name.endswith("_rate") else _FLOAT_VALUES
    return st.sampled_from(["nan", "bitflip", "warp", "NAN", ""])


@st.composite
def _specs(draw, keys, values, junk):
    """A spec with distinct keys from ``keys``, maybe padded or junked."""
    chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=6))
    pad = draw(st.sampled_from(["", " "]))
    entries = [f"{pad}{key}{pad}={pad}{draw(values(key))}" for key in chosen]
    entries += draw(st.lists(st.sampled_from(junk), max_size=1))
    return ",".join(draw(st.permutations(entries)))


_JUNK = ["bogus=1", "=3", "nokey", "", " ", "Seed=1"]


def _scripted_plan():
    return FaultPlan(
        seed=2, collective_failure_rate=0.5, max_collective_failures=1, rank_death=(1, 2),
        loader_hiccup_rate=0.9, max_loader_hiccups=2, hot_eviction_at=3,
        batch_corruption_rate=0.9, max_batch_corruptions=1,
        replica_kill=(0, 5), replica_slow=(1, 2, 4), replica_flap=(2, 1, 3),
    )


def _run_script(plan):
    """3 collectives (one rank death), loader fetches past the cap, an
    eviction, replica kill / slow / flap, and batches past the cap."""
    events = []
    for _ in range(3):
        try:
            plan.check_collective()
            events.append("ok")
        except PermanentRankFailure:
            events.append("death")
        except TransientCollectiveError:
            events.append("transient")
    for _ in range(4):
        try:
            plan.check_loader()
            events.append("ok")
        except LoaderHiccup:
            events.append("hiccup")
    events += [plan.should_evict_hot(i) for i in (2, 3, 4)]
    events += [plan.replica_alive(0, 4), plan.replica_alive(0, 5), plan.replica_alive(0, 6)]
    events += [plan.replica_slow_multiplier(1, 1), plan.replica_slow_multiplier(1, 2)]
    events += [plan.replica_alive(2, 0), plan.replica_alive(2, 1), plan.replica_alive(2, 4)]
    batch = MiniBatch(
        dense=np.ones((2, 3), dtype=np.float32), sparse={},
        labels=np.zeros(2, dtype=np.float32), indices=np.arange(2),
    )
    events += [plan.maybe_corrupt_batch(batch) is not batch for _ in range(3)]
    return events


# Recorded from the if/elif implementation (same script, same seed).
_SCRIPTED_EVENTS = [
    "transient", "death", "ok", "hiccup", "hiccup", "ok", "ok",
    False, True, False, True, False, False, 1.0, 20.0, True, False, True, True, False, False,
]
_SCRIPTED_STATE = {
    "rng": {
        "bit_generator": "PCG64",
        "state": {
            "state": 94939001618465750405315260005713465823,
            "inc": 121863417007658695389390353187995180015,
        },
        "has_uint32": 1,
        "uinteger": 2577412133,
    },
    "collective_calls": 3,
    "collective_failures": 1,
    "loader_hiccups": 2,
    "rank_death_fired": True,
    "eviction_fired": True,
    "batch_corruptions": 1,
    "gradient_corruption_fired": False,
    "hot_row_corruption_fired": False,
    "replica_kill_fired": True,
    "replica_slow_fired": True,
    "replica_flap_fired": True,
}
_PARENT_STATE_KEYS = (
    "rng", "collective_calls", "collective_failures", "loader_hiccups",
    "rank_death_fired", "eviction_fired",
)


def _documented_specs():
    """``(where, flag, spec)`` for every spec value the docs, CI and CLI show."""
    root = Path(__file__).resolve().parents[1]
    flag = re.compile(r"--(faults|guards|validate)\s+(?:\"([^\"]*)\"|'([^']*)'|([^\s`\"'\\)]+))")
    found = []
    for rel in (".github/workflows/ci.yml", "README.md", "docs/TUTORIAL.md"):
        for match in flag.finditer((root / rel).read_text(encoding="utf-8")):
            spec = next(group for group in match.groups()[1:] if group is not None)
            found.append((rel, match.group(1), spec))
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        for action in sub._actions:
            for option in action.option_strings:
                if option[2:] in _SPEC_PARSERS:
                    for spec in re.findall(r"'([^']*)'", action.help):
                        found.append((f"repro {name} {option}", option[2:], spec))
    block = inspect.getdoc(FaultPlan.parse).split("::", 1)[1].split("Raises:", 1)[0]
    found += [("FaultPlan.parse", "faults", spec) for spec in block.split()]
    return found


class TestSpecGrammar:
    @settings(max_examples=400, deadline=None)
    @given(spec=_specs(_SPEC_KEYS, _fault_values, _JUNK))
    def test_fault_table_matches_reference(self, spec):
        assert _outcome(_fault_plan_fields, spec) == _outcome(_reference_fault_plan, spec)

    @settings(max_examples=150, deadline=None)
    @given(spec=_specs(
        _GUARD_SPEC_KEYS,
        lambda key: st.sampled_from(["0", "0.5", "0.9", "1", "2", "4.0", "8", "-1", "x", ""]),
        [*_JUNK, "default"],
    ))
    def test_guard_table_matches_reference(self, spec):
        assert _outcome(NumericGuardConfig.parse, spec) == _outcome(_reference_guard_parse, spec)

    @settings(max_examples=150, deadline=None)
    @given(spec=st.one_of(
        st.sampled_from([*GUARD_POLICIES, " clamp ", "bogus", ""]),
        _specs(
            {"sparse", "dense", "labels"},
            lambda key: st.sampled_from([*GUARD_POLICIES, "drop", ""]),
            [*_JUNK, "quarantine"],
        ),
    ))
    def test_ingest_table_matches_reference(self, spec):
        assert _outcome(IngestPolicy.parse, spec) == _outcome(_reference_ingest_parse, spec)

    def test_repeated_fault_key_is_rejected(self):
        with pytest.raises(ValueError, match="'death' given twice"):
            FaultPlan.parse("death=1@3,death=0@5")

    def test_repeated_guard_key_is_rejected(self):
        with pytest.raises(ValueError, match="'rollbacks' given twice"):
            NumericGuardConfig.parse("rollbacks=2,rollbacks=0")

    def test_repeated_validate_key_is_rejected(self):
        with pytest.raises(ValueError, match="'sparse' given twice"):
            IngestPolicy.parse("sparse=clamp,sparse=raise")

    def test_unknown_key_names_the_spec(self):
        with pytest.raises(ValueError, match="unknown fault spec key 'bogus'"):
            FaultPlan.parse("seed=1,bogus=2")

    def test_state_dict_after_scripted_faults_is_pinned(self):
        plan = _scripted_plan()
        assert _run_script(plan) == _SCRIPTED_EVENTS
        state = plan.state_dict()
        assert list(state) == list(_SCRIPTED_STATE)
        assert state == _SCRIPTED_STATE
        assert json.dumps(state) == json.dumps(_SCRIPTED_STATE)

    def test_parent_shaped_state_without_later_keys_loads(self):
        plan = _scripted_plan()
        _run_script(plan)
        old = {key: plan.state_dict()[key] for key in _PARENT_STATE_KEYS}
        fresh = _scripted_plan()
        fresh.load_state_dict(old)
        later = {key: 0 if key == "batch_corruptions" else False for key in _SCRIPTED_STATE}
        assert fresh.state_dict() == {**later, **old}

    def test_documented_specs_parse_like_the_reference(self):
        documented = _documented_specs()
        flags = {flag for _where, flag, _spec in documented}
        assert len(documented) >= 20 and flags == set(_SPEC_PARSERS)
        for where, flag, spec in documented:
            parse, reference = _SPEC_PARSERS[flag]
            assert parse(spec) == reference(spec), f"{where}: --{flag} {spec!r}"


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


class TestRetry:
    def test_backoff_schedule(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.05)
        assert policy.delay(0) == pytest.approx(0.01)
        assert policy.delay(1) == pytest.approx(0.02)
        assert policy.delay(2) == pytest.approx(0.04)
        assert policy.delay(3) == pytest.approx(0.05)  # capped

    def test_recovers_after_transient_failures(self):
        recovered_before = counter_value("resilience.retry.recovered")
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientCollectiveError("flake")
            return "ok"

        policy = RetryPolicy(max_attempts=4, sleep_enabled=False)
        assert with_retries(flaky, policy=policy) == "ok"
        assert calls["n"] == 3
        assert counter_value("resilience.retry.recovered") == recovered_before + 1

    def test_exhaustion_raises_with_cause(self):
        def always_fails():
            raise LoaderHiccup("stalled")

        policy = RetryPolicy(max_attempts=3, sleep_enabled=False)
        with pytest.raises(RetryExhaustedError) as excinfo:
            with_retries(always_fails, policy=policy, name="loader")
        assert isinstance(excinfo.value.__cause__, LoaderHiccup)

    def test_permanent_failures_not_retried(self):
        calls = {"n": 0}

        def dies():
            calls["n"] += 1
            raise PermanentRankFailure(2)

        with pytest.raises(PermanentRankFailure):
            with_retries(dies, policy=RetryPolicy(max_attempts=5, sleep_enabled=False))
        assert calls["n"] == 1

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestRetryJitter:
    def test_zero_jitter_keeps_exact_exponential_schedule(self):
        policy = RetryPolicy()
        assert [policy.delay(i, salt=99) for i in range(4)] == [
            0.005,
            0.01,
            0.02,
            0.04,
        ]

    def test_schedule_is_a_pure_function_of_seed_and_salt(self):
        policy = RetryPolicy(jitter=0.5, seed=42)
        first = [policy.delay(i, salt=123) for i in range(6)]
        second = [policy.delay(i, salt=123) for i in range(6)]
        assert first == second
        # A fresh policy object with the same seed replays the same draws.
        replay = RetryPolicy(jitter=0.5, seed=42)
        assert [replay.delay(i, salt=123) for i in range(6)] == first

    def test_jittered_delays_stay_within_bounds(self):
        policy = RetryPolicy(
            jitter=0.3, seed=1, base_delay=0.01, multiplier=2.0, max_delay=1.0
        )
        for index in range(8):
            base = min(0.01 * 2.0**index, 1.0)
            delay = policy.delay(index, salt=7)
            assert base * 0.7 <= delay <= base * 1.3

    def test_seed_and_salt_decorrelate_schedules(self):
        length = 6
        base = [RetryPolicy(jitter=0.5, seed=1).delay(i, salt=3) for i in range(length)]
        other_seed = [
            RetryPolicy(jitter=0.5, seed=2).delay(i, salt=3) for i in range(length)
        ]
        other_salt = [
            RetryPolicy(jitter=0.5, seed=1).delay(i, salt=4) for i in range(length)
        ]
        assert base != other_seed
        assert base != other_salt

    def test_with_retries_records_jittered_schedule(self):
        registry = get_registry()
        histogram = registry.histogram("resilience.retry.delay_seconds")
        count_before = histogram.count
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientCollectiveError("flake")
            return "ok"

        policy = RetryPolicy(max_attempts=4, sleep_enabled=False, jitter=0.5, seed=9)
        assert with_retries(flaky, policy=policy, name="jittered-op") == "ok"
        # Two retries happened, so two sleeps were observed — even with
        # sleeping disabled the schedule itself is recorded.
        assert histogram.count == count_before + 2


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------


def _make_checkpoint(schema, step=7, seed=3):
    model = small_dlrm(schema, seed=seed)
    scheduler = ShuffleScheduler(num_hot_batches=4, num_cold_batches=6)
    return model, TrainerCheckpoint(
        step=step,
        epoch=1,
        cursors={"hot": 2, "cold": 3},
        scheduler_state=scheduler.state_dict(),
        params=capture_training_state(model.dense_parameters(), model.tables),
        rng_state={"collective_calls": 12},
        last_train_loss=0.5,
        metadata={"world_size": 2},
    )


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path, tiny_schema):
        _model, ckpt = _make_checkpoint(tiny_schema)
        path = save_checkpoint(tmp_path, ckpt)
        assert path.name == "ckpt-00000007.npz"
        assert verify_checkpoint(path)

        loaded = load_checkpoint(path)
        assert loaded.step == 7
        assert loaded.epoch == 1
        assert loaded.cursors == {"hot": 2, "cold": 3}
        assert loaded.scheduler_state["total_hot"] == 4
        assert loaded.rng_state == {"collective_calls": 12}
        assert loaded.metadata == {"world_size": 2}
        assert loaded.last_train_loss == pytest.approx(0.5)
        for key, value in ckpt.params.items():
            np.testing.assert_array_equal(loaded.params[key], value)

    def test_restore_overwrites_model(self, tmp_path, tiny_schema):
        model, ckpt = _make_checkpoint(tiny_schema, seed=3)
        path = save_checkpoint(tmp_path, ckpt)

        other = small_dlrm(tiny_schema, seed=99)
        loaded = load_checkpoint(path)
        restore_training_state(other.dense_parameters(), other.tables, loaded.params)
        for name in model.tables:
            np.testing.assert_array_equal(
                other.tables[name].weight.value, model.tables[name].weight.value
            )
        for p, q in zip(model.dense_parameters(), other.dense_parameters()):
            np.testing.assert_array_equal(q.value, p.value)

    def test_restore_rejects_wrong_model(self, tmp_path, tiny_schema):
        _model, ckpt = _make_checkpoint(tiny_schema)
        loaded = load_checkpoint(save_checkpoint(tmp_path, ckpt))
        other = DLRM(tiny_schema, DLRMConfig("4-16-8", "8-4-1", seed=0))
        with pytest.raises(CheckpointError):
            restore_training_state(other.dense_parameters(), other.tables, loaded.params)

    def test_bit_flip_detected_and_named(self, tmp_path, tiny_schema):
        _model, ckpt = _make_checkpoint(tiny_schema)
        path = save_checkpoint(tmp_path, ckpt)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        assert not verify_checkpoint(path)
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            load_checkpoint(path)
        assert path.name in str(excinfo.value)

    def test_missing_sidecar_is_corrupt(self, tmp_path, tiny_schema):
        _model, ckpt = _make_checkpoint(tiny_schema)
        path = save_checkpoint(tmp_path, ckpt)
        path.with_name(path.name + ".sha256").unlink()
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(path)

    def test_latest_skips_corrupt_entries(self, tmp_path, tiny_schema):
        _model, older = _make_checkpoint(tiny_schema, step=5)
        _model, newer = _make_checkpoint(tiny_schema, step=9)
        good = save_checkpoint(tmp_path, older)
        bad = save_checkpoint(tmp_path, newer)
        bad.write_bytes(bad.read_bytes()[: 100])

        skipped_before = counter_value("resilience.checkpoint.corrupt_skipped")
        assert latest_checkpoint(tmp_path) == good
        assert counter_value("resilience.checkpoint.corrupt_skipped") > skipped_before

    def test_latest_on_missing_or_empty_directory(self, tmp_path):
        assert latest_checkpoint(tmp_path / "nope") is None
        assert latest_checkpoint(tmp_path) is None

    def test_manager_cadence_and_retention(self, tmp_path, tiny_schema):
        manager = CheckpointManager(tmp_path, every=2, keep=2)
        assert not manager.should_save(0)
        assert not manager.should_save(1)
        assert manager.should_save(2)
        assert manager.should_save(4)

        for step in (2, 4, 6):
            _model, ckpt = _make_checkpoint(tiny_schema, step=step)
            manager.save(ckpt)
        names = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        assert names == ["ckpt-00000004.npz", "ckpt-00000006.npz"]
        # Pruned checkpoints take their sidecars with them.
        assert len(list(tmp_path.glob("*.sha256"))) == 2
        assert manager.latest() == tmp_path / "ckpt-00000006.npz"

    def test_manager_validates_args(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)

    def test_prune_keep_one_retains_only_newest(self, tmp_path, tiny_schema):
        manager = CheckpointManager(tmp_path, keep=1)
        for step in (1, 2, 3):
            _model, ckpt = _make_checkpoint(tiny_schema, step=step)
            manager.save(ckpt)
        assert [p.name for p in tmp_path.glob("ckpt-*.npz")] == ["ckpt-00000003.npz"]
        assert [p.name for p in tmp_path.glob("*.sha256")] == [
            "ckpt-00000003.npz.sha256"
        ]

    def test_prune_keep_larger_than_count_keeps_all(self, tmp_path, tiny_schema):
        manager = CheckpointManager(tmp_path, keep=10)
        for step in (1, 2, 3):
            _model, ckpt = _make_checkpoint(tiny_schema, step=step)
            manager.save(ckpt)
        assert len(list(tmp_path.glob("ckpt-*.npz"))) == 3
        assert len(list(tmp_path.glob("*.sha256"))) == 3

    def test_prune_keep_none_is_unlimited(self, tmp_path, tiny_schema):
        manager = CheckpointManager(tmp_path, keep=None)
        for step in range(1, 6):
            _model, ckpt = _make_checkpoint(tiny_schema, step=step)
            manager.save(ckpt)
        assert len(list(tmp_path.glob("ckpt-*.npz"))) == 5

    def test_manager_latest_falls_back_past_corrupt_newest(
        self, tmp_path, tiny_schema
    ):
        # The resume path must land on the newest *good* checkpoint even
        # when the newest file on disk is a truncated crash remnant.
        manager = CheckpointManager(tmp_path, keep=None)
        for step in (3, 6, 9):
            _model, ckpt = _make_checkpoint(tiny_schema, step=step)
            manager.save(ckpt)
        newest = tmp_path / "ckpt-00000009.npz"
        newest.write_bytes(newest.read_bytes()[:64])

        fallback = manager.latest()
        assert fallback == tmp_path / "ckpt-00000006.npz"
        assert load_checkpoint(fallback).step == 6


# ----------------------------------------------------------------------
# Optimizer state
# ----------------------------------------------------------------------


class TestOptimizerState:
    def test_sgd_is_stateless(self, tiny_schema):
        # Checkpoints carry no optimizer state: the engine builds a fresh SGD
        # for every segment, which must step exactly like one kept throughout.
        def run(fresh_each_step):
            params = small_dlrm(tiny_schema, seed=3).dense_parameters()
            kept = SGD(params, lr=0.1)
            rng = np.random.default_rng(0)
            for _ in range(3):
                for param in params:
                    param.grad = rng.standard_normal(param.value.shape).astype(np.float32)
                (SGD(params, lr=0.1) if fresh_each_step else kept).step()
            return [param.value for param in params]

        for kept, fresh in zip(run(False), run(True)):
            np.testing.assert_array_equal(kept, fresh)


# ----------------------------------------------------------------------
# Scheduler degradation + state
# ----------------------------------------------------------------------


class TestSchedulerResilience:
    def test_degraded_segments_run_cold_but_drain_hot_pool(self):
        scheduler = ShuffleScheduler(num_hot_batches=10, num_cold_batches=10)
        scheduler.degrade()
        events = list(scheduler.segments())
        assert all(event.kind == "cold" for event in events)
        assert {event.drain_pool for event in events} == {"hot", "cold"}
        assert sum(e.num_batches for e in events if e.drain_pool == "hot") == 10
        assert sum(e.num_batches for e in events if e.drain_pool == "cold") == 10

    def test_degrade_is_idempotent(self):
        before = counter_value("scheduler.degraded")
        scheduler = ShuffleScheduler(num_hot_batches=2, num_cold_batches=2)
        scheduler.degrade()
        scheduler.degrade()
        assert counter_value("scheduler.degraded") == before + 1

    def test_state_roundtrip_mid_epoch(self):
        scheduler = ShuffleScheduler(num_hot_batches=20, num_cold_batches=20)
        scheduler.next_segment()
        scheduler.record_test_loss(0.6)
        scheduler.next_segment()
        scheduler.record_test_loss(0.55)
        state = scheduler.state_dict()

        fresh = ShuffleScheduler(num_hot_batches=20, num_cold_batches=20)
        fresh.load_state_dict(state)
        assert fresh.state_dict() == state
        # Both plan the same continuation.
        a, b = scheduler.next_segment(), fresh.next_segment()
        assert (a.kind, a.num_batches, a.drain_pool) == (b.kind, b.num_batches, b.drain_pool)

    def test_state_rejects_other_dataset(self):
        scheduler = ShuffleScheduler(num_hot_batches=20, num_cold_batches=20)
        other = ShuffleScheduler(num_hot_batches=5, num_cold_batches=20)
        with pytest.raises(ValueError):
            other.load_state_dict(scheduler.state_dict())


# ----------------------------------------------------------------------
# Loader fault injection
# ----------------------------------------------------------------------


class TestLoaderFaults:
    def test_fetch_batch_retries_hiccups(self, tiny_log):
        plan = FaultPlan(seed=0, loader_hiccup_rate=0.9, max_loader_hiccups=2)
        retry = RetryPolicy(max_attempts=4, sleep_enabled=False)
        batch = fetch_batch(tiny_log, np.arange(32), fault_plan=plan, retry=retry)
        assert len(batch.labels) == 32

    def test_fetch_batch_exhaustion_surfaces(self, tiny_log):
        plan = FaultPlan(seed=1, loader_hiccup_rate=0.999999, max_loader_hiccups=64)
        retry = RetryPolicy(max_attempts=2, sleep_enabled=False)
        with pytest.raises(RetryExhaustedError):
            fetch_batch(tiny_log, np.arange(8), fault_plan=plan, retry=retry)

    def test_fetch_batch_without_plan_is_plain(self, tiny_log):
        batch = fetch_batch(tiny_log, np.arange(16))
        assert len(batch.labels) == 16


# ----------------------------------------------------------------------
# Packed-dataset corruption
# ----------------------------------------------------------------------


class TestPackedDatasetErrors:
    def test_truncated_archive_names_file(self, tmp_path, tiny_plan):
        path = tmp_path / "packed.npz"
        tiny_plan.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(RuntimeError) as excinfo:
            load_fae_dataset(path)
        assert "packed.npz" in str(excinfo.value)

    def test_garbage_file_names_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(RuntimeError) as excinfo:
            load_fae_dataset(path)
        assert "junk.npz" in str(excinfo.value)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, unrelated=np.arange(3))
        with pytest.raises(RuntimeError) as excinfo:
            load_fae_dataset(path)
        assert "format header" in str(excinfo.value)

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_fae_dataset(tmp_path / "absent.npz")


# ----------------------------------------------------------------------
# Serving deadline fallback
# ----------------------------------------------------------------------


class TestServeDeadline:
    def _request(self, tiny_log):
        table = next(iter(tiny_log.sparse))
        context = {name: ids[0] for name, ids in tiny_log.sparse.items()}
        return tiny_log.dense[0], context, table

    def test_deadline_trips_to_fallback(self, tiny_schema, tiny_log):
        engine = InferenceEngine(small_dlrm(tiny_schema), batch_size=64)
        dense, context, table = self._request(tiny_log)
        exceeded_before = counter_value("serve.deadline.exceeded")
        result = engine.rank_candidates(
            dense, context, table, np.arange(100), top_k=5, deadline_s=1e-9
        )
        assert result.degraded
        assert len(result.item_ids) == 5
        assert np.all(np.diff(result.scores) <= 0)
        assert counter_value("serve.deadline.exceeded") > exceeded_before

    def test_no_deadline_full_fidelity(self, tiny_schema, tiny_log):
        engine = InferenceEngine(small_dlrm(tiny_schema), batch_size=64)
        dense, context, table = self._request(tiny_log)
        result = engine.rank_candidates(dense, context, table, np.arange(100), top_k=5)
        assert not result.degraded

    def test_generous_deadline_not_degraded(self, tiny_schema, tiny_log):
        engine = InferenceEngine(small_dlrm(tiny_schema), batch_size=64, deadline_s=30.0)
        dense, context, table = self._request(tiny_log)
        result = engine.rank_candidates(dense, context, table, np.arange(64), top_k=3)
        assert not result.degraded

    def test_invalid_deadline_rejected(self, tiny_schema):
        with pytest.raises(ValueError):
            InferenceEngine(small_dlrm(tiny_schema), deadline_s=0.0)


# ----------------------------------------------------------------------
# Trainer recovery: crash/resume, degradation, chaos
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fae_setup(request):
    tiny_log = request.getfixturevalue("tiny_log")
    config = request.getfixturevalue("tiny_fae_config")
    train, test = train_test_split(tiny_log, 0.2, seed=4)
    # drop_last keeps every batch at exactly 64 samples, so multi-replica
    # sharding is exact (mirrors tests/test_dist.py).
    plan = fae_preprocess(train, config, batch_size=64, drop_last=True)
    return tiny_log.schema, train, test, plan


class TestCrashResume:
    def test_resumed_run_reproduces_loss_trajectory(self, tmp_path, fae_setup):
        schema, train, test, plan = fae_setup

        full_model = small_dlrm(schema, seed=21)
        manager = CheckpointManager(tmp_path, every=1, keep=None)
        full = FAETrainer(full_model, plan, lr=0.15).train(
            train, test, epochs=1, checkpoint=manager
        )
        checkpoints = sorted(tmp_path.glob("ckpt-*.npz"))
        assert len(checkpoints) >= 2

        # "Crash" after an intermediate segment: resume a *differently
        # initialized* model from that checkpoint; the restore overwrites
        # every parameter, so the tail of the run must match exactly.
        resumed_model = small_dlrm(schema, seed=777)
        resumed = FAETrainer(resumed_model, plan, lr=0.15).train(
            train, test, epochs=1, resume=checkpoints[len(checkpoints) // 2]
        )

        full_points = full.history.points
        resumed_points = resumed.history.points
        tail = full_points[len(full_points) - len(resumed_points) :]
        assert len(tail) == len(resumed_points)
        for expected, got in zip(tail, resumed_points):
            assert got.iteration == expected.iteration
            assert got.test_loss == pytest.approx(expected.test_loss, abs=1e-12)
            assert got.train_loss == pytest.approx(expected.train_loss, abs=1e-12)
        assert resumed.final_test_accuracy == pytest.approx(full.final_test_accuracy)

        for name in full_model.tables:
            np.testing.assert_array_equal(
                resumed_model.tables[name].weight.value,
                full_model.tables[name].weight.value,
            )
        for p, q in zip(full_model.dense_parameters(), resumed_model.dense_parameters()):
            np.testing.assert_array_equal(q.value, p.value)

    def test_resume_from_manager_latest(self, tmp_path, fae_setup):
        schema, train, test, plan = fae_setup
        manager = CheckpointManager(tmp_path, every=2, keep=3)
        FAETrainer(small_dlrm(schema, seed=5), plan, lr=0.15).train(
            train, test, epochs=1, checkpoint=manager
        )
        latest = manager.latest()
        assert latest is not None
        restores_before = counter_value("resilience.checkpoint.restores")
        result = FAETrainer(small_dlrm(schema, seed=6), plan, lr=0.15).train(
            train, test, epochs=1, resume=latest
        )
        assert counter_value("resilience.checkpoint.restores") == restores_before + 1
        assert np.isfinite(result.final_test_accuracy)

    def test_resume_rejects_other_dataset_checkpoint(self, tmp_path, fae_setup, tiny_schema):
        schema, train, test, plan = fae_setup
        _model, foreign = _make_checkpoint(tiny_schema)
        path = save_checkpoint(tmp_path, foreign)
        # Parameters may coincidentally match (same schema), but the
        # scheduler pool sizes cannot: either rejection is acceptable.
        with pytest.raises((CheckpointError, ValueError)):
            FAETrainer(small_dlrm(schema, seed=5), plan, lr=0.15).train(
                train, test, epochs=1, resume=path
            )


class TestDegradation:
    def test_eviction_degrades_single_device_run(self, fae_setup):
        schema, train, test, plan = fae_setup
        plan_faults = FaultPlan(seed=3, hot_eviction_at=5)
        trainer = FAETrainer(
            small_dlrm(schema, seed=13), plan, lr=0.15, fault_plan=plan_faults
        )
        evictions_before = counter_value("fae.hot.evictions")
        result = trainer.train(train, test, epochs=1)
        assert result.degraded
        assert trainer.replicator.evicted
        assert trainer.replicator.num_replicas == 0
        assert counter_value("fae.hot.evictions") == evictions_before + 1
        # The whole dataset still trained (hot pool drained on the cold path).
        assert result.history.final.iteration == len(plan.dataset.hot_batches) + len(
            plan.dataset.cold_batches
        )
        assert np.isfinite(result.final_test_accuracy)

    def test_degraded_checkpoint_resumes_degraded(self, tmp_path, fae_setup):
        schema, train, test, plan = fae_setup
        manager = CheckpointManager(tmp_path, every=1, keep=None)
        FAETrainer(
            small_dlrm(schema, seed=13),
            plan,
            lr=0.15,
            fault_plan=FaultPlan(seed=3, hot_eviction_at=1),
        ).train(train, test, epochs=1, checkpoint=manager)

        ckpt = load_checkpoint(manager.latest())
        assert ckpt.degraded
        assert ckpt.metadata["world_size"] == 1  # recorded by a world of one too
        trainer = FAETrainer(small_dlrm(schema, seed=14), plan, lr=0.15)
        result = trainer.train(train, test, epochs=1, resume=ckpt)
        assert result.degraded
        assert trainer.replicator.evicted


class TestDistributedChaos:
    def test_seeded_chaos_run_survives(self, fae_setup):
        schema, train, test, plan = fae_setup
        fault_plan = FaultPlan(
            seed=7,
            collective_failure_rate=0.05,
            # The 10th collective attempt: one per step plus the retried
            # ones, so the 10th step's exchange at the latest.
            rank_death=(1, 10),
            hot_eviction_at=20,
            loader_hiccup_rate=0.02,
        )
        retry = RetryPolicy(max_attempts=6, sleep_enabled=False)
        replicas = [small_dlrm(schema, seed=7) for _ in range(3)]
        trainer = DistributedFAETrainer(
            replicas, plan, lr=0.15, fault_plan=fault_plan, retry=retry
        )

        registry = get_registry()
        attempts_before = counter_value("resilience.retry.attempts")
        deaths_before = counter_value("faults.rank_death.injected")
        result = trainer.train(train, test, epochs=1)

        assert result.world_shrinks == 1
        assert trainer.world_size == 2
        assert len(trainer.replicas) == 2
        assert result.degraded
        assert counter_value("faults.rank_death.injected") == deaths_before + 1
        assert counter_value("resilience.retry.attempts") > attempts_before
        assert registry.gauge("dist.world_size").value == 2
        assert np.isfinite(result.final_test_accuracy)

    def test_rank_death_with_world_of_one_is_fatal(self, fae_setup):
        schema, train, test, plan = fae_setup
        # The third step's exchange (an armed plan keeps a world of one
        # calling the group: DESIGN "One segment engine").
        fault_plan = FaultPlan(seed=7, rank_death=(0, 3))
        trainer = DistributedFAETrainer(
            [small_dlrm(schema, seed=7)],
            plan,
            lr=0.15,
            fault_plan=fault_plan,
            retry=RetryPolicy(sleep_enabled=False),
        )
        with pytest.raises(PermanentRankFailure):
            trainer.train(train, test, epochs=1)

    def test_chaos_checkpoint_resume_completes(self, tmp_path, fae_setup):
        schema, train, test, plan = fae_setup
        manager = CheckpointManager(tmp_path, every=1, keep=3)
        DistributedFAETrainer(
            [small_dlrm(schema, seed=8) for _ in range(2)],
            plan,
            lr=0.15,
            fault_plan=FaultPlan(seed=11, collective_failure_rate=0.05),
            retry=RetryPolicy(max_attempts=6, sleep_enabled=False),
        ).train(train, test, epochs=1, checkpoint=manager)

        latest = manager.latest()
        assert latest is not None
        result = DistributedFAETrainer(
            [small_dlrm(schema, seed=9) for _ in range(2)],
            plan,
            lr=0.15,
            fault_plan=FaultPlan(seed=11, collective_failure_rate=0.05),
            retry=RetryPolicy(max_attempts=6, sleep_enabled=False),
        ).train(train, test, epochs=1, resume=latest)
        assert np.isfinite(result.final_test_accuracy)
