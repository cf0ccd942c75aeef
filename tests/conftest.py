"""Shared fixtures: tiny schemas, logs, and FAE plans sized for fast tests.

Every test starts and ends with an empty global tracer, tracing as the
environment set it (``REPRO_TRACE``), and a zeroed metrics registry, so no
test reads what another left behind.  ``REPRO_TEST_SHUFFLE=<seed>`` runs the
collected tests in a seeded random order, to show that this holds.
"""

from __future__ import annotations

import os
import random
import struct
import zipfile

import numpy as np
import pytest

from repro.core import FAEConfig, fae_preprocess
from repro.data import SyntheticClickLog, SyntheticConfig
from repro.data.schema import DatasetSchema, EmbeddingTableSpec
from repro.obs import get_registry, get_tracer

_SHUFFLE_SEED = os.environ.get("REPRO_TEST_SHUFFLE", "")
_TRACING_AT_START = get_tracer().enabled


def pytest_report_header(config) -> str | None:
    if _SHUFFLE_SEED:
        return f"test order shuffled: REPRO_TEST_SHUFFLE={_SHUFFLE_SEED}"
    return None


def pytest_collection_modifyitems(config, items) -> None:
    if _SHUFFLE_SEED:
        random.Random(int(_SHUFFLE_SEED)).shuffle(items)


def _reset_telemetry() -> None:
    tracer = get_tracer()
    tracer.enabled = _TRACING_AT_START
    tracer.reset()
    get_registry().reset()


@pytest.fixture(autouse=True)
def fresh_telemetry():
    """The global tracer and registry as a fresh process has them, around each test."""
    _reset_telemetry()
    yield
    _reset_telemetry()


@pytest.fixture(scope="session")
def tiny_schema() -> DatasetSchema:
    """Two large-ish tables and one small table, all dim 8."""
    return DatasetSchema(
        name="tiny",
        num_dense=4,
        tables=(
            EmbeddingTableSpec("table_00", num_rows=600, dim=8, zipf_exponent=1.2),
            EmbeddingTableSpec("table_01", num_rows=400, dim=8, zipf_exponent=1.1),
            EmbeddingTableSpec("table_02", num_rows=12, dim=8, zipf_exponent=0.5),
        ),
        num_samples=4000,
    )


@pytest.fixture(scope="session")
def tiny_log(tiny_schema: DatasetSchema) -> SyntheticClickLog:
    return SyntheticClickLog(tiny_schema, SyntheticConfig(num_samples=4000, seed=11))


@pytest.fixture(scope="session")
def tiny_fae_config() -> FAEConfig:
    """A config whose cutoffs are scaled to the tiny schema."""
    return FAEConfig(
        gpu_memory_budget=16 * 1024,
        sample_rate=0.2,
        large_table_min_bytes=1024,
        chunk_size=32,
        seed=3,
    )


@pytest.fixture(scope="session")
def tiny_plan(tiny_log, tiny_fae_config):
    return fae_preprocess(tiny_log, tiny_fae_config, batch_size=64)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def flip_member_byte():
    """``flip(path, member)``: flip one byte in the middle of an ``.npz``
    member's compressed data, leaving every other member intact."""

    def flip(path, member: str) -> None:
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo(member + ".npy")
        blob = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
        data_start = info.header_offset + 30 + name_len + extra_len
        blob[data_start + info.compress_size // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

    return flip
