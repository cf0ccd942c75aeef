"""Smoke test of the ranking comparison: one tree against itself, and the verdicts."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import rank_agreement  # noqa: E402


def test_one_tree_against_itself_agrees_exactly():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rank_agreement.py"), str(ROOT), str(ROOT),
         "--seed", "7", "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "serve-rank, seed 7: 144 requests, top-10 of 64 candidates",
        "identical top-k lists: 144/144",
        "near-tie swaps (parent scores within rtol 1e-06): 0",
        "other top-k differences: 0",
        "largest relative score change: 0",
    ]


def stream(items, scores):
    candidates = np.array([[10, 11, 12, 13]])
    return {"items": np.array([items]), "candidates": candidates, "scores": np.array([scores])}


def test_a_swap_of_near_ties_is_tolerated():
    parent = stream([12, 11], [0.1, 0.5, 0.6, 0.2])
    change = stream([11, 12], [0.1, 0.6 + 1e-8, 0.6, 0.2])
    parent["scores"][0, 1] = 0.6 - 1e-8
    found = rank_agreement.compare(parent, change)
    assert (found["identical"], found["near_ties"], found["other"]) == (0, 1, 0)
    assert found["largest_relative_change"] > 0


def test_any_other_difference_is_counted():
    parent = stream([12, 11], [0.1, 0.5, 0.6, 0.2])
    change = stream([12, 13], [0.1, 0.5, 0.6, 0.55])
    found = rank_agreement.compare(parent, change)
    assert (found["identical"], found["near_ties"], found["other"]) == (0, 0, 1)
    assert found["largest_relative_change"] == pytest.approx(0.35 / 0.2)
    same = rank_agreement.compare(parent, parent)
    assert (same["identical"], same["other"], same["largest_relative_change"]) == (1, 0, 0.0)
