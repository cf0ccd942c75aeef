"""Smoke test of the A/B pass alternator: one tree against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_tree_against_itself_alternates_and_matches_signatures():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_passes.py"), "serve-rank", str(ROOT), str(ROOT),
         "--passes", "2", "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "serve-rank, seed 7, 2 alternating rounds"
    assert lines[1].startswith("parent  passes   2") and lines[2].startswith("change  passes   2")
    assert "pairs; median ratio x" in lines[3]
    assert lines[4] == "signatures: identical"


def test_an_unknown_workload_fails():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_passes.py"), "no-such", str(ROOT), str(ROOT),
         "--passes", "1", "--smoke"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode != 0
