"""The per-call file-system cost probe CI prints beside the certify smoke."""

import importlib.util
import json
from pathlib import Path

FS_PROBE = Path(__file__).resolve().parents[1] / "scripts" / "fs_probe.py"
KEYS = {
    "fsync_4k_ms",
    "fsync_512k_ms",
    "fsync_dir_ms",
    "unlink_4k_ms",
    "unlink_512k_ms",
    "replace_onto_existing_ms",
    "ftruncate_shrink_ms",
    "link_replace_ms",
}


def _load():
    spec = importlib.util.spec_from_file_location("fs_probe", FS_PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFsProbe:
    def test_prints_one_json_line_of_costs_and_leaves_dir_empty(
        self, tmp_path, monkeypatch, capsys
    ):
        probe = _load()
        monkeypatch.setattr(probe, "REPEATS", 1)
        assert probe.main([str(tmp_path / "dir")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        costs = json.loads(lines[0])
        assert costs.pop("dir") == str(tmp_path / "dir")
        assert set(costs) == KEYS
        assert all(isinstance(value, float) and value >= 0 for value in costs.values())
        assert list((tmp_path / "dir").iterdir()) == []

    def test_usage_error(self, capsys):
        assert _load().main([]) == 2
        assert "usage" in capsys.readouterr().err
