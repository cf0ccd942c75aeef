"""Tests for the consolidated report generator."""

import pytest

from repro.analysis import generate_report, write_report


@pytest.fixture()
def artifact_dir(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "fig02_hot_sizes.txt").write_text("fig two body\n")
    (out / "fig10_randem.txt").write_text("fig ten body\n")
    (out / "tab4_train_time.txt").write_text("table four body\n")
    (out / "x1_nvopt.txt").write_text("nvopt body\n")
    (out / "abl_scheduler.txt").write_text("ablation body\n")
    (out / "misc_notes.txt").write_text("misc body\n")
    return out


class TestGenerateReport:
    def test_sections_ordered(self, artifact_dir):
        report = generate_report(artifact_dir)
        fig_pos = report.index("## Figures")
        tab_pos = report.index("## Tables")
        claims_pos = report.index("## Text claims")
        abl_pos = report.index("## Ablations")
        assert fig_pos < tab_pos < claims_pos < abl_pos

    def test_numeric_artifact_ordering(self, artifact_dir):
        report = generate_report(artifact_dir)
        assert report.index("fig02_hot_sizes") < report.index("fig10_randem")

    def test_bodies_included_verbatim(self, artifact_dir):
        report = generate_report(artifact_dir)
        for body in ("fig two body", "table four body", "nvopt body", "ablation body"):
            assert body in report

    def test_unmatched_artifacts_in_other_section(self, artifact_dir):
        report = generate_report(artifact_dir)
        assert "## Other artifacts" in report
        assert "misc body" in report

    def test_custom_title(self, artifact_dir):
        report = generate_report(artifact_dir, title="My Repro")
        assert report.startswith("# My Repro")

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            generate_report(tmp_path / "nope")

    def test_empty_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError):
            generate_report(empty)


class TestWriteReport:
    def test_writes_file(self, artifact_dir, tmp_path):
        destination = write_report(artifact_dir, tmp_path / "REPORT.md")
        assert destination.exists()
        assert "## Figures" in destination.read_text()

    def test_cli_command(self, artifact_dir, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "R.md"
        assert main(["bench-report", "--artifacts", str(artifact_dir), "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out
