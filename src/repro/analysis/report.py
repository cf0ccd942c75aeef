"""Consolidated reproduction report from benchmark artifacts.

Every benchmark writes its rendered table/figure to
``benchmarks/out/<name>.txt``; :func:`generate_report` stitches those
artifacts into one markdown document ordered like the paper's evaluation
(figures, tables, text claims, ablations/extensions), ready to attach to
a reproduction writeup.  Exposed on the CLI as ``python -m repro bench-report``.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["generate_report", "write_report", "SECTIONS"]

#: Section ordering: (title, artifact-name prefixes in display order).
SECTIONS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Figures", ("fig",)),
    ("Tables", ("tab",)),
    ("Text claims & comparators", ("x",)),
    ("Ablations & extensions", ("abl",)),
)


def _artifact_sort_key(path: Path) -> tuple:
    """Order fig02 before fig04 before fig10 (numeric-aware)."""
    stem = path.stem
    digits = "".join(ch for ch in stem if ch.isdigit())
    return (stem.split("_")[0].rstrip("0123456789"), int(digits) if digits else 0, stem)


def generate_report(out_dir: str | Path, title: str = "FAE reproduction report") -> str:
    """Render the markdown report from an artifact directory.

    Args:
        out_dir: directory containing ``<name>.txt`` artifacts.
        title: document title.

    Raises:
        FileNotFoundError: if the directory does not exist.
        ValueError: if it contains no artifacts (run the benchmarks first).
    """
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise FileNotFoundError(f"no artifact directory at {out_dir}")
    artifacts = sorted(out_dir.glob("*.txt"), key=_artifact_sort_key)
    if not artifacts:
        raise ValueError(
            f"no artifacts in {out_dir}; run `pytest benchmarks/ --benchmark-only` first"
        )

    lines = [f"# {title}", ""]
    lines.append(
        "Generated from the benchmark artifacts; each block is the exact "
        "output of the bench that regenerates the corresponding paper "
        "table or figure (see EXPERIMENTS.md for paper-vs-measured "
        "commentary)."
    )
    lines.append("")

    used: set[Path] = set()
    for section_title, prefixes in SECTIONS:
        members = [
            a
            for a in artifacts
            if any(a.stem.startswith(p) for p in prefixes) and a not in used
        ]
        if not members:
            continue
        used.update(members)
        lines.append(f"## {section_title}")
        lines.append("")
        for artifact in members:
            lines.append(f"### {artifact.stem}")
            lines.append("")
            lines.append("```")
            lines.append(artifact.read_text().rstrip("\n"))
            lines.append("```")
            lines.append("")

    leftovers = [a for a in artifacts if a not in used]
    if leftovers:
        lines.append("## Other artifacts")
        lines.append("")
        for artifact in leftovers:
            lines.append(f"### {artifact.stem}")
            lines.append("")
            lines.append("```")
            lines.append(artifact.read_text().rstrip("\n"))
            lines.append("```")
            lines.append("")
    return "\n".join(lines)


def write_report(out_dir: str | Path, destination: str | Path, title: str = "FAE reproduction report") -> Path:
    """Generate and write the report; returns the destination path."""
    destination = Path(destination)
    destination.write_text(generate_report(out_dir, title=title) + "\n")
    return destination
