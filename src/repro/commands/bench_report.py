"""Stitch benchmark artifacts into a markdown report.

Reads the rendered tables and figures the paper benchmarks write under
``--artifacts`` and orders them like the paper's evaluation
(:func:`repro.analysis.write_report`).
"""

from __future__ import annotations

import argparse

from repro.analysis import write_report


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--artifacts", default="benchmarks/out")
    parser.add_argument("--out", default="REPORT.md")


def run(args: argparse.Namespace) -> int:
    print(f"wrote {write_report(args.artifacts, args.out)}")
    return 0
