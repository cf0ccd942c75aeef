"""Profile an exported trace: self time, hotspots, critical path.

``trace analyze PATH`` reads the JSONL that ``preprocess`` or ``train``
write with ``--trace PATH`` and prints per-span self time, a hotspot table
and the critical path; ``--json`` also writes the analysis as JSON
(``-`` prints it to stdout instead of the text).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro import obs


def add_arguments(parser: argparse.ArgumentParser) -> None:
    commands = parser.add_subparsers(dest="trace_cmd", required=True)
    analyze = commands.add_parser(
        "analyze", help="profile a trace JSONL: self time, hotspots, critical path"
    )
    analyze.add_argument("path", help="trace JSONL written by 'preprocess/train --trace PATH'")
    analyze.add_argument("--top", type=int, default=10, help="hotspot table depth")
    analyze.add_argument(
        "--json",
        metavar="PATH",
        help="also write the analysis as JSON ('-' prints to stdout instead of text)",
    )


def run(args: argparse.Namespace) -> int:
    analysis = obs.analyze_file(args.path)
    if args.json == "-":
        print(json.dumps(analysis.to_dict(top=args.top), indent=2, sort_keys=True))
        return 0
    print(obs.render_analysis(analysis, top=args.top))
    if args.json:
        from repro.resilience.atomic import atomic_write_text

        atomic_write_text(
            Path(args.json),
            json.dumps(analysis.to_dict(top=args.top), indent=2, sort_keys=True) + "\n",
        )
        print(f"\nwrote {args.json}")
    return 0
