"""Describe a dataset's geometry at any scale.

Prints the schema summary, lookups per sample and the five largest
tables.  ``--scale`` is a named scale (paper, medium, small, tiny) or a
finite positive number.
"""

from __future__ import annotations

import argparse

from repro.commands.common import DATASETS
from repro.data import dataset_by_name


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", choices=DATASETS)
    parser.add_argument("--scale", default="paper", help="paper|medium|small|tiny or a number")


def run(args: argparse.Namespace) -> int:
    schema = dataset_by_name(args.dataset, args.scale)
    print(schema.describe())
    print(f"  lookups/sample: {schema.lookups_per_sample()}")
    for spec in sorted(schema.tables, key=lambda t: -t.num_rows)[:5]:
        print(
            f"  {spec.name}: {spec.num_rows:,} rows x {spec.dim} "
            f"({spec.size_bytes / 2**20:.1f} MiB, zipf s={spec.zipf_exponent})"
        )
    return 0
