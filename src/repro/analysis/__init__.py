"""Reporting helpers: paper-style tables and figure series rendering."""

from repro.analysis.tables import format_table, format_minutes_table
from repro.analysis.figures import series_table
from repro.analysis.report import generate_report, write_report

__all__ = [
    "format_minutes_table",
    "format_table",
    "generate_report",
    "series_table",
    "write_report",
]
