"""Benchmark harness utilities: result tables and paper expectations."""

from repro.analysis.reporting import (
    PaperExpectation,
    ResultTable,
    render_expectations,
)

__all__ = [
    "PaperExpectation",
    "ResultTable",
    "render_expectations",
]
