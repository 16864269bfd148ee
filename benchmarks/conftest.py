"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures and
prints the measured series (the numbers recorded in EXPERIMENTS.md).
``--benchmark-only`` runs them; plain ``pytest`` skips this directory.
"""

import hashlib
import os

import pytest

# Live executions' CPU durations differ between rungs in the last
# float bits; the report digests were recorded on the default rungs.
NON_DEFAULT_RUNGS = (
    os.environ.get("REPRO_INTERP", "source") != "source"
    or os.environ.get("REPRO_SQL_EXEC", "source") != "source"
)


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def assert_report_digest(report: str, digest: str) -> None:
    """Pin a figure's printed report to the sha256 recorded before the
    figure results began to hold their runs (``fig*(fast=True)`` is
    deterministic, so a refactor of the result or report types must
    print the same bytes).  Not checked under non-default rungs."""
    if NON_DEFAULT_RUNGS:
        return
    assert hashlib.sha256(report.encode()).hexdigest() == digest
