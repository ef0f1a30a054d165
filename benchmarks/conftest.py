"""Shared benchmark infrastructure.

Each benchmark module measures one figure/table/claim of the paper (see
DESIGN.md's experiment index) and records a printed series via the
``report`` fixture.  Reports are echoed in the terminal summary, so they
survive pytest's output capture and ``--benchmark-only`` runs alike, and
written under pytest's basetemp, so a run leaves the working tree as it
found it.  ``pytest benchmarks --results-dir benchmarks/results``
refreshes the committed reports on purpose.

Set ``REPRO_BENCH_SCALE`` (default 1) to scale every sweep size up or
down, e.g. ``REPRO_BENCH_SCALE=4`` for slower, higher-resolution runs.

When a benchmark passes its :class:`repro.benchlib.Series` to the
``report`` fixture (``report(title, text, series=series)``), a
machine-readable ``BENCH_<slug>.json`` companion is written next to the
text report.
"""

import os

import pytest

from repro.benchlib import Series, slugify, write_bench_json

_REPORTS = []


def pytest_addoption(parser):
    parser.addoption(
        "--results-dir",
        metavar="DIR",
        help="write the reports under DIR (default: pytest's basetemp)",
    )


@pytest.fixture()
def report(request, tmp_path_factory):
    """Record a named series report (printed in the terminal summary)."""
    results_dir = request.config.getoption("--results-dir") or str(
        tmp_path_factory.getbasetemp() / "results"
    )

    def _record(title: str, text: str, series: Series = None) -> None:
        _REPORTS.append((title, text))
        os.makedirs(results_dir, exist_ok=True)
        with open(os.path.join(results_dir, f"{slugify(title)}.txt"), "w") as f:
            f.write(text + "\n")
        if series is not None:
            write_bench_json(results_dir, title, series)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for title, text in _REPORTS:
        terminalreporter.section(title)
        terminalreporter.write_line(text)
