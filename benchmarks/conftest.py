"""Shared fixtures for the benchmark/experiment harness.

Each ``bench_*.py`` file regenerates one table or figure from the paper (see
DESIGN.md's experiment index) and prints the paper-style rows.  Absolute
numbers depend on the host; the *shape* assertions (who wins, by what rough
factor, monotonicity) encode what the paper reports.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import build_extended_network, solve_lp
from repro.scenarios import paper_figure4_network

FIGURE4_SEED = 7


@pytest.fixture(scope="session")
def figure4_ext():
    return build_extended_network(paper_figure4_network(seed=FIGURE4_SEED))


@pytest.fixture(scope="session")
def figure4_lp(figure4_ext):
    return solve_lp(figure4_ext)


def results_dir(smoke: bool = False) -> Path:
    """Where a bench writes its tables and ``BENCH_*.json`` documents.

    Full-size runs write the tracked ``benchmarks/results/``.  Smoke runs
    (a bench's ``*_SMOKE=1``) write the gitignored ``benchmarks/results/
    smoke/``, so a local smoke run never overwrites the committed results;
    ``check_regression.py`` compares that directory against the
    smoke-mode baselines.
    """
    path = Path(__file__).resolve().parent / "results"
    if smoke:
        path = path / "smoke"
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit(title: str, body: str, smoke: bool = False) -> None:
    """Print an experiment block and persist it under :func:`results_dir`.

    pytest captures stdout unless ``-s`` is given, so every block is also
    written to a file named after the experiment id (the leading token of
    the title) -- the regenerated paper tables survive any capture mode.
    """
    bar = "=" * 78
    block = f"{bar}\n{title}\n{bar}\n{body}\n"
    print("\n" + block)
    slug = title.split(":")[0].strip().lower().replace(" ", "-")
    (results_dir(smoke) / f"{slug}.txt").write_text(block)
