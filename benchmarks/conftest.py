"""Bench fixtures: one full-scale paper scenario per session.

Every bench checks the shape of one paper table, figure or ablation
against the full-scale dataset (the same configuration as the paper: 74
weeks, 150 monitored addresses) and writes its rendered
paper-vs-measured report to ``results/<name>.txt`` so the regenerated
tables/figures survive the run as reviewable artifacts.  The benches
assert and report; they time nothing (``perfbench/`` is the timing
harness).

The session scenario goes through the artifact cache
(:mod:`repro.experiments.cache`): the first session pays the full
rebuild, later sessions load the run record and its stage entries in
well under a second.  Control knobs (environment variables):

* ``REPRO_BENCH_CACHE=0``    — force a rebuild (the cache is neither read
  nor written);
* ``REPRO_CACHE_DIR``        — cache location (default ``~/.cache/repro``).

Benches that need the full-scale scenario are auto-marked ``slow``;
deselect them with ``-m "not slow"`` to run only the cheap smoke set.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.cache import cached_run
from repro.experiments.scenario import PaperScenario, ScenarioConfig, ScenarioRun

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

PAPER_SEED = 2010


def pytest_collection_modifyitems(items) -> None:
    """Mark every bench that builds the full-scale scenario as slow."""
    for item in items:
        if "paper_run" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def paper_run() -> ScenarioRun:
    """The full-scale scenario all benches share (cached across sessions)."""
    config = ScenarioConfig()
    if os.environ.get("REPRO_BENCH_CACHE", "1") == "0":
        return PaperScenario(seed=PAPER_SEED, config=config).run()
    return cached_run(PAPER_SEED, config)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_report(results_dir: Path, name: str, text: str) -> None:
    """Persist one experiment's rendered report."""
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
