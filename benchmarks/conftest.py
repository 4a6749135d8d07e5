"""Benchmark fixtures: one full-scale paper scenario per session.

Every bench measures one stage of the reproduction against the
full-scale dataset (the same configuration as the paper: 74 weeks, 150
monitored addresses) and writes its rendered paper-vs-measured report to
``results/<name>.txt`` so the regenerated tables/figures survive the
benchmark run as reviewable artifacts.

The session scenario goes through the artifact cache
(:mod:`repro.experiments.cache`): the first session pays the full
rebuild, later sessions load the pickled run in milliseconds.  Control
knobs (environment variables):

* ``REPRO_BENCH_CACHE=0``    — force a rebuild (and refresh the cache);
* ``REPRO_BENCH_EXECUTOR``   — backend for the rebuild (default serial);
* ``REPRO_BENCH_JOBS``      — worker count (default 0 = all cores);
* ``REPRO_CACHE_DIR``        — cache location (default ``~/.cache/repro``).

Each session also emits ``results/BENCH_pipeline.json`` — the
machine-readable performance record (per-stage wall times, headline
counts, backend, cache status) that seeds the perf trajectory.

Benches that need the full-scale scenario are auto-marked ``slow``;
deselect them with ``-m "not slow"`` to run only the cheap smoke set.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.cache import ScenarioCache
from repro.experiments.perf_gate import expected_matrix
from repro.experiments.scenario import PaperScenario, ScenarioConfig, ScenarioRun
from repro.experiments.stages import STAGE_NAMES
from repro.util.clock import timestamp

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

PAPER_SEED = 2010


def pytest_collection_modifyitems(items) -> None:
    """Mark every bench that builds the full-scale scenario as slow."""
    for item in items:
        if "paper_run" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


def _write_bench_json(run: ScenarioRun, wall_seconds: float, cache_hit: bool) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    counts = run.headline()
    build_seconds = run.timings.total
    record = {
        # 3: added the stage_cache section — the session run's per-stage
        #    dispositions plus the expected hit/miss matrix of the CI
        #    perf gate (repro.experiments.perf_gate), derived from the
        #    stage DAG at record time.  A DAG change without a
        #    regenerated record fails the gate.
        "schema": 3,
        # Injectable clock (repro.util.clock): pin with REPRO_FIXED_TIME
        # for byte-stable records under tests/CI.
        "generated_at": timestamp(),
        "seed": run.seed,
        "backend": run.config.executor,
        "jobs": run.config.jobs,
        "cache_hit": cache_hit,
        "session_wall_seconds": round(wall_seconds, 4),
        "stage_seconds": {
            name: round(seconds, 4)
            for name, seconds in run.timings.as_dict().items()
        },
        "build_total_seconds": round(build_seconds, 4),
        "counts": counts,
        # Throughput of the build that produced the artifacts (the
        # cached build's own timings on a warm session), so the perf
        # trajectory records samples/sec, not just wall-clock.
        "throughput": {
            "events_per_second": round(counts["events"] / build_seconds, 2)
            if build_seconds
            else None,
            "samples_executed_per_second": round(
                counts["samples_executed"] / build_seconds, 2
            )
            if build_seconds
            else None,
        },
        # Per-layer counter/gauge/sketch/watermark snapshot of the build.
        "metrics": run.metrics.as_dict() if run.metrics is not None else {},
        "stage_cache": {
            "statuses": run.stage_cache
            or {name: "off" for name in STAGE_NAMES},
            "gate_matrix": expected_matrix(),
        },
    }
    path = RESULTS_DIR / "BENCH_pipeline.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def paper_run() -> ScenarioRun:
    """The full-scale scenario all benches share (cached across sessions)."""
    config = ScenarioConfig(
        executor=os.environ.get("REPRO_BENCH_EXECUTOR", "serial"),
        jobs=int(os.environ.get("REPRO_BENCH_JOBS", "0")),
    )
    use_cache = os.environ.get("REPRO_BENCH_CACHE", "1") != "0"
    cache = ScenarioCache()
    started = time.perf_counter()
    run = cache.load(PAPER_SEED, config) if use_cache else None
    cache_hit = run is not None
    if run is None:
        run = PaperScenario(seed=PAPER_SEED, config=config).run()
        cache.store(run)
    _write_bench_json(run, time.perf_counter() - started, cache_hit)
    return run


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_report(results_dir: Path, name: str, text: str) -> None:
    """Persist one experiment's rendered report."""
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
