"""Parallel-backend speedup and cache warm-load benches (full scale).

These quantify the two perf levers this stage of the roadmap adds: the
process-pool execution backend (against the serial baseline, with a
bit-identical-artifacts assertion) and the scenario artifact cache
(warm load vs full rebuild).  Both need the full-scale scenario, so
both are ``slow``/opt-in; the speedup bench additionally needs real
cores and skips on single-core machines.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.cache import ScenarioCache
from repro.experiments.scenario import PaperScenario, ScenarioConfig

from benchmarks.conftest import PAPER_SEED, write_report

#: The analysis stages timed against the process backend: ``enrich``
#: maps its sandbox executions through the executor, ``epm`` and
#: ``bcluster`` run their batch kernels in-process.  ``observe`` is
#: inherently sequential (one global event stream) and excluded.
PARALLEL_STAGES = ("enrich", "epm", "bcluster")


@pytest.mark.slow
def test_bench_parallel_speedup(results_dir):
    """Process backend vs serial baseline on the parallelisable stages."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("speedup bench needs a multi-core machine")

    serial = PaperScenario(
        seed=PAPER_SEED, config=ScenarioConfig(executor="serial")
    ).run()
    parallel = PaperScenario(
        seed=PAPER_SEED, config=ScenarioConfig(executor="process")
    ).run()

    # Parallelism may never perturb the artifacts.
    assert parallel.headline() == serial.headline()
    assert parallel.bclusters.assignment == serial.bclusters.assignment

    serial_stages = serial.timings.as_dict()
    parallel_stages = parallel.timings.as_dict()
    serial_cost = sum(serial_stages[name] for name in PARALLEL_STAGES)
    parallel_cost = sum(parallel_stages[name] for name in PARALLEL_STAGES)
    speedup = serial_cost / parallel_cost if parallel_cost else float("inf")

    lines = [
        "Parallel execution: process backend vs serial baseline",
        f"cores: {os.cpu_count()}",
        f"serial total:   {serial.timings.total:8.2f} s",
        f"process total:  {parallel.timings.total:8.2f} s",
        f"parallel stages ({'+'.join(PARALLEL_STAGES)}): "
        f"{serial_cost:.2f} s -> {parallel_cost:.2f} s ({speedup:.2f}x)",
    ]
    write_report(results_dir, "parallel", "\n".join(lines))
    assert speedup >= 1.5


@pytest.mark.slow
def test_bench_cache_warm_load(paper_run, results_dir):
    """Warm cache load must beat the recorded rebuild by >= 10x."""
    cache = ScenarioCache()
    cache.store(paper_run)  # ensure the entry exists whatever built the fixture

    started = time.perf_counter()
    loaded = cache.load(PAPER_SEED, paper_run.config)
    load_seconds = time.perf_counter() - started

    assert loaded is not None
    assert loaded.headline() == paper_run.headline()
    assert loaded.bclusters.assignment == paper_run.bclusters.assignment

    build_seconds = paper_run.timings.total
    speedup = build_seconds / load_seconds if load_seconds else float("inf")
    write_report(
        results_dir,
        "cache",
        "\n".join(
            [
                "Scenario artifact cache: warm load vs rebuild",
                f"rebuild: {build_seconds:8.2f} s",
                f"load:    {load_seconds:8.4f} s",
                f"speedup: {speedup:8.0f}x",
            ]
        ),
    )
    assert speedup >= 10
