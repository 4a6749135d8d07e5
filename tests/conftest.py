"""Shared fixtures: one reduced end-to-end scenario per test session.

The reduced scenario keeps the full landscape shape (worm lineage, bots,
the per-source family, misc tail) at a fraction of the event volume, so
integration and analysis tests run against a realistic dataset without
paying the full-scale simulation cost more than once.
"""

from __future__ import annotations

import logging

import pytest

from repro.experiments.scenario import PaperScenario, ScenarioConfig, ScenarioRun
from repro.honeypot.deployment import DeploymentConfig


@pytest.fixture(scope="session")
def _unconfigured_repro_logger():
    """The shared 'repro' logger's state before any test configured it."""
    logger = logging.getLogger("repro")
    return list(logger.handlers), logger.level, logger.propagate


@pytest.fixture(autouse=True)
def _reset_repro_logger(_unconfigured_repro_logger):
    """Return the 'repro' logger to its unconfigured state after each test.

    A CLI call (in a test or a module fixture) configures it: level,
    console handler, no propagation.  Without the reset every later test
    would inherit that console output on its captured stderr.
    """
    yield
    handlers, level, propagate = _unconfigured_repro_logger
    logger = logging.getLogger("repro")
    for handler in logger.handlers:
        if handler not in handlers:
            handler.close()
    logger.handlers[:] = handlers
    if logger.level != level:
        # setLevel empties every logger's level cache, which a test that
        # sizes module-level tables would count as growth.
        logger.setLevel(level)
    logger.propagate = propagate


@pytest.fixture(scope="session")
def small_run() -> ScenarioRun:
    """A reduced but structurally complete pipeline run."""
    config = ScenarioConfig(
        n_weeks=74,
        scale=0.22,
        deployment=DeploymentConfig(n_networks=12, sensors_per_network=4),
    )
    return PaperScenario(seed=2010, config=config).run()


@pytest.fixture(scope="session")
def small_dataset(small_run):
    """The reduced run's SGNET dataset."""
    return small_run.dataset
