"""One object per distinct value across a run's artifacts.

The producers that mint many equal immutable values hand out one shared
object per distinct value, so pickle (which memoizes by identity)
stores and rebuilds each once: payload observables, PE headers and
libmagic strings within one ``observe()`` pass, AV labels within one
enrich pass, and behaviour features within one sandbox batch.  Every
lookup table lives only as long as the pass that fills it: the
deployment keeps none after ``observe()``, and no module-level table
grows from one run to the next.

All checks run on the CI smoke config (seed 7, 8 weeks, scale 0.05).
"""

import functools
import logging
import pickle
import sys
import types

import pytest

from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.honeypot.deployment import SharedValues

SMOKE = ScenarioConfig(n_weeks=8, scale=0.05)

#: Module-level caches that predate value sharing and grow across runs
#: up to a fixed bound: name -> bound.
BOUNDED_CACHES = {
    "repro.enrich.virustotal._suffix_letter()": 4096,
    "repro.enrich.virustotal._variant_index()": 4096,
}


@pytest.fixture(scope="module")
def run():
    return PaperScenario(seed=7, config=SMOKE).run()


def _payloads(run):
    return [e.payload for e in run.dataset.events if e.payload is not None]


def _pe_infos(run):
    return [
        e.malware.pe
        for e in run.dataset.events
        if e.malware is not None and e.malware.pe is not None
    ]


def _magics(run):
    return [e.malware.magic for e in run.dataset.events if e.malware is not None]


def _av_labels(run):
    return [
        label
        for record in run.dataset.samples.values()
        for label in record.enrichment.get("av_labels", {}).values()
        if label is not None
    ]


def _behaviour_features(run):
    return [
        feature
        for profile in run.anubis.profiles().values()
        for feature in profile.features
    ]


KINDS = {
    "payload observables": _payloads,
    "PE headers": _pe_infos,
    "magic strings": _magics,
    "AV labels": _av_labels,
    "behaviour features": _behaviour_features,
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_one_object_per_distinct_value(run, kind):
    values = KINDS[kind](run)
    # The smoke run repeats every kind, so sharing is exercised.
    assert len(values) > len(set(values))
    assert len({id(value) for value in values}) == len(set(values))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_sharing_survives_a_pickle_round_trip(run, kind):
    restored = pickle.loads(pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL))
    values = KINDS[kind](restored)
    assert len({id(value) for value in values}) == len(set(values))


def test_deployment_holds_no_dedupe_entries(run):
    deployment = run.deployment
    assert b"MalwareObservable" not in pickle.dumps(deployment)
    assert not any(isinstance(v, SharedValues) for v in vars(deployment).values())
    assert b"SharedValues" not in pickle.dumps(deployment)


def _fields(value) -> dict:
    """The attributes of a class or an instance (``__dict__`` and slots)."""
    if isinstance(value, (types.ModuleType, types.FunctionType)):
        return {}
    fields = dict(getattr(value, "__dict__", {}))
    if isinstance(value, type):
        return fields
    for slot in getattr(type(value), "__slots__", ()):
        if hasattr(value, slot):
            fields[slot] = getattr(value, slot)
    return fields


def _module_tables() -> dict[str, int]:
    """Size of every container and ``lru_cache`` held at module level:
    directly, or as an attribute of a module-level class or instance.

    A module's ``logging.Logger`` is skipped: its level cache and handler
    list belong to the stdlib, which empties every logger's cache on any
    ``setLevel``."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, logging.Logger):
                continue
            held = {attr: value}
            held.update((f"{attr}.{k}", v) for k, v in _fields(value).items())
            for path, item in held.items():
                if isinstance(item, (dict, list, set)):
                    sizes[f"{name}.{path}"] = len(item)
                elif isinstance(item, functools._lru_cache_wrapper):
                    sizes[f"{name}.{path}()"] = item.cache_info().currsize
    return sizes


def test_two_runs_grow_no_module_level_table(run):
    before = _module_tables()
    PaperScenario(seed=8, config=SMOKE).run()
    after = _module_tables()
    grown = {
        name: (before.get(name, 0), size)
        for name, size in after.items()
        if size > before.get(name, 0)
    }
    for name, bound in BOUNDED_CACHES.items():
        assert after[name] <= bound
        grown.pop(name, None)
    assert grown == {}


def test_logger_level_caches_are_not_module_tables():
    # setLevel empties every logger's level cache; the next level check
    # refills the cache of each logger it asks.
    root = logging.getLogger("repro")
    root.setLevel(root.level)
    before = _module_tables()
    loggers = [
        value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro"
        for value in vars(module).values()
        if isinstance(value, logging.Logger)
    ]
    assert loggers
    for logger in loggers:
        logger.isEnabledFor(logging.INFO)
    assert _module_tables() == before
