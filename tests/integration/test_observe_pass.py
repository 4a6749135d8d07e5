"""The observe pass builds each downloaded binary once, after pass A.

Pass A decides every download from the binary's size alone and stages
the received payload as a key.  Between pass A and pass B the deployment
builds each distinct ``(spec, content seed)`` image once, only for
downloads that received bytes, and reduces every received prefix to its
observable.  The PE builder keeps nothing at module level for it.

The properties are checked on the CI smoke config (seed 7, 8 weeks,
scale 0.05).  Its 421 events carry 15 distinct images, each also
downloaded by some event that received bytes, so a small per-instance
landscape with frequent failures checks the no-build-on-failure property
where a failed download owns its image.
"""

import contextlib

import numpy as np
import pytest

from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.honeypot import deployment as deployment_module
from repro.honeypot.deployment import SGNetDeployment
from repro.honeypot.shellcode import ShellcodeConfig
from repro.peformat import builder
from repro.peformat.builder import build_pe
from repro.util.hashing import md5_hex

from tests.honeypot.test_deployment import _deployment, _family, _observe

SMOKE = ScenarioConfig(n_weeks=8, scale=0.05)


@contextlib.contextmanager
def _recording():
    """Record every image build and every staged attempt while open.

    Yields ``(built, staged)``: ``built`` lists the ``(spec, seed)`` of
    each image built, ``staged`` the ``(spec, seed, observation)`` of
    each attempt pass A staged, in stream order.
    """
    built = []
    staged = []
    build = deployment_module.build_pe
    stage = SGNetDeployment.stage_attempt

    def recording_build(spec, content_seed, template=None):
        built.append((spec, content_seed))
        return build(spec, content_seed, template)

    def recording_stage(self, attempt, shared):
        observation = stage(self, attempt, shared)
        staged.append((attempt.pe_spec, attempt.content_seed, observation))
        return observation

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deployment_module, "build_pe", recording_build)
        patch.setattr(SGNetDeployment, "stage_attempt", recording_stage)
        yield built, staged


@pytest.fixture(scope="module")
def traced():
    """One smoke run with its builds and staged attempts: ``(run, built, staged)``."""
    with _recording() as (built, staged):
        run = PaperScenario(seed=7, config=SMOKE).run()
    return run, built, staged


def _images(staged, received: bool) -> set:
    return {
        (spec, seed)
        for spec, seed, observation in staged
        if (observation.malware is not None) is received
    }


def test_each_distinct_image_is_built_at_most_once(traced):
    _run, built, staged = traced
    assert built
    assert len(built) == len(set(built))
    # Polymorphic variants share images across events: building per
    # event would build more.
    assert len(built) < sum(1 for *_, observation in staged if observation.malware is not None)


def test_no_image_is_built_for_a_failed_download_or_an_unknown_shellcode(traced):
    _run, built, staged = traced
    assert set(built) == _images(staged, received=True)


def test_a_failed_download_or_unknown_shellcode_that_owns_its_image_builds_nothing():
    shellcode = ShellcodeConfig(unknown_rate=0.2, download_fail_rate=0.2)
    with _recording() as (built, staged):
        _observe(_deployment(shellcode=shellcode), [_family()])
    received = _images(staged, received=True)
    assert set(built) == received
    assert len(built) == len(received)
    unknown = {(spec, seed) for spec, seed, obs in staged if obs.payload is None}
    failed = {
        (spec, seed)
        for spec, seed, obs in staged
        if obs.payload is not None and obs.malware is None
    }
    # Per-instance images: every unknown or failed event owns its image.
    assert unknown and not unknown & received
    assert failed and not failed & received


def test_observables_describe_the_received_prefix(traced):
    run, _built, staged = traced
    events = run.dataset.events
    assert len(events) == len(staged)
    checked = set()
    for (spec, seed, observation), event in zip(staged, events):
        key = observation.malware
        if key is None:
            assert event.malware is None
            continue
        if key in checked:
            continue
        checked.add(key)
        variant_key, content_seed, length, truncated = key
        truth = event.ground_truth
        assert (variant_key, content_seed) == (f"{truth.family}/{truth.variant}", seed)
        data = build_pe(spec, seed)[:length]
        assert event.malware.md5 == md5_hex(data)
        assert event.malware.size == len(data)
        assert event.malware.corrupted >= truncated
    assert any(key[3] for key in checked)


def test_builder_keeps_no_module_level_table_or_generator(traced):
    PaperScenario(seed=8, config=SMOKE).run()
    held = {
        name: type(value).__name__
        for name, value in vars(builder).items()
        if not name.startswith("__")
        and isinstance(value, (dict, list, set, np.random.BitGenerator))
    }
    assert held == {}
