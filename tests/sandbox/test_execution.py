"""Tests for the simulated dynamic-analysis engine."""

import pytest

from repro.malware.behaviorspec import BehaviorTemplate, CnCSpec, ComponentDownload
from repro.sandbox.environment import Environment, Window
from repro.sandbox.execution import Sandbox, SandboxConfig
from repro.util.validation import ValidationError


def _sandbox(env=None, **config):
    return Sandbox(env or Environment(), SandboxConfig(**config) if config else None)


BASE = BehaviorTemplate(
    mutexes=("m1", "m2"),
    files_dropped=("f1",),
    registry_keys=("r1",),
    services_installed=("s1",),
    processes_spawned=("p1",),
    scan_ports=(445,),
    infects_html=True,
    dos_targets=("victim.example",),
    extra_features=(("custom", "x", "y"),),
)


class TestDeterministicBehaviour:
    def test_all_base_features_recorded(self):
        profile = _sandbox().execute(BASE, time=0, run_seed=1)
        assert ("mutex", "m1", "create") in profile
        assert ("file", "f1", "create") in profile
        assert ("registry", "r1", "set_value") in profile
        assert ("service", "s1", "install") in profile
        assert ("process", "p1", "spawn") in profile
        assert ("network", "tcp/445", "scan") in profile
        assert ("file", "*.html", "infect") in profile
        assert ("network", "victim.example", "flood") in profile
        assert ("custom", "x", "y") in profile

    def test_repeatable_without_noise(self):
        sandbox = _sandbox()
        a = sandbox.execute(BASE, time=0, run_seed=1)
        b = sandbox.execute(BASE, time=0, run_seed=2)
        assert a == b

    def test_execution_counter(self):
        sandbox = _sandbox()
        sandbox.execute(BASE, time=0, run_seed=1)
        sandbox.execute(BASE, time=0, run_seed=2)
        assert sandbox.n_executions == 2


class TestEnvironmentDependence:
    def _template(self):
        component = ComponentDownload(
            "iliketay.cn",
            "/load/two.exe",
            BehaviorTemplate(files_dropped=("comp2",)),
        )
        return BehaviorTemplate(
            dns_queries=("iliketay.cn",),
            components=(component,),
            cnc=CnCSpec(server="9.9.9.9", port=6667, room="#r"),
        )

    def test_dns_resolution_recorded(self):
        env = Environment()
        env.add_dns("iliketay.cn", Window(0, 100))
        profile = _sandbox(env).execute(self._template(), time=50, run_seed=1)
        assert ("dns", "iliketay.cn", "resolve") in profile
        assert ("http", "http://iliketay.cn/load/two.exe", "download") in profile
        assert ("file", "comp2", "create") in profile
        assert ("irc", "irc://9.9.9.9:6667/#r", "join") in profile

    def test_dead_dns_changes_profile(self):
        env = Environment()
        env.add_dns("iliketay.cn", Window(0, 100))
        sandbox = _sandbox(env)
        alive = sandbox.execute(self._template(), time=50, run_seed=1)
        dead = sandbox.execute(self._template(), time=200, run_seed=1)
        assert ("dns", "iliketay.cn", "nxdomain") in dead
        assert ("http", "http://iliketay.cn/load/two.exe", "download") not in dead
        assert alive != dead

    def test_component_window_gates_subtemplate(self):
        env = Environment()
        env.add_dns("iliketay.cn")
        env.set_component_window("iliketay.cn", "/load/two.exe", Window(0, 100))
        sandbox = _sandbox(env)
        early = sandbox.execute(self._template(), time=50, run_seed=1)
        late = sandbox.execute(self._template(), time=150, run_seed=1)
        assert ("file", "comp2", "create") in early
        assert ("file", "comp2", "create") not in late
        assert ("http", "http://iliketay.cn/load/two.exe", "download_failed") in late


class TestDerailment:
    NOISY = BASE.with_noise_rate(1.0)

    def test_derail_changes_profile(self):
        sandbox = _sandbox()
        clean = sandbox.execute(BASE, time=0, run_seed=1)
        noisy = sandbox.execute(self.NOISY, time=0, run_seed=1)
        assert clean != noisy

    def test_thrash_profiles_unique_per_run(self):
        sandbox = _sandbox(crash_mode_probability=0.0)
        profiles = {
            sandbox.execute(self.NOISY, time=0, run_seed=seed).features
            for seed in range(10)
        }
        assert len(profiles) == 10

    def test_thrash_similarity_below_threshold(self):
        sandbox = _sandbox(crash_mode_probability=0.0)
        clean = sandbox.execute(BASE, time=0, run_seed=1)
        noisy = sandbox.execute(self.NOISY, time=0, run_seed=2)
        assert clean.similarity(noisy) < 0.7

    def test_crash_profiles_repeat_across_runs(self):
        sandbox = _sandbox(crash_mode_probability=1.0, crash_points=(0.5,))
        a = sandbox.execute(self.NOISY, time=0, run_seed=1)
        b = sandbox.execute(self.NOISY, time=0, run_seed=999)
        assert a == b  # same crash point -> identical partial profile

    def test_crash_is_prefix_subset(self):
        sandbox = _sandbox(crash_mode_probability=1.0, crash_points=(0.5,))
        clean = sandbox.execute(BASE, time=0, run_seed=1)
        crashed = sandbox.execute(self.NOISY, time=0, run_seed=1)
        assert crashed.features < clean.features

    def test_allow_derail_false_heals(self):
        sandbox = _sandbox()
        healed = sandbox.execute(self.NOISY, time=0, run_seed=1, allow_derail=False)
        clean = sandbox.execute(BASE, time=0, run_seed=1)
        assert healed == clean


class TestConfigValidation:
    def test_bad_crash_point(self):
        with pytest.raises(ValidationError):
            SandboxConfig(crash_points=(1.5,))

    def test_bad_keep_fraction(self):
        with pytest.raises(ValidationError):
            SandboxConfig(derail_keep_fraction=2.0)
