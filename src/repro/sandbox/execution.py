"""Simulated dynamic analysis: behaviour template -> behavioural profile.

The engine interprets a sample's ground-truth
:class:`~repro.malware.behaviorspec.BehaviorTemplate` (the stand-in for
its executable content) under an :class:`Environment` at a given
execution time, producing the :class:`BehaviorProfile` Anubis would have
recorded.  Three effects shape the output exactly as in the paper:

* **deterministic behaviour** (mutexes, file drops, scans) appears
  identically in every run — variants sharing a codebase yield
  near-identical profiles and merge into one B-cluster;
* **environment-dependent behaviour** (DNS lookups, component downloads,
  C&C sessions) contributes different features depending on the state of
  the world at execution time — one codebase can legitimately split into
  several B-clusters (the ``iliketay.cn`` case);
* **derailed runs** — with probability ``noise_rate`` an execution
  crashes mid-way and thrashes (truncated base behaviour plus a burst of
  run-specific junk features), which is what pushes a sample below the
  clustering similarity threshold and strands it in a size-1 B-cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.malware.behaviorspec import BehaviorTemplate
from repro.obs import metrics as obs_metrics
from repro.sandbox.behavior import BehaviorProfile, Feature
from repro.sandbox.environment import Environment
from repro.util.parallel import Executor, SerialExecutor
from repro.util.rng import spawn_rng
from repro.util.validation import require, require_probability


@dataclass(frozen=True)
class SandboxConfig:
    """Execution-engine knobs.

    Derailed runs come in two flavours:

    * **crash** (probability ``crash_mode_probability`` within derails) —
      the run dies at one of a few reproducible early points, recording a
      deterministic truncated prefix of the behaviour; two samples of one
      codebase crashing at the same point yield *identical* partial
      profiles, so crashes produce small (size 2-5) anomalous B-clusters;
    * **thrash** — the run records a random subset of the behaviour
      (``derail_keep_fraction``) plus run-specific junk scaled by
      ``derail_noise_factor``; junk never repeats, so thrashes produce
      the singleton B-clusters of §4.2.
    """

    derail_keep_fraction: float = 0.55
    derail_noise_factor: float = 1.0
    crash_mode_probability: float = 0.35
    crash_points: tuple[float, ...] = (0.3, 0.45, 0.6)
    analysis_minutes: int = 4
    #: Scales every template's noise_rate (0 = a perfect analysis
    #: environment, >1 = a flakier one); used by the robustness sweeps.
    noise_multiplier: float = 1.0

    def __post_init__(self) -> None:
        require_probability(self.derail_keep_fraction, "derail_keep_fraction")
        require_probability(self.crash_mode_probability, "crash_mode_probability")
        require(self.derail_noise_factor >= 0, "derail_noise_factor must be >= 0")
        require(self.analysis_minutes > 0, "analysis_minutes must be positive")
        require(self.noise_multiplier >= 0, "noise_multiplier must be >= 0")
        require(len(self.crash_points) > 0, "need at least one crash point")
        for point in self.crash_points:
            require(0.0 < point < 1.0, "crash points must be in (0, 1)")


@dataclass(frozen=True)
class ExecutionTask:
    """One analysis request, fully determined by its fields.

    The profile is a pure function of ``(environment, config, task)``,
    which is what makes batches safe to execute on any
    :mod:`repro.util.parallel` backend: every run draws only from the
    substream spawned from its own ``run_seed``.
    """

    behavior: BehaviorTemplate
    time: int
    run_seed: int
    allow_derail: bool = True


class Sandbox:
    """The simulated Anubis execution engine."""

    def __init__(self, environment: Environment, config: SandboxConfig | None = None) -> None:
        self.environment = environment
        self.config = config or SandboxConfig()
        self.n_executions = 0

    def execute(
        self,
        behavior: BehaviorTemplate,
        *,
        time: int,
        run_seed: int,
        allow_derail: bool = True,
    ) -> BehaviorProfile:
        """Run one analysis and return the recorded profile.

        ``run_seed`` individualises the run (Anubis runs are not
        perfectly repeatable); ``allow_derail=False`` models a curated
        re-execution on a freshly reset image, the paper's "healing"
        procedure for misclassified samples.
        """
        self.n_executions += 1
        obs_metrics.active().counter("sandbox.executions").inc()
        return self._run(
            ExecutionTask(
                behavior=behavior, time=time, run_seed=run_seed, allow_derail=allow_derail
            )
        )

    def execute_batch(
        self,
        tasks: Sequence[ExecutionTask],
        *,
        executor: Executor | None = None,
    ) -> list[BehaviorProfile]:
        """Run many analyses, optionally in parallel; order is preserved.

        The result is bit-identical to calling :meth:`execute` on each
        task in sequence, on every backend: each run's randomness comes
        from its own ``run_seed`` substream and the environment is only
        read.  The execution counter is updated once, here, so it stays
        exact even when worker processes operate on copies of ``self``.
        """
        tasks = list(tasks)
        executor = executor or SerialExecutor()
        registry = obs_metrics.active()
        registry.counter("sandbox.executions").inc(len(tasks))
        registry.sketch("sandbox.batch_size").observe(len(tasks))
        profiles = executor.map(partial(_execute_task, self), tasks)
        self.n_executions += len(tasks)
        return profiles

    def _run(self, task: ExecutionTask) -> BehaviorProfile:
        """Pure execution path (no counter update), shared by all entry points."""
        rng = spawn_rng(task.run_seed, "sandbox-run")
        features = self._interpret(task.behavior, task.time)
        derail_rate = min(1.0, task.behavior.noise_rate * self.config.noise_multiplier)
        if task.allow_derail and derail_rate > 0 and rng.random() < derail_rate:
            features = self._derail(features, rng)
        return BehaviorProfile.from_features(features)

    def _interpret(self, behavior: BehaviorTemplate, time: int) -> list[Feature]:
        features: list[Feature] = []
        for mutex in behavior.mutexes:
            features.append(("mutex", mutex, "create"))
        for path in behavior.files_dropped:
            features.append(("file", path, "create"))
        for key in behavior.registry_keys:
            features.append(("registry", key, "set_value"))
        for service in behavior.services_installed:
            features.append(("service", service, "install"))
        for process in behavior.processes_spawned:
            features.append(("process", process, "spawn"))
        for port in behavior.scan_ports:
            features.append(("network", f"tcp/{port}", "scan"))
        if behavior.infects_html:
            features.append(("file", "*.html", "infect"))
        for target in behavior.dos_targets:
            features.append(("network", target, "flood"))
        features.extend(behavior.extra_features)

        for domain in behavior.dns_queries:
            if self.environment.resolves(domain, time):
                features.append(("dns", domain, "resolve"))
            else:
                features.append(("dns", domain, "nxdomain"))

        for component in behavior.components:
            resolved = self.environment.resolves(component.domain, time)
            served = self.environment.component_available(
                component.domain, component.path, time
            )
            url = f"http://{component.domain}{component.path}"
            if resolved and served:
                features.append(("http", url, "download"))
                features.append(("process", component.path.rsplit("/", 1)[-1], "execute"))
                features.extend(self._interpret(component.component, time))
            elif resolved:
                features.append(("http", url, "download_failed"))
            else:
                features.append(("dns", component.domain, "nxdomain"))

        if behavior.cnc is not None:
            cnc = behavior.cnc
            if self.environment.cnc_live(cnc.server, time):
                features.append(("network", f"{cnc.server}:{cnc.port}", "connect"))
                features.append(("irc", cnc.rendezvous, "join"))
                features.append(("irc", cnc.rendezvous, "receive_commands"))
            else:
                features.append(("network", f"{cnc.server}:{cnc.port}", "connect_failed"))
        return features

    def _derail(self, features: list[Feature], rng) -> list[Feature]:
        if rng.random() < self.config.crash_mode_probability:
            return self._crash(features, rng)
        keep = max(1, int(len(features) * self.config.derail_keep_fraction))
        kept = rng.sample(features, keep) if keep < len(features) else list(features)
        n_noise = max(4, int(len(features) * self.config.derail_noise_factor))
        for _ in range(n_noise):
            token = "".join(rng.choice("0123456789abcdef") for _ in range(12))
            category = rng.choice(("file", "registry", "mutex", "process"))
            kept.append((category, f"tmp_{token}", "create"))
        return kept

    def _crash(self, features: list[Feature], rng) -> list[Feature]:
        point = rng.choice(self.config.crash_points)
        ordered = sorted(features)
        keep = max(1, int(len(ordered) * point))
        return ordered[:keep]


def _execute_task(sandbox: Sandbox, task: ExecutionTask) -> BehaviorProfile:
    """Module-level batch worker (process pools must be able to pickle it)."""
    return sandbox._run(task)
