"""The Anubis service facade: submission, reports, re-execution.

:class:`AnubisService` is what the SGNET information-enrichment pipeline
talks to: samples are *submitted* (executed once, at their submission
time, like the real service) and yield an :class:`AnubisReport`;
reports can later be re-generated via :meth:`rerun` — the paper's
"healing" procedure for samples whose first execution derailed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.malware.behaviorspec import BehaviorTemplate
from repro.sandbox.behavior import BehaviorProfile
from repro.sandbox.clustering import BehaviorClustering, ClusteringConfig, cluster_lsh
from repro.sandbox.execution import ExecutionTask, Sandbox
from repro.util.hashing import stable_hash64
from repro.util.parallel import Executor
from repro.util.validation import require


@dataclass
class AnubisReport:
    """One sample's analysis record inside the service."""

    md5: str
    submitted_at: int
    profile: BehaviorProfile
    n_runs: int = 1


class AnubisService:
    """Sample store + execution engine + clustering front-end."""

    def __init__(self, sandbox: Sandbox) -> None:
        self.sandbox = sandbox
        self._reports: dict[str, AnubisReport] = {}

    def submit(
        self, md5: str, behavior: BehaviorTemplate, *, time: int
    ) -> AnubisReport:
        """Analyse a sample on first submission; later submissions are cached.

        The run seed is derived from the MD5, so a given binary's first
        analysis is reproducible — but distinct polymorphic instances of
        one codebase get independent derailment draws, exactly the
        per-sample noise that produces singleton B-clusters.
        """
        existing = self._reports.get(md5)
        if existing is not None:
            return existing
        profile = self.sandbox.execute(
            behavior,
            time=time,
            run_seed=stable_hash64(md5, salt="anubis-run"),
        )
        report = AnubisReport(md5=md5, submitted_at=time, profile=profile)
        self._reports[md5] = report
        return report

    def submit_batch(
        self,
        submissions: Iterable[Sequence],
        *,
        executor: Executor | None = None,
    ) -> list[AnubisReport]:
        """Submit many ``(md5, behavior, time)`` tuples, optionally in parallel.

        Bit-identical to calling :meth:`submit` on each tuple in order —
        already-analysed samples (and repeated MD5s within the batch)
        reuse the first report, run seeds are derived from the MD5s, and
        the report store keeps first-submission insertion order on every
        backend.  Returns the reports aligned with the input order.
        """
        submissions = [tuple(item) for item in submissions]
        pending: list[tuple[str, BehaviorTemplate, int]] = []
        claimed: set[str] = set()
        for md5, behavior, time in submissions:
            if md5 in self._reports or md5 in claimed:
                continue
            claimed.add(md5)
            pending.append((md5, behavior, time))
        tasks = [
            ExecutionTask(
                behavior=behavior,
                time=time,
                run_seed=stable_hash64(md5, salt="anubis-run"),
            )
            for md5, behavior, time in pending
        ]
        profiles = self.sandbox.execute_batch(tasks, executor=executor)
        for (md5, _behavior, time), profile in zip(pending, profiles):
            self._reports[md5] = AnubisReport(md5=md5, submitted_at=time, profile=profile)
        return [self._reports[md5] for md5, _behavior, _time in submissions]

    def rerun(
        self,
        md5: str,
        behavior: BehaviorTemplate,
        *,
        time: int | None = None,
        merge: bool = False,
    ) -> AnubisReport:
        """Re-execute a sample on a curated image (no derailment).

        With ``merge=True`` the new profile is unioned into the stored
        one (accumulating evidence over runs); otherwise it replaces it.
        ``time`` defaults to the original submission time.
        """
        report = self._reports.get(md5)
        require(report is not None, f"sample {md5} was never submitted")
        run_time = time if time is not None else report.submitted_at
        profile = self.sandbox.execute(
            behavior,
            time=run_time,
            run_seed=stable_hash64(md5, salt=f"anubis-rerun-{report.n_runs}"),
            allow_derail=False,
        )
        report.profile = report.profile.union(profile) if merge else profile
        report.n_runs += 1
        return report

    def report_for(self, md5: str) -> AnubisReport | None:
        """Stored report, if the sample was submitted."""
        return self._reports.get(md5)

    @property
    def n_reports(self) -> int:
        """Number of analysed samples."""
        return len(self._reports)

    def profiles(self) -> dict[str, BehaviorProfile]:
        """MD5 -> current profile, for clustering."""
        return {md5: report.profile for md5, report in self._reports.items()}

    def cluster(self, config: ClusteringConfig | None = None) -> BehaviorClustering:
        """Run the scalable B-clustering over all analysed samples."""
        return cluster_lsh(self.profiles(), config)
