"""Cross-backend determinism: parallelism may never perturb artifacts.

The whole point of the executor abstraction is that ``serial``,
``thread`` and ``process`` runs of one scenario are *bit-identical*:
same headline counts, same per-event E/P/M coordinates, same B-cluster
assignment, same execution counters.  These tests run a reduced
scenario on every backend (with ``jobs=2`` so the pooled backends
really chunk) and compare everything.
"""

import pytest

from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.honeypot.deployment import DeploymentConfig


def _config(executor: str) -> ScenarioConfig:
    return ScenarioConfig(
        n_weeks=16,
        scale=0.12,
        deployment=DeploymentConfig(n_networks=8, sensors_per_network=3),
        executor=executor,
        jobs=2,
    )


@pytest.fixture(scope="module")
def serial_run():
    return PaperScenario(seed=77, config=_config("serial")).run()


@pytest.fixture(scope="module", params=["thread", "process"])
def parallel_run(request):
    return PaperScenario(seed=77, config=_config(request.param)).run()


class TestBackendDeterminism:
    def test_headline_counts_identical(self, serial_run, parallel_run):
        assert parallel_run.headline() == serial_run.headline()

    def test_epm_coordinates_identical(self, serial_run, parallel_run):
        for event in serial_run.dataset.events:
            assert parallel_run.epm.coordinates(
                event.event_id
            ) == serial_run.epm.coordinates(event.event_id)

    def test_m_cluster_assignment_identical(self, serial_run, parallel_run):
        assert parallel_run.epm.m_cluster_of_samples(
            parallel_run.dataset
        ) == serial_run.epm.m_cluster_of_samples(serial_run.dataset)

    def test_b_cluster_assignment_identical(self, serial_run, parallel_run):
        assert parallel_run.bclusters.assignment == serial_run.bclusters.assignment
        assert parallel_run.bclusters.clusters == serial_run.bclusters.clusters

    def test_behavior_profiles_identical(self, serial_run, parallel_run):
        serial_profiles = serial_run.anubis.profiles()
        parallel_profiles = parallel_run.anubis.profiles()
        assert list(parallel_profiles) == list(serial_profiles)  # insertion order
        assert {
            md5: profile.features for md5, profile in parallel_profiles.items()
        } == {md5: profile.features for md5, profile in serial_profiles.items()}

    def test_counters_identical(self, serial_run, parallel_run):
        assert (
            parallel_run.anubis.sandbox.n_executions
            == serial_run.anubis.sandbox.n_executions
        )
        assert parallel_run.enrichment.stats() == serial_run.enrichment.stats()

    def test_timings_cover_all_stages(self, serial_run, parallel_run):
        expected = {
            "deployment",
            "catalog",
            "observe",
            "enrich",
            "epm",
            "bgraph",
            "bcluster",
            "windows",
        }
        for run in (serial_run, parallel_run):
            assert {stage.name for stage in run.timings.stages} == expected
            assert run.timings.total > 0

    def test_manifest_digests_and_fingerprint_identical(self, serial_run, parallel_run):
        assert parallel_run.manifest is not None and serial_run.manifest is not None
        assert (
            parallel_run.manifest.artifact_digests
            == serial_run.manifest.artifact_digests
        )
        # executor/jobs are execution-only knobs: same fingerprint
        assert parallel_run.manifest.fingerprint == serial_run.manifest.fingerprint

    def test_executor_metric_totals_identical(self, serial_run, parallel_run):
        """The chunk plan is backend-independent and the ``executor.*``
        counters are unlabelled, so whole-scenario totals must agree
        exactly — worker-side telemetry is merged, never dropped."""

        def executor_counters(run):
            return {
                key: value
                for key, value in run.metrics.counters.items()
                if key.startswith("executor.")
            }

        assert executor_counters(serial_run)  # instrumented at all
        assert executor_counters(parallel_run) == executor_counters(serial_run)

    def test_window_report_bytes_identical(self, serial_run, parallel_run):
        """The landscape window series are derived purely from artifacts,
        so serial/thread/process runs must serialise to the same bytes."""
        assert serial_run.windows is not None and parallel_run.windows is not None
        assert parallel_run.windows.to_json() == serial_run.windows.to_json()
        assert parallel_run.windows.digest() == serial_run.windows.digest()

    def test_health_report_bytes_identical(self, serial_run, parallel_run):
        assert serial_run.health is not None and parallel_run.health is not None
        assert parallel_run.health.to_json() == serial_run.health.to_json()
        assert parallel_run.health.digest() == serial_run.health.digest()

    def test_bucket_size_sketch_bit_identical(self, serial_run, parallel_run):
        """LSH bucket sizes are integers derived purely from artifacts,
        so the per-worker sketches must reduce to byte-identical
        payloads (``sum`` included) on every backend — the digest-level
        parity the mergeable-sketch design promises."""
        serial = serial_run.metrics.sketches["lsh.bucket_size"]
        parallel = parallel_run.metrics.sketches["lsh.bucket_size"]
        assert serial["count"] > 0
        assert parallel == serial

    def test_chunk_seconds_sketch_counts_identical(self, serial_run, parallel_run):
        serial = serial_run.metrics.sketches["executor.chunk_seconds"]
        parallel = parallel_run.metrics.sketches["executor.chunk_seconds"]
        # observed values are wall-clock; the observation count is not
        assert parallel["count"] == serial["count"] > 0

    def test_chunk_seconds_histogram_counts_identical(self, serial_run, parallel_run):
        """The chunk-seconds distribution holds one observation per
        executed chunk, so on every backend its count equals the
        ``executor.chunks`` counter."""
        for run in (serial_run, parallel_run):
            chunk_seconds = run.metrics.sketches["executor.chunk_seconds"]
            assert chunk_seconds["count"] == run.metrics.counters["executor.chunks"] > 0

    def test_chunk_backlog_watermark_identical(self, serial_run, parallel_run):
        """The backlog high-water mark depends only on the chunk plan
        (worst remaining-chunk count), never on completion order."""
        assert (
            parallel_run.metrics.watermarks["executor.chunk_backlog"]
            == serial_run.metrics.watermarks["executor.chunk_backlog"]
        )


class TestBatchSubmissionEquivalence:
    """submit_batch must be indistinguishable from sequential submit."""

    def test_batch_matches_sequential(self, serial_run):
        from repro.sandbox.anubis import AnubisService
        from repro.sandbox.execution import Sandbox
        from repro.util.parallel import ThreadExecutor

        records = [
            record
            for record in serial_run.dataset.samples.values()
            if record.behavior_handle is not None and not record.observable.corrupted
        ][:40]
        submissions = [
            (record.md5, record.behavior_handle, record.first_seen)
            for record in records
        ]
        # duplicate a submission: the second occurrence must reuse the first
        submissions.append(submissions[0])

        environment = serial_run.catalog.environment
        sequential = AnubisService(Sandbox(environment, serial_run.config.sandbox))
        for md5, behavior, time in submissions:
            sequential.submit(md5, behavior, time=time)

        batched = AnubisService(Sandbox(environment, serial_run.config.sandbox))
        reports = batched.submit_batch(submissions, executor=ThreadExecutor(jobs=2))

        assert len(reports) == len(submissions)
        assert reports[0] is reports[-1]  # duplicate reused, not re-executed
        assert list(batched.profiles()) == list(sequential.profiles())
        assert {
            md5: profile.features for md5, profile in batched.profiles().items()
        } == {md5: profile.features for md5, profile in sequential.profiles().items()}
        assert batched.sandbox.n_executions == sequential.sandbox.n_executions
