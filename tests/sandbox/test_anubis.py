"""Tests for the Anubis service facade."""

import pytest

from repro.malware.behaviorspec import BehaviorTemplate
from repro.sandbox.anubis import AnubisService
from repro.sandbox.environment import Environment, Window
from repro.sandbox.execution import Sandbox
from repro.util.validation import ValidationError

CLEAN = BehaviorTemplate(mutexes=("m",), files_dropped=("f",))
NOISY = CLEAN.with_noise_rate(1.0)
MD5_A = "a" * 32
MD5_B = "b" * 32


def _service(env=None):
    return AnubisService(Sandbox(env or Environment()))


class TestSubmit:
    def test_submission_produces_report(self):
        service = _service()
        report = service.submit(MD5_A, CLEAN, time=100)
        assert report.md5 == MD5_A
        assert report.submitted_at == 100
        assert len(report.profile) > 0

    def test_resubmission_cached(self):
        service = _service()
        first = service.submit(MD5_A, CLEAN, time=100)
        second = service.submit(MD5_A, CLEAN, time=999)
        assert second is first
        assert service.sandbox.n_executions == 1

    def test_run_seed_tied_to_md5(self):
        a = _service().submit(MD5_A, NOISY, time=0).profile
        b = _service().submit(MD5_A, NOISY, time=0).profile
        assert a == b  # reproducible per binary

    def test_distinct_md5s_independent_derailment(self):
        service = _service()
        profiles = {
            service.submit(f"{i:032x}", NOISY, time=0).profile.features
            for i in range(6)
        }
        assert len(profiles) > 1

    def test_n_reports(self):
        service = _service()
        service.submit(MD5_A, CLEAN, time=0)
        service.submit(MD5_B, CLEAN, time=0)
        assert service.n_reports == 2


class TestRerun:
    def test_rerun_heals_derailed_profile(self):
        service = _service()
        original = service.submit(MD5_A, NOISY, time=0).profile
        healed = service.rerun(MD5_A, NOISY).profile
        clean = service.sandbox.execute(CLEAN, time=0, run_seed=0)
        assert healed == clean
        assert healed != original

    def test_rerun_without_submit_rejected(self):
        with pytest.raises(ValidationError):
            _service().rerun(MD5_A, CLEAN)

    def test_rerun_merge_unions(self):
        env = Environment()
        env.add_dns("x.cn", Window(0, 100))
        service = _service(env)
        template = BehaviorTemplate(dns_queries=("x.cn",))
        service.submit(MD5_A, template, time=50)
        merged = service.rerun(MD5_A, template, time=200, merge=True).profile
        assert ("dns", "x.cn", "resolve") in merged
        assert ("dns", "x.cn", "nxdomain") in merged

    def test_rerun_defaults_to_submission_time(self):
        env = Environment()
        env.add_dns("x.cn", Window(0, 100))
        service = _service(env)
        template = BehaviorTemplate(dns_queries=("x.cn",))
        service.submit(MD5_A, template, time=50)
        rerun = service.rerun(MD5_A, template).profile
        assert ("dns", "x.cn", "resolve") in rerun

    def test_n_runs_incremented(self):
        service = _service()
        service.submit(MD5_A, CLEAN, time=0)
        service.rerun(MD5_A, CLEAN)
        service.rerun(MD5_A, CLEAN)
        assert service.report_for(MD5_A).n_runs == 3


class TestClusterFrontEnd:
    def test_cluster_over_reports(self):
        service = _service()
        service.submit(MD5_A, CLEAN, time=0)
        service.submit(MD5_B, CLEAN, time=0)
        other = BehaviorTemplate(mutexes=("zzz",))
        service.submit("c" * 32, other, time=0)
        result = service.cluster()
        assert result.n_clusters == 2
        assert result.assignment[MD5_A] == result.assignment[MD5_B]

    def test_profiles_view(self):
        service = _service()
        service.submit(MD5_A, CLEAN, time=0)
        assert set(service.profiles()) == {MD5_A}


class TestBatchSubmissionEquivalence:
    """submit_batch must be indistinguishable from sequential submit."""

    def test_batch_matches_sequential(self, small_run):
        records = [
            record
            for record in small_run.dataset.samples.values()
            if record.behavior_handle is not None and not record.observable.corrupted
        ][:40]
        submissions = [
            (record.md5, record.behavior_handle, record.first_seen)
            for record in records
        ]
        # duplicate a submission: the second occurrence must reuse the first
        submissions.append(submissions[0])

        environment = small_run.catalog.environment
        sequential = AnubisService(Sandbox(environment, small_run.config.sandbox))
        for md5, behavior, time in submissions:
            sequential.submit(md5, behavior, time=time)

        batched = AnubisService(Sandbox(environment, small_run.config.sandbox))
        reports = batched.submit_batch(submissions)

        assert len(reports) == len(submissions)
        assert reports[0] is reports[-1]  # duplicate reused, not re-executed
        assert list(batched.profiles()) == list(sequential.profiles())
        assert {
            md5: profile.features for md5, profile in batched.profiles().items()
        } == {md5: profile.features for md5, profile in sequential.profiles().items()}
        assert batched.sandbox.n_executions == sequential.sandbox.n_executions
