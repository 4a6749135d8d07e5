"""Tests for deployment operation statistics."""

from repro.honeypot.stats import collect_stats, render_stats


class TestCollectStats:
    def test_counters_consistent(self, small_run):
        stats = collect_stats(small_run.deployment)
        assert stats.conversations == stats.handled_locally + stats.proxied
        assert stats.conversations == len(small_run.dataset)

    def test_autonomy_dominates_after_learning(self, small_run):
        stats = collect_stats(small_run.deployment)
        assert stats.autonomy > 0.5
        assert 0.0 < stats.median_sensor_autonomy <= 1.0

    def test_fsm_growth_recorded(self, small_run):
        stats = collect_stats(small_run.deployment)
        assert stats.fsm_states > 10
        assert stats.fsm_refinements > 0

    def test_shellcode_pipeline_counts(self, small_run):
        stats = collect_stats(small_run.deployment)
        assert stats.shellcode["analyzed"] > 0
        assert stats.shellcode["downloads"] <= stats.shellcode["analyzed"]

    def test_deployment_footprint(self, small_run):
        stats = collect_stats(small_run.deployment)
        assert stats.n_sensors == 12 * 4
        assert stats.n_networks == 12


class TestRenderStats:
    def test_sections_present(self, small_run):
        text = render_stats(collect_stats(small_run.deployment))
        assert "Deployment operation summary" in text
        assert "handled locally" in text
        assert "FSM states" in text
