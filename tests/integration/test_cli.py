"""Tests for the command-line front-end."""

import pytest

from repro.cli import main

from tests.helpers import load_jsonl


COMMON = ["--scale", "0.06", "--weeks", "16", "--seed", "5"]


class TestCli:
    def test_headline(self, capsys):
        assert main(["headline", *COMMON]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "measured" in out

    def test_table1(self, capsys):
        assert main(["table1", *COMMON]) == 0
        assert "fsm_path_id" in capsys.readouterr().out

    def test_run_with_dump(self, capsys, tmp_path):
        out_file = tmp_path / "events.jsonl"
        assert main(["run", *COMMON, "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert "wrote" in capsys.readouterr().out
        assert len(load_jsonl(out_file)) > 0

    def test_evasion(self, capsys):
        assert main(["evasion", "--variants", "3", "--weeks", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "per_instance" in out and "repack" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "command", ["figure3", "figure4", "figure5", "table2", "mcluster13", "anomalies"]
    )
    def test_all_drivers_run(self, capsys, command):
        assert main([command, "--scale", "0.1", "--weeks", "30", "--seed", "2010"]) == 0
        assert capsys.readouterr().out

    def test_report(self, capsys):
        assert main(["report", "--scale", "0.08", "--weeks", "20", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Collection summary" in out
        assert "Anomaly triage" in out
        assert "Pattern drift" in out

    def test_drift(self, capsys):
        assert main(["drift", "--scale", "0.08", "--weeks", "20", "--seed", "4"]) == 0
        assert "drift" in capsys.readouterr().out.lower()


class TestExecutionFlags:
    def test_shards_flag_is_rejected(self):
        # Observation has one serial loop; the time-slice shard path is gone.
        with pytest.raises(SystemExit):
            main(["run", *COMMON, "--shards", "4"])

    def test_no_columnar_flag_is_rejected(self):
        # The analysis kernels have one execution path; the switch is gone.
        with pytest.raises(SystemExit):
            main(["run", *COMMON, "--no-columnar"])

    @pytest.mark.parametrize("flag", [["--executor", "thread"], ["--jobs", "2"]])
    def test_executor_flags_are_argparse_errors(self, flag, capsys):
        # The sandbox batch is a plain loop; the pool executors are gone.
        with pytest.raises(SystemExit) as exc_info:
            main(["run", *COMMON, *flag])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_metrics_out_writes_a_valid_snapshot(self, tmp_path):
        import json

        from repro.obs.validate import validate_metrics

        path = tmp_path / "metrics.json"
        assert main(["headline", *COMMON, "--metrics-out", str(path)]) == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_metrics(payload, require_scenario=True) == []

    def test_manifest_writes_to_cwd(self, tmp_path, monkeypatch):
        import json

        from repro.obs.validate import validate_manifest

        monkeypatch.chdir(tmp_path)
        assert main(["headline", *COMMON, "--manifest"]) == 0
        payload = json.loads(
            (tmp_path / "manifest.json").read_text(encoding="utf-8")
        )
        assert validate_manifest(payload) == []
        assert payload["seed"] == 5

    @pytest.mark.parametrize(
        "flag",
        [
            ["--ring", "16"],
            ["--events-max-bytes", "4096"],
            ["--events-backups", "2"],
            ["--profile"],
        ],
    )
    def test_retired_telemetry_flags_are_argparse_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", *COMMON, *flag])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_timings_renders_the_trace_tree(self, capsys):
        assert main(["headline", *COMMON, "--timings"]) == 0
        err = capsys.readouterr().err
        for stage in ("scenario", "observe", "enrich", "epm", "bcluster"):
            assert stage in err
        assert "lsh.index" in err  # nested spans show in the tree

    def test_log_json_sink(self, tmp_path):
        import json

        path = tmp_path / "log.jsonl"
        assert main(["headline", *COMMON, "--log-json", str(path)]) == 0
        records = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line
        ]
        assert any(r["message"] == "scenario finished" for r in records)


class TestObsSuite:
    """The longitudinal toolkit: --store-run, obs {list,diff,history,...}."""

    @pytest.fixture()
    def store_dir(self, tmp_path, monkeypatch):
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        monkeypatch.setenv("REPRO_FIXED_TIME", "2026-08-06T00:00:00Z")
        return runs

    def _stored_ids(self, store_dir):
        from repro.obs.history import RunStore

        return [e["run_id"] for e in RunStore(store_dir).entries()]

    def test_store_run_appends_to_the_run_store(self, capsys, store_dir):
        assert main(["headline", *COMMON, "--store-run"]) == 0
        (run_id,) = self._stored_ids(store_dir)
        assert main(["obs", "list"]) == 0
        assert run_id in capsys.readouterr().out

    def test_store_run_twice_same_seed_appends_two_runs(self, store_dir):
        # Wall times differ between builds, so content ids differ: the
        # store keeps both — that IS the longitudinal record.
        assert main(["headline", *COMMON, "--store-run"]) == 0
        assert main(["headline", *COMMON, "--store-run"]) == 0
        assert len(self._stored_ids(store_dir)) == 2

    def test_diff_identical_runs_passes(self, capsys, store_dir):
        assert main(["headline", *COMMON, "--store-run"]) == 0
        (run_id,) = self._stored_ids(store_dir)
        assert main(["obs", "diff", run_id, run_id]) == 0
        out = capsys.readouterr().out
        assert "identical" in out

    def test_diff_perturbed_lsh_threshold_names_bcluster(
        self, capsys, store_dir, tmp_path
    ):
        """The acceptance scenario: an LSH-threshold change must be
        pinned to the bcluster stage by the digest walk."""
        import json

        from repro.experiments.scenario import PaperScenario, ScenarioConfig
        from repro.obs.history import RunStore
        from repro.sandbox.clustering import ClusteringConfig

        base = dict(n_weeks=16, scale=0.06)
        run_a = PaperScenario(seed=5, config=ScenarioConfig(**base)).run()
        run_b = PaperScenario(
            seed=5,
            config=ScenarioConfig(
                clustering=ClusteringConfig(threshold=0.5), **base
            ),
        ).run()
        store = RunStore(store_dir)
        id_a = store.add(run_a.manifest)
        id_b = store.add(run_b.manifest)
        assert main(["obs", "diff", id_a, id_b]) == 1
        out = capsys.readouterr().out
        assert "first diverging stage: bcluster" in out
        # Upstream stages agreed: only the bcluster digest moved.
        assert "dataset.events" not in out

    def test_history_renders_a_time_series(self, capsys, store_dir):
        assert main(["headline", *COMMON, "--store-run"]) == 0
        assert main(["headline", *COMMON, "--store-run"]) == 0
        assert main(["obs", "history", "lsh.clusters"]) == 0
        out = capsys.readouterr().out
        assert "lsh.clusters over 2 stored run(s) in 1 config(s)" in out
        assert main(["obs", "history", "span:observe"]) == 0
        assert "span:observe over 2 stored run(s)" in capsys.readouterr().out

    def test_trace_chrome_export_and_flame(self, capsys, store_dir, tmp_path):
        import json

        assert main(["headline", *COMMON, "--store-run"]) == 0
        (run_id,) = self._stored_ids(store_dir)
        out_path = tmp_path / "trace.json"
        argv = ["obs", "export", run_id, "--format", "chrome", "--out", str(out_path)]
        assert main(argv) == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        names = [e["name"] for e in payload["traceEvents"]]
        assert "scenario" in names and "bcluster" in names and "lsh.index" in names
        assert all(e["dur"] >= 0 for e in payload["traceEvents"])
        capsys.readouterr()
        assert main(["obs", "export", run_id, "--format", "flame"]) == 0
        flame = capsys.readouterr().out
        assert "cpu=" in flame  # the span probe's attrs surface in the view

    def test_obs_validate_checks_the_store(self, capsys, store_dir):
        import json

        assert main(["headline", *COMMON, "--store-run"]) == 0
        assert main(["obs", "validate"]) == 0
        capsys.readouterr()
        # Corrupt the stored run in place: per-file error, exit 1.
        from repro.obs.history import RunStore

        store = RunStore(store_dir)
        (entry,) = store.entries()
        path = store.root / entry["path"]
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["seed"] = 999_999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["obs", "validate"]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "content address" in err

    def test_default_run_attaches_span_resources(self, store_dir):
        from repro.obs.history import RunStore

        assert main(["headline", *COMMON, "--store-run"]) == 0
        store = RunStore(store_dir)
        (entry,) = store.entries()
        tree = store.load(entry["run_id"]).span_tree
        observe = next(
            c for c in tree["children"] if c["name"] == "observe"
        )
        assert "cpu_seconds" in observe["attributes"]
        assert "max_rss_kb" in observe["attributes"]


class TestEventStreamCli:
    """--events/--progress and the obs tail/export/validate surface."""

    @pytest.fixture()
    def store_dir(self, tmp_path, monkeypatch):
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        monkeypatch.setenv("REPRO_FIXED_TIME", "2026-08-06T00:00:00Z")
        return runs

    def test_events_flag_writes_a_valid_tailable_log(self, capsys, tmp_path):
        from repro.obs.events import read_events
        from repro.obs.validate import validate_events

        log = tmp_path / "events.jsonl"
        assert main(["headline", *COMMON, "--events", str(log)]) == 0
        lines = log.read_text(encoding="utf-8").splitlines()
        assert validate_events(lines) == []
        events = read_events(log)
        kinds = [event.kind for event in events]
        assert kinds[0] == "run.start" and kinds[-1] == "run.finish"
        assert "stage.finish" in kinds and "cluster.milestone" in kinds
        capsys.readouterr()
        # deterministic replay through the tail subcommand
        assert main(["obs", "tail", str(log)]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == len(events)
        assert "run.start" in out

    @pytest.mark.parametrize("view", ["tail", "dashboard"])
    @pytest.mark.parametrize(
        "line",
        ["{not json", "[1]", '{"schema": 1, "seq": 1, "t": 0.1, "fields": {}}'],
        ids=["not-json", "not-an-object", "no-kind"],
    )
    def test_malformed_event_line_is_one_error_line(self, capsys, tmp_path, view, line):
        from repro.obs.events import PipelineEvent

        log = tmp_path / "events.jsonl"
        good = PipelineEvent(seq=0, t=0.0, kind="run.start").to_json()
        log.write_text(f"{good}\n{line}\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["obs", view, str(log)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {log} line 2: "), err
        assert len(err.splitlines()) == 1  # one line, no traceback

    def test_tail_filters_narrow_the_replay(self, capsys, tmp_path):
        log = tmp_path / "events.jsonl"
        assert main(["headline", *COMMON, "--events", str(log)]) == 0
        capsys.readouterr()
        assert main(["obs", "tail", str(log), "--filter", "kind=stage.*",
                     "--filter", "stage=epm"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all("stage.start" in l or "stage.finish" in l for l in lines)
        assert all("stage=epm" in l for l in lines)

    @pytest.mark.parametrize("diverged", [False, True])
    def test_diff_into_a_closed_pipe_keeps_its_verdict(
        self, store_dir, tmp_path, diverged
    ):
        # `repro obs diff A B | head -1`: the reader is gone before the
        # diff prints, so every write to stdout fails with EPIPE.  The
        # command stops without a traceback and still exits 1 on a
        # failing diff, so `set -o pipefail` sees the regression.
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        reference = root / "results" / "runs" / "reference.json"
        other = reference
        if diverged:
            payload = json.loads(reference.read_text(encoding="utf-8"))
            artifact = sorted(payload["artifact_digests"])[0]
            payload["artifact_digests"][artifact] = "0" * 64
            other = tmp_path / "diverged.json"
            other.write_text(json.dumps(payload), encoding="utf-8")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "obs", "diff",
                 str(reference), str(other)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": str(root / "src")},
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == (1 if diverged else 0), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_progress_renders_to_stderr(self, capsys):
        assert main(["headline", *COMMON, "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[progress] run started" in err
        assert "[progress] run finished" in err
        assert "[progress] enrich finished in " in err
        assert "chunks" not in err and "eta" not in err

    def test_export_prometheus_and_chrome_from_stored_run(
        self, capsys, store_dir, tmp_path
    ):
        import json

        assert main(["headline", *COMMON, "--store-run"]) == 0
        from repro.obs.history import RunStore

        (entry,) = RunStore(store_dir).entries()
        run_id = entry["run_id"]
        capsys.readouterr()
        assert main(["obs", "export", run_id]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_lsh_candidate_pairs counter" in prom
        assert "repro_lsh_candidate_pairs_total" in prom
        assert "repro_executor_" not in prom
        out_path = tmp_path / "trace.json"
        assert main(["obs", "export", run_id, "--format", "chrome",
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert any(e["name"] == "bcluster" for e in payload["traceEvents"])
        capsys.readouterr()
        assert main(["obs", "export", run_id, "--format", "jsonl"]) == 0
        samples = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert any(s["name"] == "lsh.candidate_pairs" for s in samples)

    def test_validate_events_crosschecks_the_manifest(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        log = tmp_path / "events.jsonl"
        assert main(["headline", *COMMON, "--events", str(log), "--manifest"]) == 0
        manifest = tmp_path / "manifest.json"
        assert main(["obs", "validate", "--events", str(log),
                     "--manifest", str(manifest)]) == 0
        # drop a line: the sequence gap and the span crosscheck both fire
        lines = log.read_text(encoding="utf-8").splitlines()
        stage_finish = next(i for i, l in enumerate(lines) if "stage.finish" in l)
        log.write_text("\n".join(lines[:stage_finish] + lines[stage_finish + 1:]) + "\n")
        capsys.readouterr()
        assert main(["obs", "validate", "--events", str(log),
                     "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert "seq" in err or "stage.finish" in err

    def test_store_run_with_events_enables_event_diff(self, capsys, store_dir, tmp_path):
        log_a = tmp_path / "a.jsonl"
        log_b = tmp_path / "b.jsonl"
        assert main(["headline", *COMMON, "--store-run", "--events", str(log_a)]) == 0
        assert main(["headline", "--scale", "0.06", "--weeks", "16", "--seed", "6",
                     "--store-run", "--events", str(log_b)]) == 0
        from repro.obs.history import RunStore

        ids = [e["run_id"] for e in RunStore(store_dir).entries()]
        assert all(RunStore(store_dir).load_events(run_id) for run_id in ids)
        capsys.readouterr()
        assert main(["obs", "diff", ids[0], ids[1]]) == 1
        out = capsys.readouterr().out
        assert "first diverging event" in out
        assert "seed=5" in out and "seed=6" in out


class TestHealthDashboardCli:
    """The landscape monitor front-ends: obs health / obs dashboard."""

    @pytest.fixture()
    def store_dir(self, tmp_path, monkeypatch):
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        monkeypatch.setenv("REPRO_FIXED_TIME", "2026-08-06T00:00:00Z")
        return runs

    def _stored_run(self, store_dir):
        from repro.obs.history import RunStore

        assert main(["headline", *COMMON, "--store-run"]) == 0
        (entry,) = RunStore(store_dir).entries()
        assert entry["windows"] is True  # the sidecar rode along
        return entry["run_id"]

    def test_health_renders_a_ranked_report(self, capsys, store_dir):
        run_id = self._stored_run(store_dir)
        capsys.readouterr()
        code = main(["obs", "health", run_id])
        out = capsys.readouterr().out
        assert "health:" in out and "rule(s)" in out
        assert code == 0  # the smoke run carries no critical findings

    def test_health_json_is_the_report_payload(self, capsys, store_dir):
        import json

        run_id = self._stored_run(store_dir)
        capsys.readouterr()
        main(["obs", "health", run_id, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2 and payload["kind"] == "health"
        assert set(payload["summary"]) == {"info", "warning", "critical"}

    def test_health_gate_against_its_own_baseline_passes(self, capsys, store_dir):
        run_id = self._stored_run(store_dir)
        capsys.readouterr()
        code = main(["obs", "health", run_id, "--baseline", run_id,
                     "--fail-on", "info"])
        assert code == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_health_fail_on_floor_trips_on_existing_findings(self, capsys, store_dir):
        import json

        run_id = self._stored_run(store_dir)
        capsys.readouterr()
        main(["obs", "health", run_id, "--json"])
        payload = json.loads(capsys.readouterr().out)
        expected = 1 if sum(payload["summary"].values()) else 0
        assert main(["obs", "health", run_id, "--fail-on", "info"]) == expected

    def test_dashboard_renders_sparklines(self, capsys, store_dir):
        run_id = self._stored_run(store_dir)
        capsys.readouterr()
        assert main(["obs", "dashboard", run_id]) == 0
        out = capsys.readouterr().out
        assert "landscape dashboard" in out
        assert "agreement" in out and "crossview:" in out and "health:" in out

    def test_dashboard_out_writes_the_snapshot(self, store_dir, tmp_path):
        run_id = self._stored_run(store_dir)
        snapshot = tmp_path / "dashboard.txt"
        assert main(["obs", "dashboard", run_id, "--out", str(snapshot)]) == 0
        assert "landscape dashboard" in snapshot.read_text(encoding="utf-8")

    def test_dashboard_without_a_window_report_fails_cleanly(
        self, capsys, store_dir
    ):
        assert main(["headline", *COMMON, "--windows", "0", "--store-run"]) == 0
        from repro.obs.history import RunStore

        (entry,) = RunStore(store_dir).entries()
        assert entry["windows"] is False
        capsys.readouterr()
        assert main(["obs", "dashboard", entry["run_id"]]) == 1
        assert "no window report" in capsys.readouterr().err

    def test_export_openmetrics_terminates_with_eof(self, capsys, store_dir):
        run_id = self._stored_run(store_dir)
        capsys.readouterr()
        assert main(["obs", "export", run_id, "--format", "openmetrics"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        assert "repro_window_series{" in out  # the sidecar rode along

    def test_export_prometheus_carries_crossview_gauges(self, capsys, store_dir):
        run_id = self._stored_run(store_dir)
        capsys.readouterr()
        assert main(["obs", "export", run_id]) == 0
        assert "repro_crossview_joint_samples" in capsys.readouterr().out

    def test_openmetrics_is_the_default_and_only_text_format(self, capsys, store_dir):
        run_id = self._stored_run(store_dir)
        capsys.readouterr()
        assert main(["obs", "export", run_id]) == 0
        default = capsys.readouterr().out
        assert main(["obs", "export", run_id, "--format", "openmetrics"]) == 0
        assert capsys.readouterr().out == default
        assert "# UNIT" not in default
        with pytest.raises(SystemExit) as info:
            main(["obs", "export", run_id, "--format", "prometheus"])
        assert info.value.code == 2

    @pytest.mark.parametrize("fmt", ["openmetrics", "jsonl"])
    def test_export_a_metrics_out_snapshot(self, capsys, store_dir, tmp_path, fmt):
        snapshot = tmp_path / "metrics.json"
        assert main(["headline", *COMMON, "--metrics-out", str(snapshot)]) == 0
        capsys.readouterr()
        assert main(["obs", "export", str(snapshot), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "lsh.clusters" in out or "lsh_clusters" in out

    def test_dashboard_of_a_window_report_file(self, capsys, store_dir, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["headline", *COMMON, "--manifest"]) == 0
        capsys.readouterr()
        assert main(["obs", "dashboard", str(tmp_path / "manifest.windows.json")]) == 0
        assert "landscape dashboard" in capsys.readouterr().out

    def test_validate_windows_sidecar_file(self, capsys, store_dir, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["headline", *COMMON, "--manifest"]) == 0
        manifest = tmp_path / "manifest.json"
        windows = tmp_path / "manifest.windows.json"
        assert windows.is_file()
        assert main(["obs", "validate", "--manifest", str(manifest),
                     "--windows", str(windows)]) == 0
        # corrupt one series length: the validator must flag it
        import json

        payload = json.loads(windows.read_text(encoding="utf-8"))
        payload["series"]["events"].append(0.0)
        windows.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["obs", "validate", "--manifest", str(manifest),
                     "--windows", str(windows)]) == 1
        assert "events" in capsys.readouterr().err


class TestLongitudinalCli:
    """obs query/regress/diff/list over a store read from its tree."""

    @pytest.fixture()
    def store_dir(self, tmp_path, monkeypatch):
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        monkeypatch.setenv("REPRO_FIXED_TIME", "2026-08-06T00:00:00Z")
        return runs

    def _seeded_store(self, store_dir, bump: float = 1.0):
        """One real run plus three synthetic replays at later stamps.

        The replays are byte-identical except ``created_at`` (and, with
        ``bump``, a scaled ``lsh.clusters`` on the newest) — the cheap
        way to grow a >= 3-run longitudinal record under one config.
        """
        import json

        from repro.obs.history import RunStore
        from repro.obs.manifest import RunManifest

        assert main(["headline", *COMMON, "--store-run"]) == 0
        store = RunStore(store_dir)
        (entry,) = store.entries()
        payload = store.load_payload(entry["run_id"])
        for day, factor in ((7, 1.0), (8, 1.0), (9, bump)):
            clone = json.loads(json.dumps(payload))
            clone["created_at"] = f"2026-08-{day:02d}T00:00:00Z"
            if factor != 1.0:
                gauges = clone["metrics"]["gauges"]
                gauges["lsh.clusters"] = gauges["lsh.clusters"] * factor
            store.add(RunManifest.from_dict(clone))
        return store

    def test_query_p50_json_over_the_stored_history(self, capsys, store_dir):
        import json

        self._seeded_store(store_dir)
        capsys.readouterr()
        argv = ["obs", "query", "metric:lsh.clusters", "--agg", "p50", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 4
        (value,) = {
            row["values"]["metric:lsh.clusters"] for row in payload["rows"]
        }
        assert payload["aggregates"]["metric:lsh.clusters"] == value
        # Same store, second construction: the frame digest must agree.
        assert main(argv) == 0
        again = json.loads(capsys.readouterr().out)
        assert again["frame_digest"] == payload["frame_digest"]

    def test_query_table_and_openmetrics_renderings(self, capsys, store_dir):
        self._seeded_store(store_dir)
        capsys.readouterr()
        assert main(
            ["obs", "query", "metric:lsh.clusters", "span:scenario",
             "--agg", "max"]
        ) == 0
        out = capsys.readouterr().out
        assert "metric:lsh.clusters" in out and "span:scenario" in out
        assert main(
            ["obs", "query", "metric:lsh.clusters", "--format", "openmetrics"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "# EOF"
        assert any("repro_query{" in line for line in lines)

    def test_regress_is_silent_on_byte_identical_replays(self, capsys, store_dir):
        self._seeded_store(store_dir)
        capsys.readouterr()
        assert main(["obs", "regress", "--fail-on", "warn"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_regress_flags_injected_regression_then_baseline_absorbs(
        self, capsys, store_dir, tmp_path
    ):
        self._seeded_store(store_dir, bump=3.0)
        capsys.readouterr()
        report_path = tmp_path / "regress_report.json"
        assert main(
            ["obs", "regress", "--fail-on", "warn", "--report",
             str(report_path)]
        ) == 1
        out = capsys.readouterr().out
        assert "metric:lsh.clusters" in out
        assert report_path.is_file()
        # Re-gating against the triaged report suppresses the known
        # (detector, target) pairs: nothing new, exit 0.
        assert main(
            ["obs", "regress", "--fail-on", "warn", "--baseline",
             str(report_path)]
        ) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_regress_unknown_target_lists_the_covered_ones(self, capsys,
                                                           store_dir):
        assert main(["obs", "regress", "--targets", "metric:nope"]) == 2
        err = capsys.readouterr().err
        assert "rules cover" in err and "metric:lsh.clusters" in err

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"schema": 99, "findings": []}',
            '{"schema": 2, "kind": "regress", "rules_evaluated": 1, "runs_scanned": 2,'
            ' "fingerprints_scanned": 1, "findings": [{"rule": "bcluster-count"}]}',
        ],
        ids=["bad-json", "wrong-schema", "missing-field"],
    )
    def test_regress_unusable_baseline_exits_2_not_1(
        self, capsys, store_dir, tmp_path, text
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(text, encoding="utf-8")
        assert main(["obs", "regress", "--baseline", str(baseline)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"unusable baseline {baseline}")
        assert len(err.splitlines()) == 1  # one line, no traceback

    def test_list_limit_keeps_the_newest_runs(self, capsys, store_dir):
        self._seeded_store(store_dir)
        capsys.readouterr()
        assert main(["obs", "list", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "2026-08-09" in out and "2026-08-06" not in out

    def test_cost_attributes_a_clustering_change_to_bcluster(
        self, capsys, store_dir
    ):
        import json

        from repro.experiments.scenario import PaperScenario, ScenarioConfig
        from repro.obs.history import RunStore
        from repro.sandbox.clustering import ClusteringConfig

        base = dict(n_weeks=16, scale=0.06)
        run_a = PaperScenario(seed=5, config=ScenarioConfig(**base)).run()
        run_b = PaperScenario(
            seed=5,
            config=ScenarioConfig(
                clustering=ClusteringConfig(threshold=0.5), **base
            ),
        ).run()
        store = RunStore(store_dir)
        id_a = store.add(run_a.manifest)
        id_b = store.add(run_b.manifest)
        capsys.readouterr()
        # The new threshold moves the bcluster digest: the diff fails.
        assert main(["obs", "diff", id_a, id_b, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["config_delta"] == {"clustering.threshold": [0.7, 0.5]}
        rows = {row["stage"]: row for row in report["stages"]}
        assert [name for name, row in rows.items() if row["rekeyed"]] == ["bcluster"]
        assert rows["bcluster"]["cpu_b"] is not None
        assert report["attributed_seconds"] == pytest.approx(
            rows["bcluster"]["delta_seconds"]
        )
        assert main(["obs", "diff", id_a, id_b]) == 1
        out = capsys.readouterr().out
        assert "clustering.threshold" in out
        assert "attributed cost" in out

    def test_cost_of_a_repeat_run_is_labelled(self, capsys, store_dir):
        from repro.obs.history import RunStore

        assert main(["headline", *COMMON, "--store-run"]) == 0
        (entry,) = RunStore(store_dir).entries()
        capsys.readouterr()
        assert main(["obs", "diff", entry["run_id"], entry["run_id"]]) == 0
        assert "repeat runs" in capsys.readouterr().out

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_truncated_stored_run_is_one_error_line(
        self, capsys, store_dir, sidecar
    ):
        from repro.obs.history import RunStore

        assert main(["headline", *COMMON, "--store-run"]) == 0
        store = RunStore(store_dir)
        (entry,) = store.entries()
        path = store.root / entry["path"]
        if sidecar:
            path = path.with_name(f"{path.stem}.windows.json")
        path.write_bytes(path.read_bytes()[:200])
        run_id = entry["run_id"]
        capsys.readouterr()
        readers = [
            ["obs", "export", run_id, "--format", "openmetrics"],
            ["obs", "query", "metric:lsh.clusters"],
        ]
        if not sidecar:  # the diff and the listing read manifests only
            readers += [["obs", "diff", run_id, run_id], ["obs", "list"]]
        for argv in readers:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err.strip()
            assert err.startswith(f"error: {path}"), err
            assert f"repro obs validate --runs {store_dir}" in err
            assert len(err.splitlines()) == 1  # one line, no traceback

    def test_leftover_index_files_change_no_output(self, capsys, store_dir):
        import json

        store = self._seeded_store(store_dir, bump=3.0)
        views = [
            ["obs", "list"],
            ["obs", "query", "metric:lsh.clusters", "series:events", "--json"],
            ["obs", "history", "metric:lsh.clusters"],
            ["obs", "validate", "--runs", str(store_dir)],
        ]

        def outputs():
            captured = []
            for argv in views:
                code = main(argv)
                captured.append((code, capsys.readouterr()))
            return captured

        capsys.readouterr()
        before = outputs()
        # The files an older version kept next to the runs, stale on
        # purpose: one entry and one row that disagree with the tree.
        (entry, *_rest) = store.entries()
        (store_dir / "index.json").write_text(
            json.dumps({"schema": 1, "entries": [{**entry, "seed": 99}]}), encoding="utf-8"
        )
        row = {**entry, "manifest": {"metrics": {"gauges": {"lsh.clusters": -1.0}}},
               "windows": None, "digest": "0" * 64}
        (store_dir / "query_index.json").write_text(
            json.dumps({"schema": 2, "rows": [row]}), encoding="utf-8"
        )
        assert outputs() == before
        assert [code for code, _captured in before] == [0, 0, 0, 0]

    def test_list_fingerprint_takes_a_prefix(self, capsys, store_dir):
        store = self._seeded_store(store_dir)
        fingerprint = store.entries()[0]["fingerprint"]
        capsys.readouterr()
        assert main(["obs", "list", "--fingerprint", fingerprint[:8]]) == 0
        assert "4 run(s)" in capsys.readouterr().out
        assert main(["obs", "list", "--fingerprint", "0000"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"run store {store_dir}: no run matches fingerprint '0000'"
        assert main(["obs", "list", "--fingerprint", "000"]) == 2
        assert "too short" in capsys.readouterr().err

    def test_validate_reports_a_manifest_edited_in_place(self, capsys, store_dir):
        import json

        from repro.obs.history import RunStore

        assert main(["headline", *COMMON, "--store-run"]) == 0
        store = RunStore(store_dir)
        (entry,) = store.entries()
        path = store.root / entry["path"]
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["seed"] = 6
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["obs", "validate", "--runs", str(store_dir)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: run id {entry['run_id']!r} does not match content address" in err

    def test_older_manifest_schema_is_one_error_line(self, capsys, store_dir):
        import json

        store = self._seeded_store(store_dir)
        (entry, *_rest) = store.entries()
        payload = store.load_payload(entry["run_id"])
        old = store.root / entry["fingerprint"] / "0123456789abcdef.json"
        old.write_text(json.dumps({**payload, "schema": 7}), encoding="utf-8")
        cut_off = (
            f"error: {old}: manifest schema 7 is older than the oldest readable "
            "layout (8); re-run the scenario to regenerate it"
        )
        capsys.readouterr()
        for argv in (
            ["obs", "list"],
            ["obs", "query", "metric:lsh.clusters"],
            ["obs", "history", "metric:lsh.clusters"],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [cut_off], argv
        assert main(["obs", "validate", "--runs", str(store_dir)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [cut_off.removeprefix("error: ")]

    def test_including_a_stored_run_counts_it_once(self, capsys, store_dir):
        import json

        store = self._seeded_store(store_dir)
        stored = [store.root / entry["path"] for entry in store.entries()]
        capsys.readouterr()
        for include in ([], [stored[0]], stored):
            flags = [arg for path in include for arg in ("--include", str(path))]
            assert main(["obs", "query", "metric:lsh.clusters", *flags, "--json"]) == 0
            rows = json.loads(capsys.readouterr().out)["rows"]
            assert sorted(row["run_id"] for row in rows) == sorted(p.stem for p in stored)
            assert main(["obs", "regress", *flags, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["runs_scanned"] == len(stored)

    def test_history_names_a_fingerprint_that_matches_nothing(self, capsys, store_dir):
        self._seeded_store(store_dir)
        capsys.readouterr()
        argv = ["obs", "history", "metric:lsh.clusters", "--fingerprint", "0000"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "no stored run matches fingerprint '0000'\n"

    def test_query_names_a_fingerprint_that_matches_nothing(self, capsys, store_dir):
        self._seeded_store(store_dir)
        capsys.readouterr()
        argv = ["obs", "query", "metric:lsh.clusters", "--fingerprint", "0000"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == "query: no stored run matches fingerprint '0000'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["obs", "query", "metric:lsh.clusters", "--no-index"],
            ["obs", "validate", "--rebuild-index"],
            ["obs", "validate", "--query-index"],
        ],
        ids=["no-index", "rebuild-index", "query-index"],
    )
    def test_retired_index_options_are_usage_errors(self, capsys, store_dir, argv):
        from repro.obs.validate import main as validate_main

        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        if argv[1] == "validate":
            with pytest.raises(SystemExit) as info:
                validate_main(["--runs", str(store_dir), argv[-1]])
            assert info.value.code == 2


class TestServingCli:
    """repro model export + repro classify: the serving round trip."""

    @pytest.fixture()
    def store_dir(self, tmp_path, monkeypatch):
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        monkeypatch.setenv("REPRO_FIXED_TIME", "2026-08-06T00:00:00Z")
        return runs

    def _export(self, tmp_path, *extra):
        target = tmp_path / "model.json"
        assert main(["model", "export", *COMMON, "--out", str(target), *extra]) == 0
        return target

    def test_export_writes_a_valid_artifact(self, capsys, tmp_path):
        from repro.serve.model import ModelArtifact, validate_model
        import json

        target = self._export(tmp_path)
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert validate_model(payload) == []
        assert ModelArtifact.load(target).model_id == payload["model_id"]
        assert payload["model_id"] in capsys.readouterr().out

    def test_obs_validate_checks_an_exported_model(self, capsys, tmp_path, store_dir):
        target = self._export(tmp_path)
        capsys.readouterr()
        assert main(["obs", "validate", "--model", str(target)]) == 0
        assert f"ok: {target}" in capsys.readouterr().out

    def test_export_from_stored_run_agrees_on_model_id(
        self, capsys, tmp_path, store_dir
    ):
        import json

        direct = self._export(tmp_path)
        assert main(["headline", *COMMON, "--store-run"]) == 0
        from repro.obs.history import RunStore

        (entry,) = RunStore(store_dir).entries()
        capsys.readouterr()
        stored_target = tmp_path / "stored_model.json"
        assert (
            main(
                [
                    "model",
                    "export",
                    "--run",
                    entry["run_id"],
                    "--out",
                    str(stored_target),
                ]
            )
            == 0
        )
        direct_payload = json.loads(direct.read_text(encoding="utf-8"))
        stored_payload = json.loads(stored_target.read_text(encoding="utf-8"))
        assert direct_payload["model_id"] == stored_payload["model_id"]
        assert stored_payload["provenance"]["run_id"] == entry["run_id"]

    def test_export_store_then_classify_by_run_prefix(
        self, capsys, tmp_path, store_dir
    ):
        import json

        assert main(["headline", *COMMON, "--store-run"]) == 0
        from repro.obs.history import RunStore

        (entry,) = RunStore(store_dir).entries()
        run_id = entry["run_id"]
        assert (
            main(["model", "export", "--run", run_id, "--store", "--out",
                  str(tmp_path / "m.json")])
            == 0
        )
        siblings = list(store_dir.glob(f"*/{run_id}.model.json"))
        assert len(siblings) == 1
        events = tmp_path / "batch.jsonl"
        assert main(["run", *COMMON, "--out", str(events)]) == 0
        capsys.readouterr()
        out_file = tmp_path / "classified.jsonl"
        assert (
            main(
                [
                    "classify",
                    "--model",
                    run_id[:6],
                    "--batch",
                    str(events),
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(events.read_text(encoding="utf-8").splitlines())
        first = json.loads(lines[0])
        assert set(first["classifications"]) <= {"epsilon", "pi", "mu"}

    def test_classify_single_event_inline(self, capsys, tmp_path):
        import json

        target = self._export(tmp_path)
        events = tmp_path / "events.jsonl"
        assert main(["run", *COMMON, "--out", str(events)]) == 0
        event_json = events.read_text(encoding="utf-8").splitlines()[0]
        metrics_file = tmp_path / "metrics.json"
        capsys.readouterr()
        assert (
            main(
                [
                    "classify",
                    "--model",
                    str(target),
                    "--event",
                    event_json,
                    "--metrics-out",
                    str(metrics_file),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "epsilon" in out or "pi" in out or "mu" in out
        from repro.obs.validate import validate_metrics

        snapshot = json.loads(metrics_file.read_text(encoding="utf-8"))
        assert validate_metrics(snapshot) == []
        counters = snapshot["counters"]
        assert any(key.startswith("classify.requests") for key in counters)

    @pytest.mark.parametrize("fault", ["not-json", "list-value", "nested-import"])
    def test_batch_reports_a_malformed_line_in_place(self, capsys, tmp_path, fault):
        import json

        target = self._export(tmp_path)
        events = tmp_path / "events.jsonl"
        assert main(["run", *COMMON, "--out", str(events)]) == 0
        good = events.read_text(encoding="utf-8").splitlines()[:20]
        if fault == "not-json":
            bad, error_type = '{"event_id": 1, not json', "JSONDecodeError"
        elif fault == "list-value":
            # Well-formed JSON and a well-formed event, but a feature
            # value (a list) that no pattern can match.
            event = next(e for e in map(json.loads, good) if e["payload"])
            event["payload"]["filename"] = ["a.exe"]
            bad, error_type = json.dumps(event), "TypeError: unhashable"
        else:
            # The import table is left out of the event's hash, but the
            # mu feature kernel32_symbols reads it.
            event = next(
                e for e in map(json.loads, good)
                if e["malware"] and e["malware"]["pe"]
            )
            event["malware"]["pe"]["imports"] = {"KERNEL32.dll": [["GetProcAddress"]]}
            bad, error_type = json.dumps(event), "TypeError: unhashable"
        clean, dirty = tmp_path / "clean.jsonl", tmp_path / "dirty.jsonl"
        clean.write_text("\n".join(good) + "\n", encoding="utf-8")
        dirty.write_text("\n".join(good[:10] + [bad] + good[10:]) + "\n", encoding="utf-8")
        capsys.readouterr()
        clean_out, dirty_out = tmp_path / "clean_out.jsonl", tmp_path / "dirty_out.jsonl"
        assert main(["classify", "--model", str(target), "--batch", str(clean),
                     "--out", str(clean_out)]) == 0
        assert main(["classify", "--model", str(target), "--batch", str(dirty),
                     "--out", str(dirty_out)]) == 1
        assert "1 batch line(s) did not decode" in capsys.readouterr().err
        clean_lines = clean_out.read_text(encoding="utf-8").splitlines()
        dirty_lines = dirty_out.read_text(encoding="utf-8").splitlines()
        assert len(clean_lines) == 20 and len(dirty_lines) == 21
        # Every good line's record is byte-identical to the clean batch's,
        # and the bad line's error record sits in its own position.
        assert dirty_lines[:10] + dirty_lines[11:] == clean_lines
        error = json.loads(dirty_lines[10])
        assert set(error) == {"line", "error"} and error["line"] == 11
        assert error["error"].startswith(error_type)

    @pytest.mark.parametrize(
        "raw, error_type",
        [('{"event_id": 1, not json', "JSONDecodeError"), ("{}", "KeyError")],
    )
    def test_single_malformed_event_is_one_error_line(
        self, capsys, tmp_path, raw, error_type
    ):
        target = self._export(tmp_path)
        capsys.readouterr()
        assert main(["classify", "--model", str(target), "--event", raw]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {error_type}")

    def test_classify_needs_exactly_one_input(self, tmp_path, capsys):
        target = self._export(tmp_path)
        capsys.readouterr()
        assert main(["classify", "--model", str(target)]) == 2
        assert (
            main(
                ["classify", "--model", str(target), "--event", "{}",
                 "--batch", "x.jsonl"]
            )
            == 2
        )

    @pytest.mark.parametrize("mode", ["--event", "--batch"])
    @pytest.mark.parametrize(
        "fault, error_type",
        [("schema", "ValidationError"), ("truncated", "JSONDecodeError")],
    )
    def test_unloadable_model_is_one_error_line(
        self, capsys, tmp_path, mode, fault, error_type
    ):
        import json

        target = self._export(tmp_path)
        text = target.read_text(encoding="utf-8")
        if fault == "schema":
            payload = json.loads(text)
            payload["schema"] = 99
            target.write_text(json.dumps(payload), encoding="utf-8")
        else:
            target.write_text(text[: len(text) // 2], encoding="utf-8")
        batch = tmp_path / "batch.jsonl"
        batch.write_text("{}\n", encoding="utf-8")
        source = "{}" if mode == "--event" else str(batch)
        capsys.readouterr()
        assert main(["classify", "--model", str(target), mode, source]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {error_type}: ")

    def test_classify_missing_model_fails_cleanly(self, tmp_path, store_dir, capsys):
        assert (
            main(["classify", "--model", str(tmp_path / "nope.json"),
                  "--event", "{}"])
            == 1
        )
        assert "error" in capsys.readouterr().err


class TestCacheCommands:
    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        return root

    @pytest.mark.parametrize("flag", ["--cache-stages", "--no-cache-stages"])
    def test_cache_stages_flag_is_an_argparse_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", *COMMON, "--cache", flag])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_ls_lists_records_and_stage_entries(self, cache_dir, capsys):
        assert main(["run", *COMMON, "--cache"]) == 0
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "run records" in out and "1 record(s)" in out
        assert "7 artifact(s)" in out

    def test_gc_removes_legacy_pickles_and_orphaned_records(self, cache_dir, capsys):
        assert main(["run", *COMMON, "--cache"]) == 0
        legacy = cache_dir / f"{'ab' * 32}.pkl"
        legacy.write_bytes(b"a whole-run pickle from before run records")
        (record,) = cache_dir.glob("*.run")
        assert main(["cache", "gc"]) == 0
        assert not legacy.exists()
        assert record.exists()
        (enrich,) = (cache_dir / "stages" / "enrich").glob("*.pkl")
        enrich.unlink()
        capsys.readouterr()
        assert main(["cache", "gc"]) == 0
        # The orphaned enrich sidecar and the record that needs the entry.
        assert "removed 2 file(s)" in capsys.readouterr().out
        assert not record.exists()
