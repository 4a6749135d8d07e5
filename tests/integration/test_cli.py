"""Tests for the command-line front-end."""

import pytest

from repro.cli import main


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
        from repro.egpm.dataset import SGNetDataset

        assert len(SGNetDataset.load_jsonl(out_file)) > 0

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
    """--shards changes how the pipeline runs, never what it computes:
    the headline numbers must be identical."""

    def _headline(self, capsys, *extra):
        assert main(["headline", *COMMON, *extra]) == 0
        return capsys.readouterr().out

    def test_shards_flag_is_result_invariant(self, capsys):
        baseline = self._headline(capsys)
        assert self._headline(capsys, "--shards", "4") == baseline

    def test_no_columnar_flag_is_rejected(self):
        # The analysis kernels have one execution path; the switch is gone.
        with pytest.raises(SystemExit):
            main(["run", *COMMON, "--no-columnar"])


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
        assert "lsh.clusters over 2 stored run(s)" in out
        assert main(["obs", "history", "stage:observe"]) == 0

    def test_trace_chrome_export_and_flame(self, capsys, store_dir, tmp_path):
        import json

        assert main(["headline", *COMMON, "--store-run", "--profile"]) == 0
        (run_id,) = self._stored_ids(store_dir)
        out_path = tmp_path / "trace.json"
        assert main(["obs", "trace", run_id, "--chrome", str(out_path)]) == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        names = [e["name"] for e in payload["traceEvents"]]
        assert "scenario" in names and "bcluster" in names and "lsh.index" in names
        assert all(e["dur"] >= 0 for e in payload["traceEvents"])
        capsys.readouterr()
        assert main(["obs", "trace", run_id, "--flame"]) == 0
        flame = capsys.readouterr().out
        assert "cpu=" in flame  # --profile attrs surface in the view

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

    def test_profile_flag_attaches_span_resources(self, store_dir):
        from repro.obs.history import RunStore

        assert main(["headline", *COMMON, "--store-run", "--profile"]) == 0
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

    def test_tail_filters_narrow_the_replay(self, capsys, tmp_path):
        log = tmp_path / "events.jsonl"
        assert main(["headline", *COMMON, "--events", str(log)]) == 0
        capsys.readouterr()
        assert main(["obs", "tail", str(log), "--filter", "kind=stage.*",
                     "--filter", "stage=epm"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all("stage.start" in l or "stage.finish" in l for l in lines)
        assert all("stage=epm" in l for l in lines)

    def test_progress_renders_to_stderr(self, capsys):
        assert main(["headline", *COMMON, "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[progress] run started" in err
        assert "[progress] run finished" in err
        assert "chunks" in err and "eta" in err

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
        assert "# TYPE repro_executor_chunks counter" in prom
        assert "repro_executor_chunks_total" in prom
        out_path = tmp_path / "trace.json"
        assert main(["obs", "export", run_id, "--format", "chrome",
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert any(e["name"] == "bcluster" for e in payload["traceEvents"])
        capsys.readouterr()
        assert main(["obs", "export", run_id, "--format", "jsonl"]) == 0
        samples = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert any(s["name"] == "executor.items" for s in samples)

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
    """obs query/regress/cost/list --limit and the index maintenance."""

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

    def test_truncated_query_index_is_rebuilt(self, capsys, store_dir):
        self._seeded_store(store_dir, bump=3.0)
        assert main(["obs", "query", "metric:lsh.clusters"]) == 0  # warm index
        query_index = store_dir / "query_index.json"
        query_index.write_bytes(query_index.read_bytes()[:200])
        capsys.readouterr()
        assert main(["obs", "regress", "--fail-on", "critical"]) == 1
        assert "metric:lsh.clusters" in capsys.readouterr().out
        query_index.write_bytes(query_index.read_bytes()[:200])
        assert main(["obs", "query", "metric:lsh.clusters", "--json"]) == 0
        import json

        assert len(json.loads(capsys.readouterr().out)["rows"]) == 4

    def test_truncated_run_index_names_the_recovery(self, capsys, store_dir):
        self._seeded_store(store_dir)
        index = store_dir / "index.json"
        index.write_bytes(index.read_bytes()[:100])
        capsys.readouterr()
        assert main(["obs", "regress"]) == 2
        err = capsys.readouterr().err.strip()
        assert str(index) in err and "--rebuild-index" in err
        assert len(err.splitlines()) == 1  # one line, no traceback
        assert main(["obs", "validate", "--rebuild-index"]) == 0
        capsys.readouterr()
        assert main(["obs", "regress", "--fail-on", "warn"]) == 0
        assert "clean" in capsys.readouterr().out

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
        assert main(["obs", "cost", id_a, id_b]) == 0
        out = capsys.readouterr().out
        assert "clustering.threshold" in out
        assert "bcluster" in out
        assert "attributed cost" in out

    def test_cost_of_a_repeat_run_is_labelled(self, capsys, store_dir):
        from repro.obs.history import RunStore

        assert main(["headline", *COMMON, "--store-run"]) == 0
        (entry,) = RunStore(store_dir).entries()
        capsys.readouterr()
        assert main(["obs", "cost", entry["run_id"], entry["run_id"]]) == 0
        assert "repeat runs" in capsys.readouterr().out

    def test_validate_rebuilds_the_index_and_checks_the_query_index(
        self, capsys, store_dir
    ):
        import json

        assert main(["headline", *COMMON, "--store-run"]) == 0
        assert main(["obs", "query", "metric:lsh.clusters"]) == 0  # warm index
        capsys.readouterr()
        (store_dir / "index.json").unlink()
        assert main(["obs", "validate", "--rebuild-index", "--query-index"]) == 0
        assert "rebuilt index" in capsys.readouterr().out
        # A hand-edited query index must fail the --query-index check.
        query_index = store_dir / "query_index.json"
        payload = json.loads(query_index.read_text(encoding="utf-8"))
        payload["rows"][0]["manifest"]["metrics"]["gauges"]["lsh.clusters"] = -1.0
        query_index.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["obs", "validate", "--query-index"]) == 1
        assert "does not match" in capsys.readouterr().err


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

    def test_classify_missing_model_fails_cleanly(self, tmp_path, store_dir, capsys):
        assert (
            main(["classify", "--model", str(tmp_path / "nope.json"),
                  "--event", "{}"])
            == 1
        )
        assert "error" in capsys.readouterr().err
