"""The run store, cross-run diffs and the trend scan over stored runs."""

import json

import pytest

from repro.obs.diff import (
    diff_manifests,
    first_diverging_event,
    first_diverging_stage,
)
from repro.obs.health import band_rule, band_scan, run_regression
from repro.obs.history import RUN_ID_LENGTH, RunStore
from repro.obs.manifest import RunManifest
from repro.obs.query import build_frame, metric_value, resolve_target, run_query
from repro.obs.sketch import DEFAULT_ALPHA, QuantileSketch
from repro.obs.validate import validate_run_store
from repro.util.validation import ValidationError


def _manifest(
    *,
    seed: int = 7,
    fingerprint: str = "ab" * 32,
    observe_digest: str = "11" * 32,
    epm_digest: str = "22" * 32,
    bcluster_digest: str = "33" * 32,
    clusters: float = 9.0,
    observe_seconds: float = 1.0,
    created_at: str = "2026-01-01T00:00:00Z",
    golden_deviations: list | None = None,
) -> RunManifest:
    span_tree = {
        "name": "scenario",
        "seconds": observe_seconds + 0.5,
        "attributes": {"output_digest": "44" * 32},
        "children": [
            {
                "name": "observe",
                "seconds": observe_seconds,
                "attributes": {"output_digest": observe_digest, "cache": "off"},
            },
            {
                "name": "epm",
                "seconds": 0.3,
                "attributes": {"output_digest": epm_digest, "cache": "off"},
            },
            {
                "name": "bcluster",
                "seconds": 0.2,
                "attributes": {"output_digest": bcluster_digest, "cache": "off"},
            },
        ],
    }
    return RunManifest(
        fingerprint=fingerprint,
        seed=seed,
        config={"n_weeks": 10},
        library_version="1.0.0",
        span_tree=span_tree,
        metrics={
            "schema": 3,
            "counters": {"lsh.candidate_pairs": 100.0},
            "gauges": {"lsh.clusters": clusters},
            "sketches": {},
        },
        artifact_digests={
            "dataset.events": observe_digest,
            "epm.clusters": epm_digest,
            "bclusters.assignment": bcluster_digest,
            "headline": "44" * 32,
        },
        created_at=created_at,
        golden_deviations=golden_deviations or [],
        stage_fingerprints={
            "observe": "55" * 32,
            "epm": "66" * 32,
            "bcluster": "77" * 32,
        },
    )


class TestRunStore:
    def test_add_stores_under_fingerprint_and_indexes(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = _manifest()
        run_id = store.add(manifest)
        assert len(run_id) == RUN_ID_LENGTH
        path = store.path_for(manifest.fingerprint, run_id)
        assert path.is_file()
        (entry,) = store.entries()
        assert entry["run_id"] == run_id
        assert entry["fingerprint"] == manifest.fingerprint
        assert entry["created_at"] == manifest.created_at

    def test_re_adding_identical_content_is_a_noop(self, tmp_path):
        store = RunStore(tmp_path)
        first = store.add(_manifest())
        second = store.add(_manifest())
        assert first == second
        assert len(store.entries()) == 1

    def test_store_is_append_only_across_different_runs(self, tmp_path):
        store = RunStore(tmp_path)
        ids = [
            store.add(_manifest(created_at=f"2026-01-0{day}T00:00:00Z"))
            for day in (1, 2, 3)
        ]
        assert len(set(ids)) == 3
        assert [e["run_id"] for e in store.entries()] == ids

    def test_content_collision_with_different_payload_refused(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = _manifest()
        run_id = store.add(manifest)
        path = store.path_for(manifest.fingerprint, run_id)
        path.write_text(
            path.read_text(encoding="utf-8").replace('"seed": 7', '"seed": 8'),
            encoding="utf-8",
        )
        with pytest.raises(ValidationError):
            store.add(manifest)

    def test_load_and_prefix_resolution(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.add(_manifest())
        assert store.load(run_id) == store.load(run_id[:6])
        assert store.load(run_id).seed == 7
        with pytest.raises(ValidationError):
            store.resolve("zz")  # too short
        with pytest.raises(ValidationError):
            store.resolve("feedbeefcafe")  # no match

    def test_entries_filter_by_fingerprint(self, tmp_path):
        store = RunStore(tmp_path)
        store.add(_manifest())
        store.add(_manifest(fingerprint="cd" * 32, created_at="x"))
        assert len(store.entries()) == 2
        assert len(store.entries("cd" * 32)) == 1

    def test_fingerprint_filter_takes_a_prefix(self, tmp_path):
        store = RunStore(tmp_path)
        store.add(_manifest())
        store.add(_manifest(fingerprint="cd" * 32, created_at="x"))
        assert [e["fingerprint"] for e in store.entries("cdcd")] == ["cd" * 32]
        assert store.entries("efef") == []
        with pytest.raises(ValidationError, match="too short"):
            store.entries("cd")

    def test_only_manifests_are_runs(self, tmp_path):
        source = tmp_path / "windows.json"
        source.write_text(json.dumps(_windows_payload()))
        store = RunStore(tmp_path / "runs")
        manifest = _manifest()
        run_id = store.add(manifest, windows_path=source)
        rundir = store.path_for(manifest.fingerprint, run_id).parent
        (rundir / f"{run_id}.tmp.4242").write_text("{", encoding="utf-8")
        (rundir / f"{run_id}.windows.tmp.4242").write_text("{", encoding="utf-8")
        (rundir / f"{run_id}.model.json").write_text("{}", encoding="utf-8")
        assert store.run_files() == [store.path_for(manifest.fingerprint, run_id)]
        (entry,) = store.entries()
        assert entry["run_id"] == run_id and entry["windows"] is True
        assert validate_run_store(store.root) == {}

    def test_render_listing(self, tmp_path):
        store = RunStore(tmp_path)
        assert "empty" in store.render_listing()
        run_id = store.add(_manifest(golden_deviations=["events: off"]))
        listing = store.render_listing()
        assert run_id in listing
        assert "1 dev" in listing

    def test_render_listing_names_a_filter_that_removed_every_run(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.render_listing("efef") == f"run store {tmp_path}: empty"
        store.add(_manifest())
        assert store.render_listing("efef") == (
            f"run store {tmp_path}: no run matches fingerprint 'efef'"
        )
        assert "1 run(s)" in store.render_listing("abab")


class TestStoreValidation:
    def test_valid_store_has_no_errors(self, tmp_path):
        store = RunStore(tmp_path)
        store.add(_manifest())
        store.add(_manifest(seed=8))
        assert validate_run_store(tmp_path) == {}

    def test_empty_or_absent_store_is_valid(self, tmp_path):
        assert validate_run_store(tmp_path) == {}
        assert validate_run_store(tmp_path / "never-created") == {}
        # A committed top-level reference manifest is not a stored run.
        (tmp_path / "reference.json").write_text("{}", encoding="utf-8")
        assert validate_run_store(tmp_path) == {}

    def test_stored_runs_without_an_index_are_reported(self, tmp_path):
        # The tree is the store's only record: a run file nothing else
        # lists is still walked, and its manifest errors are reported.
        rundir = tmp_path / ("ab" * 32)
        rundir.mkdir()
        path = rundir / "deadbeefdeadbeef.json"
        path.write_text("{}", encoding="utf-8")
        failures = validate_run_store(tmp_path)
        assert list(failures) == [str(path)]
        assert any("manifest:" in error for error in failures[str(path)])

    def test_manifest_in_the_wrong_directory_is_reported(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = _manifest()
        run_id = store.add(manifest)
        stray = store.path_for("cd" * 32, run_id)
        stray.parent.mkdir(parents=True)
        stray.write_text(
            store.path_for(manifest.fingerprint, run_id).read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        failures = validate_run_store(tmp_path)
        assert list(failures) == [str(stray)]
        assert any("stored under directory" in e for e in failures[str(stray)])

    def test_leftover_index_files_are_ignored(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.add(_manifest())
        (tmp_path / "index.json").write_text('{"schema": 1, "entries": [', encoding="utf-8")
        (tmp_path / "query_index.json").write_text("[]", encoding="utf-8")
        assert validate_run_store(tmp_path) == {}
        assert [e["run_id"] for e in store.entries()] == [run_id]

    def test_edited_run_file_fails_the_content_address(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = _manifest()
        run_id = store.add(manifest)
        path = store.path_for(manifest.fingerprint, run_id)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["seed"] = 1234
        path.write_text(json.dumps(payload), encoding="utf-8")
        failures = validate_run_store(tmp_path)
        assert any("content address" in e for e in failures[str(path)])



class TestDiff:
    def test_identical_manifests_pass(self):
        diff = diff_manifests(_manifest(), _manifest())
        assert not diff.failed()
        assert diff.digest_divergence == {}
        assert diff.first_diverging_stage is None
        assert "identical" in diff.render()

    def test_digest_walk_names_the_first_diverging_stage(self):
        # epm and bcluster both diverge; epm finishes first, so the
        # walk must name epm, not bcluster and not the root.
        diff = diff_manifests(
            _manifest(),
            _manifest(epm_digest="aa" * 32, bcluster_digest="bb" * 32),
        )
        assert diff.failed()
        assert diff.first_diverging_stage == "epm"
        assert "first diverging stage: epm" in diff.render()

    def test_downstream_only_divergence_names_bcluster(self):
        diff = diff_manifests(_manifest(), _manifest(bcluster_digest="bb" * 32))
        assert diff.first_diverging_stage == "bcluster"

    def test_metric_deltas_reported(self):
        diff = diff_manifests(_manifest(clusters=9.0), _manifest(clusters=12.0))
        assert diff.metric_deltas == {"lsh.clusters": (9.0, 12.0)}

    def test_timing_regression_beyond_band(self):
        diff = diff_manifests(
            _manifest(observe_seconds=1.0), _manifest(observe_seconds=2.0)
        )
        regressed = {d.stage for d in diff.timing_regressions}
        assert regressed == {"observe"}
        # Timing alone never fails the gate unless opted in.
        assert not diff.failed()
        assert diff.failed(fail_on_timing=True)

    def test_sub_noise_floor_timing_is_never_a_regression(self):
        diff = diff_manifests(
            _manifest(observe_seconds=0.001), _manifest(observe_seconds=0.01)
        )
        assert diff.timing_regressions == []

    def test_timing_flags_are_the_band_detectors(self):
        rule = band_rule("span:observe")
        for seconds_b in (0.5, 1.2, 1.49, 1.51, 3.0):
            diff = diff_manifests(
                _manifest(observe_seconds=1.0),
                _manifest(observe_seconds=seconds_b),
            )
            flagged = bool(band_scan(rule, [1.0, seconds_b]))
            assert (diff.timing_regressions != []) == flagged, seconds_b
        # One-sided: a run that got faster is never a regression.
        faster = diff_manifests(
            _manifest(observe_seconds=3.0), _manifest(observe_seconds=1.0)
        )
        assert faster.timing_regressions == []

    def test_stage_rows_follow_the_span_tree_order(self):
        diff = diff_manifests(_manifest(), _manifest())
        assert [row.stage for row in diff.stages] == ["observe", "epm", "bcluster"]
        (observe, *_rest) = diff.stages
        assert observe.presence == "both"
        assert (observe.cache_a, observe.cache_b) == ("off", "off")
        assert not observe.rekeyed

    def test_stage_in_one_run_only_is_added_or_removed(self):
        reference = _manifest().as_dict()
        candidate = json.loads(json.dumps(reference))
        candidate["span_tree"]["children"].insert(
            2, {"name": "bgraph", "seconds": 9.0, "attributes": {"cache": "off"}}
        )
        diff = diff_manifests(reference, candidate)
        assert [row.stage for row in diff.stages] == [
            "observe", "epm", "bgraph", "bcluster"
        ]
        bgraph = diff.stages[2]
        assert (bgraph.presence, bgraph.seconds_a, bgraph.seconds_b) == (
            "added", None, 9.0
        )
        assert diff.timing_regressions == []  # 0 s -> 9 s is not a ratio
        text = diff.render()
        assert "added" in text and "inf" not in text
        (removed,) = [
            row for row in diff_manifests(candidate, reference).stages
            if row.stage == "bgraph"
        ]
        assert removed.presence == "removed" and not removed.regression

    def test_replays_are_not_compared_but_computed_stages_are(self):
        def manifest(cache: str, seconds: float) -> dict:
            payload = _manifest(observe_seconds=seconds).as_dict()
            payload["span_tree"]["children"][0]["attributes"]["cache"] = cache
            return payload

        replays = diff_manifests(manifest("hit", 0.01), manifest("hit", 1.0))
        observe = replays.stages[0]
        assert (observe.seconds_a, observe.seconds_b) == (None, None)
        assert replays.timing_regressions == []
        computed = diff_manifests(manifest("off", 1.0), manifest("miss", 2.0))
        assert [row.stage for row in computed.timing_regressions] == ["observe"]
        assert "REGRESSION" in computed.render()

    def test_json_form_carries_every_section(self):
        diff = diff_manifests(_manifest(), _manifest(bcluster_digest="bb" * 32))
        payload = json.loads(diff.to_json())
        assert payload["digest_divergence"] == {
            "bclusters.assignment": ["33" * 32, "bb" * 32]
        }
        assert payload["first_diverging_stage"] == "bcluster"
        assert [row["stage"] for row in payload["stages"]] == [
            "observe", "epm", "bcluster"
        ]
        assert payload["stages"][0]["delta_seconds"] == 0.0
        assert payload["config_delta"] == {}
        assert payload["attributed_seconds"] is None

    def test_cli_removed_cost_and_tolerance_options_are_usage_errors(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "a.json"
        path.write_text(_manifest().to_json(), encoding="utf-8")
        for argv in (
            ["obs", "cost", str(path), str(path)],
            ["obs", "diff", str(path), str(path), "--timing-tolerance", "2"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        assert "invalid choice: 'cost'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["obs", "--help"])
        usage = capsys.readouterr().out
        commands = usage[usage.index("{") + 1 : usage.index("}")].split(",")
        assert len(commands) == 8 and "diff" in commands

    def test_new_golden_deviations_fail(self):
        reference = _manifest(golden_deviations=["events: expected 1, measured 2"])
        same = diff_manifests(reference, reference)
        assert not same.failed()  # identical deviations are not *new*
        diff = diff_manifests(
            reference,
            _manifest(
                golden_deviations=[
                    "events: expected 1, measured 2",
                    "b_clusters: expected 961, measured 900",
                ]
            ),
        )
        assert diff.new_golden_deviations == [
            "b_clusters: expected 961, measured 900"
        ]
        assert diff.failed()

    def test_cross_config_diff_is_labelled(self):
        diff = diff_manifests(_manifest(), _manifest(fingerprint="cd" * 32))
        assert not diff.same_config
        assert "fingerprints differ" in diff.render()


class TestHistory:
    def _store(self, tmp_path) -> RunStore:
        store = RunStore(tmp_path)
        for day, clusters in enumerate((9.0, 9.0, 10.0, 30.0), start=1):
            store.add(
                _manifest(
                    clusters=clusters,
                    created_at=f"2026-01-{day:02d}T00:00:00Z",
                    golden_deviations=["b: off"] if clusters == 30.0 else [],
                )
            )
        return store

    def test_metric_value_lookup_modes(self):
        payload = _manifest().as_dict()
        assert metric_value(payload, "lsh.clusters") == 9.0
        # Span seconds are the span: selector's, not a metric dialect.
        assert metric_value(payload, "stage:observe") is None
        assert resolve_target(payload, None, "span:observe") == 1.0
        assert metric_value(payload, "no.such.metric") is None

    def test_metric_value_sums_labelled_keys(self):
        manifest = _manifest()
        manifest.metrics["gauges"] = {
            "epm.clusters{dimension=mu}": 4.0,
            "epm.clusters{dimension=pi}": 2.0,
        }
        assert metric_value(manifest.as_dict(), "epm.clusters") == 6.0

    def test_history_flags_drift_and_golden_deviation(self, tmp_path, capsys):
        from repro.cli import main

        store = self._store(tmp_path)
        stepped = store.entries()[-1]["run_id"]  # 30.0 clusters, one deviation
        capsys.readouterr()
        argv = ["obs", "regress", "--runs", str(tmp_path), "--json"]
        assert main([*argv, "--targets", "metric:lsh.clusters"]) == 1
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert {f["run_id"] for f in findings} == {stepped}
        assert "band" in {f["detector"] for f in findings}
        argv = ["obs", "query", "golden:deviations", "--runs", str(tmp_path), "--json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert {row["run_id"]: row["values"]["golden:deviations"] for row in rows} == {
            entry["run_id"]: 1 if entry["run_id"] == stepped else 0
            for entry in store.entries()
        }

    def test_history_handles_absent_metric(self, tmp_path):
        frame = build_frame(self._store(tmp_path))
        result = run_query(frame, ["metric:no.such.metric"], agg="mean")
        assert [row["values"]["metric:no.such.metric"] for row in result.rows] == [None] * 4
        assert "n/a" in result.render()
        rule = band_rule("metric:no.such.metric")
        assert run_regression(frame, rules=(rule,)).findings == []

    def test_empty_store_history(self, tmp_path):
        report = run_regression(build_frame(RunStore(tmp_path)))
        assert (report.runs_scanned, report.findings) == (0, [])
        assert "clean" in report.render()

    def test_two_stable_configs_flag_nothing(self, tmp_path):
        store = RunStore(tmp_path)
        for day, (fingerprint, clusters) in enumerate(
            [("ab" * 32, 30.0), ("cd" * 32, 961.0)] * 2, start=1
        ):
            store.add(
                _manifest(
                    fingerprint=fingerprint,
                    clusters=clusters,
                    created_at=f"2026-01-{day:02d}T00:00:00Z",
                )
            )
        report = run_regression(build_frame(store))
        assert report.fingerprints_scanned == 2
        assert report.findings == []

    @pytest.mark.parametrize("target", ["metric:lsh.clusters", "span:observe"])
    def test_drift_flags_are_the_band_rule_findings(self, tmp_path, capsys, target):
        from repro.cli import main

        store = RunStore(tmp_path)
        for day, (fingerprint, clusters, seconds) in enumerate(
            [
                ("ab" * 32, 9.0, 1.0),
                ("cd" * 32, 500.0, 1.0),
                ("ab" * 32, 30.0, 1.0),
                ("ab" * 32, 9.0, 3.0),
                ("cd" * 32, 520.0, 1.1),
                ("cd" * 32, 100.0, 1.0),
            ],
            start=1,
        ):
            store.add(
                _manifest(
                    fingerprint=fingerprint,
                    clusters=clusters,
                    observe_seconds=seconds,
                    created_at=f"2026-01-{day:02d}T00:00:00Z",
                )
            )
        capsys.readouterr()
        argv = ["obs", "regress", "--runs", str(tmp_path), "--targets", target, "--json"]
        # Timing rules are warning-severity: they report but never gate.
        assert main(argv) == (1 if target.startswith("metric:") else 0)
        findings = json.loads(capsys.readouterr().out)["findings"]
        flagged = {(f["fingerprint"], f["run_id"]) for f in findings if f["detector"] == "band"}
        report = run_regression(build_frame(store), rules=(band_rule(target),))
        assert flagged == {(f.fingerprint, f.run_id) for f in report.findings}
        assert flagged  # the series above do step

    def test_first_diverging_stage_helper_handles_empty_trees(self):
        assert first_diverging_stage({}, {}) is None


def _event_log(*specs):
    """Build a list of PipelineEvents from (kind, fields) pairs."""
    from repro.obs.events import PipelineEvent

    return [
        PipelineEvent(seq=index, t=float(index), kind=kind, fields=dict(fields))
        for index, (kind, fields) in enumerate(specs)
    ]


class TestStoredEventLogs:
    """Event-log ingestion into the run store and replay from it."""

    def _log_file(self, tmp_path):
        # one stage.finish per non-root span of _manifest()'s tree, so
        # the store validator's events/manifest crosscheck passes
        events = _event_log(
            ("run.start", {"seed": 7}),
            ("stage.start", {"stage": "observe"}),
            ("stage.finish", {"stage": "observe", "seconds": 1.0}),
            ("stage.start", {"stage": "epm"}),
            ("stage.finish", {"stage": "epm", "seconds": 0.3}),
            ("stage.start", {"stage": "bcluster"}),
            ("stage.finish", {"stage": "bcluster", "seconds": 0.2}),
            ("run.finish", {"seconds": 1.5}),
        )
        path = tmp_path / "events.jsonl"
        path.write_text("".join(event.to_json() + "\n" for event in events))
        return path, events

    def test_add_ingests_and_load_events_replays(self, tmp_path):
        source, events = self._log_file(tmp_path)
        store = RunStore(tmp_path / "runs")
        run_id = store.add(_manifest(), events_path=source)
        stored = store.load_events(run_id)
        assert stored is not None
        assert [event.kind for event in stored] == [event.kind for event in events]
        assert [event.fields for event in stored] == [event.fields for event in events]

    def test_events_file_lands_next_to_the_manifest(self, tmp_path):
        source, _events = self._log_file(tmp_path)
        store = RunStore(tmp_path / "runs")
        run_id = store.add(_manifest(), events_path=source)
        target = store.events_path_for(_manifest().fingerprint, run_id)
        assert target.is_file()
        assert target.read_text() == source.read_text()

    def test_load_events_none_when_no_log_stored(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run_id = store.add(_manifest())
        assert store.load_events(run_id) is None

    def test_store_with_event_logs_validates(self, tmp_path):
        source, _events = self._log_file(tmp_path)
        store = RunStore(tmp_path / "runs")
        store.add(_manifest(), events_path=source)
        assert validate_run_store(store.root) == {}

    def test_corrupt_stored_log_fails_validation(self, tmp_path):
        source, _events = self._log_file(tmp_path)
        store = RunStore(tmp_path / "runs")
        run_id = store.add(_manifest(), events_path=source)
        target = store.events_path_for(_manifest().fingerprint, run_id)
        # The corrupt marker is a mid-stream gap (0 -> 5).
        target.write_text(
            '{"schema": 1, "seq": 0, "kind": "run.start", "t": 0.0}\n'
            '{"schema": 1, "seq": 5, "kind": "nope", "t": 0.0}\n'
        )
        failures = validate_run_store(store.root)
        flat = [error for errors in failures.values() for error in errors]
        assert any("unknown event kind" in error for error in flat)
        assert any("seq" in error for error in flat)


class TestEventDiff:
    """Divergence attribution down to the first semantic event."""

    def _baseline(self):
        return _event_log(
            ("run.start", {"seed": 7}),
            ("stage.start", {"stage": "observe", "depth": 1}),
            ("cache.stage_miss", {"stage": "observe"}),
            ("stage.finish", {"stage": "observe", "seconds": 0.5}),
            ("cluster.milestone", {"perspective": "e", "clusters": 10}),
            ("run.finish", {"seconds": 1.0}),
        )

    def test_identical_logs_have_no_divergence(self):
        assert first_diverging_event(self._baseline(), self._baseline()) is None

    def test_volatile_fields_are_ignored(self):
        noisy = _event_log(
            ("run.start", {"seed": 7}),
            ("stage.start", {"stage": "observe", "depth": 1}),
            ("cache.stage_hit", {"stage": "observe"}),
            ("stage.finish", {"stage": "observe", "seconds": 9.9}),
            ("cluster.milestone", {"perspective": "e", "clusters": 10}),
            ("run.finish", {"seconds": 9.9}),
        )
        # seconds are volatile; cache events are not semantic at all —
        # a cold and a warm run of one config must compare clean
        assert first_diverging_event(self._baseline(), noisy) is None

    def test_milestone_change_is_attributed(self):
        changed = _event_log(
            ("run.start", {"seed": 7}),
            ("stage.start", {"stage": "observe", "depth": 1}),
            ("cache.stage_miss", {"stage": "observe"}),
            ("stage.finish", {"stage": "observe", "seconds": 0.5}),
            ("cluster.milestone", {"perspective": "e", "clusters": 11}),
            ("run.finish", {"seconds": 1.0}),
        )
        description = first_diverging_event(self._baseline(), changed)
        assert description is not None
        assert "cluster.milestone" in description
        assert "clusters=10" in description and "clusters=11" in description

    def test_extra_trailing_events_are_reported(self):
        longer = self._baseline() + _event_log(
            ("golden.deviation", {"detail": "b_clusters off"})
        )
        description = first_diverging_event(self._baseline(), longer)
        assert description is not None and "candidate" in description

    def test_diff_manifests_carries_event_attribution(self):
        a = _manifest()
        b = _manifest(epm_digest="ee" * 32, bcluster_digest="ff" * 32)
        changed = _event_log(
            ("run.start", {"seed": 7}),
            ("cluster.milestone", {"perspective": "e", "clusters": 11}),
        )
        baseline = _event_log(
            ("run.start", {"seed": 7}),
            ("cluster.milestone", {"perspective": "e", "clusters": 10}),
        )
        diff = diff_manifests(a, b, events_a=baseline, events_b=changed)
        assert diff.first_diverging_event is not None
        assert "cluster.milestone" in diff.first_diverging_event
        assert "first diverging event" in diff.render()

    def test_no_event_attribution_without_logs(self):
        a = _manifest()
        b = _manifest(epm_digest="ee" * 32)
        assert diff_manifests(a, b).first_diverging_event is None


def _sketch_payload(*values: float) -> dict:
    sketch = QuantileSketch()
    for value in values:
        sketch.observe(value)
    return sketch.as_dict()


class TestHistogramQuantileHistory:
    """``<key>:pNN`` quantiles of a run's distribution sketches."""

    def test_metric_value_quantile_mode(self):
        manifest = _manifest()
        manifest.metrics["sketches"] = {
            "lsh.bucket_size": _sketch_payload(0.005, 0.005, 0.05, 0.1)
        }
        payload = manifest.as_dict()
        median = metric_value(payload, "lsh.bucket_size:p50")
        assert median == pytest.approx(0.005, rel=DEFAULT_ALPHA)
        p100 = metric_value(payload, "lsh.bucket_size:p100")
        assert p100 == pytest.approx(0.1, rel=DEFAULT_ALPHA)
        assert metric_value(payload, "absent.sketch:p50") is None
        assert metric_value(payload, "lsh.bucket_size:p200") is None

    def test_quantile_mode_resolves_unique_labelled_key(self):
        manifest = _manifest()
        manifest.metrics["sketches"] = {"io.seconds{op=read}": _sketch_payload(0.5, 1.0)}
        assert metric_value(manifest.as_dict(), "io.seconds:p50") is not None

    def test_quantile_mode_refuses_ambiguous_labels(self):
        manifest = _manifest()
        manifest.metrics["sketches"] = {
            "io.seconds{op=read}": _sketch_payload(0.5, 1.0),
            "io.seconds{op=write}": _sketch_payload(0.5, 1.0),
        }
        assert metric_value(manifest.as_dict(), "io.seconds:p50") is None


def _windows_payload(fingerprint: str = "ab" * 32) -> dict:
    from repro.obs.windows import WINDOW_SERIES, WindowReport

    return WindowReport(
        fingerprint=fingerprint,
        seed=7,
        window_weeks=4,
        n_windows=2,
        series={name: [1.0, 2.0] for name in WINDOW_SERIES},
        crossview={"joint_samples": 4},
    ).as_dict()


class TestStoredWindowReports:
    """Window-report sidecar ingestion, lookup and validation."""

    def _sidecar(self, tmp_path):
        path = tmp_path / "windows.json"
        path.write_text(
            json.dumps(_windows_payload(), sort_keys=True, indent=2) + "\n"
        )
        return path

    def test_add_ingests_and_load_windows_reads_back(self, tmp_path):
        source = self._sidecar(tmp_path)
        store = RunStore(tmp_path / "runs")
        run_id = store.add(_manifest(), windows_path=source)
        assert store.load_windows(run_id) == _windows_payload()
        assert store.entries()[0]["windows"] is True

    def test_sidecar_lands_next_to_the_manifest(self, tmp_path):
        source = self._sidecar(tmp_path)
        store = RunStore(tmp_path / "runs")
        run_id = store.add(_manifest(), windows_path=source)
        target = store.windows_path_for(_manifest().fingerprint, run_id)
        assert target.is_file()
        assert target.read_text() == source.read_text()

    def test_load_windows_none_when_no_sidecar_stored(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run_id = store.add(_manifest())
        assert store.load_windows(run_id) is None
        assert store.entries()[0]["windows"] is False

    def test_load_windows_pairs_with_bare_manifest_paths(self, tmp_path):
        # reference.json next to reference.windows.json — the CI layout
        manifest_path = tmp_path / "reference.json"
        manifest_path.write_text(_manifest().to_json() + "\n")
        (tmp_path / "reference.windows.json").write_text(
            json.dumps(_windows_payload()) + "\n"
        )
        store = RunStore(tmp_path / "runs")
        assert store.load_windows(str(manifest_path)) == _windows_payload()

    def test_store_with_window_sidecars_validates(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.add(_manifest(), windows_path=self._sidecar(tmp_path))
        assert validate_run_store(store.root) == {}

    def test_mismatched_sidecar_fingerprint_fails_validation(self, tmp_path):
        source = tmp_path / "windows.json"
        source.write_text(json.dumps(_windows_payload(fingerprint="cd" * 32)))
        store = RunStore(tmp_path / "runs")
        store.add(_manifest(), windows_path=source)
        failures = validate_run_store(store.root)
        flat = [error for errors in failures.values() for error in errors]
        assert any("fingerprint" in error for error in flat)

    def test_missing_sidecar_source_refused(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        with pytest.raises(ValidationError):
            store.add(_manifest(), windows_path=tmp_path / "nope.json")
        assert store.entries() == []  # refused before anything was written


class TestResolveEdgeCases:
    def _synthetic_runs(self, store, runs):
        """Empty run files at ``<fingerprint>/<run_id>.json``: resolving
        matches names and reads no file."""
        for fingerprint, run_id in runs:
            path = store.path_for(fingerprint, run_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("", encoding="utf-8")

    def test_too_short_prefix_names_the_requirement(self, tmp_path):
        store = RunStore(tmp_path)
        store.add(_manifest())
        with pytest.raises(ValidationError, match="too short"):
            store.resolve("abc")

    def test_unknown_prefix_names_the_store_root(self, tmp_path):
        store = RunStore(tmp_path)
        store.add(_manifest())
        with pytest.raises(ValidationError, match="no stored run matches"):
            store.resolve("feedbeef")

    def test_ambiguous_prefix_lists_every_match(self, tmp_path):
        store = RunStore(tmp_path)
        self._synthetic_runs(
            store,
            [("ab" * 32, "deadbeefaaaaaaaa"), ("cd" * 32, "deadbeefbbbbbbbb")],
        )
        with pytest.raises(ValidationError, match="ambiguous run ref") as info:
            store.resolve("deadbeef")
        assert "deadbeefaaaaaaaa" in str(info.value)
        assert "deadbeefbbbbbbbb" in str(info.value)

    def test_fingerprint_qualifier_disambiguates(self, tmp_path):
        store = RunStore(tmp_path)
        self._synthetic_runs(
            store,
            [("ab" * 32, "deadbeefaaaaaaaa"), ("cd" * 32, "deadbeefbbbbbbbb")],
        )
        resolved = store.resolve("abab/deadbeef")
        assert resolved.name == "deadbeefaaaaaaaa.json"
        assert resolved.parent.name == "ab" * 32

    def test_qualified_ref_resolves_a_stored_run(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.add(_manifest())
        store.add(_manifest(fingerprint="cd" * 32))
        resolved = store.resolve(f"abab/{run_id[:6]}")
        assert resolved == store.path_for("ab" * 32, run_id)

    def test_qualified_ref_error_paths(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.add(_manifest())
        with pytest.raises(ValidationError, match="fingerprint prefix"):
            store.resolve(f"ab/{run_id[:6]}")  # fp prefix too short
        with pytest.raises(ValidationError, match="too short"):
            store.resolve(f"abab/{run_id[:2]}")  # run prefix too short
        with pytest.raises(ValidationError, match="no stored run matches"):
            store.resolve(f"cdcd/{run_id[:6]}")  # wrong configuration


class TestEntriesOrdering:
    def test_entries_sorted_by_created_at_regardless_of_add_order(self, tmp_path):
        store = RunStore(tmp_path)
        for day in (3, 1, 2):
            store.add(_manifest(created_at=f"2026-01-0{day}T00:00:00Z"))
        stamps = [e["created_at"] for e in store.entries()]
        assert stamps == sorted(stamps)

    def test_limit_keeps_the_newest_entries(self, tmp_path):
        store = RunStore(tmp_path)
        for day in (1, 2, 3):
            store.add(_manifest(created_at=f"2026-01-0{day}T00:00:00Z"))
        newest = store.entries(limit=2)
        assert [e["created_at"][:10] for e in newest] == [
            "2026-01-02",
            "2026-01-03",
        ]
        with pytest.raises(ValidationError):
            store.entries(limit=0)
