"""The longitudinal analytics frame (selectors, store walk, query) and
the cost attribution of a config delta."""

import json

import pytest

from repro.obs.diff import diff_manifests
from repro.obs.history import RunStore
from repro.obs.manifest import RunManifest
from repro.obs.query import (
    aggregate,
    build_frame,
    parse_target,
    resolve_target,
    run_query,
)
from repro.obs.windows import WINDOW_SERIES, WindowReport
from repro.util.canonical import flatten_canonical
from repro.util.validation import ValidationError

from tests.helpers import frame_from_payloads


def _manifest(
    *,
    seed: int = 7,
    fingerprint: str = "ab" * 32,
    clusters: float = 9.0,
    observe_seconds: float = 1.0,
    observe_cache: str = "off",
    created_at: str = "2026-01-01T00:00:00Z",
    golden_deviations: list | None = None,
    stage_fingerprints: dict | None = None,
    config: dict | None = None,
) -> RunManifest:
    span_tree = {
        "name": "scenario",
        "seconds": observe_seconds + 0.5,
        "attributes": {"output_digest": "44" * 32},
        "children": [
            {
                "name": "observe",
                "seconds": observe_seconds,
                "attributes": {
                    "output_digest": "11" * 32,
                    "cache": observe_cache,
                    "cpu_seconds": observe_seconds * 0.9,
                    "max_rss_kb": 5000.0,
                },
            },
            {
                "name": "bcluster",
                "seconds": 0.2,
                "attributes": {"output_digest": "33" * 32, "cache": "off"},
            },
        ],
    }
    return RunManifest(
        fingerprint=fingerprint,
        seed=seed,
        config=config or {"n_weeks": 10},
        library_version="1.0.0",
        span_tree=span_tree,
        metrics={
            "schema": 3,
            "counters": {"lsh.candidate_pairs": 100.0},
            "gauges": {"lsh.clusters": clusters},
            "sketches": {},
        },
        artifact_digests={
            "dataset.events": "11" * 32,
            "epm.clusters": "22" * 32,
            "bclusters.assignment": "33" * 32,
            "headline": "44" * 32,
        },
        created_at=created_at,
        golden_deviations=golden_deviations or [],
        stage_fingerprints=stage_fingerprints
        or {"observe": "55" * 32, "bcluster": "77" * 32},
    )


def _windows_payload(fingerprint: str = "ab" * 32, events=(4.0, 8.0)) -> dict:
    return WindowReport(
        fingerprint=fingerprint,
        seed=7,
        window_weeks=4,
        n_windows=len(events),
        series={
            name: list(events) if name == "events" else [1.0] * len(events)
            for name in WINDOW_SERIES
        },
        crossview={"joint_samples": 4},
    ).as_dict()


def _store(tmp_path, days=(1, 2, 3), clusters=(9.0, 9.0, 9.0)) -> RunStore:
    store = RunStore(tmp_path / "runs")
    for day, value in zip(days, clusters):
        store.add(
            _manifest(
                created_at=f"2026-01-{day:02d}T00:00:00Z", clusters=value
            )
        )
    return store


class TestTargetGrammar:
    def test_parse_target_splits_scheme_and_key(self):
        assert parse_target("metric:lsh.clusters") == ("metric", "lsh.clusters")
        assert parse_target("span:observe/cpu_seconds") == (
            "span",
            "observe/cpu_seconds",
        )

    @pytest.mark.parametrize("bad", ["lsh.clusters", "stage:observe", "metric:"])
    def test_malformed_targets_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_target(bad)

    def test_metric_selector_resolves_through_metric_value(self):
        payload = _manifest().as_dict()
        assert resolve_target(payload, None, "metric:lsh.clusters") == 9.0
        assert resolve_target(payload, None, "metric:no.such") is None

    def test_golden_selector_counts_deviations(self):
        payload = _manifest(golden_deviations=["a", "b"]).as_dict()
        assert resolve_target(payload, None, "golden:deviations") == 2.0
        with pytest.raises(ValidationError):
            resolve_target(payload, None, "golden:something_else")

    def test_span_selector_reads_seconds_and_profile_attrs(self):
        payload = _manifest(observe_seconds=2.0).as_dict()
        assert resolve_target(payload, None, "span:observe") == 2.0
        assert resolve_target(payload, None, "span:observe/cpu_seconds") == 1.8
        assert resolve_target(payload, None, "span:observe/max_rss_kb") == 5000.0
        assert resolve_target(payload, None, "span:nonexistent") is None

    def test_replayed_span_resolves_to_none(self):
        # A cache hit loads a pickle in milliseconds: its wall time must
        # never enter a timing series next to real compute seconds.
        payload = _manifest(observe_cache="hit").as_dict()
        assert resolve_target(payload, None, "span:observe") is None
        assert resolve_target(payload, None, "span:observe/cpu_seconds") is None

    def test_unknown_span_attribute_rejected(self):
        with pytest.raises(ValidationError):
            resolve_target(_manifest().as_dict(), None, "span:observe/disk_io")

    def test_series_selector_reads_window_series(self):
        windows = _windows_payload(events=(4.0, 8.0))
        assert resolve_target({}, windows, "series:events") == [4.0, 8.0]
        assert resolve_target({}, None, "series:events") is None


class TestAggregate:
    def test_basic_aggregations(self):
        values = [3.0, 1.0, 2.0]
        assert aggregate(values, "min") == 1.0
        assert aggregate(values, "max") == 3.0
        assert aggregate(values, "mean") == 2.0

    def test_quantiles_interpolate_linearly(self):
        assert aggregate([1.0, 2.0, 3.0, 4.0], "p50") == 2.5
        assert aggregate([1.0, 2.0, 3.0], "p0") == 1.0
        assert aggregate([1.0, 2.0, 3.0], "p100") == 3.0

    def test_none_entries_are_skipped_not_zeroed(self):
        assert aggregate([None, 4.0, None, 6.0], "mean") == 5.0
        assert aggregate([None, None], "p50") is None

    @pytest.mark.parametrize("bad", ["median", "p101", "p", "sum"])
    def test_unknown_aggregations_rejected(self, bad):
        with pytest.raises(ValidationError):
            aggregate([1.0], bad)


class TestQueryFrame:
    def test_rows_sorted_by_created_at_then_run_id(self):
        payloads = [
            _manifest(created_at=f"2026-01-{day:02d}T00:00:00Z").as_dict()
            for day in (3, 1, 2)
        ]
        frame = frame_from_payloads(payloads)
        assert [row.created_at[:10] for row in frame.rows] == [
            "2026-01-01",
            "2026-01-02",
            "2026-01-03",
        ]

    def test_digest_is_deterministic_and_order_insensitive(self):
        payloads = [
            _manifest(created_at=f"2026-01-{day:02d}T00:00:00Z").as_dict()
            for day in (1, 2, 3)
        ]
        forward = frame_from_payloads(payloads)
        shuffled = frame_from_payloads(list(reversed(payloads)))
        assert forward.digest() == shuffled.digest()

    def test_filter_by_fingerprint_prefix_and_limit(self):
        payloads = [
            _manifest(created_at="2026-01-01T00:00:00Z").as_dict(),
            _manifest(
                fingerprint="cd" * 32, created_at="2026-01-02T00:00:00Z"
            ).as_dict(),
            _manifest(created_at="2026-01-03T00:00:00Z").as_dict(),
        ]
        frame = frame_from_payloads(payloads)
        assert len(frame.filter(fingerprint="abab")) == 2
        newest = frame.filter(limit=1)
        assert len(newest) == 1
        assert newest.rows[0].created_at.startswith("2026-01-03")
        with pytest.raises(ValidationError):
            frame.filter(fingerprint="ab")  # prefix too short
        with pytest.raises(ValidationError):
            frame.filter(limit=0)

    def test_grouped_splits_per_fingerprint(self):
        frame = frame_from_payloads(
            [
                _manifest().as_dict(),
                _manifest(fingerprint="cd" * 32, seed=8).as_dict(),
            ]
        )
        groups = frame.grouped()
        assert set(groups) == {"ab" * 32, "cd" * 32}
        assert all(len(group) == 1 for group in groups.values())

    def test_column_is_row_aligned_and_cached(self):
        frame = frame_from_payloads(
            [
                _manifest(clusters=9.0, created_at="2026-01-01T00:00:00Z").as_dict(),
                _manifest(clusters=12.0, created_at="2026-01-02T00:00:00Z").as_dict(),
            ]
        )
        column = frame.column("metric:lsh.clusters")
        assert column == [9.0, 12.0]
        assert frame.column("metric:lsh.clusters") is column


class TestStoreFrame:
    """build_frame reads the store's tree; nothing is persisted."""

    def test_build_frame_writes_nothing(self, tmp_path):
        store = _store(tmp_path)
        before = sorted(store.root.rglob("*"))
        assert len(build_frame(store)) == 3
        assert sorted(store.root.rglob("*")) == before

    def test_new_runs_show_up_without_a_refresh(self, tmp_path):
        store = _store(tmp_path, days=(1, 2), clusters=(9.0, 9.0))
        assert len(build_frame(store)) == 2
        store.add(_manifest(created_at="2026-01-03T00:00:00Z"))
        assert len(build_frame(store)) == 3

    def test_digest_keys_on_run_id_and_window_payload(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        sidecar = tmp_path / "w.json"
        sidecar.write_text(json.dumps(_windows_payload(events=(4.0, 8.0))))
        store.add(_manifest(), windows_path=sidecar)
        first = build_frame(store).digest()
        assert build_frame(store).digest() == first
        sidecar.write_text(json.dumps(_windows_payload(events=(5.0, 8.0))))
        store.add(_manifest(), windows_path=sidecar)  # same run, new sidecar
        assert build_frame(store).digest() != first

    def test_rows_carry_the_stored_ids_and_payloads(self, tmp_path):
        store = _store(tmp_path, clusters=(8.0, 9.0, 13.0))
        frame = build_frame(store)
        assert [row.run_id for row in frame.rows] == [
            entry["run_id"] for entry in store.entries()
        ]
        assert frame.column("metric:lsh.clusters") == [8.0, 9.0, 13.0]

    def test_fingerprint_prefix_skips_other_configs(self, tmp_path):
        store = _store(tmp_path, days=(1,), clusters=(9.0,))
        store.add(_manifest(fingerprint="cd" * 32, created_at="2026-01-02T00:00:00Z"))
        assert [row.fingerprint for row in build_frame(store, fingerprint="cdcd").rows] == [
            "cd" * 32
        ]
        with pytest.raises(ValidationError, match="too short"):
            build_frame(store, fingerprint="cd")


class TestRunQuery:
    def test_scalar_target_with_aggregate(self, tmp_path):
        store = _store(tmp_path, clusters=(8.0, 9.0, 13.0))
        result = run_query(
            build_frame(store), ["metric:lsh.clusters"], agg="p50"
        )
        assert result.aggregates["metric:lsh.clusters"] == 9.0
        assert len(result.rows) == 3

    def test_series_target_reduces_per_run_then_across_runs(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        for day, events in ((1, (4.0, 8.0)), (2, (6.0, 10.0))):
            manifest = _manifest(created_at=f"2026-01-{day:02d}T00:00:00Z")
            sidecar = tmp_path / f"w{day}.json"
            sidecar.write_text(json.dumps(_windows_payload(events=events)))
            store.add(manifest, windows_path=sidecar)
        result = run_query(build_frame(store), ["series:events"], agg="mean")
        # per-run means 6.0 and 8.0, cross-run mean 7.0
        assert [row["values"]["series:events"] for row in result.rows] == [6.0, 8.0]
        assert result.aggregates["series:events"] == 7.0

    def test_render_table_and_json(self, tmp_path):
        store = _store(tmp_path)
        result = run_query(
            build_frame(store), ["metric:lsh.clusters", "span:observe"], agg="max"
        )
        table = result.render()
        assert "metric:lsh.clusters" in table and "span:observe" in table
        parsed = json.loads(result.to_json())
        assert parsed["aggregates"]["metric:lsh.clusters"] == 9.0
        assert parsed["frame_digest"] == build_frame(store).digest()

    def test_include_adds_bare_manifest_with_windows_sidecar(self, tmp_path):
        store = _store(tmp_path, days=(1, 2), clusters=(9.0, 9.0))
        reference = tmp_path / "reference.json"
        reference.write_text(
            _manifest(created_at="2026-01-09T00:00:00Z", clusters=11.0).to_json()
        )
        (tmp_path / "reference.windows.json").write_text(
            json.dumps(_windows_payload(events=(5.0, 5.0)))
        )
        frame = build_frame(store, include=[reference])
        assert len(frame) == 3
        assert frame.rows[-1].windows is not None
        with pytest.raises(ValidationError):
            build_frame(store, include=[tmp_path / "missing.json"])

    def test_query_needs_targets_and_valid_agg(self, tmp_path):
        frame = build_frame(_store(tmp_path))
        with pytest.raises(ValidationError):
            run_query(frame, [])
        with pytest.raises(ValidationError):
            run_query(frame, ["metric:lsh.clusters"], agg="median")

    def test_empty_store_renders_placeholder(self, tmp_path):
        frame = build_frame(RunStore(tmp_path / "runs"))
        assert "no stored runs" in run_query(frame, ["metric:x"]).render()


class TestCostAttribution:
    """The cost of a config delta, as :func:`diff_manifests` attributes it."""

    def _payloads(self):
        base_config = {
            "__type__": "ScenarioConfig",
            "n_weeks": 10,
            "clustering": {"__type__": "ClusteringConfig", "threshold": 0.7},
        }
        changed_config = json.loads(json.dumps(base_config))
        changed_config["clustering"]["threshold"] = 0.5
        a = _manifest(config=base_config, observe_seconds=1.0).as_dict()
        b = _manifest(
            fingerprint="cd" * 32,
            config=changed_config,
            observe_seconds=1.1,
            stage_fingerprints={"observe": "55" * 32, "bcluster": "88" * 32},
        ).as_dict()
        return a, b

    def test_config_delta_uses_dotted_keys(self):
        diff = diff_manifests(*self._payloads())
        assert diff.config_delta == {"clustering.threshold": (0.7, 0.5)}

    def test_rekeyed_stages_follow_stage_fingerprints(self):
        diff = diff_manifests(*self._payloads())
        by_name = {row.stage: row for row in diff.stages}
        assert not by_name["observe"].rekeyed
        assert by_name["bcluster"].rekeyed
        assert by_name["observe"].cpu_b == pytest.approx(0.99)
        assert by_name["observe"].rss_a == 5000.0

    def test_attributed_seconds_sums_only_rekeyed_stages(self):
        diff = diff_manifests(*self._payloads())
        # observe drifted by 0.1s but was not re-keyed: only bcluster's
        # delta (0.0s here) may enter the attributed bill.
        assert diff.attributed_seconds == pytest.approx(0.0)

    def test_replayed_stage_contributes_no_seconds(self):
        a, _ = self._payloads()
        b = _manifest(observe_cache="hit").as_dict()
        by_name = {row.stage: row for row in diff_manifests(a, b).stages}
        assert by_name["observe"].seconds_b is None
        assert by_name["observe"].cpu_b is None
        assert by_name["observe"].delta_seconds is None

    def test_render_names_the_changed_key_and_the_bill(self):
        text = diff_manifests(*self._payloads()).render()
        assert "clustering.threshold: 0.7 -> 0.5" in text
        assert "attributed cost: +0.000s across 1 re-keyed stage(s)" in text
        assert "bcluster" in text

    def test_same_fingerprint_renders_repeat_run_note(self):
        payload = _manifest().as_dict()
        text = diff_manifests(payload, payload).render()
        assert "repeat runs" in text
        assert "attributed cost" not in text

    def test_flatten_config_unwraps_enum_markers(self):
        config = {
            "__type__": "C",
            "mode": {"__enum__": "Mode", "value": "fast"},
            "nested": {"__type__": "N", "depth": 2},
        }
        assert flatten_canonical(config) == {"mode": "fast", "nested.depth": 2}
        changed = {**config, "mode": {"__enum__": "Mode", "value": "slow"}}
        diff = diff_manifests(
            _manifest(config=config).as_dict(),
            _manifest(fingerprint="cd" * 32, config=changed).as_dict(),
        )
        assert diff.config_delta == {"mode": ("fast", "slow")}
