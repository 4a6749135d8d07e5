"""Command-line front-end: regenerate any experiment from a shell.

::

    python -m repro headline            # §4.1 counts, paper vs measured
    python -m repro table1              # invariant counts per feature
    python -m repro figure3             # E/P/M/B relation graph
    python -m repro anomalies           # §4.2 singletons + healing
    python -m repro figure4             # AV names + EP coordinates
    python -m repro figure5             # propagation context, worm vs bot
    python -m repro table2              # IRC C&C correlation
    python -m repro mcluster13          # the per-source polymorphism case
    python -m repro evasion             # EPM vs a repacking engine
    python -m repro run --out events.jsonl   # dump the enriched dataset

All commands accept ``--seed`` (default 2010), ``--scale`` (default 1.0)
and ``--weeks`` (default 74), plus ``--timings`` to print the
flamegraph view of the run's span tree, and ``--cache`` /
``--no-cache`` to reuse a previously built scenario from the artifact
cache.  The cache keeps
each artifact once, in the per-stage store: a whole-run hit reads a
small run record plus the stage entries the run uses, and a whole-run
miss replays every pipeline stage whose content-addressed fingerprint
is already stored and recomputes only from the first invalidated
stage down.

Observability flags: ``--log-level {debug,info,warning,error}`` and
``--log-json PATH`` control the structured logger, ``--metrics-out
PATH`` writes the session's metric snapshot as JSON, ``--manifest``
writes the run's manifest (fingerprint, span tree, artifact digests) to
``manifest.json``, ``--store-run`` appends the manifest to the
longitudinal run store (``results/runs`` or ``$REPRO_RUNS_DIR``),
``--events PATH`` streams live pipeline events (stage opens/closes,
cache interactions, cluster milestones) to a JSON-lines file that
``repro obs dashboard PATH --follow`` reads live, and ``--progress``
prints a line per run start, stage finish and run finish to stderr.

The artifact caches live under ``repro cache``::

    python -m repro cache ls                    # run records + stage entries
    python -m repro cache gc                    # drop stale entries and records
    python -m repro cache explain --weeks 8     # hit/miss forecast + causes

The longitudinal toolkit lives under ``repro obs``::

    python -m repro obs list                    # stored runs
    python -m repro obs diff A B                # digests, metrics, per-stage cost
    python -m repro obs diff A B --json         # the same, machine-readable
    python -m repro obs export RUN                # OpenMetrics text
    python -m repro obs export RUN --format chrome --out t.json  # Perfetto
    python -m repro obs export RUN --format flame   # flamegraph text view
    python -m repro obs health RUN                  # SLO/anomaly report
    python -m repro obs dashboard RUN               # landscape sparklines
    python -m repro obs dashboard events.jsonl -f   # live landscape + machine
    python -m repro obs query 'metric:lsh.clusters' --agg mean  # per-run values
    python -m repro obs regress --targets metric:lsh.clusters  # its trend flags
    python -m repro obs validate --runs results/runs
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.experiments.drivers import (
    anomaly_report,
    figure3,
    figure4,
    figure5,
    headline,
    mcluster13_report,
    table1,
    table2,
)
from repro.experiments.scenario import PaperScenario, ScenarioConfig, ScenarioRun
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.export import EXPORT_FORMATS
from repro.obs.health import SEVERITIES
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import flame_view
from repro.obs.validate import add_arguments as add_validate_arguments

log = get_logger("cli")

_DRIVERS: dict[str, Callable[[ScenarioRun], tuple[object, str]]] = {
    "headline": headline,
    "table1": table1,
    "figure3": figure3,
    "anomalies": anomaly_report,
    "figure4": figure4,
    "figure5": figure5,
    "table2": table2,
    "mcluster13": mcluster13_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Leita/Bayer/Kirda, DSN 2010",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=2010)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--weeks", type=int, default=74)
        p.add_argument(
            "--windows",
            type=int,
            default=4,
            metavar="WEEKS",
            help="fold per-window landscape telemetry over WEEKS-wide "
            "time windows after the pipeline (0 = off; artifacts are "
            "unaffected either way)",
        )
        p.add_argument(
            "--timings",
            action="store_true",
            help="print the flamegraph view of the run's span tree "
            "(wall, CPU and peak RSS per span) to stderr after the run",
        )
        p.add_argument(
            "--cache",
            action=argparse.BooleanOptionalAction,
            default=False,
            help="load/store the built scenario in the artifact cache "
            "($REPRO_CACHE_DIR or ~/.cache/repro/scenarios)",
        )
        p.add_argument(
            "--log-level",
            choices=("debug", "info", "warning", "error"),
            default="info",
            help="console log verbosity (structured logger on stderr)",
        )
        p.add_argument(
            "--log-json",
            metavar="PATH",
            default=None,
            help="also append one JSON log record per line to PATH",
        )
        p.add_argument(
            "--metrics-out",
            metavar="PATH",
            default=None,
            help="write the session's metrics snapshot as JSON to PATH",
        )
        p.add_argument(
            "--manifest",
            action=argparse.BooleanOptionalAction,
            default=False,
            help="write the run manifest (fingerprint, span tree, "
            "artifact digests) to manifest.json",
        )
        p.add_argument(
            "--store-run",
            action="store_true",
            help="append the run manifest to the longitudinal run store "
            "(results/runs or $REPRO_RUNS_DIR)",
        )
        p.add_argument(
            "--events",
            metavar="PATH",
            default=None,
            help="stream live pipeline events (JSON lines) to PATH; "
            "watch it with 'repro obs dashboard PATH --follow'",
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="print a line per run start, stage finish and run "
            "finish to stderr while the pipeline runs",
        )

    for name in _DRIVERS:
        p = sub.add_parser(name, help=f"regenerate the '{name}' experiment")
        add_common(p)

    run_p = sub.add_parser("run", help="run the scenario and dump the dataset")
    add_common(run_p)
    run_p.add_argument("--out", default=None, help="write events as JSONL here")

    report_p = sub.add_parser("report", help="full combined intelligence report")
    add_common(report_p)

    drift_p = sub.add_parser("drift", help="pattern drift: past model vs future traffic")
    add_common(drift_p)

    model_p = sub.add_parser(
        "model", help="persisted classification models (export from a run)"
    )
    model_sub = model_p.add_subparsers(dest="model_command", required=True)
    model_export_p = model_sub.add_parser(
        "export",
        help="freeze a landscape into a content-addressed model artifact",
    )
    add_common(model_export_p)
    model_export_p.add_argument(
        "--out",
        default="model.json",
        metavar="FILE",
        help="where to write the model artifact (default model.json)",
    )
    model_export_p.add_argument(
        "--run",
        default=None,
        metavar="REF",
        help="export from a stored run (run id, unique prefix, "
        "fingerprint/id or manifest path) instead of the scenario "
        "flags: the stored config is rebuilt and replayed (use "
        "--cache to replay from the stage store instead of "
        "recomputing)",
    )
    model_export_p.add_argument(
        "--runs",
        metavar="DIR",
        default=None,
        help="run store root (default results/runs or $REPRO_RUNS_DIR)",
    )
    model_export_p.add_argument(
        "--store",
        action="store_true",
        help="with --run: also copy the artifact into the run store "
        "next to its manifest (<fingerprint>/<run_id>.model.json), "
        "which is where 'repro classify --model REF' looks",
    )

    classify_p = sub.add_parser(
        "classify", help="classify events against an exported model"
    )
    classify_p.add_argument(
        "--model",
        required=True,
        metavar="REF",
        help="model artifact path, or a run-store run id/prefix whose "
        "exported model sits next to its manifest",
    )
    classify_p.add_argument(
        "--runs",
        metavar="DIR",
        default=None,
        help="run store root for --model prefixes (default results/runs "
        "or $REPRO_RUNS_DIR)",
    )
    classify_p.add_argument(
        "--event",
        default=None,
        metavar="JSON",
        help="single-shot: one event as JSON in the 'repro run --out' "
        "line layout ('-' reads it from stdin)",
    )
    classify_p.add_argument(
        "--batch",
        default=None,
        metavar="JSONL",
        help="classify every event of a JSONL dump through the "
        "columnar batch kernel",
    )
    classify_p.add_argument(
        "--out",
        default=None,
        metavar="JSONL",
        help="write one JSON line per event (default: human-readable "
        "rendering on stdout)",
    )
    classify_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the classify session's metrics snapshot as JSON",
    )
    classify_p.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="stream classify.* events (JSON lines) to PATH",
    )

    evasion_p = sub.add_parser("evasion", help="EPM vs a repacking engine")
    evasion_p.add_argument("--seed", type=int, default=2010)
    evasion_p.add_argument("--variants", type=int, default=10)
    evasion_p.add_argument("--weeks", type=int, default=12)

    cache_p = sub.add_parser(
        "cache", help="inspect the run records and the per-stage artifact store"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)

    def add_cache_root(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--root",
            metavar="DIR",
            default=None,
            help="cache root (default $REPRO_CACHE_DIR or "
            "~/.cache/repro/scenarios; stage artifacts live under "
            "<root>/stages)",
        )

    cache_ls_p = cache_sub.add_parser(
        "ls", help="list stored run records and per-stage artifacts"
    )
    add_cache_root(cache_ls_p)

    cache_gc_p = cache_sub.add_parser(
        "gc",
        help="remove stale stage artifacts (interrupted writes, orphaned "
        "sidecars, superseded cache formats) and stale run records "
        "(pre-record whole-run pickles, records whose stage entries are gone)",
    )
    add_cache_root(cache_gc_p)
    cache_gc_p.add_argument(
        "--clear",
        action="store_true",
        help="remove every cached artifact, stale or not",
    )

    cache_explain_p = cache_sub.add_parser(
        "explain",
        help="per-stage hit/miss forecast for a (seed, config), naming "
        "the config key that invalidated each missing stage",
    )
    add_cache_root(cache_explain_p)
    cache_explain_p.add_argument("--seed", type=int, default=2010)
    cache_explain_p.add_argument("--scale", type=float, default=1.0)
    cache_explain_p.add_argument("--weeks", type=int, default=74)

    obs_p = sub.add_parser(
        "obs", help="longitudinal observability: run store, diffs, profiles"
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--runs",
            metavar="DIR",
            default=None,
            help="run store root (default results/runs or $REPRO_RUNS_DIR)",
        )

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--json",
            action="store_true",
            help="print the machine-readable report instead of the text view",
        )

    def add_fail_on(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--fail-on",
            choices=SEVERITIES,
            default="critical",
            help="non-zero exit when a (new) finding at or above this "
            "severity exists (default: critical)",
        )

    list_p = obs_sub.add_parser("list", help="stored runs, newest last")
    add_store(list_p)
    list_p.add_argument(
        "--fingerprint",
        default=None,
        help="only runs of this config fingerprint (prefix, >= 4 chars)",
    )
    list_p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="only the newest N runs (after the fingerprint filter)",
    )

    diff_p = obs_sub.add_parser(
        "diff",
        help="compare two runs: digests, metrics, per-stage timings and "
        "the cost of a config delta",
    )
    add_store(diff_p)
    diff_p.add_argument("ref_a", help="reference run: id, id prefix or manifest path")
    diff_p.add_argument("ref_b", help="candidate run: id, id prefix or manifest path")
    add_json(diff_p)
    diff_p.add_argument(
        "--fail-on-timing",
        action="store_true",
        help="non-zero exit also on timing regressions (off by default: "
        "wall times are machine-dependent)",
    )

    export_p = obs_sub.add_parser(
        "export", help="export recorded telemetry for external tooling"
    )
    add_store(export_p)
    export_p.add_argument(
        "ref",
        help="metrics snapshot path, manifest path, or stored run id/prefix",
    )
    export_p.add_argument(
        "--format",
        choices=EXPORT_FORMATS,
        default="openmetrics",
        help="openmetrics: text exposition format (# EOF terminated); "
        "chrome: trace-event "
        "JSON of the span tree (chrome://tracing, Perfetto); flame: "
        "flamegraph-style text view of the span tree",
    )
    export_p.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write to PATH instead of stdout",
    )

    health_p = obs_sub.add_parser(
        "health",
        help="SLO/anomaly health report of a stored run or manifest",
    )
    add_store(health_p)
    health_p.add_argument("ref", help="run id, id prefix or manifest path")
    health_p.add_argument(
        "--baseline",
        default=None,
        metavar="REF",
        help="also evaluate this run and gate only on findings NEW "
        "relative to it (rule+target+window identity)",
    )
    add_fail_on(health_p)
    add_json(health_p)

    dash_p = obs_sub.add_parser(
        "dashboard",
        help="sparkline terminal view: a run's landscape, or an event "
        "log's landscape and machine state",
    )
    add_store(dash_p)
    dash_p.add_argument(
        "ref",
        help="run id, manifest path or window-report path; or an event "
        "log (*.jsonl) written by --events (works mid-run)",
    )
    dash_p.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="treat REF as a live event log and redraw a frame per work "
        "event (stage finish, window rollup, run finish) until interrupted",
    )
    dash_p.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the rendered dashboard to PATH instead of stdout",
    )

    query_p = obs_sub.add_parser(
        "query",
        help="cross-run analytics: select targets over every stored run",
    )
    add_store(query_p)
    query_p.add_argument(
        "targets",
        nargs="+",
        metavar="TARGET",
        help="metric:<key>, series:<name>, golden:deviations or "
        "span:<name>[/cpu_seconds|max_rss_kb]",
    )
    query_p.add_argument(
        "--agg",
        default=None,
        metavar="AGG",
        help="aggregate across runs: min, max, mean or pNN (e.g. p50)",
    )
    query_p.add_argument(
        "--fingerprint",
        default=None,
        help="only runs of this config fingerprint (prefix, >= 4 chars)",
    )
    query_p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="only the newest N runs (after the fingerprint filter)",
    )
    query_p.add_argument(
        "--include",
        action="append",
        default=[],
        metavar="PATH",
        help="also include this bare manifest file as a row (repeatable; "
        "a <stem>.windows.json sidecar rides along)",
    )
    add_json(query_p)

    regress_p = obs_sub.add_parser(
        "regress",
        help="trend-aware regression scan over the stored run history",
    )
    add_store(regress_p)
    regress_p.add_argument(
        "--fingerprint",
        default=None,
        help="only scan runs of this config fingerprint (prefix, >= 4 chars; "
        "exit 2 when no stored run matches)",
    )
    regress_p.add_argument(
        "--targets",
        action="append",
        default=[],
        metavar="TARGET",
        help="restrict the rule set to these targets (repeatable; "
        "default: every shipped rule)",
    )
    regress_p.add_argument(
        "--include",
        action="append",
        default=[],
        metavar="PATH",
        help="also include this bare manifest file as a row, e.g. the "
        "committed CI reference (repeatable)",
    )
    regress_p.add_argument(
        "--baseline",
        default=None,
        metavar="REPORT.json",
        help="gate only on findings whose (detector, target) identity "
        "this previously saved report lacks",
    )
    add_fail_on(regress_p)
    regress_p.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the machine-readable report JSON to PATH",
    )
    add_json(regress_p)

    add_validate_arguments(
        obs_sub.add_parser(
            "validate", help="validate emitted JSON and/or every stored run"
        )
    )
    return parser


def _run_scenario(args: argparse.Namespace) -> ScenarioRun:
    configure_logging(args.log_level, json_path=args.log_json)
    config = ScenarioConfig(
        n_weeks=args.weeks,
        scale=args.scale,
        events=args.events,
        progress=args.progress,
        windows=args.windows,
    )
    # One registry for the whole session: the scenario build records
    # into it, and so do the cache load/store paths around the build.
    # Same for the event bus: the CLI owns a session-scoped bus so
    # cache hits/misses around the build land on the stream too.
    registry = MetricsRegistry()
    bus = obs_events.open_bus(args.events, progress=args.progress)
    try:
        with obs_metrics.use(registry), obs_events.use_bus(bus):
            if args.cache:
                from repro.experiments.cache import cached_run

                run = cached_run(args.seed, config)
            else:
                run = PaperScenario(seed=args.seed, config=config).run()
    finally:
        bus.close()
    if args.timings:
        print(flame_view(run.trace), file=sys.stderr)
    if args.metrics_out:
        path = Path(args.metrics_out)
        path.write_text(registry.snapshot().to_json() + "\n", encoding="utf-8")
        log.info("metrics written", extra={"path": str(path)})
    if args.manifest:
        if run.manifest is None:
            log.warning("run carries no manifest; nothing written")
        else:
            path = run.manifest.write("manifest.json")
            log.info("manifest written", extra={"path": str(path)})
            if run.windows is not None:
                sidecar = run.windows.write("manifest.windows.json")
                log.info("window report written", extra={"path": str(sidecar)})
    if args.store_run:
        if run.manifest is None:
            log.warning("run carries no manifest; nothing stored")
        else:
            from repro.obs.history import RUN_ID_LENGTH, RunStore

            store = RunStore()
            # Only ingest the event log when it describes the run that
            # was just built — a --cache hit replays a stored run
            # whose manifest the session's (cache-only) log cannot
            # account for.
            events_path = args.events if args.events and not args.cache else None
            if run.windows is not None:
                # Written before add() so the index entry records it.
                target = store.windows_path_for(
                    run.manifest.fingerprint,
                    run.manifest.content_id()[:RUN_ID_LENGTH],
                )
                target.parent.mkdir(parents=True, exist_ok=True)
                run.windows.write(target)
            run_id = store.add(run.manifest, events_path=events_path)
            log.info(
                "run stored", extra={"run_id": run_id, "store": str(store.root)}
            )
    return run


def _cmd_evasion(args: argparse.Namespace) -> str:
    from repro.experiments.evasion import evasion_experiment
    from repro.malware.polymorphism import PolymorphyMode
    from repro.util.tables import TextTable

    outcomes = evasion_experiment(
        seed=args.seed, n_variants=args.variants, n_weeks=args.weeks
    )
    table = TextTable(
        ["engine", "M-clusters", "precision", "recall", "F1"],
        title="Evasion: EPM vs polymorphic-engine sophistication",
    )
    for mode in (PolymorphyMode.PER_INSTANCE, PolymorphyMode.REPACK):
        outcome = outcomes[mode]
        table.add_row(
            [
                mode.value,
                outcome.n_m_clusters,
                f"{outcome.quality.precision:.2f}",
                f"{outcome.quality.recall:.2f}",
                f"{outcome.quality.f1:.2f}",
            ]
        )
    return table.render()


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.cache import (
        ScenarioCache,
        explain_stages,
        render_explanations,
    )

    cache = ScenarioCache(Path(args.root) if args.root else None)
    store = cache.stages

    if args.cache_command == "ls":
        runs = cache.entries()
        print(f"run records ({cache.root}): {len(runs)} record(s)")
        for fingerprint, size in runs:
            print(f"  {fingerprint[:16]}  {size / 1e3:8.1f} kB")
        artifacts = store.entries()
        print(f"stage store ({store.root}): {len(artifacts)} artifact(s)")
        for stage, fingerprint, size in artifacts:
            print(f"  {stage:<12} {fingerprint[:16]}  {size / 1e6:8.2f} MB")
        return 0
    if args.cache_command == "gc":
        # Stage entries first: a record whose entries gc just removed
        # is stale too.
        removed, reclaimed = store.gc(clear=args.clear)
        records_removed, records_reclaimed = cache.gc(clear=args.clear)
        removed += records_removed
        reclaimed += records_reclaimed
        print(f"removed {removed} file(s), reclaimed {reclaimed / 1e6:.2f} MB")
        return 0
    if args.cache_command == "explain":
        config = ScenarioConfig(n_weeks=args.weeks, scale=args.scale)
        print(render_explanations(explain_stages(args.seed, config, store)))
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _emit(rendered: str, out: str | None, what: str) -> None:
    """Write ``rendered`` to ``out`` (and say so), else to stdout."""
    if out:
        Path(out).write_text(rendered, encoding="utf-8")
        print(f"wrote {what} to {out}")
    else:
        print(rendered, end="")


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.history import RunStore

    store = RunStore(getattr(args, "runs", None))

    if args.obs_command == "list":
        print(store.render_listing(args.fingerprint, limit=args.limit))
        return 0
    if args.obs_command == "query":
        return _cmd_obs_query(args, store)
    if args.obs_command == "regress":
        return _cmd_obs_regress(args, store)
    if args.obs_command == "diff":
        from repro.obs.diff import diff_manifests

        def events_for(ref: str):
            try:
                return store.load_events(ref)
            except Exception:  # unresolvable ref / file-path manifests
                return None

        diff = diff_manifests(
            store.load_payload(args.ref_a),
            store.load_payload(args.ref_b),
            events_a=events_for(args.ref_a),
            events_b=events_for(args.ref_b),
        )
        code = 1 if diff.failed(fail_on_timing=args.fail_on_timing) else 0
        rendered = diff.to_json() if args.json else diff.render()
        return _until_reader_closes(lambda: print(rendered), code)
    if args.obs_command == "export":
        from repro.obs.export import export_payload

        payload = store.load_payload(args.ref)
        windows = store.load_windows(args.ref)
        if windows is not None:
            payload = {**payload, "windows": windows}
        rendered = export_payload(payload, args.format)
        _emit(rendered, args.out, f"{args.format} export of {args.ref}")
        return 0
    if args.obs_command == "health":
        return _cmd_obs_health(args, store)
    if args.obs_command == "dashboard":
        return _cmd_obs_dashboard(args, store)
    if args.obs_command == "validate":
        from repro.obs.validate import INPUTS, run as validate

        # Validate the store when asked for explicitly, when it holds
        # a stored run, or when there is nothing else to validate.
        if store.run_files() or not any(getattr(args, name) for name in INPUTS):
            args.runs = str(store.root)
        return validate(args)
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _cmd_obs_query(args: argparse.Namespace, store) -> int:
    from repro.obs.query import build_frame, run_query

    frame = build_frame(store, include=args.include)
    result = run_query(
        frame,
        args.targets,
        agg=args.agg,
        fingerprint=args.fingerprint,
        limit=args.limit,
    )
    print(result.to_json() if args.json else result.render())
    return 0


def _gate(args: argparse.Namespace, report, load_baseline) -> int:
    """Print ``report``; exit 1 on findings new vs ``--baseline`` at or
    above ``--fail-on``, 2 when the baseline cannot be read."""
    from repro.obs.health import new_findings

    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as error:  # incl. JSON/validation errors
            print(f"unusable baseline {args.baseline}: {error}", file=sys.stderr)
            return 2
    fresh = new_findings(report, baseline)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
        if baseline is not None:
            print(f"{len(fresh)} new finding(s) vs baseline {args.baseline}")
    floor = SEVERITIES.index(args.fail_on)
    return 1 if any(SEVERITIES.index(f.severity) >= floor for f in fresh) else 0


def _cmd_obs_regress(args: argparse.Namespace, store) -> int:
    import json

    from repro.obs.health import REGRESS_RULES, Report, run_regression
    from repro.obs.query import build_frame

    rules = REGRESS_RULES
    if args.targets:
        rules = tuple(r for r in REGRESS_RULES if r.target in args.targets)
        if not rules:
            print(
                "no shipped rule matches --targets "
                + ", ".join(args.targets)
                + " (rules cover: "
                + ", ".join(sorted({r.target for r in REGRESS_RULES}))
                + ")",
                file=sys.stderr,
            )
            return 2
    frame = build_frame(store, include=args.include)
    if args.fingerprint is not None and not len(frame.filter(fingerprint=args.fingerprint)):
        print(f"regress: no stored run matches fingerprint {args.fingerprint!r}", file=sys.stderr)
        return 2
    report = run_regression(frame, rules=rules, fingerprint=args.fingerprint)
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n", encoding="utf-8")
    return _gate(
        args,
        report,
        lambda path: Report.from_dict(json.loads(Path(path).read_text(encoding="utf-8"))),
    )


def _cmd_obs_health(args: argparse.Namespace, store) -> int:
    from repro.obs.health import evaluate_health

    def report_for(ref: str):
        payload = store.load_payload(ref)
        return evaluate_health(payload, store.load_windows(ref))

    return _gate(args, report_for(args.ref), report_for)


def _cmd_obs_dashboard(args: argparse.Namespace, store) -> int:
    from repro.obs.dashboard import dashboard_from_events, follow_dashboard, render_dashboard
    from repro.obs.events import iter_events
    from repro.obs.health import evaluate_health

    if args.follow:
        try:
            follow_dashboard(args.ref, sys.stdout)
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        return 0
    # REF may be an event log (folded into both sections), a window
    # report itself, or a manifest/run id whose sidecar the store
    # resolves; a manifest also yields health findings.
    ref_path = Path(args.ref)
    if ref_path.is_file() and ref_path.suffix == ".jsonl":
        rendered = dashboard_from_events(iter_events(ref_path))
    else:
        windows = health = None
        if ref_path.is_file():
            payload = store.load_payload(args.ref)
            if "window_weeks" in payload and "series" in payload:
                windows = payload
        if windows is None:
            windows = store.load_windows(args.ref)
            if windows is None:
                print(
                    f"no window report for {args.ref}: run with --windows N "
                    "and --manifest/--store-run first",
                    file=sys.stderr,
                )
                return 1
            manifest = store.load_payload(args.ref)
            health = evaluate_health(manifest, windows).as_dict()
        rendered = render_dashboard(windows, health)
    _emit(rendered, args.out, f"dashboard of {args.ref}")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    """``repro model export``: freeze a landscape for serving."""
    from repro.serve.model import ModelArtifact

    run_id = None
    manifest_path = None
    if args.run:
        import json
        from dataclasses import replace as dc_replace

        from repro.experiments.scenario import config_from_canonical
        from repro.obs.history import RunStore

        store = RunStore(args.runs)
        manifest_path = store.resolve(args.run)
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        run_id = manifest_path.stem
        # Execution-only sinks of the stored run must not replay (the
        # export session owns its own telemetry); the semantic
        # fingerprint ignores them, so the replay still matches.
        config = dc_replace(
            config_from_canonical(payload["config"]),
            events=None,
            progress=False,
        )
        seed = int(payload["seed"])
        configure_logging(args.log_level, json_path=args.log_json)
        if args.cache:
            from repro.experiments.cache import cached_run

            run = cached_run(seed, config)
        else:
            run = PaperScenario(seed=seed, config=config).run()
        if run.manifest is not None and run.manifest.fingerprint != payload.get(
            "fingerprint"
        ):
            print(
                f"error: replayed fingerprint {run.manifest.fingerprint[:16]} "
                f"does not match stored run {run_id}",
                file=sys.stderr,
            )
            return 1
    else:
        run = _run_scenario(args)
    artifact = ModelArtifact.from_run(run, run_id=run_id)
    target = artifact.save(args.out)
    print(f"model {artifact.model_id} (run fingerprint "
          f"{artifact.fingerprint[:16]}) -> {target}")
    if args.store:
        if manifest_path is None:
            print("error: --store needs --run (a stored run to sit next to)",
                  file=sys.stderr)
            return 1
        stored = manifest_path.with_name(f"{run_id}.model.json")
        artifact.save(stored)
        print(f"stored model next to run {run_id}: {stored}")
    return 0


def _resolve_model_path(args: argparse.Namespace) -> Path:
    """``--model`` as a filesystem path, else a run-store reference."""
    path = Path(args.model)
    if path.is_file():
        return path
    from repro.obs.history import RunStore

    manifest_path = RunStore(args.runs).resolve(args.model)
    candidate = manifest_path.with_name(f"{manifest_path.stem}.model.json")
    if not candidate.is_file():
        raise FileNotFoundError(
            f"run {manifest_path.stem} has no exported model next to its "
            f"manifest; run 'repro model export --run {manifest_path.stem} "
            "--store' first"
        )
    return candidate


def _until_reader_closes(show: Callable[[], None], code: int) -> int:
    """Run a command body that prints to stdout, then return the
    command's exit ``code``, decided before printing; when the reader
    closes the pipe early (``| head``), stop quietly with that same
    code instead of a ``BrokenPipeError`` traceback."""
    try:
        show()
        sys.stdout.flush()
    except BrokenPipeError:
        import os

        # Re-point stdout at devnull so the interpreter's shutdown
        # flush doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _cmd_classify(args: argparse.Namespace) -> int:
    """``repro classify``: the serving path over an exported model."""
    import json

    from repro.egpm.events import AttackEvent, event_from_dict
    from repro.serve.classifier import ServingClassifier
    from repro.serve.model import ModelArtifact

    if bool(args.event) == bool(args.batch):
        print("error: pass exactly one of --event or --batch", file=sys.stderr)
        return 2
    try:
        model_path = _resolve_model_path(args)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        model = ModelArtifact.load(model_path)
    except ValueError as error:  # JSONDecodeError, ValidationError
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    classifier = ServingClassifier(model)

    def decode(text: str) -> AttackEvent:
        """One input event; raises one of ``bad_input`` when it cannot be
        classified: ValueError from json.loads, the others from
        event_from_dict, and a TypeError from hashing the feature tuples
        that classification keys on when a value is a JSON list, which
        no pattern can match."""
        event = event_from_dict(json.loads(text))
        for feature_set in classifier.feature_sets.values():
            if feature_set.applies_to(event):
                hash(feature_set.extract(event))
        return event

    bad_input = (ValueError, LookupError, TypeError, AttributeError)
    registry = MetricsRegistry()
    bus = obs_events.open_bus(args.events)
    # One entry per input line, in order: its event, or the error
    # record of a batch line that did not decode.
    entries: list[AttackEvent | dict] = []
    try:
        with obs_metrics.use(registry), obs_events.use_bus(bus):
            if args.batch:
                for number, line in enumerate(
                    Path(args.batch).read_text(encoding="utf-8").splitlines(),
                    start=1,
                ):
                    if not line.strip():
                        continue
                    try:
                        entries.append(decode(line))
                    except bad_input as error:
                        entries.append(
                            {"line": number, "error": f"{type(error).__name__}: {error}"}
                        )
                events = [e for e in entries if isinstance(e, AttackEvent)]
                results = classifier.classify_events(events)
            else:
                raw = args.event
                if raw == "-":
                    raw = sys.stdin.read()
                else:
                    try:
                        if Path(raw).is_file():
                            raw = Path(raw).read_text(encoding="utf-8")
                    except OSError:
                        pass  # inline JSON longer than a legal filename
                try:
                    event = decode(raw)
                except bad_input as error:
                    print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
                    return 1
                entries = events = [event]
                bus.emit(
                    "classify.start", model=model.model_id, events=1, mode="single"
                )
                results = [classifier.classify_event(event)]
                bus.emit("classify.finish", model=model.model_id, events=1)
    finally:
        bus.close()

    answers = iter(results)
    lines = [
        entry
        if isinstance(entry, dict)
        else {
            "event_id": entry.event_id,
            "model": model.model_id,
            "classifications": {
                dimension: classification.as_dict()
                for dimension, classification in sorted(next(answers).items())
            },
        }
        for entry in entries
    ]
    n_errors = len(entries) - len(events)
    if n_errors:
        print(f"error: {n_errors} batch line(s) did not decode", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(
            "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines),
            encoding="utf-8",
        )
        print(f"classified {len(events)} event(s) -> {args.out}")
    else:
        for line in lines:
            if "error" in line:
                print(f"line {line['line']}: error: {line['error']}")
                continue
            rendered = ", ".join(
                f"{dimension}: {payload['rendered']}"
                + (
                    f" (cluster {payload['cluster']})"
                    if payload["cluster"] is not None
                    else " (novel pattern)"
                )
                for dimension, payload in line["classifications"].items()
            )
            print(f"event {line['event_id']}: {rendered or 'no dimension applies'}")
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            registry.snapshot().to_json() + "\n", encoding="utf-8"
        )
    return 1 if n_errors else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "evasion":
        print(_cmd_evasion(args))
        return 0
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "obs":
        from repro.util.validation import ValidationError

        try:
            return _cmd_obs(args)
        except ValidationError as error:  # bad input or a damaged run store
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.command == "model":
        return _cmd_model(args)
    if args.command == "classify":
        return _cmd_classify(args)

    run = _run_scenario(args)
    if args.command == "run":
        print(run.headline())
        if args.out:
            written = run.dataset.save_jsonl(args.out)
            print(f"wrote {written} events to {args.out}")
        return 0
    if args.command == "report":
        from repro.analysis.report import full_report

        print(full_report(run))
        return 0
    if args.command == "drift":
        from repro.analysis.stability import drift_analysis, render_drift

        print(render_drift(drift_analysis(run.dataset, run.grid)))
        return 0

    _data, text = _DRIVERS[args.command](run)
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
