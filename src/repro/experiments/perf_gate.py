"""CI performance gate over the incremental stage DAG.

The gate runs the reduced-scale scenario three times against one fresh
stage store — cold, warm, and with a perturbed LSH clustering config —
and checks each run's cache dispositions against the expected matrix:

* **cold** — nothing stored yet, every stage must be a ``miss``;
* **warm** — identical ``(seed, config)``, every stage must replay
  (``hit``) and the artifact digests must match the cold run
  byte-for-byte;
* **perturbed** — only ``clustering`` changed, so exactly the stages
  downstream of ``bcluster`` may recompute; a partially-warm run that
  recomputes a stage it should have replayed **fails the gate** (the
  incremental engine silently lost its value), as does one that
  replays a stage it should have recomputed (stale artifacts).

Wall-clock numbers are *report-only*: the gate prints the cold run's
per-stage seconds next to the committed full-scale baseline
(``results/BENCH_pipeline.json``) for trend-watching, but machines and
scales differ, so timings never change the exit code.  Only the cache
matrix and digest identity gate.

Usage (what CI runs)::

    python -m repro.experiments.perf_gate --bench results/BENCH_pipeline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.experiments.stages import STAGE_NAMES, downstream_of

#: The perturbation scenario's label in the expected matrix — the
#: config key whose change must invalidate ``bcluster`` and nothing
#: else.
PERTURB_KEY = "clustering"


def expected_matrix() -> dict[str, dict[str, list[str]]]:
    """Expected hit/miss partition per gate scenario, from the DAG."""
    invalidated = downstream_of("bcluster")
    return {
        "cold": {"hit": [], "miss": list(STAGE_NAMES)},
        "warm": {"hit": list(STAGE_NAMES), "miss": []},
        f"perturb:{PERTURB_KEY}": {
            "hit": [name for name in STAGE_NAMES if name not in invalidated],
            "miss": [name for name in STAGE_NAMES if name in invalidated],
        },
    }


def observed_partition(statuses: Mapping[str, str]) -> dict[str, list[str]]:
    """One run's ``stage_cache`` reduced to the matrix shape."""
    return {
        "hit": [name for name in STAGE_NAMES if statuses.get(name) == "hit"],
        "miss": [name for name in STAGE_NAMES if statuses.get(name) == "miss"],
    }


def check_run(
    label: str,
    statuses: Mapping[str, str],
    expected: Mapping[str, Sequence[str]],
) -> list[str]:
    """Violations of one gate run against its expected partition."""
    errors: list[str] = []
    observed = observed_partition(statuses)
    for name in expected.get("hit", []):
        if name not in observed["hit"]:
            errors.append(
                f"{label}: stage {name!r} was recomputed "
                f"({statuses.get(name)!r}) but should have replayed from "
                "the stage store"
            )
    for name in expected.get("miss", []):
        if name not in observed["miss"]:
            errors.append(
                f"{label}: stage {name!r} was {statuses.get(name)!r} but "
                "should have been recomputed (stale replay risk)"
            )
    return errors


def _timing_report(
    cold_seconds: Mapping[str, float], baseline: Mapping | None
) -> str:
    """Report-only wall-clock table: gate run vs committed baseline."""
    baseline_seconds = (baseline or {}).get("stage_seconds", {})
    lines = ["wall-clock (report-only; never gates):"]
    lines.append(
        f"  {'stage':<12} {'gate run':>10}   {'baseline (full scale)':>22}"
    )
    for name in STAGE_NAMES:
        base = baseline_seconds.get(name)
        rendered = f"{base:>20.3f}s" if isinstance(base, (int, float)) else f"{'n/a':>21}"
        lines.append(f"  {name:<12} {cold_seconds.get(name, 0.0):>9.3f}s   {rendered}")
    return "\n".join(lines)


def check_scale_bench(scale_bench_path: str | Path, out) -> list[str]:
    """Gate violations in the committed samples/sec scaling curve.

    The curve's wall-clock numbers are report-only like every other
    timing, but its *shape* gates: a missing record, a schema drift or
    a curve shrunk below 4 points fails CI (the scaling artifact is an
    acceptance criterion, not a nice-to-have).
    """
    from repro.experiments.scale_bench import validate_record

    path = Path(scale_bench_path)
    if not path.is_file():
        return [f"scale bench record {path} is missing"]
    record = json.loads(path.read_text(encoding="utf-8"))
    errors = validate_record(record)
    points = record.get("points") or []
    if not errors:
        lines = ["samples/sec curve (report-only; shape gates, timings do not):"]
        for point in points:
            lines.append(
                f"  scale {point['scale']:>6}: {point['events']:>8} events  "
                f"{point['events_per_second']:>9.1f} ev/s  "
                f"{point['samples_per_second']:>8.1f} samples/s"
            )
        print("\n".join(lines), file=out)
    return errors


def check_classify_bench(classify_bench_path: str | Path, out) -> list[str]:
    """Gate violations in the committed classifications/sec record.

    Shape gates like the scaling curve, with one extra teeth: a
    committed full-scale record whose indexed-over-linear speedup
    dropped below the acceptance floor fails CI (that ratio *is* the
    serving-path deliverable, not a timing to trend-watch).
    """
    from repro.experiments.classify_bench import validate_record

    path = Path(classify_bench_path)
    if not path.is_file():
        return [f"classify bench record {path} is missing"]
    record = json.loads(path.read_text(encoding="utf-8"))
    errors = validate_record(record)
    if not errors:
        totals = record["totals"]
        lines = [
            "classifications/sec (report-only except the full-scale "
            "speedup floor and digest identity):"
        ]
        for entry in record["dimensions"]:
            paths = entry["paths"]
            lines.append(
                f"  {entry['dimension']:>8}: {entry['patterns']:>5} patterns  "
                f"linear {paths['linear']['per_second']:>10.1f}/s  "
                f"indexed {paths['indexed']['per_second']:>10.1f}/s "
                f"({entry['speedup_indexed']}x)  "
                f"batch {paths['batch']['per_second']:>10.1f}/s "
                f"({entry['speedup_batch']}x)"
            )
        lines.append(
            f"  totals: indexed {totals['speedup_indexed']}x, "
            f"batch {totals['speedup_batch']}x over the linear scan"
        )
        print("\n".join(lines), file=out)
    return errors


def check_regression_detector(cold_payload: Mapping, out) -> list[str]:
    """Self-test of the longitudinal regression detector (gate-grade).

    Warm replays skip recomputation and re-emit no semantic metrics, so
    the gate cannot feed the detector its own warm runs; instead it
    builds a synthetic history from the *cold* manifest — clones that
    differ only in ``created_at`` (new content address, identical
    telemetry) — and demands both detector guarantees the CI regression
    gate rests on:

    * byte-identical replays never alarm (a constant series is silent);
    * an injected metric regression (``lsh.clusters`` tripled on the
      newest run) is flagged on the right target.
    """
    from repro.obs.query import frame_from_payloads
    from repro.obs.health import METRIC_RULES, run_regression

    def clone(stamp: str, bump: float = 1.0) -> dict:
        payload = json.loads(json.dumps(dict(cold_payload)))
        payload["created_at"] = stamp
        if bump != 1.0:
            gauges = payload.setdefault("metrics", {}).setdefault("gauges", {})
            gauges["lsh.clusters"] = float(gauges.get("lsh.clusters", 0.0)) * bump
        return payload

    stamps = [f"2000-01-0{i}T00:00:00Z" for i in (1, 2, 3)]
    errors: list[str] = []
    silent = run_regression(
        frame_from_payloads([clone(stamp) for stamp in stamps]),
        rules=METRIC_RULES,
    )
    if silent.findings:
        errors.append(
            "regress: detector alarmed on byte-identical replay clones: "
            + "; ".join(f.render() for f in silent.findings[:3])
        )
    noisy = run_regression(
        frame_from_payloads(
            [clone(stamp) for stamp in stamps]
            + [clone("2000-01-04T00:00:00Z", bump=3.0)]
        ),
        rules=METRIC_RULES,
    )
    flagged = {finding.target for finding in noisy.findings}
    if "metric:lsh.clusters" not in flagged:
        errors.append(
            "regress: detector missed an injected 3x lsh.clusters "
            f"regression (flagged: {sorted(flagged) or 'nothing'})"
        )
    print(
        "regression detector self-test: "
        f"{len(silent.findings)} alarm(s) on replays, "
        f"{len(noisy.findings)} on the injected regression",
        file=out,
    )
    return errors


def run_gate(
    *,
    bench_path: str | Path | None = None,
    scale_bench_path: str | Path | None = None,
    classify_bench_path: str | Path | None = None,
    skip_matrix: bool = False,
    seed: int = 7,
    scale: float = 0.05,
    weeks: int = 8,
    store_root: str | Path | None = None,
    report_path: str | Path | None = None,
    out=None,
) -> int:
    """Execute the gate matrix; returns the process exit code."""
    from repro.experiments.cache import StageStore
    from repro.experiments.scenario import PaperScenario, ScenarioConfig
    from repro.sandbox.clustering import ClusteringConfig

    out = out or sys.stdout
    baseline = None
    if bench_path is not None and Path(bench_path).is_file():
        baseline = json.loads(Path(bench_path).read_text(encoding="utf-8"))
    # The committed record's matrix wins when present (so a DAG change
    # without a regenerated baseline fails loudly); missing scenarios
    # fall back to the matrix derived from the live DAG.
    recorded = (baseline or {}).get("stage_cache", {}).get("gate_matrix") or {}
    expected = {**expected_matrix(), **recorded}

    errors_pre: list[str] = []
    if scale_bench_path is not None:
        errors_pre += check_scale_bench(scale_bench_path, out)
    if classify_bench_path is not None:
        errors_pre += check_classify_bench(classify_bench_path, out)

    # The classify-gate CI job validates committed records only — the
    # 3-run cache matrix already gates in the perf-gate job, so it can
    # be skipped to keep the lane fast.
    if skip_matrix:
        if errors_pre:
            for error in errors_pre:
                print(f"PERF GATE VIOLATION: {error}", file=out)
            return 1
        print("perf gate: committed bench records OK (matrix skipped)", file=out)
        return 0

    config = ScenarioConfig(n_weeks=weeks, scale=scale)
    perturbed = replace(
        config,
        clustering=replace(ClusteringConfig(), threshold=0.5),
    )

    errors: list[str] = list(errors_pre)
    with tempfile.TemporaryDirectory() as tmp:
        store = StageStore(store_root if store_root is not None else tmp)
        started = time.perf_counter()
        cold = PaperScenario(seed=seed, config=config).run(stage_store=store)
        cold_wall = time.perf_counter() - started
        errors += check_run("cold", cold.stage_cache, expected["cold"])

        warm = PaperScenario(seed=seed, config=config).run(stage_store=store)
        errors += check_run("warm", warm.stage_cache, expected["warm"])
        if warm.manifest.artifact_digests != cold.manifest.artifact_digests:
            errors.append(
                "warm: artifact digests diverged from the cold run — "
                "replayed artifacts are not bit-identical"
            )

        part = PaperScenario(seed=seed, config=perturbed).run(stage_store=store)
        errors += check_run(
            f"perturb:{PERTURB_KEY}",
            part.stage_cache,
            expected[f"perturb:{PERTURB_KEY}"],
        )
        # Upstream of the perturbation nothing changed, so the shared
        # artifacts must still be byte-identical to the cold run.
        for artifact in ("dataset.events", "epm.clusters"):
            if (
                part.manifest.artifact_digests[artifact]
                != cold.manifest.artifact_digests[artifact]
            ):
                errors.append(
                    f"perturb:{PERTURB_KEY}: shared artifact {artifact!r} "
                    "diverged from the cold run"
                )

    regress_errors = check_regression_detector(cold.manifest.as_dict(), out)
    errors += regress_errors

    runs = (("cold", cold), ("warm", warm), (f"perturb:{PERTURB_KEY}", part))
    for label, run in runs:
        print(f"{label:<22} {observed_partition(run.stage_cache)}", file=out)
    if report_path is not None:
        report = {
            "schema": 2,
            "seed": seed,
            "scale": scale,
            "weeks": weeks,
            "expected": expected,
            "observed": {label: observed_partition(run.stage_cache) for label, run in runs},
            "cold_stage_seconds": cold.timings.as_dict(),
            "cold_wall_seconds": cold_wall,
            "regress": {
                "checked": True,
                "violations": regress_errors,
                "ok": not regress_errors,
            },
            "violations": errors,
            "ok": not errors,
        }
        Path(report_path).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(_timing_report(cold.timings.as_dict(), baseline), file=out)
    print(
        f"cold gate run: {cold_wall:.2f}s wall at scale {scale} "
        f"(baseline full-scale build: "
        f"{(baseline or {}).get('build_total_seconds', 'n/a')}s)",
        file=out,
    )
    if errors:
        for error in errors:
            print(f"PERF GATE VIOLATION: {error}", file=out)
        return 1
    print("perf gate: cache matrix and artifact identity OK", file=out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.perf_gate",
        description="cache-matrix + wall-clock perf gate (CI)",
    )
    parser.add_argument(
        "--bench",
        default="results/BENCH_pipeline.json",
        help="committed baseline record (schema 3: carries the expected "
        "gate matrix; wall-clock comparison is report-only)",
    )
    parser.add_argument(
        "--scale-bench",
        default=None,
        metavar="FILE",
        help="also validate the committed samples/sec scaling curve "
        "(results/BENCH_scale.json): schema and >= 4-point shape gate, "
        "its timings stay report-only",
    )
    parser.add_argument(
        "--classify-bench",
        default=None,
        metavar="FILE",
        help="also validate the committed classifications/sec record "
        "(results/BENCH_classify.json): schema shape and the full-scale "
        "indexed-over-linear speedup floor gate",
    )
    parser.add_argument(
        "--skip-matrix",
        action="store_true",
        help="only validate the committed bench records, skip the 3-run "
        "cache matrix (the classify-gate CI lane)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--weeks", type=int, default=8)
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="stage store root (default: a fresh temp dir per invocation)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="also write a machine-readable JSON gate report here",
    )
    args = parser.parse_args(argv)
    return run_gate(
        bench_path=args.bench,
        scale_bench_path=args.scale_bench,
        classify_bench_path=args.classify_bench,
        skip_matrix=args.skip_matrix,
        seed=args.seed,
        scale=args.scale,
        weeks=args.weeks,
        store_root=args.store,
        report_path=args.report,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
