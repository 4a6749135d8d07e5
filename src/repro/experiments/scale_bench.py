"""The samples/sec scaling curve: benchmark artifact of ROADMAP item 2.

One record, ``results/BENCH_scale.json``, answers "how does pipeline
throughput move as the landscape grows?" with a ≥ 4-point curve: each
point runs the full stage DAG at one ``scale`` multiplier and records
events, samples, per-stage build seconds and the derived events/sec and
samples/sec rates, plus the process RSS high-water mark.  The CI perf
gate (:mod:`repro.experiments.perf_gate`) validates the committed
record's schema and shape on every build — wall-clock numbers stay
report-only, but a malformed or shrunken curve fails the gate.

Two curve profiles exist: the **full** curve (``FULL_SCALES`` over a
``FULL_WEEKS``-week window — the committed artifact, regenerated by the
slow bench in ``benchmarks/test_bench_scale.py``) and a **smoke** curve
(tiny scales over ``SMOKE_WEEKS`` weeks) cheap enough for CI.

Usage::

    python -m repro.experiments.scale_bench --out results/BENCH_scale.json
    python -m repro.experiments.scale_bench --smoke --out smoke.json
    python -m repro.experiments.scale_bench --check results/BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Mapping, Sequence

from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.util.clock import timestamp
from repro.util.validation import require

#: Record schema version (bump on layout changes).
SCALE_BENCH_SCHEMA = 1

#: The committed curve: scale multipliers of the paper landscape.
FULL_SCALES: tuple[float, ...] = (0.25, 1.0, 4.0, 16.0)
#: Observation window of the committed curve.  Shorter than the paper's
#: 74 weeks so the 16x point stays tractable; throughput ratios across
#: the curve are what matters, not absolute event counts.
FULL_WEEKS = 24

#: The CI smoke curve: same shape, toy sizes.
SMOKE_SCALES: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4)
SMOKE_WEEKS = 8

#: Keys every curve point must carry (validated by the perf gate).
POINT_KEYS = (
    "scale",
    "events",
    "samples_collected",
    "samples_executed",
    "build_seconds",
    "observe_seconds",
    "events_per_second",
    "samples_per_second",
    "max_rss_kb",
)


def _max_rss_kb() -> int:
    """Process RSS high-water mark in KiB (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_point(
    *,
    seed: int,
    scale: float,
    weeks: int,
    executor: str = "serial",
    jobs: int = 0,
) -> dict:
    """Run the pipeline once at ``scale`` and reduce it to a curve point."""
    config = ScenarioConfig(
        n_weeks=weeks,
        scale=scale,
        executor=executor,
        jobs=jobs,
    )
    run = PaperScenario(seed=seed, config=config).run()
    build_seconds = run.timings.total
    counts = run.headline()
    return {
        "scale": scale,
        "events": counts["events"],
        "samples_collected": counts["samples_collected"],
        "samples_executed": counts["samples_executed"],
        "build_seconds": round(build_seconds, 4),
        "observe_seconds": round(run.timings.as_dict().get("observe", 0.0), 4),
        "events_per_second": round(counts["events"] / build_seconds, 2),
        "samples_per_second": round(counts["samples_collected"] / build_seconds, 2),
        "max_rss_kb": _max_rss_kb(),
    }


def run_curve(
    *,
    seed: int = 2010,
    scales: Sequence[float] = FULL_SCALES,
    weeks: int = FULL_WEEKS,
    executor: str = "serial",
    jobs: int = 0,
    mode: str = "full",
    out=None,
) -> dict:
    """Run every scale point and assemble the curve record."""
    require(len(scales) >= 1, "curve needs at least one scale point")
    points = []
    for scale in scales:
        point = run_point(
            seed=seed,
            scale=scale,
            weeks=weeks,
            executor=executor,
            jobs=jobs,
        )
        points.append(point)
        if out is not None:
            print(
                f"scale {scale:>6}: {point['events']:>7} events in "
                f"{point['build_seconds']:>8.3f}s build "
                f"({point['events_per_second']:>8.1f} ev/s, "
                f"rss {point['max_rss_kb'] / 1024:.0f} MB)",
                file=out,
            )
    return {
        "schema": SCALE_BENCH_SCHEMA,
        "generated_at": timestamp(),
        "seed": seed,
        "weeks": weeks,
        "mode": mode,
        "backend": executor,
        "jobs": jobs,
        "points": points,
        # ``max_rss_kb`` is the process high-water mark, so later points
        # include earlier ones; only the largest point's value (and
        # cross-record deltas at equal configuration) are meaningful.
        "notes": (
            "events/sec and samples/sec are per build_total_seconds "
            "(sum of stage wall times) on one core; max_rss_kb is the "
            "cumulative process high-water mark"
        ),
    }


def validate_record(record: Mapping) -> list[str]:
    """Schema/shape errors of a curve record; empty list means valid."""
    errors: list[str] = []
    if record.get("schema") != SCALE_BENCH_SCHEMA:
        errors.append(
            f"scale bench: schema is {record.get('schema')!r}, "
            f"expected {SCALE_BENCH_SCHEMA}"
        )
    for key in ("seed", "weeks"):
        if not isinstance(record.get(key), int):
            errors.append(f"scale bench: {key} must be an integer")
    points = record.get("points")
    if not isinstance(points, list) or len(points) < 4:
        errors.append(
            "scale bench: need a >= 4-point curve "
            f"(got {len(points) if isinstance(points, list) else points!r})"
        )
        return errors
    previous_scale = 0.0
    for index, point in enumerate(points):
        if not isinstance(point, Mapping):
            errors.append(f"scale bench: point {index} is not a mapping")
            continue
        for key in POINT_KEYS:
            value = point.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"scale bench: point {index} key {key!r} not numeric")
        scale = point.get("scale")
        if isinstance(scale, (int, float)):
            if scale <= previous_scale:
                errors.append(
                    f"scale bench: point {index} scale {scale} not strictly "
                    f"increasing (previous {previous_scale})"
                )
            previous_scale = float(scale)
        for key in ("events", "build_seconds", "events_per_second"):
            value = point.get(key)
            if isinstance(value, (int, float)) and value <= 0:
                errors.append(f"scale bench: point {index} key {key!r} must be > 0")
    return errors


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.scale_bench",
        description="samples/sec scaling curve (results/BENCH_scale.json)",
    )
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI profile: scales {SMOKE_SCALES} over {SMOKE_WEEKS} weeks",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the curve record here (validated before writing)",
    )
    parser.add_argument(
        "--check",
        metavar="FILE",
        default=None,
        help="only validate an existing record, run nothing",
    )
    args = parser.parse_args(argv)

    errors: list[str] = []
    if args.check is not None:
        path = Path(args.check)
        if not path.is_file():
            errors.append(f"scale bench: record {path} does not exist")
        else:
            errors += validate_record(
                json.loads(path.read_text(encoding="utf-8"))
            )
    elif args.out is not None:
        record = run_curve(
            seed=args.seed,
            scales=SMOKE_SCALES if args.smoke else FULL_SCALES,
            weeks=SMOKE_WEEKS if args.smoke else FULL_WEEKS,
            mode="smoke" if args.smoke else "full",
            out=sys.stdout,
        )
        errors += validate_record(record)
        if not errors:
            Path(args.out).write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {len(record['points'])}-point curve to {args.out}")
    for error in errors:
        print(f"SCALE BENCH VIOLATION: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
