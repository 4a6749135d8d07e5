#!/usr/bin/env python
"""Quickstart: run the full reproduction pipeline and print the headline.

This is the five-minute tour: build the paper-scale scenario (or a
reduced one with ``--scale``), run honeypot observation + enrichment +
both clusterings, and print the §4.1 numbers next to the paper's.

Usage::

    python examples/quickstart.py              # full scale, ~15 s
    python examples/quickstart.py --scale 0.2  # reduced, a few seconds
    python examples/quickstart.py --cache      # reuse a cached build
"""

import argparse

from repro.experiments import PaperScenario, ScenarioConfig, cached_run, headline
from repro.obs import configure_logging, flame_view, get_logger
from repro.util.tables import format_histogram


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--cache",
        action="store_true",
        help="load/store the built scenario in the artifact cache",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"), default="info"
    )
    args = parser.parse_args()

    configure_logging(args.log_level)
    log = get_logger("examples.quickstart")
    config = ScenarioConfig(scale=args.scale)
    if args.cache:
        run = cached_run(args.seed, config)
    else:
        run = PaperScenario(seed=args.seed, config=config).run()
    log.info(
        "pipeline built",
        extra={"events": len(run.dataset), "b_clusters": run.bclusters.n_clusters},
    )
    print(flame_view(run.trace))

    _measured, text = headline(run)
    print()
    print(text)

    print("\nLargest M-clusters (static perspective):")
    sizes = {}
    for cid, info in list(run.epm.mu.clusters.items())[:8]:
        sizes[f"M{cid}"] = info.size
    print(format_histogram(sizes, width=40))

    print("\nLargest B-clusters (behavioural perspective):")
    b_sizes = {
        f"B{cid}": len(members)
        for cid, members in list(run.bclusters.clusters.items())[:8]
    }
    print(format_histogram(b_sizes, width=40))

    biggest_m = run.epm.mu.clusters[0]
    print("\nPattern defining the biggest M-cluster:")
    print(biggest_m.describe(run.epm.mu.feature_names))


if __name__ == "__main__":
    main()
