"""Sharded generation + observation: time-slice × sensor-group streaming.

The plain observe stage materializes the full attack stream one attempt
at a time but keeps every attempt (binary included) staged until the
final-classification pass — at paper scale that is thousands of ~110 KB
binaries resident at once, and at the ROADMAP's million-sample target it
stops fitting altogether.  This module streams the same schedule through
*shards* instead:

1. :func:`plan_shards` slices the global time-ordered schedule of
   :meth:`~repro.malware.landscape.LandscapeGenerator.schedule` into
   ``n_shards`` contiguous **time windows**;
2. within each shard, :func:`sensor_group_batches` partitions the slots
   by their sensor-group (network-constraint) key, and the batches are
   materialized through the chunked executor — attempt construction is
   a pure function of the slot (every draw comes from the slot's own
   named rng substream), so build order across batches cannot perturb
   the stream;
3. the built attempts run through pass A
   (:meth:`~repro.honeypot.deployment.SGNetDeployment.stage_attempt`)
   **in global time order** — FSM learning is order-dependent, so the
   shards themselves are processed sequentially — and each shard's
   binaries are dropped as soon as its observations are staged;
4. after :meth:`Gateway.finalize`, pass B replays the staged
   observations through
   :meth:`~repro.honeypot.deployment.SGNetDeployment.add_final_event`,
   merging every shard into one :class:`SGNetDataset` and one
   :class:`~repro.egpm.columnar.ColumnarBuilder` in the same loop.

Because both passes visit every slot in exactly the order and with
exactly the substreams of the unsharded path, the resulting dataset is
bit-identical for *any* shard count — the determinism contract
``tests/experiments/test_shards.py`` enforces.  ``shards`` is therefore
an execution-only knob, excluded from the stage-cache fingerprint like
``executor``/``jobs``.

Telemetry: one ``shards.observed`` counter tick and one
``shards.events`` quantile-sketch observation per processed shard, plus
two high-water marks — ``shards.shard_events`` (the largest
single shard) and ``shards.staged_observations`` (the peak count of
observations staged before pass B, the structure that drives resident
memory on this path).  Watermarks merge by max, so the values are
independent of executor backend and chunk completion order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.egpm.columnar import ColumnarBuilder
from repro.egpm.dataset import SGNetDataset
from repro.honeypot.deployment import SGNetDeployment, StagedObservation
from repro.malware.landscape import (
    AttackAttempt,
    LandscapeGenerator,
    ScheduledSlot,
)
from repro.obs import metrics as obs_metrics
from repro.util.parallel import Executor
from repro.util.validation import require


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous time-window slices of a time-ordered schedule.

    ``boundaries`` holds ``len(shards) + 1`` timestamps; shard ``i``
    covers slots with ``boundaries[i] <= timestamp < boundaries[i+1]``.
    Empty windows are kept (their slice is just empty), so the plan
    shape is a pure function of ``(schedule, n_shards)``.
    """

    n_shards: int
    boundaries: tuple[int, ...]
    shards: tuple[tuple[ScheduledSlot, ...], ...]

    @property
    def n_slots(self) -> int:
        """Total scheduled slots across all shards."""
        return sum(len(shard) for shard in self.shards)


def plan_shards(
    schedule: Sequence[ScheduledSlot], n_shards: int
) -> ShardPlan:
    """Slice a time-ordered schedule into ``n_shards`` time windows.

    The observation span ``[first, last]`` is divided into equal-width
    windows; slicing is by timestamp (not by slot count), so a shard is
    a genuine time slice of the landscape — the unit a real deployment
    would checkpoint and ship.
    """
    require(n_shards >= 1, "n_shards must be >= 1")
    slots = tuple(schedule)
    if not slots:
        return ShardPlan(n_shards=n_shards, boundaries=(), shards=())
    timestamps = [slot[0] for slot in slots]
    start, stop = timestamps[0], timestamps[-1] + 1
    span = stop - start
    boundaries = tuple(
        start + (span * index) // n_shards for index in range(n_shards + 1)
    )
    shards = tuple(
        slots[bisect_left(timestamps, boundaries[i]) : bisect_left(
            timestamps, boundaries[i + 1]
        )]
        for i in range(n_shards)
    )
    return ShardPlan(n_shards=n_shards, boundaries=boundaries, shards=shards)


def sensor_group_batches(
    slots: Sequence[ScheduledSlot],
) -> list[list[int]]:
    """Partition one shard's slot *indices* by sensor-group key.

    The key is the slot's network constraint (the set of monitored /24
    networks the variant targets, or ``None`` for untargeted variants).
    Attempt construction is order-independent across batches, so they
    may be built in any interleaving; the indices let the caller scatter
    results back into time order afterwards.
    """
    groups: dict[tuple[int, ...] | None, list[int]] = {}
    for index, slot in enumerate(slots):
        groups.setdefault(slot[3], []).append(index)
    return list(groups.values())


def _build_batch(
    generator: LandscapeGenerator, slots: list[ScheduledSlot]
) -> list[AttackAttempt]:
    """Materialize one sensor-group batch (module-level so process
    pools can ship it; the generator rides along pickled)."""
    return [generator.build_attempt(slot) for slot in slots]


def _build_shard(
    generator: LandscapeGenerator,
    slots: Sequence[ScheduledSlot],
    executor: Executor,
) -> list[AttackAttempt]:
    """Build one shard's attempts via the executor, back in time order."""
    batches = sensor_group_batches(slots)
    built = executor.map(
        partial(_build_batch, generator),
        [[slots[index] for index in batch] for batch in batches],
    )
    attempts: list[AttackAttempt | None] = [None] * len(slots)
    for indices, batch_attempts in zip(batches, built):
        for index, attempt in zip(indices, batch_attempts):
            attempts[index] = attempt
    return attempts


def observe_sharded(
    deployment: SGNetDeployment,
    generator: LandscapeGenerator,
    *,
    n_shards: int,
    executor: Executor,
) -> SGNetDataset:
    """Observe the landscape shard by shard; bit-identical to
    :meth:`SGNetDeployment.observe` over the same generator.

    Shards are processed sequentially in time order (pass-A FSM
    learning is order-dependent), but within a shard the attempts are
    built through the chunked executor, one sensor-group batch at a
    time, and each shard's binaries are released before the next shard
    is built.  Background probes are not supported on this path — the
    stage DAG never routes them here.

    Pass B merges all shards into one dataset and one columnar store;
    the merged view is installed on the dataset so the EPM stage's
    ``to_columnar()`` does not re-transpose the events it just streamed.
    """
    plan = plan_shards(generator.schedule(), n_shards)
    registry = obs_metrics.active()
    deployment.n_background_filtered = 0
    staged: list[StagedObservation] = []
    for shard_slots in plan.shards:
        for attempt in _build_shard(generator, shard_slots, executor):
            staged.append(deployment.stage_attempt(attempt))
        registry.counter("shards.observed").inc()
        registry.sketch("shards.events").observe(len(shard_slots))
        registry.watermark("shards.shard_events").update(len(shard_slots))
        registry.watermark("shards.staged_observations").update(len(staged))

    deployment.gateway.finalize()

    dataset = SGNetDataset()
    builder = ColumnarBuilder()
    for observation in staged:
        builder.add_event(deployment.add_final_event(dataset, observation))
    dataset.adopt_columnar(builder.build())
    deployment.emit_dataset_metrics(dataset)
    return dataset
