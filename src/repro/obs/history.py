"""The longitudinal run store: append-only, content-addressed manifests.

One scenario run leaves one :class:`~repro.obs.manifest.RunManifest`;
this module is where they accumulate so drift *across* runs becomes
observable.  Layout under the store root (default ``results/runs``,
overridable via ``$REPRO_RUNS_DIR``)::

    results/runs/
      index.json                           # append-only entry list
      <fingerprint>/<run_id>.json          # one manifest per stored run
      <fingerprint>/<run_id>.events.jsonl  # the run's event log, if any
      <fingerprint>/<run_id>.windows.json  # the run's window report, if any

``run_id`` is the first 16 hex chars of the manifest's canonical
content digest (:meth:`RunManifest.content_id`), so the store is
content-addressed: storing the identical manifest twice is a no-op,
and an entry can never be silently overwritten with different content
(:meth:`RunStore.add` refuses).  ``fingerprint`` is the semantic
``(seed, config)`` address the scenario cache also keys on — all runs
of one configuration land in one directory, which is what the
``repro obs history`` time series iterates over.

The index is the only mutable file and is rewritten atomically on each
add; entries are never removed, so the history it records is
append-only by construction.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping, Sequence

from repro.obs.log import get_logger
from repro.obs.manifest import RunManifest
from repro.obs.metrics import upgrade_snapshot
from repro.util.validation import require

log = get_logger("obs.history")

#: Environment variable overriding the store root.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Index file name under the store root.
INDEX_NAME = "index.json"

#: Index schema version.
INDEX_SCHEMA = 1

#: Hex chars of the manifest content digest used as the run id.
RUN_ID_LENGTH = 16


def default_store_root() -> Path:
    """``$REPRO_RUNS_DIR`` if set, else ``results/runs``."""
    env = os.environ.get(RUNS_DIR_ENV)
    if env:
        return Path(env)
    return Path("results") / "runs"


class RunStore:
    """Append-only store of run manifests, content-addressed by run id."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    def entries(
        self, fingerprint: str | None = None, *, limit: int | None = None
    ) -> list[dict]:
        """Index entries, sorted by ``(created_at, run_id)``.

        The sort makes listings and query frames deterministic across
        filesystems and index rewrite history (insertion order is a
        storage accident; ``created_at`` plus the content-derived run
        id is reproducible).  ``limit`` keeps only the newest N entries
        *after* the fingerprint filter.
        """
        if not self.index_path.is_file():
            return []
        try:
            payload = json.loads(self.index_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            payload = None
        require(
            isinstance(payload, dict),
            f"run-store index {self.index_path} is unreadable; recover it with "
            f"`repro obs validate --runs {self.root} --rebuild-index`",
        )
        entries = list(payload.get("entries", []))
        if fingerprint is not None:
            entries = [e for e in entries if e.get("fingerprint") == fingerprint]
        entries.sort(
            key=lambda e: (str(e.get("created_at", "")), str(e.get("run_id", "")))
        )
        if limit is not None:
            require(limit >= 1, f"limit must be >= 1, got {limit}")
            entries = entries[-limit:]
        return entries

    def path_for(self, fingerprint: str, run_id: str) -> Path:
        return self.root / fingerprint / f"{run_id}.json"

    def events_path_for(self, fingerprint: str, run_id: str) -> Path:
        """Where the run's ingested event log lives (may not exist)."""
        return self.root / fingerprint / f"{run_id}.events.jsonl"

    def windows_path_for(self, fingerprint: str, run_id: str) -> Path:
        """Where the run's window-report sidecar lives (may not exist)."""
        return self.root / fingerprint / f"{run_id}.windows.json"

    def add(
        self,
        manifest: RunManifest,
        *,
        events_path: str | Path | None = None,
        windows_path: str | Path | None = None,
    ) -> str:
        """Store ``manifest``; returns its run id.

        Content-addressed and append-only: re-adding identical content
        is a no-op, while a run-id collision with *different* content
        (practically impossible, but the guard keeps the store honest)
        is refused rather than overwritten.

        ``events_path`` optionally ingests the run's live event log
        (JSON lines) next to the manifest, so ``repro obs diff`` can
        attribute a divergence to the first diverging *event* rather
        than only the first diverging stage; ``windows_path`` likewise
        ingests the run's window-report sidecar (the per-window
        landscape series ``repro obs health``/``dashboard`` read).
        """
        require(isinstance(manifest, RunManifest), "can only store RunManifest")
        run_id = manifest.content_id()[:RUN_ID_LENGTH]
        path = self.path_for(manifest.fingerprint, run_id)
        already_stored = False
        if path.is_file():
            existing = path.read_text(encoding="utf-8")
            require(
                existing == manifest.to_json() + "\n",
                f"run id collision at {path}: existing content differs",
            )
            log.debug("run already stored", extra={"run_id": run_id})
            already_stored = True
        if not already_stored:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(manifest.to_json() + "\n", encoding="utf-8")
            os.replace(tmp, path)
        has_events = self._ingest_events(manifest.fingerprint, run_id, events_path)
        has_windows = self._ingest_sidecar(
            self.windows_path_for(manifest.fingerprint, run_id), windows_path
        )
        if already_stored:
            return run_id
        self._append_index(
            {
                "run_id": run_id,
                "fingerprint": manifest.fingerprint,
                "seed": manifest.seed,
                "created_at": manifest.created_at,
                "library_version": manifest.library_version,
                "golden_deviations": len(manifest.golden_deviations),
                "events": has_events,
                "windows": has_windows,
                "path": str(path.relative_to(self.root)),
            }
        )
        log.info(
            "run stored",
            extra={"run_id": run_id, "fingerprint": manifest.fingerprint[:12]},
        )
        return run_id

    def _ingest_events(
        self, fingerprint: str, run_id: str, events_path: str | Path | None
    ) -> bool:
        """Copy a run's event log into the store; returns whether one exists."""
        return self._ingest_sidecar(
            self.events_path_for(fingerprint, run_id), events_path
        )

    def _ingest_sidecar(self, target: Path, source: str | Path | None) -> bool:
        """Copy a sidecar file into the store; returns whether one exists."""
        if source is None:
            return target.is_file()
        source = Path(source)
        require(source.is_file(), f"sidecar {source} does not exist")
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(source.read_bytes())
        os.replace(tmp, target)
        return True

    def _append_index(self, entry: dict) -> None:
        entries = self.entries()
        entries.append(entry)
        payload = {"schema": INDEX_SCHEMA, "entries": entries}
        tmp = self.index_path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        os.replace(tmp, self.index_path)

    def resolve(self, ref: str) -> Path:
        """Path of the manifest named by ``ref``.

        ``ref`` may be a filesystem path to a manifest JSON file, a full
        run id, an unambiguous run-id prefix (>= 4 chars), or a
        fingerprint-qualified ``<fingerprint-prefix>/<run-id-prefix>``
        pair — the qualified form disambiguates a run-id prefix shared
        across configurations.
        """
        as_path = Path(ref)
        if as_path.is_file():
            return as_path
        fingerprint, slash, run_ref = ref.rpartition("/")
        if not slash:
            fingerprint = ""
            run_ref = ref
        require(
            len(run_ref) >= 4,
            f"run id prefix {run_ref!r} too short (need >= 4 chars)",
        )
        if fingerprint:
            require(
                len(fingerprint) >= 4,
                f"fingerprint prefix {fingerprint!r} too short (need >= 4 chars)",
            )
        matches = [
            entry
            for entry in self.entries()
            if entry.get("run_id", "").startswith(run_ref)
            and entry.get("fingerprint", "").startswith(fingerprint)
        ]
        require(bool(matches), f"no stored run matches {ref!r} under {self.root}")
        require(
            len(matches) == 1,
            f"ambiguous run ref {ref!r}: matches "
            + ", ".join(sorted(e["run_id"] for e in matches)),
        )
        return self.root / matches[0]["path"]

    def rebuild_index(self) -> int:
        """Regenerate ``index.json`` from the on-disk manifest tree.

        Recovery for a deleted or corrupted index: every
        ``<fingerprint>/<run_id>.json`` under the root is re-read and
        re-indexed.  Each manifest must still live at its content
        address — a file whose canonical digest no longer matches its
        directory/name is refused (the tree was edited in place, and
        silently indexing it would launder the corruption).  Returns
        the number of runs indexed.
        """
        entries: list[dict] = []
        for path in sorted(self.root.glob("*/*.json")):
            if path.name.endswith((".events.jsonl", ".windows.json")):
                continue
            manifest = RunManifest.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
            run_id = manifest.content_id()[:RUN_ID_LENGTH]
            require(
                path.stem == run_id,
                f"stored manifest {path} digests to {run_id}: content no "
                "longer matches its address (edited in place?)",
            )
            require(
                path.parent.name == manifest.fingerprint,
                f"stored manifest {path} carries fingerprint "
                f"{manifest.fingerprint[:12]}..: wrong directory",
            )
            entries.append(
                {
                    "run_id": run_id,
                    "fingerprint": manifest.fingerprint,
                    "seed": manifest.seed,
                    "created_at": manifest.created_at,
                    "library_version": manifest.library_version,
                    "golden_deviations": len(manifest.golden_deviations),
                    "events": self.events_path_for(
                        manifest.fingerprint, run_id
                    ).is_file(),
                    "windows": self.windows_path_for(
                        manifest.fingerprint, run_id
                    ).is_file(),
                    "path": str(path.relative_to(self.root)),
                }
            )
        entries.sort(
            key=lambda e: (str(e.get("created_at", "")), str(e.get("run_id", "")))
        )
        payload = {"schema": INDEX_SCHEMA, "entries": entries}
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.index_path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        os.replace(tmp, self.index_path)
        log.info("index rebuilt", extra={"runs": len(entries)})
        return len(entries)

    def load(self, ref: str) -> RunManifest:
        """The stored manifest named by ``ref`` (see :meth:`resolve`)."""
        return RunManifest.from_dict(self.load_payload(ref))

    def load_payload(self, ref: str) -> dict:
        """Dict form of the stored manifest named by ``ref``.

        The one read point of stored manifests: a metrics snapshot of a
        legacy schema comes back upgraded
        (:func:`~repro.obs.metrics.upgrade_snapshot`), so every reader
        sees one layout.
        """
        payload = json.loads(self.resolve(ref).read_text(encoding="utf-8"))
        if isinstance(payload.get("metrics"), Mapping):
            payload["metrics"] = upgrade_snapshot(payload["metrics"])
        return payload

    def load_events(self, ref: str) -> list | None:
        """The ingested event log of the run named by ``ref``, or ``None``.

        Returns the parsed :class:`~repro.obs.events.PipelineEvent`
        list when the run was stored with an event log, ``None`` when
        it was not (older runs, or runs recorded without ``--events``).
        """
        # Deferred import keeps the store usable without the event layer.
        from repro.obs.events import read_events

        manifest_path = self.resolve(ref)
        events_path = manifest_path.with_name(f"{manifest_path.stem}.events.jsonl")
        if not events_path.is_file():
            return None
        return read_events(events_path)

    def load_windows(self, ref: str) -> dict | None:
        """The window-report payload of the run named by ``ref``, or ``None``.

        Works for stored runs *and* bare manifest paths: the sidecar is
        looked up next to the resolved manifest file as
        ``<stem>.windows.json`` (so ``reference.json`` pairs with
        ``reference.windows.json``).
        """
        manifest_path = self.resolve(ref)
        windows_path = manifest_path.with_name(f"{manifest_path.stem}.windows.json")
        if not windows_path.is_file():
            return None
        return json.loads(windows_path.read_text(encoding="utf-8"))

    def manifests(self, fingerprint: str | None = None) -> list[RunManifest]:
        """All stored manifests (optionally one configuration), in order."""
        return [self.load(entry["run_id"]) for entry in self.entries(fingerprint)]

    def render_listing(self, entries: Sequence[Mapping] | None = None) -> str:
        """Human-readable table of stored runs."""
        entries = self.entries() if entries is None else list(entries)
        if not entries:
            return f"run store {self.root}: empty"
        lines = [
            f"run store {self.root}: {len(entries)} run(s)",
            f"{'run_id':<18} {'fingerprint':<14} {'seed':>6} "
            f"{'created_at':<22} {'golden':>6}",
        ]
        for entry in entries:
            deviations = entry.get("golden_deviations", 0)
            lines.append(
                f"{entry.get('run_id', '?'):<18} "
                f"{entry.get('fingerprint', '?')[:12] + '..':<14} "
                f"{entry.get('seed', '?'):>6} "
                f"{entry.get('created_at') or '-':<22} "
                f"{'ok' if not deviations else f'{deviations} dev':>6}"
            )
        return "\n".join(lines)
