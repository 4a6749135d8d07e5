"""The longitudinal run store: append-only, content-addressed manifests.

One scenario run leaves one :class:`~repro.obs.manifest.RunManifest`;
this module is where they accumulate so drift *across* runs becomes
observable.  Layout under the store root (default ``results/runs``,
overridable via ``$REPRO_RUNS_DIR``)::

    results/runs/
      <fingerprint>/<run_id>.json          # one manifest per stored run
      <fingerprint>/<run_id>.events.jsonl  # the run's event log, if any
      <fingerprint>/<run_id>.windows.json  # the run's window report, if any
      <fingerprint>/<run_id>.model.json    # a model exported from it, if any

``run_id`` is the first 16 hex chars of the manifest's canonical
content digest (:meth:`RunManifest.content_id`), so the store is
content-addressed: storing the identical manifest twice is a no-op,
and an entry can never be silently overwritten with different content
(:meth:`RunStore.add` refuses).  ``fingerprint`` is the semantic
``(seed, config)`` address the scenario cache also keys on — all runs
of one configuration land in one directory, which is what ``repro
obs regress`` groups its per-configuration run series by.

The directory tree is the store's only record: listing, resolving and
querying walk ``<root>/*/<run_id>.json`` (a name with a second dot is a
sidecar), so nothing derived can go stale.
Files at the top of the root are not stored runs — the committed
``reference.json`` lives there, and the ``index.json`` and
``query_index.json`` that older versions kept are ignored (they can be
deleted).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.obs.log import get_logger
from repro.obs.manifest import RunManifest, schema_error
from repro.util.validation import require

log = get_logger("obs.history")

#: Environment variable overriding the store root.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Hex chars of the manifest content digest used as the run id.
RUN_ID_LENGTH = 16


def default_store_root() -> Path:
    """``$REPRO_RUNS_DIR`` if set, else ``results/runs``."""
    env = os.environ.get(RUNS_DIR_ENV)
    if env:
        return Path(env)
    return Path("results") / "runs"


def require_prefix(prefix: str, what: str) -> None:
    """Refuse a run-id or fingerprint prefix shorter than 4 chars."""
    require(
        len(prefix) >= 4,
        f"{what} prefix {prefix!r} too short (need >= 4 chars)",
    )


class RunStore:
    """Append-only store of run manifests, content-addressed by run id."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    def run_files(self, fingerprint: str | None = None) -> list[Path]:
        """Every stored manifest, ``<root>/<fingerprint>/<run_id>.json``.

        Reads no file.  Sidecars (``<run_id>.windows.json``,
        ``<run_id>.model.json``) and the ``<name>.tmp.<pid>`` files of
        an interrupted write are not runs.  ``fingerprint`` keeps the
        runs whose config fingerprint starts with that prefix (>= 4
        chars).
        """
        if fingerprint is not None:
            require_prefix(fingerprint, "fingerprint")
        return sorted(
            path
            for path in self.root.glob("*/*.json")
            if "." not in path.stem and path.parent.name.startswith(fingerprint or "")
        )

    def runs(
        self, fingerprint: str | None = None, *, limit: int | None = None
    ) -> list[tuple[dict, dict]]:
        """``(entry, manifest payload)`` per stored run, each file read once.

        Sorted by ``(created_at, run_id)``, which is reproducible where
        filesystem enumeration order is not.  ``fingerprint`` is a
        prefix filter (see :meth:`run_files`); ``limit`` keeps only the
        newest N runs *after* it.
        """
        if limit is not None:
            require(limit >= 1, f"limit must be >= 1, got {limit}")
        runs = []
        for path in self.run_files(fingerprint):
            payload = self._read_payload(path)
            run_id = path.stem
            entry = {
                "run_id": run_id,
                "fingerprint": path.parent.name,
                "seed": payload.get("seed", "?"),
                "created_at": payload.get("created_at"),
                "golden_deviations": len(payload.get("golden_deviations", [])),
                "windows": path.with_name(f"{run_id}.windows.json").is_file(),
                "path": str(path.relative_to(self.root)),
            }
            runs.append((entry, payload))
        runs.sort(key=lambda run: (str(run[0]["created_at"]), run[0]["run_id"]))
        return runs[-limit:] if limit is not None else runs

    def entries(
        self, fingerprint: str | None = None, *, limit: int | None = None
    ) -> list[dict]:
        """The entries of :meth:`runs`, without the manifest payloads."""
        return [entry for entry, _payload in self.runs(fingerprint, limit=limit)]

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
        sidecars = [
            (Path(source), target)
            for source, target in (
                (events_path, self.events_path_for(manifest.fingerprint, run_id)),
                (windows_path, self.windows_path_for(manifest.fingerprint, run_id)),
            )
            if source is not None
        ]
        for source, _target in sidecars:
            # Checked before anything is written: the tree is the record,
            # so a half-done add would list a run without its sidecar.
            require(source.is_file(), f"sidecar {source} does not exist")
        path = self.path_for(manifest.fingerprint, run_id)
        if path.is_file():
            existing = path.read_text(encoding="utf-8")
            require(
                existing == manifest.to_json() + "\n",
                f"run id collision at {path}: existing content differs",
            )
            log.debug("run already stored", extra={"run_id": run_id})
        else:
            self._write(path, (manifest.to_json() + "\n").encode("utf-8"))
            log.info(
                "run stored",
                extra={"run_id": run_id, "fingerprint": manifest.fingerprint[:12]},
            )
        for source, target in sidecars:
            self._write(target, source.read_bytes())
        return run_id

    @staticmethod
    def _write(target: Path, data: bytes) -> None:
        """Write ``target`` atomically: a reader never sees half a file."""
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, target)

    def resolve(self, ref: str | Path) -> Path:
        """Path of the manifest named by ``ref``.

        ``ref`` may be a filesystem path to a manifest JSON file, a full
        run id, an unambiguous run-id prefix (>= 4 chars), or a
        fingerprint-qualified ``<fingerprint-prefix>/<run-id-prefix>``
        pair — the qualified form disambiguates a run-id prefix shared
        across configurations.  Matches file and directory names only;
        no stored file is read.
        """
        as_path = Path(ref)
        if as_path.is_file():
            return as_path
        fingerprint, slash, run_ref = str(ref).rpartition("/")
        require_prefix(run_ref, "run id")
        matches = [
            path
            for path in self.run_files(fingerprint if slash else None)
            if path.stem.startswith(run_ref)
        ]
        require(bool(matches), f"no stored run matches {ref!r} under {self.root}")
        require(
            len(matches) == 1,
            f"ambiguous run ref {ref!r}: matches "
            + ", ".join(sorted(path.stem for path in matches)),
        )
        return matches[0]

    def load(self, ref: str) -> RunManifest:
        """The stored manifest named by ``ref`` (see :meth:`resolve`)."""
        return RunManifest.from_dict(self.load_payload(ref))

    def load_payload(self, ref: str) -> dict:
        """Dict form of the stored manifest named by ``ref``.

        A file path may also name a bare ``--metrics-out`` snapshot or
        a window report; only a manifest (a payload with a ``metrics``
        section) is held to the layout cut-off.  A file that does not
        decode to a JSON object (cut short by a crash or a full disk),
        or a manifest of a layout other than
        :data:`~repro.obs.manifest.MANIFEST_SCHEMA`, raises
        :class:`~repro.util.validation.ValidationError` naming the file.
        """
        return self._read_payload(self.resolve(ref))

    def _read_payload(self, path: Path) -> dict:
        """The one read point of stored manifests (see :meth:`load_payload`)."""
        payload = self._read_object(path)
        if "metrics" in payload:
            error = schema_error(payload.get("schema"))
            require(error is None, f"{path}: {error}")
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

    def load_windows(self, ref: str | Path) -> dict | None:
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
        return self._read_object(windows_path)

    def _read_object(self, path: Path) -> dict:
        """A stored JSON object; a truncated or non-object file is refused,
        naming the ``repro obs validate`` call that checks the store."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            payload = None
        require(
            isinstance(payload, dict),
            f"{path} is truncated or not a JSON object; see "
            f"`repro obs validate --runs {self.root}`",
        )
        return payload

    def render_listing(
        self, fingerprint: str | None = None, *, limit: int | None = None
    ) -> str:
        """Human-readable table of the stored runs :meth:`entries` selects."""
        entries = self.entries(fingerprint, limit=limit)
        if not entries:
            if fingerprint is not None and self.run_files():
                return (
                    f"run store {self.root}: no run matches fingerprint "
                    f"{fingerprint!r}"
                )
            return f"run store {self.root}: empty"
        lines = [
            f"run store {self.root}: {len(entries)} run(s)",
            f"{'run_id':<18} {'fingerprint':<14} {'seed':>6} "
            f"{'created_at':<22} {'golden':>6}",
        ]
        for entry in entries:
            deviations = entry["golden_deviations"]
            lines.append(
                f"{entry['run_id']:<18} "
                f"{entry['fingerprint'][:12] + '..':<14} "
                f"{entry['seed']:>6} "
                f"{entry['created_at'] or '-':<22} "
                f"{'ok' if not deviations else f'{deviations} dev':>6}"
            )
        return "\n".join(lines)
