"""Canonical JSON reduction of arbitrary config/artifact values.

:func:`canonicalize` deterministically reduces dataclasses, enums,
mappings and collections to JSON-serialisable primitives.  It is the
shared substrate of every content address in the repo: the scenario
cache fingerprint (:mod:`repro.experiments.cache`) and the per-run
manifest's artifact digests (:mod:`repro.obs.manifest`) both hash its
output, so its mapping must never depend on iteration order, process
identity or wall-clock state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Mapping


#: Exact types that are already JSON primitives.  Subclasses such as
#: ``IntEnum`` or ``Dimension(str, Enum)`` are not in the set, so they
#: take the general path and keep their enum encoding.
_PRIMITIVE_TYPES = frozenset({str, int, float, bool, type(None)})


def canonicalize(value: object) -> object:
    """Reduce ``value`` to JSON-serialisable primitives, deterministically.

    Dataclasses become ``{"__type__": name, **fields}`` maps, enums
    become ``{"__enum__": name, "value": ...}``, mappings are key-sorted,
    sets are element-sorted; anything unrecognised falls back to
    ``repr``.

    Exact-type primitives return as they are, and exact ``list``/``tuple``
    values map their primitive items straight through, so the rows of a
    per-event digest cost one comprehension each instead of a full
    type dispatch per field.  The output is what the dispatch below gives.
    """
    kind = type(value)
    if kind in _PRIMITIVE_TYPES:
        return value
    if kind is list or kind is tuple:
        return [item if type(item) in _PRIMITIVE_TYPES else canonicalize(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: canonicalize(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, Enum):
        return {"__enum__": type(value).__name__, "value": canonicalize(value.value)}
    if isinstance(value, Mapping):
        return {
            str(k): canonicalize(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [canonicalize(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonical_json(value: object) -> str:
    """The compact, key-sorted JSON encoding of ``canonicalize(value)``."""
    return json.dumps(canonicalize(value), sort_keys=True, separators=(",", ":"))


def canonical_digest(value: object) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def flatten_canonical(value: object, prefix: str = "") -> dict[str, object]:
    """Dotted-key leaves of a :func:`canonicalize` payload.

    The ``{"__type__": ...}`` dataclass tag is dropped and an
    ``{"__enum__": ..., "value": ...}`` wrapper reads as its value, so a
    config key reads ``clustering.threshold`` rather than
    ``clustering.__type__`` or ``mode.value``.
    """
    if not isinstance(value, Mapping):
        return {prefix: value}
    if "__enum__" in value:
        return {prefix: value.get("value")}
    flat: dict[str, object] = {}
    for key, sub in value.items():
        if key != "__type__":
            flat.update(flatten_canonical(sub, f"{prefix}.{key}" if prefix else str(key)))
    return flat


def mapping_delta(
    a: Mapping, b: Mapping, absent: object = None
) -> dict[str, tuple[object, object]]:
    """``key -> (a, b)`` for every key whose values differ, key-sorted.

    A key one side lacks reads as ``absent`` there.
    """
    return {
        key: (a.get(key, absent), b.get(key, absent))
        for key in sorted(set(a) | set(b))
        if a.get(key, absent) != b.get(key, absent)
    }
