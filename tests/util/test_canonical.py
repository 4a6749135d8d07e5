"""Tests for the canonical JSON reduction behind every content address."""

import dataclasses
import enum
import json
import math
from typing import Mapping, NamedTuple

from repro.core.features import Dimension
from repro.util.canonical import (
    canonical_digest,
    canonical_json,
    canonicalize,
    flatten_canonical,
    mapping_delta,
)


def _reference_canonicalize(value):
    """The type-dispatch walker without the exact-type fast path: the
    mapping every digest in the repository was produced by."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _reference_canonicalize(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return {
            "__enum__": type(value).__name__,
            "value": _reference_canonicalize(value.value),
        }
    if isinstance(value, Mapping):
        return {
            str(k): _reference_canonicalize(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_reference_canonicalize(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _reference_json(value) -> str:
    return json.dumps(_reference_canonicalize(value), sort_keys=True, separators=(",", ":"))


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Point(NamedTuple):
    x: int
    label: str


@dataclasses.dataclass(frozen=True)
class Row:
    event_id: int
    md5: str | None
    dims: tuple


class Opaque:
    def __repr__(self) -> str:
        return "Opaque()"


CORPUS = {
    "bool": True,
    "bools_in_a_row": [True, False, 1, 0],
    "int_enum": Level.HIGH,
    "int_enums_in_a_row": [Level.LOW, 1, Level.HIGH],
    "dimension": Dimension.MU,
    "dimensions_in_a_tuple": (Dimension.EPSILON, "epsilon", Dimension.PI),
    "namedtuple": Point(3, "p"),
    "namedtuples_in_a_list": [Point(1, "a"), (1, "a")],
    "nan": float("nan"),
    "floats_in_a_row": [1.5, float("nan"), float("inf"), -0.0],
    "nested_tuples": ((1, (2, (3, "x"))), (), ((None,),)),
    "dataclasses_in_a_list": [Row(1, "ab" * 16, (Dimension.MU,)), Row(2, None, ())],
    "set": {3, 1, 2},
    "frozenset_of_tuples": frozenset({(1, "a"), (0, "b")}),
    "sets_in_a_list": [{"b", "a"}, frozenset(), [set()]],
    "mapping": {2: "two", "1": [1, (2,)], Dimension.PI: Level.LOW},
    "digest_rows": [[i, 100 * i, 2**31 + i, 7, None if i % 2 else "f" * 32] for i in range(5)],
    "opaque": [Opaque(), (Opaque(),)],
    "none": None,
    "empty": [[], (), {}],
}


class TestCanonicalize:
    def test_corpus_json_matches_the_reference_walker(self):
        for name, value in CORPUS.items():
            assert canonical_json(value) == _reference_json(value), name
        assert canonical_json(CORPUS) == _reference_json(CORPUS)

    def test_subclasses_keep_the_general_path(self):
        assert canonicalize(Level.HIGH) == {"__enum__": "Level", "value": 2}
        assert canonicalize([Dimension.MU]) == [{"__enum__": "Dimension", "value": "mu"}]
        assert canonicalize((Point(1, "a"),)) == [[1, "a"]]

    def test_exact_containers_become_fresh_lists(self):
        row = [1, "a", None]
        out = canonicalize(row)
        assert out == row and out is not row
        assert canonicalize((1, 2.5, False)) == [1, 2.5, False]

    def test_nan_survives(self):
        assert math.isnan(canonicalize(float("nan")))
        assert canonical_json([float("nan")]) == "[NaN]"

    def test_digest_is_stable(self):
        assert canonical_digest([[1, 2, 3, 4, None]]) == canonical_digest([(1, 2, 3, 4, None)])
        assert canonical_digest({"b": 1, "a": 2}) == canonical_digest({"a": 2, "b": 1})


class TestFlattenCanonical:
    def test_delta_pairs_differing_and_one_sided_leaves(self):
        a = canonicalize({"row": Row(1, "a", ()), "level": Level.LOW})
        b = canonicalize({"row": Row(1, "b", ()), "level": Level.HIGH, "extra": 3})
        assert mapping_delta(flatten_canonical(a), flatten_canonical(b)) == {
            "extra": (None, 3),
            "level": (1, 2),
            "row.md5": ("a", "b"),
        }
        assert mapping_delta({"k": 1}, {}, absent=0) == {"k": (1, 0)}
        assert mapping_delta(a, a) == {}
