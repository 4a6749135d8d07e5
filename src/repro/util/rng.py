"""Deterministic random-number discipline.

Every stochastic component of the reproduction draws from a *named
substream* derived from one master seed.  Substreams are derived by
hashing the (seed, name) pair, so adding a new consumer of randomness
never perturbs the draws of existing consumers — the classic trap of
sharing one sequential ``random.Random`` across a large simulation.

Two front-ends are provided over the same derivation scheme:

* :func:`spawn_rng` returns a :class:`random.Random` for cheap scalar
  draws in pure-Python code paths.
* :class:`RandomSource` wraps a master seed and hands out both
  ``random.Random`` and ``numpy.random.Generator`` substreams.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

import numpy as np

from repro.util.validation import require_type

T = TypeVar("T")

_MASK64 = (1 << 64) - 1


def _seed_hasher(master_seed: int) -> "hashlib._Hash":
    """A SHA-256 hasher pre-fed with the master seed's fixed prefix."""
    hasher = hashlib.sha256()
    hasher.update(master_seed.to_bytes(16, "little", signed=True))
    return hasher


def _update_names(hasher: "hashlib._Hash", names: tuple[str | int, ...]) -> None:
    """Feed length-prefixed name tokens into ``hasher``."""
    for name in names:
        token = (name if type(name) is str else str(name)).encode("utf-8")
        hasher.update(len(token).to_bytes(4, "little"))
        hasher.update(token)


def derive_seed(master_seed: int, *names: str | int) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a name path.

    The derivation is stable across processes and Python versions (it
    uses SHA-256, not ``hash()``), and collision-resistant over the name
    path.

    >>> derive_seed(1, "a") != derive_seed(1, "b")
    True
    >>> derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
    True
    """
    require_type(master_seed, int, "master_seed")
    hasher = _seed_hasher(master_seed)
    _update_names(hasher, names)
    return int.from_bytes(hasher.digest()[:8], "little") & _MASK64


def spawn_rng(master_seed: int, *names: str | int) -> random.Random:
    """Return a ``random.Random`` seeded from the named substream."""
    return random.Random(derive_seed(master_seed, *names))


class RandomSource:
    """A master seed plus helpers to derive named substreams.

    Components receive a :class:`RandomSource` and call
    :meth:`child`/:meth:`rng`/:meth:`numpy` with their own names.  A
    child source prefixes all further derivations with its path, so the
    tree of names forms a hierarchical namespace of independent streams.
    """

    __slots__ = ("_seed", "_path", "_prefix")

    def __init__(self, seed: int, _path: tuple[str, ...] = ()) -> None:
        require_type(seed, int, "seed")
        self._seed = seed
        self._path = _path
        # The (seed, path) prefix of every derivation from this source
        # is constant, so it is hashed once here; per-draw derivations
        # resume from a cheap ``copy()`` of this hasher.  The resulting
        # digests are byte-identical to ``derive_seed(seed, *path, *n)``.
        self._prefix = _seed_hasher(seed)
        _update_names(self._prefix, _path)

    def _derive(self, names: tuple[str | int, ...]) -> int:
        hasher = self._prefix.copy()
        _update_names(hasher, names)
        return int.from_bytes(hasher.digest()[:8], "little") & _MASK64

    @property
    def seed(self) -> int:
        """The master seed this source was built from."""
        return self._seed

    @property
    def path(self) -> tuple[str, ...]:
        """The name path of this source relative to the master seed."""
        return self._path

    def child(self, *names: str | int) -> "RandomSource":
        """Return a source whose streams are namespaced under ``names``."""
        return RandomSource(self._seed, self._path + tuple(str(n) for n in names))

    def rng(self, *names: str | int) -> random.Random:
        """Return a ``random.Random`` for the named substream."""
        return random.Random(self._derive(names))

    def numpy(self, *names: str | int) -> np.random.Generator:
        """Return a ``numpy.random.Generator`` for the named substream."""
        return np.random.default_rng(self._derive(names))

    def choice(self, items: Sequence[T], *names: str | int) -> T:
        """Draw one element of ``items`` from the named substream."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self.rng(*names).choice(items)

    def __getstate__(self) -> tuple[int, tuple[str, ...]]:
        # The cached prefix hasher is not picklable (and is pure
        # derived state); rebuild it on load.
        return (self._seed, self._path)

    def __setstate__(self, state: tuple[int, tuple[str, ...]]) -> None:
        self.__init__(*state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "/".join(self._path) or "<root>"
        return f"RandomSource(seed={self._seed}, path={path})"
