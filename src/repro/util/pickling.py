"""Fast pickle round trips: a scoped cyclic-GC pause and a field-tuple
pickle state for frozen slotted dataclasses.

Loading a cached run builds hundreds of thousands of small objects,
and every container allocation counts towards the cyclic collector's
generation-0 threshold.  One load of an 8.2 MB paper-config run, with a
second run live, triggered 458 collections (two of them full passes
over the whole heap) and took 0.44–0.63 s with the collector on and
0.18–0.22 s with it off.  :func:`gc_paused` turns the collector off
for one region and puts the caller's setting back afterwards.
Reference counting still frees acyclic garbage inside the region; only
cycles wait for a collection after it.

Turning the collector back on is not enough by itself: every object the
region allocated is still in generation 0, so the next allocations
trigger a young collection that walks the whole loaded run, and its
survivors are walked again by the generation-1 collections after it:
a first visit plus a revisit of an LSH threshold through the warm
paper-config cache ran 2 collections costing 0.19–0.27 s (2-core
container), against none with promotion.
An outermost region that exits normally therefore promotes its
survivors straight to the oldest generation (``gc.freeze()`` then
``gc.unfreeze()``, both constant-time list splices) before re-enabling
the collector.  The price is that cyclic garbage made inside the region
waits for a full collection; the pipeline's runs hold no cycles, so a
dropped run is still freed by reference counting alone.

:func:`field_tuple_state` replaces the stdlib's pickle hooks for
``@dataclass(frozen=True, slots=True)`` records, which call
``dataclasses.fields()`` once per object.  The replacement state is the
field values in declaration order, the same shape the stdlib writes, so
pickles written by either set of hooks load under the other; it is
written back through the slots' descriptors.
"""

from __future__ import annotations

import dataclasses
import gc
from contextlib import contextmanager
from operator import attrgetter
from typing import Iterator, TypeVar

T = TypeVar("T", bound=type)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic GC for the ``with`` body (or decorated call).

    The caller's setting is restored on exit, also when the body raises.
    Inside an already-paused region — or with the GC disabled by the
    caller — the pause is a no-op and leaves the collector disabled.
    The collector's state is process-global, so concurrent threads share
    one pause; the thread that opened it closes it.

    When the region that disabled the collector exits normally, the
    objects it leaves alive move to the oldest generation (see the
    module docstring), and so does anything a caller had frozen with
    ``gc.freeze()``; a raising body only re-enables the collector.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    except BaseException:
        gc.enable()
        raise
    gc.freeze()
    gc.unfreeze()
    gc.enable()


def field_tuple_state(cls: T) -> T:
    """Give a frozen slotted dataclass a precomputed field-tuple state.

    Apply it above ``@dataclass(frozen=True, slots=True)``.
    ``__getstate__`` returns the field values in declaration order;
    ``__setstate__`` accepts any sequence of the same length (the
    stdlib's list state included) and raises :class:`TypeError` on any
    other length, so a malformed cache entry fails at load time instead
    of leaving a slot unset.
    """
    names = tuple(field.name for field in dataclasses.fields(cls))
    arity = len(names)
    read = attrgetter(*names)
    # The slots' own descriptors: a write through one skips the by-name
    # lookup that object.__setattr__ makes, which cut unpickling the
    # paper config's enrich entry from 125 to 91 ms (2-core container).
    writers = tuple(getattr(cls, name).__set__ for name in names)

    def __getstate__(self) -> tuple:
        # attrgetter of a single name returns the bare value.
        return read(self) if arity > 1 else (read(self),)

    def __setstate__(self, state) -> None:
        if len(state) != arity:
            raise TypeError(
                f"{cls.__name__} pickle state has {len(state)} values, expected {arity}"
            )
        for write, value in zip(writers, state):
            write(self, value)

    cls.__getstate__ = __getstate__
    cls.__setstate__ = __setstate__
    return cls
