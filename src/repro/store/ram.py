"""The in-RAM backend: the engines' original visited set, extracted.

Semantics are exactly the pre-store engines': a Python ``set`` of keys,
one entry per distinct state, memory proportional to the number of
states.  The only addition is the one-call :meth:`RamStore.add`
(membership test + insert fused), bound as an instance closure so the
hot loop pays a single call per generated transition instead of the
historical ``in`` + ``.add`` pair.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, Set

from repro.store.base import FingerprintStore, key_list

if TYPE_CHECKING:
    from repro.store.base import U64Keys


class RamStore(FingerprintStore):
    """Exact in-memory set; accepts integers of any width."""

    backend = "ram"

    def __init__(self) -> None:
        self._set: Set[int] = set()
        # Hot-path fusion: one closure call per transition.  The
        # closure captures the set and its bound ``add`` directly, so
        # no ``self`` attribute lookups happen per call.
        _set = self._set
        _add = self._set.add

        def add(key: int) -> bool:
            if key in _set:
                return False
            _add(key)
            return True

        self.add: Callable[[int], bool] = add  # type: ignore[method-assign]

    @property
    def raw_set(self) -> Set[int]:
        """The underlying set, for engine fast paths that inline ops."""
        return self._set

    def add(self, key: int) -> bool:  # pragma: no cover - shadowed in __init__
        if key in self._set:
            return False
        self._set.add(key)
        return True

    def __contains__(self, key: int) -> bool:
        return key in self._set

    def add_many(self, keys: "U64Keys", fresh: bool = False) -> int:
        _set = self._set
        before = len(_set)
        _set.update(key_list(keys))
        return len(_set) - before

    def __len__(self) -> int:
        return len(self._set)

    def __iter__(self) -> Iterator[int]:
        # Sorted: set iteration order over ints is insertion/hash
        # dependent; checkpoint dumps must be deterministic artifacts.
        return iter(sorted(self._set))

    def counters(self) -> Dict[str, int]:
        return {"entries": len(self._set)}
