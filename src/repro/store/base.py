"""The fingerprint-store interface and its picklable configuration.

A :class:`FingerprintStore` is an exact set of unsigned integers — the
≤64-bit packed states the exploration engines deduplicate on (or the
64-bit digests of the generic explorer's fingerprint mode).  The contract every backend honours:

- :meth:`FingerprintStore.add` inserts and reports newness in one call
  (the hot-path operation: one call per generated transition);
- the bulk pair :meth:`FingerprintStore.contains_many` /
  :meth:`FingerprintStore.add_many` takes a u64 numpy array (a disk
  tier's probe, or the sorted keys the batch engines' RAM tier
  flushes) and answers with a bool array / an added count;
- membership is *exact* — a backend may use probabilistic structures
  only to short-circuit misses, never to answer "present";
- :meth:`FingerprintStore.__iter__` streams every stored key and
  :meth:`FingerprintStore.key_arrays` the same keys as u64 arrays,
  which is what checkpointing dumps and resume reloads;
- behaviour is deterministic: two identical runs against the same
  backend produce identical results, and all backends produce identical
  exploration counts (tested exhaustively for N=2).

:class:`StoreConfig` is the frozen, picklable description engines and
worker processes share; :meth:`StoreConfig.create` builds the actual
backend (optionally namespaced per shard / per wiring class).

numpy is imported lazily: the scalar engines use the RAM and mmap
stores without it, while the bulk API and the spill store need it.
"""

from __future__ import annotations

import shutil
import tempfile
from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
    cast,
)

from repro.store import BACKENDS, DEFAULT_MEM_CAP

if TYPE_CHECKING:
    from typing import TypeGuard

    import numpy as np
    from numpy.typing import NDArray

    U64Array = NDArray[np.uint64]
    BoolArray = NDArray[np.bool_]
    #: One block of raw u64 words: what dumps and bulk loads move.
    U64Chunk = Union["array[int]", U64Array]
    #: What the bulk API accepts: a u64 array, or any iterable of ints.
    U64Keys = Union[U64Chunk, Iterable[int]]

#: Maximum key width the disk-backed stores accept: one table slot /
#: run entry is a raw unsigned 64-bit word.
KEY_BITS = 64
KEY_LIMIT = 1 << KEY_BITS

#: Keys per ``array('Q')`` block when packing an iterable of ints.
_PACK = 4096


class StoreError(ValueError):
    """A store was misused (bad key, bad configuration, bad backend)."""


class StoreFullError(StoreError):
    """A fixed-capacity store ran out of room.

    Raised by :class:`~repro.store.mmap_table.MmapStore` when the open
    -addressing table exceeds its load limit: the mmap backend trades
    unbounded growth for a hard byte cap, and the spill backend is the
    escape hatch for sets that outgrow it.
    """


def require_u64(key: int) -> int:
    """Validate a key for the disk-backed stores (raw 64-bit slots)."""
    if key < 0 or key >= KEY_LIMIT:
        raise StoreError(
            f"disk-backed stores hold raw 64-bit words; key has"
            f" {key.bit_length()} bits — state encodings wider than 64"
            f" bits need the ram store"
        )
    return key


def require_numpy(what: str) -> None:
    """Raise :class:`StoreError` naming ``what`` unless numpy imports."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        raise StoreError(
            f"{what} needs numpy, which is not installed — install numpy,"
            " or use --store ram / mmap"
        ) from None


def key_list(keys: "U64Keys") -> Iterable[int]:
    """``keys`` as Python ints: arrays convert with one ``tolist()``."""
    if is_u64_chunk(keys):
        values: List[int] = keys.tolist()
        return values
    return keys


def u64_array(keys: "U64Keys") -> "U64Array":
    """``keys`` as a u64 numpy array, without copying arrays.

    A numpy u64 array passes through and an ``array('Q')`` is viewed in
    place; anything else is validated key by key (:func:`require_u64`).
    """
    import numpy as np

    if isinstance(keys, np.ndarray) and keys.dtype == np.uint64:
        return keys
    if isinstance(keys, array) and keys.typecode == "Q":
        return np.frombuffer(keys, dtype=np.uint64)
    return np.array([require_u64(key) for key in key_list(keys)], dtype=np.uint64)


def sorted_member(sorted_keys: "U64Array", values: "U64Array") -> "BoolArray":
    """Membership of ``values`` in an ascending-sorted key array."""
    import numpy as np

    if sorted_keys.size == 0:
        return np.zeros(values.shape, dtype=np.bool_)
    at = np.minimum(sorted_keys.searchsorted(values), sorted_keys.size - 1)
    return cast("BoolArray", sorted_keys[at] == values)


def is_u64_chunk(value: object) -> "TypeGuard[U64Chunk]":
    """True for a one-dimensional array (numpy or ``array('Q')``); numpy
    scalars and ints are not chunks."""
    return isinstance(value, array) or bool(getattr(value, "ndim", 0) == 1)


def u64_chunks(
    keys: "Union[U64Chunk, Iterable[Union[int, U64Chunk]]]",
) -> "Iterator[U64Chunk]":
    """``keys`` as a stream of u64 arrays, ready for ``tofile``.

    An array is one chunk.  An iterable yields its array items as they
    are and packs runs of ints into ``array('Q')`` blocks.
    """
    if is_u64_chunk(keys):
        yield keys
        return
    block: "array[int]" = array("Q")
    for item in keys:
        if is_u64_chunk(item):
            if block:
                yield block
                block = array("Q")
            yield item
            continue
        block.append(cast(int, item))
        if len(block) == _PACK:
            yield block
            block = array("Q")
    if block:
        yield block


class FingerprintStore(ABC):
    """An exact, deterministic set of unsigned-integer state keys."""

    #: Backend name, matching :data:`BACKENDS`.
    backend: str = "abstract"
    #: The temporary directory :meth:`StoreConfig.create` made for this
    #: store (no ``--store-dir``); :meth:`close` deletes it.
    owned_directory: Optional[Path] = None

    @abstractmethod
    def add(self, key: int) -> bool:
        """Insert ``key``; return True iff it was not already present."""

    @abstractmethod
    def __contains__(self, key: int) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __iter__(self) -> Iterator[int]:
        """Stream every stored key (order unspecified but deterministic)."""

    def load(self, keys: "U64Keys") -> int:
        """Bulk-insert a checkpoint dump (:func:`read_u64_file` output,
        or any keys :meth:`add_many` takes); returns the number added."""
        return self.add_many(keys)

    def contains_many(self, keys: "U64Keys") -> "BoolArray":
        """Membership for a whole batch, as a bool array aligned with
        ``keys``.

        The batch engines' visited set (:mod:`repro.checker.batch`)
        probes its disk tier with a u64 array in one call.  This default
        loops the scalar ``__contains__``, so every backend supports the
        batch engines; the spill store answers with array passes.
        """
        import numpy as np

        return np.fromiter(
            (key in self for key in key_list(keys)), dtype=np.bool_
        )

    def add_many(self, keys: "U64Keys", fresh: bool = False) -> int:
        """Insert a whole batch; returns the number newly added.

        Same contract as calling :meth:`add` per key, in order — the
        default does exactly that.  ``fresh`` vouches that the keys are
        strictly ascending and absent from the store (a batch engine's
        flush: its RAM tier admits only keys its disk tier lacks), so a
        backend may insert them without probing; the result is the same.
        """
        add = self.add
        return sum(1 for key in key_list(keys) if add(key))

    def key_arrays(self) -> "Iterator[U64Chunk]":
        """Every stored key as u64 arrays, in :meth:`__iter__` order.

        Checkpoint dumps write these chunks as they come.  This default
        packs :meth:`__iter__` into ``array('Q')`` blocks; the spill
        store cuts its sorted runs and buffer instead.
        """
        return u64_chunks(iter(self))

    def file_bytes(self) -> int:
        """Bytes this store currently occupies on disk (0 for RAM)."""
        return 0

    def counters(self) -> Dict[str, int]:
        """Backend-specific operation counters for reports/benchmarks."""
        return {}

    def flush(self) -> None:
        """Push any buffered state toward its backing file (no-op in RAM)."""

    def close(self) -> None:
        """Release files/maps; the store must not be used afterwards.

        A store in a temporary directory of its own deletes it here;
        a directory the caller named is never touched.
        """
        if self.owned_directory is not None:
            shutil.rmtree(self.owned_directory, ignore_errors=True)
            self.owned_directory = None


@dataclass(frozen=True)
class StoreConfig:
    """Picklable description of a fingerprint-store backend.

    ``directory`` is required by the disk-backed backends; when omitted
    each store gets a fresh temporary directory, deleted when the store
    closes (fine for one-shot runs, useless for resume — checkpointing
    requires an explicit directory).  ``mem_cap`` is the backend's
    total memory budget in bytes: the mmap table's file size, the spill
    store's RAM envelope (buffer + Bloom filter + run indexes).
    ``merge_jobs`` lets the spill backend consolidate sorted runs with
    a worker pool (0/1 = serial; the parallel path kicks in only for
    large merges and falls back to serial inside daemonic worker
    processes).  The spill backend needs numpy; without it the
    configuration itself is refused, before any worker starts.
    """

    backend: str = "ram"
    directory: Optional[str] = None
    mem_cap: int = DEFAULT_MEM_CAP
    merge_jobs: int = 0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise StoreError(
                f"unknown store backend {self.backend!r};"
                f" choose one of {', '.join(BACKENDS)}"
            )
        if self.mem_cap <= 0:
            raise StoreError("mem_cap must be a positive byte count")
        if self.merge_jobs < 0:
            raise StoreError("merge_jobs must be >= 0 (0/1 = serial merge)")
        if self.backend == "spill":
            require_numpy("the spill store")

    def create(self, shard: Optional[str] = None) -> FingerprintStore:
        """Build the configured backend (namespaced under ``shard``)."""
        if self.backend == "ram":
            from repro.store.ram import RamStore

            return RamStore()
        owned: Optional[Path] = None
        if self.directory is None:
            owned = base = Path(tempfile.mkdtemp(prefix="repro-store-"))
        else:
            base = Path(self.directory)
        directory = base / shard if shard is not None else base
        directory.mkdir(parents=True, exist_ok=True)
        store: FingerprintStore
        if self.backend == "mmap":
            from repro.store.mmap_table import MmapStore

            store = MmapStore(directory, mem_cap=self.mem_cap)
        else:
            from repro.store.spill import SpillStore

            store = SpillStore(
                directory, mem_cap=self.mem_cap, merge_jobs=self.merge_jobs
            )
        store.owned_directory = owned
        return store
