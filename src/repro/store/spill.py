"""Append-only spill store: TLC's disk trade for unbounded state sets.

Keys live in a bounded in-RAM buffer; when the buffer fills it is
sorted and *spilled* to an on-disk run file, and once enough runs
accumulate they are merged into one (a classic sorted-run / LSM
scheme, the design TLC's ``DiskFPSet`` uses).  Because every key is
membership-checked before entering the buffer, runs are pairwise
disjoint and no key is ever stored twice.

The bulk API runs on numpy u64 arrays end to end: the buffer is a
sorted array (keys the scalar :meth:`SpillStore.add` inserts wait in a
small set until the next bulk call or spill folds them in), a run is
written with one ``ndarray.tofile`` and probed with ``searchsorted``
over a cached read-only ``np.memmap`` of its file, and the Bloom
filter is hashed for a whole batch at once.

RAM usage is bounded by construction whatever the number of visited
states: the buffer holds at most ``buffer_limit`` keys, the Bloom
filter (which short-circuits lookups of never-spilled keys — the
overwhelmingly common case on BFS frontiers) is a fixed bytearray, run
keys stay in their mapped files (page cache, not process memory), and
the per-run sparse indexes that drive merges keep one key per
512-entry block.

Membership stays *exact*: the Bloom filter only proves absence; any
"maybe" is resolved against the run files themselves.

numpy is required, and imported lazily, so importing :mod:`repro.store`
stays cheap for the engines that never spill.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from array import array
from bisect import bisect_right
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    cast,
)

from repro.checker.fingerprint import splitmix64, splitmix64_many
from repro.store.base import (
    FingerprintStore,
    require_u64,
    sorted_member,
    u64_array,
)

if TYPE_CHECKING:
    from repro.store.base import BoolArray, U64Array, U64Keys

#: Keys per run block: the sparse index's unit and ``disk_probes``'.
_BLOCK = 512
#: Merge all runs into one once this many have accumulated.
_MERGE_AT = 6
#: Bloom probes per key, and the salt decorrelating them from shard
#: ownership (which mixes the same keys with splitmix64).
_BLOOM_PROBES = 3
_BLOOM_SALT = 0xA5A5A5A5A5A5A5A5
_MIN_BUFFER = 1024
#: Bytes budgeted per buffered key.  The figure dates from the set
#: -based buffer (set slot + int object) and is kept so buffers spill
#: at the same sizes; the sorted array itself takes 8 bytes a key.
_ENTRY_COST = 120
#: Parallel merges only pay off past this many total keys; below it the
#: fork + IPC cost of a worker pool dwarfs the merge itself.
_PARALLEL_MERGE_MIN = 1_000_000
#: :meth:`SpillStore.key_arrays` cuts every run and the buffer at each
#: of their ``_DUMP_STRIDE``-th keys, which bounds a chunk by that many
#: keys per source.
_DUMP_STRIDE = 1 << 16


def _sorted_has(sorted_keys: "U64Array", key: int) -> bool:
    """Scalar membership of ``key`` in an ascending array."""
    import numpy as np

    at = int(sorted_keys.searchsorted(np.uint64(key)))
    return at < sorted_keys.size and int(sorted_keys[at]) == key


class _Run:
    """One immutable sorted run file: its sparse index in RAM, its keys
    memory-mapped on first use."""

    def __init__(self, path: Path, index: List[int], count: int) -> None:
        self.path = path
        self.index = index
        self.count = count
        self._keys: Optional["U64Array"] = None

    def keys(self) -> "U64Array":
        """The run's keys: a read-only array over the mapped file."""
        if self._keys is None:
            import numpy as np

            mapped = np.memmap(
                self.path, dtype=np.uint64, mode="r", shape=(self.count,)
            )
            self._keys = mapped.view(np.ndarray)
        return self._keys

    def read_block(self, block: int) -> List[int]:
        start = block * _BLOCK
        values: List[int] = self.keys()[start:start + _BLOCK].tolist()
        return values

    def contains(self, key: int) -> bool:
        return _sorted_has(self.keys(), key)

    def __iter__(self) -> Iterator[int]:
        blocks = (self.count + _BLOCK - 1) // _BLOCK
        for block in range(blocks):
            yield from self.read_block(block)

    def close(self) -> None:
        self._keys = None

    def unlink(self) -> None:
        self.close()
        self.path.unlink(missing_ok=True)


def _write_run(path: Path, keys: Iterator[int]) -> _Run:
    """Stream sorted ``keys`` into a run file, building its index."""
    index: List[int] = []
    count = 0
    block = array("Q")
    with open(path, "wb") as handle:
        for key in keys:
            if count % _BLOCK == 0:
                index.append(key)
            block.append(key)
            count += 1
            if len(block) == _BLOCK:
                block.tofile(handle)
                del block[:]
        if block:
            block.tofile(handle)
    return _Run(path, index, count)


def _write_array_run(path: Path, keys: "U64Array") -> _Run:
    """Write sorted ``keys`` as a run file with one ``tofile``."""
    keys.tofile(path)
    index: List[int] = keys[::_BLOCK].tolist()
    return _Run(path, index, int(keys.size))


def _run_slice(run: _Run, lo: int, hi: Optional[int]) -> Iterator[int]:
    """Stream a run's keys in ``[lo, hi)`` (``hi=None`` = unbounded).

    The sparse index positions the scan at the first block that can
    contain ``lo``, so a slice reads only the blocks it overlaps.
    """
    block = max(0, bisect_right(run.index, lo) - 1)
    blocks = (run.count + _BLOCK - 1) // _BLOCK
    for position in range(block, blocks):
        for key in run.read_block(position):
            if key < lo:
                continue
            if hi is not None and key >= hi:
                return
            yield key


def _merge_partition(
    task: Tuple[
        List[Tuple[str, List[int], int]], int, Optional[int], str
    ],
) -> Tuple[str, List[int], int]:
    """Worker: merge one key range of every run into a partition file.

    Runs are pairwise disjoint, so the merge is a pure interleave; the
    reply carries the new run's sparse index so the parent never has to
    re-read the file.
    """
    run_specs, lo, hi, out_path = task
    runs = [
        _Run(Path(path), index, count) for path, index, count in run_specs
    ]
    try:
        merged = _write_run(
            Path(out_path),
            iter(heapq.merge(*(_run_slice(run, lo, hi) for run in runs))),
        )
    finally:
        for run in runs:
            run.close()
    return str(merged.path), merged.index, merged.count


class SpillStore(FingerprintStore):
    """Bounded-RAM exact set backed by sorted on-disk runs."""

    backend = "spill"

    def __init__(
        self, directory: Path, mem_cap: int, merge_jobs: int = 0
    ) -> None:
        import numpy as np

        self.directory = Path(directory)
        self.mem_cap = mem_cap
        self.merge_jobs = merge_jobs
        # RAM envelope: roughly half the cap for the buffer, a fixed
        # sixteenth for the Bloom filter, the rest headroom for run
        # indexes and interpreter slack.
        self.buffer_limit = max(_MIN_BUFFER, (mem_cap // 2) // _ENTRY_COST)
        bloom_bytes = max(4096, mem_cap // 16)
        self._bloom = bytearray(bloom_bytes)
        self._bloom_bits = bloom_bytes * 8
        # One filter for both paths: the scalar probes read the
        # bytearray, the bulk path hashes through this view of it.
        self._bloom_view = np.frombuffer(self._bloom, dtype=np.uint8)
        # The buffer: a sorted array, plus the keys scalar add() took
        # since the last bulk call or spill.
        self._buffer: "U64Array" = np.empty(0, dtype=np.uint64)
        self._loose: Set[int] = set()
        self._runs: List[_Run] = []
        self._spilled = 0
        self._next_run = 0
        self._spills = 0
        self._merges = 0
        self._merge_wall_ms = 0
        self._disk_probes = 0
        self._bloom_skips = 0

    # ------------------------------------------------------------------
    def _bloom_positions(self, key: int) -> Iterator[int]:
        mixed = splitmix64(key ^ _BLOOM_SALT)
        for _ in range(_BLOOM_PROBES):
            yield mixed % self._bloom_bits
            mixed = splitmix64(mixed)

    def _bloom_positions_many(self, keys: "U64Array") -> "U64Array":
        """The vectorized :meth:`_bloom_positions`: row ``p`` holds probe
        ``p`` of every key."""
        import numpy as np

        rows = np.empty((_BLOOM_PROBES, keys.size), dtype=np.uint64)
        mixed = splitmix64_many(keys ^ _BLOOM_SALT)
        for probe in range(_BLOOM_PROBES):
            if probe:
                mixed = splitmix64_many(mixed)
            rows[probe] = mixed % self._bloom_bits
        return rows

    def _bloom_maybe(self, key: int) -> bool:
        for position in self._bloom_positions(key):
            if not self._bloom[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def _bloom_maybe_many(self, keys: "U64Array") -> "BoolArray":
        import numpy as np

        rows = self._bloom_positions_many(keys)
        bits = self._bloom_view[rows >> 3] >> (rows & 7).astype(np.uint8)
        return cast("BoolArray", (bits & 1).all(axis=0))

    def _bloom_add_many(self, keys: "U64Array") -> None:
        import numpy as np

        rows = self._bloom_positions_many(keys).ravel()
        np.bitwise_or.at(
            self._bloom_view,
            rows >> 3,
            np.left_shift(1, rows & 7).astype(np.uint8),
        )

    def _buffered(self, key: int) -> bool:
        return key in self._loose or (
            bool(self._buffer.size) and _sorted_has(self._buffer, key)
        )

    def _fold_loose(self) -> None:
        """Merge the keys scalar add() took into the sorted buffer."""
        if self._loose:
            import numpy as np

            loose = np.fromiter(
                self._loose, dtype=np.uint64, count=len(self._loose)
            )
            self._buffer = np.sort(np.concatenate((self._buffer, loose)))
            self._loose.clear()

    def _on_disk(self, key: int) -> bool:
        if not self._runs:
            return False
        if not self._bloom_maybe(key):
            self._bloom_skips += 1
            return False
        for run in self._runs:
            self._disk_probes += 1
            if run.contains(key):
                return True
        return False

    # ------------------------------------------------------------------
    def add(self, key: int) -> bool:
        require_u64(key)
        if self._buffered(key) or self._on_disk(key):
            return False
        self._loose.add(key)
        if len(self._loose) + self._buffer.size >= self.buffer_limit:
            self._spill()
        return True

    def __contains__(self, key: int) -> bool:
        require_u64(key)
        return self._buffered(key) or self._on_disk(key)

    def contains_many(self, keys: "U64Keys") -> "BoolArray":
        """Bulk membership, one array pass per tier.

        Keys are screened against the sorted buffer, then the Bloom
        filter; the survivors, in sorted order, are located in each run
        with one ``searchsorted`` over its mapped keys.
        ``disk_probes`` counts the distinct 512-key blocks those
        lookups land in.
        """
        import numpy as np

        values = u64_array(keys)
        self._fold_loose()
        found = sorted_member(self._buffer, values)
        if not self._runs:
            return found
        rest = np.flatnonzero(~found)
        maybe = self._bloom_maybe_many(values[rest])
        self._bloom_skips += int(rest.size) - int(np.count_nonzero(maybe))
        pending = rest[maybe]
        pending = pending[np.argsort(values[pending], kind="stable")]
        for run in self._runs:
            pending = pending[~found[pending]]
            if not pending.size:
                break
            probe = values[pending]
            run_keys = run.keys()
            last = run_keys.searchsorted(probe, side="right") - 1
            blocks = last[last >= 0] // _BLOCK
            if blocks.size:
                self._disk_probes += 1 + int(
                    np.count_nonzero(blocks[1:] != blocks[:-1])
                )
            found[pending] = run_keys[np.maximum(last, 0)] == probe
        return found

    def add_many(self, keys: "U64Keys") -> int:
        """Bulk insert; a large batch of new keys becomes a run directly.

        The batch is sorted and deduplicated (a neighbour compare, not
        ``np.unique``), membership is resolved by :meth:`contains_many`,
        and when the fresh keys alone would overflow the RAM buffer they
        are written straight to disk as one sorted run instead of
        churning through repeated buffer spills.  Fresh keys are by
        construction absent from the buffer and every run, so runs stay
        pairwise disjoint.
        """
        import numpy as np

        distinct = np.sort(u64_array(keys))
        if distinct.size > 1:
            distinct = distinct[
                np.concatenate(([True], distinct[1:] != distinct[:-1]))
            ]
        if not distinct.size:
            return 0
        fresh = distinct[~self.contains_many(distinct)]
        if not fresh.size:
            return 0
        if (
            self._buffer.size + fresh.size >= self.buffer_limit
            and fresh.size >= _BLOCK
        ):
            self._write_sorted_run(fresh)
        else:
            self._buffer = np.sort(
                np.concatenate((self._buffer, fresh)), kind="stable"
            )
            if self._buffer.size >= self.buffer_limit:
                self._spill()
        return int(fresh.size)

    def __len__(self) -> int:
        return len(self._loose) + int(self._buffer.size) + self._spilled

    def __iter__(self) -> Iterator[int]:
        """Stream all keys in ascending order (runs are disjoint)."""
        for chunk in self.key_arrays():
            yield from chunk.tolist()

    def key_arrays(self) -> "Iterator[U64Array]":
        """Every key in ascending order, as bounded u64 arrays.

        Runs and the buffer are disjoint sorted arrays, so cutting them
        all at the same keys and sorting each cut's union yields the
        global order.  The cuts are every ``_DUMP_STRIDE``-th key of
        every source; a lone source is sliced without a copy.
        """
        import numpy as np

        self._fold_loose()
        sources = [run.keys() for run in self._runs]
        if self._buffer.size:
            sources.append(self._buffer)
        if len(sources) == 1:
            source = sources[0]
            for start in range(0, source.size, _DUMP_STRIDE):
                yield source[start:start + _DUMP_STRIDE]
            return
        if not sources:
            return
        cuts = np.sort(
            np.concatenate([source[::_DUMP_STRIDE] for source in sources])
        )
        bounds = [
            np.append(source.searchsorted(cuts), source.size)
            for source in sources
        ]
        for chunk in range(cuts.size):
            yield np.sort(np.concatenate([
                source[at[chunk]:at[chunk + 1]]
                for source, at in zip(sources, bounds)
            ]))

    # ------------------------------------------------------------------
    def _spill(self) -> None:
        import numpy as np

        self._fold_loose()
        keys = self._buffer
        self._buffer = np.empty(0, dtype=np.uint64)
        self._write_sorted_run(keys)

    def _write_sorted_run(self, keys: "U64Array") -> None:
        """Persist sorted, store-disjoint ``keys`` as one new run."""
        path = self.directory / f"run-{self._next_run:06d}.u64"
        self._next_run += 1
        run = _write_array_run(path, keys)
        self._bloom_add_many(keys)
        self._runs.append(run)
        self._spilled += int(keys.size)
        self._spills += 1
        # A parallel merge leaves one run per partition instead of one,
        # so its trigger scales by the partition count — each merge
        # cycle absorbs the same number of spills as the serial scheme.
        partitions = self.merge_jobs if self.merge_jobs > 1 else 1
        if len(self._runs) >= _MERGE_AT + (partitions - 1):
            self._merge()

    def _merge(self) -> None:
        """Consolidate runs (disjoint keys: a pure interleave).

        Serial merges produce one run; large merges with
        ``merge_jobs > 1`` split the key space at sparse-index
        quantiles and merge the ranges concurrently, leaving one run
        per partition (ranges are disjoint and ordered, so lookups and
        iteration are unchanged).
        """
        start = time.monotonic()
        merged = self._merge_parallel() if self._use_parallel_merge() else None
        if merged is None:
            path = self.directory / f"run-{self._next_run:06d}.u64"
            self._next_run += 1
            merged = [_write_run(path, iter(heapq.merge(*self._runs)))]
        for run in self._runs:
            run.unlink()
        self._runs = merged
        self._merges += 1
        self._merge_wall_ms += int((time.monotonic() - start) * 1000)

    def _use_parallel_merge(self) -> bool:
        if self.merge_jobs <= 1:
            return False
        if sum(run.count for run in self._runs) < _PARALLEL_MERGE_MIN:
            return False
        # Daemonic processes (exploration shard workers) cannot fork
        # children of their own; their merges stay serial.
        return not multiprocessing.current_process().daemon

    def _merge_parallel(self) -> Optional[List[_Run]]:
        """Merge runs partition-parallel; ``None`` falls back to serial.

        Split points come from the runs' sparse indexes — every index
        entry is the first key of a 512-key block, so quantiles of the
        concatenated indexes balance the partitions to within a block
        per run without reading any run data.
        """
        pivots = sorted(key for run in self._runs for key in run.index)
        jobs = min(self.merge_jobs, max(1, len(pivots)))
        splits = sorted(
            {pivots[(i * len(pivots)) // jobs] for i in range(1, jobs)}
        )
        bounds = [0] + splits
        run_specs = [
            (str(run.path), run.index, run.count) for run in self._runs
        ]
        tasks = []
        for position, lo in enumerate(bounds):
            hi = (
                bounds[position + 1] if position + 1 < len(bounds) else None
            )
            path = self.directory / f"run-{self._next_run:06d}.u64"
            self._next_run += 1
            tasks.append((run_specs, lo, hi, str(path)))
        if len(tasks) <= 1:
            return None
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        try:
            pool = ctx.Pool(processes=min(len(tasks), self.merge_jobs))
        except OSError:  # pragma: no cover - fork-less hosts
            return None
        with pool:
            outputs = pool.map(_merge_partition, tasks, chunksize=1)
        merged: List[_Run] = []
        for path, index, count in outputs:
            if count:
                merged.append(_Run(Path(path), index, count))
            else:  # degenerate quantile: an empty range leaves no run
                Path(path).unlink(missing_ok=True)
        return merged

    # ------------------------------------------------------------------
    def file_bytes(self) -> int:
        return sum(run.count * 8 for run in self._runs)

    def counters(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "runs": len(self._runs),
            "spills": self._spills,
            "merges": self._merges,
            "merge_wall_ms": self._merge_wall_ms,
            "disk_probes": self._disk_probes,
            "bloom_skips": self._bloom_skips,
        }

    def close(self) -> None:
        for run in self._runs:
            run.close()
        super().close()
