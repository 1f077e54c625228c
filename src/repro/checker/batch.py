"""Level-batched exploration kernel: whole BFS levels as numpy u64 arrays.

The scalar engines in :mod:`repro.checker.fast_snapshot` process one
state per loop iteration; at N=3 scale that pure-Python loop is the
binding limit (~60k states/s, EXPERIMENTS.md).  The packed encoding is
already vector-ready — one state is one u64 bit pattern and every
transition is shift/mask arithmetic against precomputed tables — so
this module re-expresses the exploration loop over whole BFS levels:

- **expansion**: for each ``(pid, transition)`` pair, the scalar
  successor formula is applied to the entire frontier array at once
  (:meth:`BatchKernel.expand_level`), and the per-pair slices are
  reassembled into exactly the scalar engine's generation order
  (frontier-position major, then pid, then local register / scan);
- **canonicalization**: :class:`BatchCanonicalizer` replays the fused
  min-over-permutation-tables reduction of
  :class:`~repro.checker.symmetry.FastCanonicalizer` as numpy gathers
  plus an element-wise minimum across the stabilizer orbit;
- **dedup**: the key of a state is the (canonical) state itself — a
  packed state fits 64 bits, so it is exact.  The visited set is a
  kernel seam (:meth:`BatchKernel.make_visited`) that admits a whole
  slice per call: the native kernel's hash set in one pass, the numpy
  kernel's sorted array by dedup, probe and merge.  A disk-backed
  store is a second tier behind it (:class:`TieredVisited`) that takes
  the sorted keys the capped RAM tier flushes;
- **ownership hashing**: :func:`fingerprint_many` is the scalar
  :func:`~repro.checker.fingerprint.fingerprint_int` on u64 arrays,
  which sharded workers use to route states — numpy uint64
  multiplication wraps modulo 2**64, which *is* the scalar's explicit
  ``& MASK64``; both sides share one constants module
  (:mod:`repro.checker.constants`) and a property test cross-checks
  them element-wise.

**Conformance contract.**  The scalar engine stays the oracle: for any
unreduced configuration both engines support, :func:`explore_batch`
returns a
:class:`~repro.checker.fast_snapshot.FastExplorationResult` that is
field-for-field identical to the scalar one — same verdict and
violation message, same admitted/transition/truncated counts even for
budget-clipped runs, same covered-state totals under symmetry.  That
holds because per level the batch admission order (ascending first
occurrence in generation order) is exactly the scalar FIFO admission
order, and the mid-level bookkeeping (a violation returns after the
violating parent's full buffer was counted; a budget trip counts
truncated occurrences through the end of the tripping parent's buffer)
is replayed index-for-index from the generation-order arrays.  Every
level is admitted in consecutive frontier slices, each probing
``visited ∪ earlier slices``; cutting a FIFO queue into consecutive
batches leaves the admission order unchanged.

**POR** (``por=True``) composes through a *level-synchronous*
formulation (:class:`BatchAmpleSelector`, run by the kernel's
:meth:`BatchKernel.ample_sets`): ample sets are selected for the whole
frontier at once — C0/C1 as bitmask AND-reductions over per-pid
footprint arrays compiled by :class:`repro.checker.por.FootprintTables`,
C2 on vectorized scan successors, and a C3 cycle proviso that certifies
novelty against ``visited ∪ earlier-in-level`` via one bulk membership
query per trial round (pessimistic within a level, hence sound; see
the :mod:`repro.checker.por` docstring).  The two engines' C3 oracles
legitimately pick different ample sets, so batch+POR conformance is
*verdict-level* (same ok/violation/complete), not count-identical.

One configuration falls outside the batch kernel by design:
**wait-freedom** — lasso analysis needs the full edge list, which the
lean batch pipeline never materializes.

numpy is a *soft* dependency: this module imports with or without it,
``HAVE_NUMPY`` reports availability, and every entry point raises
:class:`BatchEngineUnavailable` with a clear message when numpy is
missing — the scalar engines and the rest of the package are
unaffected.
"""

# anonlint: role=harness

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple, cast

from repro.checker.constants import MASK64, SPLITMIX_GAMMA
from repro.checker.fast_snapshot import (
    _PHASE_DONE,
    _PHASE_SCAN,
    _PHASE_WRITE,
    _STOCK_CHECK_OUTPUTS,
    ClassSetup,
    FastExplorationResult,
    FastSnapshotSpec,
    lean_result,
)
from repro.checker.fingerprint import splitmix64_many
from repro.checker.por import FootprintTables, PORCounters
from repro.store.base import FingerprintStore, StoreConfig, sorted_member, u64_array
from repro.store.checkpoint import RunCheckpointer

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via HAVE_NUMPY stubs
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:
    from numpy.typing import NDArray

    from repro.checker.symmetry import FastCanonicalizer
    from repro.store.base import U64Keys

    U64Array = NDArray[np.uint64]
    BoolArray = NDArray[np.bool_]
    I64Array = NDArray[np.int64]
    U8Array = NDArray[np.uint8]

#: True iff numpy imported; the CLI and tests key degradation on this.
HAVE_NUMPY = np is not None


class BatchEngineUnavailable(RuntimeError):
    """The batch engine was requested but numpy is not installed."""


def require_numpy() -> None:
    """Raise :class:`BatchEngineUnavailable` unless numpy is importable."""
    if not HAVE_NUMPY:
        raise BatchEngineUnavailable(
            "the batch engine processes BFS levels as numpy u64 arrays,"
            " but numpy is not installed in this environment — install"
            " numpy, or run the scalar engine (--engine scalar), which"
            " needs no third-party packages and produces identical"
            " results"
        )


# ----------------------------------------------------------------------
# Batched ownership hashes
# ----------------------------------------------------------------------
def fingerprint_many(states: "U64Array") -> "U64Array":
    """Batched :func:`~repro.checker.fingerprint.fingerprint_int`.

    Valid for states at most 64 bits wide (the batch engine's domain);
    the scalar function's limb fold covers wider encodings.
    """
    return splitmix64_many(states ^ SPLITMIX_GAMMA)


# ----------------------------------------------------------------------
# Sorted-array set helpers (the engine's private visited array)
# ----------------------------------------------------------------------
def _unique_first(keys: "U64Array") -> Tuple["U64Array", "I64Array"]:
    """``(sorted distinct keys, minimal position of each)``.

    Same contract as ``np.unique(keys, return_index=True)``, but that
    call forces a stable mergesort to make the returned indices
    minimal; a plain (unstable, faster) argsort followed by a
    ``minimum.reduceat`` over each equal-key run recovers the minimal
    positions anyway.

    Already-sorted input (the spill store's merge path hands whole
    levels back in key order) skips the sort entirely: equal keys are
    then contiguous, so each run's start *is* its minimal position.
    """
    if keys.size == 0:
        return keys, np.empty(0, dtype=np.intp)
    if bool(np.all(keys[1:] >= keys[:-1])):
        flag = np.empty(keys.size, dtype=bool)
        flag[0] = True
        np.not_equal(keys[1:], keys[:-1], out=flag[1:])
        starts = np.flatnonzero(flag)
        return keys[starts], starts
    perm = np.argsort(keys)
    sorted_keys = keys[perm]
    flag = np.empty(sorted_keys.size, dtype=bool)
    flag[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=flag[1:])
    starts = np.flatnonzero(flag)
    return sorted_keys[starts], np.minimum.reduceat(perm, starts)


def _probe_sorted(
    sorted_keys: "U64Array", values: "U64Array"
) -> Tuple["BoolArray", "I64Array"]:
    """``(membership mask, insertion positions)`` in one binary-search
    pass — the positions feed :func:`_insert_sorted`, so membership and
    the later merge share the search instead of each paying their own.
    """
    at = np.searchsorted(sorted_keys, values)
    if sorted_keys.size == 0:
        return np.zeros(values.shape, dtype=bool), at
    hit = at < sorted_keys.size
    present = np.zeros(values.shape, dtype=bool)
    present[hit] = sorted_keys[at[hit]] == values[hit]
    return present, at


def _insert_sorted(
    sorted_keys: "U64Array", at: "I64Array", fresh: "U64Array"
) -> "U64Array":
    """Merge ascending ``fresh`` (disjoint from the set) into the set at
    precomputed :func:`_probe_sorted` positions.

    One linear pass (``np.insert``) instead of ``np.union1d``'s full
    re-sort.  A module-level function so that ``perfbench/tracer.py``
    can time every merge as one span.
    """
    if sorted_keys.size == 0:
        return fresh.copy()
    if fresh.size == 0:
        return sorted_keys
    return np.insert(sorted_keys, at, fresh)


class SortedVisited:
    """The numpy visited set: an ascending u64 array, rebuilt on insert.

    The twin of the native kernel's hash set
    (:class:`~repro.checker.native.loader.NativeVisited`), and the only
    visited set on hosts without a compiler.  :meth:`admit` dedups the
    slice (:meth:`BatchKernel.unique_first`), probes the array
    (:meth:`BatchKernel.probe_sorted`) and merges the admitted keys into
    a fresh copy of it (:func:`_insert_sorted`), so each call costs
    O(visited) and the merge briefly holds the set twice.  With
    ``max_slots`` it holds at most the keys a hash table of that many
    home slots holds at its 3/4 load limit.
    """

    def __init__(
        self, kernel: "BatchKernel", max_slots: Optional[int] = None
    ) -> None:
        self._kernel = kernel
        self._keys: "U64Array" = np.empty(0, dtype=np.uint64)
        self._max_keys = None if max_slots is None else 3 * max_slots // 4

    def admit(self, keys: "U64Array", limit: int) -> Tuple["I64Array", int]:
        """``(positions, trip)``: the ascending positions in ``keys`` of
        the first ``limit`` keys not yet in the set, each at its first
        occurrence, and the position of the next such key (-1 if there
        is none).  The set then holds the admitted keys too.  A full set
        stops the same way, so fewer than ``limit`` positions with a
        trip mean the set is full."""
        if self._max_keys is not None:
            limit = min(limit, self._max_keys - int(self._keys.size))
        unique_keys, first = self._kernel.unique_first(keys)
        present, at = self._kernel.probe_sorted(self._keys, unique_keys)
        fresh = ~present
        # First occurrences are distinct positions, so a plain sort puts
        # the fresh keys in generation order.
        positions = np.sort(first[fresh])
        trip = -1
        if positions.size > limit:
            trip = int(positions[limit])
            positions = positions[:limit]
            fresh &= first < trip
        self._keys = _insert_sorted(self._keys, at[fresh], unique_keys[fresh])
        return positions, trip

    def contains(self, keys: "U64Array") -> "BoolArray":
        """Membership of each of ``keys``."""
        return sorted_member(self._keys, keys)

    def __len__(self) -> int:
        return int(self._keys.size)

    def keys(self) -> "U64Array":
        """Every key, ascending."""
        return self._keys

    def reset(self) -> None:
        """Empty the set."""
        self._keys = np.empty(0, dtype=np.uint64)

    def close(self) -> None:
        """Nothing to release: the array is garbage-collected."""


def _ram_tier_slots(mem_cap: int) -> int:
    """Home slots of the largest table that fits half of ``mem_cap`` at
    8 bytes a slot: a power of two, and at least the smallest table's
    16."""
    slots = max(16, mem_cap // 2 // 8)
    return 1 << (slots.bit_length() - 1)


class TieredVisited:
    """The batch engines' visited set: the kernel's own set in RAM, and
    for a disk-backed store a second tier that takes its flushes.

    The RAM tier is the kernel's set (:meth:`BatchKernel.make_visited`),
    first sized for ``expected`` keys.  Without a store, and for the
    ``ram`` backend, it is the whole set and grows without bound.  For
    ``spill`` and ``mmap``, the configured store (created with ``shard``
    as its namespace) is the disk tier, and the RAM tier is capped at
    half of the store's ``mem_cap``: home slots × 8 bytes at the table's
    3/4 load limit, 12,288 keys at 256 KiB.  When an admission finds the
    RAM tier full, its keys go to the store, sorted, in one
    ``add_many(keys, fresh=True)`` that probes nothing, and the RAM tier
    starts empty.  This is TLC's disk-backed state set (Yu, Manolios &
    Lamport, CHARME 1999) with the kernel's hash table as its in-memory
    part.

    The two tiers are disjoint: a key reaches the RAM tier only if the
    disk tier lacks it, so ``len`` is their sum, and the store's
    counters report ``entries`` over both.
    """

    def __init__(
        self,
        kernel: "BatchKernel",
        store: Optional[StoreConfig] = None,
        expected: int = 0,
        shard: Optional[str] = None,
    ) -> None:
        self._disk: Optional[FingerprintStore] = None
        max_slots: Optional[int] = None
        if store is not None and store.backend != "ram":
            max_slots = _ram_tier_slots(store.mem_cap)
            self._disk = store.create(shard=shard)
        self._ram: Any = kernel.make_visited(expected, max_slots)

    def admit(self, keys: "U64Array", limit: int) -> Tuple["I64Array", int]:
        """:meth:`SortedVisited.admit` over both tiers.

        Keys the RAM tier lacks are probed in the disk tier, once it
        holds keys, and those it holds are passed over.  A RAM tier with
        no room left for a fresh key is flushed, and admission goes on
        from that key.
        """
        disk = self._disk
        if disk is None:
            return cast("Tuple[I64Array, int]", self._ram.admit(keys, limit))
        parts: List["I64Array"] = []
        start = 0
        while True:
            rest = keys[start:]
            kept: Optional["I64Array"] = None
            if len(disk):
                lacking = np.flatnonzero(~self._ram.contains(rest))
                stored = lacking[disk.contains_many(rest[lacking])]
                if stored.size:
                    kept = np.delete(np.arange(rest.size), stored)
                    rest = rest[kept]
            positions, trip = self._ram.admit(rest, limit)
            if kept is not None:
                positions = kept[positions]
                trip = int(kept[trip]) if trip >= 0 else -1
            parts.append(positions + start)
            limit -= int(positions.size)
            if trip < 0 or limit == 0:
                break
            # A trip with budget left: the RAM tier is full.
            self._flush()
            start += trip
        admitted = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return admitted, start + trip if trip >= 0 else -1

    def contains(self, keys: "U64Array") -> "BoolArray":
        """Membership of each of ``keys`` in either tier."""
        found = cast("BoolArray", self._ram.contains(keys))
        if self._disk is not None and len(self._disk):
            lacking = np.flatnonzero(~found)
            found[lacking] = self._disk.contains_many(keys[lacking])
        return found

    def _flush(self) -> None:
        assert self._disk is not None
        # The RAM tier admits only keys the disk tier lacks.
        self._disk.add_many(self._ram.keys(), fresh=True)
        self._ram.reset()

    def key_arrays(self) -> "Iterator[U64Array]":
        """Every key in ascending order, as u64 arrays: the disk tier's
        ascending chunks, each merged with the RAM tier's keys up to its
        last one, then the RAM tier's rest."""
        ram_keys = cast("U64Array", self._ram.keys())
        at = 0
        for chunk in self._disk_chunks():
            stop = int(ram_keys.searchsorted(chunk[-1], side="right"))
            merged = np.concatenate((ram_keys[at:stop], chunk))
            merged.sort(kind="stable")
            at = stop
            yield merged
        if at < ram_keys.size:
            yield ram_keys[at:]

    def _disk_chunks(self) -> "Iterator[U64Array]":
        """The disk tier's keys as ascending, non-empty u64 arrays."""
        disk = self._disk
        if disk is None or not len(disk):
            return
        chunks = (u64_array(chunk) for chunk in disk.key_arrays())
        if disk.backend == "spill":
            yield from chunks
            return
        # The mmap table streams its keys in slot order.
        keys = np.concatenate(list(chunks))
        keys.sort()
        yield keys

    def load(self, keys: "U64Keys") -> int:
        """Bulk-load a checkpoint dump into the empty set; returns the
        number added.  The RAM tier takes the keys it has room for, and
        the disk tier the rest, sorted, in one ``add_many``."""
        values = u64_array(keys)
        positions, trip = self._ram.admit(values, int(values.size))
        added = int(positions.size)
        if trip >= 0:
            assert self._disk is not None  # only a capped tier fills
            rest = values[trip:]
            added += self._disk.add_many(
                np.sort(rest[~self._ram.contains(rest)])
            )
        return added

    def __len__(self) -> int:
        disk = len(self._disk) if self._disk is not None else 0
        return int(len(self._ram)) + disk

    def counters(self) -> Dict[str, int]:
        """The store's counters, with ``entries`` over both tiers."""
        counters = self._disk.counters() if self._disk is not None else {}
        return {**counters, "entries": len(self)}

    def file_bytes(self) -> int:
        """Bytes the disk tier occupies (0 without one)."""
        return self._disk.file_bytes() if self._disk is not None else 0

    def close(self) -> None:
        """Free the RAM tier and close the store."""
        try:
            self._ram.close()
        finally:
            if self._disk is not None:
                self._disk.close()


# ----------------------------------------------------------------------
# Batched transition relation
# ----------------------------------------------------------------------
class BatchKernel:
    """Vectorized successor expansion + safety mask for one spec.

    Precomputes, per ``(pid, register)``, the u64-safe clear masks the
    scalar :meth:`~FastSnapshotSpec.successor_states_into` uses (the
    scalar masks are negative Python ints — two's complement brings
    them into u64 range), and per pid the physical-offset gather table
    the scan step indexes by ``scan_pos``.

    Subclasses (the generated C kernel in
    :mod:`repro.checker.native.loader`) override the hot methods; the
    exploration loop and selector only ever call through this
    interface, so kernels are interchangeable bit-for-bit.
    """

    #: Which implementation serves the hot methods ("numpy"/"native").
    kernel_name = "numpy"

    def __init__(self, spec: FastSnapshotSpec) -> None:
        require_numpy()
        if spec.state_bits > 64:
            raise ValueError(
                f"the batch kernel holds whole levels as raw u64 arrays;"
                f" this configuration packs states into {spec.state_bits}"
                f" bits — use the scalar engine for wider encodings"
            )
        self.spec = spec
        self._local_clear = tuple(
            np.uint64(clear & MASK64) for clear in spec._local_clear
        )
        self._write_clear = tuple(
            tuple(np.uint64(clear & MASK64) for clear in per_pid)
            for per_pid in spec._write_clear
        )
        self._phys_shifts = tuple(
            np.array(spec._phys_offset[pid], dtype=np.uint64)
            for pid in range(spec.n)
        )
        #: Operations per parent slot in generation-order keys: m write
        #: slots plus the scan slot, per pid.
        self.ops_per_state = spec.n * (spec.m + 1)

    # ------------------------------------------------------------------
    def expand_level(
        self,
        frontier: "U64Array",
        selected: Optional["I64Array"] = None,
    ) -> Tuple["U64Array", "I64Array"]:
        """Successors of ``frontier``, in scalar generation order.

        Returns ``(successors, counts)``: ``counts[i]`` successors were
        generated by ``frontier[i]``, laid out parent-major (so
        ``successors[i]``'s parent index is recoverable as
        ``np.repeat(np.arange(counts.size), counts)[i]``), with each
        parent's successors ordered exactly as the scalar engine
        generates them: pid ascending, then register writes in
        register order followed by the scan step.  The reassembly is a
        counting placement — per (pid, op) part, every successor's
        final position is its parent's running cursor — which costs
        one linear pass per part instead of a level-wide argsort.

        ``selected`` is the per-state ample-selection mask from
        :class:`BatchAmpleSelector`: ``-1`` expands the state fully,
        ``0 <= p < n`` expands only pid ``p``'s successors (the chosen
        ample set), and any other negative value generates nothing for
        that state.  ``None`` expands everything (the unreduced path).
        """
        spec = self.spec
        #: (parent indices, successor values), in generation op order.
        parts: List[Tuple["I64Array", "U64Array"]] = []
        n_states = frontier.shape[0]
        counts = np.zeros(n_states, dtype=np.int64)
        for pid in range(spec.n):
            offset = spec.local_offsets[pid]
            local = (frontier >> offset) & spec.local_mask
            phase = (local >> spec.o_phase) & 3
            # As in the scalar engine, phases 1 and 3 scan.
            scanning = (phase & 1) == 1
            if selected is None:
                w_idx = np.flatnonzero(phase == _PHASE_WRITE)
                s_idx = np.flatnonzero(scanning)
            else:
                gen = (selected == pid) | (selected == -1)
                w_idx = np.flatnonzero((phase == _PHASE_WRITE) & gen)
                s_idx = np.flatnonzero(scanning & gen)
            if w_idx.size:
                w_local = local[w_idx]
                w_states = frontier[w_idx]
                unwritten = (w_local >> spec.o_unwritten) & spec.m_mask
                record = w_local & spec._record_field
                # A writing state branches once per unwritten register.
                counts[w_idx] += np.bitwise_count(unwritten)
                for reg in range(spec.m):
                    sub = ((unwritten >> reg) & 1) == 1
                    if not bool(sub.any()):
                        continue
                    rec = record[sub]
                    remaining = unwritten[sub] & (
                        ~(1 << reg) & spec.m_mask
                    )
                    remaining = np.where(
                        remaining == 0, np.uint64(spec.m_mask), remaining
                    )
                    new_local = (
                        rec
                        | (remaining << spec.o_unwritten)
                        | spec._scan_reset
                    )
                    parts.append((
                        w_idx[sub],
                        (w_states[sub] & self._write_clear[pid][reg])
                        | (rec << spec._phys_offset[pid][reg])
                        | (new_local << offset),
                    ))
            if s_idx.size:
                parts.append((
                    s_idx,
                    self._scan_step(frontier[s_idx], local[s_idx], pid),
                ))
                counts[s_idx] += 1
        total = int(counts.sum())
        successors = np.empty(total, dtype=np.uint64)
        cursor = np.concatenate(([0], np.cumsum(counts)[:-1]))
        for idx, values in parts:
            successors[cursor[idx]] = values
            cursor[idx] += 1
        return successors, counts

    def _scan_step(
        self,
        states: "U64Array",
        loc: "U64Array",
        pid: int,
    ) -> "U64Array":
        """Vectorized ``_apply_read`` for the scanning states of ``pid``.

        ``states``/``loc`` are already restricted to the scanning
        subset.
        """
        spec = self.spec
        view = loc & spec.k_mask
        scan_pos = (loc >> spec.o_scanpos) & spec.sp_mask
        all_match = (loc >> spec.o_allmatch) & 1
        min_level = (loc >> spec.o_minlevel) & spec.ml_mask

        record = (states >> self._phys_shifts[pid][scan_pos]) & spec.reg_mask
        read_view = record & spec.k_mask
        match = (all_match == 1) & (read_view == view)
        new_min = np.where(
            match,
            np.minimum(min_level, record >> spec.k),
            np.uint64(spec.ml_sentinel),
        )
        new_view = np.where(match, view, view | read_view)
        new_all = np.where(match, np.uint64(1), np.uint64(0))

        continue_local = (
            new_view
            | (loc & spec._level_field)
            | (loc & spec._unwritten_field)
            | (_PHASE_SCAN << spec.o_phase)
            | ((scan_pos + 1) << spec.o_scanpos)
            | (new_all << spec.o_allmatch)
            | (new_min << spec.o_minlevel)
        )
        new_level = np.where(new_all == 1, new_min + 1, np.uint64(0))
        done_local = (
            new_view
            | (np.minimum(new_level, np.uint64(spec.lv_mask)) << spec.o_level)
            | spec._done_reset
        )
        write_local = (
            new_view
            | (new_level << spec.o_level)
            | (loc & spec._unwritten_field)
            | spec._write_reset
        )
        finish_local = np.where(
            new_level >= spec.level_target, done_local, write_local
        )
        new_local = np.where(
            scan_pos + 1 < spec.m, continue_local, finish_local
        )
        return cast(
            "U64Array",
            (states & self._local_clear[pid]) | (new_local << spec.local_offsets[pid]),
        )

    # ------------------------------------------------------------------
    def violations(self, states: "U64Array") -> "BoolArray":
        """The stock ``check_outputs`` verdict as a vectorized mask.

        True wherever the scalar check would return a message: a DONE
        processor's view missing its own input, or two DONE views that
        are not containment-related.  Messages are recomputed by the
        scalar function on the (single) state the caller selects.
        """
        spec = self.spec
        bad = np.zeros(states.shape, dtype=bool)
        done_masks: List["BoolArray"] = []
        views: List["U64Array"] = []
        for pid in range(spec.n):
            loc = (states >> spec.local_offsets[pid]) & spec.local_mask
            done = ((loc >> spec.o_phase) & 3) == _PHASE_DONE
            view = loc & spec.k_mask
            done_masks.append(done)
            views.append(view)
            bad |= done & ((view & spec.input_masks[pid]) == 0)
        for pid in range(spec.n):
            for other in range(pid + 1, spec.n):
                both = done_masks[pid] & done_masks[other]
                meet = views[pid] & views[other]
                bad |= both & (meet != views[pid]) & (meet != views[other])
        return bad

    # ------------------------------------------------------------------
    # Kernel seam: keys, dedup, the visited set, symmetry, POR.
    # The numpy implementations delegate to the module-level helpers;
    # the native kernel overrides each with its compiled twin.
    # ------------------------------------------------------------------
    def fingerprint_many(self, states: "U64Array") -> "U64Array":
        """Batched splitmix64 dedup keys (see module function)."""
        return fingerprint_many(states)

    def unique_first(
        self, keys: "U64Array"
    ) -> Tuple["U64Array", "I64Array"]:
        """``(sorted distinct keys, minimal position of each)``."""
        return _unique_first(keys)

    def probe_sorted(
        self, sorted_keys: "U64Array", values: "U64Array"
    ) -> Tuple["BoolArray", "I64Array"]:
        """``(membership mask, insertion positions)`` of ``values``
        in ascending ``sorted_keys``."""
        return _probe_sorted(sorted_keys, values)

    def make_visited(
        self, expected: int, max_slots: Optional[int] = None
    ) -> Any:
        """An empty visited set for about ``expected`` keys.

        It has ``admit(keys, limit) -> (positions, trip)`` (see
        :meth:`SortedVisited.admit`), ``contains(keys) -> bool array``,
        ``len``, ascending ``keys()``, ``reset()`` and ``close()``; both
        kernels' sets give identical answers.  ``max_slots`` (a power of
        two) caps the hash table's home slots, and the sorted array at
        the keys such a table holds; a full set refuses fresh keys.
        """
        return SortedVisited(self, max_slots)

    def make_canonicalizer(
        self, canonicalizer: Optional["FastCanonicalizer"]
    ) -> Optional[Any]:
        """The batched orbit reducer for ``canonicalizer`` (or None).

        Returns an object with ``canonical_many`` / ``orbit_sizes`` /
        ``order``, or None for a trivial (or absent) stabilizer.
        """
        if canonicalizer is None or canonicalizer.trivial:
            return None
        return BatchCanonicalizer(canonicalizer)

    @cached_property
    def footprints(self) -> FootprintTables:
        """The POR footprint gather tables, built at first use."""
        return FootprintTables(self.spec)

    def por_c0c1(
        self, frontier: "U64Array"
    ) -> Tuple["BoolArray", "U8Array"]:
        """C0–C2 of the ample selector for a whole frontier at once.

        Returns ``(qualified, nsucc)``: per-pid rows over the frontier —
        ``qualified[pid]`` marks states where pid's singleton is a
        C0–C2-sound ample candidate (at least two active pids, no
        write/read footprint conflict with any other pid, non-empty
        successor set, invisible to the checked property), and
        ``nsucc[pid]`` its successor count (at most m + 1, so 8 bits).
        """
        spec = self.spec
        tables = self.footprints
        n = spec.n
        n_states = int(frontier.shape[0])
        zero = np.uint64(0)
        scanning: List["BoolArray"] = []
        wmasks: List["U64Array"] = []
        rmasks: List["U64Array"] = []
        nsucc = np.zeros((n, n_states), dtype=np.uint8)
        active_count = np.zeros(n_states, dtype=np.int64)
        for pid in range(n):
            local = (frontier >> spec.local_offsets[pid]) & spec.local_mask
            phase = (local >> spec.o_phase) & 3
            writing = phase == _PHASE_WRITE
            scanning.append(phase == _PHASE_SCAN)
            unwritten = (local >> spec.o_unwritten) & spec.m_mask
            wmasks.append(
                np.where(writing, tables.wmask[pid][unwritten], zero)
            )
            rmasks.append(np.where(scanning[pid], tables.m_mask, zero))
            nsucc[pid] = np.where(
                writing, tables.popcount[unwritten], np.int64(0)
            ) + scanning[pid]
            active_count += writing | scanning[pid]

        # C1: pid i conflicts with pid j when i's writes touch j's
        # footprint or i's scan reads a cell j writes.  Inactive pids
        # have empty footprints and contribute nothing.
        eligible = active_count >= 2  # C0
        qualified = np.zeros((n, n_states), dtype=bool)
        for i in range(n):
            conflict = np.zeros(n_states, dtype=bool)
            for j in range(n):
                if j == i:
                    continue
                conflict |= (
                    (wmasks[i] & (wmasks[j] | rmasks[j])) != zero
                ) | ((rmasks[i] & wmasks[j]) != zero)
            qualified[i] = (nsucc[i] > 0) & eligible & ~conflict
            # C2: writes never terminate their pid; a scan candidate is
            # visible exactly when its (single) successor is DONE.
            if tables.visibility.outputs:
                idx = np.flatnonzero(qualified[i] & scanning[i])
                if idx.size:
                    sub = frontier[idx]
                    loc = (sub >> spec.local_offsets[i]) & spec.local_mask
                    succ = self._scan_step(sub, loc, i)
                    succ_phase = (
                        succ >> (spec.local_offsets[i] + spec.o_phase)
                    ) & 3
                    qualified[i, idx[succ_phase == _PHASE_DONE]] = False
        return qualified, nsucc

    def ample_sets(
        self,
        frontier: "U64Array",
        contains: Callable[["U64Array"], "BoolArray"],
        reducer: Optional[Any],
        shards: Tuple[int, int],
        cycle_proviso: bool,
        counters: PORCounters,
    ) -> "I64Array":
        """The per-state expansion mask of :meth:`BatchAmpleSelector.select`.

        ``contains`` is bulk membership in the visited set as of the
        level boundary, ``reducer`` maps successors to their orbit
        representatives (None: the states are their own keys), and only
        keys that shard ``shards[1]`` of ``shards[0]`` owns can be
        certainly new.  Adds the level's reduction to ``counters``.
        """
        spec = self.spec
        n = spec.n
        n_states = int(frontier.shape[0])
        n_shards, shard = shards

        qualified, nsucc = self.por_c0c1(frontier)

        selected = np.full(n_states, -1, dtype=np.int64)
        undecided = np.ones(n_states, dtype=bool)
        blocked = np.zeros(n_states, dtype=bool)
        for pid in range(n):
            trial = undecided & qualified[pid]
            if not bool(trial.any()):
                continue
            # C3: expand only this pid for the trial states and gather
            # bulk novelty verdicts for the whole round at once.
            if cycle_proviso:
                trial_idx = np.flatnonzero(trial)
                cand, cand_counts = self.expand_level(
                    frontier[trial_idx],
                    np.full(trial_idx.size, pid, dtype=np.int64),
                )
                passes = np.zeros(n_states, dtype=bool)
                if cand.size:
                    keys = (
                        cand if reducer is None
                        else reducer.canonical_many(cand)
                    )
                    uniq, first = self.unique_first(keys)
                    if n_shards > 1:
                        # A key another shard owns may sit in that
                        # shard's visited set: never certainly new.
                        owned = self.fingerprint_many(uniq) % np.uint64(
                            n_shards
                        ) == np.uint64(shard)
                        uniq, first = uniq[owned], first[owned]
                    fresh = ~contains(uniq)
                    certainly_new = np.zeros(keys.size, dtype=bool)
                    certainly_new[first[fresh]] = True
                    cand_parents = np.repeat(trial_idx, cand_counts)
                    passes[cand_parents[certainly_new]] = True
                ok = trial & passes
                blocked |= trial & ~passes
            else:
                ok = trial
            selected[ok] = pid
            undecided &= ~ok
            if not bool(undecided.any()):
                break

        chosen = selected >= 0
        n_chosen = int(chosen.sum())
        counters.ample_states += n_chosen
        if n_chosen:
            kept = nsucc[selected[chosen], np.flatnonzero(chosen)]
            counters.transitions_pruned += int(
                nsucc[:, chosen].sum(dtype=np.int64)
                - kept.sum(dtype=np.int64)
            )
        counters.fully_expanded_states += n_states - n_chosen
        counters.cycle_proviso_expansions += int((undecided & blocked).sum())
        return selected


def make_kernel(
    spec: FastSnapshotSpec,
    kernel: str = "numpy",
    canonicalizer: Optional["FastCanonicalizer"] = None,
) -> BatchKernel:
    """Construct the level kernel named by ``kernel``.

    ``"numpy"`` is the pure-numpy :class:`BatchKernel`; ``"native"``
    and ``"auto"`` build the generated C kernel
    (:mod:`repro.checker.native`) when a compiler and numpy are
    present, *silently* falling back to numpy otherwise — the two are
    bit-identical, so degradation never changes results, only speed
    (the CLI owns the one-time warning for an explicit ``native``
    request).  ``canonicalizer`` lets the native kernel bake the
    stabilizer's field maps into the translation unit.
    """
    if kernel not in ("auto", "numpy", "native"):
        raise ValueError(
            f"unknown kernel {kernel!r}; choose one of auto, numpy, native"
        )
    if kernel in ("auto", "native") and spec.state_bits <= 64:
        from repro.checker.native.loader import (
            NativeBuildError,
            NativeKernel,
            NativeKernelUnavailable,
        )

        try:
            return NativeKernel(spec, canonicalizer=canonicalizer)
        except (NativeBuildError, NativeKernelUnavailable):
            pass
    return BatchKernel(spec)


# ----------------------------------------------------------------------
# Batched canonicalization
# ----------------------------------------------------------------------
class BatchCanonicalizer:
    """Gather-based orbit reduction over a canonicalizer's tables.

    Re-expresses :class:`~repro.checker.symmetry.FastCanonicalizer`'s
    per-element appliers as numpy gathers: the fused register table
    maps the whole packed register file in one fancy-indexed load, the
    local table each relocated local, and the orbit representative is
    the element-wise minimum across all images.  Elements whose fused
    tables did not fit (the scalar per-field fallback) are replayed
    from their field maps, still fully vectorized.
    """

    def __init__(self, canonicalizer: "FastCanonicalizer") -> None:
        require_numpy()
        self.order = canonicalizer.order
        self._fused: List[
            Tuple["U64Array", int, "U64Array", int, Tuple[Tuple[int, int], ...]]
        ] = []
        self._general: List[Dict[str, object]] = []
        for tables in canonicalizer.element_tables:
            if tables["kind"] == "fused":
                self._fused.append((
                    np.array(
                        cast(List[int], tables["register_table"]),
                        dtype=np.uint64,
                    ),
                    cast(int, tables["block_mask"]),
                    np.array(
                        cast(List[int], tables["local_table"]),
                        dtype=np.uint64,
                    ),
                    cast(int, tables["local_mask"]),
                    cast(Tuple[Tuple[int, int], ...], tables["moves"]),
                ))
            else:
                self._general.append({
                    "record_map": np.array(
                        cast(List[int], tables["record_map"]),
                        dtype=np.uint64,
                    ),
                    "reg_moves": tables["reg_moves"],
                    "reg_mask": tables["reg_mask"],
                    "view_map": np.array(
                        cast(List[int], tables["view_map"]),
                        dtype=np.uint64,
                    ),
                    "moves": tables["moves"],
                    "local_mask": tables["local_mask"],
                    "k_mask": tables["k_mask"],
                    "k_clear": tables["k_clear"],
                })

    # ------------------------------------------------------------------
    def _images(self, states: "U64Array") -> List["U64Array"]:
        """One image array per non-identity stabilizer element."""
        images: List["U64Array"] = []
        for register_table, block_mask, local_table, local_mask, moves in (
            self._fused
        ):
            image = register_table[states & block_mask]
            for dst, src in moves:
                image = image | (
                    local_table[(states >> src) & local_mask] << dst
                )
            images.append(image)
        for tables in self._general:
            record_map = cast("U64Array", tables["record_map"])
            reg_mask = cast(int, tables["reg_mask"])
            view_map = cast("U64Array", tables["view_map"])
            local_mask = cast(int, tables["local_mask"])
            k_mask = cast(int, tables["k_mask"])
            k_clear = cast(int, tables["k_clear"])
            image = np.zeros(states.shape, dtype=np.uint64)
            for dst, src in cast(
                Tuple[Tuple[int, int], ...], tables["reg_moves"]
            ):
                image |= record_map[(states >> src) & reg_mask] << dst
            for dst, src in cast(
                Tuple[Tuple[int, int], ...], tables["moves"]
            ):
                loc = (states >> src) & local_mask
                image |= ((loc & k_clear) | view_map[loc & k_mask]) << dst
            images.append(image)
        return images

    def canonical_many(self, states: "U64Array") -> "U64Array":
        """Orbit representatives (minimum image), element-wise."""
        best = states
        for image in self._images(states):
            best = np.minimum(best, image)
        return best

    def orbit_sizes(self, states: "U64Array") -> "I64Array":
        """Distinct-orbit-member counts, element-wise."""
        images = self._images(states)
        if not images:
            return np.ones(states.shape, dtype=np.int64)
        stacked = np.stack([states] + images)
        stacked.sort(axis=0)
        distinct = (stacked[1:] != stacked[:-1]).sum(axis=0) + 1
        return cast("I64Array", distinct.astype(np.int64))


# ----------------------------------------------------------------------
# Level-synchronous ample-set selection (POR)
# ----------------------------------------------------------------------
class BatchAmpleSelector:
    """Ample sets for a whole BFS level at once.

    The level-synchronous twin of
    :class:`~repro.checker.por.FastAmpleSelector`, selecting per
    frontier state either one pid's successors (an ample set satisfying
    C0–C3) or full expansion, as an ``int64`` mask consumed by
    :meth:`BatchKernel.expand_level`.  The algorithm is the kernel's
    (:meth:`BatchKernel.ample_sets`; the native kernel runs it in a few
    C passes per level):

    - **C0/C1** — per-pid write/read footprints come from the
      :class:`~repro.checker.por.FootprintTables` gather tables; the
      pairwise conflict test ``(w_i & (w_j | r_j)) | (r_i & w_j)`` is a
      bitmask AND-reduction over whole frontier arrays.
    - **C2** — invisibility against the tables' compiled visibility
      footprint (outputs-only for the fast engine's stock safety
      property): a write never terminates its pid, a scan candidate is
      visible iff its successor phase is ``DONE``.
    - **C3** — the level-synchronous cycle proviso: a candidate pid is
      kept only if at least one of its successors is *certainly new*,
      i.e. its key (its orbit representative under ``reducer``) is
      owned by this shard (``shards`` is ``(n_shards, shard)``; a
      serial run is ``(1, 0)``), absent from the visited set as of the
      level boundary (one bulk ``contains`` query per trial round over
      the round's distinct keys) **and** the first occurrence of that
      key in the round's candidate pool.  Pessimistic within a level,
      hence sound: every certified key really is admitted this level
      and re-expanded on the next (see :mod:`repro.checker.por`).

    Candidate pids are tried in ascending order, mirroring the scalar
    selector's retry loop; states with no qualifying pid are fully
    expanded.  ``counters`` maintains the same
    :class:`~repro.checker.por.PORCounters` invariants as the scalar
    selector (``ample_states + fully_expanded_states`` equals the
    number of expanded states).
    """

    def __init__(
        self,
        kernel: BatchKernel,
        reducer: Optional[Any] = None,
        shards: Tuple[int, int] = (1, 0),
        cycle_proviso: bool = True,
    ) -> None:
        require_numpy()
        self.kernel = kernel
        self.reducer = reducer
        self.shards = shards
        self.cycle_proviso = cycle_proviso
        self.counters = PORCounters()

    def select(
        self,
        frontier: "U64Array",
        contains: Callable[["U64Array"], "BoolArray"],
    ) -> "I64Array":
        """The per-state expansion mask for ``frontier``: ``-1`` (full
        expansion) or a pid index per state.  ``contains`` is bulk
        membership of keys in the visited set as of the level
        boundary."""
        return self.kernel.ample_sets(
            frontier, contains, self.reducer, self.shards,
            self.cycle_proviso, self.counters,
        )


# ----------------------------------------------------------------------
# The level-batched exploration loop
# ----------------------------------------------------------------------
def _first_violation(
    spec: FastSnapshotSpec, kernel: BatchKernel, states: "U64Array"
) -> Tuple[int, Optional[str]]:
    """First violating state in admission order: ``(rank, message)``.

    Uses the vectorized mask when ``check_outputs`` is the stock
    implementation; any override (tests seed violations through it)
    gets faithful per-state scalar calls instead.
    """
    if type(spec).check_outputs is _STOCK_CHECK_OUTPUTS:
        hits = np.flatnonzero(kernel.violations(states))
        if hits.size == 0:
            return -1, None
        rank = int(hits[0])
        return rank, spec.check_outputs(int(states[rank]))
    for rank in range(states.size):
        message = spec.check_outputs(int(states[rank]))
        if message is not None:
            return rank, message
    return -1, None


def _buffer_end(counts: "I64Array", position: int) -> int:
    """End (exclusive) of the parent buffer holding generation position
    ``position``: successors are laid out parent-major, ``counts[i]``
    per frontier state."""
    ends = np.cumsum(counts)
    return int(ends[np.searchsorted(ends, position, side="right")])


#: Expected successors one frontier slice covers (see :func:`_slice_end`).
_SLICE_SUCCESSORS = 1 << 16

#: Keys the kernel's visited set is first sized for, at most: the native
#: table then starts at 2^20 slots (8 MiB) and doubles past 786k keys.
_VISITED_PRESIZE = 1 << 19


def _slice_end(start: int, n_states: int, per_state: float) -> int:
    """End (exclusive) of the frontier slice that starts at ``start``.

    A slice covers about ``_SLICE_SUCCESSORS`` successors at
    ``per_state`` (positive) expected successors per state, and at
    least one state.  Every level is cut by this one rule, budgeted or
    not, so a level's successors and keys are live one slice at a time,
    and a level that trips the budget is not expanded past its tripping
    slice.
    """
    wanted = max(1, int(_SLICE_SUCCESSORS / per_state))
    return min(n_states, start + wanted)


def explore_batch(
    spec: FastSnapshotSpec,
    max_states: int = 200_000_000,
    symmetry: bool = False,
    store: Optional[StoreConfig] = None,
    checkpointer: Optional[RunCheckpointer] = None,
    por: bool = False,
    por_cycle_proviso: bool = True,
    heartbeat: Optional[Any] = None,
    kernel: str = "numpy",
) -> FastExplorationResult:
    """Level-batched BFS, result-identical to the scalar engine.

    Call through :meth:`FastSnapshotSpec.explore` with
    ``engine="batch"`` rather than directly — ``explore`` owns the
    compatibility guards (wait-freedom, checkpoint completion) shared
    by both engines.  With ``por=True`` each level runs
    :class:`BatchAmpleSelector` before expansion; results are then
    verdict-conformant with (not count-identical to) the scalar
    selector — see the module docstring.  ``kernel`` names the level
    kernel (see :func:`make_kernel`); every kernel is bit-identical,
    so the choice never affects results.

    Every level is expanded and admitted in consecutive frontier
    slices (:func:`_slice_end`), so peak memory follows the slice, not
    the level, and the tail of a level after the budget trip is never
    generated.  The slices of a level share its POR selection and
    checkpoint; the heartbeat ticks once per slice.

    The visited set is a :class:`TieredVisited`: the kernel's own set
    (:meth:`BatchKernel.make_visited`), first sized for
    ``min(max_states, 2**19)`` keys and freed when the run ends, with a
    ``spill`` or ``mmap`` store as a disk tier that takes what overflows
    half of its ``mem_cap``.  Each slice is admitted by one
    ``admit(keys, max_states - seen)`` call: the generation-order
    positions of its fresh keys, up to the budget, and where the next
    one would have tripped it.  The native hash set finds them in one
    pass over the slice, so a level costs time in its own size, not in
    the visited set's.  A checkpoint dumps the set's keys, and a resume
    loads them back.

    Unlike the scalar loop, this one keeps no raw-successor cache: it
    canonicalizes every generated successor.  The cache is pure
    memoization, and a gather per successor costs less than the
    sorted-array bookkeeping a level-wide cache needs.  Budget-clipped
    counts still match the scalar loop exactly, because a state's
    successors are pairwise distinct: an occurrence the scalar cache
    skips maps to a visited or already-admitted representative.
    """
    setup = ClassSetup(spec, symmetry, "batch", kernel)
    canonicalizer = setup.canonicalizer
    level_kernel = cast(BatchKernel, setup.kernel)
    batch_canon = setup.batch_canon
    group_order = setup.group_order
    selector: Optional[BatchAmpleSelector] = None
    if por:
        selector = BatchAmpleSelector(
            level_kernel, batch_canon, cycle_proviso=por_cycle_proviso
        )
    # The visited set: the kernel's own, pre-sized from the budget, with
    # a disk-backed store as its second tier.
    visited = TieredVisited(
        level_kernel, store, min(max_states, _VISITED_PRESIZE)
    )

    def _result(
        states: int,
        transitions: int,
        complete: bool,
        truncated: int,
        covered: int,
        violation: Optional[str] = None,
    ) -> FastExplorationResult:
        return lean_result(
            states, transitions, complete, truncated, violation,
            covered if batch_canon is not None else None, group_order,
            visited if store is not None else None,
            selector.counters.as_dict() if selector is not None else None,
        )

    # Successor states to dedup keys: their orbit representatives.
    def _key_of(states: "U64Array") -> "U64Array":
        if batch_canon is None:
            return states
        return cast("U64Array", batch_canon.canonical_many(states))

    try:
        initial = spec.initial_state()
        transitions = truncated = covered = 0
        # The one state outside the level loop goes field by field:
        # the kernel's batched reducer holds the fused tables.
        if canonicalizer is not None:
            initial = canonicalizer.canonical_per_field(initial)
        resumed = checkpointer.latest() if checkpointer is not None else None
        if resumed is not None:
            visited.load(resumed.visited())
            n_seen = resumed.counter("admitted")
            transitions = resumed.counter("transitions")
            truncated = resumed.counter("truncated")
            if batch_canon is not None:
                covered = resumed.counter("covered")
            if selector is not None:
                selector.counters.load(resumed.counters)
            frontier = np.array(resumed.frontier(), dtype=np.uint64)
        else:
            if canonicalizer is not None:
                covered = canonicalizer.orbit_size_per_field(initial)
            violation = spec.check_outputs(initial)
            if violation:
                return _result(1, 0, True, 0, covered, violation)
            n_seen = 1
            frontier = np.array([initial], dtype=np.uint64)
            visited.admit(frontier, 1)

        complete = True
        # Expected successors per frontier state, from the last level.
        per_state = float(spec.n * spec.m)
        while frontier.size:
            if checkpointer is not None and checkpointer.due(n_seen):
                counters: Dict[str, int] = {
                    "admitted": n_seen,
                    "transitions": transitions,
                    "truncated": truncated,
                }
                if batch_canon is not None:
                    counters["covered"] = covered
                if selector is not None:
                    counters.update(selector.counters.as_dict())
                checkpointer.write(frontier, counters, visited.key_arrays())

            selected: Optional["I64Array"] = None
            if selector is not None:
                selected = selector.select(frontier, visited.contains)
            n_front = int(frontier.size)
            level_start = transitions
            level_seen = n_seen
            admitted_parts: List["U64Array"] = []
            start = 0
            while start < n_front:
                if heartbeat is not None:
                    # The frontier still to expand: the rest of this
                    # level plus the next level admitted so far.
                    heartbeat.tick(
                        n_seen, n_front - start + n_seen - level_seen,
                        transitions,
                    )
                stop = _slice_end(start, n_front, per_state)
                successors, succ_counts = level_kernel.expand_level(
                    frontier[start:stop],
                    None if selected is None else selected[start:stop],
                )
                start = stop
                level_size = int(successors.size)
                if level_size == 0:
                    continue

                keys = _key_of(successors)
                admitted_idx, trip = visited.admit(keys, max_states - n_seen)
                admitted = keys[admitted_idx]

                violating_rank = -1
                message: Optional[str] = None
                if admitted.size:
                    violating_rank, message = _first_violation(
                        spec, level_kernel, admitted
                    )
                if violating_rank >= 0:
                    # The scalar loop returns after counting the
                    # violating state's parent buffer in full.
                    admitted = admitted[:violating_rank + 1]
                    transitions += _buffer_end(
                        succ_counts, int(admitted_idx[violating_rank])
                    )
                elif trip >= 0:
                    # Budget trip: the scalar loop flips ``complete`` at
                    # the first occurrence of the (budget+1)-th new key,
                    # keeps counting truncated occurrences through the
                    # end of that parent's buffer, then stops.
                    complete = False
                    buffer_end = _buffer_end(succ_counts, trip)
                    transitions += buffer_end
                    # Truncated occurrences are those of the fresh keys
                    # first met at or after the trip: in the tail of
                    # the trip parent's buffer (at most n*m entries),
                    # exactly the keys still outside the set.
                    tail = keys[trip:buffer_end]
                    truncated += int((~visited.contains(tail)).sum())
                else:
                    transitions += level_size
                    admitted_parts.append(admitted)
                n_seen += int(admitted.size)
                if batch_canon is not None:
                    covered += int(batch_canon.orbit_sizes(admitted).sum())
                if violating_rank >= 0:
                    return _result(
                        n_seen, transitions, complete, truncated, covered,
                        message,
                    )
                if not complete:
                    break

            if not complete or not admitted_parts:
                break
            per_state = (transitions - level_start) / n_front
            frontier = (
                admitted_parts[0]
                if len(admitted_parts) == 1
                else np.concatenate(admitted_parts)
            )

        return _result(n_seen, transitions, complete, truncated, covered)
    finally:
        visited.close()
