"""Bitmask-encoded exploration of the snapshot algorithm.

Exhaustively exploring the 3-processor snapshot algorithm (the paper's
TLC claim A) needs tens of millions of states; the generic
object-encoded explorer of :mod:`repro.checker.explorer` is too slow for
that in pure Python.  This module provides a specialized, semantically
identical transition system in which one global state is a single
Python ``int``:

- register ``r`` holds ``view_mask | (level << K)``;
- processor ``p`` holds packed fields ``(view, level, unwritten, phase,
  scan_pos, all_match, min_level, acc)``;

with ``K`` the number of distinct inputs.  The transition rules mirror
:class:`repro.core.snapshot.SnapshotMachine` line for line; conformance
tests (``tests/test_fast_snapshot.py``) check that the fast system and
the generic system produce identical reachable-state graphs for ``N=2``
and identical random-walk behaviours for ``N=3``, so whatever the fast
explorer certifies transfers to the real implementation.

Beyond speed, the module implements the *configuration symmetry
reduction* used by experiment E4: wiring assignments are enumerated up
to (a) relabelling of physical registers and (b) simultaneous
permutation of processors and their (distinct) inputs — both are
isomorphisms of the induced state graph, because processors are
anonymous (identical code) and the checked properties are invariant
under renaming inputs.  For ``N = M = 3`` this cuts the 216 raw wiring
assignments to a handful of canonical classes.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.checker.symmetry import FastCanonicalizer
from repro.store.base import FingerprintStore, StoreConfig
from repro.store.checkpoint import RunCheckpointer, load_result
from repro.store.ram import RamStore

if TYPE_CHECKING:
    from repro.checker.batch import BatchKernel, TieredVisited

# Phase encoding.
_PHASE_WRITE = 0
_PHASE_SCAN = 1
_PHASE_DONE = 2


@dataclass
class FastExplorationResult:
    """Outcome of one fast exhaustive exploration."""

    states: int
    transitions: int
    complete: bool
    violation: Optional[str] = None
    #: (pid, schedule) witnessing a wait-freedom violation, if checked.
    bad_lasso_pid: Optional[int] = None
    #: Transitions whose (new) target was dropped at the state budget.
    truncated_transitions: int = 0
    #: Symmetry runs only: concrete states covered by the explored
    #: orbit representatives (sum of orbit sizes); ``covered / states``
    #: is the reduction ratio achieved by the quotient.
    covered_states: Optional[int] = None
    #: Symmetry runs only: order of the wiring-stabilizer group.
    symmetry_group_order: Optional[int] = None
    #: Sharded symmetry runs only: boundary states received already in
    #: canonical form (certified by the wire format's canonical bit),
    #: whose re-canonicalization was therefore skipped.
    recanonicalizations_skipped: Optional[int] = None
    #: Runs with an explicit store configuration: the backend's
    #: operation counters plus ``file_bytes`` (disk footprint).
    store_counters: Optional[Dict[str, int]] = None
    #: POR runs only: ample-set selector counters (transitions pruned,
    #: ample vs fully-expanded states, cycle-proviso expansions).
    por_counters: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return self.violation is None and self.bad_lasso_pid is None


def lean_result(
    states: int,
    transitions: int,
    complete: bool,
    truncated: int,
    violation: Optional[str],
    covered: Optional[int],
    group_order: Optional[int],
    store: Optional[Union[FingerprintStore, "TieredVisited"]],
    por_counters: Optional[Dict[str, int]],
) -> FastExplorationResult:
    """A safety run's result, as both lean engines report it.

    ``covered`` is the summed orbit size of the admitted
    representatives under a non-trivial stabilizer, else None;
    ``group_order`` is None without symmetry.  Under a trivial
    stabilizer the quotient is the concrete graph, so a finished run
    covers exactly its admitted states.  ``store`` is the visited set
    of a run with an explicitly configured backend, whose counters the
    result reports.
    """
    if covered is None and group_order is not None and violation is None:
        covered = states
    store_counters: Optional[Dict[str, int]] = None
    if store is not None:
        store_counters = dict(store.counters())
        store_counters["file_bytes"] = store.file_bytes()
    return FastExplorationResult(
        states, transitions, complete, violation,
        truncated_transitions=truncated,
        covered_states=covered,
        symmetry_group_order=group_order if covered is not None else None,
        store_counters=store_counters,
        por_counters=por_counters,
    )


class FastSnapshotSpec:
    """The Figure 3 algorithm over packed-integer global states.

    Parameters mirror :class:`~repro.core.snapshot.SnapshotMachine`;
    ``wiring`` is a tuple of permutations (local -> physical), one per
    processor.
    """

    def __init__(
        self,
        inputs: Sequence[int],
        wiring: Sequence[Sequence[int]],
        n_registers: Optional[int] = None,
        level_target: Optional[int] = None,
    ) -> None:
        self.n = len(inputs)
        self.m = n_registers if n_registers is not None else len(wiring[0])
        if any(len(perm) != self.m for perm in wiring):
            raise ValueError("wiring width does not match register count")
        self.level_target = self.n if level_target is None else level_target
        self.wiring = tuple(tuple(perm) for perm in wiring)
        self.inputs = tuple(inputs)

        # Input values -> bit positions (duplicates share a bit: groups).
        distinct = sorted(set(inputs), key=repr)
        self.value_bits = {value: index for index, value in enumerate(distinct)}
        self.bit_values = distinct
        self.k = len(distinct)
        self.input_masks = tuple(1 << self.value_bits[value] for value in inputs)

        # Field widths.
        self.lv_bits = max(1, self.level_target.bit_length())
        if self.level_target >= (1 << self.lv_bits):
            self.lv_bits += 1
        self.ml_sentinel = self.level_target + 1  # "no level read yet"
        self.ml_bits = max(1, self.ml_sentinel.bit_length())
        self.sp_bits = max(1, (self.m - 1).bit_length()) if self.m > 1 else 1
        self.reg_bits = self.k + self.lv_bits
        # Local layout: view | level | unwritten | phase | scan_pos |
        #               all_match | min_level.  (The scan accumulator is
        # folded into the view, mirroring SnapshotState's quotient.)
        self.o_level = self.k
        self.o_unwritten = self.o_level + self.lv_bits
        self.o_phase = self.o_unwritten + self.m
        self.o_scanpos = self.o_phase + 2
        self.o_allmatch = self.o_scanpos + self.sp_bits
        self.o_minlevel = self.o_allmatch + 1
        self.local_bits = self.o_minlevel + self.ml_bits

        # Global layout: registers first, then locals.
        self.reg_offsets = tuple(r * self.reg_bits for r in range(self.m))
        base = self.m * self.reg_bits
        self.local_offsets = tuple(
            base + p * self.local_bits for p in range(self.n)
        )

        self.k_mask = (1 << self.k) - 1
        self.lv_mask = (1 << self.lv_bits) - 1
        self.ml_mask = (1 << self.ml_bits) - 1
        self.sp_mask = (1 << self.sp_bits) - 1
        self.m_mask = (1 << self.m) - 1
        self.reg_mask = (1 << self.reg_bits) - 1
        self.local_mask = (1 << self.local_bits) - 1
        self.state_bits = self.local_offsets[-1] + self.local_bits

        # ------------------------------------------------------------------
        # Hot-path tables (see `successors` / `successor_states_into`):
        # everything a transition needs that depends only on (pid, reg)
        # is precomputed, and pack_local is replaced by OR-ing field
        # templates onto bits that are already in position (o_level ==
        # k, so a local's view+level bits *are* the register record).
        # ------------------------------------------------------------------
        #: In-place field masks.
        self._level_field = self.lv_mask << self.o_level
        self._unwritten_field = self.m_mask << self.o_unwritten
        self._record_field = self.k_mask | self._level_field
        #: Shift of the physical register written/read via local index.
        self._phys_offset = tuple(
            tuple(self.reg_offsets[self.wiring[pid][reg]] for reg in range(self.m))
            for pid in range(self.n)
        )
        #: Clears pid's local; ANDed into the state on every step.
        self._local_clear = tuple(
            ~(self.local_mask << offset) for offset in self.local_offsets
        )
        #: Clears pid's local *and* the register behind (pid, reg).
        self._write_clear = tuple(
            tuple(
                self._local_clear[pid]
                & ~(self.reg_mask << self._phys_offset[pid][reg])
                for reg in range(self.m)
            )
            for pid in range(self.n)
        )
        #: Constant template bits of a freshly packed local, per phase:
        #: scan_pos=0, all_match=1, min_level=sentinel (+ the phase).
        self._scan_reset = (
            (_PHASE_SCAN << self.o_phase)
            | (1 << self.o_allmatch)
            | (self.ml_sentinel << self.o_minlevel)
        )
        self._write_reset = (
            (1 << self.o_allmatch) | (self.ml_sentinel << self.o_minlevel)
        )
        self._done_reset = (
            (_PHASE_DONE << self.o_phase)
            | (1 << self.o_allmatch)
            | (self.ml_sentinel << self.o_minlevel)
        )

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------
    def pack_local(
        self,
        view: int,
        level: int,
        unwritten: int,
        phase: int,
        scan_pos: int,
        all_match: int,
        min_level: int,
    ) -> int:
        return (
            view
            | (level << self.o_level)
            | (unwritten << self.o_unwritten)
            | (phase << self.o_phase)
            | (scan_pos << self.o_scanpos)
            | (all_match << self.o_allmatch)
            | (min_level << self.o_minlevel)
        )

    def initial_state(self) -> int:
        state = 0
        for pid in range(self.n):
            local = self.pack_local(
                view=self.input_masks[pid],
                level=0,
                unwritten=self.m_mask,
                phase=_PHASE_WRITE,
                scan_pos=0,
                all_match=1,
                min_level=self.ml_sentinel,
            )
            state |= local << self.local_offsets[pid]
        return state

    def local_of(self, state: int, pid: int) -> int:
        return (state >> self.local_offsets[pid]) & self.local_mask

    def register_of(self, state: int, physical: int) -> int:
        return (state >> self.reg_offsets[physical]) & self.reg_mask

    def view_of(self, state: int, pid: int) -> int:
        return self.local_of(state, pid) & self.k_mask

    def phase_of(self, state: int, pid: int) -> int:
        return (self.local_of(state, pid) >> self.o_phase) & 3

    def done(self, state: int, pid: int) -> bool:
        return self.phase_of(state, pid) == _PHASE_DONE

    def output_views(self, state: int) -> Dict[int, frozenset]:
        """pid -> output view (as a frozenset of input values)."""
        outputs = {}
        for pid in range(self.n):
            if self.done(state, pid):
                mask = self.view_of(state, pid)
                outputs[pid] = frozenset(
                    self.bit_values[b] for b in range(self.k) if mask >> b & 1
                )
        return outputs

    # ------------------------------------------------------------------
    # Transition relation
    # ------------------------------------------------------------------
    def successors(self, state: int) -> List[Tuple[int, int]]:
        """All ``(pid, next_state)`` one-step successors.

        Enumeration order (pid ascending, then local register
        ascending) is part of the conformance contract with the generic
        :class:`~repro.checker.system.SystemSpec` and must not change.
        """
        result: List[Tuple[int, int]] = []
        local_mask = self.local_mask
        record_field = self._record_field
        scan_reset = self._scan_reset
        unwritten_shift = self.o_unwritten
        m = self.m
        m_mask = self.m_mask
        for pid in range(self.n):
            offset = self.local_offsets[pid]
            local = (state >> offset) & local_mask
            phase = (local >> self.o_phase) & 3
            if phase == _PHASE_DONE:
                continue
            if phase == _PHASE_WRITE:
                record = local & record_field
                unwritten = (local >> unwritten_shift) & m_mask
                phys_offset = self._phys_offset[pid]
                write_clear = self._write_clear[pid]
                for reg in range(m):
                    if not (unwritten >> reg) & 1:
                        continue
                    remaining = unwritten & ~(1 << reg)
                    if remaining == 0:
                        remaining = m_mask
                    new_local = (
                        record | (remaining << unwritten_shift) | scan_reset
                    )
                    result.append((
                        pid,
                        (state & write_clear[reg])
                        | (record << phys_offset[reg])
                        | (new_local << offset),
                    ))
            else:  # scanning
                result.append((pid, self._apply_read(state, pid, local, offset)))
        return result

    def successor_states_into(self, state: int, buf: List[int]) -> List[int]:
        """Append all successor *states* of ``state`` to ``buf``.

        The reusable-buffer twin of :meth:`successors` for the
        exploration hot loop: no per-state list allocation, no
        ``(pid, state)`` tuple per successor (BFS dedup only needs the
        state).  ``buf`` is cleared first and returned.  Enumeration
        order matches :meth:`successors` exactly.
        """
        buf.clear()
        append = buf.append
        local_mask = self.local_mask
        record_field = self._record_field
        scan_reset = self._scan_reset
        unwritten_shift = self.o_unwritten
        phase_shift = self.o_phase
        m = self.m
        m_mask = self.m_mask
        for pid in range(self.n):
            offset = self.local_offsets[pid]
            local = (state >> offset) & local_mask
            phase = (local >> phase_shift) & 3
            if phase == _PHASE_DONE:
                continue
            if phase == _PHASE_WRITE:
                record = local & record_field
                unwritten = (local >> unwritten_shift) & m_mask
                phys_offset = self._phys_offset[pid]
                write_clear = self._write_clear[pid]
                for reg in range(m):
                    if not (unwritten >> reg) & 1:
                        continue
                    remaining = unwritten & ~(1 << reg)
                    if remaining == 0:
                        remaining = m_mask
                    new_local = (
                        record | (remaining << unwritten_shift) | scan_reset
                    )
                    append(
                        (state & write_clear[reg])
                        | (record << phys_offset[reg])
                        | (new_local << offset)
                    )
            else:  # scanning
                append(self._apply_read(state, pid, local, offset))
        return buf

    def _apply_read(self, state: int, pid: int, local: int, offset: int) -> int:
        k_mask = self.k_mask
        view = local & k_mask
        scan_pos = (local >> self.o_scanpos) & self.sp_mask
        all_match = (local >> self.o_allmatch) & 1
        min_level = (local >> self.o_minlevel) & self.ml_mask

        record = (state >> self._phys_offset[pid][scan_pos]) & self.reg_mask
        read_view = record & k_mask
        if all_match and read_view == view:
            read_level = record >> self.k
            if read_level < min_level:
                min_level = read_level
        else:
            # Mirror SnapshotState's quotient: once the scan stopped
            # matching, fold reads into the view immediately and drop
            # the level bookkeeping.
            all_match = 0
            view |= read_view
            min_level = self.ml_sentinel

        if scan_pos + 1 < self.m:
            new_local = (
                view
                | (local & self._level_field)
                | (local & self._unwritten_field)
                | (_PHASE_SCAN << self.o_phase)
                | ((scan_pos + 1) << self.o_scanpos)
                | (all_match << self.o_allmatch)
                | (min_level << self.o_minlevel)
            )
        else:
            new_level = (min_level + 1) if all_match else 0
            if new_level >= self.level_target:
                new_local = (
                    view
                    | (min(new_level, self.lv_mask) << self.o_level)
                    | self._done_reset
                )
            else:
                new_local = (
                    view
                    | (new_level << self.o_level)
                    | (local & self._unwritten_field)
                    | self._write_reset
                )
        return (state & self._local_clear[pid]) | (new_local << offset)

    # ------------------------------------------------------------------
    # Safety: outputs must be pairwise containment-related and valid
    # ------------------------------------------------------------------
    def check_outputs(self, state: int) -> Optional[str]:
        views: List[Tuple[int, int]] = []  # (pid, view mask)
        for pid in range(self.n):
            if self.done(state, pid):
                views.append((pid, self.view_of(state, pid)))
        for index, (pid, mask) in enumerate(views):
            if not mask & self.input_masks[pid]:
                return f"processor {pid} output misses its own input"
            for other_pid, other_mask in views[index + 1 :]:
                meet = mask & other_mask
                if meet != mask and meet != other_mask:
                    return (
                        f"incomparable outputs: p{pid}={self._fmt(mask)}"
                        f" vs p{other_pid}={self._fmt(other_mask)}"
                    )
        return None

    def _fmt(self, mask: int) -> str:
        values = [str(self.bit_values[b]) for b in range(self.k) if mask >> b & 1]
        return "{" + ",".join(values) + "}"

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------
    def explore(
        self,
        max_states: int = 200_000_000,
        check_wait_freedom: bool = False,
        symmetry: bool = False,
        store: Optional[StoreConfig] = None,
        checkpointer: Optional[RunCheckpointer] = None,
        por: bool = False,
        por_cycle_proviso: bool = True,
        engine: str = "scalar",
        kernel: str = "auto",
        heartbeat=None,
    ) -> FastExplorationResult:
        """BFS over all reachable states (for this wiring).

        The visited set keys on the exact packed state: a state that
        fits 64 bits already is its own u64 key, so no verdict rests on
        a fingerprint's collision bound.

        With ``check_wait_freedom`` the full edge list is retained and
        analysed for bad lassos (cycles where some processor steps but
        never terminates); see :mod:`repro.checker.liveness` for the
        argument.

        With ``symmetry`` the visited set keys on orbit
        representatives under the wiring-stabilizer group
        (:mod:`repro.checker.symmetry`), exploring up to ``N!`` times
        fewer states; the result reports ``covered_states`` (sum of
        orbit sizes — the concrete states the run certifies) next to
        the representative count.  The safety verdict is unchanged
        (output comparability/validity is permutation-invariant); a
        violation *message*, checked on the representative, may name a
        permuted pid.  Incompatible with ``check_wait_freedom``, whose
        per-pid lasso analysis needs the unreduced graph.

        ``store`` selects the visited-set backend (:mod:`repro.store`):
        None / the default RamStore keeps the historical in-memory set;
        the mmap and spill backends bound memory for runs whose visited
        set outgrows RAM.  All backends produce identical results.

        ``checkpointer`` persists the run (frontier + visited dump +
        counters) every ``checkpointer.every`` admitted states; calling
        ``explore`` again with a checkpointer over the same directory
        resumes from the last committed checkpoint, or returns the
        recorded result directly if the run already finished.

        With ``por`` an ample-set partial-order reduction
        (:mod:`repro.checker.por`) prunes commuting interleavings: a
        state whose processors' current operations touch disjoint
        physical registers expands only one processor, provided its
        steps are invisible to ``check_outputs`` (no termination) and
        reach at least one unvisited state (cycle proviso).  Composes
        with ``symmetry`` (selection on the representative's concrete
        successors, canonicalized as usual), ``store`` and
        ``checkpointer``; incompatible with ``check_wait_freedom``,
        whose lasso analysis needs the unreduced graph.
        ``por_cycle_proviso`` is a test seam (disables C3); leave it on.

        ``engine`` selects the exploration loop: ``"scalar"`` (default)
        is the one-state-at-a-time loop and the conformance oracle;
        ``"batch"`` (:mod:`repro.checker.batch`) processes whole BFS
        levels as numpy u64 arrays for a large serial throughput gain,
        with field-identical results.  The batch engine needs numpy (a
        soft dependency — it raises
        :class:`~repro.checker.batch.BatchEngineUnavailable` with a
        clear message when missing), requires states to pack into 64
        bits, and is incompatible with ``check_wait_freedom`` (the
        lean batch pipeline keeps no edge list).  With ``por`` the
        batch engine runs its own level-synchronous ample selector
        (:class:`~repro.checker.batch.BatchAmpleSelector`): the cycle
        proviso certifies novelty against ``visited ∪
        earlier-in-level`` instead of the scalar loop's mid-level
        visited set, so batch+POR results are verdict-conformant with
        the scalar selector (same ok/violation/complete) but may pick
        different — equally sound — ample sets and hence different
        state/transition counts (see :mod:`repro.checker.por`).

        ``kernel`` picks the batch engine's level kernel: ``"auto"``
        (default) uses the generated native C kernel
        (:mod:`repro.checker.native`) when a C compiler is present and
        the numpy kernel otherwise; ``"numpy"`` and ``"native"`` force
        a choice (an unavailable ``"native"`` silently degrades to
        numpy — results are bit-identical either way).  Ignored by the
        scalar engine.
        """
        if engine not in ("scalar", "batch"):
            raise ValueError(
                f"unknown engine {engine!r}; choose 'scalar' or 'batch'"
            )
        if kernel not in ("auto", "numpy", "native"):
            raise ValueError(
                f"unknown kernel {kernel!r}; choose 'auto', 'numpy' or"
                f" 'native'"
            )
        if engine == "batch":
            from repro.checker import batch as batch_engine

            batch_engine.require_numpy()
            if check_wait_freedom:
                raise ValueError(
                    "wait-freedom (lasso) analysis needs the full edge"
                    " list, which the lean batch pipeline never"
                    " materializes — use the scalar engine"
                )
            if self.state_bits > 64:
                raise ValueError(
                    f"the batch kernel holds whole levels as raw u64"
                    f" arrays; this configuration packs states into"
                    f" {self.state_bits} bits — use the scalar engine"
                )
        if por and check_wait_freedom:
            raise ValueError(
                "partial-order reduction prunes interleavings, but"
                " wait-freedom (lasso) analysis needs the full"
                " unreduced transition graph — drop por"
            )
        if symmetry and check_wait_freedom:
            raise ValueError(
                "symmetry reduction relabels processors per state, so"
                " pid edge labels are not orbit-stable; wait-freedom"
                " (lasso) analysis needs the unreduced graph"
            )
        if check_wait_freedom and store is not None and store.backend != "ram":
            raise ValueError(
                "wait-freedom (lasso) analysis keeps a full in-RAM indexed"
                " state table; disk-backed stores apply to the lean safety"
                " engines only"
            )
        if checkpointer is not None:
            if check_wait_freedom:
                raise ValueError(
                    "checkpoint/resume covers the lean safety engines;"
                    " wait-freedom analysis keeps its whole edge list"
                    " in RAM and cannot be resumed"
                )
            if self.state_bits > 64:
                raise ValueError(
                    f"checkpoint frontier wire format is raw u64 words;"
                    f" this configuration packs states into"
                    f" {self.state_bits} bits"
                )
            recorded = checkpointer.completed_result()
            if recorded is not None:
                return load_result(FastExplorationResult, recorded)
        if check_wait_freedom:
            return self._explore_with_edges(max_states)
        if engine == "batch":
            from repro.checker.batch import explore_batch

            result = explore_batch(
                self, max_states, symmetry=symmetry, store=store,
                checkpointer=checkpointer, por=por,
                por_cycle_proviso=por_cycle_proviso, heartbeat=heartbeat,
                kernel=kernel,
            )
        else:
            result = self._explore_lean(
                max_states, symmetry, store, checkpointer, por,
                por_cycle_proviso, heartbeat,
            )
        if checkpointer is not None:
            checkpointer.mark_complete(asdict(result))
        return result

    def _explore_lean(
        self,
        max_states: int,
        symmetry: bool,
        store: Optional[StoreConfig],
        checkpointer: Optional[RunCheckpointer],
        por: bool,
        por_cycle_proviso: bool,
        heartbeat,
    ) -> FastExplorationResult:
        """Safety-only BFS: visited set + FIFO frontier, no index tables.

        This is the hot path of the E4 sweep; it admits states in
        exactly the same order as the indexed variant, so budgets and
        early-violation results are identical between the two.  The
        visited set lives in the configured :mod:`repro.store` backend;
        the default RamStore gets inline set operations.

        Under a non-trivial wiring stabilizer every generated successor
        is canonicalized before the visited-set lookup, so the visited
        set and the frontier hold orbit representatives only, and
        ``covered`` sums their orbit sizes.  On the RAM store a
        raw-successor cache additionally skips re-canonicalizing
        concrete successors generated more than once (most generated
        transitions hit already-seen states).  The cache grows with the
        *unreduced* successor count, so disk-backed stores, whose point
        is bounded RAM, pay the canonicalization per transition
        instead.  It is pure memoization: every backend reports
        identical results.
        """
        setup = ClassSetup(self, symmetry)
        group_order = setup.group_order
        canonical = orbit_size = None
        if setup.canonicalizer is not None:
            canonical = setup.canonicalizer.canonical
            orbit_size = setup.canonicalizer.orbit_size
        store_obj = (store or StoreConfig()).create()
        ram_set = (
            store_obj.raw_set if isinstance(store_obj, RamStore) else None
        )
        ram_add = ram_set.add if ram_set is not None else None
        store_add = store_obj.add
        selector = None
        if por:
            from repro.checker.por import FastAmpleSelector

            selector = FastAmpleSelector(self, cycle_proviso=por_cycle_proviso)

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
                covered if orbit_size is not None else None, group_order,
                store_obj if store is not None else None,
                selector.counters.as_dict() if selector is not None else None,
            )

        try:
            initial = self.initial_state()
            if canonical is not None:
                initial = canonical(initial)
            frontier: deque = deque()
            transitions = truncated = covered = 0
            resumed = (
                checkpointer.latest() if checkpointer is not None else None
            )
            if resumed is not None:
                store_obj.load(resumed.visited())
                n_seen = resumed.counter("admitted")
                transitions = resumed.counter("transitions")
                truncated = resumed.counter("truncated")
                if orbit_size is not None:
                    covered = resumed.counter("covered")
                if selector is not None:
                    selector.counters.load(resumed.counters)
                frontier.extend(resumed.frontier())
            else:
                if orbit_size is not None:
                    covered = orbit_size(initial)
                violation = self.check_outputs(initial)
                if violation:
                    return _result(1, 0, True, 0, covered, violation)
                store_add(initial)
                n_seen = 1
                frontier.append(initial)
            # The raw-successor cache: a cold cache after resume only
            # costs extra canonicalizer calls, never correctness.
            raw_seen: Optional[Set[int]] = (
                set(ram_set)
                if canonical is not None and ram_set is not None
                else None
            )

            def representatives(raw: List[int]) -> List[int]:
                if raw_seen is None:
                    return [canonical(successor) for successor in raw]
                reps = []
                for successor in raw:
                    if successor not in raw_seen:
                        raw_seen.add(successor)
                        reps.append(canonical(successor))
                return reps

            is_new = None
            if selector is not None:
                membership = ram_set if ram_set is not None else store_obj
                if canonical is None:
                    is_new = lambda successor: successor not in membership
                else:

                    def is_new(successor: int) -> bool:
                        # A raw successor seen before had its
                        # representative admitted then: not new.
                        if raw_seen is not None and successor in raw_seen:
                            return False
                        return canonical(successor) not in membership

            complete = True
            buf: List[int] = []
            check_outputs = self.check_outputs
            successor_states_into = self.successor_states_into
            while True:
                if heartbeat is not None:
                    heartbeat.tick(n_seen, len(frontier), transitions)
                if checkpointer is not None and checkpointer.due(n_seen):
                    counters = {
                        "admitted": n_seen,
                        "transitions": transitions,
                        "truncated": truncated,
                    }
                    if orbit_size is not None:
                        counters["covered"] = covered
                    if selector is not None:
                        counters.update(selector.counters.as_dict())
                    checkpointer.write(
                        iter(frontier), counters, iter(store_obj)
                    )
                if not frontier:
                    break
                state = frontier.popleft()
                if selector is None:
                    successor_states_into(state, buf)
                else:
                    selector.expand(state, buf, is_new)
                transitions += len(buf)
                successors = (
                    buf if canonical is None else representatives(buf)
                )
                for key in successors:
                    if ram_add is not None:
                        # Inline set ops: no store dispatch per
                        # generated transition.
                        if key in ram_set:
                            continue
                        if n_seen >= max_states:
                            complete = False
                            truncated += 1
                            continue
                        ram_add(key)
                        n_seen += 1
                    elif n_seen < max_states:
                        if not store_add(key):
                            continue
                        n_seen += 1
                    else:
                        if key in store_obj:
                            continue
                        complete = False
                        truncated += 1
                        continue
                    if orbit_size is not None:
                        covered += orbit_size(key)
                    frontier.append(key)
                    violation = check_outputs(key)
                    if violation:
                        return _result(
                            n_seen, transitions, complete, truncated,
                            covered, violation,
                        )
                if not complete:
                    # Budget exhausted: no pending state can admit a new
                    # one, so draining the frontier is wasted work.
                    break
            return _result(n_seen, transitions, complete, truncated, covered)
        finally:
            store_obj.close()

    def _explore_with_edges(self, max_states: int) -> FastExplorationResult:
        initial = self.initial_state()
        index_of: Dict[int, int] = {initial: 0}
        frontier: deque = deque([initial])
        transitions = 0
        truncated = 0
        complete = True
        edges: List[Tuple[int, int, int]] = []
        order: List[int] = [initial]

        violation = self.check_outputs(initial)
        if violation:
            return FastExplorationResult(1, 0, True, violation)

        while frontier:
            state = frontier.popleft()
            state_index = index_of[state]
            for pid, successor in self.successors(state):
                transitions += 1
                successor_index = index_of.get(successor)
                if successor_index is None:
                    if len(index_of) >= max_states:
                        complete = False
                        truncated += 1
                        continue
                    successor_index = len(index_of)
                    index_of[successor] = successor_index
                    order.append(successor)
                    frontier.append(successor)
                    violation = self.check_outputs(successor)
                    if violation:
                        return FastExplorationResult(
                            len(index_of), transitions, complete, violation,
                            truncated_transitions=truncated,
                        )
                edges.append((state_index, pid, successor_index))
            if not complete:
                break

        bad_pid = None
        if complete:
            from repro.checker.liveness import bad_lassos

            lassos = bad_lassos(
                edges, len(order), self.n,
                lambda index, pid: self.done(order[index], pid),
            )
            bad_pid = next((pid for pid, _ in lassos), None)
        return FastExplorationResult(
            states=len(index_of),
            transitions=transitions,
            complete=complete,
            bad_lasso_pid=bad_pid,
            truncated_transitions=truncated,
        )


#: ``check_outputs`` as defined by the class body above, captured before
#: any monkeypatch can run (patching requires importing this module
#: first).  The batch engine compares the live class attribute against
#: this to decide whether its vectorized safety mask is faithful or an
#: override (tests seed violations through ``check_outputs``) requires
#: per-state scalar calls.
_STOCK_CHECK_OUTPUTS = FastSnapshotSpec.check_outputs


class ClassSetup:
    """One wiring class prepared for exploration: ``spec``, its
    ``canonicalizer`` (None without ``symmetry`` or under a trivial
    stabilizer), the stabilizer's ``group_order`` (None without
    ``symmetry``) and, for ``engine="batch"``, the level ``kernel`` and
    its batched orbit reducer ``batch_canon``.

    The canonicalizer is built with its field maps only.  The scalar
    engine's setup then builds its fused tables and compiled lambdas up
    front (:meth:`FastCanonicalizer.fuse`), because its hot loops bind
    ``canonical`` once; the batch engine's leaves that to its kernel:
    the numpy kernel reads ``element_tables``, and the native kernel
    bakes the field maps and fills its own tables in C on its first
    canonicalization.  Every process of a sharded run builds its own
    setup: the driver sends its shard workers the construction
    parameters from :meth:`prepare` (a native library handle does not
    pickle), and each builds the setup from them while the driver
    builds its own.
    """

    def __init__(
        self,
        spec: FastSnapshotSpec,
        symmetry: bool = False,
        engine: str = "scalar",
        kernel: str = "auto",
    ) -> None:
        self.spec = spec
        self.symmetry = symmetry
        self.canonicalizer: Optional[FastCanonicalizer] = None
        self.group_order: Optional[int] = None
        if symmetry:
            canonicalizer = FastCanonicalizer(spec)
            self.group_order = canonicalizer.order
            if not canonicalizer.trivial:
                self.canonicalizer = canonicalizer
                if engine == "scalar":
                    canonicalizer.fuse()
        self.kernel: Optional[BatchKernel] = None
        self.batch_canon: Optional[Any] = None
        if engine == "batch":
            # Looked up on the module, so a wrapped make_kernel (a
            # profiler's, a test's) sees every kernel a setup loads.
            from repro.checker import batch

            batch.require_numpy()
            self.kernel = batch.make_kernel(spec, kernel, self.canonicalizer)
            self.batch_canon = self.kernel.make_canonicalizer(
                self.canonicalizer
            )

    @staticmethod
    def prepare(
        spec: FastSnapshotSpec,
        symmetry: bool = False,
        engine: str = "scalar",
        kernel: str = "auto",
    ) -> Tuple[FastSnapshotSpec, bool, str, str]:
        """Construction parameters under which any process builds this
        class's setup without compiling: a batch ``kernel`` request
        becomes the name of the kernel it yields here, whose native
        library is then in the cache."""
        if engine == "batch":
            from repro.checker import batch

            batch.require_numpy()
            canonicalizer = FastCanonicalizer(spec) if symmetry else None
            kernel = batch.make_kernel(spec, kernel, canonicalizer).kernel_name
        return spec, symmetry, engine, kernel


# ----------------------------------------------------------------------
# Claim-B search on the packed representation
# ----------------------------------------------------------------------

@dataclass
class FastAtomicityHit:
    """A claim-B counterexample found by the fast search.

    ``schedule`` is a list of ``(pid, local_register_or_None)`` steps:
    a local register index for a write step, ``None`` for the (unique)
    scan read.  :meth:`to_ops` lifts it to replayable simulator ops.
    """

    pid: int
    output: frozenset
    schedule: List[Tuple[int, Optional[int]]]

    def to_ops(self, machine) -> List[Tuple[int, object]]:
        """Translate into (pid, Op) pairs against ``machine`` states.

        Replays the schedule symbolically: for a write step the recorded
        local register selects among the machine's enabled writes; for a
        read step the machine's single enabled read is taken.
        """
        from repro.sim.ops import Read, Write

        ops: List[Tuple[int, object]] = []
        for pid, reg in self.schedule:
            if reg is None:
                ops.append((pid, None))  # resolved during replay
            else:
                ops.append((pid, reg))
        return ops


class FastAtomicitySearch:
    """DFS/BFS hunt for outputs the memory never contained.

    Augments each packed state with a bitmask over the (at most
    ``2^K``) possible memory unions seen along the path; a processor
    terminating with a view whose union-bit is unset witnesses the
    paper's Section 8 claim.  The DFS keeps the current path on its
    frame stack, so hits come with a full replayable schedule.
    """

    def __init__(self, spec: FastSnapshotSpec) -> None:
        if spec.k > 16:
            raise ValueError("union bitmask supports at most 16 distinct inputs")
        self.spec = spec
        self._state_bits = (
            spec.local_offsets[-1] + spec.local_bits
        )

    # -- helpers ---------------------------------------------------------
    def memory_union_mask(self, state: int) -> int:
        spec = self.spec
        union = 0
        for offset in spec.reg_offsets:
            union |= (state >> offset) & spec.k_mask
        return union

    def successors_with_actions(
        self, state: int
    ) -> List[Tuple[int, Optional[int], int]]:
        """Like ``successors`` but tagging each step with the local
        register written (or None for a read)."""
        spec = self.spec
        result: List[Tuple[int, Optional[int], int]] = []
        for pid in range(spec.n):
            offset = spec.local_offsets[pid]
            local = (state >> offset) & spec.local_mask
            phase = (local >> spec.o_phase) & 3
            if phase == _PHASE_DONE:
                continue
            if phase == _PHASE_WRITE:
                view = local & spec.k_mask
                level = (local >> spec.o_level) & spec.lv_mask
                unwritten = (local >> spec.o_unwritten) & spec.m_mask
                record = view | (level << spec.k)
                for reg in range(spec.m):
                    if not (unwritten >> reg) & 1:
                        continue
                    remaining = unwritten & ~(1 << reg)
                    if remaining == 0:
                        remaining = spec.m_mask
                    new_local = spec.pack_local(
                        view, level, remaining, _PHASE_SCAN, 0, 1,
                        spec.ml_sentinel,
                    )
                    physical = spec.wiring[pid][reg]
                    reg_offset = spec.reg_offsets[physical]
                    new_state = (
                        state
                        & ~(spec.reg_mask << reg_offset)
                        & ~(spec.local_mask << offset)
                    ) | (record << reg_offset) | (new_local << offset)
                    result.append((pid, reg, new_state))
            else:
                result.append(
                    (pid, None, spec._apply_read(state, pid, local, offset))
                )
        return result

    # -- the search -------------------------------------------------------
    def dfs(
        self, max_visited: int = 5_000_000, shuffle_seed: Optional[int] = None
    ) -> Tuple[Optional[FastAtomicityHit], int]:
        """Depth-first hunt; returns ``(hit_or_None, states_visited)``."""
        import random as random_module

        spec = self.spec
        rng = (
            random_module.Random(shuffle_seed)
            if shuffle_seed is not None
            else None
        )
        shift = self._state_bits
        initial = spec.initial_state()
        start = initial | (
            (1 << self.memory_union_mask(initial)) << shift
        )
        state_mask = (1 << shift) - 1
        visited = {start}
        # Frame: (augmented state, successor list, next index); the
        # schedule stack mirrors the path.
        frames: List[List] = [[start, None, 0]]
        path: List[Tuple[int, Optional[int]]] = []

        while frames:
            frame = frames[-1]
            aug, successors, cursor = frame
            state = aug & state_mask
            seen_mask = aug >> shift
            if successors is None:
                successors = self.successors_with_actions(state)
                if rng is not None:
                    rng.shuffle(successors)
                frame[1] = successors
            if cursor >= len(successors):
                frames.pop()
                if path:
                    path.pop()
                continue
            frame[2] = cursor + 1
            pid, action, new_state = successors[cursor]
            union_bit = 1 << self.memory_union_mask(new_state)
            new_seen = seen_mask | union_bit
            # Termination check: did pid just finish?
            if spec.done(new_state, pid) and not spec.done(state, pid):
                view = spec.view_of(new_state, pid)
                if not (new_seen >> view) & 1:
                    output = frozenset(
                        spec.bit_values[b]
                        for b in range(spec.k)
                        if (view >> b) & 1
                    )
                    return (
                        FastAtomicityHit(
                            pid=pid,
                            output=output,
                            schedule=path + [(pid, action)],
                        ),
                        len(visited),
                    )
            new_aug = new_state | (new_seen << shift)
            if new_aug in visited:
                continue
            if len(visited) >= max_visited:
                return None, len(visited)
            visited.add(new_aug)
            frames.append([new_aug, None, 0])
            path.append((pid, action))
        return None, len(visited)


def replay_fast_hit(machine, inputs, wiring_perms, hit) -> Tuple[dict, bool]:
    """Independently replay a :class:`FastAtomicityHit` on the generic
    machine; returns ``(outputs, union_never_matched)``."""
    from repro.checker.atomicity import memory_union
    from repro.checker.system import SystemSpec
    from repro.memory.wiring import WiringAssignment
    from repro.sim.ops import Read, Write

    wiring = WiringAssignment.from_permutations(wiring_perms)
    spec = SystemSpec(machine, inputs, wiring)
    state = spec.initial_state()
    unions = {memory_union(state)}
    for pid, reg in hit.schedule:
        ops = spec.enabled(state, pid)
        if reg is None:
            (op,) = [o for o in ops if isinstance(o, Read)]
        else:
            (op,) = [o for o in ops if isinstance(o, Write) and o.reg == reg]
        _, state = spec.apply(state, pid, op)
        unions.add(memory_union(state))
    outputs = spec.outputs(state)
    return outputs, hit.output not in unions


# ----------------------------------------------------------------------
# Wiring enumeration with configuration symmetry reduction
# ----------------------------------------------------------------------

def canonical_wiring_classes(
    n_processors: int, n_registers: int
) -> List[Tuple[Tuple[int, ...], ...]]:
    """Wiring assignments up to register relabelling and processor
    permutation.

    Two assignments are equivalent when one is obtained from the other
    by (a) composing every wiring with a common physical relabelling
    and/or (b) permuting the processors.  Both operations induce
    isomorphisms of the reachable state graph (processors are anonymous
    and the checked properties are invariant under renaming their
    inputs), so exploring one representative per class is exhaustive.

    Classes come in the order in which ``itertools.product`` first
    meets one of their assignments, each represented by the least member
    of its orbit, which starts with the identity wiring.  A new class
    marks its whole orbit seen, so each later assignment of it costs one
    set lookup.
    """
    perms = [tuple(perm) for perm in itertools.permutations(range(n_registers))]
    orders = list(itertools.permutations(range(n_processors)))
    seen: Set[Tuple[Tuple[int, ...], ...]] = set()
    classes: List[Tuple[Tuple[int, ...], ...]] = []
    for assignment in itertools.product(perms, repeat=n_processors):
        if assignment in seen:
            continue
        orbit = {
            tuple(
                tuple(relabel[register] for register in assignment[p])
                for p in order
            )
            for order in orders
            for relabel in perms
        }
        seen |= orbit
        classes.append(min(orbit))
    return classes
