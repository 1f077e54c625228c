"""Ample-set partial-order reduction for the write-scan machines.

Symmetry (:mod:`repro.checker.symmetry`) quotients *states*; this
module quotients *schedules*.  Two steps of different processors are
*independent* when their current operations touch disjoint physical
registers — computable per state from the same precomputed wiring
tables the canonicalizer uses, because each processor's private wiring
``sigma_p`` fixes which physical cell a local operation lands on:

- writes to distinct physical cells commute;
- a scan step conflicts with every write to any register (the scan's
  remaining reads sweep the whole memory, so its read footprint is
  taken to be all ``m`` registers);
- steps of ``DONE`` processors do not exist, and purely local/decide
  steps (no register operand) are globally independent.

At each expanded state the selector tries to pick an **ample set**:
all enabled operations of one single processor, subject to the classic
conditions (Clarke–Grumberg–Peled, ch. 10):

- **C0** — the ample set is nonempty unless the state is terminal (we
  only ever pick a processor that has enabled operations).
- **C1** — dependency closure: the chosen processor's current
  operations must be independent of every *other* enabled processor's
  current operations **and** of every operation those processors can
  ever issue from here on.  For the write-scan machines both halves
  collapse to current-operation granularity: enabledness depends only
  on the stepping processor's own local state, and every active
  processor eventually scans every register, so the future footprint
  is the full register set and closing over it would degenerate to no
  reduction — the selectors therefore use current operations and let
  exhaustive N=2 conformance tests and CI back the approximation (see
  ``docs/checking.md``).  Machines that permanently *retire* registers
  (some register is never touched again from a given local state) can
  do better *and* need the closure for soundness when another
  processor's current quiescence is temporary: such a machine may
  declare an optional ``future_footprint(local) -> (writes, reads)``
  hook (local register indices, or ``"all"``), and the generic
  selector then checks the candidate's *current* footprint against
  every other processor's *future* footprint.  Without the hook the
  future footprint defaults to the current one, preserving the
  write-scan behavior exactly.
- **C2** — invisibility: no ample step may change the truth of any
  checked property.  Each property declares a *visibility footprint*
  (:func:`repro.checker.properties.visibility_footprint`); undeclared
  properties conservatively make every step visible, which disables
  reduction entirely.  The fast engine's hard-wired safety check
  (`check_outputs`) reads terminated outputs only, so a step is
  visible exactly when it terminates the stepping processor.
- **C3** — cycle proviso: an ample set is acceptable only if at least
  one of its successor states is *new* (not in the visited set); a
  state whose every candidate fails this is fully expanded.  This is
  the BFS variant of the proviso and prevents the classic livelock
  where a cycle of invisible steps starves the other processors
  forever.  The membership test is supplied by the engine as a
  closure over its visited structure (fingerprint store, canonical
  set, ...), so the proviso composes with every backend; sharded
  engines can only certify locally-owned successors as new and are
  therefore pessimistic (sound, weaker reduction).

Composition with symmetry: ample selection happens on the (already
canonical, when symmetry is on) expanded state's *concrete*
successors; each chosen successor is then canonicalized through the
same pipeline as an unreduced transition.  Reduced paths are real
paths of the full system, so counterexample reconstruction needs no
POR-specific handling.

Composition with the batch engine: a *level-synchronous* formulation.
The vectorized level kernel (:mod:`repro.checker.batch`) selects ample
sets for a whole BFS level at once: :class:`FootprintTables` compiles
the write-scan independence relation above into per-pid u64 lookup
arrays (unwritten-mask -> physical write footprint), C0/C1 become
bitmask AND-reductions over whole frontier arrays, C2 is the same
outputs-only visibility mask applied to vectorized scan successors,
and C3 certifies novelty against ``visited ∪ earlier-in-level``: a
tentative ample successor counts as *new* only when its key is absent
from the visited set as of the level boundary (one bulk
``contains_many`` gather, replacing the scalar mid-level ``is_new``
closure) **and** it is the first occurrence of that key within the
current candidate pool.  That proviso is pessimistic *within* a level
— a successor first produced by an earlier state of the same level
blocks later ample candidates even though the scalar loop might have
accepted them — and therefore sound: every key certified new really is
admitted this level and re-expanded on the next, so no invisible cycle
can be starved.  The price of the formulation is that the two engines'
C3 oracles legitimately disagree, so batch+POR conformance is
verdict-level (same ok/violation/complete), not count-identical as in
the unreduced case; exhaustive N=2 cross-engine verdict equality is
enforced in tier-1 and CI.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.ops import Write

if TYPE_CHECKING:
    import numpy

    from numpy.typing import NDArray

    from repro.checker.fast_snapshot import FastSnapshotSpec

    U64Array = NDArray[numpy.uint64]
    I64Array = NDArray[numpy.int64]

_PHASE_WRITE = 0
_PHASE_SCAN = 1
_PHASE_DONE = 2

#: Engine-supplied membership closure: True when the candidate
#: successor is certainly NOT in the visited set yet (C3).
IsNew = Callable[[object], bool]

#: Attributes followed when resolving a ``por_footprint = "delegate"``
#: declaration to the machine that actually issues the ops.  The same
#: order the shipped machines use for their embedded machines.
_DELEGATE_ATTRS = ("snapshot_machine", "_inner", "inner")

#: Delegation chains in this codebase are one hop; bound the resolver
#: walk far above that so a cyclic delegation cannot loop it.
_MAX_DELEGATION_DEPTH = 8


def declared_machine_footprint(
    machine: object,
) -> Optional[Tuple[Dict[str, str], int]]:
    """Resolve a machine's ``por_footprint`` declaration at runtime.

    Machines declare their write/read discipline for anonlint's POR002
    rule as a class attribute: either a dict like ``{"writes":
    "unwritten", "reads": "all"}`` or the string ``"delegate"`` (all
    ops come from an embedded machine).  This resolver follows
    delegation through the conventional inner-machine attributes and
    returns ``(footprint, depth)``, where ``depth`` counts the hops —
    the number of ``.inner`` accesses a *state* of the outer machine
    needs before ``unwritten``-style fields of the declaring machine
    are visible.  ``None`` when nothing along the chain declares a
    dict footprint (POR002 then falls back to static inference alone).
    """
    current: object = machine
    depth = 0
    for _ in range(_MAX_DELEGATION_DEPTH):
        declared = getattr(current, "por_footprint", None)
        if isinstance(declared, dict):
            return dict(declared), depth
        if declared != "delegate":
            return None
        for attr in _DELEGATE_ATTRS:
            inner = getattr(current, attr, None)
            if inner is not None:
                current = inner
                depth += 1
                break
        else:
            return None
    return None


def observed_step_footprint(
    spec: Any, state: Any, pid: int
) -> Tuple[int, bool]:
    """``(physical write mask, any read?)`` of one pid's enabled ops.

    The runtime half of POR002's cross-check: what the machine
    *actually* offers from ``state``, folded through the pid's private
    wiring — compared by :mod:`repro.lint.dynamic` against the
    declared footprint on a sample of reachable states.
    """
    physical = spec._physical
    wmask = 0
    has_read = False
    for op in spec.machine.enabled_ops(state.locals[pid]):
        if isinstance(op, Write):
            wmask |= 1 << physical[pid][op.reg]
        else:
            has_read = True
    return wmask, has_read


class PORCounters:
    """Per-run reduction counters (one instance per selector)."""

    __slots__ = (
        "transitions_pruned",
        "ample_states",
        "fully_expanded_states",
        "cycle_proviso_expansions",
    )

    def __init__(self) -> None:
        self.transitions_pruned = 0
        self.ample_states = 0
        self.fully_expanded_states = 0
        self.cycle_proviso_expansions = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "transitions_pruned": self.transitions_pruned,
            "ample_states": self.ample_states,
            "fully_expanded_states": self.fully_expanded_states,
            "cycle_proviso_expansions": self.cycle_proviso_expansions,
        }

    def load(self, counters: Dict[str, int]) -> None:
        """Restore from a checkpoint counters dict (missing keys -> 0)."""
        self.transitions_pruned = int(counters.get("transitions_pruned", 0))
        self.ample_states = int(counters.get("ample_states", 0))
        self.fully_expanded_states = int(
            counters.get("fully_expanded_states", 0)
        )
        self.cycle_proviso_expansions = int(
            counters.get("cycle_proviso_expansions", 0)
        )


# ----------------------------------------------------------------------
# Visibility footprints (C2)
# ----------------------------------------------------------------------


class Visibility:
    """Aggregated visibility footprint of a set of checked properties.

    ``all_steps`` — some property made no declaration (or declared
    ``locals=True``): every step is visible and reduction is off.
    ``outputs`` — some property reads terminated outputs: steps that
    terminate a processor are visible.  ``register_mask`` — union of
    declared physical-register footprints: writes landing in the mask
    are visible.
    """

    __slots__ = ("all_steps", "outputs", "register_mask")

    def __init__(
        self, all_steps: bool, outputs: bool, register_mask: int
    ) -> None:
        self.all_steps = all_steps
        self.outputs = outputs
        self.register_mask = register_mask


def aggregate_visibility(
    invariants: Sequence[Callable[..., object]], n_registers: int
) -> Visibility:
    """Fold the ``visibility_footprint`` declarations of ``invariants``.

    A property without a declaration defaults to "all steps visible"
    (the conservative choice mandated by C2: we may only prune steps
    provably unable to flip any verdict).
    """
    all_steps = False
    outputs = False
    register_mask = 0
    full = (1 << n_registers) - 1
    for invariant in invariants:
        footprint = getattr(invariant, "visibility_footprint", None)
        if footprint is None or footprint["locals"]:
            all_steps = True
            continue
        if footprint["outputs"]:
            outputs = True
        registers = footprint["registers"]
        if registers == "all":
            register_mask = full
        else:
            for reg in registers:
                if not 0 <= reg < n_registers:
                    raise ValueError(
                        f"visibility footprint register {reg} outside"
                        f" 0..{n_registers - 1}"
                    )
                register_mask |= 1 << reg
    return Visibility(all_steps, outputs, register_mask)


# ----------------------------------------------------------------------
# Footprint tables (shared by the scalar and batch selectors)
# ----------------------------------------------------------------------


def _write_footprint_table(wiring: Sequence[int], m: int) -> List[int]:
    """``unwritten-mask -> physical write-footprint bitmask`` for one pid.

    Entry ``u`` is the union over the set bits of ``u`` of the physical
    cell the pid's wiring maps that local register to — exactly the set
    of cells the pid's next write step could touch.
    """
    table = [0] * (1 << m)
    for unwritten in range(1, 1 << m):
        mask = 0
        for reg in range(m):
            if (unwritten >> reg) & 1:
                mask |= 1 << wiring[reg]
        table[unwritten] = mask
    return table


def export_footprint_tables(
    spec: "FastSnapshotSpec",
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """The C0/C1 mask tables as plain ints, for code generators.

    Returns ``(wmask, popcount)``: ``wmask[pid][unwritten]`` is the
    physical write-footprint bitmask (the same table
    :class:`FootprintTables` loads into numpy arrays) and
    ``popcount[unwritten]`` the write-successor count.  Deliberately
    numpy-free so :mod:`repro.checker.native.generator` can bake the
    tables into a translation unit without importing the batch stack.
    """
    m = spec.m
    wmask = tuple(
        tuple(_write_footprint_table(spec.wiring[pid], m))
        for pid in range(spec.n)
    )
    popcount = tuple(bin(u).count("1") for u in range(1 << m))
    return wmask, popcount


class FootprintTables:
    """The write-scan independence relation as numpy gather tables.

    The level-synchronous selector in :mod:`repro.checker.batch` needs,
    for a whole frontier array at once, each pid's physical write
    footprint (a u64 register bitmask) and successor count.  Both are
    pure functions of the pid's wiring and its packed ``unwritten``
    field, so they compile once into ``(2**m,)`` lookup arrays indexed
    by that field — the vectorized twin of
    :class:`FastAmpleSelector`'s scalar ``_wmask_tables``.

    numpy is imported lazily here so the module (and the scalar
    selectors) stays importable without it.
    """

    __slots__ = ("wmask", "popcount", "m_mask", "visibility")

    def __init__(self, spec: "FastSnapshotSpec") -> None:
        import numpy as np

        m = spec.m
        size = 1 << m
        wmask = np.zeros((spec.n, size), dtype=np.uint64)
        for pid in range(spec.n):
            wmask[pid] = _write_footprint_table(spec.wiring[pid], m)
        #: pid -> unwritten-mask -> physical write-footprint bitmask.
        self.wmask: "U64Array" = wmask
        #: unwritten-mask -> number of write successors (set bits).
        self.popcount: "I64Array" = np.bitwise_count(
            np.arange(size, dtype=np.uint64)
        ).astype(np.int64)
        #: A scan's read footprint: every physical register.
        self.m_mask = np.uint64(spec.m_mask)
        #: The fast engine's one safety property (``check_outputs``)
        #: compiled through the same aggregation the generic selector
        #: uses: it reads terminated outputs only, so its footprint is
        #: outputs-only with an empty register mask.
        self.visibility = Visibility(
            all_steps=False, outputs=True, register_mask=0
        )


# ----------------------------------------------------------------------
# Fast (packed-integer) selector
# ----------------------------------------------------------------------


class FastAmpleSelector:
    """Ample sets over :class:`~repro.checker.fast_snapshot.FastSnapshotSpec`.

    The fast engine's only safety property is ``check_outputs``
    (terminated outputs comparable + self-inclusive), whose visibility
    footprint is outputs-only: a step is visible exactly when it moves
    the stepping processor to ``DONE``.

    ``cycle_proviso`` is a test seam: disabling it demonstrates the
    classic livelock miss that C3 exists to prevent
    (``tests/test_por.py``); production callers leave it on.
    """

    def __init__(
        self, spec: "FastSnapshotSpec", cycle_proviso: bool = True
    ) -> None:
        self.spec = spec
        self.cycle_proviso = cycle_proviso
        self.counters = PORCounters()
        m = spec.m
        #: pid -> unwritten-mask -> physical-register write footprint.
        self._wmask_tables: List[Tuple[int, ...]] = [
            tuple(_write_footprint_table(spec.wiring[pid], m))
            for pid in range(spec.n)
        ]
        self._popcount = tuple(bin(v).count("1") for v in range(1 << m))

    # ------------------------------------------------------------------
    def expand(self, state: int, buf: List[int], is_new: IsNew) -> List[int]:
        """Fill ``buf`` with the selected successors of ``state``.

        Either one processor's successors (an ample set satisfying
        C0–C3) or, when no candidate qualifies, the full successor set
        in the engines' canonical enumeration order.  Returns ``buf``.
        """
        spec = self.spec
        buf.clear()
        local_mask = spec.local_mask
        phase_shift = spec.o_phase
        unwritten_shift = spec.o_unwritten
        m_mask = spec.m_mask
        pids: List[int] = []
        locals_: List[int] = []
        offsets: List[int] = []
        wmasks: List[int] = []
        rmasks: List[int] = []
        total = 0
        for pid in range(spec.n):
            offset = spec.local_offsets[pid]
            local = (state >> offset) & local_mask
            phase = (local >> phase_shift) & 3
            if phase == _PHASE_DONE:
                continue
            if phase == _PHASE_WRITE:
                unwritten = (local >> unwritten_shift) & m_mask
                wmasks.append(self._wmask_tables[pid][unwritten])
                rmasks.append(0)
                total += self._popcount[unwritten]
            else:
                # A scan conflicts with every write to any register.
                wmasks.append(0)
                rmasks.append(m_mask)
                total += 1
            pids.append(pid)
            locals_.append(local)
            offsets.append(offset)

        counters = self.counters
        active = len(pids)
        if active >= 2:
            proviso_blocked = False
            for i in range(active):
                w = wmasks[i]
                r = rmasks[i]
                conflict = False
                for j in range(active):
                    if j == i:
                        continue
                    if (w & (wmasks[j] | rmasks[j])) or (r & wmasks[j]):
                        conflict = True
                        break
                if conflict:
                    continue
                offset = offsets[i]
                cand = self._pid_successors(
                    state, pids[i], locals_[i], offset
                )
                # C2: writes never terminate a processor (invisible);
                # a scan read is visible iff it finishes the scan.
                if r:
                    succ_phase = (cand[0] >> (offset + phase_shift)) & 3
                    if succ_phase == _PHASE_DONE:
                        continue
                # C3: at least one ample successor must be new.
                if self.cycle_proviso and not any(is_new(s) for s in cand):
                    proviso_blocked = True
                    continue
                buf.extend(cand)
                counters.ample_states += 1
                counters.transitions_pruned += total - len(cand)
                return buf
            if proviso_blocked:
                counters.cycle_proviso_expansions += 1
        spec.successor_states_into(state, buf)
        counters.fully_expanded_states += 1
        return buf

    def _pid_successors(
        self, state: int, pid: int, local: int, offset: int
    ) -> List[int]:
        """One processor's successors, in the canonical (reg-ascending)
        enumeration order of ``successor_states_into``."""
        spec = self.spec
        if ((local >> spec.o_phase) & 3) == _PHASE_SCAN:
            return [spec._apply_read(state, pid, local, offset)]
        record = local & spec._record_field
        unwritten = (local >> spec.o_unwritten) & spec.m_mask
        phys_offset = spec._phys_offset[pid]
        write_clear = spec._write_clear[pid]
        scan_reset = spec._scan_reset
        out: List[int] = []
        for reg in range(spec.m):
            if not (unwritten >> reg) & 1:
                continue
            remaining = unwritten & ~(1 << reg)
            if remaining == 0:
                remaining = spec.m_mask
            new_local = record | (remaining << spec.o_unwritten) | scan_reset
            out.append(
                (state & write_clear[reg])
                | (record << phys_offset[reg])
                | (new_local << offset)
            )
        return out


# ----------------------------------------------------------------------
# Generic (object-encoded) selector
# ----------------------------------------------------------------------


class AmpleSelector:
    """Ample sets over the generic :class:`~repro.checker.system.SystemSpec`.

    Footprints come from each processor's currently enabled operations
    and the spec's wiring tables: a :class:`~repro.sim.ops.Write` with
    local index ``r`` touches physical cell ``sigma_p(r)``; any enabled
    :class:`~repro.sim.ops.Read` marks the processor as scanning, whose
    read footprint is all registers (see module docstring).  A machine
    exposing a ``future_footprint(local) -> (writes, reads)`` hook
    (local indices or ``"all"``) upgrades the C1 check to the true
    dependency closure: the candidate's current operations are tested
    against every other processor's *future* footprint, and the
    candidate's own enabled reads use their exact registers instead of
    the whole-memory scan assumption.  Visibility (C2) follows the
    checked invariants' declared footprints; an invariant without a
    declaration makes every step visible, so the selector degenerates
    to full expansion — conformant, just reduction-free.
    """

    def __init__(
        self,
        spec: Any,
        invariants: Sequence[Callable[..., object]],
        cycle_proviso: bool = True,
    ) -> None:
        self.spec = spec
        self.cycle_proviso = cycle_proviso
        self.counters = PORCounters()
        self.visibility = aggregate_visibility(invariants, spec.n_registers)
        self._m_mask = (1 << spec.n_registers) - 1
        #: Optional machine hook closing C1 over future operations.
        self._future: Optional[Callable[[Any], Tuple[Any, Any]]] = getattr(
            spec.machine, "future_footprint", None
        )

    def _fold_regs(self, pid: int, regs: Any) -> int:
        """Local register indices (or ``"all"``) -> physical bitmask."""
        if regs == "all":
            return self._m_mask
        physical = self.spec._physical
        mask = 0
        for reg in regs:
            mask |= 1 << physical[pid][reg]
        return mask

    def expand(self, state: Any, is_new: IsNew) -> List[Tuple[Any, Any]]:
        """The selected ``(action, successor)`` pairs for ``state``."""
        spec = self.spec
        counters = self.counters
        visibility = self.visibility
        if visibility.all_steps:
            counters.fully_expanded_states += 1
            return list(spec.successors(state))

        physical = spec._physical
        future = self._future
        infos: List[Tuple[int, Tuple[Any, ...], int, int, int, int]] = []
        total = 0
        for pid in range(spec.n_processors):
            ops = spec.enabled(state, pid)
            if not ops:
                continue
            total += len(ops)
            wmask = 0
            rmask = 0
            for op in ops:
                if isinstance(op, Write):
                    wmask |= 1 << physical[pid][op.reg]
                elif future is None:
                    rmask = self._m_mask
                else:
                    rmask |= 1 << physical[pid][op.reg]
            if future is None:
                fwmask, frmask = wmask, rmask
            else:
                writes, reads = future(state.locals[pid])
                fwmask = self._fold_regs(pid, writes)
                frmask = self._fold_regs(pid, reads)
            infos.append((pid, ops, wmask, rmask, fwmask, frmask))

        if len(infos) >= 2:
            proviso_blocked = False
            for i, (pid, ops, wmask, rmask, _, _) in enumerate(infos):
                conflict = False
                for j, (_, _, _, _, other_fw, other_fr) in enumerate(infos):
                    if j == i:
                        continue
                    if (wmask & (other_fw | other_fr)) or (rmask & other_fw):
                        conflict = True
                        break
                if conflict:
                    continue
                # C2: writes landing in a declared register footprint
                # can flip a register-reading property's verdict.
                if wmask & visibility.register_mask:
                    continue
                pairs = [spec.apply(state, pid, op) for op in ops]
                if visibility.outputs:
                    before = spec.output(state, pid)
                    if any(
                        spec.output(successor, pid) != before
                        for _, successor in pairs
                    ):
                        continue
                if self.cycle_proviso and not any(
                    is_new(successor) for _, successor in pairs
                ):
                    proviso_blocked = True
                    continue
                counters.ample_states += 1
                counters.transitions_pruned += total - len(pairs)
                return pairs
            if proviso_blocked:
                counters.cycle_proviso_expansions += 1
        counters.fully_expanded_states += 1
        return list(spec.successors(state))
