"""On-the-fly symmetry reduction: explore one state per orbit.

The model's defining feature — anonymous processors running identical
code against registers addressed through private permutations — makes
the checker's state graph riddled with *orbits*: global states that
differ only by a permutation of the identically-programmed processors
(plus the compatible register relabelling and renaming of the private
inputs) are behaviorally indistinguishable.  This module quotients the
reachable graph by that symmetry **on the fly**: every generated
successor is mapped to a canonical orbit representative before the
visited-set lookup, so BFS explores the quotient graph — up to ``N!``
times smaller — while verdicts of permutation-invariant properties are
unchanged.

The group is the *stabilizer of the wiring assignment* computed by
:func:`repro.memory.wiring.wiring_stabilizer`: pairs ``(pi, rho)`` of a
processor permutation and register relabelling that map the fixed
assignment to itself, each inducing the input renaming
``tau(inputs[pi[p]]) = inputs[p]``.  A group element ``g = (pi, rho,
tau)`` acts on a global state by::

    (g.s).locals[p]       = tau(s.locals[pi[p]])
    (g.s).registers[rho[r]] = tau(s.registers[r])

Local-state fields expressed in *private* register coordinates
(unwritten masks, scan positions) are untouched: position ``p``'s local
index ``i`` resolves to physical ``sigma_p[i] = rho[sigma_{pi[p]}[i]]``,
exactly the relabelled register processor ``pi[p]`` touched — that is
the equivariance the stabilizer condition buys.

Two canonicalizers share the group:

- :class:`FastCanonicalizer` for the packed-integer states of
  :class:`~repro.checker.fast_snapshot.FastSnapshotSpec` — the hot-path
  kernel.  Each group element is kept as small per-field maps, and on
  first use compiled to fused lookup tables (the whole register file in
  one table, each local in another), so one image costs a handful of
  indexed loads; ``canonical`` takes the minimum image, which is a
  well-defined orbit invariant because the image multiset is the same
  for every orbit member.
- :class:`StateCanonicalizer` for object-encoded
  :class:`~repro.checker.system.GlobalState`\\ s.  Renaming input
  values inside opaque local states is machine-specific, so machines
  opt in by providing ``rename_inputs(local, mapping)`` and
  ``rename_register_value(value, mapping)`` hooks (see
  :class:`~repro.core.snapshot.SnapshotMachine`); without the hooks the
  group is restricted to its input-preserving subgroup (still useful
  whenever inputs repeat).  Machines whose transition function is *not*
  equivariant under input renaming (e.g. consensus, whose deterministic
  tie-break orders values by ``repr``) must not provide the hooks.

Counterexample de-canonicalization: the quotient BFS stores, per edge,
the witness group element ``g`` with ``rep' = g . apply(rep, action)``.
:func:`lift_canonical_path` replays the canonical path concretely by
maintaining the cumulative element ``h`` with ``concrete = h . rep``:
each canonical action ``(pid, op)`` lifts to ``(pi_h^{-1}[pid],
tau_h(op))`` and ``h`` advances by ``h <- h . g^{-1}``, so the rebuilt
trace is a valid execution of the *unreduced* system.
"""

from __future__ import annotations

import functools
from dataclasses import fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence, Tuple

from repro.checker.system import Action, GlobalState, SystemSpec
from repro.memory.wiring import wiring_stabilizer
from repro.sim.ops import Write

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checker.fast_snapshot import FastSnapshotSpec

#: Fused lookup tables are built only up to this many index bits
#: (2^16 entries); wider fields fall back to per-field remapping.
_MAX_TABLE_BITS = 16


class GroupElement:
    """One symmetry ``(pi, rho, tau)`` with composition and inverse.

    ``pi``: position ``p`` holds (old) processor ``pi[p]``;
    ``rho``: physical register ``r`` is relabelled to ``rho[r]``;
    ``tau``: value renaming as a dict (identity entries omitted).
    """

    __slots__ = ("pi", "rho", "tau", "pi_inverse")

    def __init__(
        self,
        pi: Tuple[int, ...],
        rho: Tuple[int, ...],
        tau: Dict[Any, Any],
    ) -> None:
        self.pi = pi
        self.rho = rho
        self.tau = {key: value for key, value in tau.items() if key != value}
        inverse = [0] * len(pi)
        for position, processor in enumerate(pi):
            inverse[processor] = position
        self.pi_inverse = tuple(inverse)

    @property
    def is_identity(self) -> bool:
        return (
            self.pi == tuple(range(len(self.pi)))
            and self.rho == tuple(range(len(self.rho)))
            and not self.tau
        )

    def after(self, other: "GroupElement") -> "GroupElement":
        """The composition ``self . other`` (apply ``other`` first)."""
        pi = tuple(other.pi[self.pi[p]] for p in range(len(self.pi)))
        rho = tuple(self.rho[other.rho[r]] for r in range(len(self.rho)))
        keys = set(self.tau) | set(other.tau)
        tau = {key: self.tau.get(other.tau.get(key, key), other.tau.get(key, key)) for key in keys}
        return GroupElement(pi, rho, tau)

    def inverse(self) -> "GroupElement":
        rho_inverse = [0] * len(self.rho)
        for register, relabelled in enumerate(self.rho):
            rho_inverse[relabelled] = register
        tau_inverse = {value: key for key, value in self.tau.items()}
        return GroupElement(self.pi_inverse, tuple(rho_inverse), tau_inverse)

    def __repr__(self) -> str:
        return f"GroupElement(pi={self.pi}, rho={self.rho}, tau={self.tau})"


def _identity_renamer(value: Any, mapping: Dict[Any, Any]) -> Any:
    return value


def value_text(value: Any) -> str:
    """``repr`` made a function of the value: equal values, equal text.

    A set's ``repr`` lists its elements in hash-table order, which
    follows the interpreter's string-hash seed and the insertion
    history; here they are sorted.  Tuples and dataclasses (by their
    compared fields) recurse; every other value is spelled by its
    ``repr``.
    """
    if isinstance(value, tuple):
        return "(" + ",".join(map(value_text, value)) + ")"
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(map(value_text, value))) + "}"
    if is_dataclass(value) and not isinstance(value, type):
        return type(value).__name__ + "(" + ",".join(
            value_text(getattr(value, spec.name))
            for spec in fields(value) if spec.compare
        ) + ")"
    return repr(value)


class StateCanonicalizer:
    """Orbit canonicalization for object-encoded :class:`GlobalState`.

    Built from a :class:`~repro.checker.system.SystemSpec`; the group is
    the wiring stabilizer restricted to elements the machine can
    express (input-renaming elements need the machine's rename hooks)
    and to elements fixing the initial state, so every canonical
    representative is itself a reachable state of the unreduced system.
    """

    def __init__(self, spec: SystemSpec) -> None:
        self.spec = spec
        machine = spec.machine
        rename_local = getattr(machine, "rename_inputs", None)
        rename_register = getattr(machine, "rename_register_value", None)
        can_rename = rename_local is not None and rename_register is not None
        self._rename_local = rename_local or _identity_renamer
        self._rename_register = rename_register or _identity_renamer

        inputs = spec.inputs
        elements: List[GroupElement] = []
        for pi, rho in wiring_stabilizer(
            spec.wiring.permutations(), inputs
        ):
            tau = {
                inputs[pi[p]]: inputs[p]
                for p in range(len(inputs))
                if inputs[pi[p]] != inputs[p]
            }
            if tau and not can_rename:
                continue  # input-preserving subgroup only
            elements.append(GroupElement(pi, rho, tau))
        # Keep only elements fixing the initial state: then g.s is
        # reachable for every reachable s, so representatives are real
        # states of the unreduced system (a subgroup: closure under
        # composition/inverse preserves the fixed point).
        initial = spec.initial_state()
        self.elements = [
            element
            for element in elements
            if element.is_identity or self.apply(element, initial) == initial
        ]
        self.order = len(self.elements)
        self._texts: Dict[Any, str] = {}

    @property
    def trivial(self) -> bool:
        return self.order <= 1

    # ------------------------------------------------------------------
    def apply(self, element: GroupElement, state: GlobalState) -> GlobalState:
        """The image ``element . state``."""
        tau = element.tau
        if tau:
            locals_ = tuple(
                self._rename_local(state.locals[p], tau) for p in element.pi
            )
        else:
            locals_ = tuple(state.locals[p] for p in element.pi)
        registers: List[Any] = [None] * len(state.registers)
        for index, value in enumerate(state.registers):
            registers[element.rho[index]] = (
                self._rename_register(value, tau) if tau else value
            )
        return GlobalState(tuple(registers), locals_)

    def apply_action(self, element: GroupElement, action: Action) -> Action:
        """The image of an action: who performs it, and on what value.

        If ``s --(pid, op)--> s'`` then
        ``g.s --(pi^{-1}[pid], tau(op))--> g.s'``; the local register
        index is private and carries over unchanged.
        """
        pid = element.pi_inverse[action.pid]
        op = action.op
        if element.tau and isinstance(op, Write):
            op = Write(op.reg, self._rename_register(op.value, element.tau))
        physical = self.spec._physical[pid][op.reg]
        return Action(pid=pid, op=op, physical=physical)

    # ------------------------------------------------------------------
    def canonical(self, state: GlobalState) -> Tuple[GlobalState, GroupElement]:
        """The orbit representative and a witness ``g`` with ``rep = g.state``.

        The representative is the image with the smallest :meth:`_key`
        — a function of the orbit (the image multiset is identical for
        every member), hence a sound canonical form, and the same in
        every interpreter.
        """
        elements = self.elements
        best = state
        witness = elements[0]
        if self.order > 1:
            best_key = self._key(best)
            for element in elements[1:]:
                image = self.apply(element, state)
                key = self._key(image)
                if key < best_key:
                    best, best_key, witness = image, key, element
        return best, witness

    def _key(self, state: GlobalState) -> List[str]:
        """The order on images: :func:`value_text` of each register and
        local, built from the state's value alone, so equal states get
        equal keys in every process (``hash`` is per-interpreter: string
        hashing is seeded, and ``hash(None)`` is an address before
        Python 3.12).  The texts are cached per component, which few
        distinct values fill.
        """
        texts = self._texts
        key = []
        for part in state.registers + state.locals:
            text = texts.get(part)
            if text is None:
                text = texts[part] = value_text(part)
            key.append(text)
        return key

    def orbit_size(self, state: GlobalState) -> int:
        """Number of distinct states in ``state``'s orbit (<= group order)."""
        if self.order <= 1:
            return 1
        return len(
            {state} | {self.apply(element, state) for element in self.elements[1:]}
        )


def lift_canonical_path(
    canonicalizer: StateCanonicalizer,
    root_witness: GroupElement,
    steps: Sequence[Tuple[Action, GroupElement]],
) -> Tuple[List[Action], GlobalState]:
    """De-canonicalize a quotient path into a concrete execution.

    ``root_witness`` is ``g0`` with ``canon(s0) = g0 . s0``; each step
    carries the action *in the parent representative's frame* plus the
    witness ``g`` mapping the concrete successor of the representative
    to the child representative.  Returns the concrete action list and
    the concrete final state; every step is validated against the
    unreduced transition relation by construction (``spec.apply``).
    """
    spec = canonicalizer.spec
    concrete = spec.initial_state()
    cumulative = root_witness.inverse()
    actions: List[Action] = []
    for action, witness in steps:
        lifted = canonicalizer.apply_action(cumulative, action)
        _, concrete = spec.apply(concrete, lifted.pid, lifted.op)
        actions.append(lifted)
        cumulative = cumulative.after(witness.inverse())
    return actions, concrete


# ----------------------------------------------------------------------
# Packed-integer canonicalization (the hot-path kernel)
# ----------------------------------------------------------------------

def fused_tables_fit(spec: "FastSnapshotSpec") -> bool:
    """Whether ``spec``'s register file and its locals each index a fused
    table of at most ``2^16`` entries; past that, images stay per field."""
    return (
        spec.m * spec.reg_bits <= _MAX_TABLE_BITS
        and spec.local_bits <= _MAX_TABLE_BITS
    )


def _per_field_image(maps: Dict[str, Any]) -> Callable[[int], int]:
    """One element's image function, computed field by field from its
    field maps: one load per register and one per local."""
    record_map = maps["record_map"]
    view_map = maps["view_map"]
    reg_moves = maps["reg_moves"]
    moves = maps["moves"]
    reg_mask = maps["reg_mask"]
    local_mask = maps["local_mask"]
    k_mask = maps["k_mask"]
    k_clear = maps["k_clear"]

    def apply(state: int) -> int:
        out = 0
        for dst, src in reg_moves:
            out |= record_map[(state >> src) & reg_mask] << dst
        for dst, src in moves:
            local = (state >> src) & local_mask
            out |= ((local & k_clear) | view_map[local & k_mask]) << dst
        return out

    return apply


class FastCanonicalizer:
    """Symmetry kernel for :class:`FastSnapshotSpec` packed states.

    Built eagerly, and small: the stabilizer, its ``order`` and, per
    non-identity element, the element's :attr:`field_maps` — the
    input-bit permuted view map (``2^k`` entries), the record map
    (``2^reg_bits`` entries), the register and local moves, and the
    masks.  :meth:`canonical_per_field` and :meth:`orbit_size_per_field`
    compute images field by field from them; that is the single-state
    path (initial states, drivers, tests), and it builds no table.

    Built lazily, on the first use of :meth:`canonical`,
    :meth:`orbit_size` or :attr:`element_tables` (or by :meth:`fuse`):
    the fused tables.  Per element the whole register file maps through
    one table (every record remapped and moved to its relabelled slot in
    a single load), and each local through another, shared by the
    elements with the same view map, so one image costs ``1 + N`` loads
    plus shifts.  ``canonical`` — called once per generated transition
    by the scalar engine, the hottest call in the checker — then becomes
    an ``eval``-compiled ``min(...)`` lambda with the tables bound as
    default arguments, and ``orbit_size`` a ``len({...})`` one; both
    replace the methods on the instance, so a loop that binds them after
    :meth:`fuse` calls the lambda directly.  Past ``2^16`` table
    entries both stay per field.

    The native kernel bakes only the field maps and fills its own fused
    tables in C, so only the scalar engine and the numpy kernel build
    the Python tables.  A forked worker inherits whatever its parent
    built.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        stabilizer = wiring_stabilizer(spec.wiring, spec.inputs)
        self.order = len(stabilizer)
        #: Per non-identity element, in stabilizer order, the maps every
        #: image is computed from (the native kernel bakes them into its
        #: translation unit): ``view_map``, ``record_map``, the
        #: ``(destination, source)`` bit offsets ``reg_moves`` and
        #: ``moves``, and the masks.
        self.field_maps: List[Dict[str, Any]] = [
            self._field_maps(pi, rho) for pi, rho in stabilizer[1:]
        ]
        self._appliers = [_per_field_image(maps) for maps in self.field_maps]

    @property
    def trivial(self) -> bool:
        return self.order <= 1

    # ------------------------------------------------------------------
    # Field maps (eager) and fused tables (lazy)
    # ------------------------------------------------------------------
    def _bit_permutation(self, pi: Tuple[int, ...]) -> Tuple[int, ...]:
        """Input-bit renaming induced by ``pi``: ``bit(in[pi[p]]) -> bit(in[p])``."""
        spec = self.spec
        mapping = list(range(spec.k))
        for p in range(spec.n):
            mapping[spec.value_bits[spec.inputs[pi[p]]]] = spec.value_bits[
                spec.inputs[p]
            ]
        return tuple(mapping)

    def _field_maps(
        self, pi: Tuple[int, ...], rho: Tuple[int, ...]
    ) -> Dict[str, Any]:
        """One group element's field maps (the ``general`` table kind)."""
        spec = self.spec
        bit_perm = self._bit_permutation(pi)
        view_map = tuple(
            sum(
                1 << bit_perm[bit]
                for bit in range(spec.k)
                if (view >> bit) & 1
            )
            for view in range(1 << spec.k)
        )
        return {
            "kind": "general",
            "view_map": view_map,
            "record_map": tuple(
                view_map[record & spec.k_mask] | (record & ~spec.k_mask)
                for record in range(1 << spec.reg_bits)
            ),
            # Register r moves to slot rho[r]; destination local p
            # sources from local pi[p].
            "reg_moves": tuple(
                (spec.reg_offsets[rho[r]], spec.reg_offsets[r])
                for r in range(spec.m)
            ),
            "moves": tuple(
                (spec.local_offsets[p], spec.local_offsets[pi[p]])
                for p in range(spec.n)
            ),
            "reg_mask": spec.reg_mask,
            "local_mask": spec.local_mask,
            "k_mask": spec.k_mask,
            "k_clear": spec.local_mask & ~spec.k_mask,
        }

    def _fuse_registers(
        self,
        record_map: Sequence[int],
        reg_moves: Sequence[Tuple[int, int]],
    ) -> List[int]:
        """One table mapping the packed register file to its image.

        Built register by register, lowest slot first: one copy of the
        table so far per record of the next slot, so construction is
        ``O(m * 2^block_bits)`` table fills.
        """
        records = range(1 << self.spec.reg_bits)
        table = [0]
        for dst, _src in reg_moves:
            moved = [record_map[record] << dst for record in records]
            table = [low | high for high in moved for low in table]
        return table

    def fuse(self) -> None:
        """Build the fused tables and compile ``canonical``/``orbit_size``.

        Idempotent.  The scalar engine's :class:`ClassSetup` calls it up
        front, so the loops that bind ``canonical`` once get the
        compiled lambda.
        """
        if "element_tables" in vars(self):
            return
        spec = self.spec
        if not self.field_maps or not fused_tables_fit(spec):
            self.element_tables = self.field_maps
            self.canonical = self.canonical_per_field  # type: ignore[method-assign]
            self.orbit_size = self.orbit_size_per_field  # type: ignore[method-assign]
            return
        block_mask = (1 << (spec.m * spec.reg_bits)) - 1
        local_mask = spec.local_mask
        bindings: Dict[str, List[int]] = {}
        local_names: Dict[Tuple[int, ...], str] = {}
        images: List[str] = []
        element_tables: List[Dict[str, Any]] = []
        for index, maps in enumerate(self.field_maps):
            registers_name = f"rt{index}"
            bindings[registers_name] = self._fuse_registers(
                maps["record_map"], maps["reg_moves"]
            )
            view_map = maps["view_map"]
            locals_name = local_names.get(view_map)
            if locals_name is None:
                locals_name = local_names[view_map] = f"lt{len(local_names)}"
                # The view is a local's low k bits: one block of
                # view_map per setting of the bits above it.
                bindings[locals_name] = [
                    high | view
                    for high in range(0, 1 << spec.local_bits, 1 << spec.k)
                    for view in view_map
                ]
            element_tables.append({
                "kind": "fused",
                "register_table": bindings[registers_name],
                "block_mask": block_mask,
                "local_table": bindings[locals_name],
                "local_mask": local_mask,
                "moves": maps["moves"],
            })
            images.append(f"{registers_name}[s & {block_mask}]" + "".join(
                f" | ({locals_name}[(s >> {src}) & {local_mask}] << {dst})"
                for dst, src in maps["moves"]
            ))
        defaults = ", ".join(f"{name}={name}" for name in bindings)
        joined = ", ".join(images)
        self.canonical = eval(  # type: ignore[method-assign]  # noqa: S307
            f"lambda s, {defaults}: min(s, {joined})", dict(bindings)
        )
        self.orbit_size = eval(  # type: ignore[method-assign]  # noqa: S307
            f"lambda s, {defaults}: len({{s, {joined}}})", dict(bindings)
        )
        self.element_tables = element_tables

    @functools.cached_property
    def element_tables(self) -> List[Dict[str, Any]]:
        """Per non-identity element, in stabilizer order, the tables
        behind its image: the fused register and local tables (``kind``
        ``"fused"``), or past ``2^16`` entries its field maps
        (``"general"``).  The numpy kernel re-expresses the
        min-over-images reduction as gathers over them."""
        self.fuse()
        return self.element_tables

    # ------------------------------------------------------------------
    # The calls
    # ------------------------------------------------------------------
    def canonical(self, state: int) -> int:
        """The orbit representative: the minimum packed image (an orbit
        invariant, since every member has the same image multiset)."""
        self.fuse()
        return self.canonical(state)

    def orbit_size(self, state: int) -> int:
        """Distinct orbit members; called per *admitted* state only."""
        self.fuse()
        return self.orbit_size(state)

    def canonical_per_field(self, state: int) -> int:
        """:meth:`canonical`, computed field by field (no fused table)."""
        best = state
        for apply in self._appliers:
            image = apply(state)
            if image < best:
                best = image
        return best

    def orbit_size_per_field(self, state: int) -> int:
        """:meth:`orbit_size`, computed field by field (no fused table)."""
        return len({state, *(apply(state) for apply in self._appliers)})


def assert_permutation_invariant(invariants: Sequence[Callable]) -> None:
    """Refuse symmetry reduction for properties not declared invariant.

    Every invariant used under symmetry must be marked with
    :func:`repro.checker.properties.permutation_invariant` — the
    declaration that its verdict is unchanged by processor
    permutation, register relabelling, and input renaming.  Properties
    that are not (e.g. anything naming a specific pid or register
    index) must be checked with symmetry off (CLI: ``--no-symmetry``).

    This runtime gate has two static/dynamic companions in
    :mod:`repro.lint`: rule INVAR001 flags exported-but-undeclared
    properties before anything runs, and ``repro lint --dynamic``
    metamorphically tests that a declaration is *true* — verdict
    equality on stabilizer orbits of sampled reachable states.
    """
    unmarked = [
        getattr(invariant, "__name__", repr(invariant))
        for invariant in invariants
        if not getattr(invariant, "permutation_invariant", False)
    ]
    if unmarked:
        raise ValueError(
            "symmetry reduction requires permutation-invariant properties;"
            f" not declared invariant: {', '.join(unmarked)}. Mark them with"
            " @permutation_invariant or explore without symmetry"
            " (--no-symmetry)."
        )
