"""Breadth-first explicit-state exploration with invariant checking.

This is the reproduction's TLC: it enumerates every reachable global
state of a :class:`~repro.checker.system.SystemSpec`, checks invariants
on each, and reconstructs a minimal-length counterexample path when one
fails.  Exploration statistics (distinct states, transitions, depth) are
reported the way TLC reports them, so benchmark E4 can print the
"exhaustively explored all 3-processor executions" result in familiar
terms.

Every option combination runs one BFS loop, parameterized by a
reduction (the identity, or the symmetry canonicalizer) and a visited
set (index/parent tables, or 64-bit fingerprints in a store).

For liveness (wait-freedom) the explorer optionally retains the full
edge list, which :mod:`repro.checker.liveness` turns into an SCC
analysis.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.checker.fingerprint import fingerprint_state
from repro.checker.system import Action, GlobalState, SystemSpec

# Symmetry and the stores run only under ``symmetry``/``fingerprint``,
# so plain ``repro check`` never compiles them.
if TYPE_CHECKING:
    from repro.checker.por import AmpleSelector
    from repro.checker.symmetry import GroupElement, StateCanonicalizer
    from repro.store.base import FingerprintStore, StoreConfig

#: An invariant takes the spec and a reachable state; it returns an error
#: string when violated, or None when satisfied.
Invariant = Callable[[SystemSpec, GlobalState], Optional[str]]

#: ``parents[i]``: the index the BFS reached state ``i`` from, the action
#: (in that parent's frame) and the symmetry witness (None unreduced).
_Parents = List[Optional[Tuple[int, Action, Optional["GroupElement"]]]]


@dataclass
class InvariantViolation:
    """A reachable state violating an invariant, with a shortest path."""

    message: str
    state: GlobalState
    path: List[Action]

    def schedule(self) -> List[int]:
        return [action.pid for action in self.path]


@dataclass
class ExplorationResult:
    """Outcome of one exhaustive (or budget-capped) exploration."""

    states: int
    transitions: int
    depth: int
    violation: Optional[InvariantViolation] = None
    complete: bool = True
    #: Transitions whose (new) target state was dropped because the
    #: ``max_states`` budget was exhausted.  Nonzero iff truncated.
    truncated_transitions: int = 0
    #: Final states (no enabled ops for any processor), capped collection.
    final_states: List[GlobalState] = field(default_factory=list)
    #: Retained edge list (state-index, pid, state-index) when requested.
    edges: Optional[List[Tuple[int, int, int]]] = None
    #: Index -> state, aligned with edge endpoints, when edges retained.
    state_table: Optional[List[GlobalState]] = None
    #: Symmetry runs only: concrete states covered by the explored orbit
    #: representatives (sum of orbit sizes); ``covered / states`` is the
    #: reduction ratio achieved by the quotient.
    covered_states: Optional[int] = None
    #: Symmetry runs only: order of the wiring-stabilizer group used.
    symmetry_group_order: Optional[int] = None
    #: Runs with an explicit store configuration: the backend's
    #: operation counters plus ``file_bytes`` (disk footprint).
    store_counters: Optional[Dict[str, int]] = None
    #: POR runs only: the ample-set selector's counters
    #: (transitions pruned, ample vs fully-expanded states, cycle-
    #: proviso expansions); see :class:`repro.checker.por.PORCounters`.
    por_counters: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return self.violation is None


class Explorer:
    """BFS over a :class:`SystemSpec`.

    Every option combination runs the same BFS loop.  ``symmetry``
    picks its reduction: each successor is replaced by its orbit
    representative before the visited-set lookup.  ``fingerprint``
    picks its visited set: 64-bit fingerprints in a store instead of
    index/parent tables.  ``por`` narrows each state's expansion,
    ``max_states`` caps admissions, and the invariants are checked on
    every admitted state, so the first violation found lies at minimal
    BFS depth.

    Parameters
    ----------
    spec:
        The system to explore.
    invariants:
        Checked on every reachable state (including the initial one).
    max_states:
        Exploration budget; exceeding it sets ``complete=False`` on the
        result instead of raising — partial exploration is still a
        useful falsification attempt.
    keep_edges:
        Retain the transition list for liveness analysis (costs memory).
    collect_final_states:
        Gather fully-terminated states (used by the task-level checks),
        capped at ``max_final_states``.
    fingerprint:
        Memory-lean mode: remember only a 64-bit fingerprint per
        reached state instead of the index/parent tables (TLC's
        fingerprint set).  Cuts per-state memory roughly an order of
        magnitude, so budgets can rise accordingly; the cost is a
        ~n²/2⁶⁵ collision probability and, when a violation actually
        fires, a second run of the same loop with full tables, POR off
        and no budget, stopped at the violating state.  That run admits
        states in the same BFS order, so the counterexample is still
        minimal.  Incompatible with ``keep_edges``.
    symmetry:
        Symmetry reduction: explore one representative per orbit of the
        wiring-stabilizer group (:mod:`repro.checker.symmetry`).  Every
        generated successor is canonicalized before the visited-set
        lookup, shrinking the reachable set by up to ``N!``.  Requires
        every invariant to be marked ``@permutation_invariant``
        (raises otherwise); counterexamples are de-canonicalized into
        valid concrete executions via the stored permutation
        witnesses.  Final states are collected as representatives.
        Incompatible with ``keep_edges``: pid edge labels are not
        orbit-stable, so the liveness/lasso analysis needs the
        unreduced graph.
    store:
        Visited-set backend for fingerprint mode (:mod:`repro.store`);
        the 64-bit digests slot directly into the disk-backed tables.
        A disk backend requires ``fingerprint`` — index tables hold
        whole state objects, which only RAM structures hold.  Note that
        ``fingerprint_state`` digests are randomized per interpreter,
        so a disk store written by this engine is meaningful within the
        writing process only (no checkpoint / resume here; use the
        packed-integer engines for that).
    por:
        Ample-set partial-order reduction (:mod:`repro.checker.por`):
        at each state, when one processor's enabled operations are
        independent of every other enabled processor's (disjoint
        physical-register footprints), invisible under every checked
        invariant's declared visibility footprint, and lead to at
        least one unvisited state (cycle proviso), only that
        processor is expanded.  Invariants without a
        ``@visibility_footprint`` declaration make every step visible,
        so the run degenerates to full expansion.  Composes with
        ``symmetry`` (selection happens on the representative's
        concrete successors, which are then canonicalized as usual)
        and with ``fingerprint``/``store``.  Incompatible with
        ``keep_edges``: liveness (lasso) analysis needs the unreduced
        graph.
    por_cycle_proviso:
        Test seam: disables C3, demonstrating the livelock miss the
        proviso prevents (``tests/test_por.py``).  Leave on.
    """

    def __init__(
        self,
        spec: SystemSpec,
        invariants: Sequence[Invariant] = (),
        max_states: int = 5_000_000,
        keep_edges: bool = False,
        collect_final_states: bool = False,
        max_final_states: int = 100_000,
        fingerprint: bool = False,
        symmetry: bool = False,
        store: Optional[StoreConfig] = None,
        por: bool = False,
        por_cycle_proviso: bool = True,
    ) -> None:
        if por and keep_edges:
            raise ValueError(
                "partial-order reduction prunes interleavings, but"
                " keep_edges (liveness/lasso analysis) needs the full"
                " unreduced transition graph — pass por=False"
            )
        if fingerprint and keep_edges:
            raise ValueError(
                "fingerprint mode stores no state table; keep_edges"
                " (liveness analysis) needs the full object-encoded run"
                " — pass fingerprint=False"
            )
        if store is not None and store.backend != "ram" and not fingerprint:
            raise ValueError(
                "disk-backed stores hold 64-bit digests; without"
                " fingerprint=True the explorer keeps index/parent tables"
                " that only live in RAM — pass fingerprint=True with a"
                " disk store"
            )
        if symmetry and keep_edges:
            raise ValueError(
                "symmetry reduction relabels processors per state, so"
                " pid edge labels are not orbit-stable; liveness (lasso)"
                " analysis needs the unreduced graph — pass symmetry=False"
            )
        if symmetry:
            from repro.checker.symmetry import assert_permutation_invariant

            assert_permutation_invariant(invariants)
        self.spec = spec
        self.invariants = list(invariants)
        self.max_states = max_states
        self.keep_edges = keep_edges
        self.collect_final_states = collect_final_states
        self.max_final_states = max_final_states
        self.fingerprint = fingerprint
        self.symmetry = symmetry
        self.store = store
        self.por = por
        self.por_cycle_proviso = por_cycle_proviso

    def run(self) -> ExplorationResult:
        selector = None
        if self.por:
            from repro.checker.por import AmpleSelector

            selector = AmpleSelector(
                self.spec, self.invariants,
                cycle_proviso=self.por_cycle_proviso,
            )
        canonicalizer = None
        if self.symmetry:
            from repro.checker.symmetry import StateCanonicalizer

            canonicalizer = StateCanonicalizer(self.spec)
        seen = None
        if self.fingerprint:
            from repro.store.base import StoreConfig

            seen = (self.store or StoreConfig()).create()
        try:
            result = self._bfs(
                canonicalizer, seen, self._first_violation_message,
                selector, self.max_states,
            )
            if seen is not None and self.store is not None:
                result.store_counters = dict(
                    seen.counters(), file_bytes=seen.file_bytes()
                )
        finally:
            if seen is not None:
                seen.close()
        if selector is not None:
            result.por_counters = selector.counters.as_dict()
        return result

    def _first_violation_message(self, state: GlobalState) -> Optional[str]:
        for invariant in self.invariants:
            message = invariant(self.spec, state)
            if message is not None:
                return message
        return None

    def _bfs(
        self,
        canonicalizer: Optional[StateCanonicalizer],
        seen: Optional[FingerprintStore],
        violated: Callable[[GlobalState], Optional[str]],
        selector: Optional[AmpleSelector],
        max_states: float,
    ) -> ExplorationResult:
        """The one BFS loop: admit, check, expand, until a violation.

        ``canonicalizer`` is the reduction (None: the identity): the
        visited set, the budget, ``violated`` and the frontier all see
        each successor's representative.  ``seen`` is the visited set
        (None: index/parent tables).  ``selector`` narrows each
        expansion to an ample set.
        """
        spec = self.spec
        canonical = canonicalizer.canonical if canonicalizer else None
        root = spec.initial_state()
        root_witness = covered = order = None
        if canonicalizer is not None:
            root, root_witness = canonical(root)
            covered = canonicalizer.orbit_size(root)
            order = canonicalizer.order
        index_of: Dict[GlobalState, int] = {}
        parents: Optional[_Parents] = None
        if seen is None:
            index_of[root] = 0
            parents = [None]
        else:
            seen.add(fingerprint_state(root))
        states = [root] if self.keep_edges else None
        edges: Optional[List[Tuple[int, int, int]]] = (
            [] if self.keep_edges else None
        )
        final_states: List[GlobalState] = []

        def is_new(state: GlobalState) -> bool:
            if canonical is not None:
                state = canonical(state)[0]
            if seen is None:
                return state not in index_of
            return fingerprint_state(state) not in seen

        # The k-th state popped is the k-th admitted (index k); the depth
        # steps up when the pops reach the states admitted while the
        # previous level was expanded.
        queue: deque = deque([root])
        count, transitions, truncated, max_depth = 1, 0, 0, 0
        current_index, depth, level_end = -1, -1, 0
        complete = True
        witness = None
        target, target_index = root, 0
        message = violated(root)
        while queue and message is None:
            current = queue.popleft()
            current_index += 1
            if current_index == level_end:
                depth, level_end = depth + 1, count
            if parents is not None:
                # The int admission stored: parents and edges then hold
                # one per state, not a second one per expansion.
                current_index = index_of[current]
            if selector is None:
                successors = list(spec.successors(current))
            else:
                successors = selector.expand(current, is_new)
            if (
                not successors and self.collect_final_states
                and len(final_states) < self.max_final_states
            ):
                final_states.append(current)
            for action, successor in successors:
                transitions += 1
                if canonical is not None:
                    # From here on ``successor`` is the representative.
                    successor, witness = canonical(successor)
                if seen is None:
                    # One lookup per transition: ``get``, not ``in`` + ``[]``.
                    index = index_of.get(successor)
                    if index is not None:
                        if edges is not None:
                            edges.append((current_index, action.pid, index))
                        continue
                else:
                    key = fingerprint_state(successor)
                    if count < max_states:
                        if not seen.add(key):
                            continue
                    elif key in seen:
                        continue
                if count >= max_states:
                    complete = False
                    truncated += 1
                    continue
                index = count
                count += 1
                if parents is not None:
                    index_of[successor] = index
                    parents.append((current_index, action, witness))
                if states is not None:
                    states.append(successor)
                if canonicalizer is not None:
                    covered += canonicalizer.orbit_size(successor)
                max_depth = depth + 1
                queue.append(successor)
                message = violated(successor)
                if message is not None:
                    target, target_index = successor, index
                    break
                if edges is not None:
                    edges.append((current_index, action.pid, index))
            if not complete:
                # The budget is exhausted: no queued state can admit a
                # new one, so draining the queue would be wasted work.
                break

        result = ExplorationResult(
            states=count,
            transitions=transitions,
            depth=max_depth,
            complete=complete,
            truncated_transitions=truncated,
            final_states=final_states,
            edges=edges,
            state_table=states,
            covered_states=covered,
            symmetry_group_order=order,
        )
        if message is not None:
            result.violation = self._violation(
                canonicalizer, root_witness, message,
                target, target_index, parents,
            )
        return result

    def _violation(
        self,
        canonicalizer: Optional[StateCanonicalizer],
        root_witness: Optional[GroupElement],
        message: str,
        state: GlobalState,
        index: int,
        parents: Optional[_Parents],
    ) -> InvariantViolation:
        """The counterexample ending at admitted ``state``."""
        if parents is None:
            # Fingerprint mode keeps no parents: run the same loop again
            # with full tables, POR off and no budget, until it admits
            # ``state``.  It admits in the same BFS order, so the path
            # is the minimal one.
            return self._bfs(
                canonicalizer, None,
                lambda other: message if other == state else None,
                None, math.inf,
            ).violation
        steps = []
        while index:
            index, action, witness = parents[index]
            steps.append((action, witness))
        steps.reverse()
        if canonicalizer is None:
            return InvariantViolation(
                message=message, state=state,
                path=[action for action, _ in steps],
            )
        # The verdict was decided on the representative (sound by
        # permutation invariance); the report lifts the path to a
        # concrete execution and rechecks its final state, so it never
        # mentions the quotient.
        from repro.checker.symmetry import lift_canonical_path

        path, concrete = lift_canonical_path(canonicalizer, root_witness, steps)
        return InvariantViolation(
            message=self._first_violation_message(concrete) or message,
            state=concrete,
            path=path,
        )
