"""Explicit-state model checker: the reproduction's stand-in for TLC.

The paper validates its algorithms with the TLC model checker (Figure 3
caption and Section 8).  This package reproduces that methodology:

- :mod:`repro.checker.system` builds a global transition system from any
  :class:`~repro.sim.machine.AlgorithmMachine` plus a wiring assignment
  — the checker explores *the same algorithm code* the simulator runs;
- :mod:`repro.checker.explorer` is a breadth-first explorer with
  invariant checking, counterexample-path reconstruction, and state/
  transition statistics (TLC-style);
- :mod:`repro.checker.liveness` checks wait-freedom as the absence of
  "bad lassos": reachable cycles in which some processor takes steps but
  never terminates;
- :mod:`repro.checker.properties` holds the invariants the experiments
  check (snapshot containment, validity, level soundness, ...);
- :mod:`repro.checker.atomicity` finds claim-B counterexamples —
  executions whose snapshot output never equalled the memory contents —
  by exploring a history-augmented system, and re-validates them by
  replaying the produced schedule in the simulator;
- :mod:`repro.checker.parallel` fans exploration across CPU cores
  (whole wiring classes per worker, or a frontier-sharded BFS within
  one class) the way TLC does;
- :mod:`repro.checker.fingerprint` provides the 64-bit state
  fingerprints behind the generic explorer's memory-lean fingerprint
  mode and the sharded engine's deterministic state-ownership function;
- :mod:`repro.checker.symmetry` quotients the state space by the wiring
  stabilizer (process/register permutations plus input renaming): the
  explorers store one canonical representative per orbit and
  de-canonicalize counterexamples back to concrete executions.
"""

from repro.checker.atomicity import (
    AtomicityCounterexample,
    best_first_non_atomic_search,
    dfs_non_atomic_search,
    extend_avoiding_union,
    find_non_atomic_execution,
    memory_union,
    pattern_walk_non_atomic_search,
    random_walk_non_atomic_search,
)
from repro.checker.explorer import ExplorationResult, Explorer, InvariantViolation
from repro.checker.fingerprint import (
    collision_probability,
    fingerprint_int,
    fingerprint_state,
)
from repro.checker.liveness import WaitFreedomViolation, check_wait_freedom
from repro.checker.parallel import (
    check_snapshot_classes,
    effective_jobs,
    explore_sharded,
    ordered_parallel_map,
)
from repro.checker.symmetry import (
    FastCanonicalizer,
    GroupElement,
    StateCanonicalizer,
    assert_permutation_invariant,
    lift_canonical_path,
)
from repro.checker.system import Action, GlobalState, SystemSpec

__all__ = [
    "check_snapshot_classes",
    "explore_sharded",
    "ordered_parallel_map",
    "effective_jobs",
    "GroupElement",
    "StateCanonicalizer",
    "FastCanonicalizer",
    "lift_canonical_path",
    "assert_permutation_invariant",
    "fingerprint_int",
    "fingerprint_state",
    "collision_probability",
    "SystemSpec",
    "GlobalState",
    "Action",
    "Explorer",
    "ExplorationResult",
    "InvariantViolation",
    "check_wait_freedom",
    "WaitFreedomViolation",
    "find_non_atomic_execution",
    "dfs_non_atomic_search",
    "random_walk_non_atomic_search",
    "pattern_walk_non_atomic_search",
    "best_first_non_atomic_search",
    "extend_avoiding_union",
    "memory_union",
    "AtomicityCounterexample",
]
