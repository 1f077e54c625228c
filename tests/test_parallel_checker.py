"""The parallel exploration engine and the fingerprint primitives.

Three contracts, each load-bearing for experiment E4's verdicts:

- **conformance** — the class-parallel sweep, the frontier-sharded
  engine, and the generic explorer's fingerprint mode report exactly
  what the serial object-encoded explorer reports
  (states/transitions/verdict on exhaustive runs; verdicts on budgeted
  ones);
- **determinism** — two runs with the same ``jobs`` are identical, so
  parallel reports are reproducible artifacts, not races;
- **budget semantics** — ``max_states`` caps admissions exactly, the
  outer loop short-circuits, and the dropped work is visible as
  ``truncated_transitions`` instead of silently vanishing.
"""

import pytest

from repro.checker import Explorer, SystemSpec
from repro.checker.fast_snapshot import (
    FastSnapshotSpec,
    canonical_wiring_classes,
)
from repro.checker.fingerprint import (
    collision_probability,
    fingerprint_int,
    fingerprint_state,
    splitmix64,
)
from repro.checker.parallel import (
    check_snapshot_classes,
    explore_sharded,
    ordered_parallel_map,
)
from repro.checker.properties import SNAPSHOT_SAFETY
from repro.core import SnapshotMachine
from repro.memory.wiring import WiringAssignment

#: Class 1 of ``canonical_wiring_classes(3, 3)`` — the single-class
#: workload for sharded/determinism tests.
N3_CLASS = ((0, 1, 2), (0, 1, 2), (1, 2, 0))

_SEEDED_MESSAGE = "seeded violation: a view saw every input"


def _square(value):  # module-level: pool workers must pickle it
    return value * value


def _seed_fast_violation(monkeypatch):
    """Flag any state where some view already contains every input.

    The snapshot algorithm is actually safe, so violation-path coverage
    needs a seeded fault; a full view appears a few BFS layers in, well
    inside every budget used here.  Patching the class before any
    worker starts means fork-started workers inherit the seeded check;
    skip where fork isn't available (the parallel engines would run
    unpatched).
    """
    import multiprocessing

    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        pytest.skip("seeded-violation injection requires fork workers")
    original = FastSnapshotSpec.check_outputs

    def seeded(self, state):
        if any(
            self.view_of(state, pid) == self.k_mask
            for pid in range(self.n)
        ):
            return _SEEDED_MESSAGE
        return original(self, state)

    monkeypatch.setattr(FastSnapshotSpec, "check_outputs", seeded)


def _seeded_generic_invariant(spec, state):
    if spec.outputs(state):
        return _SEEDED_MESSAGE
    return None


def _stats(result):
    return (result.states, result.transitions, result.ok, result.complete)


# ----------------------------------------------------------------------
# Fingerprint primitives
# ----------------------------------------------------------------------

class TestFingerprintPrimitives:
    def test_splitmix64_is_a_64_bit_bijection_sample(self):
        digests = {splitmix64(value) for value in range(2_000)}
        assert len(digests) == 2_000  # no collisions on the sample
        assert all(0 <= digest < 2 ** 64 for digest in digests)
        assert splitmix64(42) == splitmix64(42)

    def test_fingerprint_int_folds_wide_ints(self):
        wide = (1 << 200) | (1 << 64) | 7
        assert fingerprint_int(wide) == fingerprint_int(wide)
        assert fingerprint_int(wide) != fingerprint_int(wide ^ 1)
        assert 0 <= fingerprint_int(wide) < 2 ** 64
        # Limb-folded, so equal low limbs with different high limbs differ.
        assert fingerprint_int(7) != fingerprint_int((1 << 64) | 7)

    def test_fingerprint_state_stable_within_process(self):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        state = spec.initial_state()
        assert fingerprint_state(state) == fingerprint_state(state)

    def test_collision_probability_birthday_shape(self):
        assert collision_probability(0) == 0.0
        assert collision_probability(1) == 0.0
        million = collision_probability(10 ** 6)
        assert 0 < million < 1e-6
        assert million < collision_probability(10 ** 8)


# ----------------------------------------------------------------------
# Class-grain conformance (check_snapshot_classes)
# ----------------------------------------------------------------------

class TestClassGrainConformance:
    def test_n2_parallel_and_serial_match_generic(self):
        parallel_rows = check_snapshot_classes(2, jobs=2)
        serial_rows = check_snapshot_classes(2, jobs=1)
        assert len(parallel_rows) == len(serial_rows) == 2
        for (wiring, result), (_, serial_result) in zip(
            parallel_rows, serial_rows
        ):
            spec = SystemSpec(
                SnapshotMachine(2), [1, 2],
                WiringAssignment.from_permutations(wiring),
            )
            generic = Explorer(spec, SNAPSHOT_SAFETY).run()
            assert generic.ok and result.ok and serial_result.ok
            assert (generic.states, generic.transitions) == (
                result.states, result.transitions
            ) == (serial_result.states, serial_result.transitions)

    def test_n3_budgeted_sweep_identical_across_jobs(self):
        serial = check_snapshot_classes(3, budget=4_000, jobs=1)
        parallel = check_snapshot_classes(3, budget=4_000, jobs=2)
        assert [(w, _stats(r)) for w, r in serial] == [
            (w, _stats(r)) for w, r in parallel
        ]
        assert all(not r.complete and r.states == 4_000 for _, r in serial)

    def test_n3_seeded_violation_verdicts_agree(self, monkeypatch):
        _seed_fast_violation(monkeypatch)
        serial = check_snapshot_classes(3, budget=30_000, jobs=1)
        parallel = check_snapshot_classes(3, budget=30_000, jobs=2)
        verdicts = [(r.ok, r.violation) for _, r in serial]
        assert all(not ok for ok, _ in verdicts)
        assert all(v == _SEEDED_MESSAGE for _, v in verdicts)
        assert verdicts == [(r.ok, r.violation) for _, r in parallel]


# ----------------------------------------------------------------------
# Frontier-sharded conformance (explore_sharded)
# ----------------------------------------------------------------------

class TestShardedConformance:
    @pytest.mark.parametrize(
        "wiring", canonical_wiring_classes(2, 2), ids=str
    )
    def test_n2_exhaustive_partition_invariant(self, wiring):
        serial = FastSnapshotSpec([1, 2], wiring).explore()
        sharded = explore_sharded([1, 2], wiring, jobs=2)
        assert serial.complete
        assert _stats(serial) == _stats(sharded)

    def test_seeded_violation_verdict_matches_serial(self, monkeypatch):
        _seed_fast_violation(monkeypatch)
        wiring = canonical_wiring_classes(2, 2)[0]
        serial = FastSnapshotSpec([1, 2], wiring).explore()
        sharded = explore_sharded([1, 2], wiring, jobs=2)
        assert not serial.ok and not sharded.ok
        assert serial.violation == sharded.violation == _SEEDED_MESSAGE

    def test_budget_stops_at_layer_boundary_with_truncation(self):
        result = explore_sharded([1, 2, 3], N3_CLASS, jobs=2, max_states=2_000)
        assert not result.complete
        assert result.states >= 2_000
        assert result.truncated_transitions > 0
        assert result.ok

    def test_batch_sharded_run_loads_the_kernel_before_forking(
        self, monkeypatch
    ):
        # explore_sharded makes the kernel once in this process, so the
        # forked workers find its library already loaded; it drops a
        # trivial stabilizer the way ShardEngine does, so both resolve
        # to the same library.
        pytest.importorskip("numpy")
        import repro.checker.batch as batch_mod
        import repro.checker.parallel as parallel_mod

        canonicalizers = []
        make_kernel = batch_mod.make_kernel

        def counting(spec, kernel, canonicalizer):
            canonicalizers.append(canonicalizer)
            return make_kernel(spec, kernel, canonicalizer)

        monkeypatch.setattr(batch_mod, "make_kernel", counting)
        monkeypatch.setattr(
            parallel_mod, "effective_jobs", lambda requested: requested
        )
        result = explore_sharded(
            [1, 2, 3], N3_CLASS, jobs=2, max_states=500, engine="batch",
            kernel="numpy", symmetry=True,
        )
        assert result.ok
        # Worker calls happen in the forked children, not counted here.
        assert len(canonicalizers) == 1
        assert canonicalizers[0] is None or not canonicalizers[0].trivial


# ----------------------------------------------------------------------
# Determinism: same jobs, same answer
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_two_jobs4_class_sweeps_identical(self):
        first = check_snapshot_classes(3, budget=3_000, jobs=4)
        second = check_snapshot_classes(3, budget=3_000, jobs=4)
        assert [(w, _stats(r)) for w, r in first] == [
            (w, _stats(r)) for w, r in second
        ]

    def test_two_jobs4_sharded_runs_identical(self):
        first = explore_sharded([1, 2, 3], N3_CLASS, jobs=4, max_states=3_000)
        second = explore_sharded([1, 2, 3], N3_CLASS, jobs=4, max_states=3_000)
        assert _stats(first) == _stats(second)
        assert first.truncated_transitions == second.truncated_transitions


# ----------------------------------------------------------------------
# Explorer fingerprint mode (the generic object-encoded engine)
# ----------------------------------------------------------------------

class TestExplorerFingerprintMode:
    def _spec(self):
        return SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )

    def test_counts_match_full_mode_exhaustively(self):
        spec = self._spec()
        full = Explorer(spec, SNAPSHOT_SAFETY).run()
        lean = Explorer(spec, SNAPSHOT_SAFETY, fingerprint=True).run()
        assert full.ok and lean.ok
        assert (full.states, full.transitions, full.depth) == (
            lean.states, lean.transitions, lean.depth
        )

    def test_keep_edges_is_rejected(self):
        with pytest.raises(ValueError):
            Explorer(self._spec(), keep_edges=True, fingerprint=True)

    def test_counterexample_reconstructed_minimal_and_replayable(self):
        spec = self._spec()
        invariants = (_seeded_generic_invariant,)
        full = Explorer(spec, invariants).run()
        lean = Explorer(spec, invariants, fingerprint=True).run()
        assert full.violation is not None and lean.violation is not None
        assert full.violation.message == lean.violation.message
        # Same minimal length as the full-table path (BFS on both sides).
        assert len(lean.violation.path) == len(full.violation.path)
        # The reconstructed path replays to the reported violating state.
        state = spec.initial_state()
        for action in lean.violation.path:
            matches = [
                successor
                for step, successor in spec.successors(state)
                if step == action
            ]
            assert len(matches) == 1
            state = matches[0]
        assert state == lean.violation.state
        assert _seeded_generic_invariant(spec, state) is not None

    def test_budget_cap_and_truncation_counter(self):
        spec = self._spec()
        full = Explorer(spec, SNAPSHOT_SAFETY, max_states=100).run()
        lean = Explorer(
            spec, SNAPSHOT_SAFETY, max_states=100, fingerprint=True
        ).run()
        for result in (full, lean):
            assert result.states == 100
            assert not result.complete
            assert result.truncated_transitions > 0


# ----------------------------------------------------------------------
# Fast-engine budget semantics
# ----------------------------------------------------------------------

class TestFastBudgetSemantics:
    def test_truncation_visible_and_mode_invariant(self):
        # The safety loop and the edge-recording wait-freedom loop
        # admit in the same order, so they clip at the same point.
        spec = FastSnapshotSpec([1, 2, 3], N3_CLASS)
        lean = spec.explore(max_states=2_000)
        full = spec.explore(max_states=2_000, check_wait_freedom=True)
        for result in (lean, full):
            assert result.states == 2_000
            assert not result.complete
            assert result.truncated_transitions > 0
        assert full.transitions == lean.transitions
        assert full.truncated_transitions == lean.truncated_transitions


# ----------------------------------------------------------------------
# Pool plumbing
# ----------------------------------------------------------------------

class TestOrderedParallelMap:
    def test_preserves_input_order(self):
        values = list(range(20))
        assert ordered_parallel_map(_square, values, jobs=3) == [
            value * value for value in values
        ]

    def test_serial_fallback_for_single_job(self):
        assert ordered_parallel_map(_square, [3, 4], jobs=1) == [9, 16]
