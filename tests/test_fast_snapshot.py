"""Conformance tests: the fast bitmask spec vs the generic machine.

The fast explorer is the tool behind experiment E4's N=3 sweep; these
tests establish that whatever it certifies holds for the real
implementation:

- identical reachable-state-graph sizes for N=2 (all wirings),
- identical outcomes on shared random walks for N=3,
- identical safety verdicts on both.
"""

import itertools
import random

import pytest

from repro.checker import Explorer, SystemSpec
from repro.checker.fast_snapshot import (
    FastSnapshotSpec,
    canonical_wiring_classes,
)
from repro.checker.properties import SNAPSHOT_SAFETY
from repro.core import SnapshotMachine
from repro.memory.wiring import WiringAssignment, enumerate_wiring_assignments


class TestExactGraphConformanceN2:
    @pytest.mark.parametrize(
        "wiring", list(enumerate_wiring_assignments(2, 2)),
        ids=lambda w: str(w.permutations()),
    )
    def test_state_and_transition_counts_match(self, wiring):
        spec = SystemSpec(SnapshotMachine(2), [1, 2], wiring)
        generic = Explorer(spec, SNAPSHOT_SAFETY).run()
        fast = FastSnapshotSpec([1, 2], wiring.permutations())
        result = fast.explore(check_wait_freedom=True)
        assert generic.ok and result.ok
        assert (generic.states, generic.transitions) == (
            result.states, result.transitions
        )

    def test_level_target_variant_matches_too(self):
        wiring = WiringAssignment.identity(2, 2)
        spec = SystemSpec(SnapshotMachine(2, level_target=1), [1, 2], wiring)
        generic = Explorer(spec, SNAPSHOT_SAFETY).run()
        fast = FastSnapshotSpec([1, 2], wiring.permutations(), level_target=1)
        result = fast.explore()
        assert (generic.states, generic.transitions) == (
            result.states, result.transitions
        )


class TestRandomWalkConformanceN3:
    @pytest.mark.parametrize("seed", range(8))
    def test_shared_walk_same_outputs(self, seed):
        rng = random.Random(seed)
        wiring = WiringAssignment.random(3, 3, rng)
        machine = SnapshotMachine(3)
        spec = SystemSpec(machine, [1, 2, 3], wiring)
        fast = FastSnapshotSpec([1, 2, 3], wiring.permutations())

        state = spec.initial_state()
        fast_state = fast.initial_state()
        walk_rng = random.Random(seed * 7 + 1)
        for _ in range(5_000):
            generic_succ = list(spec.successors(state))
            fast_succ = fast.successors(fast_state)
            assert len(generic_succ) == len(fast_succ)
            if not generic_succ:
                break
            index = walk_rng.randrange(len(generic_succ))
            # Both successor lists enumerate (pid ascending, register
            # ascending), so index-aligned choices follow the same step.
            _, state = generic_succ[index]
            _, fast_state = fast_succ[index]
            generic_outputs = spec.outputs(state)
            fast_outputs = fast.output_views(fast_state)
            assert generic_outputs == fast_outputs

    def test_view_decoding_matches(self):
        fast = FastSnapshotSpec([1, 2, 3], [(0, 1, 2)] * 3)
        state = fast.initial_state()
        for pid in range(3):
            assert fast.view_of(state, pid) == fast.input_masks[pid]


class TestFastSafetyChecks:
    def test_group_inputs_share_bits(self):
        fast = FastSnapshotSpec(["g", "g", "h"], [(0, 1, 2)] * 3)
        assert fast.k == 2
        assert fast.input_masks[0] == fast.input_masks[1]

    def test_check_outputs_flags_incomparable(self):
        fast = FastSnapshotSpec([1, 2], [(0, 1)] * 2)
        # Forge a state with done processors holding views {1} and {2}.
        local0 = fast.pack_local(0b01, 2, 0, 2, 0, 1, fast.ml_sentinel)
        local1 = fast.pack_local(0b10, 2, 0, 2, 0, 1, fast.ml_sentinel)
        state = (local0 << fast.local_offsets[0]) | (local1 << fast.local_offsets[1])
        assert fast.check_outputs(state) is not None

    def test_check_outputs_flags_missing_self(self):
        fast = FastSnapshotSpec([1, 2], [(0, 1)] * 2)
        local0 = fast.pack_local(0b10, 2, 0, 2, 0, 1, fast.ml_sentinel)
        state = local0 << fast.local_offsets[0]
        assert "own input" in fast.check_outputs(state)

    def test_check_outputs_accepts_chain(self):
        fast = FastSnapshotSpec([1, 2], [(0, 1)] * 2)
        local0 = fast.pack_local(0b01, 2, 0, 2, 0, 1, fast.ml_sentinel)
        local1 = fast.pack_local(0b11, 2, 0, 2, 0, 1, fast.ml_sentinel)
        state = (local0 << fast.local_offsets[0]) | (local1 << fast.local_offsets[1])
        assert fast.check_outputs(state) is None


def _canonical(assignment):
    """The least form of a wiring assignment over every processor order,
    each relabelled so that its first processor's wiring is the
    identity."""
    candidates = []
    for order in itertools.permutations(range(len(assignment))):
        first = assignment[order[0]]
        inverse = tuple(sorted(range(len(first)), key=lambda i: first[i]))
        candidates.append(tuple(
            tuple(inverse[register] for register in assignment[p])
            for p in order
        ))
    return min(candidates)


class TestCanonicalWiringClasses:
    def test_n2_has_two_classes(self):
        assert len(canonical_wiring_classes(2, 2)) == 2

    def test_n3_has_ten_classes(self):
        classes = canonical_wiring_classes(3, 3)
        assert len(classes) == 10

    def test_first_wiring_is_identity_in_every_class(self):
        for wiring in canonical_wiring_classes(3, 3):
            assert wiring[0] == (0, 1, 2)

    def test_classes_cover_all_assignments(self):
        """Every raw assignment reduces (via relabelling + processor
        permutation) to one of the canonical classes."""
        classes = set(canonical_wiring_classes(2, 2))
        perms = list(itertools.permutations(range(2)))
        for assignment in itertools.product(perms, repeat=2):
            assert _canonical(assignment) in classes

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 3), (3, 2), (4, 3)])
    def test_classes_are_each_first_met_assignments_least_form(self, shape):
        # The order is the sweep order: class indices name checkpoint
        # directories and key sweep records.
        n, m = shape
        expected = []
        perms = list(itertools.permutations(range(m)))
        for assignment in itertools.product(perms, repeat=n):
            canonical = _canonical(assignment)
            if canonical not in expected:
                expected.append(canonical)
        assert canonical_wiring_classes(n, m) == expected
        if shape == (3, 3):
            # The N=3 sweep's classes, literally, as a guard on _canonical.
            assert expected == [
                ((0, 1, 2), (0, 1, 2), (0, 1, 2)),
                ((0, 1, 2), (0, 1, 2), (0, 2, 1)),
                ((0, 1, 2), (0, 1, 2), (1, 0, 2)),
                ((0, 1, 2), (0, 1, 2), (1, 2, 0)),
                ((0, 1, 2), (0, 1, 2), (2, 0, 1)),
                ((0, 1, 2), (0, 1, 2), (2, 1, 0)),
                ((0, 1, 2), (0, 2, 1), (1, 0, 2)),
                ((0, 1, 2), (0, 2, 1), (1, 2, 0)),
                ((0, 1, 2), (1, 0, 2), (2, 0, 1)),
                ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
            ]

    def test_wiring_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FastSnapshotSpec([1, 2], [(0, 1), (0, 1, 2)])
