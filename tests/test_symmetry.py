"""Symmetry reduction: canonicalization soundness and verdict conformance.

Four contracts keep the quotient construction honest:

- **canonical forms are orbit invariants** — ``canon(g . s) == canon(s)``
  for random reachable states and every group element, in both the
  object-encoded and the packed-integer canonicalizer;
- **verdict conformance** — symmetry-reduced exploration returns the
  same verdict as unreduced exploration, covers exactly the unreduced
  state count on exhaustive runs, and de-canonicalizes counterexamples
  into *concrete* executions (replayed step by step against the
  unreduced transition relation here);
- **refusal** — the incompatible combinations (liveness analysis,
  properties not declared permutation-invariant) raise instead of
  silently producing unsound reports;
- **determinism** — the generic explorer picks the same representatives
  in every interpreter, so runs that stop early agree across processes.
"""

import os
import random
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from repro.analysis import aggregate_symmetry_statistics
from repro.checker import Explorer, SystemSpec
from repro.checker.fast_snapshot import (
    ClassSetup,
    FastSnapshotSpec,
    canonical_wiring_classes,
)
from repro.checker.parallel import (
    effective_jobs,
    explore_sharded,
    usable_cpus,
)
from repro.checker.properties import SNAPSHOT_SAFETY, permutation_invariant
from repro.checker.symmetry import (
    FastCanonicalizer,
    StateCanonicalizer,
    assert_permutation_invariant,
    lift_canonical_path,
)
from repro.core import ConsensusMachine, SnapshotMachine
from repro.memory.wiring import WiringAssignment, wiring_stabilizer

#: The N=3 classes with the largest and smallest nontrivial stabilizers.
IDENTITY_CLASS = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
CYCLIC_CLASS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _snapshot_spec(n=2, wiring=None):
    wiring = wiring or WiringAssignment.identity(n, n)
    return SystemSpec(SnapshotMachine(n), list(range(1, n + 1)), wiring)


def _random_reachable(spec, rng, steps=25):
    """A reachable :class:`GlobalState` via a seeded random walk."""
    state = spec.initial_state()
    for _ in range(steps):
        successors = list(spec.successors(state))
        if not successors:
            break
        _, state = rng.choice(successors)
    return state


def _random_reachable_fast(spec, rng, steps=25):
    """A reachable packed state via a seeded random walk."""
    state = spec.initial_state()
    for _ in range(steps):
        successors = spec.successors(state)
        if not successors:
            break
        _, state = rng.choice(successors)
    return state


class TestGroupAlgebra:
    def test_stabilizer_orders_of_known_classes(self):
        assert len(wiring_stabilizer(IDENTITY_CLASS, (1, 2, 3))) == 6
        assert len(wiring_stabilizer(CYCLIC_CLASS, (1, 2, 3))) == 3

    def test_composition_and_inverse(self):
        spec = _snapshot_spec(3)
        canonicalizer = StateCanonicalizer(spec)
        assert canonicalizer.order == 6
        for element in canonicalizer.elements:
            assert element.after(element.inverse()).is_identity
            assert element.inverse().after(element).is_identity

    def test_action_matches_composition(self):
        """``(g . h) . s == g . (h . s)`` on reachable states."""
        spec = _snapshot_spec(3)
        canonicalizer = StateCanonicalizer(spec)
        rng = random.Random(7)
        state = _random_reachable(spec, rng)
        for g in canonicalizer.elements:
            for h in canonicalizer.elements:
                composed = canonicalizer.apply(g.after(h), state)
                nested = canonicalizer.apply(g, canonicalizer.apply(h, state))
                assert composed == nested


def _per_index_tables(spec):
    """Per non-identity stabilizer element, ``(register_table,
    local_table)`` computed entry by entry: the reference that
    :class:`FastCanonicalizer`'s block-built fused tables must equal."""
    tables = []
    for pi, rho in wiring_stabilizer(spec.wiring, spec.inputs)[1:]:
        bit_perm = list(range(spec.k))
        for p in range(spec.n):
            bit_perm[spec.value_bits[spec.inputs[pi[p]]]] = spec.value_bits[
                spec.inputs[p]
            ]
        view_map = [
            sum(1 << bit_perm[bit] for bit in range(spec.k) if (view >> bit) & 1)
            for view in range(1 << spec.k)
        ]
        record_map = [
            view_map[record & spec.k_mask] | (record & ~spec.k_mask)
            for record in range(1 << spec.reg_bits)
        ]
        register_table = [
            record_map[record] << spec.reg_offsets[rho[0]]
            for record in range(1 << spec.reg_bits)
        ]
        for register in range(1, spec.m):
            low_bits = register * spec.reg_bits
            moved = [
                record_map[record] << spec.reg_offsets[rho[register]]
                for record in range(1 << spec.reg_bits)
            ]
            register_table = [
                register_table[value & ((1 << low_bits) - 1)]
                | moved[value >> low_bits]
                for value in range(1 << (low_bits + spec.reg_bits))
            ]
        k_clear = spec.local_mask & ~spec.k_mask
        local_table = [
            (local & k_clear) | view_map[local & spec.k_mask]
            for local in range(1 << spec.local_bits)
        ]
        tables.append((register_table, local_table))
    return tables


class TestCanonicalInvariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_object_canonical_is_orbit_invariant(self, seed):
        spec = _snapshot_spec(3)
        canonicalizer = StateCanonicalizer(spec)
        rng = random.Random(seed)
        state = _random_reachable(spec, rng, steps=rng.randrange(5, 40))
        representative, witness = canonicalizer.canonical(state)
        assert canonicalizer.apply(witness, state) == representative
        for element in canonicalizer.elements:
            image = canonicalizer.apply(element, state)
            assert canonicalizer.canonical(image)[0] == representative

    @pytest.mark.parametrize("wiring", [IDENTITY_CLASS, CYCLIC_CLASS])
    @pytest.mark.parametrize("seed", range(8))
    def test_packed_canonical_is_orbit_invariant(self, wiring, seed):
        spec = FastSnapshotSpec([1, 2, 3], wiring)
        canonicalizer = FastCanonicalizer(spec)
        assert not canonicalizer.trivial
        rng = random.Random(seed)
        state = _random_reachable_fast(spec, rng, steps=rng.randrange(5, 40))
        representative = canonicalizer.canonical(state)
        for apply in canonicalizer._appliers:
            assert canonicalizer.canonical(apply(state)) == representative

    @pytest.mark.parametrize("n", [2, 3])
    def test_fused_tables_match_the_per_index_reference(self, n):
        for wiring in canonical_wiring_classes(n, n):
            spec = FastSnapshotSpec(list(range(1, n + 1)), wiring)
            tables = FastCanonicalizer(spec).element_tables
            assert all(element["kind"] == "fused" for element in tables)
            assert [
                (element["register_table"], element["local_table"])
                for element in tables
            ] == _per_index_tables(spec)

    @pytest.mark.parametrize("wiring", [((0, 1), (0, 1)), ((0, 1), (1, 0))])
    def test_per_field_path_equals_fused_on_every_reachable_n2_state(
        self, wiring
    ):
        spec = FastSnapshotSpec([1, 2], wiring)
        canonicalizer = FastCanonicalizer(spec)
        seen = {spec.initial_state()}
        frontier = list(seen)
        while frontier:
            state = frontier.pop()
            for successor in spec.successor_states_into(state, []):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        assert len(seen) == 7235
        for state in seen:
            assert canonicalizer.canonical_per_field(state) == (
                canonicalizer.canonical(state)
            )
            assert canonicalizer.orbit_size_per_field(state) == (
                canonicalizer.orbit_size(state)
            )

    @pytest.mark.parametrize("wiring", canonical_wiring_classes(3, 3))
    def test_per_field_path_equals_fused_on_sampled_n3_states(self, wiring):
        spec = FastSnapshotSpec([1, 2, 3], wiring)
        canonicalizer = FastCanonicalizer(spec)
        rng = random.Random(hash(wiring) & 0xFFFF)
        for _ in range(200):
            state = _random_reachable_fast(spec, rng, rng.randrange(0, 60))
            assert canonicalizer.canonical_per_field(state) == (
                canonicalizer.canonical(state)
            )
            assert canonicalizer.orbit_size_per_field(state) == (
                canonicalizer.orbit_size(state)
            )

    def test_tables_are_built_on_first_use_only(self):
        spec = FastSnapshotSpec([1, 2, 3], IDENTITY_CLASS)
        canonicalizer = FastCanonicalizer(spec)
        assert "element_tables" not in vars(canonicalizer)
        canonicalizer.canonical_per_field(spec.initial_state())
        assert "element_tables" not in vars(canonicalizer)
        assert len(canonicalizer.element_tables) == canonicalizer.order - 1
        # the first use compiled the hot calls onto the instance
        assert {"canonical", "orbit_size"} <= set(vars(canonicalizer))

    def test_scalar_setup_binds_the_compiled_lambda(self):
        # The scalar loops bind ``canonical`` once, before any call.
        setup = ClassSetup(FastSnapshotSpec([1, 2, 3], IDENTITY_CLASS), True)
        assert setup.canonicalizer.canonical.__name__ == "<lambda>"
        assert setup.canonicalizer.orbit_size.__name__ == "<lambda>"
        batch = ClassSetup(
            FastSnapshotSpec([1, 2, 3], IDENTITY_CLASS), True, "batch", "numpy"
        )
        assert batch.canonicalizer.canonical.__name__ == "<lambda>"

    def test_orbit_size_divides_group_order(self):
        spec = _snapshot_spec(3)
        canonicalizer = StateCanonicalizer(spec)
        rng = random.Random(3)
        for _ in range(10):
            state = _random_reachable(spec, rng, steps=rng.randrange(0, 30))
            assert canonicalizer.order % canonicalizer.orbit_size(state) == 0

    def test_transition_equivariance(self):
        """``s --a--> s'`` implies ``g.s --g.a--> g.s'``."""
        spec = _snapshot_spec(3)
        canonicalizer = StateCanonicalizer(spec)
        rng = random.Random(11)
        state = _random_reachable(spec, rng)
        for action, successor in spec.successors(state):
            for element in canonicalizer.elements:
                lifted = canonicalizer.apply_action(element, action)
                _, image_successor = spec.apply(
                    canonicalizer.apply(element, state), lifted.pid, lifted.op
                )
                assert image_successor == canonicalizer.apply(element, successor)


class TestVerdictConformance:
    def test_explorer_n2_exhaustive_covers_unreduced_space(self):
        spec = _snapshot_spec(2)
        base = Explorer(spec, SNAPSHOT_SAFETY).run()
        reduced = Explorer(spec, SNAPSHOT_SAFETY, symmetry=True).run()
        assert base.ok and reduced.ok and reduced.complete
        assert reduced.states < base.states
        assert reduced.covered_states == base.states
        assert reduced.symmetry_group_order == 2

    def test_fast_n2_exhaustive_covers_unreduced_space(self):
        spec = FastSnapshotSpec([1, 2], ((0, 1), (0, 1)))
        base = spec.explore()
        reduced = spec.explore(symmetry=True)
        assert base.ok and reduced.ok
        assert reduced.complete and reduced.states < base.states
        assert reduced.covered_states == base.states

    def test_fast_n3_budgeted_reduction_ratio(self):
        """The flagship config: identity wiring, full S_3 stabilizer."""
        spec = FastSnapshotSpec([1, 2, 3], IDENTITY_CLASS)
        reduced = spec.explore(max_states=5_000, symmetry=True)
        assert reduced.ok
        assert reduced.symmetry_group_order == 6
        assert reduced.covered_states >= 3 * reduced.states

    def test_fast_n3_all_classes_agree_with_unreduced(self):
        for wiring in canonical_wiring_classes(3, 3):
            spec = FastSnapshotSpec([1, 2, 3], wiring)
            base = spec.explore(max_states=3_000)
            reduced = spec.explore(max_states=3_000, symmetry=True)
            assert base.ok == reduced.ok
            assert reduced.covered_states >= reduced.states

    def test_consensus_duplicate_inputs_reduced(self):
        """Consensus has no rename hooks (repr tie-break), so symmetry
        bites only through the input-preserving subgroup — nontrivial
        exactly when inputs repeat."""
        wiring = WiringAssignment.identity(2, 2)
        spec = SystemSpec(ConsensusMachine(2), ["a", "a"], wiring)
        from repro.checker.properties import consensus_agreement_and_validity

        base = Explorer(
            spec, [consensus_agreement_and_validity], max_states=20_000
        ).run()
        reduced = Explorer(
            spec, [consensus_agreement_and_validity],
            max_states=20_000, symmetry=True,
        ).run()
        assert base.ok and reduced.ok
        assert reduced.symmetry_group_order == 2
        assert reduced.covered_states > reduced.states

    def test_consensus_distinct_inputs_group_is_trivial(self):
        wiring = WiringAssignment.identity(2, 2)
        spec = SystemSpec(ConsensusMachine(2), ["a", "b"], wiring)
        canonicalizer = StateCanonicalizer(spec)
        assert canonicalizer.trivial

    def test_sharded_symmetry_conforms(self):
        spec = FastSnapshotSpec([1, 2, 3], IDENTITY_CLASS)
        serial = spec.explore(max_states=4_000, symmetry=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sharded = explore_sharded(
                [1, 2, 3], IDENTITY_CLASS, jobs=2,
                max_states=4_000, symmetry=True,
            )
        assert sharded.ok == serial.ok
        assert sharded.symmetry_group_order == serial.symmetry_group_order
        assert sharded.covered_states >= sharded.states

    def test_aggregate_symmetry_statistics(self):
        spec = FastSnapshotSpec([1, 2], ((0, 1), (0, 1)))
        base = spec.explore()
        reduced = spec.explore(symmetry=True)
        stats = aggregate_symmetry_statistics([reduced])
        assert stats.representatives == reduced.states
        assert stats.covered == base.states
        assert stats.reduction_ratio > 1.0
        assert stats.group_orders == [2]
        mixed = aggregate_symmetry_statistics([reduced, base])
        assert mixed.covered == 2 * base.states
        assert "reduction" in mixed.summary()


@permutation_invariant
def _no_full_view(spec, state):
    """Seeded 'violation': some processor assembled a full view."""
    for pid, local in enumerate(state.locals):
        if len(local.view) >= spec.n_processors:
            return f"processor {pid} assembled a full view"
    return None


class TestCounterexampleLifting:
    def _assert_concrete_replay(self, spec, violation):
        """The violation path must be a valid *unreduced* execution
        ending in a state that itself violates the invariant."""
        state = spec.initial_state()
        for action in violation.path:
            replayed, state = spec.apply(state, action.pid, action.op)
            assert replayed.physical == action.physical
        assert state == violation.state
        assert _no_full_view(spec, state) is not None

    @pytest.mark.parametrize("n", [2, 3])
    def test_lifted_counterexample_is_concrete_and_minimal(self, n):
        spec = _snapshot_spec(n)
        base = Explorer(spec, [_no_full_view]).run()
        reduced = Explorer(spec, [_no_full_view], symmetry=True).run()
        assert base.violation and reduced.violation
        # BFS in the quotient preserves distance-to-violation.
        assert len(reduced.violation.path) == len(base.violation.path)
        self._assert_concrete_replay(spec, reduced.violation)

    def test_lift_canonical_path_identity_witnesses_roundtrip(self):
        """With identity witnesses, lifting is plain replay."""
        spec = _snapshot_spec(2)
        canonicalizer = StateCanonicalizer(spec)
        identity = canonicalizer.elements[0]
        assert identity.is_identity
        state = spec.initial_state()
        steps = []
        for _ in range(6):
            action, state = next(iter(spec.successors(state)))
            steps.append((action, identity))
        actions, final = lift_canonical_path(canonicalizer, identity, steps)
        assert [a.pid for a in actions] == [a.pid for a, _ in steps]
        assert final == state


#: One violating and one budgeted symmetric run per N=2 wiring, plus a
#: budgeted run whose views hold strings; prints what they admitted.
_EARLY_STOP_SCRIPT = textwrap.dedent('''
    from repro.checker import Explorer, SystemSpec
    from repro.checker.properties import (
        SNAPSHOT_SAFETY, permutation_invariant, renaming_names_valid,
    )
    from repro.core import RenamingMachine, SnapshotMachine
    from repro.memory.wiring import enumerate_wiring_assignments

    @permutation_invariant
    def no_full_view(spec, state):
        for pid, local in enumerate(state.locals):
            if len(local.view) >= spec.n_processors:
                return f"processor {pid} assembled a full view"
        return None

    for wiring in enumerate_wiring_assignments(2, 2):
        runs = (
            (SystemSpec(SnapshotMachine(2), [1, 2], wiring), [no_full_view], 10**6),
            (SystemSpec(SnapshotMachine(2), [1, 2], wiring), SNAPSHOT_SAFETY, 500),
            (SystemSpec(RenamingMachine(2), ["a", "b"], wiring),
             [renaming_names_valid], 300),
        )
        for spec, invariants, budget in runs:
            result = Explorer(
                spec, invariants, symmetry=True, max_states=budget
            ).run()
            print(result.states, result.transitions, result.depth,
                  result.covered_states, result.truncated_transitions)
            if result.violation:
                print(result.violation.message, result.violation.state,
                      result.violation.path)
''')


class TestDeterminism:
    def test_early_stopping_runs_agree_across_interpreters(self):
        """``hash`` differs between interpreters (string hashing is
        seeded, ``hash(None)`` is an address before Python 3.12), so the
        representative choice must not use it: a run that stops on a
        violation or a budget admits exactly the states it picked."""
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = set()
        for seed in ("0", "0", "1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
            done = subprocess.run(
                [sys.executable, "-c", _EARLY_STOP_SCRIPT], env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs
        assert "assembled a full view" in outputs.pop()


class TestRefusals:
    def test_symmetry_with_keep_edges_raises(self):
        with pytest.raises(ValueError, match="orbit-stable"):
            Explorer(_snapshot_spec(2), SNAPSHOT_SAFETY,
                     keep_edges=True, symmetry=True)

    def test_fast_symmetry_with_wait_freedom_raises(self):
        spec = FastSnapshotSpec([1, 2], ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            spec.explore(symmetry=True, check_wait_freedom=True)

    def test_unmarked_invariant_rejected(self):
        def bespoke_pid_property(spec, state):
            return None

        with pytest.raises(ValueError, match="bespoke_pid_property"):
            Explorer(
                _snapshot_spec(2), [bespoke_pid_property], symmetry=True
            )
        assert_permutation_invariant([_no_full_view])  # marked: no raise

    def test_builtin_properties_are_marked(self):
        assert_permutation_invariant(SNAPSHOT_SAFETY)


class TestEffectiveJobs:
    def test_within_capacity_passes_through_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert effective_jobs(1) == 1

    def test_oversubscription_caps_with_warning(self):
        usable = usable_cpus()
        with pytest.warns(RuntimeWarning, match="capping"):
            assert effective_jobs(usable + 5) == usable

    def test_cap_follows_the_affinity_mask(self, monkeypatch, capsys):
        # A process pinned by taskset or a cpuset may use fewer CPUs
        # than the machine has; the cap must count the former.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert usable_cpus() == 1
        with pytest.warns(RuntimeWarning, match="capping to 1"):
            assert effective_jobs(2) == 1
        from repro.cli import main

        assert main(["check", "--n", "3", "--jobs", "2", "--budget", "50"]) == 0
        assert "--jobs 2 capped to 1" in capsys.readouterr().out
