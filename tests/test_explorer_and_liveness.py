"""Tests for the BFS explorer, invariant machinery, and liveness analysis."""

import pytest

from repro.checker import Explorer, SystemSpec
import repro.checker.liveness as liveness
from repro.checker.fast_snapshot import FastSnapshotSpec
from repro.checker.liveness import (
    _scc_ids,
    bad_lasso_state,
    bad_lassos,
    certify_wait_free,
    check_wait_freedom,
)
from repro.checker.properties import (
    SNAPSHOT_SAFETY,
    permutation_invariant,
    snapshot_outputs_comparable,
    snapshot_outputs_valid,
    visibility_footprint,
)
from repro.core import SnapshotMachine, WriteScanMachine
from repro.memory.wiring import WiringAssignment, enumerate_wiring_assignments
from repro.store import StoreConfig


class TestExplorerOnSnapshotN2:
    @pytest.fixture(scope="class")
    def exploration(self):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        explorer = Explorer(
            spec, SNAPSHOT_SAFETY, keep_edges=True, collect_final_states=True
        )
        return spec, explorer.run()

    def test_complete_and_safe(self, exploration):
        _, result = exploration
        assert result.complete
        assert result.ok

    def test_state_and_transition_counts_stable(self, exploration):
        """Pin the exact exhaustive counts: any unintended semantic
        change to the algorithm shows up here first."""
        _, result = exploration
        assert result.states == 7235
        assert result.transitions == 15500

    def test_final_states_all_terminated_and_valid(self, exploration):
        spec, result = exploration
        assert result.final_states
        for state in result.final_states:
            assert spec.all_terminated(state)
            outputs = spec.outputs(state)
            assert set(outputs) == {0, 1}
            views = sorted(outputs.values(), key=len)
            assert views[0] <= views[1]

    def test_wait_freedom_certified(self, exploration):
        spec, result = exploration
        assert check_wait_freedom(spec, result) == []
        assert certify_wait_free(spec, result) is None

    def test_both_n2_wirings_safe(self):
        for wiring in enumerate_wiring_assignments(2, 2):
            spec = SystemSpec(SnapshotMachine(2), [1, 2], wiring)
            result = Explorer(spec, SNAPSHOT_SAFETY).run()
            assert result.ok and result.complete


class TestExplorerMechanics:
    def test_budget_makes_exploration_incomplete(self):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        result = Explorer(spec, max_states=100).run()
        assert not result.complete
        assert result.states == 100

    def test_violating_invariant_yields_shortest_path(self):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )

        # An artificial "invariant": no processor ever writes register 1
        # twice... simpler: flag any state where p0's view has 2 inputs.
        def no_full_view(spec_, state):
            if len(state.locals[0].view) == 2:
                return "p0 learned the other input"
            return None

        result = Explorer(spec, [no_full_view]).run()
        assert result.violation is not None
        path = result.violation.path
        assert path, "violation needs a non-empty path"
        # Replay the path and confirm it reaches the violation.
        state = spec.initial_state()
        for action in path:
            _, state = spec.apply(state, action.pid, action.op)
        assert len(state.locals[0].view) == 2
        # BFS guarantees minimality: p0 needs p1's write plus a scan
        # read, plus its own first write to be scanning.
        assert len(path) <= 5

    def test_violation_in_initial_state_detected(self):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        result = Explorer(spec, [lambda s, st: "always broken"]).run()
        assert result.violation is not None
        assert result.violation.path == []
        assert result.states == 1

    def test_liveness_requires_edges(self):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        result = Explorer(spec).run()
        with pytest.raises(ValueError):
            check_wait_freedom(spec, result)

    def test_liveness_requires_complete_exploration(self):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        result = Explorer(spec, keep_edges=True, max_states=50).run()
        with pytest.raises(ValueError):
            check_wait_freedom(spec, result)

    def test_liveness_refuses_exploration_stopped_by_violation(self):
        """The explorer stops at the first safety violation, so the
        graph it kept is partial even though no budget was hit: here 2
        states, while the whole 1,696-state graph has a bad lasso."""
        spec = SystemSpec(
            WriteScanMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        initial = spec.initial_state().locals

        def locals_never_move(spec_, state):
            if state.locals != initial:
                return "a local state left its initial value"
            return None

        stopped = Explorer(spec, [locals_never_move], keep_edges=True).run()
        assert stopped.violation is not None and stopped.states == 2
        with pytest.raises(ValueError, match="safety violation"):
            certify_wait_free(spec, stopped)
        whole = Explorer(spec, keep_edges=True).run()
        assert whole.states == 1696
        assert [v.pid for v in check_wait_freedom(spec, whole)] == [0, 1]


# ----------------------------------------------------------------------
# One BFS loop, every mode: fingerprint visited set vs index tables
# ----------------------------------------------------------------------


@visibility_footprint(outputs=True)
@permutation_invariant
def _always_broken(spec, state):
    return "always broken"


@visibility_footprint(outputs=True)
@permutation_invariant
def _no_full_output(spec, state):
    """A deep violation whose outputs-only footprint lets POR prune."""
    for pid, output in spec.outputs(state).items():
        if len(output) >= spec.n_processors:
            return f"processor {pid} output a full view"
    return None


_OUTPUT_SAFETY = (snapshot_outputs_comparable, snapshot_outputs_valid)
_MODE_CASES = {
    "safe": (_OUTPUT_SAFETY, {}),
    "violated_initially": ((_always_broken,), {}),
    "violated_deep": ((_no_full_output,), {}),
    "budget_500": (_OUTPUT_SAFETY, {"max_states": 500}),
}


def _replay(spec, path):
    """Run ``path`` through the unreduced transition relation."""
    state = spec.initial_state()
    for action in path:
        replayed, state = spec.apply(state, action.pid, action.op)
        assert replayed == action
    return state


@pytest.mark.parametrize(
    "wiring", list(enumerate_wiring_assignments(2, 2)),
    ids=lambda wiring: str(wiring.permutations()),
)
@pytest.mark.parametrize("case", list(_MODE_CASES))
@pytest.mark.parametrize("por", [False, True], ids=["por_off", "por_on"])
@pytest.mark.parametrize("symmetry", [False, True], ids=["identity", "symmetry"])
def test_fingerprint_mode_matches_index_tables(symmetry, por, case, wiring):
    spec = SystemSpec(SnapshotMachine(2), [1, 2], wiring)
    invariants, budget = _MODE_CASES[case]
    index, lean = (
        Explorer(
            spec, invariants, symmetry=symmetry, por=por, fingerprint=fingerprint,
            collect_final_states=True, **budget,
        ).run()
        for fingerprint in (False, True)
    )

    def counts(result):
        return (
            result.states, result.transitions, result.depth, result.complete,
            result.truncated_transitions, result.final_states,
            result.covered_states, result.symmetry_group_order,
            result.por_counters,
        )

    assert counts(lean) == counts(index)
    if case == "budget_500":
        assert index.states == 500 and index.truncated_transitions > 0
    if case in ("safe", "budget_500"):
        assert index.ok and lean.ok
        assert index.complete == (case == "safe")
        return
    assert index.violation and lean.violation
    assert lean.violation.message == index.violation.message
    assert lean.violation.state == index.violation.state
    assert any(check(spec, index.violation.state) for check in invariants)
    for result in (index, lean):
        assert _replay(spec, result.violation.path) == result.violation.state
    if por:
        # The rebuild runs unreduced, so its path is a shortest one.
        assert len(lean.violation.path) <= len(index.violation.path)
    else:
        assert lean.violation.path == index.violation.path


@pytest.mark.parametrize(
    "options, remedy",
    [
        (dict(por=True, keep_edges=True), "por=False"),
        (dict(fingerprint=True, keep_edges=True), "fingerprint=False"),
        (dict(store=StoreConfig(backend="mmap")), "fingerprint=True"),
        (dict(symmetry=True, keep_edges=True), "symmetry=False"),
    ],
)
def test_refusals_name_explorer_parameters(options, remedy):
    """No CLI path passes these options, so the remedy is a parameter."""
    spec = SystemSpec(SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2))
    with pytest.raises(ValueError, match=remedy) as refusal:
        Explorer(spec, **options)
    assert "--" not in str(refusal.value)


class TestLivenessDetectsNonTermination:
    @pytest.mark.parametrize(
        "wiring", list(enumerate_wiring_assignments(2, 2)),
        ids=lambda wiring: str(wiring.permutations()),
    )
    def test_write_scan_loop_is_flagged_as_never_terminating(self, wiring):
        """The write-scan loop (no levels) runs forever: every processor
        has a bad lasso.  This validates the liveness analysis itself —
        the same machinery that certifies the snapshot algorithm
        wait-free must flag the loop without termination.  The graph is
        cyclic, so the per-processor scan runs, on the peel's core, and
        must pick the cycle states the scan over the whole graph does."""
        spec = SystemSpec(WriteScanMachine(2), [1, 2], wiring)
        result = Explorer(spec, keep_edges=True).run()
        assert result.complete
        violations = check_wait_freedom(spec, result)
        assert [(v.pid, v.cycle_state_index) for v in violations] == [
            (0, 35), (1, 60),
        ]
        for violation in violations:
            assert violation.cycle_state == result.state_table[
                violation.cycle_state_index
            ]


class TestAcyclicPeel:
    """One topological peel certifies acyclic graphs; cyclic ones get the
    per-processor SCC scan on the peel's core, with the same answers."""

    # Each case: (edges, n_states, terminated (state, pid) pairs, expected).
    CASES = {
        "acyclic": (
            [(0, 0, 1), (0, 1, 2), (1, 1, 3), (2, 0, 3), (1, 0, 2)],
            4, set(), [],
        ),
        # A 40-state chain of alternating steps, then 40 -p0-> 41
        # -p1-> 42 -p0-> 40.
        "cycle_behind_long_prefix": (
            [(i, i % 2, i + 1) for i in range(40)]
            + [(40, 0, 41), (41, 1, 42), (42, 0, 40)],
            43, set(), [(0, 40), (1, 41)],
        ),
        # p1 alone cycles 1 -> 2 -> 1; p0 only enters the cycle.
        "cycle_without_p0_edge": (
            [(0, 0, 1), (1, 1, 2), (2, 1, 1), (0, 1, 3)],
            4, set(), [(1, 1)],
        ),
        "self_loop": (
            [(0, 0, 1), (0, 1, 2), (2, 1, 2), (1, 1, 2)],
            3, set(), [(1, 2)],
        ),
        # The p0/p1 cycle 1 -> 2 -> 1 runs through states where p0 has
        # terminated, so only p1 has a bad lasso there.
        "cycle_through_p0_terminated_states": (
            [(0, 0, 1), (1, 1, 2), (2, 0, 1), (0, 1, 3), (3, 0, 4)],
            5, {(1, 0), (2, 0)}, [(1, 1)],
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_scc_scan_alone(self, case, monkeypatch):
        edges, n_states, terminated, expected = self.CASES[case]

        def is_terminated(index, pid):
            return (index, pid) in terminated

        scc_alone = []
        for pid in range(2):
            alive = [not is_terminated(i, pid) for i in range(n_states)]
            index = bad_lasso_state(edges, n_states, pid, alive)
            if index is not None:
                scc_alone.append((pid, index))
        assert scc_alone == expected
        scc_calls = []
        scc_ids = liveness._scc_ids
        monkeypatch.setattr(
            liveness, "_scc_ids",
            lambda *args: scc_calls.append(1) or scc_ids(*args),
        )
        assert list(bad_lassos(edges, n_states, 2, is_terminated)) == expected
        assert bool(scc_calls) == (case != "acyclic")

    @pytest.mark.parametrize(
        "wiring", list(enumerate_wiring_assignments(2, 2)),
        ids=lambda wiring: str(wiring.permutations()),
    )
    def test_n2_snapshot_certification_never_runs_an_scc(
        self, wiring, monkeypatch
    ):
        def no_scc(*args):
            raise AssertionError("the acyclic N=2 graph needs no SCC")

        monkeypatch.setattr(liveness, "_scc_ids", no_scc)
        spec = SystemSpec(SnapshotMachine(2), [1, 2], wiring)
        result = Explorer(spec, SNAPSHOT_SAFETY, keep_edges=True).run()
        assert check_wait_freedom(spec, result) == []
        fast = FastSnapshotSpec([1, 2], wiring.permutations()).explore(
            check_wait_freedom=True
        )
        assert fast.complete and fast.bad_lasso_pid is None


class TestSCCHelper:
    def test_simple_cycle(self):
        adjacency = {0: [1], 1: [2], 2: [0]}
        component = _scc_ids(adjacency, 3)
        assert component[0] == component[1] == component[2] != -1

    def test_dag_components_distinct(self):
        adjacency = {0: [1], 1: [2]}
        component = _scc_ids(adjacency, 3)
        assert len({component[0], component[1], component[2]}) == 3

    def test_two_cycles(self):
        adjacency = {0: [1], 1: [0], 2: [3], 3: [2], 1: [0, 2]}
        component = _scc_ids(adjacency, 4)
        assert component[0] == component[1]
        assert component[2] == component[3]
        assert component[0] != component[2]

    def test_self_loop_is_its_own_component(self):
        adjacency = {0: [0]}
        component = _scc_ids(adjacency, 1)
        assert component[0] != -1

    def test_deep_chain_no_recursion_error(self):
        n = 50_000
        adjacency = {i: [i + 1] for i in range(n - 1)}
        component = _scc_ids(adjacency, n)
        assert component[0] != component[n - 1]


class TestBadLassoState:
    """The per-processor scan both wait-freedom checks share."""

    # 0 -p0-> 1 -p1-> 2 -p1-> 1 is a two-state cycle of p1 steps that p0
    # enters but never steps on; 0 -p1-> 3 -p0-> 3 is a p0 self-loop.
    EDGES = [(0, 0, 1), (1, 1, 2), (2, 1, 1), (0, 1, 3), (3, 0, 3)]

    def test_self_loop(self):
        assert bad_lasso_state(self.EDGES, 4, 0, [True] * 4) == 3

    def test_multi_state_cycle(self):
        assert bad_lasso_state(self.EDGES, 4, 1, [True] * 4) == 1

    def test_terminated_states_cut_the_lasso(self):
        alive = [True, True, False, False]
        assert bad_lasso_state(self.EDGES, 4, 0, alive) is None
        assert bad_lasso_state(self.EDGES, 4, 1, alive) is None

    def test_acyclic_graph_has_none(self):
        edges = [(0, 0, 1), (1, 1, 2), (0, 1, 2)]
        for pid in (0, 1):
            assert bad_lasso_state(edges, 3, pid, [True] * 3) is None
