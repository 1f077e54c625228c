"""Tests for the global transition system and its simulator conformance."""

import random
from collections import Counter

import pytest

from repro.api import build_runner
from repro.checker import Explorer, SystemSpec
from repro.checker.liveness import check_wait_freedom
from repro.checker.properties import (
    SNAPSHOT_SAFETY,
    consensus_agreement_and_validity,
    renaming_names_valid,
    snapshot_outputs_comparable,
    snapshot_outputs_valid,
)
from repro.checker.system import Action, GlobalState
from repro.core import (
    ConsensusMachine,
    LongLivedSnapshotMachine,
    RenamingMachine,
    SnapshotMachine,
    WriteScanMachine,
)
from repro.memory.wiring import WiringAssignment, enumerate_wiring_assignments
from repro.sim.ops import Read, Write


class TestBasics:
    def test_initial_state(self):
        machine = SnapshotMachine(2)
        spec = SystemSpec(machine, [1, 2], WiringAssignment.identity(2, 2))
        state = spec.initial_state()
        assert state.registers == (machine.register_initial_value(),) * 2
        assert [local.view for local in state.locals] == [
            frozenset({1}), frozenset({2})
        ]

    def test_input_count_must_match_wiring(self):
        with pytest.raises(ValueError):
            SystemSpec(
                SnapshotMachine(2), [1, 2, 3], WiringAssignment.identity(2, 2)
            )

    def test_successor_count_initial(self):
        """Initially each processor can write any of the registers."""
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        successors = list(spec.successors(spec.initial_state()))
        assert len(successors) == 4  # 2 processors x 2 register choices

    def test_actions_carry_physical_index(self):
        from repro.memory.wiring import Wiring

        wiring = WiringAssignment([Wiring.identity(2), Wiring.rotation(2, 1)])
        spec = SystemSpec(SnapshotMachine(2), [1, 2], wiring)
        for action, _ in spec.successors(spec.initial_state()):
            assert action.physical == wiring[action.pid].to_physical(action.op.reg)

    def test_write_updates_register(self):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        state = spec.initial_state()
        action, successor = spec.apply(state, 0, Write(1, "record"))
        assert successor.registers[1] == "record"
        assert successor.registers[0] == state.registers[0]

    def test_read_leaves_registers_untouched(self):
        machine = SnapshotMachine(2)
        spec = SystemSpec(machine, [1, 2], WiringAssignment.identity(2, 2))
        state = spec.initial_state()
        # Put p0 into scanning first.
        _, state = spec.apply(state, 0, machine.enabled_ops(state.locals[0])[0])
        _, successor = spec.apply(state, 0, Read(0))
        assert successor.registers == state.registers

    def test_outputs_and_termination_queries(self):
        spec = SystemSpec(
            SnapshotMachine(1, n_registers=1), [1], WiringAssignment.identity(1, 1)
        )
        state = spec.initial_state()
        assert spec.outputs(state) == {}
        assert not spec.all_terminated(state)
        # One processor, one register: solo climb to level 1.
        for _ in range(100):
            successors = list(spec.successors(state))
            if not successors:
                break
            state = successors[0][1]
        assert spec.all_terminated(state)
        assert spec.outputs(state) == {0: frozenset({1})}


class TestSimulatorConformance:
    """The spec and the runner must agree step for step — they share the
    machine code, so divergence would mean the wiring or result plumbing
    differs."""

    @pytest.mark.parametrize("seed", range(10))
    def test_same_schedule_same_outcome(self, seed):
        rng = random.Random(seed)
        n = 3
        machine = SnapshotMachine(n)
        wiring = WiringAssignment.random(n, n, rng)

        runner = build_runner(machine, [1, 2, 3], seed=seed, wiring=wiring)
        result = runner.run(200_000)
        assert result.all_terminated

        # Replay through the spec: follow the recorded schedule, always
        # choosing the op the runner's policy chose (recover it from the
        # trace events).
        spec = SystemSpec(machine, [1, 2, 3], wiring)
        state = spec.initial_state()
        events = [e for e in result.trace if hasattr(e, "local_index")]
        for event in events:
            from repro.memory.trace import WriteEvent

            if isinstance(event, WriteEvent):
                op = Write(event.local_index, event.value)
            else:
                op = Read(event.local_index)
            _, state = spec.apply(state, event.pid, op)
        assert spec.outputs(state) == result.outputs
        assert state.registers == runner.memory.snapshot()

    def test_write_scan_spec_never_terminates(self):
        machine = WriteScanMachine(2)
        spec = SystemSpec(machine, [1, 2], WiringAssignment.identity(2, 2))
        state = spec.initial_state()
        for _ in range(500):
            successors = list(spec.successors(state))
            assert successors
            state = successors[0][1]
        assert spec.outputs(state) == {}


# ----------------------------------------------------------------------
# Step tables: the machine runs once per distinct local step
# ----------------------------------------------------------------------
class CountingMachine:
    """Wraps a machine and counts each call by its exact arguments."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def enabled_ops(self, local):
        self.calls["enabled_ops", local] += 1
        return self.inner.enabled_ops(local)

    def output(self, local):
        self.calls["output", local] += 1
        return self.inner.output(local)

    def apply(self, local, op, result):
        self.calls["apply", local, op, result] += 1
        return self.inner.apply(local, op, result)


@pytest.mark.parametrize(
    "wiring", list(enumerate_wiring_assignments(2, 2)),
    ids=lambda w: str(w.permutations()),
)
def test_machine_runs_once_per_distinct_step(wiring):
    """15,500 transitions and their liveness scan ask the machine 69
    local states and 269 steps, each exactly once."""
    machine = CountingMachine(SnapshotMachine(2))
    spec = SystemSpec(machine, [1, 2], wiring)
    result = Explorer(spec, SNAPSHOT_SAFETY, keep_edges=True).run()
    assert check_wait_freedom(spec, result) == []
    assert (result.states, result.transitions) == (7235, 15500)
    assert set(machine.calls.values()) == {1}
    assert Counter(key[0] for key in machine.calls) == {
        "apply": 269, "enabled_ops": 69, "output": 69,
    }


class DirectSpec(SystemSpec):
    """Test oracle: asks the machine on every query, no step tables."""

    def successors(self, state):
        for pid in range(self.n_processors):
            for op in self.machine.enabled_ops(state.locals[pid]):
                yield self.apply(state, pid, op)

    def apply(self, state, pid, op):
        physical = self._physical[pid][op.reg]
        registers = list(state.registers)
        if isinstance(op, Read):
            result = registers[physical]
        else:
            result = None
            registers[physical] = op.value
        locals_ = list(state.locals)
        locals_[pid] = self.machine.apply(locals_[pid], op, result)
        return (
            Action(pid=pid, op=op, physical=physical),
            GlobalState(tuple(registers), tuple(locals_)),
        )

    def enabled(self, state, pid):
        return self.machine.enabled_ops(state.locals[pid])

    def output(self, state, pid):
        return self.machine.output(state.locals[pid])

    def outputs(self, state):
        return {
            pid: self.machine.output(local)
            for pid, local in enumerate(state.locals)
            if self.machine.output(local) is not None
        }

    def terminated(self, state, pid):
        return not self.machine.enabled_ops(state.locals[pid])


def _p0_learns_other_input(spec, state):
    if len(state.locals[0].view) == 2:
        return "p0 learned the other input"
    return None


_WIRINGS = list(enumerate_wiring_assignments(2, 2))
_SNAPSHOT_MODES = {
    "plain": (SNAPSHOT_SAFETY, dict(keep_edges=True)),
    "symmetry": (SNAPSHOT_SAFETY, dict(symmetry=True)),
    # Output-only properties leave register steps invisible, so the
    # ample sets (and their enabled/output queries) really fire.
    "por": (
        (snapshot_outputs_comparable, snapshot_outputs_valid),
        dict(por=True),
    ),
    "fingerprint": (SNAPSHOT_SAFETY, dict(fingerprint=True)),
}
_CASES = {
    **{
        f"snapshot-{index}-{mode}": (
            SnapshotMachine, [1, 2], wiring, invariants, options,
        )
        for index, wiring in enumerate(_WIRINGS)
        for mode, (invariants, options) in _SNAPSHOT_MODES.items()
    },
    "write-scan": (
        WriteScanMachine, [1, 2], _WIRINGS[1], (), dict(keep_edges=True),
    ),
    "renaming": (
        RenamingMachine, ["a", "g"], _WIRINGS[1],
        (renaming_names_valid,), dict(keep_edges=True),
    ),
    "consensus-budgeted": (
        ConsensusMachine, ["x", "y"], _WIRINGS[1],
        (consensus_agreement_and_validity,), dict(max_states=3_000),
    ),
    "long-lived": (
        LongLivedSnapshotMachine, [1, 2], _WIRINGS[0], SNAPSHOT_SAFETY,
        dict(keep_edges=True),
    ),
    "violation": (
        SnapshotMachine, [1, 2], _WIRINGS[1], (_p0_learns_other_input,),
        dict(keep_edges=True),
    ),
}


def _observed(result):
    violation = result.violation
    return (
        result.states,
        result.transitions,
        result.depth,
        result.edges,
        result.state_table,
        result.final_states,
        violation and (violation.message, violation.path),
    )


@pytest.mark.parametrize("case", list(_CASES))
def test_step_tables_match_direct_machine_calls(case):
    machine_type, inputs, wiring, invariants, options = _CASES[case]
    observed = []
    for spec_type in (SystemSpec, DirectSpec):
        spec = spec_type(machine_type(2), inputs, wiring)
        explorer = Explorer(
            spec, invariants, collect_final_states=True, **options
        )
        observed.append(_observed(explorer.run()))
    tables, direct = observed
    assert tables == direct
    if case == "violation":
        assert direct[-1] is not None
