"""Global transition systems over algorithm machines.

A :class:`SystemSpec` closes an :class:`~repro.sim.machine.AlgorithmMachine`
over a concrete configuration — number of processors, inputs, wiring —
and exposes the induced global transition system:

- a global state is ``(registers, locals)``, both tuples of immutable
  values;
- an action is ``(pid, op)``; successors branch over every processor
  and every operation its machine allows (the algorithm's internal
  nondeterminism), which is exactly the adversary's power in the paper's
  model plus the algorithm's free choices.

Because machines are pure, exploring this system is exhaustive over all
interleavings *for the given wiring*; the experiments iterate over all
wiring assignments modulo register relabelling
(:func:`repro.memory.wiring.enumerate_wiring_assignments`).

Processors are anonymous, so what a processor does next depends on its
local state, the op and the value read, never on its pid.  The spec
therefore asks the machine once per distinct local state (enabled ops,
output) and once per distinct step (next local state), and every
processor reads the same step tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.memory.wiring import WiringAssignment
from repro.sim.machine import AlgorithmMachine
from repro.sim.ops import Op, Read, Write


class GlobalState:
    """One global configuration: register contents + all local states.

    States are hashed twice per transition by the explorer's BFS dict
    lookups, so the hash is computed once at construction and cached;
    ``__slots__`` keeps the per-state footprint flat.  Treat instances
    as immutable (the constructor freezes the hash).
    """

    __slots__ = ("registers", "locals", "_hash")

    def __init__(
        self, registers: Tuple[Any, ...], locals: Tuple[Any, ...]
    ) -> None:
        self.registers = registers
        self.locals = locals
        self._hash = hash((registers, locals))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GlobalState):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.registers == other.registers
            and self.locals == other.locals
        )

    def __repr__(self) -> str:
        return (
            f"GlobalState(registers={self.registers!r},"
            f" locals={self.locals!r})"
        )

    def __reduce__(self):
        return (GlobalState, (self.registers, self.locals))


@dataclass(frozen=True, slots=True)
class Action:
    """One atomic step: processor ``pid`` performing ``op``.

    ``op.reg`` is the *local* register index the processor used; the
    physical index it touched is recorded too, for trace readability.
    """

    pid: int
    op: Op
    physical: int


class _Step:
    """One op taken from one local state, by whichever processor.

    ``actions[pid]`` labels the step when ``pid`` takes it (the
    physical register depends on the wiring, not on the machine).
    ``after`` maps the op's result to the next local state: the value
    read for a read, None for a write, so a write's dict has one entry.
    It fills as results occur.
    """

    __slots__ = ("op", "write", "actions", "after")

    def __init__(self, op: Op, physical: Sequence[Sequence[int]]) -> None:
        if not isinstance(op, (Read, Write)):  # pragma: no cover - defensive
            raise TypeError(f"unknown op {op!r}")
        self.op = op
        self.write = isinstance(op, Write)
        self.actions = tuple(
            Action(pid=pid, op=op, physical=table[op.reg])
            for pid, table in enumerate(physical)
        )
        self.after: Dict[Any, Any] = {}


class _LocalSteps:
    """What the machine does from one local state, asked once.

    ``ops`` and ``output`` are the machine's answers for the state;
    ``moves`` holds one :class:`_Step` per enabled op, in the machine's
    order, and ``steps`` finds the step of any op for ``apply``.
    """

    __slots__ = ("local", "ops", "output", "moves", "steps")

    def __init__(
        self,
        machine: AlgorithmMachine,
        local: Any,
        physical: Sequence[Sequence[int]],
    ) -> None:
        self.local = local
        self.ops = machine.enabled_ops(local)
        self.output = machine.output(local)
        self.steps: Dict[Op, _Step] = {}
        self.moves = tuple(self.step(op, physical) for op in self.ops)

    def step(self, op: Op, physical: Sequence[Sequence[int]]) -> _Step:
        step = self.steps.get(op)
        if step is None:
            step = self.steps[op] = _Step(op, physical)
        return step


#: ``dict.get`` default telling "not computed yet" from any local state.
_UNSEEN = object()


class SystemSpec:
    """The global transition system of ``n`` copies of one machine.

    Parameters
    ----------
    machine:
        The algorithm every (anonymous) processor runs.
    inputs:
        Private input per processor; position = pid.
    wiring:
        The wiring assignment fixing each processor's register
        permutation.

    The machine is called through step tables keyed by local state, not
    per transition.  This is sound because machines are pure over
    immutable hashable states, and the tables compare local states and
    values read with the same equality the visited sets compare global
    states with.  The tables grow with the distinct local steps only
    (69 local states and 269 steps per N=2 snapshot wiring).
    """

    def __init__(
        self,
        machine: AlgorithmMachine,
        inputs: Sequence[Hashable],
        wiring: WiringAssignment,
    ) -> None:
        if len(inputs) != wiring.n_processors:
            raise ValueError(
                f"{len(inputs)} inputs for {wiring.n_processors} wired processors"
            )
        self.machine = machine
        self.inputs = tuple(inputs)
        self.wiring = wiring
        self.n_processors = len(self.inputs)
        self.n_registers = wiring.n_registers
        # Local register index -> physical index, per processor.
        self._physical = tuple(w.permutation for w in wiring)
        #: Step tables: local state -> what the machine does from it.
        self._tables: Dict[Any, _LocalSteps] = {}

    def _local_steps(self, local: Any) -> _LocalSteps:
        """The step table of ``local``, asked of the machine on first sight."""
        table = self._tables.get(local)
        if table is None:
            table = self._tables[local] = _LocalSteps(
                self.machine, local, self._physical
            )
        return table

    # ------------------------------------------------------------------
    # Transition relation
    # ------------------------------------------------------------------
    def initial_state(self) -> GlobalState:
        default = self.machine.register_initial_value()
        return GlobalState(
            registers=tuple([default] * self.n_registers),
            locals=tuple(
                self.machine.initial_state(value) for value in self.inputs
            ),
        )

    def successors(self, state: GlobalState) -> Iterator[Tuple[Action, GlobalState]]:
        """All one-step successors, branching over processors and ops."""
        for pid, local in enumerate(state.locals):
            for step in self._local_steps(local).moves:
                yield self._step(state, pid, step)

    def apply(self, state: GlobalState, pid: int, op: Op) -> Tuple[Action, GlobalState]:
        """Apply one (pid, op) step; returns the action and new state."""
        table = self._local_steps(state.locals[pid])
        return self._step(state, pid, table.step(op, self._physical))

    def _step(
        self, state: GlobalState, pid: int, step: _Step
    ) -> Tuple[Action, GlobalState]:
        action = step.actions[pid]
        physical = action.physical
        registers = state.registers
        if step.write:
            result = None
            registers = (
                registers[:physical] + (step.op.value,)
                + registers[physical + 1 :]
            )
        else:
            result = registers[physical]
        locals_ = state.locals
        new_local = step.after.get(result, _UNSEEN)
        if new_local is _UNSEEN:
            # Keep the table's own object: equal local states are then
            # one object, which lookups and state comparisons match by
            # identity before they compare fields.
            new_local = step.after[result] = self._local_steps(
                self.machine.apply(locals_[pid], step.op, result)
            ).local
        return action, GlobalState(
            registers, locals_[:pid] + (new_local,) + locals_[pid + 1 :]
        )

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def enabled(self, state: GlobalState, pid: int) -> Tuple[Op, ...]:
        """The ops ``pid``'s machine allows next in ``state``."""
        return self._local_steps(state.locals[pid]).ops

    def output(self, state: GlobalState, pid: int) -> Optional[Any]:
        """``pid``'s output in ``state``, or None while it runs."""
        return self._local_steps(state.locals[pid]).output

    def outputs(self, state: GlobalState) -> dict:
        """pid -> output, for the processors terminated in ``state``."""
        result = {}
        for pid, local in enumerate(state.locals):
            value = self._local_steps(local).output
            if value is not None:
                result[pid] = value
        return result

    def terminated(self, state: GlobalState, pid: int) -> bool:
        """Whether ``pid`` has no enabled operations in ``state``."""
        return not self._local_steps(state.locals[pid]).ops

    def all_terminated(self, state: GlobalState) -> bool:
        return all(
            self.terminated(state, pid) for pid in range(self.n_processors)
        )

    def schedule_of(self, actions: Sequence[Action]) -> List[int]:
        """Extract the pid schedule from an action path (for replay)."""
        return [action.pid for action in actions]
