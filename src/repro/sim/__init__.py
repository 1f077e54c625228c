"""Asynchronous-execution substrate: processes, schedulers, runner.

The paper's executions (Section 2) are infinite interleavings of atomic
steps chosen by an adversary.  This package provides:

- the atomic operations processors can issue (:mod:`repro.sim.ops`),
- the :class:`~repro.sim.machine.AlgorithmMachine` protocol — algorithms
  as pure state machines over immutable local states, the single source
  of truth shared by the simulator and the model checker,
- process wrappers (:mod:`repro.sim.process`) for both state-machine
  algorithms and free-form generator algorithms (used by baselines),
- schedulers (:mod:`repro.sim.schedulers`): round-robin, seeded random,
  solo runs, scripts, and periodic patterns,
- the :class:`~repro.sim.runner.Runner` that drives everything and
  returns a queryable :class:`~repro.sim.runner.ExecutionResult`,
- scripted executions (:mod:`repro.sim.scripted`) reproducing Figure 2
  and its five-processor extension exactly,
- adversaries (:mod:`repro.sim.adversaries`), including the covering
  adversary of the Section 2.1 lower bound.
"""

from repro import _lazy_exports

__all__ = [
    "Read",
    "Write",
    "AlgorithmMachine",
    "FIRST_ENABLED",
    "RandomPolicy",
    "MachineProcess",
    "GeneratorProcess",
    "ProcessStatus",
    "Runner",
    "ExecutionResult",
    "RoundRobinScheduler",
    "RandomScheduler",
    "ScriptScheduler",
    "SoloScheduler",
    "PeriodicScheduler",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.sim.machine": ["AlgorithmMachine", "FIRST_ENABLED", "RandomPolicy"],
    "repro.sim.ops": ["Read", "Write"],
    "repro.sim.process": [
        "GeneratorProcess",
        "MachineProcess",
        "ProcessStatus",
    ],
    "repro.sim.runner": ["ExecutionResult", "Runner"],
    "repro.sim.schedulers": [
        "PeriodicScheduler",
        "RandomScheduler",
        "RoundRobinScheduler",
        "ScriptScheduler",
        "SoloScheduler",
    ],
})
