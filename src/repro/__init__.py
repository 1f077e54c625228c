"""repro — the fully-anonymous shared-memory model, reproduced.

A production-quality reproduction of Losa & Gafni, *"Understanding
Read-Write Wait-Free Coverings in the Fully-Anonymous Shared-Memory
Model"* (PODC 2024): the model, the write-scan loop and its
eventual-pattern theory (stable-view DAGs), the wait-free snapshot-task
algorithm, adaptive renaming, obstruction-free consensus, group
solvability, an explicit-state model checker standing in for TLC, the
paper's adversarial constructions, and baselines from the related-work
lineage.

Quick start
-----------
>>> from repro import run_snapshot
>>> result = run_snapshot(inputs=["a", "b", "c"], seed=7)
>>> all(len(view) >= 1 for view in result.outputs.values())
True

Packages
--------
- :mod:`repro.memory` — anonymous registers, wirings, traces
- :mod:`repro.sim` — processes, schedulers, runner, scripted executions
- :mod:`repro.core` — the paper's algorithms (write-scan, snapshot,
  long-lived snapshot, renaming, consensus)
- :mod:`repro.tasks` — tasks and group solvability
- :mod:`repro.checker` — explicit-state model checking
- :mod:`repro.analysis` — stable views, statistics
- :mod:`repro.baselines` — double-collect, Guerraoui–Ruppert, naive rules
"""

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def _lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each defining module to the public names the
    package re-exports from it.  A name's module is imported on the
    name's first access and the value is then bound in the package, so
    importing a package costs nothing until its names are used.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__


__version__ = "1.0.0"

__all__ = [
    "run_snapshot",
    "run_renaming",
    "run_consensus",
    "run_write_scan",
    "build_runner",
    "SnapshotMachine",
    "WriteScanMachine",
    "LongLivedSnapshotMachine",
    "RenamingMachine",
    "ConsensusMachine",
    "AnonymousMemory",
    "Wiring",
    "WiringAssignment",
    "Runner",
    "__version__",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.api": [
        "build_runner",
        "run_consensus",
        "run_renaming",
        "run_snapshot",
        "run_write_scan",
    ],
    "repro.core.consensus": ["ConsensusMachine"],
    "repro.core.long_lived": ["LongLivedSnapshotMachine"],
    "repro.core.renaming": ["RenamingMachine"],
    "repro.core.snapshot": ["SnapshotMachine"],
    "repro.core.write_scan": ["WriteScanMachine"],
    "repro.memory.memory": ["AnonymousMemory"],
    "repro.memory.wiring": ["Wiring", "WiringAssignment"],
    "repro.sim.runner": ["Runner"],
})
