"""The paper's algorithms, implemented as pure state machines.

- :mod:`repro.core.views` — value types: views (sets of inputs) and the
  ``(view, level)`` register records of the snapshot algorithm.
- :mod:`repro.core.write_scan` — the write-scan loop of Figure 1 /
  Section 4 (no termination; the object of the eventual-pattern study).
- :mod:`repro.core.snapshot` — the wait-free group solution to the
  snapshot task, Figure 3 / Section 5 (the main contribution).
- :mod:`repro.core.long_lived` — the long-lived snapshot of Section 7.
- :mod:`repro.core.renaming` — adaptive renaming via Bar-Noy–Dolev
  rank-in-snapshot, Figure 4 / Section 6.
- :mod:`repro.core.consensus` — obstruction-free consensus via the
  derandomized Chandra race, Figure 5 / Section 7.

All machines are anonymous by construction: they are parameterized only
by ``(n_processors, n_registers)`` and the processor's private input.
"""

from repro import _lazy_exports

__all__ = [
    "View",
    "view",
    "RegisterRecord",
    "WriteScanMachine",
    "WriteScanState",
    "SnapshotMachine",
    "SnapshotState",
    "LongLivedSnapshotMachine",
    "LongLivedState",
    "RenamingMachine",
    "RenamingState",
    "bar_noy_dolev_name",
    "ConsensusMachine",
    "ConsensusState",
    "TimestampedValue",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.consensus": [
        "ConsensusMachine",
        "ConsensusState",
        "TimestampedValue",
    ],
    "repro.core.long_lived": ["LongLivedSnapshotMachine", "LongLivedState"],
    "repro.core.renaming": [
        "RenamingMachine",
        "RenamingState",
        "bar_noy_dolev_name",
    ],
    "repro.core.snapshot": ["SnapshotMachine", "SnapshotState"],
    "repro.core.views": ["RegisterRecord", "View", "view"],
    "repro.core.write_scan": ["WriteScanMachine", "WriteScanState"],
})
