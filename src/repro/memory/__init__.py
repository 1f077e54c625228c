"""Fully-anonymous shared-memory substrate.

This package implements the memory model of Section 2 of the paper:

- a bank of ``M`` multi-writer multi-reader (MWMR) atomic registers
  (:class:`~repro.memory.registers.RegisterArray`),
- per-processor *wiring* permutations ``sigma_p`` that translate the
  private, local register numbering of each processor into physical
  register indices (:class:`~repro.memory.wiring.Wiring`,
  :class:`~repro.memory.wiring.WiringAssignment`),
- the combination of the two, :class:`~repro.memory.memory.AnonymousMemory`,
  which is the only interface algorithms are given — algorithms can never
  observe physical indices, which is what *memory anonymity* means,
- an event log (:mod:`repro.memory.trace`) recording every atomic step
  with both local and physical coordinates, enabling the "reads from"
  analysis of Section 2 and the replay/verification tooling.
"""

from repro import _lazy_exports

__all__ = [
    "AnonymousMemory",
    "RegisterArray",
    "Wiring",
    "WiringAssignment",
    "Trace",
    "ReadEvent",
    "WriteEvent",
    "OutputEvent",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.memory.memory": ["AnonymousMemory"],
    "repro.memory.registers": ["RegisterArray"],
    "repro.memory.trace": ["OutputEvent", "ReadEvent", "Trace", "WriteEvent"],
    "repro.memory.wiring": ["Wiring", "WiringAssignment"],
})
