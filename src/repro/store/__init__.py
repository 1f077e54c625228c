"""Pluggable fingerprint-set storage for the exploration engines.

The checker's scaling wall is the *visited set*: every engine keeps one
entry per distinct reached state, and in-RAM Python sets cap the
exhaustive N=3 runs (~10⁷–10⁸ states per wiring class) well below
commodity-disk sizes.  TLC — the model checker whose fingerprint design
:mod:`repro.checker.fingerprint` already mirrors — solves this by
spilling the fingerprint set to disk; this package gives the
reproduction the same storage layer behind one interface:

- :class:`RamStore` — the existing in-RAM set, extracted unchanged
  (the default; fastest, memory ∝ states);
- :class:`MmapStore` — an mmap'd open-addressing table with a fixed
  byte capacity: memory-mapped file pages instead of Python objects,
  ~8 bytes per state, refuses (rather than degrades) past its load
  limit;
- :class:`SpillStore` — TLC's trade: a bounded in-RAM buffer that
  spills sorted runs to disk, with periodic run merging and a Bloom
  filter short-circuiting lookups of never-seen keys.  RAM stays under
  ``mem_cap`` however many states the run visits.  Its bulk path runs
  on numpy arrays over memory-mapped runs, so it needs numpy.

All three are exact sets (the Bloom filter only short-circuits
*misses*), so every engine reports identical states/transitions/
verdicts whatever the backend — tested exhaustively for N=2.

On top of the durable stores, :mod:`repro.store.checkpoint` persists
BFS runs (frontier + visited dump + counters + configuration metadata)
so a killed exhaustive run resumes exactly where it stopped:
``python -m repro check --resume DIR``.
"""

from repro.store.base import (
    DEFAULT_MEM_CAP,
    BACKENDS,
    FingerprintStore,
    StoreConfig,
    StoreError,
    StoreFullError,
)
from repro.store.checkpoint import (
    CheckpointError,
    CheckpointIncompatible,
    RunCheckpointer,
    SweepCheckpoint,
    load_meta,
    read_u64_file,
    write_u64_file,
)
from repro.store.mmap_table import MmapStore
from repro.store.ram import RamStore
from repro.store.spill import SpillStore

__all__ = [
    "BACKENDS",
    "DEFAULT_MEM_CAP",
    "CheckpointError",
    "CheckpointIncompatible",
    "FingerprintStore",
    "MmapStore",
    "RamStore",
    "RunCheckpointer",
    "SpillStore",
    "StoreConfig",
    "StoreError",
    "StoreFullError",
    "SweepCheckpoint",
    "load_meta",
    "read_u64_file",
    "write_u64_file",
]
