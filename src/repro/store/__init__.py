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

The scalar engines keep their whole visited set in the configured
store.  The batch engines keep theirs in the level kernel's own set
(:class:`repro.checker.batch.TieredVisited`), and use ``mmap`` or
``spill`` only as a disk tier: it receives, sorted and in one
unprobed ``add_many(keys, fresh=True)``, the keys that would take that
RAM tier past half of ``mem_cap``.  With ``ram`` (or no store) there is
no disk tier.

On top of the durable stores, :mod:`repro.store.checkpoint` persists
BFS runs (frontier + visited dump + counters + configuration metadata)
so a killed exhaustive run resumes exactly where it stopped:
``python -m repro check --resume DIR``.
"""

from typing import Tuple

from repro import _lazy_exports

#: Default total memory budget for the capped backends (bytes).
DEFAULT_MEM_CAP = 64 * 1024 * 1024

#: The recognised backend names, in CLI order.  Both constants live
#: here, not in :mod:`repro.store.base`, so building the CLI's parser
#: loads no store module.
BACKENDS: Tuple[str, ...] = ("ram", "mmap", "spill")

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

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.store.base": [
        "FingerprintStore",
        "StoreConfig",
        "StoreError",
        "StoreFullError",
    ],
    "repro.store.checkpoint": [
        "CheckpointError",
        "CheckpointIncompatible",
        "RunCheckpointer",
        "SweepCheckpoint",
        "load_meta",
        "read_u64_file",
        "write_u64_file",
    ],
    "repro.store.mmap_table": ["MmapStore"],
    "repro.store.ram": ["RamStore"],
    "repro.store.spill": ["SpillStore"],
})
