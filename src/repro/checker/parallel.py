"""Multi-core exploration: the reproduction's parallel TLC engine.

TLC is a *parallel* fingerprint-set explorer; this module gives the
reproduction the same architecture on top of ``multiprocessing``, at
two grains:

**Across wiring classes** (:func:`check_snapshot_classes`) — experiment
E4's natural unit of work.  Each canonical wiring class (from
:func:`~repro.checker.fast_snapshot.canonical_wiring_classes`) is an
independent exhaustive/budgeted exploration, so a pool of workers
sweeps classes with zero coordination; results come back in class order
regardless of completion order, so the merged report is deterministic.

**Within one class** (:func:`explore_sharded`) — frontier-sharded BFS
for the day one class outgrows a single core.  Every state is owned by
the shard ``fingerprint_int(state) % jobs`` (the deterministic packed
-integer fingerprint, *not* Python's randomized object hash, so all
workers — even spawn-started ones — agree on ownership).  Workers hold
the visited set of their own shard only, expand one BFS layer per
round, and hand successors owned by other shards back to the driver,
which routes them; per-shard statistics are merged in shard order, so
two runs with the same ``jobs`` produce identical results.

Exhaustive runs are partition-invariant: the sharded engine reports
exactly the serial engine's ``(states, transitions, ok)`` because both
count each distinct state once and each generated successor once.
Budgeted runs stop at a BFS-layer boundary (the first round whose
admissions reach the budget), which is deterministic for a fixed
``jobs`` but may admit slightly more than ``max_states``.

Everything degrades gracefully: ``jobs=1`` (or an environment without
usable ``multiprocessing``) runs the serial engines in-process with
identical semantics.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from array import array
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.checker.fast_snapshot import (
    ClassSetup,
    FastExplorationResult,
    FastSnapshotSpec,
    canonical_wiring_classes,
)
from repro.checker.fingerprint import fingerprint_int
from repro.store.base import StoreConfig
from repro.store.checkpoint import (
    RunCheckpointer,
    SweepCheckpoint,
    load_result,
    write_u64_file,
)

WiringClass = Tuple[Tuple[int, ...], ...]


def class_key(wiring: WiringClass) -> str:
    """Stable identifier of a canonical wiring class (sweep checkpoints)."""
    return ";".join(",".join(str(r) for r in perm) for perm in wiring)


def engine_label(engine: str, kernel: str = "auto") -> str:
    """Heartbeat/progress tag naming the engine and its effective kernel.

    The scalar engine has no kernel choice; for the batch engine the
    ``auto``/``native`` request is resolved to what will actually run on
    this host so progress lines are truthful even after a silent numpy
    fallback.
    """
    if engine != "batch":
        return f"engine={engine}"
    try:
        from repro.checker.native.loader import resolve_kernel

        effective = resolve_kernel(kernel)
    except Exception:  # pragma: no cover - defensive; label only
        effective = kernel
    return f"engine=batch kernel={effective}"


# ----------------------------------------------------------------------
# Pool plumbing
# ----------------------------------------------------------------------

def _mp_context():
    """Prefer fork (cheap, inherits the interpreter) when available."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` or cpuset pinning shrinks it), else
    the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - no affinity API


def effective_jobs(requested: int) -> int:
    """Cap a worker count at the host's usable core count, warning once.

    Oversubscription is a measured regression, not a no-op: the PR 1
    bench on a 1-CPU host recorded ``jobs=2``/``jobs=4`` sweeps *slower*
    than serial, because extra workers add fork + IPC cost without any
    added parallelism.  Both parallel entry points route through this
    cap; benchmarks record the capped value next to the requested one.
    """
    available = usable_cpus()
    if requested > available:
        warnings.warn(
            f"jobs={requested} exceeds the {available} usable core(s);"
            f" capping to {available} — oversubscribed workers are pure"
            " fork/IPC overhead (see BENCH_checker.json jobs regression)",
            RuntimeWarning,
            stacklevel=2,
        )
        return available
    return max(1, requested)


def ordered_parallel_map(func, items: Sequence, jobs: int) -> List:
    """``[func(x) for x in items]`` fanned over ``jobs`` processes.

    Results keep the input order (determinism), one item per task
    (exploration tasks are coarse and uneven).  Falls back to the
    serial comprehension when ``jobs <= 1``, for single-item inputs,
    or when worker processes cannot be created in this environment.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    ctx = _mp_context()
    try:
        pool = ctx.Pool(processes=min(jobs, len(items)))
    except OSError:  # pragma: no cover - sandboxed/fork-less hosts
        return [func(item) for item in items]
    with pool:
        return pool.map(func, items, chunksize=1)


# ----------------------------------------------------------------------
# Grain 1: one worker per canonical wiring class
# ----------------------------------------------------------------------

def _class_store(
    store: Optional[StoreConfig], index: int
) -> Optional[StoreConfig]:
    """Per-class namespace of a shared store configuration.

    Classes explore concurrently, so disk-backed classes must not share
    table/run files; an explicit directory gets a per-class
    subdirectory, and a temp-backed config stays as-is (every create()
    mints a fresh temp directory anyway).
    """
    if store is None or store.backend == "ram" or store.directory is None:
        return store
    return replace(
        store, directory=str(Path(store.directory) / f"class-{index:03d}")
    )


def _explore_class_task(
    task: Tuple[
        int, Tuple[int, ...], WiringClass, int, bool, Optional[StoreConfig],
        bool, str, str, Optional[float],
    ],
) -> Tuple[int, FastExplorationResult]:
    (index, inputs, wiring, max_states, symmetry, store, por, engine,
     kernel, heartbeat_every) = task
    heartbeat = None
    if heartbeat_every is not None:
        from repro.service.heartbeat import Heartbeat

        # Per-class heartbeats are labelled so interleaved lines from a
        # parallel sweep stay attributable (floats cross the task tuple;
        # Heartbeat itself holds an unpicklable emit callable).  The
        # label names the engine (and the batch engine's effective
        # kernel) so long campaign logs are self-describing.
        heartbeat = Heartbeat(
            heartbeat_every,
            label=f"class-{index:03d} {engine_label(engine, kernel)}",
        )
    result = FastSnapshotSpec(inputs, wiring).explore(
        max_states=max_states,
        symmetry=symmetry,
        store=_class_store(store, index),
        por=por,
        engine=engine,
        kernel=kernel,
        heartbeat=heartbeat,
    )
    return index, result


def check_snapshot_classes(
    n_processors: int,
    budget: Optional[int] = None,
    jobs: int = 1,
    symmetry: bool = False,
    store: Optional[StoreConfig] = None,
    sweep_dir: Optional[str] = None,
    sweep_meta: Optional[Dict] = None,
    por: bool = False,
    engine: str = "scalar",
    kernel: str = "auto",
    heartbeat_every: Optional[float] = None,
) -> List[Tuple[WiringClass, FastExplorationResult]]:
    """Sweep every canonical wiring class, ``jobs`` classes at a time.

    The parallel entry point behind experiment E4's N=3 sweep and
    ``python -m repro check --jobs N``: processor ``p`` gets input
    ``p + 1`` and every class has one register per processor.  Returns
    ``(wiring, result)`` pairs in canonical class order whatever the
    completion order, so reports and verdicts are byte-identical
    across ``jobs`` settings.
    ``jobs`` is capped at the host's core count (:func:`effective_jobs`);
    with ``symmetry`` each class explores orbit representatives under
    its wiring-stabilizer group and reports ``covered_states``.

    ``por`` turns on ample-set partial-order reduction inside every
    class exploration (:mod:`repro.checker.por`); verdicts are
    unchanged, per-class ``por_counters`` report the pruning.

    ``engine`` selects each class's exploration engine
    (:meth:`FastSnapshotSpec.explore`'s ``scalar``/``batch``); verdicts
    and counts are engine-independent by the batch engine's conformance
    contract.  ``kernel`` selects the batch engine's level kernel
    (``auto``/``numpy``/``native``) and is ignored by the scalar engine.

    ``store`` selects each class's visited-set backend (disk-backed
    classes are namespaced per class under the store directory).  With
    ``sweep_dir`` the sweep is checkpointed at class granularity: each
    finished class's result is recorded in ``classes.json`` as it
    lands, and a re-run over the same directory replays recorded
    classes and explores only the remainder; ``sweep_meta`` (the run's
    semantic configuration) is validated against the directory's
    ``meta.json`` so incomparable sweeps cannot be mixed.
    """
    classes = canonical_wiring_classes(n_processors, n_processors)
    inputs = tuple(range(1, n_processors + 1))
    max_states = budget if budget is not None else 10 ** 9
    sweep = (
        SweepCheckpoint(Path(sweep_dir), meta=sweep_meta)
        if sweep_dir is not None
        else None
    )
    results: List[Optional[FastExplorationResult]] = [None] * len(classes)
    pending: List[int] = []
    for index, wiring in enumerate(classes):
        recorded = sweep.get(class_key(wiring)) if sweep is not None else None
        if recorded is not None:
            results[index] = load_result(FastExplorationResult, recorded)
        else:
            pending.append(index)
    tasks = [
        (index, inputs, classes[index], max_states, symmetry, store, por,
         engine, kernel, heartbeat_every)
        for index in pending
    ]
    for index, result in _run_class_tasks(tasks, effective_jobs(jobs)):
        results[index] = result
        if sweep is not None:
            sweep.record(class_key(classes[index]), asdict(result))
    assert all(result is not None for result in results)
    return list(zip(classes, results))


def _run_class_tasks(tasks: List, jobs: int):
    """Yield ``(index, result)`` per task as soon as each completes.

    Incremental completion (``imap_unordered``) is what lets the sweep
    checkpoint record every finished class even if the process dies
    before the sweep ends; order is restored by the caller's index.
    """
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield _explore_class_task(task)
        return
    ctx = _mp_context()
    try:
        pool = ctx.Pool(processes=min(jobs, len(tasks)))
    except OSError:  # pragma: no cover - sandboxed/fork-less hosts
        for task in tasks:
            yield _explore_class_task(task)
        return
    with pool:
        yield from pool.imap_unordered(_explore_class_task, tasks, chunksize=1)


# ----------------------------------------------------------------------
# Grain 2: frontier-sharded BFS within one wiring class
# ----------------------------------------------------------------------

class ShardEngine:
    """One frontier shard's exploration state, transport-agnostic.

    Owns states with ``fp(state) % n_shards == shard``.  This class is
    the *engine* half of a shard worker: it holds the shard's visited
    set and ample selector, uses its class ``setup``'s canonicalizer and
    batch kernel, and processes one BFS round at a time.  The
    *transport* half — how rounds arrive and layer replies leave — is
    supplied by the caller: the pipe-based
    :func:`_shard_worker` (multiprocessing, same host) and the
    socket-based service worker (:mod:`repro.service.worker`, any host)
    both drive the same engine, so the two transports cannot diverge
    semantically.

    :meth:`process_round` admits a round's new entries into the visited
    set, expands that BFS layer, and returns ``(admitted, transitions,
    violation, outboxes, covered, skipped, por_counters)`` where
    ``outboxes`` maps each shard id to the successor entries it owns
    and ``por_counters`` is the shard's *cumulative* reduction
    statistics (``None`` without ``por``).  For checkpointing,
    :meth:`dump_to` streams the visited keys to a u64 file and
    :meth:`load_from` bulk-loads a previous dump; :meth:`visited_keys`
    / :meth:`load_keys` do the same through memory for transports that
    move dumps over the wire instead of a shared filesystem.

    The visited set lives in the configured :mod:`repro.store` backend,
    namespaced per shard (``shard-NNN/`` by default;
    ``store_namespace`` overrides it so a service worker re-assigned a
    shard at a new epoch never collides with stale on-disk files).

    Wire format: every boundary state travels as ``(state << 1) |
    canonical_bit``.  The bit asserts the sender already put the state
    in canonical form, letting the receiver skip re-canonicalizing it
    — ``skipped`` counts those skips (0 outside symmetry runs).  States
    without the bit are canonicalized on receipt, so the protocol stays
    correct for any mix.

    Under a ``symmetry`` setup every successor is canonicalized *before*
    the ownership fingerprint, so each orbit has exactly one owning shard
    and the union of shard visited-sets is the quotient graph; the
    driver canonicalizes the initial state with the same group.
    ``covered`` then sums the orbit sizes of this layer's admissions
    (``None`` otherwise).

    With ``por`` the shard expands each admitted state through a
    :class:`~repro.checker.por.FastAmpleSelector`.  The cycle proviso
    (C3) only trusts *locally decidable* novelty: a successor counts as
    certainly-new exactly when this shard owns it (canonical-form
    fingerprint mod ``n_shards``) and it is absent from this shard's
    visited set; foreign-owned successors are pessimistically treated
    as possibly-visited, which can only force extra full expansions,
    never unsound pruning.

    Under an ``engine="batch"`` setup the shard processes each round as
    numpy u64 arrays end to end — admission dedup, safety mask, successor
    expansion, canonicalization, ownership fingerprints, and the
    outboxes themselves all stay vectorized, and boundary batches cross
    the transport as arrays.  Admission order, violation choice, and
    every reported count match the scalar engine exactly (a driver
    never mixes engines within a run).  With ``por`` on top, the shard
    runs the level-synchronous
    :class:`~repro.checker.batch.BatchAmpleSelector` over each round's
    admissions: per-round ample-selection masks drive the masked
    ``expand_level``, so shards never re-expand pruned transitions, and
    C3 composes the sharded ownership pessimism above with the
    level-synchronous ``visited ∪ earlier-in-round`` certification —
    batch+POR shard results are verdict-conformant with (not
    count-identical to) scalar+POR ones, exactly as in the serial
    engines.
    """

    def __init__(
        self,
        setup: ClassSetup,
        shard: int,
        n_shards: int,
        store_config: Optional[StoreConfig] = None,
        por: bool = False,
        store_namespace: Optional[str] = None,
    ) -> None:
        self.shard = shard
        self.n_shards = n_shards
        self.symmetry = setup.symmetry
        self.spec = setup.spec
        self.canonicalizer = setup.canonicalizer
        self.kernel = setup.kernel
        self.batch_canon = setup.batch_canon
        self.seen = (store_config or StoreConfig()).create(
            shard=store_namespace or f"shard-{shard:03d}"
        )
        self.selector = None
        self.batch_selector = None
        if por and self.kernel is not None:
            from repro.checker.batch import BatchAmpleSelector

            self.batch_selector = BatchAmpleSelector(self.kernel)
        elif por:
            from repro.checker.por import FastAmpleSelector

            self.selector = FastAmpleSelector(self.spec)
        self._buf: List[int] = []

    # -- POR helpers ---------------------------------------------------

    def _batch_key_of(self, states):
        if self.batch_canon is None:
            return states
        return self.batch_canon.canonical_many(states)

    def _batch_in_visited(self, keys):
        # Sharded C3, vectorized: certainly new means locally owned
        # AND absent from this shard's visited set, so "possibly
        # visited" is foreign-owned OR present.
        import numpy as np

        owners = self.kernel.fingerprint_many(keys) % np.uint64(self.n_shards)
        return (owners != np.uint64(self.shard)) | self.seen.contains_many(keys)

    def _is_new(self, successor: int) -> bool:
        # Sharded C3: only a locally-owned, locally-unvisited successor
        # is certainly new; anything owned elsewhere might already sit
        # in a foreign shard's visited set.
        if self.canonicalizer is not None:
            successor = self.canonicalizer.canonical(successor)
        if fingerprint_int(successor) % self.n_shards != self.shard:
            return False
        return successor not in self.seen

    # -- checkpoint plumbing -------------------------------------------

    def dump_to(self, path: Path) -> int:
        """Write the shard's visited keys to ``path`` as a u64 array, in
        ascending order for the ram and spill stores."""
        return write_u64_file(Path(path), self.seen.key_arrays())

    def load_from(self, path: Path) -> int:
        """Bulk-load a previous :meth:`dump_to` file (resume)."""
        from repro.store.checkpoint import read_u64_file

        return self.seen.load(read_u64_file(Path(path)))

    def visited_keys(self) -> List[int]:
        """The visited keys as a list (wire-transported checkpoints)."""
        return list(self.seen)

    def load_keys(self, keys: Sequence[int]) -> int:
        """Bulk-load visited keys received over a transport."""
        return self.seen.load(keys)

    def close(self) -> None:
        self.seen.close()

    # -- one BFS round -------------------------------------------------

    def process_round(self, batch):
        """Admit + expand one round; see the class docstring for fields."""
        if self.kernel is not None:
            return self._process_round_batch(batch)
        return self._process_round_scalar(batch)

    def _process_round_batch(self, batch):
        import numpy as np

        from repro.checker.batch import _first_violation

        kernel = self.kernel
        batch_canon = self.batch_canon
        assert kernel is not None
        entries = np.asarray(batch, dtype=np.uint64)
        states = entries >> np.uint64(1)
        skipped = 0
        if self.canonicalizer is not None:
            certified = (entries & np.uint64(1)) == 1
            skipped = int(certified.sum())
            if batch_canon is not None and not bool(certified.all()):
                states = states.copy()
                states[~certified] = batch_canon.canonical_many(
                    states[~certified]
                )
        unique_keys, first_occ = kernel.unique_first(states)
        present = self.seen.contains_many(unique_keys)
        admitted_arr = states[np.sort(first_occ[~present])]
        self.seen.add_many(admitted_arr)
        n_admitted = int(admitted_arr.size)
        covered = None
        if self.symmetry:
            covered = (
                int(batch_canon.orbit_sizes(admitted_arr).sum())
                if batch_canon is not None
                else n_admitted
            )
        violation = None
        if n_admitted:
            _, violation = _first_violation(
                self.spec, kernel, admitted_arr
            )
        transitions = 0
        outboxes = {}
        if violation is None and n_admitted:
            if self.batch_selector is not None:
                ample = self.batch_selector.select(
                    admitted_arr, self._batch_key_of, self._batch_in_visited
                )
                successors, _counts = kernel.expand_level(admitted_arr, ample)
            else:
                successors, _counts = kernel.expand_level(admitted_arr)
            transitions = int(successors.size)
            if batch_canon is not None:
                successors = batch_canon.canonical_many(successors)
            canonical_bit = (
                np.uint64(1) if batch_canon is not None else np.uint64(0)
            )
            owners = kernel.fingerprint_many(successors) % np.uint64(
                self.n_shards
            )
            wire = (successors << np.uint64(1)) | canonical_bit
            for owner in range(self.n_shards):
                part = wire[owners == np.uint64(owner)]
                if part.size:
                    outboxes[owner] = part
        return (
            n_admitted, transitions, violation, outboxes, covered, skipped,
            self.batch_selector.counters.as_dict()
            if self.batch_selector is not None
            else None,
        )

    def _process_round_scalar(self, batch):
        spec = self.spec
        canonicalizer = self.canonicalizer
        seen_add = self.seen.add
        buf = self._buf
        admitted: List[int] = []
        covered = 0 if self.symmetry else None
        violation = None
        skipped = 0
        for entry in batch:
            state = entry >> 1
            if canonicalizer is not None:
                if entry & 1:
                    skipped += 1  # sender certified canonical form
                else:
                    state = canonicalizer.canonical(state)
            if not seen_add(state):
                continue
            admitted.append(state)
            if self.symmetry:
                covered += (
                    canonicalizer.orbit_size(state)
                    if canonicalizer is not None
                    else 1
                )
            if violation is None:
                violation = spec.check_outputs(state)
        transitions = 0
        outboxes: Dict[int, List[int]] = {}
        if violation is None:
            canonical = (
                canonicalizer.canonical if canonicalizer is not None else None
            )
            canonical_bit = 1 if canonical is not None else 0
            for state in admitted:
                if self.selector is None:
                    spec.successor_states_into(state, buf)
                else:
                    self.selector.expand(state, buf, self._is_new)
                transitions += len(buf)
                for successor in buf:
                    if canonical is not None:
                        successor = canonical(successor)
                    owner = fingerprint_int(successor) % self.n_shards
                    outboxes.setdefault(owner, []).append(
                        (successor << 1) | canonical_bit
                    )
        return (
            len(admitted), transitions, violation, outboxes, covered, skipped,
            self.selector.counters.as_dict()
            if self.selector is not None
            else None,
        )


def _shard_worker(
    conn,
    setup: ClassSetup,
    shard: int,
    n_shards: int,
    store_config: Optional[StoreConfig] = None,
    por: bool = False,
) -> None:
    """Pipe transport around one :class:`ShardEngine`.

    Protocol: driver sends ``("round", entries)``; the engine processes
    the layer and the worker replies ``("layer", admitted, transitions,
    violation, outboxes, covered, skipped, por_counters)``.
    ``("stop",)`` terminates.  For checkpointing, ``("dump", path)``
    streams the shard's visited keys to ``path`` as a u64 array and
    replies ``("dumped", count)``; ``("load", path)`` bulk-loads a
    previous dump (resume) and replies ``("loaded", count)``.  All
    exploration semantics live in :class:`ShardEngine`.
    """
    shard_engine = None
    try:
        shard_engine = ShardEngine(
            setup, shard, n_shards, store_config=store_config, por=por
        )
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] == "dump":
                conn.send(("dumped", shard_engine.dump_to(Path(message[1]))))
                continue
            if message[0] == "load":
                conn.send(("loaded", shard_engine.load_from(Path(message[1]))))
                continue
            conn.send(("layer",) + shard_engine.process_round(message[1]))
    except EOFError:  # driver went away mid-run
        pass
    except Exception as exc:  # surface worker crashes to the driver
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, BrokenPipeError):
            pass
    finally:
        if shard_engine is not None:
            shard_engine.close()
        conn.close()


def explore_sharded(
    inputs: Sequence[int],
    wiring: WiringClass,
    jobs: int = 2,
    max_states: int = 200_000_000,
    symmetry: bool = False,
    store: Optional[StoreConfig] = None,
    checkpointer: Optional[RunCheckpointer] = None,
    _after_checkpoint: Optional[Callable[[], None]] = None,
    por: bool = False,
    engine: str = "scalar",
    kernel: str = "auto",
    heartbeat=None,
) -> FastExplorationResult:
    """Frontier-sharded BFS over one wiring class across ``jobs`` cores.

    Level-synchronous: each round every worker expands exactly one BFS
    layer of its shard and exchanges boundary states through the
    driver.  The driver merges per-shard statistics in shard order and
    applies the state budget at layer boundaries, so the result is
    deterministic for a fixed ``jobs`` — and equal to the serial
    engine's on any exhaustive (non-truncated) run.  ``jobs`` is capped
    at the host's core count (:func:`effective_jobs`).

    With ``symmetry`` the shards jointly explore the quotient graph:
    workers canonicalize successors before the ownership fingerprint
    (so orbits have unique owners) and the merged result carries
    ``covered_states``.  Boundary states cross the wire as ``(state <<
    1) | canonical_bit``; the bit certifies the sender's
    canonicalization, so receivers skip the (previously duplicated)
    re-canonicalization of every boundary state — the merged result
    reports the skips as ``recanonicalizations_skipped``.

    Wait-freedom (lasso) analysis needs the full cross-shard edge list
    and is deliberately not offered here; run the serial engine with
    ``check_wait_freedom=True`` for that (N=2 certification does).

    ``store`` selects each shard's visited-set backend (namespaced
    ``shard-NNN/`` under the store directory).  Shard ownership is
    ``fingerprint_int(state) % jobs``, deterministic across processes
    and hosts.  ``checkpointer``
    persists the run at BFS-layer boundaries (per-shard visited dumps +
    the pending boundary frontier); a killed run resumes from the last
    committed checkpoint with an identical final result.
    ``_after_checkpoint`` is a test seam invoked after every committed
    checkpoint.

    ``por`` enables ample-set partial-order reduction inside every
    shard (the sharded cycle proviso trusts only locally-owned novelty
    — see :func:`_shard_worker`); the merged result sums per-shard
    ``por_counters`` and checkpoints persist the running totals, so
    resumed runs report statistics over the whole exploration.

    ``engine="batch"`` runs every shard worker on the vectorized batch
    kernel and exchanges boundary batches as numpy u64 arrays (results
    identical to scalar workers).  It requires numpy and rejects,
    because wire entries are ``(state << 1) | canonical_bit`` in a u64
    word, state encodings above 63 bits.  With ``por`` the workers run
    the level-synchronous
    :class:`~repro.checker.batch.BatchAmpleSelector` per round
    (verdict-conformant with, not count-identical to, scalar+POR
    workers — see :mod:`repro.checker.por`); ``por`` totals round-trip
    through checkpoints identically for both engines.  ``kernel``
    selects the batch workers' level kernel
    (``auto``/``numpy``/``native``, :func:`repro.checker.batch.make_kernel`).
    The driver builds the class's :class:`ClassSetup` once and hands
    it to every worker.
    """
    spec = FastSnapshotSpec(inputs, wiring)
    jobs = effective_jobs(jobs)
    if engine not in ("scalar", "batch"):
        raise ValueError(
            f"unknown engine {engine!r}; choose 'scalar' or 'batch'"
        )
    if engine == "batch" and spec.state_bits > 63:
        raise ValueError(
            f"sharded batch wire entries are (state << 1) |"
            f" canonical_bit in a u64 word; this configuration packs"
            f" states into {spec.state_bits} bits"
        )
    if jobs <= 1:
        return spec.explore(
            max_states=max_states,
            symmetry=symmetry,
            store=store,
            checkpointer=checkpointer,
            por=por,
            engine=engine,
            kernel=kernel,
            heartbeat=heartbeat,
        )
    if checkpointer is not None:
        recorded = checkpointer.completed_result()
        if recorded is not None:
            return load_result(FastExplorationResult, recorded)
        if spec.state_bits > 63:
            raise ValueError(
                f"sharded checkpoint frontier entries are (state << 1) |"
                f" canonical_bit in a u64 word; this configuration packs"
                f" states into {spec.state_bits} bits"
            )

    setup = ClassSetup(spec, symmetry, engine, kernel)
    use_batch_workers = engine == "batch"
    if use_batch_workers:
        import numpy as np

    def _died(shard: int) -> RuntimeError:
        hint = (
            " — resume from the checkpoint directory (repro check --resume)"
            if checkpointer is not None
            else ""
        )
        return RuntimeError(
            f"shard {shard} worker died mid-run (pipe closed){hint}"
        )

    def _recv(shard: int):
        try:
            return connections[shard].recv()
        except (EOFError, OSError):
            # A SIGKILLed worker surfaces as EOF or ECONNRESET depending
            # on where the pipe read was when the process died.
            raise _died(shard) from None

    def _send(shard: int, message) -> None:
        try:
            connections[shard].send(message)
        except (OSError, BrokenPipeError):
            raise _died(shard) from None

    def _finish(result: FastExplorationResult) -> FastExplorationResult:
        if checkpointer is not None:
            checkpointer.mark_complete(asdict(result))
        return result

    ctx = _mp_context()
    connections = []
    workers = []
    try:
        try:
            for shard in range(jobs):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, setup, shard, jobs, store, por),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                connections.append(parent_conn)
                workers.append(process)
        except OSError:  # pragma: no cover - process-less environments
            return spec.explore(
                max_states=max_states,
                symmetry=symmetry,
                store=store,
                checkpointer=checkpointer,
                por=por,
                engine=engine,
                kernel=kernel,
            )

        states = 0
        transitions = 0
        complete = True
        covered: Optional[int] = 0 if symmetry else None
        group_order = setup.group_order
        recanon_skipped: Optional[int] = 0 if symmetry else None
        violation: Optional[str] = None
        # POR totals = checkpointed base + each worker's cumulative
        # snapshot (workers report running totals every layer, so the
        # latest snapshot per shard is the whole post-resume story).
        por_keys = (
            "transitions_pruned", "ample_states", "fully_expanded_states",
            "cycle_proviso_expansions",
        )
        por_base: Dict[str, int] = {}
        shard_por: List[Optional[Dict[str, int]]] = [None] * jobs

        def _por_totals() -> Optional[Dict[str, int]]:
            if not por:
                return None
            totals = {key: por_base.get(key, 0) for key in por_keys}
            for snapshot in shard_por:
                if snapshot:
                    for key, value in snapshot.items():
                        totals[key] = totals.get(key, 0) + value
            return totals

        resumed = checkpointer.latest() if checkpointer is not None else None
        if resumed is not None:
            states = resumed.counter("admitted")
            transitions = resumed.counter("transitions")
            if covered is not None:
                covered = resumed.counter("covered")
            if recanon_skipped is not None:
                recanon_skipped = resumed.counter("skipped")
            if por:
                por_base = {
                    key: int(resumed.counters.get(key, 0)) for key in por_keys
                }
            inboxes: Dict[int, List[int]] = {}
            for entry in resumed.frontier():
                owner = fingerprint_int(entry >> 1) % jobs
                inboxes.setdefault(owner, []).append(entry)
            for shard in range(jobs):
                path = resumed.directory / f"visited-{shard:03d}.u64"
                _send(shard, ("load", str(path)))
            for shard in range(jobs):
                reply = _recv(shard)
                if reply[0] != "loaded":
                    raise RuntimeError(
                        f"shard {shard} failed to load its visited dump:"
                        f" {reply!r}"
                    )
        else:
            initial = spec.initial_state()
            canonical_bit = 0
            if setup.canonicalizer is not None:
                initial = setup.canonicalizer.canonical(initial)
                canonical_bit = 1
            inboxes = {
                fingerprint_int(initial) % jobs: [
                    (initial << 1) | canonical_bit
                ]
            }

        while inboxes:
            if heartbeat is not None:
                heartbeat.tick(
                    states,
                    sum(len(batch) for batch in inboxes.values()),
                    transitions,
                )
            for shard in range(jobs):
                _send(shard, ("round", inboxes.get(shard, [])))
            outboxes: Dict[int, List[int]] = {}
            for shard in range(jobs):
                reply = _recv(shard)
                if reply[0] == "error":
                    raise RuntimeError(f"shard {shard} failed: {reply[1]}")
                (_, admitted, shard_transitions, shard_violation, out,
                 shard_covered, shard_skipped, shard_por_counters) = reply
                if shard_por_counters is not None:
                    shard_por[shard] = shard_por_counters
                states += admitted
                transitions += shard_transitions
                if shard_covered is not None and covered is not None:
                    covered += shard_covered
                if recanon_skipped is not None:
                    recanon_skipped += shard_skipped
                if shard_violation is not None and violation is None:
                    violation = shard_violation
                if use_batch_workers:
                    # Batch workers ship whole numpy arrays per owner; keep
                    # them as array parts and concatenate once per round so
                    # the boundary states never degrade to Python ints.
                    for owner, boundary in out.items():
                        outboxes.setdefault(owner, []).append(boundary)
                else:
                    for owner, boundary in out.items():
                        outboxes.setdefault(owner, []).extend(boundary)
            if violation is not None:
                return _finish(FastExplorationResult(
                    states=states,
                    transitions=transitions,
                    complete=True,
                    violation=violation,
                    covered_states=covered,
                    symmetry_group_order=group_order,
                    recanonicalizations_skipped=recanon_skipped,
                    por_counters=_por_totals(),
                ))
            if use_batch_workers:
                inboxes = {}
                for owner, parts in outboxes.items():
                    merged = parts[0] if len(parts) == 1 else np.concatenate(parts)
                    if merged.size:
                        inboxes[owner] = merged
            else:
                inboxes = {
                    owner: batch for owner, batch in outboxes.items() if batch
                }
            if states >= max_states and inboxes:
                complete = False
                truncated = sum(len(batch) for batch in inboxes.values())
                return _finish(FastExplorationResult(
                    states=states,
                    transitions=transitions,
                    complete=False,
                    truncated_transitions=truncated,
                    covered_states=covered,
                    symmetry_group_order=group_order,
                    recanonicalizations_skipped=recanon_skipped,
                    por_counters=_por_totals(),
                ))
            if (
                checkpointer is not None
                and inboxes
                and checkpointer.due(states)
            ):
                staging = checkpointer.begin()
                for shard in range(jobs):
                    path = staging / f"visited-{shard:03d}.u64"
                    _send(shard, ("dump", str(path)))
                for shard in range(jobs):
                    reply = _recv(shard)
                    if reply[0] != "dumped":
                        raise RuntimeError(
                            f"shard {shard} failed to dump its visited set:"
                            f" {reply!r}"
                        )
                # One u64 array per owner, never a walk over entries.
                write_u64_file(
                    staging / "frontier.u64",
                    [
                        inboxes[owner] if use_batch_workers
                        else array("Q", inboxes[owner])
                        for owner in sorted(inboxes)
                    ],
                )
                counters = {
                    "admitted": states,
                    "transitions": transitions,
                    "covered": covered if covered is not None else 0,
                    "skipped": (
                        recanon_skipped if recanon_skipped is not None else 0
                    ),
                }
                por_totals = _por_totals()
                if por_totals is not None:
                    counters.update(por_totals)
                checkpointer.commit(staging, counters)
                if _after_checkpoint is not None:
                    _after_checkpoint()

        return _finish(FastExplorationResult(
            states=states, transitions=transitions, complete=complete,
            covered_states=covered, symmetry_group_order=group_order,
            recanonicalizations_skipped=recanon_skipped,
            por_counters=_por_totals(),
        ))
    finally:
        for conn in connections:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
            conn.close()
        for process in workers:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
