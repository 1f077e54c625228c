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
workers — even spawn-started ones — agree on ownership).  ``jobs``
shards run in ``jobs`` processes: the driver expands shard 0 itself
and a :class:`ShardWorkers` set forks one worker per other shard.  A
sweep opens one set and keeps it for every class; each class reaches
the workers as a message.  Each shard holds its own visited set only
and expands one BFS layer per round; workers hand successors owned by
other shards back to the driver, which routes them.  The driver's
decisions live in :class:`ShardedRun`, which the service coordinator
(:mod:`repro.service.coordinator`) shares, so the pipes and the
sockets are two transports of one driver.  Per-shard statistics are
merged in shard order, so two runs with the same ``jobs`` produce
identical results.

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

import importlib
import multiprocessing
import os
import shutil
import tempfile
import warnings
from array import array
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.checker.fast_snapshot import (
    ClassSetup,
    FastExplorationResult,
    FastSnapshotSpec,
    canonical_wiring_classes,
)
from repro.checker.fingerprint import fingerprint_int
from repro.store.base import StoreConfig, u64_array
from repro.store.checkpoint import (
    Checkpoint,
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


def _import_worker_modules(
    store: Optional[StoreConfig], por: bool, engine: str, heartbeat: bool
) -> None:
    """Import, before forking, the modules the workers will run.

    A forked worker shares every module its driver had imported; one it
    imports itself is loaded again in each worker, and compiled from
    source where no bytecode is cached.
    """
    modules = []
    if store is not None and store.backend != "ram":
        modules.append(
            "repro.store.spill" if store.backend == "spill"
            else "repro.store.mmap_table"
        )
    if por:
        modules.append("repro.checker.por")
    if engine == "batch":
        modules += ["repro.checker.batch", "repro.checker.native.loader"]
    if heartbeat:
        modules.append("repro.service.heartbeat")
    for name in modules:
        importlib.import_module(name)


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

def class_store_config(
    store: Optional[StoreConfig], index: int
) -> Optional[StoreConfig]:
    """Per-class namespace of a sweep's store configuration.

    Disk-backed classes must not share table/run files (the class pool
    explores them concurrently, and a sharded sweep keeps each class's
    files for its resume); an explicit directory gets a per-class
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
        store=class_store_config(store, index),
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
    jobs = effective_jobs(jobs)
    if jobs > 1 and len(tasks) > 1:
        _import_worker_modules(store, por, engine, heartbeat_every is not None)
    for index, result in _run_class_tasks(tasks, jobs):
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
    the *engine* half of a shard: it holds the shard's visited set and
    ample selector, uses its class ``setup``'s canonicalizer and batch
    kernel, and processes one BFS round at a time.  The caller decides
    how rounds arrive and layer replies leave: :func:`explore_sharded`
    calls shard 0's engine directly in the driver, the pipe-based
    :func:`_shard_worker` (multiprocessing, same host) builds one per
    class for every other shard, and the socket-based service worker
    (:mod:`repro.service.worker`, any host) drives the same engine, so
    no caller can diverge semantically.

    :meth:`process_round` admits a round's new entries into the visited
    set, expands that BFS layer, and returns ``(admitted, transitions,
    violation, outboxes, covered, skipped, por_counters)`` where
    ``outboxes`` maps each shard id to the successor entries it owns
    and ``por_counters`` is the shard's *cumulative* reduction
    statistics (``None`` without ``por``).  For checkpointing,
    :meth:`dump_to` streams the visited keys to a u64 file and
    :meth:`load_from` bulk-loads a previous dump; a transport that
    moves dumps over the wire instead of a shared filesystem sends
    ``seen.key_arrays()`` and loads what it receives with
    ``seen.load``.

    The visited set, ``seen``, is per engine.  A scalar shard keeps it
    in the configured :mod:`repro.store` backend.  A batch shard keeps
    it in its kernel's own set, a
    :class:`~repro.checker.batch.TieredVisited` that flushes into a
    ``spill`` or ``mmap`` store what overflows half of its ``mem_cap``;
    without a store, or with ``ram``, no store object exists.  Stores
    are namespaced per shard (``shard-NNN/`` by default;
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
    never unsound pruning.  A batch shard's selector takes the
    ownership as ``(n_shards, shard)`` and drops foreign-owned keys
    from each C3 candidate pool, so it asks its visited set about its
    own keys only.

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
        namespace = store_namespace or f"shard-{shard:03d}"
        if self.kernel is not None:
            from repro.checker.batch import TieredVisited

            self.seen = TieredVisited(
                self.kernel, store_config, shard=namespace
            )
        else:
            self.seen = (store_config or StoreConfig()).create(
                shard=namespace
            )
        self.selector = None
        self.batch_selector = None
        if por and self.kernel is not None:
            from repro.checker.batch import BatchAmpleSelector

            self.batch_selector = BatchAmpleSelector(
                self.kernel, self.batch_canon, (n_shards, shard)
            )
        elif por:
            from repro.checker.por import FastAmpleSelector

            self.selector = FastAmpleSelector(self.spec)
        self._buf: List[int] = []

    # -- POR helpers ---------------------------------------------------

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
        ascending order for batch shards and the ram and spill stores."""
        return write_u64_file(Path(path), self.seen.key_arrays())

    def load_from(self, path: Path) -> int:
        """Bulk-load a previous :meth:`dump_to` file (resume)."""
        from repro.store.checkpoint import read_u64_file

        return self.seen.load(read_u64_file(Path(path)))

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
        positions, _ = self.seen.admit(states, int(states.size))
        admitted_arr = states[positions]
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
                    admitted_arr, self.seen.contains
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
    conn, shard: int, n_shards: int, store_tmp: Optional[str] = None
) -> None:
    """Pipe transport around shard ``shard``'s :class:`ShardEngine`,
    one wiring class after another.  ``store_tmp`` is the directory its
    temporary stores are made in.

    Protocol: ``("class", params, store_config, por)`` builds the
    engine for one class from its :class:`ClassSetup` construction
    parameters (:meth:`ClassSetup.prepare`), and ``("end",)`` closes
    it, deleting a temporary store directory before the next class
    arrives.  In between, driver sends ``("round", entries)``; the
    engine processes the layer and the worker replies ``("layer",
    admitted, transitions, violation, outboxes, covered, skipped,
    por_counters)``.  ``("stop",)`` terminates.  For checkpointing,
    ``("dump", path)`` streams the shard's visited keys to ``path`` as a
    u64 array and replies ``("dumped", count)``; ``("load", path)``
    bulk-loads a previous dump (resume) and replies ``("loaded",
    count)``.  All exploration semantics live in :class:`ShardEngine`.
    """
    shard_engine = None
    if store_tmp is not None:
        tempfile.tempdir = store_tmp
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] == "class":
                params, store_config, por = message[1:]
                shard_engine = ShardEngine(
                    ClassSetup(*params), shard, n_shards,
                    store_config=store_config, por=por,
                )
            elif message[0] == "end":
                ended, shard_engine = shard_engine, None
                ended.close()
            elif message[0] == "dump":
                conn.send(("dumped", shard_engine.dump_to(Path(message[1]))))
            elif message[0] == "load":
                conn.send(("loaded", shard_engine.load_from(Path(message[1]))))
            else:
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


class ShardWorkers:
    """The forked workers of one sharded sweep, shards 1 … ``jobs``−1.

    They start with the first class :func:`explore_sharded` hands them,
    so a sweep whose classes are all complete starts none, and they
    serve every class after it: each class is a ``("class", …)``
    message on the worker's pipe and ends with ``("end",)`` (see
    :func:`_shard_worker`).  :meth:`close`, or leaving a ``with`` block,
    stops and joins them.  A host that cannot start them marks the set
    ``forkless``, and every class then runs serially.

    For a disk-backed store without a directory, the workers make their
    temporary stores under one directory of the set's, which
    :meth:`close` removes, so a store whose worker was killed before it
    could close it goes too.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.forkless = False
        self.connections: Dict[int, Any] = {}  # shard -> its pipe end
        self._processes: List[Any] = []
        self._store_tmp: Optional[str] = None

    def __enter__(self) -> "ShardWorkers":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def start(
        self, store: Optional[StoreConfig], por: bool, engine: str
    ) -> bool:
        """Fork the workers unless they run already; False when this
        host cannot start them."""
        if self.forkless:
            return False
        if self.connections:
            return True
        _import_worker_modules(store, por, engine, heartbeat=False)
        ctx = _mp_context()
        if store is not None and store.backend != "ram" and store.directory is None:
            self._store_tmp = tempfile.mkdtemp(prefix="repro-shards-")
        try:
            for shard in range(1, self.jobs):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, shard, self.jobs, self._store_tmp),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.connections[shard] = parent_conn
                self._processes.append(process)
        except OSError:  # fork-less or process-capped hosts
            self.close()
            self.forkless = True
            return False
        return True

    def close(self) -> None:
        """Stop and join every worker; a later :meth:`start` forks anew."""
        for conn in self.connections.values():
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
            conn.close()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        self.connections = {}
        self._processes = []
        if self._store_tmp is not None:
            shutil.rmtree(self._store_tmp, ignore_errors=True)
            self._store_tmp = None


def _concat(parts: List[Any]) -> Any:
    """One owner's inbox from its parts, in their form: lists and
    ``array('Q')`` parts are extended, numpy parts concatenated once."""
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], (list, array)):
        merged = parts[0][:0]  # an empty list or array('Q')
        for part in parts:
            merged.extend(part)
        return merged
    import numpy as np

    return np.concatenate(parts)


class ShardedRun:
    """The driver half of one sharded class run, for either transport.

    :func:`explore_sharded` (pipes) and the service coordinator
    (sockets) both run a class through one of these; the transport only
    carries ``inboxes`` to the shards' :class:`ShardEngine` objects and
    their replies back.  :meth:`begin` routes the first round: the
    initial state (canonicalized field by field under a non-trivial
    ``canonicalizer``, and sent with the canonical bit), or the frontier
    and counters of ``checkpointer``'s latest checkpoint, kept as
    ``resumed`` for the transport to load each shard's
    :meth:`visited_path` from.  :meth:`merge` folds one round's
    :meth:`ShardEngine.process_round` replies in shard order, so the
    split of the shards between processes never changes a result.  The
    run ends, with ``result`` set and recorded as the checkpointer's
    completed result, on the first round with a violation (the lowest
    shard's; the counts cover the whole round), on the first round whose
    admissions reach ``max_states`` with work left
    (``truncated_transitions`` is the routed frontier), or when the
    frontier empties.  Between rounds, :meth:`open_checkpoint` opens a
    staging directory when a checkpoint is due; the transport dumps each
    shard's visited set to its :meth:`visited_path` there, and
    :meth:`commit` writes the frontier and counters and seals it.

    ``group_order`` is None without symmetry, as in :class:`ClassSetup`.
    Inbox parts keep their transport's form: numpy u64 arrays in batch
    runs (a resumed frontier is routed by one ``kernel.fingerprint_many``
    pass), lists in scalar pipe rounds (whose states may be wider than
    63 bits when nothing is checkpointed), and ``array('Q')`` in the
    service and in any other resumed run.
    """

    def __init__(
        self,
        spec: FastSnapshotSpec,
        n_shards: int,
        max_states: int,
        canonicalizer: Any = None,
        group_order: Optional[int] = None,
        por: bool = False,
        checkpointer: Optional[RunCheckpointer] = None,
        kernel: Any = None,
    ) -> None:
        self.spec = spec
        self.n_shards = n_shards
        self.max_states = max_states
        if canonicalizer is not None and canonicalizer.trivial:
            canonicalizer = None
        self.canonicalizer = canonicalizer
        self.group_order = group_order
        self.checkpointer = checkpointer
        self.kernel = kernel
        symmetry = group_order is not None
        self.states = 0
        self.transitions = 0
        self.covered: Optional[int] = 0 if symmetry else None
        self.skipped: Optional[int] = 0 if symmetry else None
        self.violation: Optional[str] = None
        self._por_fields: Optional[Tuple[str, ...]] = None
        if por:
            from repro.checker.por import PORCounters

            self._por_fields = PORCounters.__slots__
        self._por_base: Dict[str, int] = {}
        self._shard_por: List[Optional[Dict[str, int]]] = [None] * n_shards
        self.inboxes: Dict[int, Any] = {}
        self.resumed: Optional[Checkpoint] = None
        self.result: Optional[FastExplorationResult] = None

    @staticmethod
    def visited_path(directory: Path, shard: int) -> Path:
        """Shard ``shard``'s visited dump in a checkpoint ``directory``."""
        return Path(directory) / f"visited-{shard:03d}.u64"

    def frontier_size(self) -> int:
        return sum(len(batch) for batch in self.inboxes.values())

    def begin(self) -> None:
        """Route the first round: a fresh run's initial state, or the
        latest checkpoint's frontier and counters."""
        if self.checkpointer is not None:
            self.resumed = self.checkpointer.latest()
        resumed = self.resumed
        if resumed is None:
            initial = self.spec.initial_state()
            canonical_bit = 0
            if self.canonicalizer is not None:
                # Field by field: the fused tables are the shards'.
                initial = self.canonicalizer.canonical_per_field(initial)
                canonical_bit = 1
            self.inboxes = {
                fingerprint_int(initial) % self.n_shards: [
                    (initial << 1) | canonical_bit
                ]
            }
            return
        self.states = resumed.counter("admitted")
        self.transitions = resumed.counter("transitions")
        if self.covered is not None:
            self.covered = resumed.counter("covered")
        if self.skipped is not None:
            self.skipped = resumed.counter("skipped")
        self._por_base = {
            key: int(resumed.counters.get(key, 0))
            for key in self._por_fields or ()
        }
        self.inboxes = self._route(resumed.frontier())

    def _route(self, entries: "array[int]") -> Dict[int, Any]:
        """Wire entries by owning shard."""
        inboxes: Dict[int, Any] = {}
        if self.kernel is not None:
            import numpy as np

            # Routed as arrays, as rounds route them.
            values = u64_array(entries)
            owners = self.kernel.fingerprint_many(
                values >> np.uint64(1)
            ) % np.uint64(self.n_shards)
            for owner in range(self.n_shards):
                part = values[owners == np.uint64(owner)]
                if part.size:
                    inboxes[owner] = part
            return inboxes
        for entry in entries:
            owner = fingerprint_int(entry >> 1) % self.n_shards
            inboxes.setdefault(owner, array("Q")).append(entry)
        return inboxes

    def merge(self, layers: Sequence[Tuple]) -> None:
        """Fold one round's replies, in shard order, into the counters
        and the next ``inboxes``, or end the run."""
        parts: Dict[int, List[Any]] = {}
        for shard, layer in enumerate(layers):
            (admitted, transitions, violation, outboxes, covered, skipped,
             por_counters) = layer
            self.states += admitted
            self.transitions += transitions
            if covered is not None and self.covered is not None:
                self.covered += covered
            if self.skipped is not None:
                self.skipped += skipped
            if por_counters is not None:
                self._shard_por[shard] = por_counters
            if violation is not None and self.violation is None:
                self.violation = violation
            for owner, boundary in outboxes.items():
                parts.setdefault(owner, []).append(boundary)
        if self.violation is not None:
            self._end(complete=True)
            return
        self.inboxes = {}
        for owner, owned in parts.items():
            merged = _concat(owned)
            if len(merged):
                self.inboxes[owner] = merged
        if not self.inboxes:
            self._end(complete=True)
        elif self.states >= self.max_states:
            self._end(complete=False, truncated=self.frontier_size())

    def _por_totals(self) -> Optional[Dict[str, int]]:
        if self._por_fields is None:
            return None
        totals = {key: self._por_base.get(key, 0) for key in self._por_fields}
        for snapshot in self._shard_por:
            for key, value in (snapshot or {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def _end(self, complete: bool, truncated: int = 0) -> None:
        self.result = FastExplorationResult(
            states=self.states,
            transitions=self.transitions,
            complete=complete,
            violation=self.violation,
            truncated_transitions=truncated,
            covered_states=self.covered,
            symmetry_group_order=self.group_order,
            recanonicalizations_skipped=self.skipped,
            por_counters=self._por_totals(),
        )
        if self.checkpointer is not None:
            self.checkpointer.mark_complete(asdict(self.result))

    def open_checkpoint(self) -> Optional[Path]:
        """A staging directory for a checkpoint after this round, or
        None when none is due or the run has ended."""
        if (
            self.checkpointer is None
            or self.result is not None
            or not self.checkpointer.due(self.states)
        ):
            return None
        return self.checkpointer.begin()

    def commit(self, staging: Path) -> None:
        """Write the frontier and the counters into ``staging``, which
        holds every shard's visited dump, and seal it."""
        # One u64 array per owner, never a walk over entries.
        write_u64_file(staging / "frontier.u64", [
            array("Q", part) if isinstance(part, list) else part
            for part in (self.inboxes[owner] for owner in sorted(self.inboxes))
        ])
        counters = {
            "admitted": self.states,
            "transitions": self.transitions,
            "covered": self.covered or 0,
            "skipped": self.skipped or 0,
            **(self._por_totals() or {}),
        }
        self.checkpointer.commit(staging, counters)


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
    workers: Optional[ShardWorkers] = None,
) -> FastExplorationResult:
    """Frontier-sharded BFS over one wiring class across ``jobs`` cores.

    Level-synchronous: each round every shard expands exactly one BFS
    layer and exchanges boundary states through the driver.  ``jobs``
    shards run in ``jobs`` processes: ``workers``, a
    :class:`ShardWorkers` set, runs shards 1 … ``jobs``−1 and the
    driver expands shard 0 itself while they work.  A sweep passes one
    set for all its classes; without one, the call opens and closes its
    own.  A class that fails stops the set's workers.  A
    :class:`ShardedRun` merges per-shard statistics in shard order and
    applies the state budget at layer boundaries, so the result is
    deterministic for a fixed ``jobs`` — and equal to the serial
    engine's on any exhaustive (non-truncated) run.  ``jobs`` is capped
    at the host's core count (:func:`effective_jobs`); a host that
    cannot start a process runs the serial engine instead.

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
    ``shard-NNN/`` under the store directory; batch shards tier it
    behind their kernel's set, see :class:`ShardEngine`).  Shard
    ownership is ``fingerprint_int(state) % jobs``, deterministic
    across processes and hosts.  ``checkpointer``
    persists the run at BFS-layer boundaries (per-shard visited dumps +
    the pending boundary frontier); a killed run resumes from the last
    committed checkpoint with an identical final result, its frontier
    routed to the shards as arrays in batch runs.
    ``_after_checkpoint`` is a test seam invoked after every committed
    checkpoint.

    ``por`` enables ample-set partial-order reduction inside every
    shard (the sharded cycle proviso trusts only locally-owned novelty
    — see :class:`ShardEngine`); the merged result sums per-shard
    ``por_counters`` and checkpoints persist the running totals, so
    resumed runs report statistics over the whole exploration.

    ``engine="batch"`` runs every shard on the vectorized batch
    kernel and exchanges boundary batches as numpy u64 arrays (results
    identical to scalar shards).  It requires numpy and rejects,
    because wire entries are ``(state << 1) | canonical_bit`` in a u64
    word, state encodings above 63 bits.  With ``por`` the shards run
    the level-synchronous
    :class:`~repro.checker.batch.BatchAmpleSelector` per round
    (verdict-conformant with, not count-identical to, scalar+POR
    shards — see :mod:`repro.checker.por`); ``por`` totals round-trip
    through checkpoints identically for both engines.  ``kernel``
    selects the batch shards' level kernel
    (``auto``/``numpy``/``native``, :func:`repro.checker.batch.make_kernel`).
    The driver resolves the class's :class:`ClassSetup` parameters
    (:meth:`ClassSetup.prepare`, which compiles a missing native
    kernel), sends them to every worker, then builds its own setup
    while the workers build theirs from the same parameters.
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

    def _serial() -> FastExplorationResult:
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

    if jobs <= 1:
        return _serial()
    if workers is not None and workers.jobs != jobs:
        raise ValueError(
            f"the shard workers serve {workers.jobs} shards, not {jobs}"
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

    def _died(shard: int) -> RuntimeError:
        hint = (
            " — resume from the checkpoint directory (repro check --resume)"
            if checkpointer is not None
            else ""
        )
        return RuntimeError(
            f"shard {shard} worker died mid-run (pipe closed){hint}"
        )

    def _send(shard: int, message) -> None:
        try:
            workers.connections[shard].send(message)
        except (OSError, BrokenPipeError):
            raise _died(shard) from None

    def _recv(shard: int, tag: str) -> Tuple:
        try:
            reply = workers.connections[shard].recv()
        except (EOFError, OSError):
            # A SIGKILLed worker surfaces as EOF or ECONNRESET depending
            # on where the pipe read was when the process died.
            raise _died(shard) from None
        if reply[0] != tag:
            detail = reply[1] if reply[0] == "error" else repr(reply)
            raise RuntimeError(f"shard {shard} failed: {detail}")
        return reply[1:]

    owned = None
    if workers is None:
        workers = owned = ShardWorkers(jobs)
    local: Optional[ShardEngine] = None
    remote = range(1, jobs)
    try:
        params = ClassSetup.prepare(spec, symmetry, engine, kernel)
        if not workers.start(store, por, engine):
            return _serial()
        for shard in remote:
            _send(shard, ("class", params, store, por))
        # The driver expands shard 0 itself, and builds its setup while
        # the workers build theirs.
        setup = ClassSetup(*params)
        local = ShardEngine(setup, 0, jobs, store_config=store, por=por)
        run = ShardedRun(
            spec, jobs, max_states, canonicalizer=setup.canonicalizer,
            group_order=setup.group_order, por=por,
            checkpointer=checkpointer, kernel=setup.kernel,
        )
        run.begin()
        if run.resumed is not None:
            for shard in remote:
                path = run.visited_path(run.resumed.directory, shard)
                _send(shard, ("load", str(path)))
            local.load_from(run.visited_path(run.resumed.directory, 0))
            for shard in remote:
                _recv(shard, "loaded")
        while run.result is None:
            if heartbeat is not None:
                heartbeat.tick(
                    run.states, run.frontier_size(), run.transitions
                )
            for shard in remote:
                _send(shard, ("round", run.inboxes.get(shard, [])))
            layers = [local.process_round(run.inboxes.get(0, []))]
            layers += [_recv(shard, "layer") for shard in remote]
            run.merge(layers)
            staging = run.open_checkpoint()
            if staging is not None:
                for shard in remote:
                    path = run.visited_path(staging, shard)
                    _send(shard, ("dump", str(path)))
                local.dump_to(run.visited_path(staging, 0))
                for shard in remote:
                    _recv(shard, "dumped")
                run.commit(staging)
                if _after_checkpoint is not None:
                    _after_checkpoint()
        for shard in remote:
            _send(shard, ("end",))
        return run.result
    except BaseException:
        # A round may be half read, so no later class can use these
        # pipes.
        workers.close()
        raise
    finally:
        if local is not None:
            local.close()
        if owned is not None:
            owned.close()
