"""Traced ``repro check``: per-layer spans recorded from outside the program.

Run as a child process by ``run.py --trace 1``::

    python perfbench/tracer.py --out TRACE.json -- check --n 3 ...

It imports the CLI, wraps each layer's public entry points (nothing under
``src/`` changes), calls ``repro.cli.main(argv)`` in-process and writes
one JSON document with, per process, the inclusive and self time of every
span name, call counts and layer counters.

Forked shard workers (``--jobs K --sharded``) inherit the wrappers. They
end in ``os._exit``, so ``atexit`` never runs; each worker instead writes
its spans from the wrapper around ``ShardEngine.close``, which the
worker's ``finally`` always calls, and the main process merges the files
by pid.

``python perfbench/tracer.py --cold-build`` times one native-kernel
compile into the (empty) ``REPRO_NATIVE_CACHE`` and prints the seconds.

:func:`layer_metrics` turns a trace document into the per-layer metrics;
``run.py`` imports it, so this module imports nothing from ``repro`` at
module level.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Spans that drive one BFS level per call; an expansion called directly
#: from one of them is a level expansion (POR trial expansions are not).
LEVEL_LOOPS = ("batch.explore", "parallel.round")


class Tracer:
    """In-memory span and counter aggregates for one process."""

    def __init__(self) -> None:
        self.main_pid = os.getpid()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.reset()

    def reset(self) -> None:
        """Start empty; called again in every forked child.

        The tables are cleared in place because the wrappers hold
        references to them.
        """
        self.pid = os.getpid()
        self.started = time.perf_counter()
        self.stack: List[List[Any]] = []
        for table in (self.inclusive, self.self_time, self.calls, self.counts):
            table.clear()
        self.covered = 0.0  # time inside depth-0 spans

    @property
    def in_main(self) -> bool:
        return os.getpid() == self.main_pid

    def parent(self) -> Optional[str]:
        return self.stack[-1][0] if self.stack else None

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - frame[1]
            self.stack.pop()
            self.inclusive[name] += elapsed
            self.self_time[name] += elapsed - frame[2]
            self.calls[name] += 1
            if self.stack:
                self.stack[-1][2] += elapsed
            else:
                self.covered += elapsed

    def snapshot(self, **extra: Any) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "wall": time.perf_counter() - self.started,
            "covered": self.covered,
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            **extra,
        }


def _wrap(tracer: Tracer, owner: Any, attr: str, name: str,
          after: Optional[Callable[..., None]] = None) -> None:
    """Replace ``owner.attr`` by a spanned wrapper.

    ``after(parent, args, result)`` runs once the call returned, with the
    span name that was on top of the stack when the call started.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        parent = tracer.parent()
        result = tracer.call(name, original, *args, **kwargs)
        if after is not None:
            after(parent, args, result)
        return result

    setattr(owner, attr, wrapper)


def _size(array: Any) -> int:
    return int(getattr(array, "size", len(array)))


def _install_kernel(tracer: Tracer, kernel: Any) -> None:
    """Span the hot seams of one level kernel instance."""
    counts = tracer.counts

    def after_expand(parent: Optional[str], args: Any, result: Any) -> None:
        if parent in LEVEL_LOOPS:
            counts["batch.levels"] += 1
            counts["batch.expand_in"] += _size(args[0])
            counts["batch.expand_out"] += _size(result[0])

    def after_dedup(parent: Optional[str], args: Any, result: Any) -> None:
        counts["batch.dedup_in"] += _size(args[0])
        counts["batch.dedup_out"] += _size(result[0])

    def after_make_canonicalizer(parent: Optional[str], args: Any, result: Any) -> None:
        if result is None:
            return

        def after_canonical(parent: Optional[str], args: Any, out: Any) -> None:
            counts["symmetry.canonical_states"] += _size(args[0])

        _wrap(tracer, result, "canonical_many", "symmetry.canonical",
              after_canonical)
        _wrap(tracer, result, "orbit_sizes", "symmetry.orbit")

    _wrap(tracer, kernel, "expand_level", "batch.expand", after_expand)
    _wrap(tracer, kernel, "fingerprint_many", "batch.fingerprint")
    _wrap(tracer, kernel, "unique_first", "batch.dedup", after_dedup)
    _wrap(tracer, kernel, "probe_sorted", "batch.probe")
    _wrap(tracer, kernel, "violations", "batch.invariant")
    _wrap(tracer, kernel, "make_canonicalizer", "batch.make_canonicalizer",
          after_make_canonicalizer)


def _install_store(tracer: Tracer, store: Any) -> None:
    """Span one visited-set store instance and keep its final counters."""
    counts = tracer.counts

    def after_contains(parent: Optional[str], args: Any, result: Any) -> None:
        counts["store.contains_keys"] += len(args[0])

    def after_add(parent: Optional[str], args: Any, result: Any) -> None:
        counts["store.add_keys"] += len(args[0])

    _wrap(tracer, store, "contains_many", "store.contains", after_contains)
    _wrap(tracer, store, "add_many", "store.add", after_add)
    if hasattr(store, "_merge"):
        _wrap(tracer, store, "_merge", "store.merge")
    original_close = store.close

    def close() -> None:
        final = store.counters()
        counts["store.disk_probes"] += final.get("disk_probes", 0)
        counts["store.bloom_skips"] += final.get("bloom_skips", 0)
        counts["store.runs"] += final.get("runs", 0)
        counts["store.file_bytes"] += store.file_bytes()
        original_close()

    store.close = close


def install(tracer: Tracer, batch: bool, trace_dir: Path) -> None:
    """Wrap every layer's entry points; ``batch`` adds the batch engine."""
    import multiprocessing.connection
    import multiprocessing.process

    from repro.checker import explorer, liveness, parallel
    from repro.checker.symmetry import FastCanonicalizer
    from repro.store import base, checkpoint

    counts = tracer.counts
    os.register_at_fork(after_in_child=tracer.reset)

    # -- checker.explorer / checker.liveness ------------------------------
    def after_run(parent: Optional[str], args: Any, result: Any) -> None:
        counts["explorer.states"] += result.states
        counts["explorer.transitions"] += result.transitions

    _wrap(tracer, explorer.Explorer, "run", "explorer.run", after_run)
    _wrap(tracer, liveness, "check_wait_freedom", "liveness.wait_freedom")

    # -- checker.symmetry -------------------------------------------------
    _wrap(tracer, FastCanonicalizer, "__init__", "symmetry.setup")

    # -- store ------------------------------------------------------------
    _wrap(tracer, base.StoreConfig, "create", "store.create",
          lambda parent, args, store: _install_store(tracer, store))

    # -- store.checkpoint -------------------------------------------------
    def after_u64(parent: Optional[str], args: Any, count: int) -> None:
        counts["checkpoint.bytes"] += 8 * count

    for module in (checkpoint, parallel):
        _wrap(tracer, module, "write_u64_file", "checkpoint.u64_write",
              after_u64)
    _wrap(tracer, checkpoint.RunCheckpointer, "begin", "checkpoint.begin")
    _wrap(tracer, checkpoint.RunCheckpointer, "commit", "checkpoint.commit")
    _wrap(tracer, checkpoint.RunCheckpointer, "mark_complete",
          "checkpoint.record")
    _wrap(tracer, checkpoint.SweepCheckpoint, "record", "checkpoint.record")

    # -- checker.parallel -------------------------------------------------
    def after_result(parent: Optional[str], args: Any, result: Any) -> None:
        counts["result.transitions"] += result.transitions

    _wrap(tracer, parallel, "explore_sharded", "parallel.driver", after_result)
    _wrap(tracer, multiprocessing.process.BaseProcess, "start",
          "parallel.spawn")
    connection = multiprocessing.connection.Connection
    recv = connection.recv

    @functools.wraps(recv)
    def traced_recv(self: Any) -> Any:
        name = "parallel.driver_wait" if tracer.in_main else "parallel.worker_wait"
        return tracer.call(name, recv, self)

    connection.recv = traced_recv
    send_bytes = connection._send_bytes

    @functools.wraps(send_bytes)
    def traced_send_bytes(self: Any, buf: Any) -> Any:
        counts["parallel.wire_bytes"] += len(buf)
        return send_bytes(self, buf)

    connection._send_bytes = traced_send_bytes
    engine = parallel.ShardEngine
    _wrap(tracer, engine, "__init__", "parallel.worker_init")
    _wrap(tracer, engine, "process_round", "parallel.round")
    _wrap(tracer, engine, "dump_to", "checkpoint.dump")
    close = engine.close

    @functools.wraps(close)
    def flushing_close(self: Any) -> None:
        try:
            close(self)
        finally:
            if not tracer.in_main:
                path = trace_dir / f"worker-{os.getpid()}.json"
                path.write_text(json.dumps(tracer.snapshot(shard=self.shard)))

    engine.close = flushing_close

    if not batch:
        return
    from repro.checker import batch as batch_mod

    _wrap(tracer, batch_mod, "explore_batch", "batch.explore", after_result)
    _wrap(tracer, batch_mod, "make_kernel", "native.load",
          lambda parent, args, kernel: _install_kernel(tracer, kernel))
    _wrap(tracer, batch_mod, "_insert_sorted", "batch.insert")
    select = batch_mod.BatchAmpleSelector.select

    @functools.wraps(select)
    def traced_select(self: Any, *args: Any, **kwargs: Any) -> Any:
        before = self.counters.as_dict()
        try:
            return tracer.call("por.select", select, self, *args, **kwargs)
        finally:
            for key, value in self.counters.as_dict().items():
                counts[f"por.{key}"] += value - before.get(key, 0)

    batch_mod.BatchAmpleSelector.select = traced_select


def _import_check_command(batch: bool) -> None:
    """The modules ``repro check`` loads, so imports are timed on their own."""
    import repro.cli  # noqa: F401
    from repro.checker import liveness, parallel, properties  # noqa: F401
    from repro.core import SnapshotMachine  # noqa: F401
    from repro.memory import wiring  # noqa: F401
    from repro.store import checkpoint  # noqa: F401

    if batch:
        from repro.checker import batch as batch_mod, por  # noqa: F401
        from repro.checker.native import loader  # noqa: F401


def traced_main(argv: List[str], out: Path) -> int:
    tracer = Tracer()
    batch = "--engine" in argv and argv[argv.index("--engine") + 1] == "batch"
    tracer.call("cli.import", _import_check_command, batch)
    trace_dir = out.parent / (out.name + ".workers")
    trace_dir.mkdir()
    install(tracer, batch, trace_dir)
    import repro.cli

    code = repro.cli.main(argv)
    sys.stdout.flush()
    workers = [
        json.loads(path.read_text()) for path in sorted(trace_dir.glob("*.json"))
    ]
    out.write_text(json.dumps({"main": tracer.snapshot(), "workers": workers}))
    return code


def cold_build() -> float:
    """Seconds to compile the class-0 N=3 symmetry kernel from scratch."""
    from repro.checker.batch import make_kernel
    from repro.checker.fast_snapshot import (
        FastSnapshotSpec,
        canonical_wiring_classes,
    )
    from repro.checker.symmetry import FastCanonicalizer

    spec = FastSnapshotSpec((1, 2, 3), canonical_wiring_classes(3, 3)[0])
    canonicalizer = FastCanonicalizer(spec)
    start = time.perf_counter()
    kernel = make_kernel(spec, "native", canonicalizer)
    elapsed = time.perf_counter() - start
    if kernel.kernel_name != "native":
        raise SystemExit("native kernel unavailable: nothing was built")
    return elapsed


# ----------------------------------------------------------------------
# Trace document -> per-layer metrics
# ----------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def merged(trace: Dict[str, Any], table: str) -> Dict[str, float]:
    """One of a process's tables (``inclusive``, ``self``, ``calls``,
    ``counts``) summed over the main process and every worker."""
    total: Dict[str, float] = defaultdict(float)
    for process in [trace["main"]] + trace["workers"]:
        for key, value in process[table].items():
            total[key] += value
    return total


def layer_metrics(
    trace: Dict[str, Any], wall_s: float, admitted: int
) -> Dict[str, float]:
    """Per-layer metrics of one traced invocation that took ``wall_s``
    and admitted ``admitted`` states (from its checked output)."""
    inclusive = merged(trace, "inclusive")
    self_time = merged(trace, "self")
    calls = merged(trace, "calls")
    counts = merged(trace, "counts")
    per_shard: Dict[int, float] = defaultdict(float)
    worker_wall = 0.0
    for worker in trace["workers"]:
        per_shard[worker["shard"]] += worker["inclusive"].get("parallel.round", 0.0)
        worker_wall += worker["wall"]
    shard_rounds = list(per_shard.values())
    mean_round = _ratio(sum(shard_rounds), len(shard_rounds))
    por_states = counts["por.ample_states"] + counts["por.fully_expanded_states"]
    return {
        "cli.import_s": inclusive["cli.import"],
        "native.load_s": inclusive["native.load"],
        "batch.expand_s": inclusive["batch.expand"],
        "batch.fingerprint_s": inclusive["batch.fingerprint"],
        "batch.dedup_s": inclusive["batch.dedup"],
        "batch.probe_s": inclusive["batch.probe"],
        "batch.insert_s": inclusive["batch.insert"],
        "batch.invariant_s": inclusive["batch.invariant"],
        "batch.loop_self_s": self_time["batch.explore"],
        "batch.levels": counts["batch.levels"],
        "batch.expand_in": counts["batch.expand_in"],
        "batch.expand_out": counts["batch.expand_out"],
        "batch.dedup_unique_ratio": _ratio(
            counts["batch.dedup_out"], counts["batch.dedup_in"]
        ),
        "batch.fresh_ratio": _ratio(admitted, counts["batch.expand_out"]),
        "symmetry.setup_s": inclusive["symmetry.setup"],
        "symmetry.canonical_s": inclusive["symmetry.canonical"],
        "symmetry.canonical_states": counts["symmetry.canonical_states"],
        "symmetry.orbit_s": inclusive["symmetry.orbit"],
        "por.select_s": inclusive["por.select"],
        "por.ample_ratio": _ratio(counts["por.ample_states"], por_states),
        "por.transitions_pruned": counts["por.transitions_pruned"],
        "por.proviso_expansions": counts["por.cycle_proviso_expansions"],
        "store.contains_s": inclusive["store.contains"],
        "store.contains_keys": counts["store.contains_keys"],
        "store.add_s": inclusive["store.add"],
        "store.add_keys": counts["store.add_keys"],
        "store.disk_probes": counts["store.disk_probes"],
        "store.bloom_skip_ratio": _ratio(
            counts["store.bloom_skips"], counts["store.contains_keys"]
        ),
        "store.runs": counts["store.runs"],
        "store.merge_s": inclusive["store.merge"],
        "store.file_mb": counts["store.file_bytes"] / 1e6,
        "checkpoint.write_s": (
            inclusive["checkpoint.u64_write"]
            + inclusive["checkpoint.begin"]
            + inclusive["checkpoint.commit"]
        ),
        "checkpoint.writes": calls["checkpoint.commit"],
        "checkpoint.mb": counts["checkpoint.bytes"] / 1e6,
        "checkpoint.sweep_record_s": inclusive["checkpoint.record"],
        "parallel.spawn_s": inclusive["parallel.spawn"],
        "parallel.rounds": _ratio(calls["parallel.round"], len(shard_rounds)),
        "parallel.round_s": mean_round,
        "parallel.driver_wait_s": inclusive["parallel.driver_wait"],
        "parallel.wire_mb": counts["parallel.wire_bytes"] / 1e6,
        "parallel.worker_util": _ratio(inclusive["parallel.round"], worker_wall),
        "parallel.shard_imbalance": _ratio(max(shard_rounds, default=0.0), mean_round),
        "explorer.run_s": inclusive["explorer.run"],
        "explorer.states": counts["explorer.states"],
        "explorer.transitions": counts["explorer.transitions"],
        "liveness.wait_freedom_s": inclusive["liveness.wait_freedom"],
        "trace.unattributed_ratio": 1.0 - _ratio(trace["main"]["covered"], wall_s),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="trace document to write")
    parser.add_argument("--cold-build", action="store_true",
                        help="time one native compile and exit")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="-- followed by the repro CLI arguments")
    args = parser.parse_args()
    if args.cold_build:
        print(json.dumps({"build_cold_s": cold_build()}))
        return 0
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if args.out is None or not argv:
        parser.error("--out and the CLI arguments are required")
    return traced_main(argv, args.out)


if __name__ == "__main__":
    sys.exit(main())
