"""The service worker: socket transport around :class:`ShardEngine`.

``repro worker --connect HOST:PORT`` runs this loop.  A worker is the
distributed twin of one pipe-based shard *process* of
:func:`repro.checker.parallel.explore_sharded`, generalized two ways:

- one worker hosts **many logical shards** (the coordinator fixes the
  job's logical shard count up front and assigns each worker a subset,
  so the state partition — and therefore every count and truncation
  point — is independent of how many workers happen to be connected);
- the transport is a TCP socket speaking
  :mod:`repro.service.protocol` frames, with reconnect + exponential
  backoff, so workers can join from other hosts and outlive coordinator
  restarts.

The worker is deliberately dumb: it holds no job state beyond its
configured engines and never initiates anything.  The coordinator owns
scheduling, checkpoints, and elasticity; a worker that dies is simply
re-assigned (see :mod:`repro.service.coordinator`).  All exploration
semantics live in :class:`~repro.checker.parallel.ShardEngine` — the
same class the pipe workers run — which is what makes service results
bit-identical to local sharded runs.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checker.parallel import ShardEngine
from repro.service.heartbeat import current_rss_bytes
from repro.service.protocol import (
    ConnectionClosed,
    ProtocolError,
    SyncFrameIO,
)
from repro.store.base import StoreConfig


class _WorkerState:
    """Engines + counters for the currently configured (job, epoch)."""

    def __init__(self) -> None:
        self.engines: Dict[int, ShardEngine] = {}
        self.epoch: Optional[int] = None
        self.job_id: Optional[str] = None
        self.round_delay_ms = 0
        self.busy_ms = 0.0
        self.rounds = 0
        self.states = 0
        self.transitions = 0

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()
        self.engines.clear()
        self.epoch = None
        self.job_id = None


def _configure(state: _WorkerState, header: Dict[str, Any]) -> Dict[str, Any]:
    state.close()
    epoch = int(header["epoch"])
    shards = [int(shard) for shard in header["shards"]]
    store_config = StoreConfig(
        backend=str(header.get("store", "ram")),
        mem_cap=int(header["mem_cap"]) if header.get("mem_cap") else
        StoreConfig().mem_cap,
    )
    for shard in shards:
        # The epoch lands in the store namespace: a shard re-assigned
        # after a failure must never collide with stale spill/mmap
        # files a previous owner (or a previous epoch of this worker)
        # left on disk.
        state.engines[shard] = ShardEngine(
            [int(value) for value in header["inputs"]],
            tuple(tuple(int(r) for r in perm) for perm in header["wiring"]),
            shard,
            int(header["n_shards"]),
            symmetry=bool(header.get("symmetry", False)),
            store_config=store_config,
            por=bool(header.get("por", False)),
            engine=str(header.get("engine", "scalar")),
            kernel=str(header.get("kernel", "auto")),
            store_namespace=f"shard-{shard:03d}-e{epoch:03d}",
        )
    state.epoch = epoch
    state.job_id = header.get("job_id")
    state.round_delay_ms = int(header.get("round_delay_ms", 0))
    return {"type": "configured", "epoch": epoch, "shards": shards}


def _round_reply(
    state: _WorkerState, header: Dict[str, Any], payloads: List[Any]
) -> Tuple[Dict[str, Any], List[object]]:
    if state.round_delay_ms:
        time.sleep(state.round_delay_ms / 1000.0)
    shards = [int(shard) for shard in header["shards"]]
    if len(shards) != len(payloads):
        raise ProtocolError(
            f"round frame names {len(shards)} shards but carries"
            f" {len(payloads)} payloads"
        )
    started = time.monotonic()
    results: List[Dict[str, Any]] = []
    out_payloads: List[object] = []
    for shard, batch in zip(shards, payloads):
        engine = state.engines.get(shard)
        if engine is None:
            raise ProtocolError(f"shard {shard} is not configured here")
        (admitted, transitions, violation, outboxes, covered, skipped,
         por_counters) = engine.process_round(batch)
        state.states += admitted
        state.transitions += transitions
        outbox_refs = []
        for dest in sorted(outboxes):
            outbox_refs.append([dest, len(out_payloads)])
            out_payloads.append(outboxes[dest])
        results.append({
            "shard": shard,
            "admitted": admitted,
            "transitions": transitions,
            "violation": violation,
            "covered": covered,
            "skipped": skipped,
            "por": por_counters,
            "outboxes": outbox_refs,
        })
    state.busy_ms += (time.monotonic() - started) * 1000.0
    state.rounds += 1
    return (
        {"type": "layer", "seq": header.get("seq"), "results": results},
        out_payloads,
    )


def _stats(state: _WorkerState) -> Dict[str, Any]:
    return {
        "pid": os.getpid(),
        "rss": current_rss_bytes(),
        "busy_ms": state.busy_ms,
        "rounds": state.rounds,
        "states": state.states,
        "transitions": state.transitions,
        "epoch": state.epoch,
        "job_id": state.job_id,
        "shards": sorted(state.engines),
    }


def serve_connection(
    io: SyncFrameIO,
    name: str,
    emit: Callable[[str], None],
) -> bool:
    """Drive one connection until it ends.

    Returns True when the coordinator asked for a clean shutdown (the
    worker should exit) and False when the connection dropped (the
    caller may reconnect).
    """
    io.send({"type": "hello", "role": "worker", "name": name,
             "pid": os.getpid()})
    welcome, _ = io.recv()
    if welcome.get("type") != "welcome":
        raise ProtocolError(f"expected welcome, got {welcome!r}")
    emit(f"[worker {name}] connected to {welcome.get('server', '?')}")
    state = _WorkerState()
    try:
        while True:
            header, payloads = io.recv()
            kind = header.get("type")
            if kind == "shutdown":
                io.send({"type": "bye"})
                return True
            if kind == "ping":
                io.send({"type": "pong", "stats": _stats(state)})
            elif kind == "configure":
                io.send(_configure(state, header))
            elif kind == "round":
                reply, out_payloads = _round_reply(state, header, payloads)
                io.send(reply, out_payloads)
            elif kind == "dump":
                shards = [int(shard) for shard in header["shards"]]
                keys = [state.engines[shard].visited_keys() for shard in shards]
                io.send(
                    {"type": "dumped", "shards": shards,
                     "counts": [len(part) for part in keys]},
                    keys,
                )
            elif kind == "load":
                shard = int(header["shard"])
                count = state.engines[shard].load_keys(list(payloads[0]))
                io.send({"type": "loaded", "shard": shard, "count": count})
            else:
                io.send({"type": "error",
                         "message": f"unknown message type {kind!r}"})
    except ConnectionClosed:
        emit(f"[worker {name}] coordinator closed the connection")
        return False
    except Exception as exc:
        # Surface the failure to the coordinator (it rolls the affected
        # job back to its last checkpoint), then drop the connection;
        # the reconnect loop re-registers this worker with fresh state.
        try:
            io.send({"type": "error",
                     "message": f"{type(exc).__name__}: {exc}"})
        except OSError:
            pass
        emit(f"[worker {name}] error: {type(exc).__name__}: {exc}")
        return False
    finally:
        state.close()


def run_worker(
    host: str,
    port: int,
    name: Optional[str] = None,
    reconnect_attempts: int = 10,
    backoff_s: float = 0.5,
    max_backoff_s: float = 10.0,
    emit: Callable[[str], None] = print,
) -> int:
    """Connect (and keep reconnecting) to a coordinator; exit code.

    A refused or dropped connection is retried with exponential backoff
    up to ``reconnect_attempts`` consecutive failures — a coordinator
    restart well inside the window is invisible to the fleet.  A clean
    ``shutdown`` from the coordinator ends the loop with exit code 0.
    """
    worker_name = name or f"worker-{socket.gethostname()}-{os.getpid()}"
    failures = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=30)
        except OSError as exc:
            failures += 1
            if failures > reconnect_attempts:
                emit(
                    f"[worker {worker_name}] giving up after"
                    f" {failures - 1} failed connection attempts: {exc}"
                )
                return 1
            delay = min(backoff_s * (2 ** (failures - 1)), max_backoff_s)
            emit(
                f"[worker {worker_name}] connect to {host}:{port} failed"
                f" ({exc}); retrying in {delay:.1f}s"
            )
            time.sleep(delay)
            continue
        sock.settimeout(None)
        io = SyncFrameIO(sock)
        try:
            done = serve_connection(io, worker_name, emit)
        finally:
            io.close()
        if done:
            emit(f"[worker {worker_name}] shut down cleanly")
            return 0
        failures += 1
        if failures > reconnect_attempts:
            emit(
                f"[worker {worker_name}] giving up after {failures - 1}"
                " dropped connections"
            )
            return 1
        delay = min(backoff_s * (2 ** (failures - 1)), max_backoff_s)
        emit(f"[worker {worker_name}] reconnecting in {delay:.1f}s")
        time.sleep(delay)
