"""The checking-service coordinator: jobs in, bit-identical verdicts out.

``repro serve --state-dir DIR`` runs one of these.  The coordinator is
an asyncio server with three kinds of peers on one port (the first
frame's ``hello`` names the role):

- **workers** (:mod:`repro.service.worker`) register and wait to be
  driven; the coordinator owns every request/response on a worker
  connection (workers never speak unsolicited), with a per-worker lock
  serializing requests and a heartbeat ping task watching liveness;
- **clients** (:mod:`repro.service.transport`, ``repro submit`` et al.)
  submit job specs, poll status, stream progress, cancel, and fetch
  results/counterexamples;
- the **job runner** task drains the persisted :class:`JobQueue` one
  job at a time, exploring each canonical wiring class with the
  distributed equivalent of
  :func:`repro.checker.parallel.explore_sharded`.

Determinism contract: a job fixes its *logical* shard count up front
(``JobSpec.shards``); states are owned by ``fingerprint % shards``
exactly as in the pipe engine, workers are assigned shard subsets, and
the driver merges per-shard layer results in ascending logical-shard
order — the same order the pipe driver's ``for shard in range(jobs)``
loop produces.  Inboxes concatenate contributions in sender-shard
order, violations are taken from the lowest reporting shard, and
budgets truncate at layer boundaries.  The result: the service verdict
is bit-identical to a serial or pipe-sharded run of the same spec, no
matter how many workers served it — or how many died.

Elasticity: the run checkpoints through the PR 4
:class:`~repro.store.checkpoint.RunCheckpointer` machinery (per-logical
-shard visited dumps + the pending frontier) every
``JobSpec.checkpoint_every`` admitted states.  When a worker dies
mid-round (socket EOF from a SIGKILL, a timeout from a partition, or
an ``error`` frame), the epoch increments and the class **rolls back
to the last committed checkpoint**: surviving + newly joined workers
are re-assigned shard subsets, reconfigured with fresh epoch-namespaced
stores, reloaded from the per-shard dumps, and the round loop resumes
from the checkpointed frontier.  At most one checkpoint interval of
work is lost; the final result is unchanged because resume itself is
bit-identical (PR 4's guarantee).  If every worker is gone the job
simply waits for the next one to join.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
import traceback
from array import array
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.checker.fast_snapshot import (
    FastExplorationResult,
    FastSnapshotSpec,
    canonical_wiring_classes,
)
from repro.checker.fingerprint import fingerprint_int
from repro.checker.parallel import class_key
from repro.service.jobs import JobError, JobQueue, JobRecord, JobSpec
from repro.service.protocol import (
    ConnectionClosed,
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.store.checkpoint import (
    RunCheckpointer,
    load_result,
    read_u64_file,
    write_u64_file,
)

_POR_KEYS = (
    "transitions_pruned", "ample_states", "fully_expanded_states",
    "cycle_proviso_expansions",
)


class WorkerDied(RuntimeError):
    """A worker connection failed mid-conversation."""


class _JobCancelled(Exception):
    """Raised inside a class run when the job's cancel flag is seen."""


class WorkerHandle:
    """One registered worker connection, driven request/response."""

    def __init__(
        self,
        name: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.name = name
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()
        self.alive = True
        self.gone = asyncio.Event()
        self.stats: Dict[str, Any] = {}
        self.last_seen = time.monotonic()
        self.shards: List[int] = []

    def mark_dead(self) -> None:
        self.alive = False
        self.gone.set()
        with contextlib.suppress(Exception):
            self.writer.close()

    async def request(
        self,
        header: Dict[str, Any],
        payloads: Tuple[object, ...] = (),
        timeout: Optional[float] = None,
    ) -> Tuple[Dict[str, Any], List["array[int]"]]:
        if not self.alive:
            raise WorkerDied(f"worker {self.name} is gone")
        try:
            async with self.lock:
                await write_frame(self.writer, header, payloads)
                reply, data = await asyncio.wait_for(
                    read_frame(self.reader), timeout
                )
        except (ConnectionClosed, ProtocolError, OSError,
                asyncio.TimeoutError) as exc:
            self.mark_dead()
            raise WorkerDied(
                f"worker {self.name} died during"
                f" {header.get('type')!r}: {type(exc).__name__}: {exc}"
            ) from None
        self.last_seen = time.monotonic()
        if reply.get("type") == "error":
            self.mark_dead()
            raise WorkerDied(
                f"worker {self.name} failed during"
                f" {header.get('type')!r}: {reply.get('message')}"
            )
        return reply, data

    def describe(self) -> Dict[str, Any]:
        info = dict(self.stats)
        info.update({
            "name": self.name,
            "alive": self.alive,
            "shards": self.shards,
            "last_seen_age_s": round(time.monotonic() - self.last_seen, 3),
        })
        return info


class Coordinator:
    """See the module docstring; one instance per ``repro serve``."""

    def __init__(
        self,
        state_dir: Path,
        host: str = "127.0.0.1",
        port: int = 0,
        round_timeout_s: Optional[float] = 600.0,
        ping_every_s: float = 2.0,
        log=print,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(self.state_dir)
        self.host = host
        self.port = port
        self.round_timeout_s = round_timeout_s
        self.ping_every_s = ping_every_s
        self.log = log or (lambda line: None)
        self.workers: Dict[str, WorkerHandle] = {}
        self.endpoint: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._worker_joined = asyncio.Event()
        self._job_submitted = asyncio.Event()
        self._stopping = asyncio.Event()
        self._cancelled: Set[str] = set()
        self._watchers: Dict[str, List[asyncio.Queue]] = {}
        self._worker_seq = 0
        self._tasks: List[asyncio.Task] = []

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        requeued = self.queue.requeue_interrupted()
        for job_id in requeued:
            self.log(f"[serve] requeued interrupted {job_id}")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.endpoint = (self.host, int(sockname[1]))
        (self.state_dir / "endpoint.json").write_text(json.dumps({
            "host": self.endpoint[0], "port": self.endpoint[1],
        }))
        self._tasks.append(asyncio.create_task(self._runner()))
        self._tasks.append(asyncio.create_task(self._pinger()))
        self.log(
            f"[serve] listening on {self.endpoint[0]}:{self.endpoint[1]}"
            f" (state: {self.state_dir})"
        )
        return self.endpoint

    async def serve_until_stopped(self) -> None:
        await self._stopping.wait()
        await self.aclose()

    def request_stop(self) -> None:
        self._stopping.set()

    async def aclose(self) -> None:
        self._stopping.set()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        for worker in list(self.workers.values()):
            with contextlib.suppress(WorkerDied):
                await worker.request({"type": "shutdown"}, timeout=2.0)
            worker.mark_dead()
        self.workers.clear()
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()

    # -- connections ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hello, _ = await read_frame(reader)
        except (ConnectionClosed, ProtocolError, OSError):
            writer.close()
            return
        role = hello.get("role")
        if hello.get("type") != "hello" or role not in ("worker", "client"):
            with contextlib.suppress(Exception):
                await write_frame(writer, {
                    "type": "error",
                    "message": f"expected a hello frame, got {hello!r}",
                })
            writer.close()
            return
        await write_frame(writer, {
            "type": "welcome", "server": "repro-coordinator", "version": 1,
        })
        if role == "worker":
            await self._register_worker(hello, reader, writer)
        else:
            await self._serve_client(reader, writer)

    async def _register_worker(
        self,
        hello: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._worker_seq += 1
        base = str(hello.get("name") or f"worker-{self._worker_seq}")
        name = base
        while name in self.workers:
            name = f"{base}~{self._worker_seq}"
        worker = WorkerHandle(name, reader, writer)
        self.workers[name] = worker
        self.log(f"[serve] worker joined: {name} (fleet: {len(self.workers)})")
        self._worker_joined.set()
        # The coordinator owns all traffic on this connection; this
        # handler only waits for the handle to be retired so asyncio
        # keeps the streams open.
        await worker.gone.wait()
        self.workers.pop(name, None)
        self.log(f"[serve] worker left: {name} (fleet: {len(self.workers)})")
        with contextlib.suppress(Exception):
            writer.close()

    # -- client API ----------------------------------------------------

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request, _ = await read_frame(reader)
                except (ConnectionClosed, ProtocolError):
                    return
                try:
                    await self._dispatch_client(request, writer)
                except JobError as exc:
                    await write_frame(writer, {
                        "type": "error", "message": str(exc),
                    })
                except Exception as exc:  # keep the client loop alive
                    await write_frame(writer, {
                        "type": "error",
                        "message": f"{type(exc).__name__}: {exc}",
                    })
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _dispatch_client(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        kind = request.get("type")
        if kind == "submit":
            spec = JobSpec.from_dict(dict(request.get("spec") or {}))
            record = self.queue.submit(spec)
            self._job_submitted.set()
            self.log(f"[serve] submitted {record.job_id}: {spec.to_dict()}")
            await write_frame(writer, {
                "type": "submitted", "job_id": record.job_id,
                "job": record.to_dict(),
            })
        elif kind == "status":
            job_id = request.get("job_id")
            if job_id:
                await write_frame(writer, {
                    "type": "status", "job": self.queue.get(str(job_id)).to_dict(),
                    "workers": [w.describe() for w in self.workers.values()],
                })
            else:
                await write_frame(writer, {
                    "type": "status",
                    "jobs": [r.to_dict() for r in self.queue.list()],
                    "workers": [w.describe() for w in self.workers.values()],
                })
        elif kind == "result":
            record = self.queue.get(str(request.get("job_id")))
            await write_frame(writer, {
                "type": "result", "job": record.to_dict(),
            })
        elif kind == "cancel":
            job_id = str(request.get("job_id"))
            record = self.queue.request_cancel(job_id)
            self._cancelled.add(job_id)
            await write_frame(writer, {
                "type": "cancelled", "job": record.to_dict(),
            })
        elif kind == "watch":
            await self._stream_watch(str(request.get("job_id")), writer)
        elif kind == "workers":
            await write_frame(writer, {
                "type": "workers",
                "workers": [w.describe() for w in self.workers.values()],
            })
        else:
            await write_frame(writer, {
                "type": "error", "message": f"unknown request {kind!r}",
            })

    async def _stream_watch(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        record = self.queue.get(job_id)  # raises JobError when unknown
        if record.done:
            await write_frame(writer, {"type": "end", "job": record.to_dict()})
            return
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(job_id, []).append(queue)
        try:
            while True:
                message = await queue.get()
                await write_frame(writer, message)
                if message.get("type") == "end":
                    return
        finally:
            self._watchers.get(job_id, []).remove(queue)

    def _publish(self, job_id: str, message: Dict[str, Any]) -> None:
        for queue in self._watchers.get(job_id, []):
            queue.put_nowait(message)

    # -- liveness ------------------------------------------------------

    async def _pinger(self) -> None:
        while True:
            await asyncio.sleep(self.ping_every_s)
            for worker in list(self.workers.values()):
                if not worker.alive or worker.lock.locked():
                    continue  # busy in a round; the round itself is the probe
                try:
                    reply, _ = await worker.request(
                        {"type": "ping"}, timeout=max(self.ping_every_s * 5, 10)
                    )
                    worker.stats = dict(reply.get("stats") or {})
                except WorkerDied:
                    pass  # mark_dead already retired it

    # -- the job runner ------------------------------------------------

    async def _runner(self) -> None:
        while True:
            record = self.queue.next_queued()
            if record is None:
                self._job_submitted.clear()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._job_submitted.wait(), 5.0)
                continue
            try:
                await self._run_job(record)
            except Exception as exc:  # pragma: no cover - defensive
                self.log(
                    f"[serve] {record.job_id} crashed the runner:"
                    f" {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
                )
                record = self.queue.get(record.job_id)
                record.state = "failed"
                record.error = f"{type(exc).__name__}: {exc}"
                record.finished_at = time.time()
                self.queue.save(record)
                self._publish(record.job_id, {
                    "type": "end", "job": record.to_dict(),
                })

    def _is_cancelled(self, record: JobRecord) -> bool:
        return record.cancel_requested or record.job_id in self._cancelled

    async def _run_job(self, record: JobRecord) -> None:
        spec = record.spec
        record.state = "running"
        record.started_at = time.time()
        self.queue.save(record)
        self.log(f"[serve] running {record.job_id}")
        classes = canonical_wiring_classes(spec.n, spec.n)
        recorded_keys = {row["class"] for row in record.rows}
        record.progress.update({
            "classes_total": len(classes),
            "classes_done": len(recorded_keys),
        })
        try:
            for index, wiring in enumerate(classes):
                key = class_key(wiring)
                if key in recorded_keys:
                    continue
                if self._is_cancelled(record):
                    raise _JobCancelled()
                result = await self._run_class(record, index, wiring)
                record.rows.append({
                    "class": key,
                    "wiring": [list(perm) for perm in wiring],
                    "result": asdict(result),
                })
                record.progress["classes_done"] = len(record.rows)
                self.queue.save(record)
                self._publish(record.job_id, {
                    "type": "progress", "job_id": record.job_id,
                    "progress": dict(record.progress),
                    "class": key, "result": asdict(result),
                })
            record.state = "done"
        except _JobCancelled:
            record.state = "cancelled"
            self.log(f"[serve] cancelled {record.job_id}")
        except JobFailed as exc:
            record.state = "failed"
            record.error = str(exc)
            self.log(f"[serve] failed {record.job_id}: {exc}")
        record.finished_at = time.time()
        self.queue.save(record)
        self._cancelled.discard(record.job_id)
        self.log(f"[serve] {record.job_id}: {record.state}")
        self._publish(record.job_id, {"type": "end", "job": record.to_dict()})

    # -- distributed sharded exploration of one wiring class -----------

    async def _acquire_fleet(self, record: JobRecord) -> List[WorkerHandle]:
        """Alive workers in deterministic (name) order; waits for >= 1."""
        while True:
            fleet = sorted(
                (w for w in self.workers.values() if w.alive),
                key=lambda w: w.name,
            )
            if fleet:
                return fleet
            if self._is_cancelled(record):
                raise _JobCancelled()
            self.log(f"[serve] {record.job_id}: waiting for workers")
            self._publish(record.job_id, {
                "type": "progress", "job_id": record.job_id,
                "progress": {"waiting_for_workers": True},
            })
            self._worker_joined.clear()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._worker_joined.wait(), 5.0)

    async def _run_class(
        self, record: JobRecord, index: int, wiring: Tuple[Tuple[int, ...], ...]
    ) -> FastExplorationResult:
        spec = record.spec
        inputs = tuple(range(1, spec.n + 1))
        fast_spec = FastSnapshotSpec(inputs, wiring)
        if fast_spec.state_bits > 63:
            raise JobFailed(
                f"service wire entries are (state << 1) | canonical_bit in"
                f" a u64 word; this configuration packs states into"
                f" {fast_spec.state_bits} bits"
            )
        checkpointer = RunCheckpointer(
            self.queue.job_dir(record.job_id) / f"class-{index:03d}",
            meta={**spec.meta(), "class": class_key(wiring)},
            every=spec.checkpoint_every,
        )
        recorded = checkpointer.completed_result()
        if recorded is not None:
            return load_result(FastExplorationResult, recorded)

        canonicalizer = None
        if spec.symmetry:
            from repro.checker.symmetry import FastCanonicalizer

            canonicalizer = FastCanonicalizer(fast_spec)
        n_shards = spec.shards
        max_states = spec.budget if spec.budget else 10 ** 9
        epoch = 0

        while True:  # rollback loop: one iteration per worker epoch
            fleet = await self._acquire_fleet(record)
            try:
                return await self._run_class_epoch(
                    record, index, wiring, fast_spec, canonicalizer,
                    checkpointer, fleet, epoch, n_shards, max_states,
                )
            except WorkerDied as exc:
                epoch += 1
                self.log(
                    f"[serve] {record.job_id} class-{index:03d}: {exc};"
                    f" rolling back to the last checkpoint (epoch {epoch})"
                )
                self._publish(record.job_id, {
                    "type": "progress", "job_id": record.job_id,
                    "progress": {"rollback": str(exc), "epoch": epoch},
                })

    async def _run_class_epoch(
        self,
        record: JobRecord,
        index: int,
        wiring: Tuple[Tuple[int, ...], ...],
        fast_spec: FastSnapshotSpec,
        canonicalizer,
        checkpointer: RunCheckpointer,
        fleet: List[WorkerHandle],
        epoch: int,
        n_shards: int,
        max_states: int,
    ) -> FastExplorationResult:
        spec = record.spec
        # Static shard assignment for this epoch: round-robin over the
        # fleet in name order.  The *logical* partition (fingerprint %
        # n_shards) never changes, so any assignment yields identical
        # results; round-robin balances the load.
        assignment: Dict[str, List[int]] = {w.name: [] for w in fleet}
        owner_of: Dict[int, WorkerHandle] = {}
        for shard in range(n_shards):
            worker = fleet[shard % len(fleet)]
            assignment[worker.name].append(shard)
            owner_of[shard] = worker
        for worker in fleet:
            worker.shards = assignment[worker.name]

        configure = {
            "type": "configure",
            "epoch": epoch,
            "job_id": record.job_id,
            "class_index": index,
            "inputs": list(fast_spec.inputs),
            "wiring": [list(perm) for perm in wiring],
            "n_shards": n_shards,
            "symmetry": spec.symmetry,
            "por": spec.por,
            "engine": spec.engine,
            "kernel": spec.kernel,
            "store": spec.store,
            "mem_cap": spec.mem_cap,
            "round_delay_ms": spec.round_delay_ms,
        }
        await asyncio.gather(*(
            worker.request(
                {**configure, "shards": assignment[worker.name]},
                timeout=self.round_timeout_s,
            )
            for worker in fleet
        ))

        states = 0
        transitions = 0
        covered: Optional[int] = 0 if spec.symmetry else None
        group_order = (
            canonicalizer.order if canonicalizer is not None else None
        )
        recanon_skipped: Optional[int] = 0 if spec.symmetry else None
        violation: Optional[str] = None
        por_base: Dict[str, int] = {}
        shard_por: List[Optional[Dict[str, int]]] = [None] * n_shards

        def _por_totals() -> Optional[Dict[str, int]]:
            if not spec.por:
                return None
            totals = {key: por_base.get(key, 0) for key in _POR_KEYS}
            for snapshot in shard_por:
                if snapshot:
                    for key, value in snapshot.items():
                        totals[key] = totals.get(key, 0) + value
            return totals

        def _finish(result: FastExplorationResult) -> FastExplorationResult:
            checkpointer.mark_complete(asdict(result))
            return result

        inboxes: Dict[int, "array[int]"] = {}
        resumed = checkpointer.latest()
        if resumed is not None:
            states = resumed.counter("admitted")
            transitions = resumed.counter("transitions")
            if covered is not None:
                covered = resumed.counter("covered")
            if recanon_skipped is not None:
                recanon_skipped = resumed.counter("skipped")
            if spec.por:
                por_base = {
                    key: int(resumed.counters.get(key, 0))
                    for key in _POR_KEYS
                }
            for entry in resumed.frontier():
                owner = fingerprint_int(entry >> 1) % n_shards
                inboxes.setdefault(owner, array("Q")).append(entry)
            await asyncio.gather(*(
                owner_of[shard].request(
                    {"type": "load", "shard": shard},
                    (read_u64_file(
                        resumed.directory / f"visited-{shard:03d}.u64"
                    ),),
                    timeout=self.round_timeout_s,
                )
                for shard in range(n_shards)
            ))
        else:
            initial = fast_spec.initial_state()
            canonical_bit = 0
            if canonicalizer is not None:
                initial = canonicalizer.canonical(initial)
                if not canonicalizer.trivial:
                    canonical_bit = 1
            inboxes = {
                fingerprint_int(initial) % n_shards: array(
                    "Q", [(initial << 1) | canonical_bit]
                )
            }

        seq = 0
        while inboxes:
            if self._is_cancelled(record):
                raise _JobCancelled()
            seq += 1
            frontier_size = sum(len(batch) for batch in inboxes.values())
            replies = await asyncio.gather(*(
                worker.request(
                    {
                        "type": "round", "seq": seq,
                        "shards": assignment[worker.name],
                    },
                    tuple(
                        inboxes.get(shard, array("Q"))
                        for shard in assignment[worker.name]
                    ),
                    timeout=self.round_timeout_s,
                )
                for worker in fleet
            ))
            # Merge in ascending *logical shard* order — the exact
            # order the pipe driver's `for shard in range(jobs)` loop
            # merges in, so counts, violation choice, and truncation
            # points are identical by construction.
            per_shard: Dict[int, Tuple[Dict[str, Any], List["array[int]"]]] = {}
            for (reply, data) in replies:
                for shard_result in reply["results"]:
                    per_shard[int(shard_result["shard"])] = (
                        shard_result, data
                    )
            parts: Dict[int, List["array[int]"]] = {}
            for shard in range(n_shards):
                if shard not in per_shard:
                    raise WorkerDied(
                        f"no worker reported shard {shard} in round {seq}"
                    )
                shard_result, data = per_shard[shard]
                states += int(shard_result["admitted"])
                transitions += int(shard_result["transitions"])
                if shard_result.get("covered") is not None and covered is not None:
                    covered += int(shard_result["covered"])
                if recanon_skipped is not None:
                    recanon_skipped += int(shard_result.get("skipped") or 0)
                if shard_result.get("por") is not None:
                    shard_por[shard] = dict(shard_result["por"])
                if shard_result.get("violation") and violation is None:
                    violation = str(shard_result["violation"])
                for dest, payload_index in shard_result.get("outboxes", []):
                    parts.setdefault(int(dest), []).append(
                        data[int(payload_index)]
                    )
            self._publish_round(record, states, transitions, frontier_size)
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
            inboxes = {}
            for dest, contributions in parts.items():
                merged = array("Q")
                for contribution in contributions:
                    merged.extend(contribution)
                if merged:
                    inboxes[dest] = merged
            if states >= max_states and inboxes:
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
            if inboxes and checkpointer.due(states):
                await self._checkpoint(
                    checkpointer, owner_of, assignment, fleet, inboxes,
                    states, transitions, covered, recanon_skipped,
                    _por_totals(),
                )
                self._publish(record.job_id, {
                    "type": "progress", "job_id": record.job_id,
                    "progress": dict(record.progress),
                    "checkpoint": {"admitted": states, "epoch": epoch},
                })

        return _finish(FastExplorationResult(
            states=states, transitions=transitions, complete=True,
            covered_states=covered, symmetry_group_order=group_order,
            recanonicalizations_skipped=recanon_skipped,
            por_counters=_por_totals(),
        ))

    def _publish_round(
        self,
        record: JobRecord,
        states: int,
        transitions: int,
        frontier_size: int,
    ) -> None:
        now = time.time()
        previous = record.progress.get("_at")
        previous_states = record.progress.get("states", 0)
        rate = None
        if previous and now > previous:
            rate = (states - previous_states) / (now - previous)
        record.progress.update({
            "states": states,
            "transitions": transitions,
            "frontier": frontier_size,
            "states_per_s": round(rate, 1) if rate is not None else None,
            "workers": {
                worker.name: worker.describe()
                for worker in self.workers.values()
            },
            "_at": now,
        })
        # status requests read records from disk; persist live progress
        # at most once a second so they see it without per-round I/O.
        last_saved = record.progress.get("_saved_at", 0.0)
        if now - last_saved >= 1.0:
            record.progress["_saved_at"] = now
            self.queue.save(record)
        self._publish(record.job_id, {
            "type": "progress", "job_id": record.job_id,
            "progress": {
                key: value
                for key, value in record.progress.items()
                if key != "_at"
            },
        })

    async def _checkpoint(
        self,
        checkpointer: RunCheckpointer,
        owner_of: Dict[int, WorkerHandle],
        assignment: Dict[str, List[int]],
        fleet: List[WorkerHandle],
        inboxes: Dict[int, "array[int]"],
        states: int,
        transitions: int,
        covered: Optional[int],
        recanon_skipped: Optional[int],
        por_totals: Optional[Dict[str, int]],
    ) -> None:
        staging = checkpointer.begin()
        dumps = await asyncio.gather(*(
            worker.request(
                {"type": "dump", "shards": assignment[worker.name]},
                timeout=self.round_timeout_s,
            )
            for worker in fleet
            if assignment[worker.name]
        ))
        for reply, data in dumps:
            for position, shard in enumerate(reply["shards"]):
                write_u64_file(
                    staging / f"visited-{int(shard):03d}.u64",
                    iter(data[position]),
                )
        write_u64_file(
            staging / "frontier.u64",
            (
                entry
                for owner in sorted(inboxes)
                for entry in inboxes[owner]
            ),
        )
        counters: Dict[str, Any] = {
            "admitted": states,
            "transitions": transitions,
            "covered": covered if covered is not None else 0,
            "skipped": recanon_skipped if recanon_skipped is not None else 0,
        }
        if por_totals is not None:
            counters.update(por_totals)
        checkpointer.commit(staging, counters)


class JobFailed(RuntimeError):
    """A job cannot proceed (bad configuration surfaced at run time)."""


# ----------------------------------------------------------------------
# Embedding helpers: tests, benchmarks, and the CLI front-end
# ----------------------------------------------------------------------

class CoordinatorHandle:
    """A coordinator running on a background thread (tests/benchmarks)."""

    def __init__(self, state_dir: Path, **kwargs: Any) -> None:
        import threading

        self.state_dir = Path(state_dir)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._coordinator: Optional[Coordinator] = None
        self.endpoint: Optional[Tuple[str, int]] = None
        self._error: Optional[BaseException] = None
        self._kwargs = kwargs
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError(
                f"coordinator failed to start: {self._error}"
            ) from self._error
        if self.endpoint is None:
            raise RuntimeError("coordinator did not start within 30s")

    def _main(self) -> None:
        async def body() -> None:
            coordinator = Coordinator(self.state_dir, **self._kwargs)
            self._coordinator = coordinator
            self._loop = asyncio.get_running_loop()
            try:
                self.endpoint = await coordinator.start()
            finally:
                self._ready.set()
            await coordinator.serve_until_stopped()

        try:
            asyncio.run(body())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._error = exc
            self._ready.set()

    def stop(self, timeout: float = 30.0) -> None:
        loop = self._loop
        coordinator = self._coordinator
        if loop is not None and coordinator is not None and loop.is_running():
            loop.call_soon_threadsafe(coordinator.request_stop)
        self._thread.join(timeout=timeout)


async def run_coordinator(
    state_dir: Path,
    host: str = "127.0.0.1",
    port: int = 0,
    log=print,
) -> None:
    """``repro serve``'s body: run until cancelled (SIGINT)."""
    coordinator = Coordinator(state_dir, host=host, port=port, log=log)
    await coordinator.start()
    try:
        await coordinator.serve_until_stopped()
    except asyncio.CancelledError:
        await coordinator.aclose()
        raise
