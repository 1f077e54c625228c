"""The distributed checking service: protocol, jobs, and elasticity.

The load-bearing property mirrors PR 4's: *bit-identical verdicts*.  A
campaign submitted to a coordinator and explored by a worker fleet must
report exactly what a serial run of the same configuration reports —
field for field, across engines and reductions, **and across worker
membership changes**: a worker SIGKILLed mid-run whose shards are taken
over by a freshly joined worker loses at most one checkpoint interval
and changes nothing in the final result.

Around that: the length-framed wire protocol (round-trips, reserved
keys, size guards, truncation vs clean close), the persisted job queue
(unknown-key refusal both ways, monotonic ids, requeue-on-restart,
cancel), heartbeat progress lines, per-worker statistics, and the
service CLI.
"""

import json
import multiprocessing
import os
import signal
import time
from array import array
from dataclasses import asdict

import pytest

from repro.checker.parallel import check_snapshot_classes, class_key
from repro.cli import main
from repro.service.coordinator import CoordinatorHandle
from repro.service.heartbeat import Heartbeat, current_rss_bytes, format_bytes
from repro.service.jobs import JobError, JobQueue, JobRecord, JobSpec
from repro.service.protocol import (
    ConnectionClosed,
    MAX_HEADER_BYTES,
    ProtocolError,
    SyncFrameIO,
    bytes_to_payload,
    decode_header,
    encode_frame,
    payload_to_bytes,
)
from repro.service.transport import ServiceClient, ServiceError
from repro.service.worker import run_worker

try:
    from repro.checker.batch import HAVE_NUMPY
except Exception:  # pragma: no cover
    HAVE_NUMPY = False


def _quiet(line):
    pass


def _spawn_worker(host, port, name):
    ctx = multiprocessing.get_context("spawn")
    process = ctx.Process(
        target=run_worker, args=(host, port, name),
        kwargs={"emit": _quiet}, daemon=True,
    )
    process.start()
    return process


@pytest.fixture
def coordinator(tmp_path):
    handle = CoordinatorHandle(tmp_path / "state", log=_quiet)
    spawned = []

    def add_worker(name):
        process = _spawn_worker(*handle.endpoint, name)
        spawned.append(process)
        return process

    handle.add_worker = add_worker
    try:
        yield handle
    finally:
        handle.stop()
        for process in spawned:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()


def _serial_rows(**kwargs):
    return {
        class_key(wiring): asdict(result)
        for wiring, result in check_snapshot_classes(2, **kwargs)
    }


def _service_rows(record):
    return {row["class"]: row["result"] for row in record.rows}


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip_with_payloads(self):
        header = {"type": "round", "seq": 7, "shards": [0, 2]}
        payloads = [array("Q", [1, 2, 2**63, 2**64 - 1]), array("Q")]
        encoded = encode_frame(header, payloads)
        length = int.from_bytes(encoded[:4], "big")
        decoded, counts = decode_header(encoded[4:4 + length])
        assert decoded == header
        assert counts == [4, 0]
        rest = encoded[4 + length:]
        assert list(bytes_to_payload(rest)) == list(payloads[0])

    def test_payload_accepts_lists_bytes_and_arrays(self):
        expected = payload_to_bytes(array("Q", [5, 6]))
        assert payload_to_bytes([5, 6]) == expected
        assert payload_to_bytes(expected) == expected
        if HAVE_NUMPY:
            import numpy as np

            assert payload_to_bytes(np.array([5, 6], dtype=np.uint64)) == expected

    def test_reserved_header_key_refused(self):
        with pytest.raises(ProtocolError, match="reserved"):
            encode_frame({"#payloads": []})

    def test_oversized_header_refused(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_HEADER_BYTES + 1)})

    def test_misaligned_binary_payload_refused(self):
        with pytest.raises(ProtocolError, match="multiple of 8"):
            payload_to_bytes(b"\x00" * 9)

    def test_malformed_payload_counts_refused(self):
        with pytest.raises(ProtocolError, match="#payloads"):
            decode_header(b'{"#payloads": [-1]}')

    def test_non_object_header_refused(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_header(b'[1, 2]')

    def test_sync_truncation_vs_clean_close(self):
        import socket as socket_mod

        a, b = socket_mod.socketpair()
        io_a, io_b = SyncFrameIO(a), SyncFrameIO(b)
        io_a.send({"type": "ping"})
        header, payloads = io_b.recv()
        assert header == {"type": "ping"} and payloads == []
        # A partial frame then death: mid-frame truncation is an error...
        a.sendall(b"\x00\x00")
        a.close()
        with pytest.raises(ProtocolError, match="truncated"):
            io_b.recv()
        io_b.close()
        # ...while EOF at a frame boundary is a clean close.
        c, d = socket_mod.socketpair()
        c.close()
        with pytest.raises(ConnectionClosed):
            SyncFrameIO(d).recv()
        d.close()


# ----------------------------------------------------------------------
# Heartbeat progress lines
# ----------------------------------------------------------------------


class TestHeartbeat:
    def test_emits_on_cadence_with_rate_and_rss(self):
        clock = iter([0.0, 1.0, 61.0, 61.5, 130.0])
        lines = []
        heartbeat = Heartbeat(
            60.0, emit=lines.append, clock=lambda: next(clock)
        )
        heartbeat.tick(10, frontier=4, transitions=20)   # t=1: too soon
        heartbeat.tick(100, frontier=7, transitions=300)  # t=61: emits
        heartbeat.tick(110, frontier=7, transitions=310)  # t=61.5: too soon
        heartbeat.tick(400, frontier=2, transitions=900)  # t=130: emits
        assert len(lines) == 2
        assert "states=100" in lines[0] and "frontier=7" in lines[0]
        assert "(+100" in lines[0] and "rss=" in lines[0]
        assert "states=400" in lines[1] and "(+300" in lines[1]

    def test_label_appears_in_lines(self):
        clock = iter([0.0, 10.0])
        lines = []
        Heartbeat(
            1.0, emit=lines.append, clock=lambda: next(clock),
            label="class-001",
        ).tick(5)
        assert "[heartbeat class-001]" in lines[0]

    def test_rejects_nonpositive_cadence(self):
        with pytest.raises(ValueError):
            Heartbeat(0)

    def test_rss_and_format_helpers(self):
        assert current_rss_bytes() > 0
        assert format_bytes(512) == "512B"
        assert format_bytes(2 * 1024 * 1024) == "2.0MiB"

    def test_cli_check_heartbeat_prints_progress(self, capsys):
        assert main([
            "check", "--n", "3", "--budget", "200",
            "--heartbeat", "0.000001",
        ]) == 0
        captured = capsys.readouterr()
        assert "[heartbeat" in captured.err
        assert "states=" in captured.err


# ----------------------------------------------------------------------
# Job specs and the persisted queue
# ----------------------------------------------------------------------


class TestJobs:
    def test_spec_roundtrip(self):
        spec = JobSpec(n=2, symmetry=True, engine="batch", shards=8)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_spec_keys_refused_with_names(self):
        with pytest.raises(JobError, match="frobnicate"):
            JobSpec.from_dict({"n": 2, "frobnicate": True})

    def test_fingerprint_spec_key_refused(self):
        # Records persisted before the packed engines dropped
        # fingerprint mode carry the key; they are refused, not
        # silently reinterpreted.
        with pytest.raises(JobError, match="fingerprint"):
            JobSpec.from_dict({"n": 2, "fingerprint": False})

    def test_por_with_budget_refused(self):
        with pytest.raises(JobError, match="exhaustive"):
            JobSpec(por=True, budget=100).validate()

    def test_semantic_meta_excludes_operational_knobs(self):
        meta = JobSpec(store="spill", checkpoint_every=7).meta()
        assert "store" not in meta and "checkpoint_every" not in meta
        assert meta["shards"] == JobSpec().shards

    def test_queue_ids_monotonic_across_instances(self, tmp_path):
        queue = JobQueue(tmp_path)
        first = queue.submit(JobSpec())
        second = JobQueue(tmp_path).submit(JobSpec())
        assert [first.job_id, second.job_id] == ["job-000001", "job-000002"]

    def test_unknown_record_keys_refused(self, tmp_path):
        queue = JobQueue(tmp_path)
        record = queue.submit(JobSpec())
        payload = record.to_dict()
        payload["surprise"] = 1
        with pytest.raises(JobError, match="surprise"):
            JobRecord.from_dict(payload)

    def test_requeue_interrupted(self, tmp_path):
        queue = JobQueue(tmp_path)
        record = queue.submit(JobSpec())
        record.state = "running"
        queue.save(record)
        assert JobQueue(tmp_path).requeue_interrupted() == [record.job_id]
        assert queue.get(record.job_id).state == "queued"

    def test_cancel_queued_is_immediate(self, tmp_path):
        queue = JobQueue(tmp_path)
        record = queue.submit(JobSpec())
        assert queue.request_cancel(record.job_id).state == "cancelled"

    def test_malformed_job_id_refused(self, tmp_path):
        with pytest.raises(JobError, match="malformed"):
            JobQueue(tmp_path).get("../../etc/passwd")


# ----------------------------------------------------------------------
# End to end: service verdicts == serial verdicts, field for field
# ----------------------------------------------------------------------


class TestServiceConformance:
    def _run_and_compare(self, coordinator, spec, **serial_kwargs):
        coordinator.add_worker("w0")
        coordinator.add_worker("w1")
        with ServiceClient(*coordinator.endpoint) as client:
            job_id = client.submit(spec)
            record = client.wait(job_id, timeout=120)
        assert record.state == "done", record.error
        assert _service_rows(record) == _serial_rows(**serial_kwargs)
        return record

    def test_exhaustive_n2_matches_serial(self, coordinator):
        self._run_and_compare(coordinator, JobSpec(n=2, shards=4))

    def test_symmetry_and_por_match_pipe_sharded(
        self, coordinator, monkeypatch
    ):
        # Sharded C3 (cycle proviso) trusts only locally-owned novelty,
        # so POR counts depend on the logical partition — the
        # bit-identical baseline is the *pipe*-sharded engine at the
        # same shard count, plus verdict conformance with serial.
        import repro.checker.parallel as parallel
        from repro.checker.fast_snapshot import canonical_wiring_classes
        from repro.checker.parallel import explore_sharded

        monkeypatch.setattr(
            parallel, "effective_jobs", lambda requested: requested
        )
        pipe_rows = {}
        for wiring in canonical_wiring_classes(2, 2):
            result = explore_sharded(
                [1, 2], wiring, jobs=3, symmetry=True, por=True,
            )
            assert result.ok
            pipe_rows[class_key(wiring)] = asdict(result)
        coordinator.add_worker("w0")
        coordinator.add_worker("w1")
        with ServiceClient(*coordinator.endpoint) as client:
            job_id = client.submit(
                JobSpec(n=2, shards=3, symmetry=True, por=True)
            )
            record = client.wait(job_id, timeout=120)
        assert record.state == "done", record.error
        assert _service_rows(record) == pipe_rows

    @pytest.mark.skipif(not HAVE_NUMPY, reason="batch engine needs numpy")
    def test_batch_engine_matches_pipe_sharded(
        self, coordinator, monkeypatch
    ):
        # Symmetry runs report recanonicalizations_skipped, a sharding
        # artifact (boundary states arriving pre-canonicalized), so the
        # field-for-field baseline is again the pipe engine at the same
        # shard count.
        import repro.checker.parallel as parallel
        from repro.checker.fast_snapshot import canonical_wiring_classes
        from repro.checker.parallel import explore_sharded

        monkeypatch.setattr(
            parallel, "effective_jobs", lambda requested: requested
        )
        pipe_rows = {
            class_key(wiring): asdict(explore_sharded(
                [1, 2], wiring, jobs=4, engine="batch", symmetry=True,
            ))
            for wiring in canonical_wiring_classes(2, 2)
        }
        coordinator.add_worker("w0")
        coordinator.add_worker("w1")
        with ServiceClient(*coordinator.endpoint) as client:
            job_id = client.submit(
                JobSpec(n=2, shards=4, engine="batch", symmetry=True)
            )
            record = client.wait(job_id, timeout=120)
        assert record.state == "done", record.error
        assert _service_rows(record) == pipe_rows

    def test_budgeted_run_truncates_like_fixed_partition(
        self, coordinator, monkeypatch
    ):
        # A budget truncates at BFS-layer boundaries (deterministic for
        # a fixed logical partition, unlike the serial engine's exact
        # mid-layer cut) — so the field-for-field baseline is the pipe
        # engine at the same shard count.
        import repro.checker.parallel as parallel
        from repro.checker.fast_snapshot import canonical_wiring_classes
        from repro.checker.parallel import explore_sharded

        monkeypatch.setattr(
            parallel, "effective_jobs", lambda requested: requested
        )
        pipe_rows = {
            class_key(wiring): asdict(explore_sharded(
                [1, 2], wiring, jobs=2, max_states=500,
            ))
            for wiring in canonical_wiring_classes(2, 2)
        }
        coordinator.add_worker("w0")
        coordinator.add_worker("w1")
        with ServiceClient(*coordinator.endpoint) as client:
            job_id = client.submit(JobSpec(n=2, shards=2, budget=500))
            record = client.wait(job_id, timeout=120)
        assert record.state == "done", record.error
        assert _service_rows(record) == pipe_rows

    def test_progress_and_worker_stats_reported(self, coordinator):
        record = self._run_and_compare(coordinator, JobSpec(n=2, shards=4))
        assert record.progress["classes_done"] == len(record.rows)
        assert record.progress["states"] > 0
        with ServiceClient(*coordinator.endpoint) as client:
            workers = client.workers()
        assert {w["name"] for w in workers} == {"w0", "w1"}
        from repro.analysis import aggregate_service_statistics

        stats = aggregate_service_statistics(workers, wall_s=1.0)
        assert stats.states == sum(w.get("states", 0) for w in workers)
        assert "worker(s)" in stats.summary()

    def test_invalid_spec_refused_at_submission(self, coordinator):
        with ServiceClient(*coordinator.endpoint) as client:
            with pytest.raises(ServiceError, match="exhaustive"):
                client.submit(JobSpec(n=2, por=True, budget=10))

    def test_cancel_running_job(self, coordinator):
        coordinator.add_worker("w0")
        with ServiceClient(*coordinator.endpoint) as client:
            job_id = client.submit(JobSpec(n=2, round_delay_ms=200))
            deadline = time.monotonic() + 30
            while client.status(job_id)["job"]["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.05)
            client.cancel(job_id)
            record = client.wait(job_id, timeout=30)
        assert record.state == "cancelled"


# ----------------------------------------------------------------------
# Elasticity: SIGKILL a worker mid-run, join a fresh one, same verdicts
# ----------------------------------------------------------------------


class TestWorkerElasticity:
    def _await_first_commit(self, state_dir, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            commits = list(state_dir.glob("jobs/job-*/class-*/ckpt-*/COMMIT"))
            if commits:
                return commits
            time.sleep(0.02)
        raise AssertionError("no checkpoint committed within the timeout")

    def test_sigkilled_worker_replaced_by_fresh_join(self, coordinator):
        victim = coordinator.add_worker("victim")
        coordinator.add_worker("survivor")
        with ServiceClient(*coordinator.endpoint) as client:
            # round_delay_ms slows every round so the kill lands
            # mid-class deterministically; checkpoint_every=1 commits at
            # every BFS layer, so at most one layer of work is lost.
            job_id = client.submit(JobSpec(
                n=2, shards=4, checkpoint_every=1, round_delay_ms=100,
            ))
            self._await_first_commit(coordinator.state_dir)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            coordinator.add_worker("replacement")
            record = client.wait(job_id, timeout=180)
        assert record.state == "done", record.error
        assert _service_rows(record) == _serial_rows()

    def test_sole_worker_killed_job_waits_for_next_join(self, coordinator):
        victim = coordinator.add_worker("only")
        with ServiceClient(*coordinator.endpoint) as client:
            job_id = client.submit(JobSpec(
                n=2, shards=2, checkpoint_every=1, round_delay_ms=100,
            ))
            self._await_first_commit(coordinator.state_dir)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            # The fleet is empty now; the job must park, not fail.
            time.sleep(1.0)
            assert client.status(job_id)["job"]["state"] == "running"
            coordinator.add_worker("late-joiner")
            record = client.wait(job_id, timeout=180)
        assert record.state == "done", record.error
        assert _service_rows(record) == _serial_rows()


# ----------------------------------------------------------------------
# Coordinator restart: persisted queue + checkpoints resume the job
# ----------------------------------------------------------------------


class TestCoordinatorRestart:
    def test_interrupted_job_requeues_and_finishes(self, tmp_path):
        state_dir = tmp_path / "state"
        queue = JobQueue(state_dir)
        record = queue.submit(JobSpec(n=2, shards=2))
        record.state = "running"  # as if a previous coordinator died
        queue.save(record)
        handle = CoordinatorHandle(state_dir, log=_quiet)
        process = _spawn_worker(*handle.endpoint, "w0")
        try:
            with ServiceClient(*handle.endpoint) as client:
                finished = client.wait(record.job_id, timeout=120)
            assert finished.state == "done", finished.error
            assert _service_rows(finished) == _serial_rows()
        finally:
            handle.stop()
            process.join(timeout=10)
            if process.is_alive():
                process.kill()


# ----------------------------------------------------------------------
# Service CLI
# ----------------------------------------------------------------------


class TestServiceCli:
    def test_submit_wait_status_result_roundtrip(
        self, coordinator, capsys
    ):
        coordinator.add_worker("w0")
        state_dir = str(coordinator.state_dir)
        assert main([
            "submit", "--state-dir", state_dir, "--n", "2", "--wait",
        ]) == 0
        out = capsys.readouterr().out
        assert "submitted job-000001" in out
        assert out.count("OK") == 2 and "VIOLATED" not in out
        assert main(["status", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "job-000001: done" in out and "w0" in out
        assert main([
            "result", "--state-dir", state_dir, "job-000001", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert _service_rows(JobRecord.from_dict(payload)) == _serial_rows()

    def test_cancel_command(self, coordinator, capsys):
        state_dir = str(coordinator.state_dir)
        assert main(["submit", "--state-dir", state_dir]) == 0
        capsys.readouterr()
        assert main(["cancel", "--state-dir", state_dir, "job-000001"]) == 0
        # The job may still be mid-pickup ("cancel requested") or already
        # terminal ("cancelled") depending on the runner's timing.
        assert "cancel" in capsys.readouterr().out

    def test_result_unknown_job_errors(self, coordinator, capsys):
        assert main([
            "result", "--state-dir", str(coordinator.state_dir),
            "job-999999",
        ]) == 2
        assert "no such job" in capsys.readouterr().out

    def test_missing_endpoint_reported(self, tmp_path, capsys):
        assert main([
            "status", "--state-dir", str(tmp_path / "nowhere"),
        ]) == 2
        assert "repro serve" in capsys.readouterr().out

    def test_worker_gives_up_after_reconnect_attempts(self, capsys):
        assert main([
            "worker", "--connect", "127.0.0.1:1",
            "--reconnect-attempts", "0",
        ]) == 1
        assert "giving up" in capsys.readouterr().out
