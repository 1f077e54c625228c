"""Checkpoint/resume: kill a run mid-flight, resume, get the same answer.

The load-bearing property is *bit-identical recovery*: a run that dies
between BFS layers and resumes from its last committed checkpoint must
report exactly the verdicts and state/transition counts of the run that
was never interrupted — exercised here for the serial engine (a
checkpointer that raises after its first commit) and the sharded engine
(a worker process SIGKILLed after the first commit, the ISSUE's
acceptance scenario).  Around that: checkpoint-file round-trips,
torn-file detection, COMMIT-marker discipline, configuration-mismatch
refusal, and the completed-run short-circuit.
"""

import json
import os
import signal
from array import array

import pytest

import repro.checker.parallel as parallel
from repro.checker.batch import HAVE_NUMPY
from repro.checker.fast_snapshot import FastSnapshotSpec
from repro.checker.parallel import check_snapshot_classes, explore_sharded
from repro.store import (
    CheckpointError,
    CheckpointIncompatible,
    RunCheckpointer,
    StoreConfig,
    SweepCheckpoint,
    read_u64_file,
    write_u64_file,
)

WIRING = ((0, 1), (0, 1))
META = {"n": 2, "budget": None, "symmetry": False, "git_sha": "test"}


def _signature(result):
    return (
        result.states, result.transitions, result.ok, result.complete,
        result.covered_states,
    )


# ----------------------------------------------------------------------
# Checkpoint files and metadata
# ----------------------------------------------------------------------


class TestCheckpointFiles:
    def test_u64_roundtrip(self, tmp_path):
        keys = [0, 1, 2**63, 2**64 - 1] + list(range(10_000, 20_000, 7))
        path = tmp_path / "keys.u64"
        assert write_u64_file(path, iter(keys)) == len(keys)
        assert list(read_u64_file(path)) == keys

    def test_array_forms_write_the_same_bytes(self, tmp_path):
        # One array, an iterable of arrays, and arrays mixed with ints
        # (numpy scalars included) all write exactly the int stream.
        np = pytest.importorskip("numpy")
        keys = [0, 1, 2**63, 2**64 - 1] + list(range(10_000, 20_000, 7))
        expected = array("Q", keys).tobytes()
        arr = np.array(keys, dtype=np.uint64)
        forms = [
            arr,
            array("Q", keys),
            [arr[:3], array("Q", keys[3:10]), arr[10:]],
            [*keys[:5], arr[5:100], *arr[100:200], array("Q", keys[200:])],
        ]
        for position, form in enumerate(forms):
            path = tmp_path / f"form-{position}.u64"
            assert write_u64_file(path, form) == len(keys)
            assert path.read_bytes() == expected

    def test_torn_file_detected(self, tmp_path):
        path = tmp_path / "torn.u64"
        path.write_bytes(b"\x00" * 13)
        with pytest.raises(CheckpointError, match="torn"):
            read_u64_file(path)

    def test_meta_mismatch_refused(self, tmp_path):
        RunCheckpointer(tmp_path, META)
        with pytest.raises(CheckpointIncompatible, match="budget"):
            RunCheckpointer(tmp_path, {**META, "budget": 99})

    def test_git_sha_drift_only_warns(self, tmp_path):
        RunCheckpointer(tmp_path, META)
        with pytest.warns(UserWarning, match="git_sha"):
            RunCheckpointer(tmp_path, {**META, "git_sha": "other"})

    def test_uncommitted_checkpoint_is_invisible(self, tmp_path):
        checkpointer = RunCheckpointer(tmp_path, META)
        staging = checkpointer.begin()
        write_u64_file(staging / "frontier.u64", iter([1, 2]))
        # No commit: a crash here must leave "no checkpoint", not a torn
        # one.
        assert RunCheckpointer(tmp_path, META).latest() is None

    def test_commit_prunes_older_checkpoints(self, tmp_path):
        checkpointer = RunCheckpointer(tmp_path, META)
        first = checkpointer.write([1], {"admitted": 1}, [1])
        second = checkpointer.write([2], {"admitted": 2}, [1, 2])
        assert not first.directory.exists()
        assert second.directory.exists()
        latest = RunCheckpointer(tmp_path, META).latest()
        assert latest.seq == second.seq
        assert list(latest.frontier()) == [2]
        assert list(latest.visited()) == [1, 2]


# ----------------------------------------------------------------------
# Serial engine: die after the first commit, resume, same answer
# ----------------------------------------------------------------------


class _CrashAfterCommit(RunCheckpointer):
    """Raise (simulating a kill) right after the first committed write."""

    def commit(self, staging, counters):
        checkpoint = super().commit(staging, counters)
        raise KeyboardInterrupt("simulated kill after commit")
        return checkpoint  # pragma: no cover


class TestSerialResume:
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_interrupted_run_resumes_to_identical_result(
        self, tmp_path, symmetry
    ):
        spec = FastSnapshotSpec([1, 2], WIRING)
        uninterrupted = spec.explore(symmetry=symmetry)
        meta = {**META, "symmetry": symmetry}
        with pytest.raises(KeyboardInterrupt):
            spec.explore(
                symmetry=symmetry,
                checkpointer=_CrashAfterCommit(tmp_path, meta, every=500),
            )
        assert RunCheckpointer(tmp_path, meta).latest() is not None
        resumed = spec.explore(
            symmetry=symmetry,
            checkpointer=RunCheckpointer(tmp_path, meta, every=500),
        )
        assert _signature(resumed) == _signature(uninterrupted)

    def test_completed_run_short_circuits(self, tmp_path):
        spec = FastSnapshotSpec([1, 2], WIRING)
        checkpointer = RunCheckpointer(tmp_path, META, every=500)
        first = spec.explore(checkpointer=checkpointer)
        # Resuming a finished run must replay the recorded result, even
        # if the state space were to change under it.
        replayed = spec.explore(
            checkpointer=RunCheckpointer(tmp_path, META, every=500),
            max_states=1,
        )
        assert _signature(replayed) == _signature(first)

    def test_wide_states_refuse_serial_checkpointing(
        self, tmp_path, monkeypatch
    ):
        # Checkpoint files are u64 arrays; a spec whose packed states
        # exceed 64 bits must be refused up front.
        spec = FastSnapshotSpec([1, 2], WIRING)
        monkeypatch.setattr(spec, "state_bits", 70)
        with pytest.raises(ValueError, match="70 bits"):
            spec.explore(checkpointer=RunCheckpointer(tmp_path, META))


# ----------------------------------------------------------------------
# Batch engine + POR: die mid-campaign, resume, bit-identical totals
# ----------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="batch engine needs numpy")
class TestBatchPorResume:
    """The level-synchronous selector's choices depend only on the
    frontier and the checkpointed visited set, so a resumed batch+POR
    run must replay the interrupted one's selections exactly: verdict,
    state count, and every ``PORCounters`` total bit-identical."""

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_interrupted_batch_por_resumes_identically(
        self, tmp_path, symmetry
    ):
        spec = FastSnapshotSpec([1, 2], WIRING)
        kwargs = dict(engine="batch", por=True, symmetry=symmetry)
        uninterrupted = spec.explore(**kwargs)
        assert uninterrupted.por_counters is not None
        meta = {**META, "symmetry": symmetry, "por": True}
        with pytest.raises(KeyboardInterrupt):
            spec.explore(
                **kwargs,
                checkpointer=_CrashAfterCommit(tmp_path, meta, every=500),
            )
        assert RunCheckpointer(tmp_path, meta).latest() is not None
        resumed = spec.explore(
            **kwargs,
            checkpointer=RunCheckpointer(tmp_path, meta, every=500),
        )
        assert _signature(resumed) == _signature(uninterrupted)
        assert resumed.por_counters == uninterrupted.por_counters

    def test_sigkilled_sharded_batch_por_resumes_identically(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            parallel, "effective_jobs", lambda requested: requested
        )
        kwargs = dict(jobs=2, por=True, engine="batch")
        uninterrupted = explore_sharded([1, 2], WIRING, **kwargs)
        assert uninterrupted.por_counters is not None
        meta = {**META, "por": True, "jobs": 2}
        killed = []

        def kill_one_worker():
            if killed:
                return
            import multiprocessing

            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim.pid)

        with pytest.raises(RuntimeError, match="resume"):
            explore_sharded(
                [1, 2], WIRING, **kwargs,
                checkpointer=RunCheckpointer(tmp_path, meta, every=1),
                _after_checkpoint=kill_one_worker,
            )
        assert killed, "the test never reached a committed checkpoint"
        resumed = explore_sharded(
            [1, 2], WIRING, **kwargs,
            checkpointer=RunCheckpointer(tmp_path, meta, every=1),
        )
        assert _signature(resumed) == _signature(uninterrupted)
        assert resumed.por_counters == uninterrupted.por_counters


    def test_resume_at_a_flushing_cap_matches_the_uninterrupted_run(
        self, tmp_path, monkeypatch
    ):
        # At 1 KiB each batch visited set keeps 48 keys in RAM and
        # flushes the rest into its spill store, so every checkpoint
        # dumps both tiers and every resume refills both.  A serial run
        # dies after its first commit, a sharded one loses a worker.
        monkeypatch.setattr(
            parallel, "effective_jobs", lambda requested: requested
        )
        spec = FastSnapshotSpec([1, 2], WIRING)
        uninterrupted = spec.explore(engine="batch", por=True)

        def store(name):
            return StoreConfig(
                backend="spill", directory=str(tmp_path / name),
                mem_cap=1024,
            )

        meta = {**META, "por": True}
        with pytest.raises(KeyboardInterrupt):
            spec.explore(
                engine="batch", por=True, store=store("serial"),
                checkpointer=_CrashAfterCommit(
                    tmp_path / "serial-ckpt", meta, every=500
                ),
            )
        resumed = spec.explore(
            engine="batch", por=True, store=store("serial"),
            checkpointer=RunCheckpointer(
                tmp_path / "serial-ckpt", meta, every=500
            ),
        )
        assert _signature(resumed) == _signature(uninterrupted)
        assert resumed.por_counters == uninterrupted.por_counters
        assert resumed.store_counters["entries"] == resumed.states

        kwargs = dict(jobs=2, por=True, engine="batch", store=store("sharded"))
        uninterrupted = explore_sharded([1, 2], WIRING, **kwargs)
        meta = {**meta, "jobs": 2}
        commits = []
        killed = []

        def kill_one_worker():
            # The 15th layer holds about 1,500 states, so each shard's
            # dump spans both tiers.
            commits.append(1)
            if killed or len(commits) < 15:
                return
            import multiprocessing

            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim.pid)

        with pytest.raises(RuntimeError, match="resume"):
            explore_sharded(
                [1, 2], WIRING, **kwargs,
                checkpointer=RunCheckpointer(
                    tmp_path / "sharded-ckpt", meta, every=1
                ),
                _after_checkpoint=kill_one_worker,
            )
        assert killed, "the test never reached a committed checkpoint"
        resumed = explore_sharded(
            [1, 2], WIRING, **kwargs,
            checkpointer=RunCheckpointer(
                tmp_path / "sharded-ckpt", meta, every=1
            ),
        )
        assert _signature(resumed) == _signature(uninterrupted)
        assert resumed.por_counters == uninterrupted.por_counters


# ----------------------------------------------------------------------
# Sharded engine: SIGKILL a worker after a commit, resume, same answer
# ----------------------------------------------------------------------


class TestShardedKillResume:
    @pytest.fixture(autouse=True)
    def force_two_workers(self, monkeypatch):
        # A single-core host would collapse jobs to 1 (serial fallback)
        # and never exercise the sharded checkpoint protocol.
        monkeypatch.setattr(
            parallel, "effective_jobs", lambda requested: requested
        )

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_sigkilled_worker_resumes_to_identical_result(
        self, tmp_path, symmetry
    ):
        uninterrupted = explore_sharded(
            [1, 2], WIRING, jobs=2, symmetry=symmetry
        )
        meta = {**META, "symmetry": symmetry, "jobs": 2}
        killed = []

        def kill_one_worker():
            if killed:
                return
            import multiprocessing

            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim.pid)

        with pytest.raises(RuntimeError, match="resume"):
            explore_sharded(
                [1, 2], WIRING, jobs=2, symmetry=symmetry,
                checkpointer=RunCheckpointer(tmp_path, meta, every=1),
                _after_checkpoint=kill_one_worker,
            )
        assert killed, "the test never reached a committed checkpoint"
        resumed = explore_sharded(
            [1, 2], WIRING, jobs=2, symmetry=symmetry,
            checkpointer=RunCheckpointer(tmp_path, meta, every=1),
        )
        assert _signature(resumed) == _signature(uninterrupted)

    def test_exhaustive_sweep_after_kill_matches_uninterrupted(
        self, tmp_path
    ):
        # The acceptance scenario: the full exhaustive N=2 sweep, one
        # class's run killed mid-flight, everything resumed — verdicts
        # and counts identical to a sweep that never died.
        from repro.checker.fast_snapshot import canonical_wiring_classes

        classes = canonical_wiring_classes(2, 2)
        uninterrupted = [
            explore_sharded([1, 2], wiring, jobs=2) for wiring in classes
        ]
        killed = []

        def kill_one_worker():
            if killed:
                return
            import multiprocessing

            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim.pid)

        results = []
        for index, wiring in enumerate(classes):
            meta = {**META, "jobs": 2, "class": index}
            directory = tmp_path / f"class-{index:03d}"
            try:
                results.append(explore_sharded(
                    [1, 2], wiring, jobs=2,
                    checkpointer=RunCheckpointer(directory, meta, every=1),
                    _after_checkpoint=kill_one_worker,
                ))
            except RuntimeError:
                results.append(explore_sharded(
                    [1, 2], wiring, jobs=2,
                    checkpointer=RunCheckpointer(directory, meta, every=1),
                ))
        assert killed
        assert [_signature(r) for r in results] == [
            _signature(r) for r in uninterrupted
        ]

    def test_completed_sharded_run_short_circuits(self, tmp_path):
        meta = {**META, "jobs": 2}
        first = explore_sharded(
            [1, 2], WIRING, jobs=2,
            checkpointer=RunCheckpointer(tmp_path, meta, every=1),
        )
        replayed = explore_sharded(
            [1, 2], WIRING, jobs=2,
            checkpointer=RunCheckpointer(tmp_path, meta, every=1),
        )
        assert _signature(replayed) == _signature(first)


# ----------------------------------------------------------------------
# Sweep checkpoint: recorded classes replay, meta mismatches refuse
# ----------------------------------------------------------------------


class TestSweepCheckpoint:
    def test_recorded_classes_replay(self, tmp_path):
        baseline = check_snapshot_classes(2, budget=2000)
        first = check_snapshot_classes(
            2, budget=2000, sweep_dir=str(tmp_path), sweep_meta=META
        )
        replayed = check_snapshot_classes(
            2, budget=2000, sweep_dir=str(tmp_path), sweep_meta=META
        )
        assert [_signature(r) for _, r in first] == [
            _signature(r) for _, r in baseline
        ]
        assert [_signature(r) for _, r in replayed] == [
            _signature(r) for _, r in first
        ]
        sweep = SweepCheckpoint(tmp_path)
        assert len(sweep.results) == len(baseline)

    def test_sweep_meta_mismatch_refused(self, tmp_path):
        check_snapshot_classes(
            2, budget=2000, sweep_dir=str(tmp_path), sweep_meta=META
        )
        with pytest.raises(CheckpointIncompatible, match="budget"):
            check_snapshot_classes(
                2, budget=99, sweep_dir=str(tmp_path),
                sweep_meta={**META, "budget": 99},
            )


# ----------------------------------------------------------------------
# Schema drift: newer/older checkpoints refuse cleanly, never KeyError
# ----------------------------------------------------------------------


class TestSchemaDriftRefusal:
    """Resuming a checkpoint written by a different config schema —
    typically a newer version that records keys this one has never
    heard of — must refuse with a message naming the drifted keys.
    Before the compat layer, every one of these scenarios died with a
    raw ``KeyError``/``TypeError`` deep inside the engine."""

    def test_meta_unknown_key_names_it(self, tmp_path):
        RunCheckpointer(tmp_path, {**META, "quotienting": "orbit-v2"})
        with pytest.raises(
            CheckpointIncompatible,
            match=r"newer config schema\?\): quotienting",
        ):
            RunCheckpointer(tmp_path, META)

    def test_meta_with_dropped_fingerprint_key_names_it(self, tmp_path):
        # Checkpoints written while the packed engines still had a
        # fingerprint mode record the key; resuming them is refused.
        RunCheckpointer(tmp_path, {**META, "fingerprint": False})
        with pytest.raises(
            CheckpointIncompatible,
            match=r"newer config schema\?\): fingerprint",
        ):
            RunCheckpointer(tmp_path, META)

    def test_meta_missing_key_names_it(self, tmp_path):
        RunCheckpointer(tmp_path, META)
        with pytest.raises(
            CheckpointIncompatible, match="never recorded: quotienting"
        ):
            RunCheckpointer(tmp_path, {**META, "quotienting": "orbit-v2"})

    def test_missing_counter_refused_not_keyerror(self, tmp_path):
        # A mid-run checkpoint whose counters.json uses a different
        # (renamed) counter key: resume names the missing counter and
        # the keys actually recorded instead of KeyError'ing.
        spec = FastSnapshotSpec([1, 2], WIRING)
        with pytest.raises(KeyboardInterrupt):
            spec.explore(
                checkpointer=_CrashAfterCommit(tmp_path, META, every=500)
            )
        latest = RunCheckpointer(tmp_path, META, every=500).latest()
        path = latest.directory / "counters.json"
        counters = json.loads(path.read_text())
        counters["states_v2"] = counters.pop("admitted")
        path.write_text(json.dumps(counters))
        with pytest.raises(
            CheckpointIncompatible,
            match="records no 'admitted' counter .*recorded:.*states_v2",
        ):
            spec.explore(
                checkpointer=RunCheckpointer(tmp_path, META, every=500)
            )

    def test_result_unknown_field_refused(self, tmp_path):
        spec = FastSnapshotSpec([1, 2], WIRING)
        spec.explore(checkpointer=RunCheckpointer(tmp_path, META, every=500))
        path = tmp_path / "result.json"
        payload = json.loads(path.read_text())
        payload["proof_obligations"] = []
        path.write_text(json.dumps(payload))
        with pytest.raises(
            CheckpointIncompatible,
            match="newer config schema.*proof_obligations.*re-run from a"
                  " fresh",
        ):
            spec.explore(
                checkpointer=RunCheckpointer(tmp_path, META, every=500)
            )

    def test_result_missing_required_field_refused(self, tmp_path):
        spec = FastSnapshotSpec([1, 2], WIRING)
        spec.explore(checkpointer=RunCheckpointer(tmp_path, META, every=500))
        path = tmp_path / "result.json"
        payload = json.loads(path.read_text())
        del payload["states"]
        path.write_text(json.dumps(payload))
        with pytest.raises(
            CheckpointIncompatible, match="record lacks: states"
        ):
            spec.explore(
                checkpointer=RunCheckpointer(tmp_path, META, every=500)
            )

    def test_sweep_row_unknown_field_refused(self, tmp_path):
        check_snapshot_classes(
            2, budget=2000, sweep_dir=str(tmp_path), sweep_meta=META
        )
        path = tmp_path / "classes.json"
        rows = json.loads(path.read_text())
        next(iter(rows.values()))["proof_obligations"] = []
        path.write_text(json.dumps(rows))
        with pytest.raises(
            CheckpointIncompatible, match="newer config schema"
        ):
            check_snapshot_classes(
                2, budget=2000, sweep_dir=str(tmp_path), sweep_meta=META
            )

    def test_cli_resume_newer_schema_exits_cleanly(self, capsys, tmp_path):
        # The end-to-end satellite scenario: `repro check --resume` on a
        # sweep directory whose recorded rows carry fields from a newer
        # schema exits 2 with the named-keys refusal, not a traceback.
        from repro.cli import main

        argv = ["check", "--n", "3", "--budget", "200",
                "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        path = tmp_path / "classes.json"
        rows = json.loads(path.read_text())
        for row in rows.values():
            row["proof_obligations"] = []
        path.write_text(json.dumps(rows))
        assert main(["check", "--n", "3", "--budget", "200",
                     "--resume", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "error:" in out
        assert "newer config schema" in out
        assert "proof_obligations" in out
