"""One set of shard workers for a whole sharded sweep.

``repro check --jobs K --sharded`` forks its K - 1 shard workers once
(:class:`~repro.checker.parallel.ShardWorkers`) and sends them every
wiring class as a message.  A worker must build each class from its
message alone, so every class of a shared sweep must report exactly
what a standalone :func:`explore_sharded` call (which forks its own
workers) reports; failures must still end the sweep with today's
errors, leave no process or temporary store behind, and resume.
"""

import multiprocessing
import multiprocessing.process
import os
import signal
import tempfile
from dataclasses import asdict

import pytest

import repro.checker.parallel as parallel
from repro.checker.fast_snapshot import FastSnapshotSpec, canonical_wiring_classes
from repro.checker.parallel import ShardWorkers, explore_sharded
from repro.cli import main
from repro.store import StoreConfig

try:
    from repro.checker.native.loader import native_available

    _native_ok = native_available()
except Exception:  # pragma: no cover - import error == unavailable
    _native_ok = False

requires_native = pytest.mark.skipif(
    not _native_ok, reason="native kernel unavailable (no compiler)"
)

ENGINES = [
    ("scalar", "auto"),
    ("batch", "numpy"),
    pytest.param("batch", "native", marks=requires_native),
]


@pytest.fixture(autouse=True)
def lift_cpu_cap(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)


@pytest.fixture
def starts(monkeypatch):
    """Every ``Process.start`` in this process."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted_start(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", counted_start
    )
    return started


@pytest.fixture
def store_tmp(monkeypatch, tmp_path):
    """The directory temporary stores are made in."""
    directory = tmp_path / "tmp"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    return directory


def _campaign(jobs, *extra):
    return [
        "check", "--n", "3", "--budget", "3000", "--jobs", str(jobs),
        "--sharded", "--engine", "batch", "--kernel", "numpy", "--symmetry",
        *extra,
    ]


# ----------------------------------------------------------------------
# Process shape
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [2, 3])
def test_a_cli_sweep_starts_one_worker_per_remote_shard(
    jobs, monkeypatch, tmp_path, capsys, starts
):
    # Engines log "shard pid" per round to a file: a list filled in a
    # forked worker would not be visible here.
    pytest.importorskip("numpy")
    log = tmp_path / "rounds.txt"
    process_round = parallel.ShardEngine.process_round

    def logged_round(self, batch):
        with open(log, "a") as handle:
            handle.write(f"{self.shard} {os.getpid()}\n")
        return process_round(self, batch)

    monkeypatch.setattr(parallel.ShardEngine, "process_round", logged_round)
    # The perfbench n3_campaign command, on the numpy kernel.
    assert main(_campaign(
        jobs, "--por", "--por-unsafe-budget", "--store", "spill",
        "--mem-cap", "256K", "--store-dir", str(tmp_path / "store"),
        "--checkpoint-dir", str(tmp_path / "ckpt"), "--checkpoint-every",
        "1000",
    )) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10 and all(line.endswith(", OK") for line in lines)
    assert len(starts) == jobs - 1
    pids = {}
    for line in log.read_text().splitlines():
        shard, pid = map(int, line.split())
        pids.setdefault(shard, set()).add(pid)
    assert pids[0] == {os.getpid()}
    workers = [pids[shard] for shard in range(1, jobs)]
    assert all(len(shard_pids) == 1 for shard_pids in workers)
    assert len(set().union(*workers)) == jobs - 1
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Shared workers report what per-class workers report
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n, budget", [(2, None), (3, 3000)])
@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("engine, kernel", ENGINES)
@pytest.mark.parametrize("symmetry", [False, True])
@pytest.mark.parametrize("por", [False, True])
@pytest.mark.parametrize("spill", [False, True])
def test_every_class_of_a_shared_sweep_matches_a_standalone_run(
    n, budget, jobs, engine, kernel, symmetry, por, spill, store_tmp,
):
    if engine == "batch" or spill:
        pytest.importorskip("numpy")
    kwargs = dict(
        jobs=jobs, symmetry=symmetry, por=por, engine=engine, kernel=kernel,
        store=StoreConfig(backend="spill", mem_cap=4096) if spill else None,
    )
    if budget is not None:
        kwargs["max_states"] = budget
    inputs = list(range(1, n + 1))
    classes = canonical_wiring_classes(n, n)
    with ShardWorkers(jobs) as workers:
        shared = [
            asdict(explore_sharded(inputs, wiring, workers=workers, **kwargs))
            for wiring in classes
        ]
    standalone = [
        asdict(explore_sharded(inputs, wiring, **kwargs)) for wiring in classes
    ]
    assert shared == standalone
    assert list(store_tmp.iterdir()) == []


# ----------------------------------------------------------------------
# Failures end the sweep, clean up, and resume
# ----------------------------------------------------------------------

FAILING_CLASS = 1


def _uninterrupted(tmp_path, capsys, argv):
    assert main([*argv, "--checkpoint-dir", str(tmp_path / "clean")]) == 0
    return capsys.readouterr().out


def _resumed(ckpt, capsys, argv):
    assert main([*argv, "--resume", str(ckpt)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("jobs", [2, 3])
def test_a_worker_raising_mid_sweep_stops_the_sweep_and_it_resumes(
    jobs, monkeypatch, tmp_path, capsys, store_tmp
):
    pytest.importorskip("numpy")
    argv = _campaign(
        jobs, "--por", "--por-unsafe-budget", "--store", "spill",
        "--mem-cap", "4K", "--checkpoint-every", "500",
    )
    expected = _uninterrupted(tmp_path, capsys, argv)
    failing = canonical_wiring_classes(3, 3)[FAILING_CLASS]
    driver = os.getpid()
    process_round = parallel.ShardEngine.process_round

    def failing_round(self, batch):
        if os.getpid() != driver and self.spec.wiring == failing:
            raise ValueError("round failed")
        return process_round(self, batch)

    monkeypatch.setattr(parallel.ShardEngine, "process_round", failing_round)
    ckpt = tmp_path / "ckpt"
    with pytest.raises(RuntimeError, match=r"shard \d failed: ValueError"):
        main([*argv, "--checkpoint-dir", str(ckpt)])
    printed = capsys.readouterr().out.splitlines()
    assert printed == expected.splitlines()[:FAILING_CLASS]
    assert multiprocessing.active_children() == []
    assert list(store_tmp.iterdir()) == []
    monkeypatch.setattr(parallel.ShardEngine, "process_round", process_round)
    assert _resumed(ckpt, capsys, argv) == expected


@pytest.mark.parametrize("jobs", [2, 3])
def test_a_worker_killed_after_a_commit_stops_the_sweep_and_it_resumes(
    jobs, monkeypatch, tmp_path, capsys, store_tmp
):
    pytest.importorskip("numpy")
    from repro.store.checkpoint import RunCheckpointer

    argv = _campaign(
        jobs, "--por", "--por-unsafe-budget", "--store", "spill",
        "--mem-cap", "4K", "--store-dir", str(tmp_path / "store"),
        "--checkpoint-every", "500",
    )
    expected = _uninterrupted(tmp_path, capsys, argv)
    commit = RunCheckpointer.commit
    killed = []

    def killing_commit(self, staging, counters):
        commit(self, staging, counters)
        if not killed and self.directory.name == f"class-{FAILING_CLASS:03d}":
            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim.pid)

    monkeypatch.setattr(RunCheckpointer, "commit", killing_commit)
    ckpt = tmp_path / "ckpt"
    with pytest.raises(RuntimeError, match="resume from the checkpoint"):
        main([*argv, "--checkpoint-dir", str(ckpt)])
    assert killed
    printed = capsys.readouterr().out.splitlines()
    assert printed == expected.splitlines()[:FAILING_CLASS]
    assert multiprocessing.active_children() == []
    assert list(store_tmp.iterdir()) == []
    monkeypatch.setattr(RunCheckpointer, "commit", commit)
    assert _resumed(ckpt, capsys, argv) == expected


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_a_killed_workers_temporary_store_goes_with_the_set(
    engine, monkeypatch, tmp_path, store_tmp
):
    pytest.importorskip("numpy")
    from repro.store.checkpoint import RunCheckpointer

    commit = RunCheckpointer.commit
    killed = []

    def killing_commit(self, staging, counters):
        commit(self, staging, counters)
        if not killed:
            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim.pid)

    monkeypatch.setattr(RunCheckpointer, "commit", killing_commit)
    with pytest.raises(RuntimeError, match="resume from the checkpoint"):
        explore_sharded(
            (1, 2, 3), canonical_wiring_classes(3, 3)[FAILING_CLASS], jobs=3,
            max_states=3000, symmetry=True, engine=engine, kernel="numpy",
            store=StoreConfig(backend="spill", mem_cap=4096),
            checkpointer=RunCheckpointer(tmp_path / "ckpt", {}, every=500),
        )
    assert killed
    assert multiprocessing.active_children() == []
    assert list(store_tmp.iterdir()) == []


def test_a_completed_sweep_resumes_without_starting_a_worker(
    tmp_path, capsys, starts
):
    pytest.importorskip("numpy")
    argv = _campaign(2)
    expected = _uninterrupted(tmp_path, capsys, argv)
    starts.clear()
    assert _resumed(tmp_path / "clean", capsys, argv) == expected
    assert starts == []


# ----------------------------------------------------------------------
# A host that cannot fork runs every class serially
# ----------------------------------------------------------------------

def test_a_forkless_host_runs_every_class_serially(monkeypatch):
    attempts = []

    class RefusedProcess:
        def __init__(self, **kwargs):
            pass

        def start(self):
            attempts.append(self)
            raise OSError("no fork here")

    class Forkless:
        Pipe = staticmethod(multiprocessing.Pipe)
        Process = RefusedProcess

    monkeypatch.setattr(parallel, "_mp_context", Forkless)
    classes = canonical_wiring_classes(3, 3)[:4]
    with ShardWorkers(2) as workers:
        sharded = [
            asdict(explore_sharded(
                [1, 2, 3], wiring, jobs=2, max_states=2_000, symmetry=True,
                workers=workers,
            ))
            for wiring in classes
        ]
        assert workers.forkless
    serial = [
        asdict(FastSnapshotSpec([1, 2, 3], wiring).explore(
            max_states=2_000, symmetry=True
        ))
        for wiring in classes
    ]
    assert sharded == serial
    assert len(attempts) == 1
