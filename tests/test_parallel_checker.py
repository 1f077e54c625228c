"""The parallel exploration engine and the fingerprint primitives.

Three contracts, each load-bearing for experiment E4's verdicts:

- **conformance** — the class-parallel sweep, the frontier-sharded
  engine, and the generic explorer's fingerprint mode report exactly
  what the serial object-encoded explorer reports
  (states/transitions/verdict on exhaustive runs; verdicts on budgeted
  ones);
- **determinism** — two runs with the same ``jobs`` are identical, so
  parallel reports are reproducible artifacts, not races;
- **budget semantics** — ``max_states`` caps admissions exactly, the
  outer loop short-circuits, and the dropped work is visible as
  ``truncated_transitions`` instead of silently vanishing.
"""

from array import array
from dataclasses import asdict

import pytest

from repro.checker import Explorer, SystemSpec, parallel
from repro.checker.fast_snapshot import (
    FastSnapshotSpec,
    canonical_wiring_classes,
)
from repro.checker.fingerprint import (
    collision_probability,
    fingerprint_int,
    fingerprint_state,
    splitmix64,
)
from repro.checker.parallel import (
    ShardedRun,
    check_snapshot_classes,
    explore_sharded,
    ordered_parallel_map,
)
from repro.checker.properties import SNAPSHOT_SAFETY
from repro.core import SnapshotMachine
from repro.memory.wiring import WiringAssignment
from repro.store.checkpoint import RunCheckpointer

#: Class 1 of ``canonical_wiring_classes(3, 3)`` — the single-class
#: workload for sharded/determinism tests.
N3_CLASS = ((0, 1, 2), (0, 1, 2), (1, 2, 0))

_SEEDED_MESSAGE = "seeded violation: a view saw every input"


def _square(value):  # module-level: pool workers must pickle it
    return value * value


def _seed_fast_violation(monkeypatch):
    """Flag any state where some view already contains every input.

    The snapshot algorithm is actually safe, so violation-path coverage
    needs a seeded fault; a full view appears a few BFS layers in, well
    inside every budget used here.  Patching the class before any
    worker starts means fork-started workers inherit the seeded check;
    skip where fork isn't available (the parallel engines would run
    unpatched).
    """
    import multiprocessing

    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        pytest.skip("seeded-violation injection requires fork workers")
    original = FastSnapshotSpec.check_outputs

    def seeded(self, state):
        if any(
            self.view_of(state, pid) == self.k_mask
            for pid in range(self.n)
        ):
            return _SEEDED_MESSAGE
        return original(self, state)

    monkeypatch.setattr(FastSnapshotSpec, "check_outputs", seeded)


def _stats(result):
    return (result.states, result.transitions, result.ok, result.complete)


# ----------------------------------------------------------------------
# Fingerprint primitives
# ----------------------------------------------------------------------

class TestFingerprintPrimitives:
    def test_splitmix64_is_a_64_bit_bijection_sample(self):
        digests = {splitmix64(value) for value in range(2_000)}
        assert len(digests) == 2_000  # no collisions on the sample
        assert all(0 <= digest < 2 ** 64 for digest in digests)
        assert splitmix64(42) == splitmix64(42)

    def test_fingerprint_int_folds_wide_ints(self):
        wide = (1 << 200) | (1 << 64) | 7
        assert fingerprint_int(wide) == fingerprint_int(wide)
        assert fingerprint_int(wide) != fingerprint_int(wide ^ 1)
        assert 0 <= fingerprint_int(wide) < 2 ** 64
        # Limb-folded, so equal low limbs with different high limbs differ.
        assert fingerprint_int(7) != fingerprint_int((1 << 64) | 7)

    def test_fingerprint_state_stable_within_process(self):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        state = spec.initial_state()
        assert fingerprint_state(state) == fingerprint_state(state)

    def test_collision_probability_birthday_shape(self):
        assert collision_probability(0) == 0.0
        assert collision_probability(1) == 0.0
        million = collision_probability(10 ** 6)
        assert 0 < million < 1e-6
        assert million < collision_probability(10 ** 8)


# ----------------------------------------------------------------------
# Class-grain conformance (check_snapshot_classes)
# ----------------------------------------------------------------------

class TestClassGrainConformance:
    def test_n2_parallel_and_serial_match_generic(self):
        parallel_rows = check_snapshot_classes(2, jobs=2)
        serial_rows = check_snapshot_classes(2, jobs=1)
        assert len(parallel_rows) == len(serial_rows) == 2
        for (wiring, result), (_, serial_result) in zip(
            parallel_rows, serial_rows
        ):
            spec = SystemSpec(
                SnapshotMachine(2), [1, 2],
                WiringAssignment.from_permutations(wiring),
            )
            generic = Explorer(spec, SNAPSHOT_SAFETY).run()
            assert generic.ok and result.ok and serial_result.ok
            assert (generic.states, generic.transitions) == (
                result.states, result.transitions
            ) == (serial_result.states, serial_result.transitions)

    def test_n3_budgeted_sweep_identical_across_jobs(self):
        serial = check_snapshot_classes(3, budget=4_000, jobs=1)
        parallel = check_snapshot_classes(3, budget=4_000, jobs=2)
        assert [(w, _stats(r)) for w, r in serial] == [
            (w, _stats(r)) for w, r in parallel
        ]
        assert all(not r.complete and r.states == 4_000 for _, r in serial)

    def test_n3_seeded_violation_verdicts_agree(self, monkeypatch):
        _seed_fast_violation(monkeypatch)
        serial = check_snapshot_classes(3, budget=30_000, jobs=1)
        parallel = check_snapshot_classes(3, budget=30_000, jobs=2)
        verdicts = [(r.ok, r.violation) for _, r in serial]
        assert all(not ok for ok, _ in verdicts)
        assert all(v == _SEEDED_MESSAGE for _, v in verdicts)
        assert verdicts == [(r.ok, r.violation) for _, r in parallel]


# ----------------------------------------------------------------------
# Frontier-sharded conformance (explore_sharded)
# ----------------------------------------------------------------------

class TestShardedConformance:
    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize(
        "wiring", canonical_wiring_classes(2, 2), ids=str
    )
    def test_n2_exhaustive_partition_invariant(
        self, wiring, jobs, monkeypatch
    ):
        # jobs=3 is the driver's shard 0 plus two forked workers.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        serial = FastSnapshotSpec([1, 2], wiring).explore()
        sharded = explore_sharded([1, 2], wiring, jobs=jobs)
        assert serial.complete
        assert _stats(serial) == _stats(sharded)

    def test_seeded_violation_verdict_matches_serial(self, monkeypatch):
        _seed_fast_violation(monkeypatch)
        wiring = canonical_wiring_classes(2, 2)[0]
        serial = FastSnapshotSpec([1, 2], wiring).explore()
        sharded = explore_sharded([1, 2], wiring, jobs=2)
        assert not serial.ok and not sharded.ok
        assert serial.violation == sharded.violation == _SEEDED_MESSAGE

    def test_budget_stops_at_layer_boundary_with_truncation(self):
        result = explore_sharded([1, 2, 3], N3_CLASS, jobs=2, max_states=2_000)
        assert not result.complete
        assert result.states >= 2_000
        assert result.truncated_transitions > 0
        assert result.ok

    def test_workers_load_the_drivers_kernel_without_compiling(
        self, monkeypatch, tmp_path
    ):
        # Every process builds its own class setup, and only the driver
        # compiles: into an empty cache, when it resolves the kernel
        # before it sends the class.
        # Builds are logged with their pid to a file: a list filled in a
        # worker would not be visible here.
        pytest.importorskip("numpy")
        import os

        import repro.checker.batch as batch_mod
        import repro.checker.native.build as build
        import repro.checker.native.loader as loader
        import repro.checker.parallel as parallel_mod

        if not loader.native_available():
            pytest.skip("needs a C compiler")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(loader, "_loaded", {})
        log = tmp_path / "builds.txt"

        def logged(kind, function, name=lambda result: ""):
            def wrapper(*args, **kwargs):
                result = function(*args, **kwargs)
                with open(log, "a") as handle:
                    handle.write(f"{kind} {os.getpid()} {name(result)}\n")
                return result

            return wrapper

        monkeypatch.setattr(
            batch_mod, "make_kernel",
            logged("kernel", batch_mod.make_kernel, lambda k: k.kernel_name),
        )
        monkeypatch.setattr(
            build.subprocess, "run", logged("compile", build.subprocess.run)
        )
        monkeypatch.setattr(
            parallel_mod, "effective_jobs", lambda requested: requested
        )
        result = explore_sharded(
            [1, 2, 3], N3_CLASS, jobs=3, max_states=500, engine="batch",
            kernel="auto", symmetry=True,
        )
        assert result.ok
        driver = os.getpid()
        builds = sorted(
            (kind, int(pid) == driver, name)
            for kind, pid, name in (
                line.split(" ") for line in log.read_text().splitlines()
            )
        )
        assert builds == [
            ("compile", True, ""),
            ("kernel", False, "native"),
            ("kernel", False, "native"),
            ("kernel", True, "native"),
            ("kernel", True, "native"),
        ]

    def test_spawn_started_workers_rebuild_the_class_setup(
        self, monkeypatch
    ):
        # Without fork, the class setup crosses to each worker as its
        # construction parameters (a native library handle does not
        # pickle) and is rebuilt there, to the same result.
        pytest.importorskip("numpy")
        import multiprocessing

        import repro.checker.parallel as parallel_mod

        monkeypatch.setattr(
            parallel_mod, "effective_jobs", lambda requested: requested
        )

        def run():
            return asdict(explore_sharded(
                [1, 2, 3], N3_CLASS, jobs=2, max_states=500,
                engine="batch", kernel="auto", symmetry=True,
            ))

        forked = run()
        monkeypatch.setattr(
            parallel_mod, "_mp_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        assert run() == forked


# ----------------------------------------------------------------------
# Process shape: the driver expands shard 0, K - 1 workers the rest
# ----------------------------------------------------------------------

class TestShardedProcessShape:
    @pytest.fixture(autouse=True)
    def lift_cpu_cap(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_each_class_forks_only_the_shards_past_zero(
        self, jobs, monkeypatch, tmp_path
    ):
        # Engines log "shard pid" per round to a file: a list filled in
        # a forked worker would not be visible here.
        import multiprocessing.process
        import os

        log = tmp_path / "rounds.txt"
        process_round = parallel.ShardEngine.process_round

        def logged_round(self, batch):
            with open(log, "a") as handle:
                handle.write(f"{self.shard} {os.getpid()}\n")
            return process_round(self, batch)

        monkeypatch.setattr(
            parallel.ShardEngine, "process_round", logged_round
        )
        starts = []
        start = multiprocessing.process.BaseProcess.start

        def counted_start(self):
            starts.append(self)
            return start(self)

        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", counted_start
        )
        driver = os.getpid()
        for wiring in canonical_wiring_classes(2, 2):
            log.write_text("")
            starts.clear()
            result = explore_sharded([1, 2], wiring, jobs=jobs)
            assert result.ok and result.complete
            assert len(starts) == jobs - 1
            pids = {}
            for line in log.read_text().splitlines():
                shard, pid = map(int, line.split())
                pids.setdefault(shard, set()).add(pid)
            assert pids[0] == {driver}
            remote = [pids.get(shard, set()) for shard in range(1, jobs)]
            assert all(len(shard_pids) == 1 for shard_pids in remote)
            workers = set().union(*remote)
            assert len(workers) == jobs - 1 and driver not in workers

    def test_a_failing_local_round_stops_every_worker(
        self, monkeypatch
    ):
        pytest.importorskip("numpy")  # the spill store
        import multiprocessing
        import os

        from repro.store.base import StoreConfig

        driver = os.getpid()
        owned = []
        rounds = []
        init = parallel.ShardEngine.__init__
        process_round = parallel.ShardEngine.process_round

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if os.getpid() == driver:
                owned.append(self.seen.owned_directory)

        def failing_round(self, batch):
            if os.getpid() == driver:
                rounds.append(self.shard)
                if len(rounds) == 3:
                    raise ValueError("round 3 failed")
            return process_round(self, batch)

        monkeypatch.setattr(parallel.ShardEngine, "__init__", recording_init)
        monkeypatch.setattr(
            parallel.ShardEngine, "process_round", failing_round
        )
        with pytest.raises(ValueError, match="round 3 failed"):
            explore_sharded(
                [1, 2, 3], N3_CLASS, jobs=3, max_states=5_000,
                store=StoreConfig(backend="spill", mem_cap=1 << 18),
            )
        assert rounds == [0, 0, 0]
        assert multiprocessing.active_children() == []
        [directory] = owned
        assert directory is not None and not directory.exists()

    def test_fork_failure_falls_back_to_serial_with_the_heartbeat(
        self, monkeypatch
    ):
        import multiprocessing

        from repro.service.heartbeat import Heartbeat

        class RefusedProcess:
            def __init__(self, **kwargs):
                pass

            def start(self):
                raise OSError("no fork here")

        class Forkless:
            Pipe = staticmethod(multiprocessing.Pipe)
            Process = RefusedProcess

        monkeypatch.setattr(parallel, "_mp_context", Forkless)
        # Each clock read moves one interval on, so every tick emits.
        now = iter(range(10**6))
        lines = []
        heartbeat = Heartbeat(
            1.0, emit=lines.append, clock=lambda: float(next(now))
        )
        result = explore_sharded(
            [1, 2, 3], N3_CLASS, jobs=2, max_states=2_000,
            heartbeat=heartbeat,
        )
        serial = FastSnapshotSpec([1, 2, 3], N3_CLASS).explore(
            max_states=2_000
        )
        assert asdict(result) == asdict(serial)
        assert lines


# ----------------------------------------------------------------------
# Forked workers import nothing the driver has not
# ----------------------------------------------------------------------

# Run in a fresh interpreter: this test process has imported every
# module already.  Each forked worker writes the repro modules it holds
# when it closes its spill store; the driver records its own before
# every fork.
_FORK_IMPORTS_SCRIPT = """
import json, multiprocessing.process, os, sys
from repro.checker import parallel
from repro.store.base import StoreConfig

grain, out = sys.argv[1], sys.argv[2]
driver = os.getpid()

def repro_modules():
    return sorted(name for name in sys.modules if name.startswith("repro"))

at_fork = []
start = multiprocessing.process.BaseProcess.start
def recording_start(self):
    at_fork.append(repro_modules())
    return start(self)
multiprocessing.process.BaseProcess.start = recording_start

create = StoreConfig.create
def recording_create(self, shard=None):
    store = create(self, shard)
    close = store.close
    def recording_close():
        if os.getpid() != driver:
            with open(os.path.join(out, f"{os.getpid()}.json"), "w") as f:
                json.dump(repro_modules(), f)
        close()
    store.close = recording_close
    return store
StoreConfig.create = recording_create

parallel.effective_jobs = lambda requested: requested
spill = StoreConfig(backend="spill", mem_cap=1 << 18)
if grain == "sharded":
    result = parallel.explore_sharded(
        [1, 2, 3], ((0, 1, 2), (0, 1, 2), (1, 2, 0)), jobs=2,
        max_states=500, store=spill,
    )
    assert result.ok
else:
    rows = parallel.check_snapshot_classes(2, jobs=2, store=spill)
    assert all(result.ok for _, result in rows)
print(json.dumps(at_fork[0]))
"""


@pytest.mark.parametrize("grain", ["sharded", "classes"])
def test_forked_workers_import_nothing_the_driver_has_not(grain, tmp_path):
    import json
    import multiprocessing
    import os
    import subprocess
    import sys
    from pathlib import Path

    pytest.importorskip("numpy")  # the spill store
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("forked workers need the fork start method")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _FORK_IMPORTS_SCRIPT, grain, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    at_fork = set(json.loads(done.stdout.splitlines()[-1]))
    workers = [
        set(json.loads(path.read_text())) for path in tmp_path.glob("*.json")
    ]
    assert workers
    for modules in workers:
        assert "repro.store.spill" in modules
        assert modules <= at_fork, sorted(modules - at_fork)


# ----------------------------------------------------------------------
# ShardedRun: the driver half both transports share, without processes
# ----------------------------------------------------------------------

def _layer(admitted, transitions=0, violation=None, outboxes=None, por=None):
    """A ``ShardEngine.process_round`` reply of a symmetry run that
    admitted only canonical entries (each covering one state)."""
    return (admitted, transitions, violation, outboxes or {}, admitted,
            admitted, por)


class TestShardedRun:
    SPEC = FastSnapshotSpec([1, 2, 3], N3_CLASS)

    def test_the_lowest_reporting_shard_names_the_violation(self, tmp_path):
        checkpointer = RunCheckpointer(tmp_path, meta={})
        run = ShardedRun(
            self.SPEC, 3, 10**9, group_order=2, checkpointer=checkpointer
        )
        run.begin()
        run.merge([
            _layer(3, 9, outboxes={1: [8, 10]}),
            _layer(2, 5, "shard 1's"),
            _layer(4, 7, "shard 2's"),
        ])
        result = run.result
        assert (result.violation, result.complete) == ("shard 1's", True)
        assert (result.states, result.transitions) == (9, 21)
        assert result.covered_states == result.recanonicalizations_skipped == 9
        assert checkpointer.completed_result() == asdict(result)

    def test_a_budget_trip_truncates_at_the_routed_frontier(self):
        run = ShardedRun(self.SPEC, 2, max_states=5)
        run.begin()
        run.merge([_layer(1, 2, outboxes={0: [2], 1: [4]}), _layer(0)])
        assert run.result is None
        run.merge([
            _layer(3, 4, outboxes={0: [6, 8]}),
            _layer(2, 3, outboxes={0: [10], 1: [12, 14]}),
        ])
        result = run.result
        assert run.inboxes == {0: [6, 8, 10], 1: [12, 14]}
        assert (result.states, result.complete) == (6, False)
        assert result.truncated_transitions == 5
        assert result.covered_states is result.por_counters is None

    def test_a_commit_resumes_to_the_same_counters_and_inboxes(
        self, tmp_path
    ):
        np = pytest.importorskip("numpy")
        from repro.checker.batch import make_kernel

        owned = {}  # canonical wire entries, by owning shard
        for state in range(1, 60):
            owner = fingerprint_int(state) % 3
            owned.setdefault(owner, []).append((state << 1) | 1)
        forms = {
            "numpy": lambda part: np.array(part, dtype=np.uint64),
            "list": list,
            "array": lambda part: array("Q", part),
        }
        snapshot = {"transitions_pruned": 5, "ample_states": 2,
                    "fully_expanded_states": 1, "cycle_proviso_expansions": 1}
        frontiers = []
        for name, form in forms.items():
            directory = tmp_path / name
            run = ShardedRun(
                self.SPEC, 3, 10**9, group_order=2, por=True,
                checkpointer=RunCheckpointer(directory, meta={}, every=1),
            )
            run.begin()
            # Each shard sends every owner a third of its entries.
            run.merge([
                _layer(shard + 1, 10, outboxes={
                    owner: form(entries[shard::3])
                    for owner, entries in owned.items()
                }, por=snapshot)
                for shard in range(3)
            ])
            assert run.result is None
            run.commit(run.open_checkpoint())
            fresh = ShardedRun(
                self.SPEC, 3, 10**9, group_order=2, por=True,
                checkpointer=RunCheckpointer(directory, meta={}),
                kernel=make_kernel(self.SPEC, "numpy") if name == "numpy"
                else None,
            )
            fresh.begin()
            counts = (fresh.states, fresh.transitions, fresh.covered,
                      fresh.skipped)
            assert counts == (run.states, run.transitions, run.covered,
                              run.skipped) == (6, 30, 6, 6)
            assert {
                owner: [int(entry) for entry in part]
                for owner, part in fresh.inboxes.items()
            } == {
                owner: [int(entry) for entry in part]
                for owner, part in run.inboxes.items()
            }
            assert sorted(fresh.inboxes) == sorted(owned)
            # Nothing after the resume: the totals are the checkpoint's.
            fresh.merge([_layer(0)] * 3)
            assert fresh.result.complete
            assert fresh.result.por_counters == {
                key: 3 * value for key, value in snapshot.items()
            }
            frontiers.append(
                (fresh.resumed.directory / "frontier.u64").read_bytes()
            )
        assert frontiers[0] and frontiers.count(frontiers[0]) == 3


# ----------------------------------------------------------------------
# Determinism: same jobs, same answer
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_two_jobs4_class_sweeps_identical(self):
        first = check_snapshot_classes(3, budget=3_000, jobs=4)
        second = check_snapshot_classes(3, budget=3_000, jobs=4)
        assert [(w, _stats(r)) for w, r in first] == [
            (w, _stats(r)) for w, r in second
        ]

    def test_two_jobs4_sharded_runs_identical(self):
        first = explore_sharded([1, 2, 3], N3_CLASS, jobs=4, max_states=3_000)
        second = explore_sharded([1, 2, 3], N3_CLASS, jobs=4, max_states=3_000)
        assert _stats(first) == _stats(second)
        assert first.truncated_transitions == second.truncated_transitions


# ----------------------------------------------------------------------
# Explorer fingerprint mode (the generic object-encoded engine)
# ----------------------------------------------------------------------

class TestExplorerFingerprintMode:
    def _spec(self):
        return SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )

    def test_keep_edges_is_rejected(self):
        with pytest.raises(ValueError):
            Explorer(self._spec(), keep_edges=True, fingerprint=True)


# ----------------------------------------------------------------------
# Fast-engine budget semantics
# ----------------------------------------------------------------------

class TestFastBudgetSemantics:
    def test_truncation_visible_and_mode_invariant(self):
        # The safety loop and the edge-recording wait-freedom loop
        # admit in the same order, so they clip at the same point.
        spec = FastSnapshotSpec([1, 2, 3], N3_CLASS)
        lean = spec.explore(max_states=2_000)
        full = spec.explore(max_states=2_000, check_wait_freedom=True)
        for result in (lean, full):
            assert result.states == 2_000
            assert not result.complete
            assert result.truncated_transitions > 0
        assert full.transitions == lean.transitions
        assert full.truncated_transitions == lean.truncated_transitions


# ----------------------------------------------------------------------
# Pool plumbing
# ----------------------------------------------------------------------

class TestOrderedParallelMap:
    def test_preserves_input_order(self):
        values = list(range(20))
        assert ordered_parallel_map(_square, values, jobs=3) == [
            value * value for value in values
        ]

    def test_serial_fallback_for_single_job(self):
        assert ordered_parallel_map(_square, [3, 4], jobs=1) == [9, 16]
