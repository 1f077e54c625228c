"""The fingerprint-store subsystem: backends, guards, conformance.

Three layers of coverage:

- **unit**: each backend honours the :class:`FingerprintStore`
  contract (add-reports-newness, exact membership, deterministic
  iteration, bulk load), including the mmap table's zero-key slot and
  load limit and the spill store's spill/merge/Bloom machinery;
- **guards**: >64-bit keys are rejected loudly, and engine/store
  combinations that cannot work (object tables on disk, wait-freedom
  on a disk store) raise up front;
- **conformance**: the exhaustive N=2 exploration reports identical
  states/transitions/verdicts whatever the backend, with and without
  symmetry reduction — the property the disk backends are allowed to
  exist under — and the packed engines' stores hold exactly the
  reachable states (orbit representatives under symmetry), not
  digests of them.
"""

import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

import repro.checker.parallel as parallel
from repro.analysis.statistics import aggregate_store_statistics
from repro.checker import Explorer, SystemSpec
from repro.checker.fast_snapshot import FastSnapshotSpec
from repro.checker.properties import SNAPSHOT_SAFETY
from repro.core import SnapshotMachine
from repro.memory.wiring import WiringAssignment
from repro.store import (
    BACKENDS,
    StoreConfig,
    StoreError,
    StoreFullError,
)

WIRING = ((0, 1), (0, 1))


def _keys(count, seed=7):
    rng = random.Random(seed)
    return list({rng.getrandbits(64) for _ in range(count)})


def _u64(keys):
    return np.array(keys, dtype=np.uint64)


def _make(backend, tmp_path, mem_cap=None):
    config = StoreConfig(
        backend=backend,
        directory=str(tmp_path / backend),
        **({"mem_cap": mem_cap} if mem_cap is not None else {}),
    )
    return config.create()


# ----------------------------------------------------------------------
# The backend contract, uniformly
# ----------------------------------------------------------------------


class TestBackendContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_add_contains_len_iter(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        keys = _keys(2000)
        try:
            for key in keys:
                assert store.add(key)
            for key in keys:
                assert not store.add(key)  # re-add reports "already there"
                assert key in store
            assert len(store) == len(keys)
            missing = next(k for k in range(1, 100) if k not in set(keys))
            assert missing not in store
            assert sorted(store) == sorted(keys)
        finally:
            store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_load_bulk_inserts_and_counts(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        keys = _keys(500)
        try:
            assert store.load(keys) == len(keys)
            assert store.load(keys) == 0  # idempotent
            assert len(store) == len(keys)
        finally:
            store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counters_report_entries(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        try:
            store.load(_keys(100))
            assert store.counters()["entries"] == 100
        finally:
            store.close()

    @pytest.mark.parametrize("backend", ["mmap", "spill"])
    def test_wide_keys_are_rejected(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        try:
            with pytest.raises(StoreError, match="64-bit"):
                store.add(1 << 64)
        finally:
            store.close()


class TestBulkContract:
    """``contains_many``/``add_many`` — the batch engine's probe unit.

    Both take a u64 array (lists still work); ``contains_many`` answers
    with a bool array aligned with its input, ``add_many`` with the
    number of keys added.  The base class defaults loop the scalar
    methods, so the contract (exactly ``[key in store for ...]`` /
    per-key ``add`` in order) must hold identically on backends with
    bespoke bulk paths (ram's set ops, spill's array passes).
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bulk_matches_scalar_loop(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        keys = sorted(_keys(800))
        present, absent = keys[::2], keys[1::2]
        try:
            assert store.add_many(_u64(present)) == len(present)
            probe = _u64(sorted(present[:100] + absent[:100]))
            answer = store.contains_many(probe)
            assert answer.dtype == np.bool_
            assert np.array_equal(answer, [k in store for k in probe.tolist()])
            # re-adding a mixed batch counts only the genuinely new keys
            mixed = sorted(present[:50] + absent[:50])
            assert store.add_many(_u64(mixed)) == 50
            assert len(store) == len(present) + 50
        finally:
            store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_batches_are_noops(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        try:
            assert store.add_many(_u64([])) == 0
            assert np.array_equal(store.contains_many(_u64([])), [])
        finally:
            store.close()

    @pytest.mark.parametrize("backend", ["mmap", "spill"])
    @pytest.mark.parametrize("bad", [-1, 1 << 64])
    def test_out_of_range_list_keys_are_rejected(self, backend, bad, tmp_path):
        store = _make(backend, tmp_path)
        try:
            with pytest.raises(StoreError, match="64-bit"):
                store.add_many([1, bad])
            with pytest.raises(StoreError, match="64-bit"):
                store.contains_many([1, bad])
        finally:
            store.close()

    def test_spill_bulk_writes_sorted_runs_natively(self, tmp_path):
        # A level-sized batch of fresh keys must land as one sorted run
        # file instead of churning through repeated buffer spills.
        store = _make("spill", tmp_path, mem_cap=64 * 1024)
        keys = sorted(_keys(20_000))
        try:
            spills_before = store.counters()["spills"]
            assert store.add_many(_u64(keys)) == len(keys)
            assert store.counters()["spills"] == spills_before + 1
            assert store.contains_many(_u64(keys)).all()
            assert list(store) == keys  # runs stream in ascending order
        finally:
            store.close()

    def test_spill_bulk_membership_survives_merge(self, tmp_path):
        store = _make("spill", tmp_path, mem_cap=64 * 1024)
        first, second = sorted(_keys(12_000, seed=1)), sorted(_keys(12_000, seed=2))
        overlap = sorted(set(first) & set(second))
        try:
            store.add_many(_u64(first))
            added = store.add_many(_u64(second))
            assert added == len(set(second) - set(first))
            everything = sorted(set(first) | set(second))
            assert store.contains_many(_u64(everything)).all()
            assert len(store) == len(everything)
            assert store.contains_many(_u64(overlap)).all()
        finally:
            store.close()


class TestMmapStore:
    def test_zero_key_roundtrip(self, tmp_path):
        store = _make("mmap", tmp_path)
        try:
            assert 0 not in store
            assert store.add(0)
            assert not store.add(0)
            assert 0 in store
            assert 0 in list(store)
        finally:
            store.close()

    def test_full_table_suggests_spill(self, tmp_path):
        # 8 KiB -> the 1024-slot minimum table; the 7/8 load limit
        # trips before slot exhaustion.
        store = _make("mmap", tmp_path, mem_cap=8192)
        try:
            with pytest.raises(StoreFullError, match="spill"):
                for key in _keys(1000):
                    store.add(key)
        finally:
            store.close()

    def test_file_bytes_is_table_size(self, tmp_path):
        store = _make("mmap", tmp_path, mem_cap=8192)
        try:
            assert store.file_bytes() == 1024 * 8
        finally:
            store.close()


class TestSpillStore:
    def test_spills_and_merges_preserve_membership(self, tmp_path):
        # The minimum buffer is 1024 keys; 7k keys force 6 spills, which
        # trips the merge-all consolidation.
        store = _make("spill", tmp_path, mem_cap=4096)
        keys = _keys(7000)
        try:
            for key in keys:
                assert store.add(key)
            counters = store.counters()
            assert counters["spills"] >= 6
            assert counters["merges"] >= 1
            for key in keys:
                assert key in store
            assert sorted(store) == sorted(keys)
            assert store.file_bytes() > 0
        finally:
            store.close()

    def test_bloom_short_circuits_misses(self, tmp_path):
        store = _make("spill", tmp_path, mem_cap=4096)
        try:
            store.load(_keys(3000, seed=1))
            hits = sum(1 for key in _keys(3000, seed=2) if key in store)
            counters = store.counters()
            assert hits == 0
            assert counters["bloom_skips"] > 0
        finally:
            store.close()

    def test_parallel_merge_matches_serial(self, tmp_path, monkeypatch):
        # Shrink the parallel-merge floor so the test-sized key set
        # takes the worker-pool path; the serial twin is the oracle.
        from repro.store import spill as spill_module

        monkeypatch.setattr(spill_module, "_PARALLEL_MERGE_MIN", 1000)
        serial = StoreConfig(
            backend="spill", directory=str(tmp_path / "serial"),
            mem_cap=4096,
        ).create()
        parallel = StoreConfig(
            backend="spill", directory=str(tmp_path / "parallel"),
            mem_cap=4096, merge_jobs=4,
        ).create()
        keys = _keys(20_000)
        try:
            for key in keys:
                assert serial.add(key)
                assert parallel.add(key)
            assert list(serial) == list(parallel)  # both ascending
            assert len(parallel) == len(keys)
            probes = _keys(2000, seed=3)
            assert all(
                (key in parallel) == (key in serial) for key in probes
            )
            counters = parallel.counters()
            assert counters["merges"] >= 1
            # A parallel merge leaves one (disjoint, ordered) run per
            # partition instead of one run total.
            assert counters["runs"] >= 1
            assert counters["merge_wall_ms"] >= 0
        finally:
            serial.close()
            parallel.close()

    def test_merge_jobs_validation(self):
        with pytest.raises(StoreError, match="merge_jobs"):
            StoreConfig(backend="spill", merge_jobs=-1)

    def test_vectorized_bloom_positions_match_scalar(self, tmp_path):
        store = _make("spill", tmp_path)
        keys = _keys(10_000) + [0, 1, 1 << 63, (1 << 64) - 1]
        try:
            rows = store._bloom_positions_many(_u64(keys))
            assert rows.shape == (3, len(keys))
            for column, key in enumerate(keys):
                assert rows[:, column].tolist() == list(
                    store._bloom_positions(key)
                )
        finally:
            store.close()

    def test_interleaved_calls_match_set_oracle(self, tmp_path):
        # Scalar adds, bulk adds and bulk probes interleaved across
        # buffer spills and at least one merge (4 KiB cap: 1024-key
        # buffer, merge at six runs); small keys make repeats common.
        rng = random.Random(5)
        store = _make("spill", tmp_path, mem_cap=4096)
        oracle = set()
        try:
            for step in range(60):
                keys = [rng.getrandbits(20) for _ in range(rng.randint(0, 2500))]
                if step % 3 == 0:
                    for key in keys[:400]:
                        assert store.add(key) == (key not in oracle)
                        oracle.add(key)
                elif step % 3 == 1:
                    added = store.add_many(_u64(keys))
                    assert added == len(set(keys) - oracle)
                    oracle.update(keys)
                else:
                    assert np.array_equal(
                        store.contains_many(_u64(keys)),
                        [key in oracle for key in keys],
                    )
                assert len(store) == len(oracle)
            counters = store.counters()
            assert counters["spills"] >= 6 and counters["merges"] >= 1
            assert list(store) == sorted(oracle)
        finally:
            store.close()

    @pytest.mark.parametrize("stride", [None, 64])
    def test_dump_is_ascending_u64_bytes(self, tmp_path, monkeypatch, stride):
        # Runs, the sorted buffer and scalar-added keys all land in one
        # ascending dump, byte for byte what the per-key writer made;
        # a small stride cuts the sources into many chunks.
        from repro.store import spill as spill_module

        if stride is not None:
            monkeypatch.setattr(spill_module, "_DUMP_STRIDE", stride)
        engine = parallel.ShardEngine(
            [1, 2], WIRING, 0, 1,
            store_config=StoreConfig(
                backend="spill", directory=str(tmp_path / "store"),
                mem_cap=4096,
            ),
        )
        keys = _keys(5000)
        try:
            for lo, hi in ((0, 2000), (2000, 3500), (3500, 4000)):
                engine.seen.add_many(_u64(keys[lo:hi]))
            for key in keys[4000:]:
                engine.seen.add(key)
            assert engine.seen.counters()["runs"] >= 3
            path = tmp_path / "visited.u64"
            assert engine.dump_to(path) == len(keys)
            assert path.read_bytes() == array("Q", sorted(keys)).tobytes()
        finally:
            engine.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_store_dumps_nothing(self, backend, tmp_path):
        from repro.store import write_u64_file

        store = _make(backend, tmp_path)
        try:
            assert write_u64_file(tmp_path / "empty.u64", store.key_arrays()) == 0
            assert (tmp_path / "empty.u64").read_bytes() == b""
        finally:
            store.close()

    @pytest.mark.parametrize("backend", ["mmap", "spill"])
    def test_close_deletes_only_its_own_temp_directory(self, backend, tmp_path):
        own = StoreConfig(backend=backend).create(shard="shard-000")
        own.add(1)
        created = own.owned_directory
        assert created is not None and created.is_dir()
        own.close()
        assert not created.exists()
        named = _make(backend, tmp_path)
        named.add(1)
        named.close()
        assert (tmp_path / backend).is_dir()


# ----------------------------------------------------------------------
# Whole processes: imports, temp directories, missing numpy
# ----------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_repro(args, tmp_path, extra_path=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*map(str, extra_path), str(SRC)])
    env["TMPDIR"] = str(tmp_path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=300,
    )


class TestProcesses:
    def test_cli_and_checker_import_without_numpy(self, tmp_path):
        done = _run_repro(
            ["-c", "import sys, repro.cli, repro.checker;"
                   " print('numpy' in sys.modules)"],
            tmp_path,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_sharded_spill_run_leaves_no_temp_directories(self, tmp_path):
        done = _run_repro(
            ["-m", "repro", "check", "--n", "3", "--budget", "2000",
             "--store", "spill", "--engine", "batch", "--kernel", "numpy",
             "--jobs", "2", "--sharded", "--symmetry"],
            tmp_path,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("wiring class") == 10
        assert not list(tmp_path.glob("repro-store-*"))

    def test_spill_without_numpy_is_a_one_line_refusal(self, tmp_path):
        shim = tmp_path / "shim"
        (shim / "numpy").mkdir(parents=True)
        (shim / "numpy" / "__init__.py").write_text(
            "raise ImportError('numpy is hidden for this test')\n"
        )
        done = _run_repro(
            ["-m", "repro", "check", "--n", "3", "--budget", "2000",
             "--store", "spill"],
            tmp_path, extra_path=[shim],
        )
        assert done.returncode == 2, done.stdout + done.stderr
        errors = [
            line for line in done.stdout.splitlines()
            if line.startswith("error:")
        ]
        assert len(errors) == 1 and "numpy" in errors[0]
        assert not list(tmp_path.glob("repro-store-*"))


# ----------------------------------------------------------------------
# Configuration and guards
# ----------------------------------------------------------------------


class TestGuards:
    def test_unknown_backend_rejected(self):
        with pytest.raises(StoreError, match="unknown store backend"):
            StoreConfig(backend="redis")

    def test_nonpositive_mem_cap_rejected(self):
        with pytest.raises(StoreError, match="mem_cap"):
            StoreConfig(backend="spill", mem_cap=0)

    def test_wait_freedom_requires_ram_store(self, tmp_path):
        spec = FastSnapshotSpec([1, 2], WIRING)
        config = StoreConfig(backend="spill", directory=str(tmp_path))
        with pytest.raises(ValueError, match="wait"):
            spec.explore(check_wait_freedom=True, store=config)

    def test_generic_explorer_requires_fingerprint_for_disk(self, tmp_path):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        config = StoreConfig(backend="mmap", directory=str(tmp_path))
        with pytest.raises(ValueError, match="fingerprint"):
            Explorer(spec, SNAPSHOT_SAFETY, store=config)


# ----------------------------------------------------------------------
# Exploration conformance across backends
# ----------------------------------------------------------------------


def _signature(result):
    return (
        result.states, result.transitions, result.ok, result.complete,
        result.covered_states,
    )


class TestExplorationConformance:
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_exhaustive_n2_identical_across_backends(
        self, tmp_path, symmetry
    ):
        spec = FastSnapshotSpec([1, 2], WIRING)
        signatures = {}
        for backend in BACKENDS:
            config = StoreConfig(
                backend=backend, directory=str(tmp_path / backend)
            )
            result = spec.explore(symmetry=symmetry, store=config)
            signatures[backend] = _signature(result)
            assert result.store_counters is not None
            assert result.store_counters["entries"] == result.states
        assert len(set(signatures.values())) == 1, signatures

    def test_generic_fingerprint_explorer_matches_on_disk(self, tmp_path):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        baseline = Explorer(spec, SNAPSHOT_SAFETY, fingerprint=True).run()
        config = StoreConfig(backend="spill", directory=str(tmp_path))
        on_disk = Explorer(
            spec, SNAPSHOT_SAFETY, fingerprint=True, store=config
        ).run()
        assert (baseline.states, baseline.transitions, baseline.ok) == (
            on_disk.states, on_disk.transitions, on_disk.ok,
        )
        assert on_disk.store_counters["entries"] == on_disk.states

    def test_default_store_reports_no_counters(self):
        result = FastSnapshotSpec([1, 2], WIRING).explore()
        assert result.store_counters is None

    def test_store_statistics_aggregate(self, tmp_path):
        spec = FastSnapshotSpec([1, 2], WIRING)
        config = StoreConfig(backend="ram")
        results = [spec.explore(store=config) for _ in range(2)]
        stats = aggregate_store_statistics(results + [spec.explore()])
        assert stats.entries == sum(r.states for r in results)
        assert stats.file_bytes == 0
        assert "stored keys" in stats.summary()

    def test_store_statistics_fold_merge_wall_time(self):
        from repro.analysis import StoreStatistics

        stats = StoreStatistics(
            entries=10, file_bytes=4096, merges=2, merge_wall_ms=34
        )
        assert "2 merges in 34 ms" in stats.summary()


def _reachable_keys(spec, symmetry):
    """Every reachable packed state of ``spec`` (its orbit
    representative under ``symmetry``), by a plain set-based BFS."""
    from repro.checker.symmetry import FastCanonicalizer

    canonical = FastCanonicalizer(spec).canonical if symmetry else int
    initial = canonical(spec.initial_state())
    seen, frontier, buf = {initial}, [initial], []
    while frontier:
        for successor in spec.successor_states_into(frontier.pop(), buf):
            key = canonical(successor)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return seen


@pytest.mark.parametrize("symmetry", [False, True])
@pytest.mark.parametrize("engine", ["scalar", "batch"])
class TestExactKeys:
    """Packed engines key their visited sets on the exact (canonical)
    state, so the keys a disk store holds are the states themselves."""

    CONFIG = dict(backend="spill", mem_cap=4096)

    def test_serial_visited_set_is_the_reachable_states(
        self, tmp_path, monkeypatch, engine, symmetry
    ):
        from repro.store.spill import SpillStore

        at_close = []
        close = SpillStore.close
        monkeypatch.setattr(SpillStore, "close", lambda store: (
            at_close.append((list(store), store.counters()["runs"])),
            close(store),
        ))
        spec = FastSnapshotSpec([1, 2], WIRING)
        result = spec.explore(
            engine=engine, symmetry=symmetry,
            store=StoreConfig(directory=str(tmp_path), **self.CONFIG),
        )
        [(keys, runs)] = at_close
        assert runs >= 1  # some keys were read back from disk runs
        assert keys == sorted(_reachable_keys(spec, symmetry))
        assert result.complete and result.states == len(keys)

    def test_shard_engines_own_exact_states(self, tmp_path, engine, symmetry):
        # Two shards driven round by round, as the pipe driver and the
        # service coordinator drive them: each holds exactly the
        # reachable states whose fingerprint_int it owns.
        from repro.checker.fingerprint import fingerprint_int

        config = StoreConfig(directory=str(tmp_path), **self.CONFIG)
        engines = [
            parallel.ShardEngine(
                [1, 2], WIRING, shard, 2, symmetry=symmetry,
                store_config=config, engine=engine,
            )
            for shard in (0, 1)
        ]
        try:
            initial = engines[0].spec.initial_state()
            entry = initial << 1
            if symmetry:
                entry = engines[0].canonicalizer.canonical(initial) << 1 | 1
            inboxes = {fingerprint_int(entry >> 1) % 2: [entry]}
            while inboxes:
                outboxes = {0: [], 1: []}
                for shard, entries in inboxes.items():
                    reply = engines[shard].process_round(entries)
                    assert reply[2] is None  # no violation
                    for owner, boundary in reply[3].items():
                        outboxes[owner].extend(int(e) for e in boundary)
                inboxes = {s: batch for s, batch in outboxes.items() if batch}
            owned = [set(engine.visited_keys()) for engine in engines]
        finally:
            for engine in engines:
                engine.close()
        for shard, keys in enumerate(owned):
            assert keys and {fingerprint_int(k) % 2 for k in keys} == {shard}
        reachable = _reachable_keys(engines[0].spec, symmetry)
        assert owned[0] | owned[1] == reachable
