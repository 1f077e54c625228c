"""The batch engines' visited set: the kernel's own set, tiered onto a store.

:class:`~repro.checker.batch.TieredVisited` keeps its keys in the
kernel's set (the native hash table, or the numpy sorted array) and, for
a disk-backed store, flushes them into the store once they would take
the RAM tier past half of ``mem_cap``.  Its answers must be a Python
set's whatever the kernel and wherever the flushes fall; whole runs on
it must match the store-less run; and the RAM tier must stay within its
half of the cap.
"""

from dataclasses import asdict

import pytest

np = pytest.importorskip("numpy")

import repro.checker.batch as batch_mod
import repro.checker.parallel as parallel
from repro.checker.batch import TieredVisited, make_kernel
from repro.checker.fast_snapshot import ClassSetup, FastSnapshotSpec
from repro.store import StoreConfig

try:
    from repro.checker.native.loader import native_available

    _native_ok = native_available()
except Exception:  # pragma: no cover - import error == unavailable
    _native_ok = False

requires_native = pytest.mark.skipif(
    not _native_ok, reason="native kernel unavailable (no compiler)"
)
KERNELS = ["numpy", pytest.param("native", marks=requires_native)]

N2_WIRING = ((0, 1), (0, 1))
#: An N=3 class with a stabilizer of order 2.
N3_CLASS = ((0, 1, 2), (0, 1, 2), (1, 2, 0))
#: A RAM tier of 64 home slots: 48 keys.
TINY_CAP = 1024
#: A RAM tier of 256 home slots: 192 keys, a few N=3 levels' worth.
SMALL_CAP = 4096


def _reference_admit(reference, keys, limit):
    """``admit`` on a Python set."""
    positions, trip = [], -1
    for position, key in enumerate(keys.tolist()):
        if key in reference:
            continue
        if len(positions) == limit:
            trip = position
            break
        reference.add(key)
        positions.append(position)
    return positions, trip


def _tier(kernel, tmp_path, backend="spill", mem_cap=TINY_CAP, expected=0):
    spec = FastSnapshotSpec([1, 2], N2_WIRING)
    store = None
    if backend is not None:
        store = StoreConfig(
            backend=backend, directory=str(tmp_path), mem_cap=mem_cap
        )
    return TieredVisited(make_kernel(spec, kernel), store, expected)


def _ram_bound(visited, mem_cap):
    """The RAM tier's keys; behind a disk tier, its home slots × 8 bytes
    stay within half of ``mem_cap`` (or the smallest table)."""
    ram = visited._ram
    slots = getattr(ram, "slots", None)
    if visited._disk is not None and slots is not None:
        assert slots * 8 <= max(mem_cap // 2, 16 * 8)
    return len(ram)


@pytest.fixture
def flushes(monkeypatch):
    """Every flush, as the RAM tier's size when it happened."""
    seen = []
    flush = TieredVisited._flush

    def recording_flush(self):
        seen.append(len(self._ram))
        flush(self)

    monkeypatch.setattr(TieredVisited, "_flush", recording_flush)
    return seen


def _keys(*parts):
    return np.concatenate([np.asarray(p, dtype=np.uint64) for p in parts])


@pytest.mark.parametrize("kernel", KERNELS)
class TestAgainstAPythonSet:
    """``admit``, ``contains``, ``len``, ``key_arrays`` and ``load`` on a
    tiered set replay a Python set call for call."""

    def _replay(self, visited, calls, mem_cap=TINY_CAP, reference=None):
        reference = set() if reference is None else reference
        rng = np.random.default_rng(43)
        for keys, limit in calls:
            keys = np.asarray(keys, dtype=np.uint64)
            if limit == "exact":
                limit = len(set(keys.tolist()) - reference)
            positions, trip = _reference_admit(reference, keys, limit)
            got, got_trip = visited.admit(keys, limit)
            assert got.tolist() == positions
            assert got_trip == trip
            assert len(visited) == len(reference)
            _ram_bound(visited, mem_cap)
            probe = _keys(
                keys,
                rng.integers(0, 2**64 - 1, size=64, dtype=np.uint64,
                             endpoint=True),
                [0, 2**64 - 1],
            )
            assert visited.contains(probe).tolist() == [
                key in reference for key in probe.tolist()
            ]
        dumped = [chunk for chunk in visited.key_arrays()]
        merged = np.concatenate(dumped) if dumped else np.empty(0, np.uint64)
        assert merged.tolist() == sorted(reference)
        assert visited.counters()["entries"] == len(reference)
        return reference

    @pytest.mark.parametrize("backend", [None, "ram", "spill", "mmap"])
    def test_multi_chunk_streams_with_key_zero_and_every_limit(
        self, kernel, backend, tmp_path, flushes
    ):
        rng = np.random.default_rng(47)
        repeats = rng.integers(0, 300, size=400, dtype=np.uint64)
        wide = rng.integers(0, 2**64 - 1, size=300, dtype=np.uint64,
                            endpoint=True)
        edges = _keys([0, 2**64 - 1, 0, 1 << 63, 5, 5, (1 << 63) | 5, 0])
        visited = _tier(kernel, tmp_path, backend)
        try:
            self._replay(visited, [
                (np.empty(0, dtype=np.uint64), 10),
                (edges, 0),  # trips at the first key
                (edges, 2),
                (edges, "exact"),  # the rest, no trip
                (edges, 100),  # all present now
                (repeats[:200], 10**9),
                (repeats, 70),  # trips mid-stream, repeats after it
                (repeats, "exact"),
                (_keys(wide, repeats, wide[::-1], [0]), 250),
                (wide[::-1], 10**9),
                (_keys(wide[:50], [0], wide[50:]), "exact"),
            ])
        finally:
            visited.close()
        if backend in ("spill", "mmap"):
            # Only a full RAM tier flushes; the native table holds key 0
            # as a flag, outside its 48 slots.
            assert flushes and set(flushes) <= {48, 49}
        else:
            assert flushes == []

    def test_a_trip_right_after_a_flush(self, kernel, tmp_path, flushes):
        rng = np.random.default_rng(53)
        fresh = rng.integers(1, 2**64 - 1, size=400, dtype=np.uint64)
        visited = _tier(kernel, tmp_path)
        try:
            self._replay(visited, [
                (fresh[:48], 10**9),  # fills the RAM tier exactly
                (fresh[:60], 0),  # budget trip, no flush
                (fresh[:60], 1),  # flush, admit one, trip
                (fresh[60:108], 47),  # the tier fills at the budget
                (fresh[100:120], 1),  # flush, admit one, trip
            ])
            assert flushes == [48, 48]
        finally:
            visited.close()

    @pytest.mark.parametrize("mem_cap", [64, TINY_CAP])
    def test_a_cap_that_flushes_every_chunk(
        self, kernel, mem_cap, tmp_path, flushes
    ):
        # 64 bytes rounds up to the smallest table: 16 slots, 12 keys.
        # Each chunk brings 120 fresh keys around repeats of older ones.
        rng = np.random.default_rng(59)
        fresh = rng.integers(0, 2**64 - 1, size=(20, 120), dtype=np.uint64)
        visited = _tier(kernel, tmp_path, mem_cap=mem_cap)
        reference = set()
        try:
            for index, chunk in enumerate(fresh):
                older = fresh[:index].ravel()
                repeats = rng.choice(older, size=30) if older.size else older
                before = len(flushes)
                self._replay(
                    visited, [(_keys(repeats, chunk, repeats), 10**9)],
                    mem_cap=mem_cap, reference=reference,
                )
                assert len(flushes) > before
            assert visited.counters()["runs"] >= 1  # read back from disk
        finally:
            visited.close()

    def test_load_more_than_the_ram_tier_holds(self, kernel, tmp_path):
        rng = np.random.default_rng(61)
        dump = np.unique(rng.integers(0, 2**64 - 1, size=500, dtype=np.uint64))
        visited = _tier(kernel, tmp_path)
        try:
            assert visited.load(dump) == dump.size
            assert _ram_bound(visited, TINY_CAP) == 48
            assert len(visited) == dump.size
            more = rng.integers(0, 2**64 - 1, size=200, dtype=np.uint64)
            self._replay(
                visited,
                [(_keys(dump[::3], more), "exact"), (dump, 10**9)],
                reference=set(dump.tolist()),
            )
        finally:
            visited.close()

    def test_a_flush_probes_nothing_and_stores_what_add_many_would(
        self, kernel, tmp_path, monkeypatch
    ):
        # The disk tier lacks every key a flush hands it, so the spill
        # store takes them unprobed, and ends up as a probing add_many
        # leaves it.
        from repro.store.spill import SpillStore

        probes, flushed = [], []
        contains_many = SpillStore.contains_many
        flush = TieredVisited._flush

        def counted_contains(self, keys):
            probes.append(len(keys))
            return contains_many(self, keys)

        def recorded_flush(self):
            flushed.append(self._ram.keys().copy())
            before = len(probes)
            flush(self)
            assert len(probes) == before

        monkeypatch.setattr(SpillStore, "contains_many", counted_contains)
        monkeypatch.setattr(TieredVisited, "_flush", recorded_flush)
        rng = np.random.default_rng(67)
        fresh = rng.integers(0, 2**64 - 1, size=(12, 100), dtype=np.uint64)
        visited = _tier(kernel, tmp_path / "tiered")
        reference = StoreConfig(
            backend="spill", directory=str(tmp_path / "reference"),
            mem_cap=TINY_CAP,
        ).create()
        try:
            self._replay(visited, [(chunk, 10**9) for chunk in fresh])
            assert len(flushed) >= 10 and visited.counters()["runs"] >= 1
            for keys in flushed:
                reference.add_many(keys)
            disk = visited._disk
            assert [k.tolist() for k in disk.key_arrays()] == [
                k.tolist() for k in reference.key_arrays()
            ]
            assert disk.counters()["entries"] == reference.counters()["entries"]
        finally:
            visited.close()
            reference.close()

    def test_an_unbounded_tier_keeps_everything_in_ram(self, kernel, tmp_path):
        visited = _tier(kernel, tmp_path, backend="ram")
        try:
            assert visited.load(np.arange(1, 1001, dtype=np.uint64)) == 1000
            assert visited._disk is None and len(visited._ram) == 1000
            assert visited.counters() == {"entries": 1000}
            assert visited.file_bytes() == 0
        finally:
            visited.close()


# ----------------------------------------------------------------------
# Whole runs on a flushing tier
# ----------------------------------------------------------------------


@pytest.fixture
def ram_tiers(monkeypatch):
    """The largest RAM tier each in-process set with a disk tier kept
    after an admission, checked against half of its cap."""
    peaks = {}
    caps = {}
    init = TieredVisited.__init__
    admit = TieredVisited.admit

    def recording_init(self, kernel, store=None, expected=0, shard=None):
        init(self, kernel, store, expected, shard)
        if self._disk is not None:
            caps[id(self)] = store.mem_cap

    def recording_admit(self, keys, limit):
        result = admit(self, keys, limit)
        if id(self) in caps:
            size = _ram_bound(self, caps[id(self)])
            peaks[id(self)] = max(peaks.get(id(self), 0), size)
        return result

    monkeypatch.setattr(TieredVisited, "__init__", recording_init)
    monkeypatch.setattr(TieredVisited, "admit", recording_admit)
    return peaks


def _without_store_counters(result):
    fields = asdict(result)
    fields.pop("store_counters")
    return fields


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("symmetry", [False, True])
@pytest.mark.parametrize("por", [False, True])
def test_serial_run_on_a_flushing_cap_matches_the_store_less_run(
    kernel, symmetry, por, tmp_path, ram_tiers, flushes
):
    spec = FastSnapshotSpec([1, 2, 3], N3_CLASS)
    kwargs = dict(
        engine="batch", kernel=kernel, symmetry=symmetry, por=por,
        max_states=3000,
    )
    store_less = spec.explore(**kwargs)
    tiered = spec.explore(
        store=StoreConfig(
            backend="spill", directory=str(tmp_path), mem_cap=SMALL_CAP
        ),
        **kwargs,
    )
    assert _without_store_counters(tiered) == _without_store_counters(
        store_less
    )
    assert tiered.store_counters["entries"] == tiered.states
    assert len(flushes) >= 5 and set(flushes) == {192}
    assert max(ram_tiers.values()) <= 192


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("symmetry", [False, True])
def test_sharded_run_on_a_flushing_cap_matches_the_store_less_run(
    kernel, jobs, symmetry, tmp_path, monkeypatch, ram_tiers, flushes
):
    monkeypatch.setattr(
        parallel, "effective_jobs", lambda requested: requested
    )
    kwargs = dict(
        jobs=jobs, engine="batch", kernel=kernel, symmetry=symmetry,
        max_states=3000,
    )
    store_less = parallel.explore_sharded([1, 2, 3], N3_CLASS, **kwargs)
    tiered = parallel.explore_sharded(
        [1, 2, 3], N3_CLASS,
        store=StoreConfig(
            backend="spill", directory=str(tmp_path), mem_cap=SMALL_CAP
        ),
        **kwargs,
    )
    assert asdict(tiered) == asdict(store_less)
    # Shard 0 runs in this process: it flushed, and never held more
    # than its half of the cap.
    assert flushes and set(flushes) == {192}
    assert max(ram_tiers.values()) <= 192


@pytest.mark.parametrize("kernel", KERNELS)
def test_shard_engines_hold_every_state_once_across_tiers(kernel, tmp_path):
    # Two batch shards driven round by round in one process: their
    # entries, over both tiers, add up to the states admitted.
    config = StoreConfig(
        backend="spill", directory=str(tmp_path), mem_cap=TINY_CAP
    )
    setup = ClassSetup(FastSnapshotSpec([1, 2], N2_WIRING), False, "batch",
                       kernel)
    engines = [
        parallel.ShardEngine(setup, shard, 2, store_config=config)
        for shard in (0, 1)
    ]
    admitted = 0
    try:
        initial = setup.spec.initial_state()
        owner = int(setup.kernel.fingerprint_many(
            np.array([initial], dtype=np.uint64)
        )[0] % np.uint64(2))
        inboxes = {owner: np.array([initial << 1], dtype=np.uint64)}
        while inboxes:
            outboxes = {0: [], 1: []}
            for shard, entries in inboxes.items():
                reply = engines[shard].process_round(entries)
                admitted += reply[0]
                for dest, boundary in reply[3].items():
                    outboxes[dest].append(boundary)
            inboxes = {
                shard: np.concatenate(parts)
                for shard, parts in outboxes.items() if parts
            }
        entries = [engine.seen.counters()["entries"] for engine in engines]
        runs = [engine.seen.counters()["runs"] for engine in engines]
    finally:
        for engine in engines:
            engine.close()
    assert sum(entries) == admitted
    assert all(runs)


# ----------------------------------------------------------------------
# Store-less shards stay in the kernel's set
# ----------------------------------------------------------------------


@requires_native
def test_store_less_native_shard_rounds_call_no_fingerprint_store(
    monkeypatch,
):
    from repro.store.base import FingerprintStore
    from repro.store.ram import RamStore

    calls = []
    for owner in (FingerprintStore, RamStore):
        for name in ("contains_many", "add_many"):
            original = getattr(owner, name)

            def spy(self, keys, _name=name, _original=original):
                calls.append(_name)
                return _original(self, keys)

            monkeypatch.setattr(owner, name, spy)
    setup = ClassSetup(FastSnapshotSpec([1, 2, 3], N3_CLASS), True, "batch",
                       "native")
    engine = parallel.ShardEngine(setup, 0, 1, por=True)
    try:
        initial = setup.spec.initial_state()
        entries = [setup.canonicalizer.canonical_per_field(initial) << 1 | 1]
        for _ in range(6):
            reply = engine.process_round(entries)
            assert reply[0] > 0
            entries = reply[3][0]
    finally:
        engine.close()
    assert calls == []
    assert batch_mod.TieredVisited is type(engine.seen)
