"""The generated-C kernel vs its numpy twin, bit for bit.

The native kernel's contract is stronger than "same verdict": every
overridden method — fingerprinting, canonicalization, expansion, the
in-level dedup, the visited set, the C0/C1 selector phase — must be
*bit-identical* to the numpy implementation on arbitrary inputs,
because the exploration loop treats kernels as interchangeable mid-run
(a sharded job may resume under a different kernel).  The property
tests below therefore compare raw arrays, not exploration summaries;
the exhaustive N=2 matrix then checks the composed engine end to end
(``asdict``-equal for non-POR runs, verdict-conformant under POR,
mirroring the batch-vs-scalar contract in ``test_batch_engine.py``).

The native kernel is a *soft* capability: no compiler (or
``REPRO_NATIVE_DISABLE=1``) must degrade to the numpy kernel with a
single CLI warning and exit code 0, never a traceback.  Those
degradation tests run everywhere; the conformance tests skip cleanly
when the host cannot build kernels.
"""

from dataclasses import asdict

import pytest

import repro.checker.batch as batch_mod
from repro.checker.batch import explore_batch, make_kernel
from repro.checker.constants import (
    MASK64,
    SPLITMIX_GAMMA,
    SPLITMIX_MULT1,
    SPLITMIX_MULT2,
    SPLITMIX_SHIFT1,
    SPLITMIX_SHIFT2,
    SPLITMIX_SHIFT3,
)
from repro.checker.fast_snapshot import (
    ClassSetup,
    FastSnapshotSpec,
    canonical_wiring_classes,
)
from repro.store import StoreConfig

requires_numpy = pytest.mark.skipif(
    not batch_mod.HAVE_NUMPY, reason="numpy not installed"
)

if batch_mod.HAVE_NUMPY:
    import numpy as np

try:
    from repro.checker.native.loader import native_available

    _native_ok = native_available()
except Exception:  # pragma: no cover - import error == unavailable
    _native_ok = False

requires_native = pytest.mark.skipif(
    not _native_ok, reason="native kernel unavailable (no numpy/compiler)"
)

N2_CLASSES = [((0, 1), (0, 1)), ((0, 1), (1, 0))]
N3_IDENTITY = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
#: N=3 classes with stabilizers of order 6, 2 and 3.
N3_SYMMETRY_CLASSES = [
    N3_IDENTITY,
    ((0, 1, 2), (0, 1, 2), (1, 2, 0)),
    ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
]


def _kernels(spec, symmetry=False):
    """(numpy kernel, native kernel) with matching canonicalizers."""
    canon = None
    if symmetry:
        from repro.checker.symmetry import FastCanonicalizer

        canon = FastCanonicalizer(spec)
    return (
        make_kernel(spec, "numpy", canon),
        make_kernel(spec, "native", canon),
        canon,
    )


def _edge_states(spec, rng, count=10_000):
    """Random u64s in the packed range plus the adversarial edges.

    Includes 0, the all-ones word truncated to the state width, and
    "same packing for every processor" words (each pid's local field
    holds the same value) — the inputs most likely to expose masking or
    shift mistakes in generated code.
    """
    mask = (1 << spec.state_bits) - 1
    states = rng.integers(0, 2**64 - 1, size=count, dtype=np.uint64,
                          endpoint=True) & np.uint64(mask)
    same_pid = []
    for value in (0, 1, (1 << spec.local_bits) - 1):
        word = 0
        for pid in range(spec.n):
            word |= value << spec.local_offsets[pid]
        same_pid.append(word & mask)
    edges = np.array([0, mask, *same_pid], dtype=np.uint64)
    return np.concatenate([edges, states])


def _same_slot_pair(n):
    """Two keys sharing a slot of ``rk_unique_first``'s recent-key table
    in a level of ``n`` keys (Fibonacci hashing into 2**6..2**14
    slots)."""
    bits = min(14, max(6, (n - 1).bit_length()))

    def slot(key):
        return ((key * SPLITMIX_GAMMA) & MASK64) >> (64 - bits)

    other = 2
    while slot(other) != slot(1):
        other += 1
    return [1, other]


def _canonical_level_keys():
    """The canonical successors of a real symmetric N=3 BFS level."""
    from repro.checker.symmetry import FastCanonicalizer

    spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
    kernel = make_kernel(spec, "numpy")
    canon = kernel.make_canonicalizer(FastCanonicalizer(spec))
    visited = frontier = np.array([spec.initial_state()], dtype=np.uint64)
    for _ in range(8):
        keys = canon.canonical_many(kernel.expand_level(frontier)[0])
        frontier = np.setdiff1d(keys, visited)
        visited = np.union1d(visited, frontier)
    return keys


@requires_numpy
@requires_native
class TestMethodBitIdentity:
    """Each overridden method, raw arrays in, raw arrays out."""

    def test_fingerprint_bit_identical_on_random_and_edge_words(self):
        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        numpy_kernel, native_kernel, _ = _kernels(spec)
        rng = np.random.default_rng(11)
        # fingerprints are defined on the full u64 domain, not just
        # packed states — exercise all 64 bits
        words = np.concatenate([
            np.array([0, 2**64 - 1], dtype=np.uint64),
            rng.integers(0, 2**64 - 1, size=10_000, dtype=np.uint64,
                         endpoint=True),
        ])
        assert np.array_equal(
            numpy_kernel.fingerprint_many(words),
            native_kernel.fingerprint_many(words),
        )

    def test_canonical_and_orbit_sizes_bit_identical(self):
        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        numpy_kernel, native_kernel, canon = _kernels(spec, symmetry=True)
        assert canon is not None and not canon.trivial
        numpy_canon = numpy_kernel.make_canonicalizer(canon)
        native_canon = native_kernel.make_canonicalizer(canon)
        rng = np.random.default_rng(13)
        states = _edge_states(spec, rng)
        assert np.array_equal(
            numpy_canon.canonical_many(states),
            native_canon.canonical_many(states),
        )
        assert np.array_equal(
            numpy_canon.orbit_sizes(states),
            native_canon.orbit_sizes(states),
        )

    @pytest.mark.parametrize("wiring", canonical_wiring_classes(3, 3))
    def test_canonical_and_orbit_sizes_match_numpy_on_every_n3_class(
        self, wiring
    ):
        # The kernel fills its fused tables in C; these inputs read every
        # entry: each register-file word with the locals zero, and each
        # value of each local slot with everything else zero.
        spec = FastSnapshotSpec([1, 2, 3], wiring)
        numpy_kernel, native_kernel, canon = _kernels(spec, symmetry=True)
        numpy_canon = numpy_kernel.make_canonicalizer(canon)
        native_canon = native_kernel.make_canonicalizer(canon)
        if canon.trivial:
            assert numpy_canon is None and native_canon is None
            return
        local_values = np.arange(1 << spec.local_bits, dtype=np.uint64)
        states = np.concatenate([
            np.arange(1 << (spec.m * spec.reg_bits), dtype=np.uint64),
            *(
                local_values << np.uint64(offset)
                for offset in spec.local_offsets
            ),
            _edge_states(spec, np.random.default_rng(17)),
        ])
        assert np.array_equal(
            numpy_canon.canonical_many(states),
            native_canon.canonical_many(states),
        )
        assert np.array_equal(
            numpy_canon.orbit_sizes(states),
            native_canon.orbit_sizes(states),
        )

    def test_expand_and_violations_bit_identical_on_reachable_frontier(
        self,
    ):
        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        numpy_kernel, native_kernel, _ = _kernels(spec)
        # a real BFS frontier: every phase mix the expander can see
        frontier = np.array([spec.initial_state()], dtype=np.uint64)
        for _ in range(4):
            succ_n, counts_n = numpy_kernel.expand_level(frontier)
            succ_c, counts_c = native_kernel.expand_level(frontier)
            assert np.array_equal(succ_n, succ_c)
            assert np.array_equal(counts_n, counts_c)
            assert np.array_equal(
                numpy_kernel.violations(frontier),
                native_kernel.violations(frontier),
            )
            frontier, _ = numpy_kernel.unique_first(np.sort(succ_n))

    @pytest.mark.parametrize("mask", ["none", "per_pid", "all_skipped"])
    def test_expand_level_allocates_exactly_what_it_generates(self, mask):
        # The successors own their buffer and nothing more, so a POR
        # trial round or a shard round reserves only what it uses.
        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        numpy_kernel, native_kernel, _ = _kernels(spec)
        frontier = np.array([spec.initial_state()], dtype=np.uint64)
        for _ in range(4):
            succ, _counts = numpy_kernel.expand_level(frontier)
            frontier, _ = numpy_kernel.unique_first(np.sort(succ))
        selected = None
        if mask == "per_pid":
            selected = np.full(frontier.size, -2, dtype=np.int64)
            selected[::2] = 1
        elif mask == "all_skipped":
            selected = np.full(frontier.size, -2, dtype=np.int64)
        results = []
        for kernel in (numpy_kernel, native_kernel):
            succ, counts = kernel.expand_level(frontier, selected)
            assert succ.base is None and succ.flags.owndata
            assert succ.nbytes == 8 * int(counts.sum())
            results.append((succ, counts))
        (succ_n, counts_n), (succ_c, counts_c) = results
        assert np.array_equal(succ_n, succ_c)
        assert np.array_equal(counts_n, counts_c)
        assert (succ_n.size == 0) == (mask == "all_skipped")

    def test_native_expansion_counts_what_it_writes_on_any_word(self):
        # The counting pass sizes the buffer the expansion writes, so
        # the two must agree on every word and selection, unreachable
        # phases and out-of-range pids included.
        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        _, native_kernel, _ = _kernels(spec)
        rng = np.random.default_rng(19)
        states = _edge_states(spec, rng)
        for selected in (
            None,
            rng.integers(-3, spec.n + 2, size=states.size, dtype=np.int64),
        ):
            succ, counts = native_kernel.expand_level(states, selected)
            assert succ.size == int(counts.sum()) > 0

    def test_unique_first_bit_identical_including_edge_shapes(self):
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        numpy_kernel, native_kernel, _ = _kernels(spec)
        rng = np.random.default_rng(17)
        spread = rng.permutation(20_000).astype(np.uint64) << np.uint64(20)
        pair = _same_slot_pair(4096)
        late_first = rng.integers(0, 2**30, size=5000, dtype=np.uint64)
        late_first[[1000, 4000, 4999]] = late_first[0]
        cases = [
            np.empty(0, dtype=np.uint64),
            np.array([42], dtype=np.uint64),
            np.array([0, 2**64 - 1, 0, 5, 5], dtype=np.uint64),
            np.full(513, 7, dtype=np.uint64),
            # narrow keys exercise the radix pass trimming
            rng.integers(0, 255, size=4096, dtype=np.uint64),
            rng.integers(0, 2**64 - 1, size=4096, dtype=np.uint64,
                         endpoint=True),
            np.sort(rng.integers(0, 2**40, size=4096, dtype=np.uint64)),
            # every repeat farther back than the largest recent-key table
            np.concatenate([spread, rng.permutation(spread)]),
            # two keys evicting each other from one table slot
            np.array(pair * 2048, dtype=np.uint64),
            # keys[0] prefills the table, and recurs late
            late_first,
            # bit 63 set: no key value is reserved
            rng.integers(0, 300, size=4096, dtype=np.uint64)
            | np.uint64(1 << 63),
            np.sort(rng.integers(0, 2**40, size=4096, dtype=np.uint64))[::-1],
        ]
        # table sizes 2**6 and 2**14, at and around their edges
        for size in (63, 64, 65, 16383, 16384, 16385):
            cases.append(
                rng.integers(0, size // 2, size=size, dtype=np.uint64)
            )
        cases.append(_canonical_level_keys())
        for keys in cases:
            uniq_n, first_n = numpy_kernel.unique_first(keys)
            uniq_c, first_c = native_kernel.unique_first(keys)
            assert np.array_equal(uniq_n, uniq_c)
            assert np.array_equal(first_n, first_c)

    def test_por_c0c1_bit_identical_on_reachable_frontier(self):
        from repro.checker.batch import BatchAmpleSelector

        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        numpy_kernel, native_kernel, _ = _kernels(spec)
        tables = BatchAmpleSelector(numpy_kernel).tables
        frontier = np.array([spec.initial_state()], dtype=np.uint64)
        for _ in range(5):
            rows_n = numpy_kernel.por_c0c1(frontier, tables)
            rows_c = native_kernel.por_c0c1(frontier, tables)
            assert len(rows_n) == len(rows_c) == 3
            for left, right in zip(rows_n, rows_c):
                assert left.dtype == right.dtype
                assert np.array_equal(left, right)
            assert rows_c[1].dtype == np.uint8
            succ, _counts = numpy_kernel.expand_level(frontier)
            frontier, _ = numpy_kernel.unique_first(np.sort(succ))


def _unmix(mixes):
    """The keys whose splitmix64 finalizer values are ``mixes``.

    The finalizer is a bijection on u64: each xorshift is undone by
    re-applying it until the shifted-in bits are settled, and each odd
    multiplier by its inverse modulo 2**64.
    """
    def unshift(values, shift):
        out = values.copy()
        for _ in range(64 // shift):
            out = values ^ (out >> np.uint64(shift))
        return out

    keys = unshift(np.asarray(mixes, dtype=np.uint64), SPLITMIX_SHIFT3)
    keys = keys * np.uint64(pow(SPLITMIX_MULT2, -1, 1 << 64))
    keys = unshift(keys, SPLITMIX_SHIFT2)
    keys = keys * np.uint64(pow(SPLITMIX_MULT1, -1, 1 << 64))
    return unshift(keys, SPLITMIX_SHIFT1)


def _homed(rng, count, bits, last):
    """``count`` keys whose home in a table of ``2**bits`` slots (and in
    every smaller one) is slot 0, or with ``last`` the last slot.  None
    is key 0, the one key whose mix is 0."""
    low = rng.integers(0, 1 << (64 - bits), size=count, dtype=np.uint64)
    if last:
        return _unmix(low | np.uint64(((1 << bits) - 1) << (64 - bits)))
    return _unmix(low | np.uint64(1))


def _reference_admit(reference, keys, limit):
    """``admit`` on a Python set: the loop both kernels must replay."""
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


@requires_numpy
@requires_native
class TestVisitedSet:
    """The visited-set seam: the native hash set, the numpy sorted array
    and a Python set answer every ``admit`` and ``contains`` alike."""

    def _replay(self, calls, expected=1):
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        numpy_kernel, native_kernel, _ = _kernels(spec)
        numpy_set = numpy_kernel.make_visited(expected)
        native_set = native_kernel.make_visited(expected)
        reference = set()
        rng = np.random.default_rng(23)
        try:
            for keys, limit in calls:
                keys = np.asarray(keys, dtype=np.uint64)
                if limit == "exact":
                    limit = len(set(keys.tolist()) - reference)
                positions, trip = _reference_admit(reference, keys, limit)
                for visited in (numpy_set, native_set):
                    got, got_trip = visited.admit(keys, limit)
                    assert got.tolist() == positions
                    assert got_trip == trip
                probe = np.concatenate([
                    keys,
                    rng.integers(0, 2**64 - 1, size=100, dtype=np.uint64,
                                 endpoint=True),
                    np.array([0, 2**64 - 1], dtype=np.uint64),
                ])
                expected_in = [key in reference for key in probe.tolist()]
                assert numpy_set.contains(probe).tolist() == expected_in
                assert native_set.contains(probe).tolist() == expected_in
            return native_set.slots
        finally:
            numpy_set.close()
            native_set.close()

    def test_admit_and_contains_match_numpy_and_a_python_set(self):
        rng = np.random.default_rng(29)
        repeats = rng.integers(0, 3000, size=5000, dtype=np.uint64)
        wide = rng.integers(0, 2**64 - 1, size=5000, dtype=np.uint64,
                            endpoint=True)
        edges = np.array(
            [0, 2**64 - 1, 0, 1 << 63, 5, 5, (1 << 63) | 5, 0],
            dtype=np.uint64,
        )
        level = _canonical_level_keys()
        self._replay([
            (np.empty(0, dtype=np.uint64), 10),
            (edges, 0),  # trips at the first key
            (edges, 2),
            (edges, "exact"),  # admits the rest, no trip
            (edges, 100),  # all present now
            (repeats[:2500], 10**9),
            (repeats, 700),  # trips mid-slice, repeats after the trip
            (repeats, "exact"),
            (np.concatenate([wide, repeats, wide[::-1]]), 3000),
            (wide[::-1], 10**9),
            (level, 1),
            (level, len(level)),
            (level, 10**9),
        ])

    def test_growth_from_the_smallest_table_keeps_every_key(self):
        # Keys homed at slot 0 at every size are stashed by each in-place
        # doubling; keys homed at the last slot fill the pad.  Random
        # keys drive the table through ten and more doublings.
        from repro.checker.fingerprint import splitmix64_many
        from repro.checker.native.generator import VISITED_PAD

        rng = np.random.default_rng(31)
        first = _homed(rng, 300, 24, last=False)
        last = _homed(rng, VISITED_PAD, 24, last=True)
        top = np.uint64(40)
        assert (splitmix64_many(first) >> top == 0).all()
        assert (splitmix64_many(last) >> top == (1 << 24) - 1).all()
        filler = rng.integers(1, 2**64 - 1, size=20_000, dtype=np.uint64,
                              endpoint=True)
        slots = self._replay([
            (first[:150], 10**9),
            (last[:32], 10**9),
            (filler[:5000], 4000),
            (np.concatenate([first, filler[:5000]]), 10**9),
            (np.concatenate([last, filler[5000:], first]), 10**9),
        ])
        assert slots >= 16 << 10

    def test_an_insert_that_runs_off_the_pad_grows_the_table(self):
        from repro.checker.native.generator import VISITED_PAD

        rng = np.random.default_rng(37)
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        native_set = make_kernel(spec, "native").make_visited(3000)
        try:
            slots = native_set.slots
            crowd = _homed(
                rng, VISITED_PAD + 8, slots.bit_length() - 1, last=True
            )
            positions, trip = native_set.admit(crowd, 10**9)
            assert positions.tolist() == list(range(crowd.size))
            assert trip == -1
            # far below the 3/4 load that doubles a table
            assert native_set.slots > slots
            assert native_set.contains(crowd).all()
        finally:
            native_set.close()
        self._replay([(crowd, 10**9), (crowd[::-1], 10**9)], expected=3000)

    def test_native_store_less_runs_skip_the_sorted_pipeline(
        self, monkeypatch
    ):
        # The native set admits a slice in one call: no dedup sort, no
        # probe of a sorted array, no merge into a copy of it.
        from repro.checker.batch import BatchKernel
        from repro.checker.native.loader import NativeKernel

        calls = []

        def spy(name, real):
            return lambda *args: (calls.append(name), real(*args))[1]

        for owner in (BatchKernel, NativeKernel):
            for name in ("unique_first", "probe_sorted"):
                monkeypatch.setattr(
                    owner, name, spy(name, getattr(owner, name))
                )
        monkeypatch.setattr(
            batch_mod, "_insert_sorted",
            spy("_insert_sorted", batch_mod._insert_sorted),
        )

        def run(kernel):
            calls.clear()
            result = explore_batch(
                FastSnapshotSpec([1, 2, 3], N3_IDENTITY), max_states=3000,
                symmetry=True, kernel=kernel,
            )
            assert result.states == 3000
            return set(calls)

        assert run("numpy") == {"unique_first", "probe_sorted", "_insert_sorted"}
        assert run("native") == set()

    @pytest.mark.parametrize("presize", [1, None])
    @pytest.mark.parametrize("wiring", N3_SYMMETRY_CLASSES, ids=str)
    def test_n3_por_runs_are_field_identical_between_kernels(
        self, wiring, presize, monkeypatch
    ):
        # C3 asks the visited set about every candidate pool at a level
        # boundary.  From a one-key presize the native table grows
        # eleven times under those queries.
        if presize is not None:
            monkeypatch.setattr(batch_mod, "_VISITED_PRESIZE", presize)

        def run(kernel):
            return asdict(explore_batch(
                FastSnapshotSpec([1, 2, 3], wiring), max_states=20_000,
                symmetry=True, por=True, kernel=kernel,
            ))

        numpy_run = run("numpy")
        assert numpy_run["states"] == 20_000
        assert numpy_run == run("native")


@requires_numpy
@requires_native
class TestExhaustiveN2Matrix:
    """Composed engine, exhaustive N=2: native == numpy field for field."""

    @pytest.mark.parametrize("wiring", N2_CLASSES)
    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("store", [None, "spill"])
    def test_unreduced_runs_are_field_identical(
        self, wiring, symmetry, store, tmp_path
    ):
        def run(kernel):
            config = (
                StoreConfig(backend="spill", directory=tmp_path / kernel)
                if store else None
            )
            return explore_batch(
                FastSnapshotSpec([1, 2], wiring), symmetry=symmetry,
                store=config, kernel=kernel,
            )

        numpy_run = asdict(run("numpy"))
        native_run = asdict(run("native"))
        # backend probe patterns differ per kernel; everything else is
        # part of the bit-identity contract
        numpy_run.pop("store_counters")
        native_run.pop("store_counters")
        assert numpy_run == native_run

    @pytest.mark.parametrize("wiring", N2_CLASSES)
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_por_runs_are_field_identical_between_kernels(
        self, wiring, symmetry
    ):
        # vs the *scalar* selector POR is only verdict-conformant, but
        # the two batch kernels share the level-synchronous selector, so
        # between themselves even POR runs must match field for field
        def run(kernel):
            return asdict(explore_batch(
                FastSnapshotSpec([1, 2], wiring),
                symmetry=symmetry, por=True, kernel=kernel,
            ))

        assert run("numpy") == run("native")


@requires_numpy
@requires_native
class TestNativeSetup:
    def test_native_setups_and_runs_build_no_python_fused_tables(
        self, monkeypatch
    ):
        # The native kernel fills its own tables in C, and the drivers
        # canonicalize their one initial state field by field.
        from repro.checker.parallel import explore_sharded
        from repro.checker.symmetry import FastCanonicalizer

        fused = []
        real = FastCanonicalizer._fuse_registers
        monkeypatch.setattr(
            FastCanonicalizer, "_fuse_registers",
            lambda self, *a: (fused.append(self.spec.wiring), real(self, *a))[1],
        )
        for wiring in canonical_wiring_classes(3, 3):
            setup = ClassSetup(
                FastSnapshotSpec([1, 2, 3], wiring), True, "batch", "native"
            )
            assert setup.kernel.kernel_name == "native"
        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        serial = explore_batch(
            spec, max_states=3000, symmetry=True, kernel="native"
        )
        sharded = explore_sharded(
            (1, 2, 3), N3_IDENTITY, jobs=2, max_states=3000, symmetry=True,
            engine="batch", kernel="native",
        )
        assert fused == []
        assert serial.states == 3000 and sharded.states >= 3000
        assert serial.covered_states > serial.states


@requires_numpy
@requires_native
class TestBuildCache:
    """The source-hash cache: small sources, one compile per source."""

    def test_every_n3_source_is_small(self):
        # Only the field maps are baked; the fused tables are filled in
        # C at first use, so no class's source carries them.
        from repro.checker.native.generator import generate_source
        from repro.checker.symmetry import FastCanonicalizer

        for wiring in canonical_wiring_classes(3, 3):
            spec = FastSnapshotSpec([1, 2, 3], wiring)
            source = generate_source(
                spec, FastCanonicalizer(spec).field_maps
            )
            assert len(source.encode()) < 64 * 1024, wiring

    def test_a_second_kernel_in_a_fresh_cache_compiles_nothing(
        self, monkeypatch, tmp_path
    ):
        import repro.checker.native.build as build
        import repro.checker.native.loader as loader
        from repro.checker.symmetry import FastCanonicalizer

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(loader, "_loaded", {})
        compiles = []
        run = build.subprocess.run
        monkeypatch.setattr(
            build.subprocess, "run",
            lambda *a, **k: (compiles.append(a), run(*a, **k))[1],
        )
        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        loader.NativeKernel(spec, FastCanonicalizer(spec))
        assert len(compiles) == 1
        monkeypatch.setattr(loader, "_loaded", {})
        kernel = loader.NativeKernel(spec, FastCanonicalizer(spec))
        assert len(compiles) == 1
        assert kernel.make_canonicalizer(kernel._baked_for) is not None
        assert sorted(path.suffix for path in tmp_path.iterdir()) == [
            ".c", ".so",
        ]

    def test_the_compile_flags_are_part_of_the_key(
        self, monkeypatch, tmp_path
    ):
        # A flag change compiles a new object instead of reusing one
        # built with the old flags.
        import repro.checker.native.build as build
        from repro.checker.native.generator import generate_source

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        commands = []
        run = build.subprocess.run
        monkeypatch.setattr(
            build.subprocess, "run",
            lambda command, **k: (commands.append(command), run(command, **k))[1],
        )
        source = generate_source(FastSnapshotSpec([1, 2], N2_CLASSES[0]), ())
        optimized = build.build_library(source)
        assert build.build_library(source) == optimized
        monkeypatch.setattr(build, "COMPILE_FLAGS", ("-O1", "-shared", "-fPIC"))
        assert build.build_library(source) != optimized
        assert [command[1] for command in commands] == ["-O3", "-O1"]

    def test_each_library_is_dlopened_once_per_process(self, monkeypatch):
        # Repeated explores of one class reuse its open library.
        import ctypes

        import repro.checker.native.loader as loader

        opened = []
        cdll = ctypes.CDLL
        monkeypatch.setattr(
            ctypes, "CDLL",
            lambda path, *args, **kw: (
                opened.append(path), cdll(path, *args, **kw)
            )[1],
        )
        monkeypatch.setattr(loader, "_loaded", {})
        for wiring in N2_CLASSES + N2_CLASSES:
            loader.NativeKernel(FastSnapshotSpec([1, 2], wiring))
        assert len(opened) == len(set(opened)) == 2
        assert sorted(loader._loaded) == sorted(opened)


class TestGenerator:
    def test_fused_symmetry_tables_are_16_bit(self):
        # Both indexes are at most 16 bits wide (fused_tables_fit), and
        # an image is as wide as its index, so every entry fits in a
        # uint16_t: the ten N=3 classes hold 2.4 MB of tables, not 9.4.
        import re

        from repro.checker.native.generator import generate_source
        from repro.checker.symmetry import FastCanonicalizer

        total = 0
        for wiring in canonical_wiring_classes(3, 3):
            spec = FastSnapshotSpec([1, 2, 3], wiring)
            source = generate_source(
                spec, FastCanonicalizer(spec).field_maps
            )
            assert not re.search(r"static uint64_t rk_[rl]t\d", source)
            registers = re.findall(
                r"static uint16_t rk_rt\d+\[RK_BLOCK_MASK \+ 1\];", source
            )
            locals_ = re.findall(
                r"static uint16_t rk_lt\d+\[RK_LOCAL_MASK \+ 1\];", source
            )
            assert len(registers) >= len(locals_)
            entries = len(registers) << (spec.m * spec.reg_bits)
            entries += len(locals_) * (spec.local_mask + 1)
            total += 2 * entries
        assert total == 2_359_296


@requires_numpy
class TestDegradation:
    """No compiler (or an explicit opt-out) must never break a run."""

    def test_disable_env_reports_unavailable(self, monkeypatch):
        from repro.checker.native import loader

        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        assert not loader.native_available()
        assert loader.resolve_kernel("auto") == "numpy"
        assert loader.resolve_kernel("native") == "numpy"

    def test_make_kernel_falls_back_to_numpy_silently(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        kernel = make_kernel(spec, "native", None)
        assert kernel.kernel_name == "numpy"

    def test_native_kernel_raises_unavailable(self, monkeypatch):
        from repro.checker.native.loader import (
            NativeKernel,
            NativeKernelUnavailable,
        )

        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        with pytest.raises(NativeKernelUnavailable):
            NativeKernel(FastSnapshotSpec([1, 2], N2_CLASSES[0]))

    def test_cli_warns_once_and_exits_zero(self, monkeypatch, capsys):
        import repro.checker.native.loader as loader
        from repro.cli import main

        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        monkeypatch.setattr(loader, "_warned_fallback", False)
        code = main(
            ["check", "--n", "2", "--engine", "batch", "--kernel", "native"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.count("--kernel native unavailable") == 1
        # the run itself proceeded on the numpy kernel
        assert "7235 states" in captured.out

    def test_explicit_numpy_kernel_never_warns(self, monkeypatch, capsys):
        import repro.checker.native.loader as loader
        from repro.cli import main

        monkeypatch.setattr(loader, "_warned_fallback", False)
        code = main(
            ["check", "--n", "2", "--engine", "batch", "--kernel", "numpy"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "unavailable" not in captured.err
