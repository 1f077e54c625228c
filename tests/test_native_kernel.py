"""The generated-C kernel vs its numpy twin, bit for bit.

The native kernel's contract is stronger than "same verdict": every
overridden method — fingerprinting, canonicalization, expansion, the
visited set, ample-set selection — must be *bit-identical* to the
numpy implementation, because the exploration loop treats kernels as
interchangeable mid-run (a sharded job may resume under a different
kernel).  Fingerprints and canonical forms are compared on arbitrary
words, and so is expansion at N=2.  At N=3 an arbitrary word can carry
a scan position of m or more, which no run reaches: numpy raises
``IndexError`` on it and the C reads past the pid's register offsets,
so N=3 expansion and selection are compared on reachable frontiers.
The property tests below therefore compare raw arrays, not
exploration summaries; the exhaustive N=2 matrix then checks the
composed engine end to end (``asdict``-equal for non-POR runs,
verdict-conformant under POR, mirroring the batch-vs-scalar contract
in ``test_batch_engine.py``).

The native kernel is a *soft* capability: no compiler (or
``REPRO_NATIVE_DISABLE=1``) must degrade to the numpy kernel with a
single CLI warning and exit code 0, never a traceback.  Those
degradation tests run everywhere; the conformance tests skip cleanly
when the host cannot build kernels.
"""

import itertools
from dataclasses import asdict

import pytest

import repro.checker.batch as batch_mod
from repro.checker.batch import explore_batch, make_kernel
from repro.checker.constants import (
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
from repro.store.base import sorted_member

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
        # Every N=2 word's scan position is in range, so there both
        # kernels expand any word as the scalar oracle does, unreachable
        # phase 3 included (it scans); a selection keeps one pid.
        for wiring in N2_CLASSES:
            spec = FastSnapshotSpec([1, 2], wiring)
            kernels = _kernels(spec)[:2]
            states = _edge_states(spec, rng)
            for selected in (
                None,
                rng.integers(-3, spec.n + 2, size=states.size, dtype=np.int64),
            ):
                picks = [-1] * states.size if selected is None else selected
                oracle = [
                    successor
                    for state, pick in zip(states.tolist(), picks)
                    for pid, successor in spec.successors(state)
                    if pick in (-1, pid)
                ]
                for kernel in kernels:
                    succ, _counts = kernel.expand_level(states, selected)
                    assert succ.tolist() == oracle


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


def _reachable_levels(spec, symmetry, width=150):
    """``(frontier, reached)`` per BFS level of ``spec``'s unreduced
    graph (orbit representatives with ``symmetry``), each level thinned
    to at most ``width`` evenly spaced keys, down to the states where
    every processor is done: the level's keys, and every key reached
    through the next level, so every key a selection round can meet."""
    from repro.checker.symmetry import FastCanonicalizer

    kernel = make_kernel(spec, "numpy")
    canon = kernel.make_canonicalizer(
        FastCanonicalizer(spec) if symmetry else None
    )

    def keys_of(states):
        return states if canon is None else canon.canonical_many(states)

    frontier = keys_of(np.array([spec.initial_state()], dtype=np.uint64))
    visited = frontier
    levels = []
    while frontier.size:
        nxt, _ = kernel.unique_first(keys_of(kernel.expand_level(frontier)[0]))
        nxt = nxt[~sorted_member(visited, nxt)]
        visited = np.sort(np.concatenate((visited, nxt)))
        levels.append((frontier, visited))
        frontier = nxt[:: max(1, -(-nxt.size // width))]
    return levels


def _selectors(kernels, shards, cycle_proviso):
    """Selectors on the numpy and native kernels of a :func:`_kernels`
    triple, each with its own kernel's reducer."""
    from repro.checker.batch import BatchAmpleSelector

    numpy_kernel, native_kernel, canon = kernels
    return [
        BatchAmpleSelector(
            kernel, kernel.make_canonicalizer(canon), shards, cycle_proviso
        )
        for kernel in (numpy_kernel, native_kernel)
    ]


#: Every ownership a selector can have at 1, 2 and 3 shards, with the
#: cycle proviso on and off, against an empty, a partly filled and a
#: full visited set (an index into ``_known``).
SELECTIONS = list(itertools.product(
    [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)], [True, False], range(3)
))
ALL_CLASSES = N2_CLASSES + canonical_wiring_classes(3, 3)


def _known(reached, fill):
    """Membership in none, every other one, or all of ascending
    ``reached``."""
    known = (reached[:0], reached[::2], reached)[fill]
    return lambda keys: sorted_member(known, keys)


@requires_numpy
@requires_native
class TestAmpleSelection:
    """The native selection passes against the numpy twin: the same
    ``selected`` and the same counters on every reachable frontier."""

    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("wiring", ALL_CLASSES, ids=str)
    def test_native_selection_equals_the_numpy_twin(self, wiring, symmetry):
        spec = FastSnapshotSpec(list(range(1, len(wiring) + 1)), wiring)
        kernels = _kernels(spec, symmetry)
        pairs = {
            (shards, proviso): _selectors(kernels, shards, proviso)
            for shards, proviso, _ in SELECTIONS
        }
        # Each level goes through one selection of the rotation, so each
        # selection meets levels from the start to the terminal states.
        levels = _reachable_levels(spec, symmetry)
        for index, (frontier, reached) in enumerate(levels):
            shards, proviso, fill = SELECTIONS[index % len(SELECTIONS)]
            twin, native = pairs[shards, proviso]
            contains = _known(reached, fill)
            # C0/C1 rows stay 9 bytes per state: a bool and a u8 per pid.
            qualified, nsucc = twin.kernel.por_c0c1(frontier)
            assert qualified.dtype == np.bool_ and nsucc.dtype == np.uint8
            assert qualified.shape == nsucc.shape == (spec.n, frontier.size)
            expected = twin.select(frontier, contains)
            assert np.array_equal(native.select(frontier, contains), expected)
            assert native.counters.as_dict() == twin.counters.as_dict()
        # Each selection counts every state once, ample or full.
        assert sum(
            twin.counters.ample_states + twin.counters.fully_expanded_states
            for twin, _ in pairs.values()
        ) == sum(int(frontier.size) for frontier, _ in levels)

    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize(
        "wiring", N2_CLASSES + N3_SYMMETRY_CLASSES, ids=str
    )
    def test_a_foreign_reducer_still_selects_with_todays_keys(
        self, wiring, symmetry
    ):
        # A reducer the library does not bake (here the numpy one) sends
        # the native kernel down the numpy path with that reducer's keys.
        from repro.checker.batch import BatchAmpleSelector, BatchCanonicalizer
        from repro.checker.symmetry import FastCanonicalizer

        spec = FastSnapshotSpec(list(range(1, len(wiring) + 1)), wiring)
        canon = FastCanonicalizer(spec)
        reducer = None if canon.trivial else BatchCanonicalizer(canon)
        native_kernel = make_kernel(spec, "native", canon if symmetry else None)
        twin = BatchAmpleSelector(make_kernel(spec, "numpy"), reducer)
        native = BatchAmpleSelector(native_kernel, reducer)
        for frontier, reached in _reachable_levels(spec, True):
            def contains(keys, known=reached[::3]):
                return sorted_member(known, keys)

            assert np.array_equal(
                native.select(frontier, contains),
                twin.select(frontier, contains),
            )
        assert native.counters.as_dict() == twin.counters.as_dict()

    @pytest.mark.parametrize("shards", [(1, 0), (2, 1)])
    @pytest.mark.parametrize("wiring", N3_SYMMETRY_CLASSES[:2], ids=str)
    def test_a_disk_tier_answers_c3_the_same_for_both_kernels(
        self, wiring, shards
    ):
        # Each kernel's own visited set at a 4K cap: its RAM tier holds
        # 192 keys, so by the later levels the spill store holds most of
        # them and answers most of each round's query.
        from repro.checker.batch import TieredVisited

        spec = FastSnapshotSpec([1, 2, 3], wiring)
        levels = _reachable_levels(spec, True)
        selectors = _selectors(_kernels(spec, True), shards, True)
        tiers = [
            TieredVisited(
                selector.kernel, StoreConfig(backend="spill", mem_cap=4096)
            )
            for selector in selectors
        ]
        try:
            for frontier, _ in levels:
                for tier in tiers:
                    tier.admit(frontier, int(frontier.size))
                twin, native = (
                    selector.select(frontier, tier.contains)
                    for selector, tier in zip(selectors, tiers)
                )
                assert np.array_equal(twin, native)
            # The levels are disjoint, and both tiers hold all of them.
            assert len(tiers[1]) == sum(int(f.size) for f, _ in levels)
            twin_store, native_store = (tier.counters() for tier in tiers)
            twin_store.pop("merge_wall_ms")
            native_store.pop("merge_wall_ms")
            assert native_store == twin_store
            assert native_store["runs"] >= 2
            assert native_store["disk_probes"] > 0
            assert selectors[0].counters.as_dict() == (
                selectors[1].counters.as_dict()
            )
        finally:
            for tier in tiers:
                tier.close()

    def test_native_selection_expands_and_dedups_nothing_in_python(
        self, monkeypatch
    ):
        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        _, native = _selectors(_kernels(spec, True), (2, 1), True)
        calls = []
        for owner, name in (
            (native.kernel, "expand_level"),
            (native.kernel, "unique_first"),
            (native.kernel, "fingerprint_many"),
            (native.reducer, "canonical_many"),
        ):
            monkeypatch.setattr(
                owner, name,
                lambda *args, name=name: calls.append(name),
            )
        queried = []

        def contains(keys):
            queried.append(int(keys.size))
            return np.zeros(keys.shape, dtype=bool)

        for frontier, _ in _reachable_levels(spec, True):
            native.select(frontier, contains)
        assert calls == []
        assert sum(queried) > 0 and native.counters.ample_states > 0

    def test_a_wide_level_leaves_no_scratch_resident(self):
        # Scratch buffers are reused across small frontiers only: a wide
        # level's would stay resident while the visited set grows.
        from repro.checker.batch import _SLICE_SUCCESSORS

        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        twin, native = _selectors(_kernels(spec, True), (1, 0), True)
        levels = _reachable_levels(spec, True)
        frontier, reached = levels[len(levels) // 2]
        wide = np.tile(frontier, _SLICE_SUCCESSORS // int(frontier.size) + 1)
        contains = _known(reached, 1)
        assert np.array_equal(
            native.select(wide, contains), twin.select(wide, contains)
        )
        assert native.counters.as_dict() == twin.counters.as_dict()
        held = native.kernel._buffers.values()
        assert all(buffer.size <= _SLICE_SUCCESSORS for buffer, _ in held)
        native.select(frontier, contains)
        assert "status" in native.kernel._buffers


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
        # the two batch kernels run the same level-synchronous
        # selection, so between themselves even POR runs must match
        # field for field
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
