"""The generated-C kernel vs its numpy twin, bit for bit.

The native kernel's contract is stronger than "same verdict": every
overridden method — fingerprinting, canonicalization, expansion, the
in-level dedup, the C0/C1 selector phase — must be *bit-identical* to
the numpy implementation on arbitrary inputs, because the exploration
loop treats kernels as interchangeable mid-run (a sharded job may
resume under a different kernel).  The property tests below therefore
compare raw arrays, not exploration summaries; the exhaustive N=2
matrix then checks the composed engine end to end (``asdict``-equal
for non-POR runs, verdict-conformant under POR, mirroring the
batch-vs-scalar contract in ``test_batch_engine.py``).

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
from repro.checker.constants import MASK64, SPLITMIX_GAMMA
from repro.checker.fast_snapshot import FastSnapshotSpec
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

    def test_merge_sorted_bit_identical(self):
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        numpy_kernel, native_kernel, _ = _kernels(spec)
        rng = np.random.default_rng(19)
        visited = np.unique(
            rng.integers(1 << 20, 1 << 40, size=5000, dtype=np.uint64)
        )
        interleaved = np.setdiff1d(
            rng.integers(0, 1 << 41, size=3000, dtype=np.uint64), visited
        )
        empty = np.empty(0, dtype=np.uint64)
        cases = [
            (empty, empty),
            (empty, interleaved),
            (visited, empty),
            (visited, np.arange(1000, dtype=np.uint64)),  # all before
            (visited, np.arange(1000, dtype=np.uint64) + (1 << 40)),
            (visited, interleaved),
        ]
        for sorted_keys, fresh in cases:
            _present, at = native_kernel.probe_sorted(sorted_keys, fresh)
            merged_n = numpy_kernel.merge_sorted(sorted_keys, at, fresh)
            merged_c = native_kernel.merge_sorted(sorted_keys, at, fresh)
            assert np.array_equal(merged_n, merged_c)
            assert np.array_equal(merged_c, np.union1d(sorted_keys, fresh))
        # positions that go backwards, run past the end, or are missing
        # would send the copy out of bounds
        fresh = np.array([1, 2], dtype=np.uint64)
        for at in ([3, 1], [0, visited.size + 1], [0]):
            with pytest.raises(ValueError):
                native_kernel.merge_sorted(
                    visited, np.array(at, dtype=np.int64), fresh
                )

    def test_por_c0c1_bit_identical_on_reachable_frontier(self):
        from repro.checker.batch import BatchAmpleSelector

        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        numpy_kernel, native_kernel, _ = _kernels(spec)
        tables = BatchAmpleSelector(numpy_kernel).tables
        frontier = np.array([spec.initial_state()], dtype=np.uint64)
        for _ in range(5):
            rows_n = numpy_kernel.por_c0c1(frontier, tables)
            rows_c = native_kernel.por_c0c1(frontier, tables)
            for left, right in zip(rows_n, rows_c):
                assert np.array_equal(left, right)
            succ, _counts = numpy_kernel.expand_level(frontier)
            frontier, _ = numpy_kernel.unique_first(np.sort(succ))


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
class TestCacheIndex:
    """The spec-keyed index in front of the source-hash cache."""

    def test_warm_start_skips_source_generation(self, monkeypatch):
        import repro.checker.native.loader as loader
        from repro.checker.native.loader import NativeKernel
        from repro.checker.symmetry import FastCanonicalizer

        spec = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        canon = FastCanonicalizer(spec)
        NativeKernel(spec, canon)  # ensure cache + index are populated
        calls = []
        real = loader.generate_source
        monkeypatch.setattr(
            loader, "generate_source",
            lambda *a, **k: (calls.append(1), real(*a, **k))[1],
        )
        NativeKernel(spec, canon)
        assert calls == []

    def test_editing_a_fixed_body_rekeys_the_index(self, monkeypatch):
        # An index entry must never name an object built from an older
        # body, even when GENERATOR_VERSION was not bumped.
        from repro.checker.native import generator

        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        before = generator.spec_cache_key(spec)
        monkeypatch.setattr(generator, "_BODIES_DIGEST", "edited")
        assert generator.spec_cache_key(spec) != before

    def test_stale_index_entry_falls_back_to_rebuild(
        self, monkeypatch, tmp_path
    ):
        from repro.checker.native import build
        from repro.checker.native.loader import NativeKernel

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        key = "0" * 32
        # an index entry naming an object that no longer exists
        (tmp_path / f"rk-idx-{key}.txt").write_text("rk-gone.so")
        assert build.cached_library_for(key) is None
        # and a fresh build both works and re-records the true mapping
        kernel = NativeKernel(spec)
        assert kernel.kernel_name == "native"
        assert list(tmp_path.glob("rk-*.so"))

    def test_spec_cache_key_separates_machines_and_tables(self):
        from repro.checker.native.generator import spec_cache_key
        from repro.checker.symmetry import FastCanonicalizer

        spec_a = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        spec_b = FastSnapshotSpec([1, 2], N2_CLASSES[1])
        spec_n3 = FastSnapshotSpec([1, 2, 3], N3_IDENTITY)
        tables = tuple(FastCanonicalizer(spec_n3).element_tables)
        keys = {
            spec_cache_key(spec_a),
            spec_cache_key(spec_b),
            spec_cache_key(spec_n3),
            spec_cache_key(spec_n3, tables),
        }
        assert len(keys) == 4
        assert spec_cache_key(spec_n3, tables) == spec_cache_key(
            spec_n3, tables
        )

    def test_one_cffi_cdef_per_process(self, monkeypatch):
        # Every class library is dlopened through one FFI, so the
        # signature table is parsed once however many classes load.
        cffi = pytest.importorskip("cffi")
        import repro.checker.native.loader as loader

        parsed = []
        cdef = cffi.FFI.cdef
        monkeypatch.setattr(
            cffi.FFI, "cdef",
            lambda ffi, source, **kw: (parsed.append(1), cdef(ffi, source, **kw))[1],
        )
        monkeypatch.setattr(loader, "_loaded", {})
        loader._cffi_ffi.cache_clear()
        for wiring in N2_CLASSES:
            loader.NativeKernel(FastSnapshotSpec([1, 2], wiring))
        assert len(loader._loaded) == 2
        assert parsed == [1]


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
