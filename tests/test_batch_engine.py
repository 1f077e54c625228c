"""The level-batched (numpy) exploration kernel vs the scalar oracle.

The batch engine's whole value proposition is "same verdicts, much
faster", so the load-bearing contract here is *byte-identical
results*: for every unreduced configuration both engines support,
``asdict`` of the two :class:`FastExplorationResult` objects must be
equal — same verdict and violation message, same
admitted/transition/truncated counts even mid-budget, same
covered-state totals under symmetry.  Backend-specific counters
(``store_counters``) are the one documented exception: the engines
issue different probe patterns against the same visited set.

POR is the other documented carve-out: the batch engine's
level-synchronous cycle proviso (C3 against ``visited ∪
earlier-in-level``) legitimately picks different — equally sound —
ample sets than the scalar selector's mid-level one, so batch+POR
conformance is *verdict-level* (same ok/violation/complete, plus the
``PORCounters`` accounting invariant), not count-identical.

numpy is a soft dependency.  The conformance matrix skips cleanly
without it; the degradation tests below run regardless (they simulate
absence by flipping ``HAVE_NUMPY``) and prove every batch entry point
fails with a clear :class:`BatchEngineUnavailable` instead of a
traceback.
"""

import random
from dataclasses import asdict

import pytest

import repro.checker.batch as batch_mod
from repro.checker import parallel
from repro.checker.batch import BatchEngineUnavailable
from repro.checker.fast_snapshot import FastSnapshotSpec
from repro.checker.fingerprint import fingerprint_int, splitmix64
from repro.checker.parallel import check_snapshot_classes, explore_sharded
from repro.store import StoreConfig

requires_numpy = pytest.mark.skipif(
    not batch_mod.HAVE_NUMPY, reason="numpy not installed"
)

if batch_mod.HAVE_NUMPY:
    import numpy as np

#: Both N=2 wiring classes (canonical representatives).
N2_CLASSES = [((0, 1), (0, 1)), ((0, 1), (1, 0))]

#: One N=3 class for budgeted multi-level coverage.
N3_CLASS = ((0, 1, 2), (0, 1, 2), (1, 2, 0))

#: N=3 classes whose wiring stabilizers have order 6 (identity wiring),
#: 2 and 3, for the budget-clipped symmetric runs.
N3_SYMMETRY_CLASSES = [
    ((0, 1, 2), (0, 1, 2), (0, 1, 2)),
    N3_CLASS,
    ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
]

_SEEDED_MESSAGE = "seeded violation: a processor terminated"


def _seed_violation(monkeypatch):
    """Flag any state with a DONE processor (snapshot is actually safe).

    Patching the *class* before the batch module's vectorized check
    runs exercises the stock-check identity guard: the batch engine
    must notice ``check_outputs`` was overridden and fall back to the
    per-state scalar call, or the seeded fault would be invisible to
    its vectorized mask.
    """
    original = FastSnapshotSpec.check_outputs

    def seeded(self, state):
        for pid in range(self.n):
            local = (state >> self.local_offsets[pid]) & self.local_mask
            if (local >> self.o_phase) & 3 == 2:  # DONE
                return _SEEDED_MESSAGE
        return original(self, state)

    monkeypatch.setattr(FastSnapshotSpec, "check_outputs", seeded)


def _both(wiring, inputs=(1, 2), **kwargs):
    """(scalar result, batch result) as dicts, for equality asserts."""
    scalar = FastSnapshotSpec(list(inputs), wiring).explore(
        engine="scalar", **kwargs
    )
    batch = FastSnapshotSpec(list(inputs), wiring).explore(
        engine="batch", **kwargs
    )
    return asdict(scalar), asdict(batch)


def _verdict(result):
    """The POR-conformance projection: verdict fields only.

    Works on results and their ``asdict`` forms alike.  Under POR the
    two engines' C3 oracles legitimately pick different ample sets, so
    state/transition counts are not comparable — only verdicts are.
    """
    if not isinstance(result, dict):
        result = asdict(result)
    return (
        result["violation"] is None,
        result["violation"],
        result["complete"],
    )


def _assert_por_accounting(batch_dict):
    """The batch selector must keep the scalar counters' invariant."""
    counters = batch_dict["por_counters"]
    assert counters is not None
    assert (
        counters["ample_states"] + counters["fully_expanded_states"]
        == batch_dict["states"]
    )


# ----------------------------------------------------------------------
# Satellite: batched splitmix64 === scalar splitmix64 (shared constants)
# ----------------------------------------------------------------------


@requires_numpy
class TestFingerprintParity:
    def test_splitmix_agrees_on_random_u64s_and_edges(self):
        rng = random.Random(0xE15)
        samples = [rng.getrandbits(64) for _ in range(10_000)]
        samples += [0, 2**64 - 1, 1, 2**63, 2**63 - 1]
        arr = np.array(samples, dtype=np.uint64)
        batched = batch_mod.splitmix64_many(arr)
        for value, out in zip(samples, batched.tolist()):
            assert out == splitmix64(value)

    def test_fingerprint_many_matches_fingerprint_int(self):
        rng = random.Random(0x51A7)
        samples = [rng.getrandbits(64) for _ in range(10_000)]
        samples += [0, 2**64 - 1]
        arr = np.array(samples, dtype=np.uint64)
        batched = batch_mod.fingerprint_many(arr)
        for value, out in zip(samples, batched.tolist()):
            assert out == fingerprint_int(value)

    def test_engines_share_one_constants_module(self):
        import repro.checker.constants as constants
        import repro.checker.fingerprint as fingerprint

        # Not merely equal values: the scalar module must re-export the
        # shared constants, so a future edit cannot desynchronize them.
        assert fingerprint.SPLITMIX_GAMMA is constants.SPLITMIX_GAMMA
        assert fingerprint.MASK64 is constants.MASK64


# ----------------------------------------------------------------------
# Tentpole: serial conformance — the scalar engine is the oracle
# ----------------------------------------------------------------------


@requires_numpy
class TestSerialConformance:
    @pytest.mark.parametrize("wiring", N2_CLASSES)
    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("por", [False, True])
    def test_exhaustive_n2_matrix(self, wiring, symmetry, por):
        scalar, batch = _both(wiring, symmetry=symmetry, por=por)
        if por:
            # Verdict-level conformance: the level-synchronous C3
            # oracle legitimately picks different ample sets (see
            # module docstring); both reductions must stay sound.
            unreduced, _ = _both(wiring, symmetry=symmetry)
            assert _verdict(scalar) == _verdict(batch) == _verdict(unreduced)
            _assert_por_accounting(batch)
            assert batch["por_counters"]["transitions_pruned"] > 0
            assert batch["transitions"] < unreduced["transitions"]
        else:
            assert scalar == batch

    def test_batch_por_cycle_proviso_seam(self):
        # The snapshot machine's reachable graph is a DAG, so disabling
        # C3 must not change the verdict — it only removes proviso
        # blocks (the livelock regression that *needs* C3 lives in
        # tests/test_por.py on the generic engine).
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[1])
        guarded = spec.explore(engine="batch", por=True)
        unguarded = spec.explore(
            engine="batch", por=True, por_cycle_proviso=False
        )
        assert _verdict(guarded) == _verdict(unguarded)
        assert unguarded.por_counters["cycle_proviso_expansions"] == 0

    @pytest.mark.parametrize("budget", [1, 2, 7, 50, 500])
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_budget_clipped_counts_match_exactly(self, budget, symmetry):
        # Mid-level budget trips are where the two loops most easily
        # diverge: the truncated-transition count depends on *where*
        # inside a level the (B+1)-th fresh state appeared.
        scalar, batch = _both(
            N2_CLASSES[1], max_states=budget, symmetry=symmetry
        )
        assert scalar == batch

    @pytest.mark.parametrize("wiring", N3_SYMMETRY_CLASSES, ids=str)
    @pytest.mark.parametrize("budget", [1, 97, 4321])
    @pytest.mark.parametrize("kernel", ["numpy", "native"])
    def test_budgeted_n3_multi_level(self, wiring, budget, kernel):
        # The scalar loop memoizes raw successors under symmetry; the
        # batch loop canonicalizes every one.  Budget trips are where
        # a skipped occurrence could change the truncated count.
        scalar, batch = _both(
            wiring, inputs=(1, 2, 3), max_states=budget, symmetry=True,
            kernel=kernel,
        )
        assert scalar == batch
        assert not batch["complete"] and batch["states"] == budget

    def test_successors_are_pairwise_distinct(self):
        # The premise that lets the batch loop drop the scalar loop's
        # raw-successor cache without changing budget-clipped counts:
        # no state generates the same successor twice.
        for wiring in N2_CLASSES:
            spec = FastSnapshotSpec([1, 2], wiring)
            frontier = [spec.initial_state()]
            seen = set(frontier)
            buf = []
            while frontier:
                state = frontier.pop()
                spec.successor_states_into(state, buf)
                assert len(set(buf)) == len(buf), hex(state)
                for successor in buf:
                    if successor not in seen:
                        seen.add(successor)
                        frontier.append(successor)
            assert len(seen) == spec.explore().states

    def test_seeded_violation_matches_and_defeats_vectorized_mask(
        self, monkeypatch
    ):
        _seed_violation(monkeypatch)
        scalar, batch = _both(N2_CLASSES[1])
        assert scalar == batch
        assert batch["violation"] == _SEEDED_MESSAGE
        assert not batch["complete"] or batch["violation"] is not None

    def test_seeded_violation_after_batch_import(self, monkeypatch):
        # Patch order must not matter: importing batch first, then
        # patching, then exploring still sees the seeded fault.
        import repro.checker.batch  # noqa: F401  (already imported)

        _seed_violation(monkeypatch)
        scalar, batch = _both(N2_CLASSES[0], symmetry=True)
        assert scalar == batch
        assert batch["violation"] == _SEEDED_MESSAGE

    def test_unknown_engine_rejected(self):
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        with pytest.raises(ValueError, match="unknown engine"):
            spec.explore(engine="simd")

    def test_wait_freedom_refused_on_batch(self):
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        with pytest.raises(ValueError, match="edge"):
            spec.explore(engine="batch", check_wait_freedom=True)


@requires_numpy
class TestStoreConformance:
    @pytest.mark.parametrize("backend", ["ram", "mmap", "spill"])
    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("por", [False, True])
    def test_backends_match_scalar(self, backend, symmetry, por, tmp_path):
        def run(engine, sub):
            return FastSnapshotSpec([1, 2], N2_CLASSES[1]).explore(
                engine=engine, symmetry=symmetry, por=por,
                store=StoreConfig(
                    backend=backend, directory=str(tmp_path / sub)
                ),
            )

        scalar = asdict(run("scalar", "scalar"))
        batch = asdict(run("batch", "batch"))
        if por:
            assert _verdict(scalar) == _verdict(batch)
            _assert_por_accounting(batch)
            return
        # The engines probe the same visited set with different call
        # patterns (scalar add/contains vs one bulk call per level), so
        # operation counters legitimately differ; everything else must
        # not.
        scalar.pop("store_counters")
        batch.pop("store_counters")
        assert scalar == batch


# ----------------------------------------------------------------------
# Budget slicing: a level that can trip the budget is admitted in
# frontier slices
# ----------------------------------------------------------------------

#: ``(wiring, symmetry, budget)`` whose trip lands in a later slice that
#: admitted states, at slice floors 1 and 3 (found by scanning every
#: budget; the budgets above all trip in a level's first slice).
LATER_SLICE_TRIPS = [
    (N2_CLASSES[0], False, 7215),
    (N2_CLASSES[0], True, 3603),
    (N2_CLASSES[1], False, 3702),
    (N2_CLASSES[1], True, 3201),
]


@pytest.fixture
def slice_log(monkeypatch):
    """Per expanded slice: ``(start, stop, frontier size, admitted)``."""
    log = []
    real_end = batch_mod._slice_end
    real_check = batch_mod._first_violation

    def slice_end(start, n_states, *args):
        stop = real_end(start, n_states, *args)
        log.append((start, stop, n_states, []))
        return stop

    def first_violation(spec, kernel, states):
        log[-1][3].extend(states.tolist())
        return real_check(spec, kernel, states)

    monkeypatch.setattr(batch_mod, "_slice_end", slice_end)
    monkeypatch.setattr(batch_mod, "_first_violation", first_violation)
    return log


@requires_numpy
class TestSlicedAdmission:
    """Budget-tripping levels admitted in slices vs the scalar oracle.

    FIFO admission does not change when a level's frontier is cut into
    consecutive slices that each probe ``visited ∪ earlier slices``, so
    every result must still equal the scalar loop's.  At the default
    ``_SLICE_FLOOR`` the budgets elsewhere in this file never slice a
    level; here the floor shrinks to 1 and 3 successors, so a tripping
    level's slices cover about ``4 * remaining`` successors each.
    """

    @pytest.fixture(params=[1, 3], autouse=True)
    def floor(self, request, monkeypatch):
        monkeypatch.setattr(batch_mod, "_SLICE_FLOOR", request.param)

    @pytest.mark.parametrize("kernel", ["numpy", "native"])
    @pytest.mark.parametrize(
        "budget", [1, 2, 7, 50, 500, 3000, 7235, None]
    )
    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("wiring", N2_CLASSES)
    def test_n2_matches_scalar(self, wiring, symmetry, budget, kernel):
        kwargs = {} if budget is None else {"max_states": budget}
        scalar, batch = _both(
            wiring, symmetry=symmetry, kernel=kernel, **kwargs
        )
        assert scalar == batch

    @pytest.mark.parametrize("kernel", ["numpy", "native"])
    @pytest.mark.parametrize("budget", [97, 4321, 30000])
    @pytest.mark.parametrize("wiring", N3_SYMMETRY_CLASSES, ids=str)
    def test_n3_symmetric_classes_match_scalar(self, wiring, budget, kernel):
        scalar, batch = _both(
            wiring, inputs=(1, 2, 3), max_states=budget, symmetry=True,
            kernel=kernel,
        )
        assert scalar == batch

    @pytest.mark.parametrize("kernel", ["numpy", "native"])
    @pytest.mark.parametrize(
        "wiring,symmetry,budget", LATER_SLICE_TRIPS, ids=str
    )
    def test_trip_in_a_later_slice_matches_scalar(
        self, wiring, symmetry, budget, kernel, slice_log
    ):
        # The trip's transition count adds every earlier slice's
        # successors to the tripping parent's buffer end.
        scalar, batch = _both(
            wiring, max_states=budget, symmetry=symmetry, kernel=kernel
        )
        start, _stop, _n_states, admitted = slice_log[-1]
        assert start > 0 and admitted
        assert scalar == batch

    @pytest.mark.parametrize("kernel", ["numpy", "native"])
    def test_seeded_violation_in_a_later_slice_matches_scalar(
        self, kernel, slice_log, monkeypatch
    ):
        wiring, symmetry, budget = LATER_SLICE_TRIPS[-1]
        kwargs = dict(max_states=budget, symmetry=symmetry, kernel=kernel)
        FastSnapshotSpec([1, 2], wiring).explore(engine="batch", **kwargs)
        start, _stop, _n_states, admitted = slice_log[-1]
        assert start > 0 and admitted
        target = admitted[0]
        original = FastSnapshotSpec.check_outputs

        def seeded(self, state):
            if state == target:
                return _SEEDED_MESSAGE
            return original(self, state)

        monkeypatch.setattr(FastSnapshotSpec, "check_outputs", seeded)
        slice_log.clear()
        scalar, batch = _both(wiring, **kwargs)
        assert batch["violation"] == _SEEDED_MESSAGE
        assert slice_log[-1][0] > 0  # the violating slice is a later one
        assert scalar == batch

    @pytest.mark.parametrize("kernel", ["numpy", "native"])
    @pytest.mark.parametrize("budget", [500, 3201, None])
    def test_spill_store_matches_scalar(self, budget, kernel, tmp_path):
        def run(engine):
            return asdict(FastSnapshotSpec([1, 2], N2_CLASSES[1]).explore(
                engine=engine, kernel=kernel, symmetry=True,
                **({} if budget is None else {"max_states": budget}),
                store=StoreConfig(
                    backend="spill", directory=str(tmp_path / engine),
                    mem_cap=1 << 16,
                ),
            ))

        scalar, batch = run("scalar"), run("batch")
        # Slicing changes which keys each bulk probe sees, so the spill
        # counters may differ; nothing else may.
        scalar.pop("store_counters")
        batch.pop("store_counters")
        assert scalar == batch


@requires_numpy
class TestSlicedPOR:
    """Under POR, slicing must not change any field: the ample sets are
    chosen once per level, before the level is cut."""

    @pytest.mark.parametrize("kernel", ["numpy", "native"])
    @pytest.mark.parametrize("budget", [7, 50, 500, 3201])
    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("wiring", N2_CLASSES)
    def test_slices_match_one_slice_field_for_field(
        self, wiring, symmetry, budget, kernel, monkeypatch
    ):
        def run(floor):
            monkeypatch.setattr(batch_mod, "_SLICE_FLOOR", floor)
            return asdict(FastSnapshotSpec([1, 2], wiring).explore(
                engine="batch", kernel=kernel, por=True,
                symmetry=symmetry, max_states=budget,
            ))

        assert run(1) == run(1 << 62)


# ----------------------------------------------------------------------
# Tentpole: sharded conformance (whole levels across the wire)
# ----------------------------------------------------------------------


@requires_numpy
class TestShardedConformance:
    @pytest.fixture(autouse=True)
    def force_two_workers(self, monkeypatch):
        # A single-core host would collapse jobs to 1 (serial fallback)
        # and never exercise the array wire format.
        monkeypatch.setattr(
            parallel, "effective_jobs", lambda requested: requested
        )

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_exhaustive_n2_matches_scalar_workers(self, symmetry):
        kwargs = dict(jobs=2, symmetry=symmetry)
        scalar = explore_sharded(
            [1, 2], N2_CLASSES[1], engine="scalar", **kwargs
        )
        batch = explore_sharded([1, 2], N2_CLASSES[1], engine="batch", **kwargs)
        assert asdict(scalar) == asdict(batch)

    def test_budgeted_n3_matches_scalar_workers(self):
        scalar = explore_sharded(
            [1, 2, 3], N3_CLASS, jobs=2, max_states=2_000, engine="scalar"
        )
        batch = explore_sharded(
            [1, 2, 3], N3_CLASS, jobs=2, max_states=2_000, engine="batch"
        )
        assert asdict(scalar) == asdict(batch)

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_por_batch_workers_verdict_conformant(self, symmetry):
        scalar = explore_sharded(
            [1, 2], N2_CLASSES[1], jobs=2, por=True, symmetry=symmetry,
            engine="scalar",
        )
        batch = explore_sharded(
            [1, 2], N2_CLASSES[1], jobs=2, por=True, symmetry=symmetry,
            engine="batch",
        )
        # Workers run the level-synchronous selector, which certifies
        # novelty against a smaller snapshot than the scalar selector's
        # mid-level visited set: verdicts must agree, counts may not.
        assert _verdict(scalar) == _verdict(batch)
        assert batch.por_counters is not None
        assert batch.por_counters["transitions_pruned"] > 0
        _assert_por_accounting(asdict(batch))

    def test_class_sweep_matches_scalar(self):
        scalar = check_snapshot_classes(2, jobs=2, engine="scalar")
        batch = check_snapshot_classes(2, jobs=2, engine="batch")
        assert len(scalar) == len(batch)
        for (w_scalar, r_scalar), (w_batch, r_batch) in zip(scalar, batch):
            assert w_scalar == w_batch
            assert asdict(r_scalar) == asdict(r_batch)

    def test_checkpoint_interrupt_resume_roundtrip(self, tmp_path):
        from repro.store.checkpoint import RunCheckpointer

        meta = {"n": 3, "engine_test": "batch"}
        kwargs = dict(jobs=2, max_states=3_000, engine="batch")
        uninterrupted = explore_sharded([1, 2, 3], N3_CLASS, **kwargs)
        fired = []

        def interrupt_once():
            fired.append(True)
            if len(fired) == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            explore_sharded(
                [1, 2, 3], N3_CLASS, **kwargs,
                checkpointer=RunCheckpointer(tmp_path, meta, every=500),
                _after_checkpoint=interrupt_once,
            )
        resumed = explore_sharded(
            [1, 2, 3], N3_CLASS, **kwargs,
            checkpointer=RunCheckpointer(tmp_path, meta, every=500),
        )
        assert asdict(resumed) == asdict(uninterrupted)


# ----------------------------------------------------------------------
# Graceful degradation without numpy (runs with numpy installed too —
# absence is simulated by flipping HAVE_NUMPY)
# ----------------------------------------------------------------------


class TestWithoutNumpy:
    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)

    def test_require_numpy_raises_with_guidance(self):
        with pytest.raises(BatchEngineUnavailable, match="--engine scalar"):
            batch_mod.require_numpy()

    def test_explore_batch_refused(self):
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        with pytest.raises(BatchEngineUnavailable):
            spec.explore(engine="batch")

    def test_explore_sharded_batch_refused(self, monkeypatch):
        monkeypatch.setattr(
            parallel, "effective_jobs", lambda requested: requested
        )
        with pytest.raises(BatchEngineUnavailable):
            explore_sharded([1, 2], N2_CLASSES[0], jobs=2, engine="batch")

    def test_scalar_engine_unaffected(self):
        result = FastSnapshotSpec([1, 2], N2_CLASSES[0]).explore()
        assert result.ok and result.states == 7235

    def test_cli_exits_2_with_message(self, capsys):
        from repro.cli import main

        assert main(["check", "--n", "2", "--engine", "batch"]) == 2
        out = capsys.readouterr().out
        assert "numpy is not installed" in out


# ----------------------------------------------------------------------
# CLI happy path
# ----------------------------------------------------------------------


@requires_numpy
class TestCliBatchEngine:
    def test_check_n2_engine_batch_runs_class_sweep(self, capsys):
        from repro.cli import main

        assert main(["check", "--n", "2", "--engine", "batch"]) == 0
        out = capsys.readouterr().out
        # the batch engine triggers the fast class sweep on top of the
        # full-edge liveness pass
        assert "class sweep" in out
        assert out.count("7235 states") >= 2

    def test_unknown_engine_rejected_by_argparse(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["check", "--n", "2", "--engine", "simd"])


# ----------------------------------------------------------------------
# _unique_first's sorted fast path (spill merges hand back whole levels
# in key order; re-sorting them was measurable pure waste)
# ----------------------------------------------------------------------


@requires_numpy
class TestUniqueFirstSortedPath:
    def test_sorted_input_skips_the_sort_and_matches_the_oracle(
        self, monkeypatch
    ):
        rng = np.random.default_rng(7)
        keys = np.sort(rng.integers(0, 50, size=4096, dtype=np.uint64))
        oracle_uniq, oracle_first = np.unique(keys, return_index=True)
        argsorts = []
        real_argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort",
            lambda *args, **kw: (
                argsorts.append(1), real_argsort(*args, **kw)
            )[1],
        )
        uniq, first = batch_mod._unique_first(keys)
        assert argsorts == []  # the fast path must not sort again
        assert np.array_equal(uniq, oracle_uniq)
        assert np.array_equal(first, oracle_first)

    @pytest.mark.parametrize("size", [0, 1, 2, 257])
    def test_edge_shapes_sorted_and_unsorted(self, size):
        rng = np.random.default_rng(size)
        raw = rng.integers(0, max(1, size // 3), size=size, dtype=np.uint64)
        for keys in (raw, np.sort(raw)):
            uniq, first = batch_mod._unique_first(keys)
            oracle_uniq, oracle_first = np.unique(keys, return_index=True)
            assert np.array_equal(uniq, oracle_uniq)
            assert np.array_equal(first, oracle_first)

    def test_unsorted_input_still_reports_minimal_positions(self):
        keys = np.array([9, 3, 9, 3, 1, 1, 9], dtype=np.uint64)
        uniq, first = batch_mod._unique_first(keys)
        assert uniq.tolist() == [1, 3, 9]
        assert first.tolist() == [4, 1, 0]

    def test_spill_level_dedup_accounting_unchanged(self, tmp_path):
        # The spill store's merge path is what feeds already-sorted key
        # arrays back into the level dedup; the fast path must leave
        # every admitted/transition count identical to the RAM run.
        def run(backend, sub):
            return asdict(FastSnapshotSpec([1, 2, 3], N3_CLASS).explore(
                engine="batch", max_states=3_000,
                store=StoreConfig(
                    backend=backend, directory=str(tmp_path / sub)
                ),
            ))

        ram = run("ram", "ram")
        spill = run("spill", "spill")
        ram.pop("store_counters")
        spill.pop("store_counters")
        assert ram == spill
