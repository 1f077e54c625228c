"""Sharded wire format: the canonical bit and its skip accounting.

Boundary states travel as ``(state << 1) | canonical_bit``; a set bit
certifies the sender already canonicalized the state, so the receiving
shard skips re-canonicalization and counts the skip.  The protocol
tests drive ``_shard_worker`` directly over a pipe (a thread stands in
for the driver, so this works on a single-core host where
``effective_jobs`` would collapse a full run to the serial path); the
end-to-end tests monkeypatch ``effective_jobs`` to force real worker
processes and then require verdict/coverage conformance with the
serial engine plus a nonzero skip count.
"""

import multiprocessing
import threading

import pytest

import repro.checker.parallel as parallel
from repro.analysis import aggregate_symmetry_statistics
from repro.checker.fast_snapshot import FastSnapshotSpec
from repro.checker.parallel import _shard_worker, explore_sharded
from repro.checker.symmetry import FastCanonicalizer

#: Identity wiring class for N=2 — nontrivial stabilizer (order 2).
WIRING = ((0, 1), (0, 1))


def _run_rounds(rounds, symmetry=True):
    """Drive one worker (shard 0 of 1) through the given rounds."""
    parent, child = multiprocessing.Pipe()
    thread = threading.Thread(
        target=_shard_worker,
        args=(child, (1, 2), WIRING, 0, 1, symmetry),
    )
    thread.start()
    replies = []
    try:
        for entries in rounds:
            parent.send(("round", list(entries)))
            replies.append(parent.recv())
    finally:
        parent.send(("stop",))
        thread.join(timeout=30)
        parent.close()
    assert not thread.is_alive()
    return replies


def _noncanonical_reachable():
    """A reachable packed state that is not its own orbit representative."""
    spec = FastSnapshotSpec([1, 2], WIRING)
    canonicalizer = FastCanonicalizer(spec)
    assert not canonicalizer.trivial
    frontier = [spec.initial_state()]
    seen = set(frontier)
    buf = []
    for _ in range(6):
        next_frontier = []
        for state in frontier:
            spec.successor_states_into(state, buf)
            for successor in buf:
                if successor in seen:
                    continue
                seen.add(successor)
                next_frontier.append(successor)
                if canonicalizer.canonical(successor) != successor:
                    return spec, canonicalizer, successor
        frontier = next_frontier
    raise AssertionError("no non-canonical reachable state found")


class TestWorkerProtocol:
    def test_flagged_entries_skip_recanonicalization(self):
        spec = FastSnapshotSpec([1, 2], WIRING)
        canonical = FastCanonicalizer(spec).canonical(spec.initial_state())
        [reply] = _run_rounds([[(canonical << 1) | 1]])
        kind, admitted, _transitions, violation, outboxes, covered, skipped, _por = reply
        assert kind == "layer" and violation is None
        assert admitted == 1 and skipped == 1
        assert covered >= 1
        # Successors leave a symmetry worker already canonicalized, so
        # every outgoing entry carries the bit.
        assert all(
            entry & 1 for entries in outboxes.values() for entry in entries
        )

    def test_unflagged_orbit_mates_are_canonicalized_and_deduped(self):
        _spec, canonicalizer, state = _noncanonical_reachable()
        representative = canonicalizer.canonical(state)
        entries = [(representative << 1) | 1, (state << 1) | 0]
        [reply] = _run_rounds([entries])
        _kind, admitted, _t, _violation, _outboxes, _covered, skipped, _por = reply
        # The unflagged orbit mate is canonicalized on receipt and lands
        # on the already-admitted representative; only the flagged entry
        # counts as a skip.
        assert admitted == 1
        assert skipped == 1

    def test_plain_runs_never_set_the_bit(self):
        spec = FastSnapshotSpec([1, 2], WIRING)
        initial = spec.initial_state()
        [reply] = _run_rounds([[(initial << 1) | 0]], symmetry=False)
        _kind, admitted, _t, _violation, outboxes, covered, skipped, _por = reply
        assert admitted == 1 and skipped == 0 and covered is None
        assert all(
            entry & 1 == 0
            for entries in outboxes.values()
            for entry in entries
        )


class TestEndToEndConformance:
    @pytest.fixture(autouse=True)
    def force_two_workers(self, monkeypatch):
        # A single-core host would silently collapse jobs to 1 (serial
        # fallback) and never exercise the wire format.
        monkeypatch.setattr(parallel, "effective_jobs", lambda requested: requested)

    def test_symmetry_sharded_matches_serial_and_counts_skips(self):
        serial = FastSnapshotSpec([1, 2], WIRING).explore(symmetry=True)
        sharded = explore_sharded([1, 2], WIRING, jobs=2, symmetry=True)
        assert serial.complete and sharded.complete
        assert (serial.ok, serial.states, serial.covered_states) == (
            sharded.ok, sharded.states, sharded.covered_states,
        )
        assert sharded.symmetry_group_order == 2
        assert sharded.recanonicalizations_skipped > 0

    def test_unreduced_sharded_reports_no_skip_counter(self):
        sharded = explore_sharded([1, 2], WIRING, jobs=2)
        assert sharded.complete and sharded.ok
        assert sharded.recanonicalizations_skipped is None

    def test_aggregate_statistics_sum_the_skips(self):
        serial = FastSnapshotSpec([1, 2], WIRING).explore(symmetry=True)
        sharded = explore_sharded([1, 2], WIRING, jobs=2, symmetry=True)
        stats = aggregate_symmetry_statistics([serial, sharded])
        assert stats.recanonicalizations_skipped == (
            sharded.recanonicalizations_skipped
        )
        assert "re-canonicalizations skipped" in stats.summary()
