"""E4 — TLC claim A: model checking the snapshot algorithm.

The paper: "The TLC model-checker is able to exhaustively explore all
3-processor executions of this algorithm, and it confirms that the
algorithm solves the snapshot task wait-free."

Reproduction:

- **N=2, exhaustive, certified**: every wiring (up to relabelling),
  every reachable state checked against the snapshot safety invariants,
  wait-freedom certified by lasso analysis of the full state graph.
- **N=3, per canonical wiring class**: the bitmask explorer sweeps each
  of the 10 classes (wirings up to relabelling + processor permutation)
  under a state budget (exhaustive N=3 is ~10^7-10^8 states per class —
  set ``REPRO_E4_FULL=1`` for the unbounded run).  Zero violations.
- **N=3 statistical**: a large randomized-schedule sweep through full
  terminations as a depth-complement to the breadth-bounded sweep.
"""

import random

from repro.api import run_snapshot
from repro.checker import Explorer, SystemSpec
from repro.checker.liveness import check_wait_freedom
from repro.checker.parallel import check_snapshot_classes
from repro.checker.properties import SNAPSHOT_SAFETY
from repro.core import SnapshotMachine
from repro.core.views import all_comparable
from repro.memory.wiring import enumerate_wiring_assignments

from _bench_utils import E4_BUDGET, E4_JOBS, E4_STORE, SEEDS, emit


def check_n2():
    rows = []
    for wiring in enumerate_wiring_assignments(2, 2):
        spec = SystemSpec(SnapshotMachine(2), [1, 2], wiring)
        result = Explorer(spec, SNAPSHOT_SAFETY, keep_edges=True).run()
        # A safety violation stops the explorer: no whole graph to scan.
        violations = check_wait_freedom(spec, result) if result.ok else None
        rows.append((wiring.permutations(), result, violations))
    return rows


def check_n3_classes(jobs=E4_JOBS, store=E4_STORE):
    """E4's N=3 entry point; ``jobs > 1`` sweeps classes in parallel.

    ``REPRO_E4_STORE=mmap|spill`` swaps the visited-set backend (all
    backends report identical states/transitions/verdicts; the disk
    ones bound RAM for ``REPRO_E4_FULL=1`` runs).
    """
    config = None
    if store != "ram":
        from repro.store import StoreConfig

        config = StoreConfig(backend=store)
    return check_snapshot_classes(3, budget=E4_BUDGET, jobs=jobs, store=config)


def check_n3_statistical(runs):
    violations = 0
    for seed in range(runs):
        result = run_snapshot([1, 2, 3], seed=seed)
        ok = (
            result.all_terminated
            and all_comparable(result.outputs.values())
            and all(
                (pid + 1) in output for pid, output in result.outputs.items()
            )
        )
        if not ok:
            violations += 1
    return violations


def test_e4_n2_exhaustive(benchmark):
    rows = benchmark(check_n2)
    for _, result, violations in rows:
        assert result.complete and result.ok
        assert violations == []
    benchmark.extra_info["wirings"] = len(rows)
    benchmark.extra_info["states_per_wiring"] = rows[0][1].states
    lines = ["", "E4a — N=2 exhaustive (safety + wait-freedom certified):"]
    for perms, result, _ in rows:
        lines.append(
            f"  wiring {perms}: {result.states} states,"
            f" {result.transitions} transitions, depth {result.depth},"
            f" 0 violations, wait-free"
        )
    emit(*lines)


def test_e4_n3_canonical_classes(benchmark):
    rows = benchmark(check_n3_classes)
    for _, result in rows:
        assert result.ok, result.violation
    benchmark.extra_info["classes"] = len(rows)
    benchmark.extra_info["budget"] = E4_BUDGET
    benchmark.extra_info["jobs"] = E4_JOBS
    benchmark.extra_info["store"] = E4_STORE
    benchmark.extra_info["total_states"] = sum(r.states for _, r in rows)
    lines = [
        "",
        f"E4b — N=3, {len(rows)} canonical wiring classes"
        f" (budget {'unbounded' if E4_BUDGET is None else E4_BUDGET}"
        f" states/class):",
    ]
    for wiring, result in rows:
        scope = "exhaustive" if result.complete else "bounded"
        lines.append(
            f"  {wiring}: {result.states} states ({scope}),"
            f" {result.transitions} transitions, 0 violations"
        )
    emit(*lines)


def test_e4_n3_statistical(benchmark):
    violations = benchmark(lambda: check_n3_statistical(SEEDS * 5))
    assert violations == 0
    benchmark.extra_info["violations"] = violations
    emit(
        "",
        f"E4c — N=3 statistical: {SEEDS * 5} full random-schedule"
        f" executions, {violations} violations",
    )
