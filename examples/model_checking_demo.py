"""Model checking the snapshot algorithm, TLC-style.

Run:  python examples/model_checking_demo.py

The paper validates Figure 3 with the TLC model checker.  This example
runs the reproduction's explicit-state checker:

1. exhaustively explores every 2-processor execution (all wirings up to
   relabelling), checking the snapshot safety invariants on every
   reachable state and certifying wait-freedom via lasso analysis;
2. runs the fast bitmask explorer over the canonical 3-processor wiring
   classes with a state budget, reporting TLC-style statistics;
3. hunts for the paper's claim-B counterexample (an output the memory
   never contained) and replays any find.
"""

import os

from repro.checker import Explorer, SystemSpec
from repro.checker.fast_snapshot import (
    FastSnapshotSpec,
    canonical_wiring_classes,
)
from repro.checker.liveness import check_wait_freedom
from repro.checker.properties import SNAPSHOT_SAFETY
from repro.core import SnapshotMachine
from repro.memory.wiring import enumerate_wiring_assignments

#: Per-class state budget for the 3-processor sweep; raise via
#: REPRO_MC_BUDGET for deeper runs.
BUDGET = int(os.environ.get("REPRO_MC_BUDGET", "300000"))


def main() -> None:
    print("=" * 72)
    print("1. N=2: exhaustive, safety + wait-freedom")
    print("=" * 72)
    for wiring in enumerate_wiring_assignments(2, 2):
        spec = SystemSpec(SnapshotMachine(2), [1, 2], wiring)
        result = Explorer(spec, SNAPSHOT_SAFETY, keep_edges=True).run()
        # The explorer stops at a safety violation, and a partial graph
        # cannot certify wait-freedom.
        if not result.ok:
            wait_free = "unchecked"
        elif check_wait_freedom(spec, result):
            wait_free = "VIOLATED"
        else:
            wait_free = "OK"
        print(f"  wiring {wiring.permutations()}: {result.states} states,"
              f" {result.transitions} transitions, depth {result.depth};"
              f" safety={'OK' if result.ok else 'VIOLATED'},"
              f" wait-free={wait_free}")

    print()
    print("=" * 72)
    print(f"2. N=3: canonical wiring classes, budget {BUDGET} states/class")
    print("=" * 72)
    for index, wiring in enumerate(canonical_wiring_classes(3, 3)):
        fast = FastSnapshotSpec([1, 2, 3], wiring)
        result = fast.explore(max_states=BUDGET)
        scope = "exhaustive" if result.complete else f"first {result.states}"
        print(f"  class {index} {wiring}: {scope} states,"
              f" {result.transitions} transitions,"
              f" safety={'OK' if result.ok else result.violation}")

    print()
    print("=" * 72)
    print("3. Claim B investigated (see EXPERIMENTS.md §E5)")
    print("=" * 72)
    from repro.checker.claim_b import exhaustive_claim_b_search
    from repro.sim.non_linearizable import build_non_linearizable_scan_demo

    result = exhaustive_claim_b_search(((0, 1, 2), (0, 1, 2), (0, 1, 2)))
    verdict = "EXHAUSTED, no counterexample" if result.exhausted else "budget hit"
    print(f"  abstracted candidate region (identity wiring):"
          f" {result.states} states — {verdict}")
    print("  => under the union-of-views reading, no 3-processor execution"
          " outputs a set the memory avoided throughout")

    demo = build_non_linearizable_scan_demo()
    print(f"  but constructively: a witness outputs {sorted(demo.output)}"
          f" while the union is {sorted(demo.unions_during_final_scan[0])}"
          f" at every instant of its final scan —")
    print("  the output is not linearizable as an atomic collect within"
          " its own operation")


if __name__ == "__main__":
    main()
