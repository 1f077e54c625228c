"""Claim-B machinery: the snapshot task ≠ atomic memory snapshots.

Section 8 of the paper: "the TLC model-checker confirms that, when there
are 3 processors, the algorithm of Figure 3 ... does not provide atomic
memory snapshots: in some executions, a processor returns a set of
inputs I such that at no point in time did the memory contain exactly
the set of inputs I."

"The memory contains the set of inputs I at time t" is read as: the
union of the views stored in the registers at time t equals I.  A
counterexample is an execution prefix in which some processor outputs
``I`` while no state from the initial one up to (and including) the
output step had memory union ``I`` — the output cannot be linearized as
a memory snapshot anywhere within the operation's interval (the
operation spans the whole prefix, since the algorithm is single-shot).

Two search strategies are provided:

- :func:`find_non_atomic_execution` — exhaustive BFS over a
  history-augmented system whose states carry the set of memory unions
  seen along the path (a small, monotonically growing set bounded by
  ``2^N``); finds a shortest counterexample or proves none exists for
  the given wiring;
- :func:`random_walk_non_atomic_search` — cheap randomized search over
  schedules and wirings, used by the statistical experiments and for
  larger ``N``.

Counterexamples carry the full schedule, so they can be (and in the
tests are) replayed step-by-step in the simulator for independent
validation against the recorded trace.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.checker.system import Action, GlobalState, SystemSpec
from repro.core.views import RegisterRecord, View


def memory_union(state: GlobalState) -> View:
    """The set of inputs currently stored in memory (union of register views)."""
    union: frozenset = frozenset()
    for record in state.registers:
        view = record.view if isinstance(record, RegisterRecord) else record
        union |= view
    return union


@dataclass
class AtomicityCounterexample:
    """An execution whose output never matched the memory contents."""

    pid: int
    output: View
    actions: List[Action]
    unions_seen: FrozenSet[View]

    def schedule(self) -> List[int]:
        return [action.pid for action in self.actions]

    def describe(self) -> str:
        unions = sorted(
            (sorted(u, key=repr) for u in self.unions_seen), key=lambda u: (len(u), u)
        )
        return (
            f"processor {self.pid} outputs {sorted(self.output, key=repr)!r} after"
            f" {len(self.actions)} steps, but the memory only ever contained"
            f" the unions {unions!r}"
        )


def find_non_atomic_execution(
    spec: SystemSpec, max_states: int = 2_000_000
) -> Tuple[Optional[AtomicityCounterexample], int, bool]:
    """BFS for a shortest claim-B counterexample under ``spec``'s wiring.

    Returns ``(counterexample_or_None, states_explored, complete)``.
    ``complete=True`` with no counterexample proves that, for this
    wiring, every output always matched some earlier memory union.
    """
    initial = spec.initial_state()
    initial_aug = (initial, frozenset({memory_union(initial)}))
    index_of: Dict[Tuple[GlobalState, FrozenSet[View]], int] = {initial_aug: 0}
    table: List[Tuple[GlobalState, FrozenSet[View]]] = [initial_aug]
    parents: List[Optional[Tuple[int, Action]]] = [None]
    queue: deque = deque([0])
    complete = True

    while queue:
        current_index = queue.popleft()
        current, seen = table[current_index]
        already_done = {
            pid
            for pid in range(spec.n_processors)
            if spec.terminated(current, pid)
        }
        for action, successor in spec.successors(current):
            new_seen = seen | {memory_union(successor)}
            # Did this step terminate a processor?
            pid = action.pid
            if spec.terminated(successor, pid) and pid not in already_done:
                output = spec.outputs(successor).get(pid)
                if output is not None and output not in new_seen:
                    path = _reconstruct(current_index, parents) + [action]
                    return (
                        AtomicityCounterexample(
                            pid=pid,
                            output=output,
                            actions=path,
                            unions_seen=new_seen,
                        ),
                        len(table),
                        complete,
                    )
            key = (successor, new_seen)
            if key not in index_of:
                if len(table) >= max_states:
                    complete = False
                    continue
                index_of[key] = len(table)
                table.append(key)
                parents.append((current_index, action))
                queue.append(len(table) - 1)
    return None, len(table), complete


def _reconstruct(
    index: int, parents: List[Optional[Tuple[int, Action]]]
) -> List[Action]:
    path: List[Action] = []
    cursor: Optional[int] = index
    while cursor is not None:
        entry = parents[cursor]
        if entry is None:
            break
        parent, action = entry
        path.append(action)
        cursor = parent
    path.reverse()
    return path


def dfs_non_atomic_search(
    spec: SystemSpec,
    max_visited: int = 1_000_000,
    rng: Optional[random.Random] = None,
) -> Tuple[Optional[AtomicityCounterexample], int]:
    """Depth-first claim-B search (reaches deep termination events).

    BFS visits states in length order and exhausts its budget long
    before any processor terminates; DFS dives straight down execution
    branches, which is where termination events (and hence candidate
    counterexamples) live.  With ``rng`` the successor order is
    shuffled per expansion, de-biasing the dive direction.

    Returns ``(counterexample_or_None, states_visited)``.  Paths are
    reconstructed by parent pointers, so discovered counterexamples are
    replayable like the BFS ones.
    """
    initial = spec.initial_state()
    start = (initial, frozenset({memory_union(initial)}))
    index_of: Dict[Tuple[GlobalState, FrozenSet[View]], int] = {start: 0}
    parents: List[Optional[Tuple[int, Action]]] = [None]
    table: List[Tuple[GlobalState, FrozenSet[View]]] = [start]
    stack: List[int] = [0]

    while stack and len(table) < max_visited:
        current_index = stack.pop()
        current, seen = table[current_index]
        already_done = {
            pid
            for pid in range(spec.n_processors)
            if spec.terminated(current, pid)
        }
        successors = list(spec.successors(current))
        if rng is not None:
            rng.shuffle(successors)
        for action, successor in successors:
            new_seen = seen | {memory_union(successor)}
            pid = action.pid
            if pid not in already_done and spec.terminated(successor, pid):
                output = spec.outputs(successor).get(pid)
                if output is not None and output not in new_seen:
                    path = _reconstruct(current_index, parents) + [action]
                    return (
                        AtomicityCounterexample(
                            pid=pid,
                            output=output,
                            actions=path,
                            unions_seen=new_seen,
                        ),
                        len(table),
                    )
            key = (successor, new_seen)
            if key not in index_of:
                index_of[key] = len(table)
                table.append(key)
                parents.append((current_index, action))
                stack.append(len(table) - 1)
    return None, len(table)


def extend_avoiding_union(
    spec: SystemSpec,
    counterexample: AtomicityCounterexample,
    max_extra_steps: int = 100_000,
) -> Optional[List[Action]]:
    """Extend a prefix counterexample to a quiescent full execution.

    The prefix certifies that the output ``I`` was never a memory union
    *up to the output*.  The paper's phrasing is stronger — "at no point
    in time" — so we greedily extend the schedule, preferring steps that
    keep the union different from ``I``, until every processor has
    terminated (the algorithm is wait-free, so this is finite).  After
    quiescence the memory never changes again; if ``I`` never appeared,
    the completed (now trivially infinite: only stuttering remains)
    execution witnesses the full claim.

    Returns the complete action list, or ``None`` if every continuation
    from some point would make the union equal ``I`` (not observed in
    practice; callers treat it as "prefix-only certificate").
    """
    state = spec.initial_state()
    for action in counterexample.actions:
        action, state = spec.apply(state, action.pid, action.op)
    actions = list(counterexample.actions)
    forbidden = counterexample.output
    for _ in range(max_extra_steps):
        if spec.all_terminated(state):
            return actions
        candidates = []
        for pid in range(spec.n_processors):
            for op in spec.enabled(state, pid):
                candidates.append((pid, op))
        progressed = False
        for pid, op in candidates:
            action, successor = spec.apply(state, pid, op)
            if memory_union(successor) != forbidden:
                state = successor
                actions.append(action)
                progressed = True
                break
        if not progressed:
            return None
    return None


def random_walk_non_atomic_search(
    spec: SystemSpec,
    rng: random.Random,
    walks: int = 1_000,
    max_steps: int = 10_000,
) -> Optional[AtomicityCounterexample]:
    """Randomized schedule search for a claim-B counterexample.

    Cheap and incomplete; used for larger configurations and as a
    cross-check of the exhaustive search.
    """
    for _ in range(walks):
        state = spec.initial_state()
        seen = frozenset({memory_union(state)})
        actions: List[Action] = []
        done: set = set()
        for _ in range(max_steps):
            enabled: List[Tuple[int, object]] = []
            for pid in range(spec.n_processors):
                for op in spec.enabled(state, pid):
                    enabled.append((pid, op))
            if not enabled:
                break
            pid, op = enabled[rng.randrange(len(enabled))]
            action, state = spec.apply(state, pid, op)
            actions.append(action)
            seen = seen | {memory_union(state)}
            if pid not in done and spec.terminated(state, pid):
                done.add(pid)
                output = spec.outputs(state).get(pid)
                if output is not None and output not in seen:
                    return AtomicityCounterexample(
                        pid=pid, output=output, actions=actions, unions_seen=seen
                    )
    return None


def pattern_walk_non_atomic_search(
    spec: SystemSpec,
    rng: random.Random,
    walks: int = 200,
    max_steps: int = 3_000,
    max_pattern_length: int = 12,
) -> Optional[AtomicityCounterexample]:
    """Pattern-scheduled claim-B search.

    Uniform walks never hit the structured interleavings that covering
    choreographies need; repeating a short random pid pattern (the kind
    of schedule behind Figure 2) reaches them.  Each walk draws a fresh
    pattern and a fresh resolution of the write-choice nondeterminism.
    """
    for _ in range(walks):
        pattern = [
            rng.randrange(spec.n_processors)
            for _ in range(rng.randint(2, max_pattern_length))
        ]
        state = spec.initial_state()
        seen = frozenset({memory_union(state)})
        actions: List[Action] = []
        done: set = set()
        cursor = 0
        for _ in range(max_steps):
            chosen = None
            for _ in range(len(pattern)):
                pid = pattern[cursor % len(pattern)]
                cursor += 1
                if spec.enabled(state, pid):
                    chosen = pid
                    break
            if chosen is None:
                break
            ops = spec.enabled(state, chosen)
            op = ops[rng.randrange(len(ops))]
            action, state = spec.apply(state, chosen, op)
            actions.append(action)
            seen = seen | {memory_union(state)}
            if chosen not in done and spec.terminated(state, chosen):
                done.add(chosen)
                output = spec.outputs(state).get(chosen)
                if output is not None and output not in seen:
                    return AtomicityCounterexample(
                        pid=chosen, output=output, actions=actions,
                        unions_seen=seen,
                    )
    return None


def best_first_non_atomic_search(
    spec: SystemSpec,
    max_visited: int = 1_000_000,
) -> Tuple[Optional[AtomicityCounterexample], int]:
    """Best-first claim-B search prioritizing level progress.

    Witness terminations live behind long level climbs; plain BFS
    exhausts its budget at shallow depth and plain DFS dives without
    direction.  This search orders the frontier by the summed levels of
    the processors (ties broken FIFO), steering the budget toward
    states where a termination — and hence a potential counterexample —
    is near.  Returns ``(counterexample_or_None, states_visited)``;
    like the other bounded searches, a ``None`` is a failed
    falsification attempt, not a proof (the proof lives in
    :mod:`repro.checker.claim_b`).
    """
    import heapq
    import itertools as _itertools

    def priority(state: GlobalState) -> int:
        total = 0
        for local in state.locals:
            total += getattr(local, "level", 0)
        return -total

    initial = spec.initial_state()
    start = (initial, frozenset({memory_union(initial)}))
    counter = _itertools.count()
    heap = [(priority(initial), next(counter), start)]
    visited = {start}
    parents: Dict[Tuple[GlobalState, FrozenSet[View]], Optional[Tuple]] = {
        start: None
    }

    while heap and len(visited) < max_visited:
        _, _, (state, seen) = heapq.heappop(heap)
        already_done = {
            pid
            for pid in range(spec.n_processors)
            if spec.terminated(state, pid)
        }
        for action, successor in spec.successors(state):
            new_seen = seen | {memory_union(successor)}
            pid = action.pid
            if pid not in already_done and spec.terminated(successor, pid):
                output = spec.outputs(successor).get(pid)
                if output is not None and output not in new_seen:
                    # Reconstruct the path through the parent links.
                    path = [action]
                    cursor = (state, seen)
                    while parents[cursor] is not None:
                        parent_key, parent_action = parents[cursor]
                        path.append(parent_action)
                        cursor = parent_key
                    path.reverse()
                    return (
                        AtomicityCounterexample(
                            pid=pid, output=output, actions=path,
                            unions_seen=new_seen,
                        ),
                        len(visited),
                    )
            key = (successor, new_seen)
            if key not in visited:
                visited.add(key)
                parents[key] = ((state, seen), action)
                heapq.heappush(
                    heap, (priority(successor), next(counter), key)
                )
    return None, len(visited)
