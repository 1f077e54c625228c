"""Wait-freedom as a graph property of the explored state space.

Wait-freedom (the paper's termination guarantee for the Figure 3
algorithm) says: every processor that takes enough steps terminates.  On
the *finite* reachable state graph, a violation is exactly a reachable
cycle in which some processor ``p`` takes at least one step while
remaining unterminated throughout — the cycle can be repeated forever,
giving an infinite execution in which ``p`` takes infinitely many steps
without ever outputting.

We check absence of such "bad lassos" per processor by restricting the
graph to states where ``p`` is not terminated, computing strongly
connected components (iterative Tarjan — state graphs are deep, no
recursion), and asking whether any SCC contains an internal edge
labelled ``p``.  Self-loops count (a single-edge cycle is a cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checker.explorer import ExplorationResult
from repro.checker.system import GlobalState, SystemSpec


@dataclass
class WaitFreedomViolation:
    """A bad lasso: processor ``pid`` can cycle forever unterminated."""

    pid: int
    #: Index (into the explorer's state table) of a state on the cycle.
    cycle_state_index: int
    cycle_state: GlobalState


def check_wait_freedom(
    spec: SystemSpec, exploration: ExplorationResult
) -> List[WaitFreedomViolation]:
    """Return all per-processor wait-freedom violations (empty = wait-free).

    Requires the exploration to have been run with ``keep_edges=True``,
    to be complete and to have found no safety violation: the explorer
    stops at the first violation, so its graph is then partial too, and
    a partial graph cannot certify liveness.
    """
    if exploration.edges is None or exploration.state_table is None:
        raise ValueError("exploration must retain edges (keep_edges=True)")
    if not exploration.complete:
        raise ValueError("cannot certify wait-freedom from a partial exploration")
    if exploration.violation is not None:
        raise ValueError(
            "cannot certify wait-freedom from an exploration that stopped"
            " at a safety violation: its graph is partial"
        )

    states = exploration.state_table
    violations: List[WaitFreedomViolation] = []
    for pid in range(spec.n_processors):
        alive = [not spec.terminated(state, pid) for state in states]
        index = bad_lasso_state(exploration.edges, len(states), pid, alive)
        if index is not None:
            violations.append(
                WaitFreedomViolation(
                    pid=pid, cycle_state_index=index, cycle_state=states[index]
                )
            )
    return violations


def bad_lasso_state(
    edges: Sequence[Tuple[int, int, int]],
    n_states: int,
    pid: int,
    alive: Sequence[bool],
) -> Optional[int]:
    """A state on a cycle in which ``pid`` steps while unterminated.

    ``edges`` are ``(src, pid, dst)`` over state indices ``0..n_states``;
    ``alive[i]`` says ``pid`` has not terminated in state ``i``.  The
    graph is restricted to alive states, and the source of the first
    ``pid``-labelled edge inside one SCC (a self-loop counts) is
    returned; None when there is none.
    """
    adjacency: Dict[int, List[int]] = {}
    pid_edges: List[Tuple[int, int]] = []
    for src, actor, dst in edges:
        if alive[src] and alive[dst]:
            adjacency.setdefault(src, []).append(dst)
            if actor == pid:
                pid_edges.append((src, dst))
    if not pid_edges:
        return None
    component = _scc_ids(adjacency, n_states)
    for src, dst in pid_edges:
        if src == dst or (component[src] == component[dst] and component[src] != -1):
            return src
    return None


def _scc_ids(adjacency: Dict[int, List[int]], n_states: int) -> List[int]:
    """Iterative Tarjan SCC; returns component id per state (-1 = isolated).

    Only states appearing in ``adjacency`` (as sources or targets) get
    real component ids; a state in a component by itself without a
    self-loop can never witness a cycle, so callers additionally compare
    src == dst for self-loops.
    """
    index_counter = 0
    component = [-1] * n_states
    indices = [-1] * n_states
    lowlink = [0] * n_states
    on_stack = [False] * n_states
    stack: List[int] = []
    next_component = 0

    nodes = set(adjacency)
    for targets in adjacency.values():
        nodes.update(targets)

    for root in nodes:
        if indices[root] != -1:
            continue
        # Iterative DFS: (node, iterator position) frames.
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_pos = work[-1]
            if child_pos == 0:
                indices[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack[node] = True
            children = adjacency.get(node, [])
            advanced = False
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if indices[child] == -1:
                    work[-1] = (node, child_pos)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    lowlink[node] = min(lowlink[node], indices[child])
            if advanced:
                continue
            work[-1] = (node, child_pos)
            if child_pos >= len(children):
                work.pop()
                if lowlink[node] == indices[node]:
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component[member] = next_component
                        if member == node:
                            break
                    next_component += 1
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
    return component


def certify_wait_free(
    spec: SystemSpec, exploration: ExplorationResult
) -> Optional[WaitFreedomViolation]:
    """Convenience wrapper: first violation or None (= certified wait-free)."""
    violations = check_wait_freedom(spec, exploration)
    return violations[0] if violations else None
