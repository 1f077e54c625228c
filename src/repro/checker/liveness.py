"""Wait-freedom as a graph property of the explored state space.

Wait-freedom (the paper's termination guarantee for the Figure 3
algorithm) says: every processor that takes enough steps terminates.  On
the *finite* reachable state graph, a violation is exactly a reachable
cycle in which some processor ``p`` takes at least one step while
remaining unterminated throughout — the cycle can be repeated forever,
giving an infinite execution in which ``p`` takes infinitely many steps
without ever outputting.

Termination is absorbing: a terminated processor has no enabled
operation, so it never steps again and stays terminated.  Every cycle is
therefore a bad lasso for each processor that steps on it, and a graph
has no bad lasso exactly when it has no cycle.  One topological peel
decides that for every processor at once (Kahn's algorithm: repeatedly
drop states with no remaining in-edge; the graph is acyclic exactly
when nothing is left).

What the peel leaves, the *core*, holds every cycle.  Only when it is
non-empty do we check each processor ``p`` on it: restrict the core to
states where ``p`` is not terminated, compute strongly connected
components (iterative Tarjan — state graphs are deep, no recursion),
and ask whether any SCC contains an internal edge labelled ``p``.
Self-loops count (a single-edge cycle is a cycle).  Every SCC-internal
edge lies inside the core and the filter keeps edge order, so the
reported cycle state is the one the scan over the whole graph finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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
    return [
        WaitFreedomViolation(
            pid=pid, cycle_state_index=index, cycle_state=states[index]
        )
        for pid, index in bad_lassos(
            exploration.edges,
            len(states),
            spec.n_processors,
            lambda index, pid: spec.terminated(states[index], pid),
        )
    ]


def bad_lassos(
    edges: Sequence[Tuple[int, int, int]],
    n_states: int,
    n_processors: int,
    terminated: Callable[[int, int], bool],
) -> Iterator[Tuple[int, int]]:
    """``(pid, cycle state index)`` for each processor with a bad lasso.

    ``edges`` are ``(src, pid, dst)`` over state indices
    ``0..n_states``; ``terminated(index, pid)`` says ``pid`` has no
    enabled operation in state ``index``.  Processors are yielded in
    pid order, each with the state :func:`bad_lasso_state` picks on the
    whole graph.  An acyclic graph yields nothing after one peel, with
    no SCC computed.
    """
    core = _cyclic_core(edges, n_states)
    if core is None:
        return
    core_edges = [edge for edge in edges if core[edge[0]] and core[edge[2]]]
    for pid in range(n_processors):
        alive = [
            in_core and not terminated(index, pid)
            for index, in_core in enumerate(core)
        ]
        index = bad_lasso_state(core_edges, n_states, pid, alive)
        if index is not None:
            yield pid, index


def _cyclic_core(
    edges: Sequence[Tuple[int, int, int]], n_states: int
) -> Optional[List[bool]]:
    """Kahn's peel: which states survive it, or None when none does.

    A state survives when it lies on a cycle or is reachable from one;
    None means the graph is acyclic.
    """
    in_degree = [0] * n_states
    successors: List[List[int]] = [[] for _ in range(n_states)]
    for src, _, dst in edges:
        in_degree[dst] += 1
        successors[src].append(dst)
    sources = [state for state, degree in enumerate(in_degree) if degree == 0]
    peeled = 0
    while sources:
        state = sources.pop()
        peeled += 1
        for dst in successors[state]:
            in_degree[dst] -= 1
            if in_degree[dst] == 0:
                sources.append(dst)
    if peeled == n_states:
        return None
    return [degree > 0 for degree in in_degree]


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
