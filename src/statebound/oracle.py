"""Exact state-space topology: state-count bound, diameter, longest simple
path, and traversal diameter, plus the td/rd coincidence checker.

Everything here works on the explicit transition graph and is intended as
ground truth for the factored (SMT) paths, so the algorithms favour being
obviously correct and deterministic over being clever.

The exhaustive longest-simple-path search is bounded by td: no path from a
vertex has more edges than its SCC-condensation value minus 1, so the search
stops at a path of td edges and cuts every branch that this ceiling shows
cannot beat the best path so far. Once the search from a start vertex
finishes, no path from it is longer than the best path, so that length
becomes its ceiling; on a hub-shaped space the hub's finished start cuts
every later start at the hub. The search works component by component: a
simple path that leaves a component never comes back, so where it enters a
new component at w, all it can still add is L(w), the longest simple path
from w. L(w) is computed once, by a search from w cut against its own best,
and kept for every later prefix that reaches w. A branch that survives the
ceiling is then cut by a residual count: the unvisited vertices of its
component that it can reach, plus the best ceiling it can leave the
component to. The count stops as soon as it is large enough not to cut. The
condensation and the search result are computed once per graph and kept on
it. The diameter's BFS from a source stops once every state has a distance.

The search runs under a work budget, not a state cap: the state count does
not bound its work, which depends on how well the cuts fire. One work unit
is one DFS push or one vertex a residual reach count visits, about 0.3 to
0.6 microseconds of CPU. A search that would spend more raises
``SimplePathSearchTooLargeError``, and only a completed one is kept on the
graph. That makes the search the first method for rd wherever it finishes:
``compose`` asks it before any solver, and turns to the factored SMT search
only for clusters it gives up on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import (
    DEFAULT_VAR_CAP,
    Action,
    FullState,
    System,
    TransitionGraph,
    build_transition_graph,
    execute_sequence,
    timed_ms,
)

# Values are saturated here instead of overflowing; a result equal to
# MAX_BOUND means "at least this large".
MAX_BOUND = 2**63 - 1

# Longest-simple-path search is exponential; give up past this many work
# units (DFS pushes plus vertices visited by residual reach counts). On an
# idle 2-vCPU x86 host the budget takes 6 to 9 s of CPU.
DEFAULT_RD_BUDGET = 2**24

# td at most this forces rd = td. List the states of a walk over three
# distinct states a, b, c by first visit: it steps a -> b, then enters c from
# b, or from a after stepping back b -> a. Either a -> b -> c or b -> a -> c
# is a simple path. Below td 2, the walk's first step, or none, is the path.
TD_DECIDES_RD = 2


class SimplePathSearchTooLargeError(RuntimeError):
    """The exhaustive longest-simple-path search ran over its work budget."""


def as_graph(obj: System | TransitionGraph, max_vars: int = DEFAULT_VAR_CAP) -> TransitionGraph:
    """``obj`` when it is a transition graph, else its graph, built within
    ``max_vars`` (``StateSpaceTooLargeError`` past it)."""
    if isinstance(obj, TransitionGraph):
        return obj
    return build_transition_graph(obj, max_vars=max_vars)


def exp_bound(system: System) -> int:
    """One less than the number of valid states, saturated at MAX_BOUND."""
    m = system.num_domain_vars
    if m >= 63:
        return MAX_BOUND
    return (1 << m) - 1


def diameter(obj: System | TransitionGraph) -> int:
    """Longest shortest path over all ordered reachable state pairs.

    One BFS per source, which stops once every state has a distance: BFS
    finds states in nondecreasing distance order, so the last state found,
    then or when the queue runs dry, is at the source's eccentricity.
    """
    graph = as_graph(obj)
    adj = graph.adj
    n = graph.num_states
    best = 0
    for source in range(n):
        distance = [-1] * n
        distance[source] = 0
        found = [source]  # the BFS queue, read as it grows
        for u in found:
            if len(found) == n:
                break
            du = distance[u] + 1
            for v in adj[u]:
                if distance[v] < 0:
                    distance[v] = du
                    found.append(v)
        if distance[found[-1]] > best:
            best = distance[found[-1]]
    return best


def _reach_bound(
    adj: Sequence[Sequence[int]],
    comp_of: Sequence[int],
    ceiling: Sequence[int],
    visited: bytearray,
    head: int,
    limit: int,
) -> tuple[int, int]:
    """(visits, bound): the bound on the edges a path from ``head`` can still
    add. It counts the unvisited vertices of head's component that are
    reachable through unvisited vertices of it, and adds the best exit bound,
    1 + ceiling[y] over the edges x -> y that leave the component from head
    or a counted x. Stops once the bound exceeds ``limit``, which is all the
    caller needs to know; visits is the number of vertices counted."""
    comp = comp_of[head]
    stack = [head]
    seen: set[int] = set()
    exit_len = 0
    while stack:
        for v in adj[stack.pop()]:
            if visited[v] or v in seen:
                continue
            if comp_of[v] == comp:
                seen.add(v)
                stack.append(v)
            elif ceiling[v] >= exit_len:
                exit_len = ceiling[v] + 1
            else:
                continue
            if len(seen) + exit_len > limit:
                return len(seen), len(seen) + exit_len
    return len(seen), len(seen) + exit_len


def _derived(graph: TransitionGraph, key: str, compute):
    """``compute(graph)``, computed once per graph and kept on it."""
    if key not in graph.derived:
        graph.derived[key] = compute(graph)
    return graph.derived[key]


def _search_longest_simple_path(graph: TransitionGraph, budget: int) -> tuple[int, list[int]]:
    n = graph.num_states
    adj = graph.adj
    _, comp_of, value, _ = _derived(graph, "condensation", _condensation_dp)
    # No walk from v, so no simple path, visits more states than v's
    # component value: ceiling[v] edges at most, and td over all v.
    ceiling = [value[cid] - 1 for cid in comp_of]
    td = max(ceiling, default=0)
    visited = bytearray(n)
    # entry vertex -> (segment, next entry): the first-found longest simple
    # path from the entry runs through segment, inside the entry's component,
    # then on along next's path, if next is not -1. Its length, L(entry), is
    # then the entry's ceiling.
    memo: dict[int, tuple[list[int], int]] = {}
    work = 0

    def search(starts: Sequence[int], top: int, best_len: int, best_seg: list[int]):
        """DFS from each start in turn, from a best of ``best_len`` edges
        along ``best_seg``, stopped by a path of ``top`` edges. Yields each
        entry vertex whose L it needs before memo holds it, and returns
        (length, segment, next entry) of the first longest path."""
        nonlocal work
        best_next = -1
        path: list[int] = []
        iters: list[Iterator[int]] = []  # the neighbours left to try, per path vertex
        for start in starts:
            if best_len >= top:
                break  # nothing can beat a path of top edges
            if ceiling[start] <= best_len:
                continue
            comp = comp_of[start]
            v = start
            while v >= 0:
                visited[v] = 1
                path.append(v)
                work += 1
                length = len(path) - 1
                if length > best_len:
                    best_len, best_seg, best_next = length, path.copy(), -1
                    if best_len >= top:
                        break
                limit = best_len - length
                expand = ceiling[v] > limit
                if expand:
                    visits, bound = _reach_bound(adj, comp_of, ceiling, visited, v, limit)
                    work += visits
                    expand = bound > limit
                if work > budget:
                    raise _over_budget(work, budget)
                if expand:
                    iters.append(iter(adj[v]))
                else:
                    visited[path.pop()] = 0
                # Go on from the deepest path vertex with an unvisited
                # neighbour left in the component.
                v = -1
                while iters:
                    for w in iters[-1]:
                        if visited[w]:
                            continue
                        if comp_of[w] == comp:
                            v = w
                            break
                        # w enters a downstream component, which no path
                        # from w leaves to come back, so the longest path
                        # through this edge is the path, then L(w).
                        if len(path) + ceiling[w] > best_len:
                            if w not in memo:
                                yield w
                            if len(path) + ceiling[w] > best_len:
                                best_len, best_seg, best_next = len(path) + ceiling[w], path.copy(), w
                                if best_len >= top:
                                    break
                    else:
                        iters.pop()
                        visited[path.pop()] = 0
                        continue
                    break
            # The search from start is done, and it cut only branches that
            # could not beat the best: no simple path from start, so no
            # residual path from it either, is longer than the best. The best
            # is a path from start or was below start's ceiling, so this
            # never raises it.
            ceiling[start] = best_len
        for u in path:  # a search stopped by a path of top edges leaves one
            visited[u] = 0
        return best_len, best_seg, best_next

    # The suspended searches, each waiting for the one above it, and the
    # entry vertex each computes L of; the bottom one is over every start.
    searches = [search(range(n), td, 0, [0] if n else [])]
    entries = [-1]
    while True:
        try:
            w = next(searches[-1])
        except StopIteration as done:
            searches.pop()
            best_len, path, nxt = done.value
            entry = entries.pop()
            if entry < 0:
                break
            memo[entry] = (path, nxt)
            continue
        # L(w) is exact: its search cuts against its own best, and it cannot
        # meet the waiting paths, which lie upstream of w. It has found no
        # path yet, so it pushes w, as the DFS would have.
        searches.append(search((w,), ceiling[w], -1, []))
        entries.append(w)
    if work > budget:  # the push that reached top was not checked
        raise _over_budget(work, budget)
    while nxt >= 0:
        segment, nxt = memo[nxt]
        path.extend(segment)
    return best_len, path


def _over_budget(work: int, budget: int) -> SimplePathSearchTooLargeError:
    return SimplePathSearchTooLargeError(
        f"the simple-path search spent {work} work units, over its budget of {budget}"
    )


def longest_simple_path(
    obj: System | TransitionGraph,
    budget: int = DEFAULT_RD_BUDGET,
    max_vars: int = DEFAULT_VAR_CAP,
) -> tuple[int, list[int]]:
    """Exhaustive longest simple path; returns (edge count, witness vertices).

    Depth-first search from every start vertex, starts and neighbours in
    ascending id order; the witness is the first longest path found. With
    ceiling(v) = v's SCC-condensation value minus 1, the search stops once the
    best path has td edges, skips a start whose ceiling is at most the best,
    lowers a finished start's ceiling to the best, and cuts a branch whose
    length plus ceiling, or else length plus residual count, is at most the
    best. The residual count is the number of unvisited vertices of the
    branch's component that it can reach, plus the most that 1 + ceiling(y)
    gives over the edges x -> y that leave the component from the head or a
    counted x. An edge into another component at w is not descended: the
    path's length plus 1 plus L(w), the longest simple path from w, is
    recorded on strict improvement. L(w) and its first-found path are
    computed once, when a path first reaches w and could beat the best, by
    a search from w under the same rules, cut against its own best and
    stopped at w's ceiling. No path from w returns upstream, so it cannot
    meet the prefix. Searches waiting for an L are kept on an explicit
    stack, not the call stack. Every cut drops only branches that cannot
    strictly improve, so the result equals the unpruned search's.
    Raises ``SimplePathSearchTooLargeError`` once the search has spent more
    than ``budget`` work units (pushes plus reach-count visits, the searches
    from entries included). A completed result is kept on the graph: a
    second call does not search again.
    """
    graph = as_graph(obj, max_vars)
    length, path = _derived(
        graph, "longest_simple_path", lambda g: _search_longest_simple_path(g, budget)
    )
    return length, path.copy()


def recurrence_diameter_bruteforce(
    obj: System | TransitionGraph,
    budget: int = DEFAULT_RD_BUDGET,
    max_vars: int = DEFAULT_VAR_CAP,
) -> int:
    """Length of the longest simple path in the explicit state space."""
    length, _ = longest_simple_path(obj, budget=budget, max_vars=max_vars)
    return length


def strongly_connected_components(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan; components are emitted in reverse topological order
    (every component precedes the components that can reach it), each with
    its members ascending."""
    n = len(adj)
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] >= 0:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        path = [root]  # the DFS path, with the neighbours left to try per vertex
        iters = [iter(adj[root])]
        while iters:
            v = path[-1]
            for w in iters[-1]:
                if index_of[w] < 0:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    path.append(w)
                    iters.append(iter(adj[w]))
                    break
                if on_stack[w] and index_of[w] < lowlink[v]:
                    lowlink[v] = index_of[w]
            else:
                path.pop()
                iters.pop()
                if lowlink[v] == index_of[v]:
                    first = len(stack) - 1
                    while stack[first] != v:
                        first -= 1
                    component = stack[first:]
                    del stack[first:]
                    for w in component:
                        on_stack[w] = 0
                    component.sort()
                    components.append(component)
                if path and lowlink[v] < lowlink[path[-1]]:
                    lowlink[path[-1]] = lowlink[v]
    return components


def _condensation_dp(graph: TransitionGraph) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """Longest weighted path over the SCC condensation.

    Returns (components, comp id per vertex, best distinct-state count per
    component, successor choice per component; -1 where the path ends). The
    successor is the one of highest value, the lowest id among those.
    """
    adj = graph.adj
    components = strongly_connected_components(adj)
    comp_of = [0] * graph.num_states
    for cid, members in enumerate(components):
        for v in members:
            comp_of[v] = cid
    value = [0] * len(components)
    next_comp = [-1] * len(components)
    # Tarjan emits successors first, so values are ready when needed.
    for cid, members in enumerate(components):
        best_succ = -1
        best_val = 0
        for u in members:
            for v in adj[u]:
                sid = comp_of[v]
                if sid != cid and (value[sid] > best_val or (value[sid] == best_val and sid < best_succ)):
                    best_val = value[sid]
                    best_succ = sid
        value[cid] = len(members) + best_val
        next_comp[cid] = best_succ
    return components, comp_of, value, next_comp


def traversal_diameter(obj: System | TransitionGraph) -> int:
    """One less than the most distinct states any single walk can visit."""
    graph = as_graph(obj)
    if graph.num_states == 0:
        return 0
    _, _, value, _ = _derived(graph, "condensation", _condensation_dp)
    return max(value) - 1


def traversal_walk(obj: System | TransitionGraph) -> list[int]:
    """A concrete walk visiting traversal_diameter + 1 distinct vertices.

    Covers every vertex of each component along the optimal condensation
    path, moving between vertices by BFS inside the current component.
    """
    graph = as_graph(obj)
    components, comp_of, value, next_comp = _derived(graph, "condensation", _condensation_dp)
    start_comp = max(range(len(components)), key=lambda c: (value[c], -c))
    adj = graph.adj

    def bfs_path(source: int, allowed: set[int], goals: set[int]) -> list[int]:
        """Shortest path from source to the first goal found, staying inside
        ``allowed``; deterministic via ascending neighbour order."""
        if source in goals:
            return [source]
        parent = {source: -1}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v in allowed and v not in parent:
                    parent[v] = u
                    if v in goals:
                        out = [v]
                        while out[-1] != source:
                            out.append(parent[out[-1]])
                        out.reverse()
                        return out
                    queue.append(v)
        raise AssertionError("goal unreachable inside a strongly connected component")

    walk: list[int] = []
    cid = start_comp
    current = components[cid][0]
    walk.append(current)
    while True:
        members = set(components[cid])
        uncovered = members - set(walk)
        while uncovered:
            segment = bfs_path(current, members, uncovered)
            walk.extend(segment[1:])
            current = segment[-1]
            uncovered -= set(segment)
        succ = next_comp[cid]
        if succ < 0:
            return walk
        crossing = {u for u in members if any(comp_of[v] == succ for v in adj[u])}
        segment = bfs_path(current, members, crossing)
        walk.extend(segment[1:])
        current = segment[-1]
        bridge = min(v for v in adj[current] if comp_of[v] == succ)
        walk.append(bridge)
        current = bridge
        cid = succ


def distinct_trace(system: System, state: FullState, actions: Sequence[Action]) -> bool:
    """True iff executing the sequence never revisits a state."""
    _, trace = execute_sequence(system, state, actions)
    return len(set(trace)) == len(trace)


@dataclass(frozen=True)
class ConjectureVerdict:
    """Outcome of the td/rd coincidence check on one system."""

    status: str  # "holds" | "vacuous" | "counterexample"
    td: int
    rd: int | None = None
    witness: tuple[int, ...] = ()

    @property
    def is_counterexample(self) -> bool:
        return self.status == "counterexample"


def check_conjecture(system: System) -> ConjectureVerdict:
    """Check that td <= ``TD_DECIDES_RD`` forces td == rd; vacuous above it.
    The graph is built within the default variable cap, and the search runs
    within the default work budget."""
    graph = build_transition_graph(system)
    td = traversal_diameter(graph)
    if td > TD_DECIDES_RD:
        return ConjectureVerdict(status="vacuous", td=td)
    rd, witness = longest_simple_path(graph)
    if rd == td:
        return ConjectureVerdict(status="holds", td=td, rd=rd, witness=tuple(witness))
    return ConjectureVerdict(status="counterexample", td=td, rd=rd, witness=tuple(witness))


@dataclass(frozen=True)
class TopoReport:
    """All four topological properties of one system, with timings in ms."""

    exp: int
    d: int
    rd: int
    td: int
    timings: dict[str, float] = field(default_factory=dict)
    problem: str = ""

    def chain_holds(self) -> bool:
        return self.d <= self.rd <= self.td <= self.exp


def compute_topo_report(
    obj: System | TransitionGraph,
    problem: str = "",
    budget: int = DEFAULT_RD_BUDGET,
) -> TopoReport:
    """Compute exp/d/rd/td on the explicit state space, timing each.

    A system's graph is built within the default variable cap; a prebuilt
    graph is used as it is, so ``graph_ms`` then times no build.
    """
    timings: dict[str, float] = {}
    graph, timings["graph_ms"] = timed_ms(as_graph, obj)
    exp, timings["exp_ms"] = timed_ms(exp_bound, graph.system)
    d, timings["d_ms"] = timed_ms(diameter, graph)
    rd, timings["rd_ms"] = timed_ms(recurrence_diameter_bruteforce, graph, budget=budget)
    td, timings["td_ms"] = timed_ms(traversal_diameter, graph)
    return TopoReport(exp=exp, d=d, rd=rd, td=td, timings=timings, problem=problem)
