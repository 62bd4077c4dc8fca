import time
from collections import deque

import pytest

from statebound.core import Action, PartialState, System, build_transition_graph
from statebound.gen import GeneratorSpec, gen_clique, gen_lotus, gen_random, gen_star
from statebound.oracle import (
    MAX_BOUND,
    TD_DECIDES_RD,
    SimplePathSearchTooLargeError,
    check_conjecture,
    compute_topo_report,
    diameter,
    distinct_trace,
    exp_bound,
    longest_simple_path,
    recurrence_diameter_bruteforce,
    strongly_connected_components,
    traversal_diameter,
    traversal_walk,
)

from conftest import chain_family, make_random


class TestExpBound:
    def test_star_system(self, star3):
        assert exp_bound(star3) == 3

    def test_empty_domain(self):
        assert exp_bound(System.from_names(["a"], ())) == 0

    def test_lotus3_two_variables(self):
        assert exp_bound(gen_lotus(3)) == 3

    def test_saturation(self):
        actions = tuple(
            Action(PartialState(), PartialState(1 << i, 1 << i)) for i in range(70)
        )
        system = System.from_names([f"x{i}" for i in range(70)], actions)
        assert exp_bound(system) == MAX_BOUND


def reference_diameter(graph):
    """All-pairs BFS that scans every edge from every source."""
    n, adj = graph.num_states, graph.adj
    best = 0
    for source in range(n):
        distance = [-1] * n
        distance[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            best = max(best, distance[u])
            for v in adj[u]:
                if distance[v] < 0:
                    distance[v] = distance[u] + 1
                    queue.append(v)
    return best


class TestDiameter:
    def check(self, system):
        graph = build_transition_graph(system)
        assert diameter(graph) == reference_diameter(graph)

    def test_matches_reference_on_chain_family(self):
        for seed in range(1, 101):
            self.check(make_random(chain_family(seed)))

    def test_matches_reference_on_generator_families(self):
        # star is one-way, so its BFS queues run dry before every state has
        # a distance.
        for m in range(1, 5):
            self.check(gen_clique(m))
        for n in range(1, 65):
            self.check(gen_lotus(n))
        for n in range(3, 7):
            self.check(gen_star(n))
        self.check(System.from_names(["a"], ()))

    def test_clique_is_one(self, clique2):
        assert diameter(clique2) == 1

    def test_no_actions_zero(self):
        assert diameter(System.from_names(["a"], ())) == 0

    def test_lotus3_leaf_to_leaf(self):
        assert diameter(gen_lotus(3)) == 2

    def test_star_is_one(self, star3):
        assert diameter(star3) == 1


class TestRecurrenceDiameter:
    def test_clique_hamiltonian(self, clique2):
        assert recurrence_diameter_bruteforce(clique2) == 3

    def test_lotus3(self):
        assert recurrence_diameter_bruteforce(gen_lotus(3)) == 2

    def test_no_actions_zero(self):
        assert recurrence_diameter_bruteforce(System.from_names(["a"], ())) == 0

    def test_witness_is_a_simple_path(self):
        for system in (gen_clique(3), gen_lotus(5), gen_star(4)):
            graph = build_transition_graph(system)
            length, path = longest_simple_path(graph)
            assert len(path) == length + 1
            assert len(set(path)) == len(path)
            for u, v in zip(path, path[1:]):
                assert v in graph.adj[u]

    def test_work_budget(self, clique2):
        # The clique 2 search spends 7 work units: pushes plus reach-count visits.
        graph = build_transition_graph(clique2)
        with pytest.raises(SimplePathSearchTooLargeError, match="spent 7 work units, over its budget of 6"):
            longest_simple_path(graph, budget=6)
        assert longest_simple_path(graph, budget=7)[0] == 3

    def test_lotus_hub_start_caps_its_ceiling(self):
        # Once the hub's search finishes, its ceiling is 1, so each later
        # leaf start is cut at the hub: 1,786 work units where every start
        # through the hub to every other leaf took 66,810.
        graph = build_transition_graph(gen_lotus(255))
        assert longest_simple_path(graph, budget=2048)[0] == 2

    def test_deterministic(self, clique2):
        graph = build_transition_graph(clique2)
        assert longest_simple_path(graph) == longest_simple_path(graph)


def reference_longest_simple_path(graph):
    """The unpruned-by-td search: DFS from every start, neighbours ascending,
    cut by length plus the full residual reach count, stopped only by a
    Hamiltonian path."""
    n, adj = graph.num_states, graph.adj
    best_len, best_path = 0, [0]
    visited = bytearray(n)
    path, iters = [], []

    def reach(head):
        stack = [v for v in adj[head] if not visited[v]]
        seen = set(stack)
        while stack:
            for v in adj[stack.pop()]:
                if not visited[v] and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen)

    def push(v):
        nonlocal best_len, best_path
        visited[v] = 1
        path.append(v)
        length = len(path) - 1
        if length > best_len:
            best_len, best_path = length, path.copy()
        iters.append(iter(()) if length + reach(v) <= best_len else iter(adj[v]))

    for start in range(n):
        if best_len >= n - 1:
            break
        push(start)
        while iters and best_len < n - 1:
            for v in iters[-1]:
                if not visited[v]:
                    push(v)
                    break
            else:
                iters.pop()
                visited[path.pop()] = 0
        while path:
            visited[path.pop()] = 0
        iters.clear()
    return best_len, best_path


def _random_2v(num_vars):
    """Random seed 3 with twice as many actions as variables."""
    return gen_random(
        GeneratorSpec("random", seed=3, num_vars=num_vars, num_actions=2 * num_vars)
    )


class TestSearchMatchesReference:
    """The td-pruned search returns the reference's (length, witness)."""

    def check(self, system):
        expect = reference_longest_simple_path(build_transition_graph(system))
        assert longest_simple_path(build_transition_graph(system)) == expect

    def test_chain_family(self):
        for seed in range(1, 101):
            self.check(make_random(chain_family(seed)))

    def test_generator_families(self):
        for m in range(1, 5):
            self.check(gen_clique(m))
        for n in (*range(1, 65), 96, 127, 128, 191, 255):
            self.check(gen_lotus(n))
        for n in range(3, 7):
            self.check(gen_star(n))

    def test_random_128_states(self):
        self.check(_random_2v(7))

    def test_random_256_states_within_budget(self):
        started = time.perf_counter()
        graph = build_transition_graph(_random_2v(8))
        assert recurrence_diameter_bruteforce(graph) == 44
        assert traversal_diameter(graph) == 45
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0

    def test_result_kept_on_graph(self, clique2):
        graph = build_transition_graph(clique2)
        with pytest.raises(SimplePathSearchTooLargeError):
            longest_simple_path(graph, budget=1)
        assert "longest_simple_path" not in graph.derived  # only a completed search is kept
        length, path = longest_simple_path(graph)
        path.append(-1)
        assert longest_simple_path(graph) == (length, path[:-1])
        # A kept result is returned without searching, whatever the budget.
        assert longest_simple_path(graph, budget=1) == (length, path[:-1])


class TestTraversalDiameter:
    def test_star_is_one(self, star3):
        assert traversal_diameter(star3) == 1

    def test_lotus3(self):
        assert traversal_diameter(gen_lotus(3)) == 3

    def test_clique_single_scc(self, clique2):
        assert traversal_diameter(clique2) == 3

    def test_walk_replay(self):
        for system in (gen_clique(2), gen_star(3), gen_lotus(5), gen_lotus(8)):
            graph = build_transition_graph(system)
            td = traversal_diameter(graph)
            walk = traversal_walk(graph)
            for u, v in zip(walk, walk[1:]):
                assert v in graph.adj[u]
            assert len(set(walk)) == td + 1

    def test_walk_replay_random(self):
        for seed in range(1, 21):
            system = make_random(chain_family(seed))
            graph = build_transition_graph(system)
            td = traversal_diameter(graph)
            walk = traversal_walk(graph)
            for u, v in zip(walk, walk[1:]):
                assert v in graph.adj[u]
            assert len(set(walk)) == td + 1


class TestSccHelper:
    def test_two_cycles_and_bridge(self):
        # 0 <-> 1 -> 2 <-> 3
        adj = [(1,), (0, 2), (3,), (2,)]
        comps = [tuple(c) for c in strongly_connected_components(adj)]
        assert sorted(comps) == [(0, 1), (2, 3)]
        # reverse topological: the sink component comes first
        assert comps[0] == (2, 3)


class TestDistinctTrace:
    def test_worked_example(self, clique2):
        x = clique2.full_state({"v1": False, "v2": False})
        pis = [
            Action(PartialState(), PartialState(3, 3)),
            Action(PartialState(), PartialState(3, 2)),
            Action(PartialState(), PartialState(3, 1)),
        ]
        assert distinct_trace(clique2, x, pis)

    def test_empty_sequence(self, clique2):
        x = clique2.full_state({"v1": True, "v2": True})
        assert distinct_trace(clique2, x, [])

    def test_stalled_action_repeats(self, star3):
        leaf = star3.full_state({"v1": True, "v2": False})
        assert not distinct_trace(star3, leaf, [star3.actions[0]])


class TestConjecture:
    def test_star_holds(self, star3):
        verdict = check_conjecture(star3)
        assert verdict.status == "holds" and verdict.td == 1 and verdict.rd == 1

    def test_star_family_holds(self):
        for n in range(1, 8):
            assert check_conjecture(gen_star(n)).status == "holds", n

    def test_lotus_vacuous(self):
        verdict = check_conjecture(gen_lotus(3))
        assert verdict.status == "vacuous" and verdict.td == 3

    def test_lotus_family_vacuous_from_three(self):
        for n in range(3, 10):
            assert check_conjecture(gen_lotus(n)).status == "vacuous", n

    def test_no_actions_holds(self):
        verdict = check_conjecture(System.from_names(["a"], ()))
        assert verdict.status == "holds" and verdict.td == 0 and verdict.rd == 0

    def test_seeded_sweep_no_counterexamples(self):
        from statebound.gen import GeneratorSpec, gen_random

        counts = {"holds": 0, "vacuous": 0, "counterexample": 0}
        for seed in range(1, 201):
            system = gen_random(
                GeneratorSpec("random", seed=seed, num_vars=5, num_actions=10)
            )
            counts[check_conjecture(system).status] += 1
        assert counts["counterexample"] == 0, counts
        assert counts["holds"] + counts["vacuous"] == 200

    def test_small_td_decides_rd(self):
        """Wherever td is at most TD_DECIDES_RD, the exhaustive search finds
        rd equal to it: the fact that lets b1 and b2 skip the search."""
        decided = 0
        for seed in range(1, 301):
            spec = GeneratorSpec(
                "random", seed=seed, num_vars=2 + seed % 4, num_actions=1 + seed % 5
            )
            graph = build_transition_graph(gen_random(spec))
            td = traversal_diameter(graph)
            if td <= TD_DECIDES_RD:
                decided += 1
                assert recurrence_diameter_bruteforce(graph) == td, seed
        assert decided >= 100, decided


class TestChainInvariant:
    def test_chain_on_random_systems(self):
        for seed in range(1, 41):
            system = make_random(chain_family(seed))
            report = compute_topo_report(system)
            assert report.chain_holds(), (seed, report)

    def test_report_determinism(self):
        system = make_random(chain_family(7))
        a = compute_topo_report(system)
        b = compute_topo_report(system)
        assert (a.exp, a.d, a.rd, a.td) == (b.exp, b.d, b.rd, b.td)
