import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statebound import compose, oracle, smt
from statebound.compose import (
    BASE_TAGS,
    BaseCaseKind,
    BoundConfig,
    base_case,
    compose_values,
    compositional_bound,
    decompose,
    dependency_graph,
    project,
)
from statebound.core import Action, PartialState, System
from statebound.gen import GeneratorSpec, disjoint_union, gen_lotus
from statebound.oracle import MAX_BOUND, diameter, recurrence_diameter_bruteforce
from statebound.smt import SolverConfig

from conftest import chain_family, make_random


def ps(mask, bits):
    return PartialState(mask, bits)


class TestProject:
    def test_clique_to_single_variable(self, clique2):
        sub = project(clique2, (0,))
        assert len(sub.actions) == 2  # duplicates merged
        assert {a.eff.bits for a in sub.actions} == {0, 1}

    def test_identity_projection(self, clique2):
        assert project(clique2, clique2.domain) == clique2

    def test_empty_projection(self, clique2):
        assert project(clique2, ()).actions == ()

    def test_outside_domain_rejected(self, clique2):
        with pytest.raises(ValueError):
            project(clique2, (5,))

    def test_empty_effect_restrictions_dropped(self):
        # action writes only v2; projecting to v1 leaves nothing to do
        system = System.from_names(
            ["v1", "v2"], (Action(ps(1, 1), ps(2, 2)), Action(ps(0, 0), ps(1, 1)))
        )
        sub = project(system, (0,))
        assert all(a.eff.mask for a in sub.actions)
        assert len(sub.actions) == 1

    def test_projection_actions_are_restrictions(self, clique2):
        sub = project(clique2, (1,))
        parent_restrictions = set()
        for action in clique2.actions:
            pre = PartialState.from_items(
                (0, v) for i, v in action.pre.items() if i == 1
            )
            eff = PartialState.from_items(
                (0, v) for i, v in action.eff.items() if i == 1
            )
            if eff.mask:
                parent_restrictions.add(Action(pre, eff))
        assert set(sub.actions) == parent_restrictions


class TestDependencyGraph:
    def test_co_occurring_effects(self, clique2):
        edges = dependency_graph(clique2)
        assert edges[0] == {1} and edges[1] == {0}

    def test_independent_toggles_no_edges(self, toggles2):
        edges = dependency_graph(toggles2)
        assert edges[0] == set() and edges[1] == set()

    def test_precondition_to_effect(self):
        system = System.from_names(["v1", "v2"], (Action(ps(1, 1), ps(2, 2)),))
        edges = dependency_graph(system)
        assert edges[0] == {1} and edges[1] == set()


class TestDecompose:
    def test_clique_single_cluster(self, clique2):
        assert decompose(clique2).clusters == ((0, 1),)

    def test_toggles_two_singletons(self, toggles2):
        decomposition = decompose(toggles2)
        assert decomposition.clusters == ((0,), (1,))
        assert decomposition.edges == ()

    def test_chain_order(self):
        system = System.from_names(
            ["v1", "v2", "v3"],
            (
                Action(ps(1, 1), ps(2, 2)),
                Action(ps(2, 2), ps(4, 4)),
                Action(PartialState(), ps(1, 1)),
                Action(PartialState(), ps(1, 0)),
            ),
        )
        decomposition = decompose(system)
        assert decomposition.clusters == ((0,), (1,), (2,))
        assert decomposition.edges == ((0, 1), (1, 2))

    def test_clusters_partition_domain(self):
        for seed in range(1, 16):
            system = make_random(chain_family(seed))
            decomposition = decompose(system)
            flat = [v for cluster in decomposition.clusters for v in cluster]
            assert sorted(flat) == list(system.domain)
            assert len(flat) == len(set(flat))
            # ancestors first: every edge points to a later cluster
            assert all(u < v for u, v in decomposition.edges), seed


_SLEEPER = SolverConfig(
    command=(sys.executable, "-c", "import time; time.sleep(30)"), timeout_ms=150
)


class TestBaseCase:
    def test_b1_star_short_circuits(self, star3):
        kind = BaseCaseKind("b1")
        assert base_case(star3, kind) == 1

    def test_b1_clique_uses_rd(self, clique2):
        assert base_case(clique2, BaseCaseKind("b1")) == 3

    def test_b2_branches(self, clique2):
        assert base_case(clique2, BaseCaseKind("b2")) == 3
        # lotus 63 has 64 states, over B2_STATE_CAP + 1: b2 keeps td, where
        # b1 finds rd = 2
        lotus = gen_lotus(63)
        assert base_case(lotus, BaseCaseKind("b1")) == 2
        report = compositional_bound(lotus, BaseCaseKind("b2"))
        assert report.total == 63
        assert report.per_cluster[0].property_used == "td"

    def test_exp_and_td_tags(self, star3):
        assert base_case(star3, BaseCaseKind("exp")) == 3
        assert base_case(star3, BaseCaseKind("td")) == 1

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            BaseCaseKind("wat")

    @pytest.mark.parametrize(
        "field,value",
        [("max_vars", -1), ("max_vars", 0), ("rd_budget", 0), ("schedule", "golden")],
    )
    def test_invalid_config_rejected(self, field, value):
        # Each would otherwise give a degraded bound, or fail only once a query runs.
        with pytest.raises(ValueError, match=field if field != "schedule" else "golden"):
            BoundConfig(**{field: value})

    def test_rd_timeout_degrades_to_td(self, clique2):
        # A one-unit budget stops the search, so the solver answers rd.
        cfg = BoundConfig(solver=_SLEEPER, rd_budget=1)
        report = compositional_bound(clique2, BaseCaseKind("rd"), cfg)
        assert report.degraded
        assert report.per_cluster[0].property_used == "td"
        assert report.per_cluster[0].cause == "timeout"
        assert report.total == 3  # td of the clique

    def test_solver_error_counts_spent_queries(self, clique2):
        garbage = SolverConfig(command=(sys.executable, "-c", "print('garbage')"))
        # Past the budget the solver's failure degrades the cluster to td, and
        # the failed query still counts; within it the search answers alone.
        for cfg, outcome in (
            (BoundConfig(solver=garbage, rd_budget=1), ("td", "solver-error", 1)),
            (BoundConfig(solver=garbage), ("rd", None, 0)),
        ):
            report = compositional_bound(clique2, BaseCaseKind("rd"), cfg)
            cluster = report.per_cluster[0]
            assert (cluster.property_used, cluster.cause, report.rd_queries) == outcome
            assert report.total == 3

    def test_solver_past_the_budget_searches_the_cluster_graph(self, clique2, monkeypatch):
        """Past the budget the factored search gets the cluster's graph, so
        td is computed once and k = 4, above it, never reaches the solver;
        the log, the value and the query count stay as the solver gives
        them. Clique 2 has rd = td = exp = 3."""
        asked, searched, built = [], [], []
        solve, search, condense = smt.run_solver, compose.rd_via_smt, oracle._condensation_dp

        def solving(doc, cfg, session=None):
            asked.append(doc.k)
            return solve(doc, cfg, session)

        def searching(*args, **kwargs):
            searched.append(search(*args, **kwargs))
            return searched[-1]

        monkeypatch.setattr(smt, "run_solver", solving)
        monkeypatch.setattr(compose, "rd_via_smt", searching)
        monkeypatch.setattr(oracle, "_condensation_dp", lambda graph: built.append(graph) or condense(graph))
        cfg = BoundConfig(solver=SolverConfig.bundled(), schedule="binary", rd_budget=1)
        (cluster,) = compositional_bound(clique2, BaseCaseKind("rd"), cfg).per_cluster
        (result,) = searched
        log = [(k, v.status, v.raw) for k, v in result.queries]
        assert log == [(1, "sat", "sat"), (2, "sat", "sat"), (4, "unsat", "td=3"), (3, "sat", "sat")]
        assert asked == [1, 2, 3]
        assert (cluster.value, cluster.property_used, cluster.cause) == (3, "rd", None)
        assert cluster.rd_queries == 4
        assert len(built) == 1

    def test_over_budget_cluster_degrades_in_time(self):
        """Seed 4 of the bound-batch family has an 8-variable cluster, td 99,
        whose search needs more than 38M work units. Without a solver it
        stops at the default budget, after 6 to 10 s, and the cluster falls
        back to td."""
        system = make_random(
            GeneratorSpec("random", seed=4, num_vars=12, num_actions=12, max_pre=2, max_eff=2)
        )
        started = time.perf_counter()
        report = compositional_bound(system, BaseCaseKind("b1"), BoundConfig(solver=None))
        assert time.perf_counter() - started < 60.0
        degraded = [c for c in report.per_cluster if c.degraded]
        assert [(len(c.var_names), c.value, c.property_used, c.cause) for c in degraded] == [
            (8, 99, "td", "budget")
        ]


# Per base-case setting: the configuration, the cause of every degraded
# cluster, and system -> the outcome of each tag in BASE_TAGS order, written
# property:value with a trailing "!" when the cluster is degraded. toggles2
# has two identical clusters; every cluster must match. lotus63 has 64
# states, over B2_STATE_CAP + 1, so b2 never searches it.
_POLICY_TABLE = {
    "defaults": (BoundConfig(), None, {
        "clique2": "exp:3 td:3 rd:3 rd:3 rd:3",
        "star3": "exp:3 td:1 rd:1 td:1 td:1",
        "lotus7": "exp:7 td:7 rd:2 rd:2 rd:2",
        "lotus63": "exp:63 td:63 rd:2 rd:2 td:63",
        "toggles2": "exp:1 td:1 rd:1 td:1 td:1",
    }),
    # td and rd both exceed the variable cap on a two-variable cluster: the
    # state-count bound remains; toggles2's one-variable clusters fit
    "max_vars=1": (BoundConfig(max_vars=1), "max-vars", {
        "clique2": "exp:3 exp:3! exp:3! exp:3! exp:3!",
        "star3": "exp:3 exp:3! exp:3! exp:3! exp:3!",
        "lotus7": "exp:7 exp:7! exp:7! exp:7! exp:7!",
        "lotus63": "exp:63 exp:63! exp:63! exp:63! exp:63!",
        "toggles2": "exp:1 td:1 rd:1 td:1 td:1",
    }),
    # past the cap the solver answers tag rd, but a hybrid's trigger needs
    # td, which needs the graph; the b1/b2 cells pin that known gap (a FOUND
    # in CHANGES.md, ROADMAP item 4): such a cluster never asks the solver
    "max_vars=1 with a solver": (
        BoundConfig(max_vars=1, solver=SolverConfig.bundled()), "max-vars", {
            "clique2": "exp:3 exp:3! rd:3 exp:3! exp:3!",
            "star3": "exp:3 exp:3! rd:1 exp:3! exp:3!",
            "lotus7": "exp:7 exp:7! rd:2 exp:7! exp:7!",
            "lotus63": "exp:63 exp:63! rd:2 exp:63! exp:63!",
            "toggles2": "exp:1 td:1 rd:1 td:1 td:1",
        },
    ),
    # no solver and the search over its budget: rd falls back to td
    "rd_budget=1": (BoundConfig(rd_budget=1), "budget", {
        "clique2": "exp:3 td:3 td:3! td:3! td:3!",
        "star3": "exp:3 td:1 td:1! td:1 td:1",
        "lotus7": "exp:7 td:7 td:7! td:7! td:7!",
        "lotus63": "exp:63 td:63 td:63! td:63! td:63",
        "toggles2": "exp:1 td:1 td:1! td:1 td:1",
    }),
    # the search over its budget, then every solver query times out
    "sleeper": (BoundConfig(solver=_SLEEPER, rd_budget=1), "timeout", {
        "clique2": "exp:3 td:3 td:3! td:3! td:3!",
        "star3": "exp:3 td:1 td:1! td:1 td:1",
        "lotus7": "exp:7 td:7 td:7! td:7! td:7!",
        "lotus63": "exp:63 td:63 td:63! td:63! td:63",
        "toggles2": "exp:1 td:1 td:1! td:1 td:1",
    }),
    # within the default budget the search answers, and the solver is not asked
    "sleeper-within-budget": (BoundConfig(solver=_SLEEPER), None, {
        "clique2": "exp:3 td:3 rd:3 rd:3 rd:3",
        "star3": "exp:3 td:1 rd:1 td:1 td:1",
        "lotus7": "exp:7 td:7 rd:2 rd:2 rd:2",
        "lotus63": "exp:63 td:63 rd:2 rd:2 td:63",
        "toggles2": "exp:1 td:1 rd:1 td:1 td:1",
    }),
}


@pytest.mark.parametrize("setting", list(_POLICY_TABLE))
def test_base_case_policy_table(setting, request):
    cfg, cause, expected = _POLICY_TABLE[setting]
    systems = {name: request.getfixturevalue(name) for name in ("clique2", "star3", "toggles2")}
    systems["lotus7"] = gen_lotus(7)
    systems["lotus63"] = gen_lotus(63)
    for name, row in expected.items():
        for tag, cell in zip(BASE_TAGS, row.split()):
            used, value = cell.rstrip("!").split(":")
            want = (int(value), used, cause if cell.endswith("!") else None)
            report = compositional_bound(systems[name], BaseCaseKind(tag), cfg)
            got = {(c.value, c.property_used, c.cause) for c in report.per_cluster}
            assert got == {want}, (name, tag)


# tag -> (graph builds, condensations, searches) on toggles2's two clusters
# and on lotus7's one: at most one of each per cluster, and a search only
# where the tag asks for rd
_ONE_EACH = {
    "exp": ((0, 0, 0), (0, 0, 0)),
    "td": ((2, 2, 0), (1, 1, 0)),
    "rd": ((2, 2, 2), (1, 1, 1)),
    "b1": ((2, 2, 0), (1, 1, 1)),
    "b2": ((2, 2, 0), (1, 1, 1)),
}


@pytest.mark.parametrize("tag", BASE_TAGS)
def test_one_graph_one_condensation_one_search(tag, toggles2, monkeypatch):
    names = ("build_transition_graph", "_condensation_dp", "_search_longest_simple_path")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in names:
        monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
    for system, want in zip((toggles2, gen_lotus(7)), _ONE_EACH[tag]):
        calls.update(dict.fromkeys(names, 0))
        compositional_bound(system, BaseCaseKind(tag))
        assert tuple(calls.values()) == want, system


class TestComposeValues:
    def test_worked_examples(self):
        assert compose_values([]) == 0
        assert compose_values([5]) == 5
        assert compose_values([1, 1]) == 3
        assert compose_values([1, 1, 1]) == 7
        assert compose_values([2, 2, 2]) == 26

    def test_saturation(self):
        assert compose_values([MAX_BOUND, 5]) == MAX_BOUND
        assert compose_values([2**40, 2**40]) == MAX_BOUND

    @pytest.mark.parametrize(
        "values,total",
        [
            ([], 0),
            ([7], 7),
            ([3, 0, 4], 19),
            ([0, 0, 6], 6),
            ([MAX_BOUND - 1], MAX_BOUND - 1),
            ([MAX_BOUND], MAX_BOUND),
            ([MAX_BOUND, 0], MAX_BOUND),
            ([2**31, 2**31], 2**62 + 2**32),
            ([2**31, 2**31, 1], MAX_BOUND),
            ([2**31, 2**31, 1, 0], MAX_BOUND),
        ],
    )
    def test_fold_table(self, values, total):
        assert compose_values(values) == total

    @given(
        st.lists(
            st.integers(min_value=0, max_value=50) | st.integers(min_value=0, max_value=2**40),
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_order_free_product(self, values):
        # No total depends on the cluster order: the fold is prod(1 + v) - 1.
        product = 1
        for value in values:
            product *= 1 + value
        want = min(product - 1, MAX_BOUND)
        assert compose_values(values) == compose_values(values[::-1]) == want

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_every_input(self, values):
        total = compose_values(values)
        for index in range(len(values)):
            bumped = list(values)
            bumped[index] += 1
            assert compose_values(bumped) >= total


class TestCompositionalBound:
    def test_independent_toggles_match_concrete_rd(self, toggles2):
        report = compositional_bound(toggles2, BaseCaseKind("rd"))
        assert report.total == 3 == recurrence_diameter_bruteforce(toggles2)
        assert [c.value for c in report.per_cluster] == [1, 1]

    def test_single_cluster_equals_base_case(self, clique2):
        report = compositional_bound(clique2, BaseCaseKind("td"))
        assert report.total == base_case(clique2, BaseCaseKind("td"))

    def test_chain_of_three(self):
        system = System.from_names(
            ["v1", "v2", "v3"],
            (
                Action(ps(1, 1), ps(2, 2)),
                Action(ps(2, 2), ps(4, 4)),
                Action(PartialState(), ps(1, 1)),
                Action(PartialState(), ps(1, 0)),
            ),
        )
        report = compositional_bound(system, BaseCaseKind("rd"))
        assert [c.value for c in report.per_cluster] == [1, 1, 1]
        assert report.total == 7

    def test_no_action_system(self):
        report = compositional_bound(System.from_names(["a"], ()), BaseCaseKind("b1"))
        assert report.total == 0 and report.per_cluster == ()

    def test_base_ordering_on_samples(self):
        kinds = {tag: BaseCaseKind(tag) for tag in ("exp", "td", "rd", "b1", "b2")}
        for seed in range(1, 21):
            system = make_random(chain_family(seed))
            totals = {
                tag: compositional_bound(system, kind).total
                for tag, kind in kinds.items()
            }
            d = diameter(system)
            assert totals["rd"] <= totals["td"] <= totals["exp"], (seed, totals)
            assert all(value >= d for value in totals.values()), (seed, totals, d)
            assert totals["b1"] == totals["rd"], (seed, totals)

    def test_base_value_ordering_per_subsystem(self):
        kinds = {tag: BaseCaseKind(tag) for tag in ("exp", "td", "rd", "b1")}
        for seed in range(1, 21):
            system = make_random(chain_family(seed))
            values = {tag: base_case(system, kind) for tag, kind in kinds.items()}
            assert (
                values["rd"] <= values["b1"] <= values["td"] <= values["exp"]
            ), (seed, values)

    def test_lotus_product_gap(self):
        product = disjoint_union([gen_lotus(7)] * 3)
        b1_total = compositional_bound(product, BaseCaseKind("b1")).total
        td_total = compositional_bound(product, BaseCaseKind("td")).total
        assert b1_total == 26 and td_total == 511

    def test_report_shape(self, toggles2):
        report = compositional_bound(toggles2, BaseCaseKind("b1"), problem="toggles")
        assert report.problem == "toggles"
        assert report.num_clusters == 2
        assert report.max_cluster_vars == 1
        assert not report.degraded
        assert report.total >= max(c.value for c in report.per_cluster)
