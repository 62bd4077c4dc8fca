"""Variable-dependency clustering, projection onto each cluster, and
composition of per-cluster topology values into a plan-length bound for the
whole system.

Clusters are the strongly connected components of the variable dependency
graph, ancestors first. Each cluster's projected subsystem gets a base value
(state-count bound, traversal diameter, longest simple path, or the hybrid
b1/b2 selectors that pay for the expensive longest-simple-path computation
only past fixed td and state-count cutoffs), and the values fold as
bound = bound + (bound + 1) * next: the product of (1 + value) minus 1.

A cluster's transition graph is built once and shared by td and the
longest-simple-path search. rd comes from that search while it stays within
its work budget; a configured solver's factored search answers only past
it, on the same graph, or past the variable cap under tag ``rd``. A
``b1``/``b2`` cluster past the cap has no td to trigger rd, so it takes the
state-count bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DEFAULT_VAR_CAP,
    Action,
    PartialState,
    StateSpaceTooLargeError,
    System,
    TransitionGraph,
    Variable,
    timed_ms,
)
from .oracle import (
    DEFAULT_RD_BUDGET,
    MAX_BOUND,
    TD_DECIDES_RD,
    SimplePathSearchTooLargeError,
    as_graph,
    exp_bound,
    recurrence_diameter_bruteforce,
    strongly_connected_components,
    traversal_diameter,
)
from .smt import SCHEDULES, SolverConfig, SolverError, rd_via_smt

BASE_TAGS = ("exp", "td", "rd", "b1", "b2")

# b2 searches for rd only on clusters with at most this many states plus one.
B2_STATE_CAP = 50


def project(system: System, var_ids) -> System:
    """Restrict preconditions and effects to ``var_ids``; variables are
    renumbered densely, keeping their names, and actions whose restricted
    effect is empty are dropped."""
    ids = tuple(sorted(set(var_ids)))
    if any(not system.domain_mask >> i & 1 for i in ids):
        raise ValueError("projection variables must lie inside the used domain")
    remap = {old: new for new, old in enumerate(ids)}
    variables = tuple(Variable(new, system.variables[old].name) for old, new in remap.items())

    def restrict(state: PartialState) -> PartialState:
        return PartialState.from_items(
            (remap[v], val) for v, val in state.items() if v in remap
        )

    actions = []
    for action in system.actions:
        eff = restrict(action.eff)
        if eff.mask == 0:
            continue  # would only produce self-loops
        actions.append(Action(restrict(action.pre), eff))
    return System(variables, tuple(actions))


def dependency_graph(system: System) -> dict[int, set[int]]:
    """Edge u -> v iff some action both touches u (precondition or effect)
    and writes v; u's value constrains or co-changes with v."""
    edges: dict[int, set[int]] = {v: set() for v in system.domain}
    for action in system.actions:
        sources = action.pre.domain() + action.eff.domain()
        for v in action.eff.domain():
            for u in sources:
                if u != v:
                    edges[u].add(v)
    return edges


@dataclass(frozen=True)
class ClusterDecomposition:
    """SCC clusters of the dependency graph, ancestors first, as Tarjan's
    pass over ascending variable ids finishes them on the reversed graph.
    Edges are (ancestor, dependent) index pairs into ``clusters``."""

    clusters: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]


def decompose(system: System) -> ClusterDecomposition:
    domain = system.domain
    # Tarjan finishes a component only after every component it reaches;
    # over the variables each one depends on, that puts ancestors first.
    deps = dependency_graph(system)
    depends_on = [[i for i, u in enumerate(domain) if v in deps[u]] for v in domain]
    sccs = strongly_connected_components(depends_on)
    comp_of = [0] * len(domain)
    for cid, members in enumerate(sccs):
        for pos in members:
            comp_of[pos] = cid
    edges = {(comp_of[a], comp_of[d]) for d, ancestors in enumerate(depends_on) for a in ancestors}
    return ClusterDecomposition(
        clusters=tuple(tuple(domain[pos] for pos in members) for members in sccs),
        edges=tuple(sorted((a, d) for a, d in edges if a != d)),
    )


@dataclass(frozen=True)
class BaseCaseKind:
    """Which topological property to compute on each cluster.

    ``b1`` pays for the longest-simple-path computation only when the
    traversal diameter exceeds ``TD_DECIDES_RD``, below which rd equals it;
    ``b2`` additionally restricts it to clusters with at most
    ``B2_STATE_CAP`` + 1 states.
    """

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in BASE_TAGS:
            raise ValueError(f"unknown base-case tag {self.tag!r}")


@dataclass(frozen=True)
class BoundConfig:
    """Knobs shared by every base-case evaluation."""

    solver: SolverConfig | None = None
    schedule: str = "linear"
    max_vars: int = DEFAULT_VAR_CAP
    rd_budget: int = DEFAULT_RD_BUDGET

    def __post_init__(self) -> None:
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.max_vars < 1:
            raise ValueError(f"max_vars must be at least 1, got {self.max_vars}")
        if self.rd_budget < 1:
            raise ValueError(f"rd_budget must be at least 1, got {self.rd_budget}")


@dataclass(frozen=True)
class ClusterBound:
    """Base-case outcome on one projected cluster.

    ``cause`` says why a degraded cluster's value is looser than its tag
    asks for, and is None when it is not degraded: "budget" (the search ran
    over its work budget, with no solver to turn to), "max-vars" (the
    cluster is over the explicit-state variable cap), "timeout" (a solver
    query timed out) or "solver-error".
    """

    var_names: tuple[str, ...]
    value: int
    property_used: str  # "exp" | "td" | "rd"
    rd_queries: int = 0
    rd_time_ms: float = 0.0
    td_time_ms: float = 0.0
    cause: str | None = None

    @property
    def degraded(self) -> bool:
        return self.cause is not None


@dataclass(frozen=True)
class BoundReport:
    """Composed bound plus per-cluster detail."""

    problem: str
    base: BaseCaseKind
    total: int
    per_cluster: tuple[ClusterBound, ...]
    total_time_ms: float = 0.0

    @property
    def degraded(self) -> bool:
        return any(c.degraded for c in self.per_cluster)

    @property
    def rd_queries(self) -> int:
        return sum(c.rd_queries for c in self.per_cluster)

    @property
    def rd_time_ms(self) -> float:
        return sum(c.rd_time_ms for c in self.per_cluster)

    @property
    def td_time_ms(self) -> float:
        return sum(c.td_time_ms for c in self.per_cluster)

    @property
    def num_clusters(self) -> int:
        return len(self.per_cluster)

    @property
    def max_cluster_vars(self) -> int:
        return max((len(c.var_names) for c in self.per_cluster), default=0)


def _rd_detailed(
    subsystem: System, graph: TransitionGraph | None, cfg: BoundConfig
) -> tuple[int | None, int, str | None]:
    """Longest-simple-path value of one cluster, the solver queries spent,
    and the cause when there is no value.

    The exhaustive search on the cluster's graph answers first, within
    ``cfg.rd_budget`` work units. The factored SMT search answers only past
    the budget, or when the graph is over ``cfg.max_vars`` (``graph`` None),
    and only when a solver is configured. Past the budget it is handed the
    graph, so it answers every k above the cluster's td, already computed,
    without a query. Only tag ``rd`` gets here without
    a graph: a hybrid's trigger needs td, so a ``b1``/``b2`` cluster over
    the cap falls to the state-count bound. A cluster whose methods all
    give out has no value: it falls back to td.
    """
    if not subsystem.actions:
        return 0, 0, None
    cause = "max-vars"
    if graph is not None:
        try:
            return recurrence_diameter_bruteforce(graph, budget=cfg.rd_budget), 0, None
        except SimplePathSearchTooLargeError:
            cause = "budget"
    if cfg.solver is None:
        return None, 0, cause
    try:
        result = rd_via_smt(
            graph or subsystem,
            encoding="factored",
            cfg=cfg.solver,
            schedule=cfg.schedule,
        )
    except SolverError as exc:
        return None, len(exc.queries), "solver-error"
    if result.exact:
        return result.rd, len(result.queries), None
    return None, len(result.queries), "timeout"


def _base_case_detailed(
    subsystem: System, kind: BaseCaseKind, cfg: BoundConfig, var_names: tuple[str, ...]
) -> ClusterBound:
    """One cluster's base value: rd when the tag asks for it, or a hybrid's
    td says it can help; otherwise, or when rd gives out, td; the
    state-count bound as the last resort. The cluster's graph is built once,
    and timed with td; it is None past the variable cap, and so is td."""
    tag = kind.tag
    if tag == "exp":
        return ClusterBound(var_names, exp_bound(subsystem), "exp")
    try:
        graph, td_ms = timed_ms(as_graph, subsystem, cfg.max_vars)
    except StateSpaceTooLargeError:
        graph = td = None
        td_ms = 0.0
    else:
        td, ms = timed_ms(traversal_diameter, graph)
        td_ms += ms
    value, used, rd_queries, rd_ms, cause = None, "rd", 0, 0.0, None
    if tag == "rd" or (
        tag in ("b1", "b2")
        and td is not None
        and td > TD_DECIDES_RD
        and (tag == "b1" or exp_bound(subsystem) <= B2_STATE_CAP)
    ):
        (value, rd_queries, cause), rd_ms = timed_ms(_rd_detailed, subsystem, graph, cfg)
    if value is None:
        value, used = td, "td"
    if value is None:
        value, used, cause = exp_bound(subsystem), "exp", cause or "max-vars"
    return ClusterBound(
        var_names=var_names,
        value=value,
        property_used=used,
        rd_queries=rd_queries,
        rd_time_ms=rd_ms,
        td_time_ms=td_ms,
        cause=cause,
    )


def base_case(subsystem: System, kind: BaseCaseKind) -> int:
    """The configured topological property of one (sub)system, under the
    default ``BoundConfig``."""
    return _base_case_detailed(subsystem, kind, BoundConfig(), ()).value


def compose_values(values) -> int:
    """Fold per-cluster values: B := B + (B + 1) * v from B = 0, saturating.
    The first step gives B = v; in any order, the result is prod(1 + v) - 1."""
    total = 0
    for value in values:
        total = total + (total + 1) * value
        if total >= MAX_BOUND:
            return MAX_BOUND
    return total


def compositional_bound(
    system: System,
    kind: BaseCaseKind,
    cfg: BoundConfig | None = None,
    problem: str = "",
) -> BoundReport:
    """Decompose, evaluate the base case per cluster, and fold the values
    into one plan-length upper bound."""
    cfg = cfg or BoundConfig()

    def cluster_bound(cluster: tuple[int, ...]) -> ClusterBound:
        names = tuple(system.variables[v].name for v in cluster)
        return _base_case_detailed(project(system, cluster), kind, cfg, names)

    per_cluster, total_time_ms = timed_ms(
        lambda: tuple(map(cluster_bound, decompose(system).clusters))
    )
    return BoundReport(
        problem=problem,
        base=kind,
        total=compose_values(c.value for c in per_cluster),
        per_cluster=per_cluster,
        total_time_ms=total_time_ms,
    )
