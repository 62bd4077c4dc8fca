"""SMT encodings of "a simple path of length k exists in the state space"
and the iterative search that turns them into the longest-simple-path length.

Two encodings are emitted as solver-agnostic SMT-LIB 2 scripts:

* explicit — an uninterpreted state sort with one constant per valid state
  and a chain of k+1 pairwise-distinct step constants; each step states the
  transition graph's moves as one successor clause per state. Script size
  grows with k * (n + |E|) for n states and |E| edges.
* factored — Boolean per-step action and variable constants with frame
  equivalences, so the solver explores the state space lazily. Script size
  grows with k * (actions * variables + k * variables).

The query for k is the query for k - 1 plus one step. A ``Steps`` builder
makes the base and each step once per search, every declaration and
assertion as an s-expression tree of strings and tuples. A query is steps
0..k in order: their declarations, then their assertions, each step's in
the order it holds them; its script is those trees rendered.
The bundled solver (``SolverConfig.bundled()``, the default) runs in the
calling thread, under a deadline it checks against the clock. Through a
``SolverSession`` it reads each step's trees once per search, as it would
read their text, and grounds them, so no query is rendered or read as text;
without one, it reads the rendered script. Any other
command is spawned once per query, fed the rendered script, and the first
token it prints is read back. Satisfiability is monotone in k, so one search
narrows a bracket between the largest k known sat and the smallest k known
unsat; the linear or binary schedule only picks the next k to ask.

A simple path of k edges visits k + 1 distinct states, so rd <= td. A
search that has the explicit transition graph, because it was given one or
because its encoding is explicit, answers every k above the graph's td
unsat without encoding or solving it: a bound answer, logged as the solver
would log that k. A factored search given a system has no graph and asks
the solver for every k.
"""

from __future__ import annotations

import operator
import os
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from . import minisolver
from .core import DEFAULT_VAR_CAP, Action, FullState, System, TransitionGraph, timed_ms
from .oracle import as_graph, exp_bound, traversal_diameter

SOLVER_ENV_VAR = "STATEBOUND_SOLVER"
DEFAULT_TIMEOUT_MS = 60_000
_BUNDLED_COMMAND = (sys.executable, minisolver.__file__)

class SolverError(RuntimeError):
    """The external solver failed; carries the query log gathered so far."""

    def __init__(self, message: str, queries: tuple = ()) -> None:
        super().__init__(message)
        self.queries = queries


@dataclass(frozen=True, eq=False)
class Step:
    """What one step adds to a query, or the base of every query, as
    s-expression trees of strings and tuples: the commands of its
    declarations, such as ``("declare-fun", "y2", (), "S")``, and the terms
    of its assertions."""

    declarations: tuple
    assertions: tuple


def _render(tree) -> str:
    """An s-expression tree as SMT-LIB text; a string is its own text."""
    return tree if isinstance(tree, str) else "(" + " ".join(map(_render, tree)) + ")"


@dataclass(frozen=True)
class SmtDocument:
    """A self-contained SMT-LIB 2 script: set-logic, declarations, assertions
    and exactly one (check-sat). A declaration is a command tree and an
    assertion a term tree, as ``Step`` holds them; a string, such as a
    hand-written line, renders as itself.
    ``steps`` are the steps 0..k an encoder made the document from; its
    declarations, then its assertions, are theirs in step order. They are
    neither compared nor rendered; only ``_assembled`` sets them, so a
    document changed by ``dataclasses.replace`` has none."""

    logic: str
    declarations: tuple
    assertions: tuple
    encoding: str  # "explicit" | "factored"
    k: int
    get_model: bool = False
    steps: tuple[Step, ...] = field(default=(), init=False, compare=False, repr=False)

    @cached_property
    def rendering(self) -> str:
        lines = [f"(set-logic {self.logic})", *map(_render, self.declarations)]
        lines += [f"(assert {_render(body)})" for body in self.assertions]
        lines.append("(check-sat)")
        if self.get_model:
            lines.append("(get-model)")
        return "\n".join(lines) + "\n"

    def script_name(self) -> str:
        tag = 1 if self.encoding == "explicit" else 2
        return f"phi{tag}_k{self.k}.smt2"


def _assembled(steps: tuple[Step, ...], encoding: str, get_model: bool) -> SmtDocument:
    """The query for k = len(steps) - 1, carrying ``steps``: the declarations
    of steps 0..k, then their assertions, in the order the session loads them."""
    decls = tuple(tree for step in steps for tree in step.declarations)
    asserts = tuple(tree for step in steps for tree in step.assertions)
    doc = SmtDocument("QF_UF", decls, asserts, encoding, len(steps) - 1, get_model)
    object.__setattr__(doc, "steps", steps)
    return doc


def _nary(op: str, unit: str, parts: list) -> str | tuple:
    """``(op parts...)``; ``unit`` for no parts, and the part itself for one."""
    if not parts:
        return unit
    return parts[0] if len(parts) == 1 else (op, *parts)


def _fun(name: str, sort: str, *args: str) -> tuple:
    return ("declare-fun", name, args, sort)


class Steps:
    """The base (step 0) and the later steps of one encoding of one system,
    each built once, when a query first needs it; ``step(i)`` builds step i."""

    def __init__(self, base: Step, step: Callable[[int], Step]) -> None:
        self._built, self._step = [base], step

    def upto(self, k: int) -> tuple[Step, ...]:
        """Steps 0..k, for the query for k."""
        if k < 1:
            raise ValueError("k must be at least 1")
        while len(self._built) <= k:
            self._built.append(self._step(len(self._built)))
        return tuple(self._built[: k + 1])


def _explicit_steps(graph: TransitionGraph) -> Steps:
    """The base holds the state sort, one constant per state of ``graph``,
    asserted distinct, and y1, confined to the states; step i adds y_{i+1},
    one successor clause per state a, ``(or (not (= y_i a)) (= y_{i+1} b) ...)``
    over the successors b of a (``(not (= y_i a))`` for a state with none),
    y_{i+1} distinct from y_1..y_i, and y_{i+1} confined to the states."""
    states = [f"s{u}" for u in range(graph.num_states)]

    def confined(y: str) -> str | tuple:
        return _nary("or", "false", [("=", y, s) for s in states])

    def step(i: int) -> Step:
        prev, y = f"y{i}", f"y{i + 1}"
        moves = [
            _nary("or", "false", [("not", ("=", prev, a)), *(("=", y, states[v]) for v in succs)])
            for a, succs in zip(states, graph.adj)
        ]
        distinct = [("not", ("=", f"y{p}", y)) for p in range(1, i + 1)]
        return Step((_fun(y, "S"),), (*moves, *distinct, confined(y)))

    decls = [("declare-sort", "S", "0"), *(_fun(s, "S") for s in states), _fun("y1", "S")]
    asserts = [("distinct", *states)] if len(states) >= 2 else []
    asserts.append(confined("y1"))
    return Steps(Step(tuple(decls), tuple(asserts)), step)


def encode_explicit(
    system: System, k: int, get_model: bool = False, steps: Steps | None = None
) -> SmtDocument:
    """Whole-state-space encoding: satisfiable iff a simple path with k edges
    exists. Each step states the moves of the transition graph as one
    successor clause per state, so the script holds k * (n + |E|) atoms
    for n states and |E| edges. It is steps
    0..k of ``steps``, or of a builder made here, which builds the explicit
    transition graph, when None."""
    return _assembled((steps or steps_of(system, "explicit")).upto(k), "explicit", get_model)


def _var_symbol(var_id: int, step: int) -> str:
    return f"v{var_id}_s{step}"


def _action_symbol(action_index: int, step: int) -> str:
    return f"a{action_index}_s{step}"


def _factored_steps(system: System) -> Steps:
    """The base declares the variables at step 1; step i declares them at
    step i + 1 and the actions at step i, then asserts, per action, that it
    implies its preconditions at i, its effects at i + 1 and frame
    equivalences for the variables it leaves; that some action fires at i;
    and, per earlier step p, that the state at p differs from the state at
    i + 1 in some variable."""
    domain, actions = system.domain, system.actions

    def literal(var_id: int, value: bool, step: int) -> str | tuple:
        name = _var_symbol(var_id, step)
        return name if value else ("not", name)

    def step(i: int) -> Step:
        decls = [_fun(_var_symbol(v, i + 1), "Bool") for v in domain]
        decls += [_fun(_action_symbol(j, i), "Bool") for j in range(len(actions))]
        asserts = []
        for j, action in enumerate(actions):
            parts = [literal(v, val, i) for v, val in action.pre.items()]
            parts += [literal(v, val, i + 1) for v, val in action.eff.items()]
            frame = [v for v in domain if v not in action.eff]
            parts += [("=", _var_symbol(v, i), _var_symbol(v, i + 1)) for v in frame]
            asserts.append(("=>", _action_symbol(j, i), _nary("and", "true", parts)))
        asserts.append(_nary("or", "false", [_action_symbol(j, i) for j in range(len(actions))]))
        for p in range(1, i + 1):
            differ = [("xor", _var_symbol(v, p), _var_symbol(v, i + 1)) for v in domain]
            asserts.append(_nary("or", "false", differ))
        return Step(tuple(decls), tuple(asserts))

    return Steps(Step(tuple(_fun(_var_symbol(v, 1), "Bool") for v in domain), ()), step)


def encode_factored(
    system: System, k: int, get_model: bool = False, steps: Steps | None = None
) -> SmtDocument:
    """Factored encoding over per-step Boolean constants: an action constant
    implies its preconditions now, its effects next, and frame equivalences
    for untouched variables; some action fires each step; every pair of steps
    differs in some variable. It is steps 0..k of ``steps``, or of a builder
    made here when None."""
    return _assembled((steps or steps_of(system, "factored")).upto(k), "factored", get_model)


def steps_of(
    obj: System | TransitionGraph, encoding: str, max_vars: int = DEFAULT_VAR_CAP
) -> Steps:
    """The step builder of ``encoding`` for a system or its transition
    graph. An explicit one reads the graph, built here from a system; a
    factored one reads the system, a graph's own."""
    if encoding == "explicit":
        return _explicit_steps(as_graph(obj, max_vars))
    if encoding == "factored":
        return _factored_steps(obj.system if isinstance(obj, TransitionGraph) else obj)
    raise ValueError(f"unknown encoding {encoding!r}")


ENCODINGS = ("explicit", "factored")


def encode(system: System, k: int, encoding: str, steps: Steps | None = None) -> SmtDocument:
    """The query for k in ``encoding``, assembled from ``steps`` when given.
    The encoders are looked up as module globals at each call, so a wrapper
    set on them applies here too."""
    if encoding == "explicit":
        return encode_explicit(system, k, steps=steps)
    if encoding == "factored":
        return encode_factored(system, k, steps=steps)
    raise ValueError(f"unknown encoding {encoding!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Which solver answers the queries, and the time each query may take.

    When ``command`` is exactly the bundled one, no process is spawned: the
    bundled solver runs in the calling thread and gives up once
    ``timeout_ms`` has passed (it may overshoot by the work between two of
    its clock checks). Any other command is spawned once per query and
    killed at the timeout. It may contain a ``{script}`` placeholder; when
    present the script is written to a temporary file and the placeholder
    substituted, otherwise the script is piped to the solver's standard
    input.
    """

    command: tuple[str, ...]
    timeout_ms: int = DEFAULT_TIMEOUT_MS

    def __post_init__(self) -> None:
        if self.timeout_ms < 1:
            raise ValueError(f"timeout_ms must be at least 1, got {self.timeout_ms}")

    @property
    def in_process(self) -> bool:
        """True when queries run in the calling thread: the bundled command."""
        return self.command == _BUNDLED_COMMAND

    @classmethod
    def bundled(cls, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> "SolverConfig":
        """The packaged fallback solver. Its command names the module by
        file path, which is how it would be launched as a process."""
        return cls(command=_BUNDLED_COMMAND, timeout_ms=timeout_ms)

    @classmethod
    def from_string(cls, text: str, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> "SolverConfig":
        parts = tuple(shlex.split(text))
        if not parts:
            raise ValueError("empty solver command")
        return cls(command=parts, timeout_ms=timeout_ms)

    @classmethod
    def from_env(cls, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> "SolverConfig":
        """Environment override via STATEBOUND_SOLVER, else the bundled solver."""
        text = os.environ.get(SOLVER_ENV_VAR, "").strip()
        if text:
            return cls.from_string(text, timeout_ms)
        return cls.bundled(timeout_ms)


@dataclass(frozen=True)
class SolverVerdict:
    """One solver answer: sat/unsat/unknown/timeout/solver-error plus the raw
    first token (for ``unknown``, the solver's reason when it gives one) and,
    when requested and available, the Boolean model. A bound answer, an
    ``unsat`` that ``rd_via_smt`` gives without asking the solver because k
    exceeds the traversal diameter td, has ``raw`` ``"td=<td>"`` and
    ``elapsed_ms`` 0."""

    status: str
    elapsed_ms: float
    raw: str = ""
    model: dict[str, bool] | None = None


class SolverSession:
    """The bundled solver's state across the queries of one search: one
    ``minisolver.Grounder`` and the steps loaded into it, 0 the base.

    A query's document carries its steps 0..k. The session reads each step
    not loaded yet, through ``Script.declare`` and ``Script.parse_term`` as
    the text would be read, and grounds it as one batch: the base with no
    guard, every later step under a selector of its own. The CDCL solver
    then decides the query under the selectors of steps 1..k as
    assumptions, and keeps the clauses, activities and phases it already
    has. A selector is only ever an assumption, so queries for any k, in
    any order, extend one grounder: each step is ground once per search,
    and a bisection back down loads nothing.

    It starts over from the document's steps when one of them is not the
    object loaded at its place, and after a timeout or error. A document
    that carries no steps (a hand-built one), or whose steps are refused,
    by the reader as their text would be or by the grounder, is answered
    from its text, fresh.
    """

    def __init__(self) -> None:
        self._grounder: minisolver.Grounder | None = None  # None until a query is decided
        self._steps: tuple[Step, ...] = ()  # the steps loaded into it

    def check(self, doc: SmtDocument, deadline: float) -> tuple[str, dict[str, bool] | None, str]:
        """(status, Boolean model, reason) for ``doc``, as ``_check_text``."""
        steps, k = doc.steps, len(doc.steps) - 1
        if not steps:
            return _check_text(doc, deadline)
        grounder, self._grounder = self._grounder, None  # until doc is decided
        if grounder is None or not all(map(operator.is_, steps, self._steps)):
            grounder, self._steps = minisolver.Grounder(minisolver.Script()), ()
        try:
            script = grounder.script
            for step in steps[len(self._steps) :]:
                for command in step.declarations:
                    script.declare(command)
                script.assertions.extend(map(script.parse_term, step.assertions))
                grounder.ground(deadline)
        except (minisolver.SmtUnsupportedError, minisolver.SmtFormatError):
            return _check_text(doc, deadline)
        self._steps = max(self._steps, steps, key=len)
        status, model = grounder.solve(deadline, range(k)), None  # the selectors of steps 1..k
        if status == "sat" and doc.get_model:
            names = [cmd[1] for step in steps for cmd in step.declarations if cmd[2:] == ((), "Bool")]
            model = grounder.bool_values(names)
        self._grounder = grounder
        return status, model, ""


def _check_text(doc: SmtDocument, deadline: float) -> tuple[str, dict[str, bool] | None, str]:
    """A fresh bundled solver on ``doc``'s rendering: (status, the Boolean
    model when sat and asked for, else None, and an ``unknown``'s reason)."""
    status, lines, reason = minisolver.check_text(doc.rendering, deadline)
    wanted = status == "sat" and doc.get_model
    return status, minisolver.bool_model("\n".join(lines)) if wanted else None, reason


def run_solver(
    doc: SmtDocument, cfg: SolverConfig, session: SolverSession | None = None
) -> SolverVerdict:
    """Run one query and classify the response. The bundled solver answers
    through ``session``, or from the script's text when None; any other
    solver ignores it."""
    if cfg.in_process:
        answer, elapsed_ms = timed_ms(_solve_in_process, doc, cfg.timeout_ms, session)
    else:
        answer, elapsed_ms = timed_ms(_solve_in_child, doc, cfg)
    status, raw, model = answer
    return SolverVerdict(status, elapsed_ms, raw=raw, model=model)


def _solve_in_process(
    doc: SmtDocument, timeout_ms: int, session: SolverSession | None
) -> tuple[str, str, dict | None]:
    """The bundled solver in the calling thread. Its outcomes map as a
    process's would: a passed deadline is a timeout, an unsupported or
    malformed script ``unknown``, and so is a term nested past the
    recursion limit, which rendering or reading a step's tree may meet; any
    other exception is a solver error."""
    deadline = time.monotonic() + timeout_ms / 1000.0
    check = _check_text if session is None else session.check
    try:
        status, model, reason = check(doc, deadline)
    except minisolver.SolverTimeout:
        return "timeout", "", None
    except RecursionError:
        return "unknown", "term nested too deeply", None
    except Exception as exc:  # a crash, as a solver process might have had
        return "solver-error", repr(exc), None
    return status, reason or status, model


def _solve_in_child(doc: SmtDocument, cfg: SolverConfig) -> tuple[str, str, dict | None]:
    """One fresh solver process for one script."""
    command = list(cfg.command)
    stdin_text: str | None = doc.rendering
    script_path = None
    try:
        if any("{script}" in part for part in command):
            with tempfile.NamedTemporaryFile(
                "w", suffix=".smt2", delete=False, encoding="utf-8"
            ) as handle:
                handle.write(doc.rendering)
            script_path = handle.name
            command = [part.replace("{script}", script_path) for part in command]
            stdin_text = None
        try:
            proc = subprocess.run(
                command,
                input=stdin_text,
                capture_output=True,
                text=True,
                timeout=cfg.timeout_ms / 1000.0,
            )
        except subprocess.TimeoutExpired:
            return "timeout", "", None
        except OSError as exc:
            return "solver-error", str(exc), None
    finally:
        if script_path is not None:
            try:
                os.unlink(script_path)
            except OSError:
                pass
    token = _first_token(proc.stdout)
    if token not in ("sat", "unsat", "unknown"):
        return "solver-error", token or "", None
    model = minisolver.bool_model(proc.stdout) if token == "sat" and doc.get_model else None
    # The bundled solver prints an ``unknown``'s reason on stderr as "; <reason>".
    reason = proc.stderr.strip().removeprefix("; ") if token == "unknown" else ""
    return token, reason or token, model


def _first_token(stdout: str) -> str | None:
    for line in stdout.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith(";"):
            continue
        return stripped.split()[0]
    return None


SCHEDULES = ("linear", "binary")


@dataclass(frozen=True)
class RdResult:
    """Outcome of the iterative search: the largest satisfiable k. When a
    query timed out, ``exact`` is False and ``rd`` is only a lower bound."""

    rd: int
    exact: bool
    encoding: str
    queries: tuple[tuple[int, SolverVerdict], ...] = ()


def rd_via_smt(
    obj: System | TransitionGraph,
    encoding: str = "factored",
    cfg: SolverConfig | None = None,
    schedule: str = "linear",
    max_vars: int = DEFAULT_VAR_CAP,
) -> RdResult:
    """Compute the longest-simple-path length of a system, or of the system
    of a transition graph, by repeated solver queries.

    Satisfiability is monotone in k, so the search keeps a bracket: ``low``
    is the largest k known sat, ``high`` the smallest k known unsat, and it
    asks until they are adjacent. The schedule only picks the next k: the
    linear one asks low + 1; the binary one doubles low (capped at exp + 1)
    until an unsat k is found, then bisects.

    The search has the transition graph when it is given one, or when the
    encoding is explicit, which builds it (within ``max_vars``) from the
    system. A simple path of k edges visits k + 1 distinct states, so no k
    above the graph's traversal diameter td is sat: with the graph, each
    such k is answered ``unsat`` without encoding or solving, and logged as
    a bound answer (``SolverVerdict.raw`` ``"td=<td>"``). The schedule still
    picks the same k, so the (k, status) log is the one the solver would
    give. A factored search given a system builds no graph and asks the
    solver for every k.
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    graph = None
    if encoding == "explicit" or isinstance(obj, TransitionGraph):
        graph = as_graph(obj, max_vars)  # one graph for the steps and td
    system = obj if graph is None else graph.system
    steps = steps_of(graph or system, encoding, max_vars)  # every query's steps, built once
    td = None if graph is None else traversal_diameter(graph)
    if cfg is None:
        cfg = SolverConfig.from_env()
    queries: list[tuple[int, SolverVerdict]] = []
    exp = exp_bound(system)  # no simple path can be longer
    session = SolverSession()

    def query(k: int) -> str:
        if td is not None and k > td:
            verdict = SolverVerdict("unsat", 0.0, raw=f"td={td}")
        else:
            verdict = run_solver(encode(system, k, encoding, steps), cfg, session)
        queries.append((k, verdict))
        if verdict.status in ("solver-error", "unknown"):
            raise SolverError(
                f"solver failed on {encoding} query k={k}: "
                f"{verdict.status} {verdict.raw!r}",
                queries=tuple(queries),
            )
        # exp + 1 distinct states cannot exist, so sat there is a solver bug.
        if verdict.status == "sat" and k > exp:
            raise SolverError(
                f"solver reported sat beyond the state-count bound (k={k})",
                queries=tuple(queries),
            )
        return verdict.status

    low, high = 0, None
    while high is None or high - low > 1:
        if high is not None:
            k = (low + high) // 2
        elif schedule == "linear":
            k = low + 1
        else:
            k = min(2 * low, exp + 1) or 1
        status = query(k)
        if status == "timeout":
            return RdResult(rd=low, exact=False, encoding=encoding, queries=tuple(queries))
        if status == "sat":
            low = k
        else:
            high = k
    return RdResult(rd=low, exact=True, encoding=encoding, queries=tuple(queries))


def decode_factored_model(
    system: System, k: int, model: dict[str, bool]
) -> tuple[list[FullState], list[list[Action]]]:
    """Turn a factored-encoding model into the traversed states and the
    actions enabled at each step."""
    states = []
    for step in range(1, k + 2):
        states.append(
            FullState.from_items(
                (var_id, model.get(_var_symbol(var_id, step), False))
                for var_id in system.domain
            )
        )
    enabled: list[list[Action]] = []
    for step in range(1, k + 1):
        enabled.append(
            [
                action
                for j, action in enumerate(system.actions)
                if model.get(_action_symbol(j, step), False)
            ]
        )
    return states, enabled
