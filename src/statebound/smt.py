"""SMT encodings of "a simple path of length k exists in the state space"
and the iterative search that turns them into the longest-simple-path length.

Two encodings are emitted as solver-agnostic SMT-LIB 2 scripts:

* explicit — an uninterpreted state sort with one constant per valid state,
  an edge predicate tabulated over the whole state space, and a chain of k+1
  pairwise-distinct step constants. Script size grows with the square of the
  state-space size. The part that does not depend on k is a ``StateTable``;
  one search builds it, and so the transition graph, once for all its
  queries, each of which is still a whole script.
* factored — Boolean per-step action and variable constants with frame
  equivalences, so the solver explores the state space lazily. Script size
  grows with k * (actions * variables + k * variables).

The bundled solver (``SolverConfig.bundled()``, the default) answers each
query in the calling thread, under a deadline that ``minisolver`` checks
against the clock. One search keeps one ``SolverSession`` with it, and so
one grounder: the first query is its base, and each later query loads only
its lines not loaded yet, as a batch guarded by a selector literal. The CDCL
solver decides each query under assumptions that switch on exactly the
batches whose lines the query holds, and keeps what it learned. So the
explicit query for k + 1 reads and grounds its new step, not the state
table, and a bisection back down reuses the session too. A query that lacks
a base line or a confining line, or that follows a timeout or error, starts
fresh. Any other command spawns one solver process per query, and the first
token it prints is read back. Satisfiability is monotone in k, so one search
narrows a bracket between the largest k known sat and the smallest k known
unsat; the linear or binary schedule only picks the next k to ask.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import cached_property

from . import minisolver
from .core import DEFAULT_VAR_CAP, Action, FullState, System, build_transition_graph, timed_ms
from .oracle import exp_bound

SOLVER_ENV_VAR = "STATEBOUND_SOLVER"
DEFAULT_TIMEOUT_MS = 60_000
_BUNDLED_COMMAND = (sys.executable, minisolver.__file__)

class SolverError(RuntimeError):
    """The external solver failed; carries the query log gathered so far."""

    def __init__(self, message: str, queries: tuple = ()) -> None:
        super().__init__(message)
        self.queries = queries


@dataclass(frozen=True)
class SmtDocument:
    """A self-contained SMT-LIB 2 script: set-logic, declarations, assertions
    and exactly one (check-sat)."""

    logic: str
    declarations: tuple[str, ...]
    assertions: tuple[str, ...]
    encoding: str  # "explicit" | "factored"
    k: int
    get_model: bool = False

    @cached_property
    def rendering(self) -> str:
        heading = [f"(set-logic {self.logic})", *self.declarations]
        return _script_text(heading, self.assertions, self.get_model)

    def script_name(self) -> str:
        tag = 1 if self.encoding == "explicit" else 2
        return f"phi{tag}_k{self.k}.smt2"


def _script_text(
    declarations: list[str], assertions: tuple[str, ...] | list[str], get_model: bool
) -> str:
    """The lines of a script, or of the part that extends one: the
    declarations, an ``(assert ...)`` per assertion, ``(check-sat)``, and
    ``(get-model)`` when asked for."""
    lines = declarations + [f"(assert {body})" for body in assertions]
    lines.append("(check-sat)")
    if get_model:
        lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def _or_term(parts: list[str]) -> str:
    if not parts:
        return "false"
    if len(parts) == 1:
        return parts[0]
    return "(or " + " ".join(parts) + ")"


def _and_term(parts: list[str]) -> str:
    if not parts:
        return "true"
    if len(parts) == 1:
        return parts[0]
    return "(and " + " ".join(parts) + ")"


@dataclass(frozen=True)
class StateTable:
    """The lines of an explicit query that do not depend on k: the state
    sort and one constant per state, declared, and the assertions that the
    constants are distinct and that tabulate the edge predicate over every
    ordered state pair."""

    num_states: int
    declarations: tuple[str, ...]
    assertions: tuple[str, ...]


def state_table(system: System, max_vars: int = DEFAULT_VAR_CAP) -> StateTable:
    """The explicit transition graph of ``system`` as a ``StateTable``."""
    graph = build_transition_graph(system, max_vars=max_vars)
    n = graph.num_states
    decls = ["(declare-sort S 0)", *(f"(declare-fun s{i} () S)" for i in range(n))]
    assertions: list[str] = []
    if n >= 2:
        assertions.append("(distinct " + " ".join(f"s{i}" for i in range(n)) + ")")
    edge_set = set()
    for u, succs in enumerate(graph.adj):
        for v in succs:
            edge_set.add((u, v))
            assertions.append(f"(G s{u} s{v})")
    for u in range(n):
        for v in range(n):
            if (u, v) not in edge_set:
                assertions.append(f"(not (G s{u} s{v}))")
    return StateTable(n, tuple(decls), tuple(assertions))


def encode_explicit(
    system: System,
    k: int,
    max_vars: int = DEFAULT_VAR_CAP,
    get_model: bool = False,
    table: StateTable | None = None,
) -> SmtDocument:
    """Whole-state-space encoding: satisfiable iff a simple path with k edges
    exists. The script enumerates every ordered state pair, from ``table``,
    or from the explicit transition graph, built here, when None."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if table is None:
        table = state_table(system, max_vars)
    n = table.num_states
    decls = [*table.declarations]
    decls.extend(f"(declare-fun y{i} () S)" for i in range(1, k + 2))
    decls.append("(declare-fun G (S S) Bool)")

    assertions = [*table.assertions]
    for i in range(1, k + 1):
        assertions.append(f"(G y{i} y{i + 1})")
    for i in range(1, k + 2):
        for j in range(i + 1, k + 2):
            assertions.append(f"(not (= y{i} y{j}))")
    for i in range(1, k + 2):
        assertions.append(_or_term([f"(= y{i} s{u})" for u in range(n)]))
    return SmtDocument(
        logic="QF_UF",
        declarations=tuple(decls),
        assertions=tuple(assertions),
        encoding="explicit",
        k=k,
        get_model=get_model,
    )


def _var_symbol(var_id: int, step: int) -> str:
    return f"v{var_id}_s{step}"


def _action_symbol(action_index: int, step: int) -> str:
    return f"a{action_index}_s{step}"


def encode_factored(system: System, k: int, get_model: bool = False) -> SmtDocument:
    """Factored encoding over per-step Boolean constants: an action constant
    implies its preconditions now, its effects next, and frame equivalences
    for untouched variables; some action fires each step; every pair of steps
    differs in some variable."""
    if k < 1:
        raise ValueError("k must be at least 1")
    domain = system.domain
    actions = system.actions

    decls: list[str] = []
    for var_id in domain:
        decls.extend(
            f"(declare-fun {_var_symbol(var_id, i)} () Bool)" for i in range(1, k + 2)
        )
    for j in range(len(actions)):
        decls.extend(
            f"(declare-fun {_action_symbol(j, i)} () Bool)" for i in range(1, k + 1)
        )

    def literal(var_id: int, value: bool, step: int) -> str:
        name = _var_symbol(var_id, step)
        return name if value else f"(not {name})"

    assertions: list[str] = []
    for i in range(1, k + 1):
        for j, action in enumerate(actions):
            parts = [literal(v, val, i) for v, val in action.pre.items()]
            parts += [literal(v, val, i + 1) for v, val in action.eff.items()]
            parts += [
                f"(= {_var_symbol(v, i)} {_var_symbol(v, i + 1)})"
                for v in domain
                if v not in action.eff
            ]
            assertions.append(f"(=> {_action_symbol(j, i)} {_and_term(parts)})")
    for i in range(1, k + 1):
        assertions.append(_or_term([_action_symbol(j, i) for j in range(len(actions))]))
    for i in range(1, k + 2):
        for j in range(i + 1, k + 2):
            assertions.append(
                _or_term(
                    [
                        f"(xor {_var_symbol(v, i)} {_var_symbol(v, j)})"
                        for v in domain
                    ]
                )
            )
    return SmtDocument(
        logic="QF_UF",
        declarations=tuple(decls),
        assertions=tuple(assertions),
        encoding="factored",
        k=k,
        get_model=get_model,
    )


ENCODINGS = ("explicit", "factored")


def encode(
    system: System,
    k: int,
    encoding: str,
    max_vars: int = DEFAULT_VAR_CAP,
    table: StateTable | None = None,
) -> SmtDocument:
    """The query for k in ``encoding``; an explicit one builds on ``table``
    when given. The encoders are looked up as module globals at each call,
    so a wrapper set on them applies here too."""
    if encoding == "explicit":
        return encode_explicit(system, k, max_vars=max_vars, table=table)
    if encoding == "factored":
        return encode_factored(system, k)
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
    when requested and available, the Boolean model."""

    status: str
    elapsed_ms: float
    raw: str = ""
    model: dict[str, bool] | None = None


class SolverSession:
    """The bundled solver's state across the queries of one search: one
    ``minisolver.Grounder``, and the lines of each batch loaded into it, as
    one frozen set per batch. A query holds a batch when that set is a
    subset of its lines, so matching a query costs set operations over the
    lines, with their hashes cached when the search shares its line strings.

    The first query's lines are the base, ground with no guard. A later
    query loads, as one new batch, its declarations not loaded yet and its
    assertions that no batch it fully holds has loaded. A fresh selector
    guards that batch's top-level clauses, while Tseitin definitions stay
    shared. The CDCL solver then decides under assumptions that switch on
    the batches whose every line the query holds, and keeps the clauses,
    activities and phases it already has. So each query of a search adds
    only its new steps: the factored query's Boolean constants, or the
    explicit query's step constants, which the same batch confines to the n
    states. A bisection back down reads again the lines it holds of a batch
    it does not fully hold, and grounds them again under its own selector.
    A sat answer fixes the batches it switched on at level 0, so they join
    the base: the search never asks below its largest sat k, and so never
    without them.

    A query starts fresh, its lines the new base, when it lacks a base line,
    when it declares a constant confined in a later batch without the lines
    that confine it there, when a line it adds uses a symbol that only a
    declaration it lacks declares, and after a timeout or error. An
    extension the grounder cannot take, such as an unconfined new sort
    constant, is answered fresh as well.
    """

    def __init__(self) -> None:
        self._grounder: minisolver.Grounder | None = None  # None until a query is decided
        self._batches: list[frozenset[str]] = []  # the lines of each batch, 0 the base
        self._declarations: set[str] = set()  # every loaded declaration line
        self._fixed: set[int] = set()  # batches on at level 0: the base and every sat answer's
        # declaration of a sort constant of a later batch -> the lines confining it
        self._confining: dict[str, set[str]] = {}

    def check(self, doc: SmtDocument, deadline: float) -> tuple[str, list[str], str]:
        """``minisolver.check_text`` on ``doc``: (status, model lines, reason)."""
        grounder, self._grounder = self._grounder, None  # until doc is decided
        extension = self._extension(doc) if grounder is not None else None
        if extension is not None:
            text, on, decls, asserts = extension
            start = len(grounder.script.assertions)
            selectors = [b - 1 for b in sorted(on - self._fixed)]
            status, lines, reason = minisolver.check_text(text, deadline, grounder, selectors)
            if status == "unknown":
                extension = None
            else:
                on.add(len(self._batches))
                self._load(decls, asserts)
                self._note_confined(grounder, decls, asserts, start)
                if lines:  # the model of doc's constants only
                    names = {minisolver.parse_sexprs(d)[0][1] for d in doc.declarations}
                    lines = [line for line in lines if line.split()[1] in names]
        if extension is None:
            grounder = minisolver.Grounder(minisolver.Script())
            status, lines, reason = minisolver.check_text(doc.rendering, deadline, grounder)
            self._batches, self._declarations, self._confining = [], set(), {}
            self._load(doc.declarations, doc.assertions)
            on = self._fixed = {0}
        if status == "sat":
            grounder.fix([b - 1 for b in on - self._fixed])
            self._fixed |= on
        if status in ("sat", "unsat"):
            self._grounder = grounder
        return status, lines, reason

    def _extension(self, doc: SmtDocument) -> tuple[str, set[int], list[str], list[str]] | None:
        """The text that extends the grounder to ``doc``, the batches it
        switches on, and the new batch's declarations and assertions; None
        when ``doc`` must start fresh."""
        lines = {*doc.declarations, *doc.assertions}
        on = {b for b, batch in enumerate(self._batches) if batch <= lines}
        if not self._fixed <= on:
            return None
        if any(decl in lines and not need <= lines for decl, need in self._confining.items()):
            return None
        decls = [d for d in doc.declarations if d not in self._declarations]
        fresh = lines.difference(*(self._batches[b] for b in on))
        asserts = [a for a in doc.assertions if a in fresh]
        # The grounder reads a new line against all it has declared: a symbol
        # that doc does not declare must not resolve there.
        lacked = self._declarations - lines
        if lacked and asserts:
            hidden = {minisolver.parse_sexprs(d)[0][1] for d in lacked}
            if not hidden.isdisjoint(minisolver.symbols(" ".join(asserts))):
                return None
        return _script_text(decls, asserts, doc.get_model), on, decls, asserts

    def _load(self, decls, asserts) -> None:
        """Record ``decls`` and ``asserts`` as the next batch."""
        self._batches.append(frozenset((*decls, *asserts)))
        self._declarations.update(decls)

    def _note_confined(
        self, grounder: minisolver.Grounder, decls: list[str], asserts: list[str], start: int
    ) -> None:
        """Record the lines that confine each sort constant the new batch
        declared; ``start`` is where its assertions begin in the script."""
        new = {c: pos for c, pos in grounder.confined_by.items() if pos[0] >= start}
        if new:
            for decl in decls:
                pos = new.get(minisolver.parse_sexprs(decl)[0][1])
                if pos is not None:
                    self._confining[decl] = {asserts[p - start] for p in pos}


def run_solver(
    doc: SmtDocument, cfg: SolverConfig, session: SolverSession | None = None
) -> SolverVerdict:
    """Run one query and classify the response. The bundled solver answers
    through ``session`` (a fresh one when None); any other solver ignores it."""
    if cfg.in_process:
        answer, elapsed_ms = timed_ms(_solve_in_process, doc, cfg.timeout_ms, session or SolverSession())
    else:
        answer, elapsed_ms = timed_ms(_solve_in_child, doc, cfg)
    status, raw, model = answer
    return SolverVerdict(status, elapsed_ms, raw=raw, model=model)


def _solve_in_process(
    doc: SmtDocument, timeout_ms: int, session: SolverSession
) -> tuple[str, str, dict | None]:
    """The bundled solver in the calling thread. Its outcomes map as a
    process's would: a passed deadline is a timeout, an unsupported or
    malformed script ``unknown``, any other exception a solver error."""
    deadline = time.monotonic() + timeout_ms / 1000.0
    try:
        status, lines, reason = session.check(doc, deadline)
    except minisolver.SolverTimeout:
        return "timeout", "", None
    except Exception as exc:  # a crash, as a solver process might have had
        return "solver-error", repr(exc), None
    model = minisolver.bool_model("\n".join(lines)) if status == "sat" and doc.get_model else None
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
    system: System,
    encoding: str = "factored",
    cfg: SolverConfig | None = None,
    schedule: str = "linear",
    max_vars: int = DEFAULT_VAR_CAP,
) -> RdResult:
    """Compute the longest-simple-path length by repeated solver queries.

    Satisfiability is monotone in k, so the search keeps a bracket: ``low``
    is the largest k known sat, ``high`` the smallest k known unsat, and it
    asks until they are adjacent. The schedule only picks the next k: the
    linear one asks low + 1; the binary one doubles low (capped at exp + 1)
    until an unsat k is found, then bisects.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}")
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    if cfg is None:
        cfg = SolverConfig.from_env()
    queries: list[tuple[int, SolverVerdict]] = []
    exp = exp_bound(system)  # no simple path can be longer
    session = SolverSession()
    # Every explicit query of the search shares one graph and its table lines.
    table = state_table(system, max_vars) if encoding == "explicit" else None

    def query(k: int) -> str:
        verdict = run_solver(encode(system, k, encoding, max_vars, table), cfg, session)
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
