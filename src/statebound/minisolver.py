"""Self-contained SMT-LIB 2 solver for the quantifier-free fragment this
package emits: Boolean constants, and uninterpreted sorts whose terms are
all constants, compared by ``=`` and ``distinct``. A function symbol with
arguments is outside it.

A ``Grounder`` turns a ``Script``'s assertions into CNF batch by batch, into
one CDCL solver. The first batch is the base; the top-level clauses of each
later batch are guarded by a selector variable of their own, so a solve
decides the base and whichever later batches it switches on, as
assumptions. The solver keeps the clauses, activities and phases it already
has, and since assumptions are only decisions, every learned clause stays
valid. ``smt`` keeps one grounder per ``rd`` search, and fills its script
with the s-expression trees each step adds, declarations through
``Script.declare`` and assertions through ``Script.parse_term``, the two
readers of a text's commands, so no query of a search is read as text.
``check_text`` reads a script's whole text into a fresh grounder instead,
through the same ``Script.read`` of commands. The solver also runs as a
separate process (``statebound-solve`` or ``python -m statebound.minisolver``),
which reads a script from a file argument or stdin and prints
``sat``/``unsat``/``unknown`` followed by a model when the script asks for
one. It exists so the solver-driving pipeline works out of the box; any real
SMT-LIB 2 solver (Yices, Z3, cvc5, ...) can be configured instead.

A script is read by one regex scan of the whole text, after which the
s-expression trees are built. A deadline is a ``time.monotonic()`` value
checked by the clock, not by a watchdog: as each top-level command's tree
closes, after each assertion while grounding, and every 64 conflicts while
solving. Past it, ``SolverTimeout`` is raised, so a solve overshoots its
deadline by at most the work between two checks; the first check comes only
after the scan.

Uninterpreted sorts are decided by finite-domain grounding: a quantifier-free
formula whose sort-valued terms are all constants is satisfiable iff it is
satisfiable over a universe no larger than the number of those constants, so
each constant gets a one-hot value encoding. Every batch is set up by one
loader. In the base, the first top-level ``(distinct c1 ... cn)`` of each
sort pins c1 ... cn to the values 0 ... n-1 (sound up to renaming the
universe); a later batch pins nothing. Any other ``distinct`` is ground as
its pairwise disequalities. In every batch, a top-level ``or`` of equalities
between a sort constant the batch declares and pinned constants confines
that constant to their values; several such disjunctions intersect, and the
constant gets value literals for the values left only. A later batch must so
confine each sort constant it declares. Every equality between constants is
then ground one way: by clauses that tie it, under a guard of one side's
value literal, to the other side's value literal for that value. An atom
asserted at the top level has no variable of its own: its clauses are
guarded by the batch's selector instead, or by nothing in the base. Nor
does an equality with a pinned side anywhere: it is the other side's value
literal, or a constant. So the explicit encoding's successor clause
``(or (not (= y_i a)) (= y_{i+1} b) ...)`` is one clause of value literals
and the selector. Nor does a top-level ``or`` that holds one conjunction
(the factored encoding's ``(=> a (and ...))``): it becomes one clause per
conjunct. An ``and`` needed only positively writes an ``or`` child as one
clause, so an ``xor`` needs one variable, not three. The Boolean core is a
CDCL SAT solver with watched literals, first-UIP learning, VSIDS scoring and
Luby restarts.
"""

from __future__ import annotations

import re
import sys
import time
from heapq import heapify, heappop, heappush
from itertools import islice

# The clock deadlines are read against.
_clock = time.monotonic


class SmtUnsupportedError(Exception):
    """Script uses syntax outside the supported fragment."""


class SmtFormatError(Exception):
    """Script is malformed."""


class SolverTimeout(Exception):
    """The deadline passed before the script was decided."""


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and _clock() > deadline:
        raise SolverTimeout("deadline passed")


# ---------------------------------------------------------------------------
# S-expression reader


# One match per token or comment: a parenthesis, a symbol, a comment, a quoted
# symbol, a string (where "" is an escaped quote), or a lone '|' or '"' with no
# closing one. Whitespace is only space, tab, CR and LF. Every other character
# starts a match, so the scan skips whitespace and nothing else.
_TOKEN = re.compile(r'[()]|[^ \t\r\n();|"]+|;[^\n]*|\|[^|]*\||"[^"]*(?:""[^"]*)*"|[|"]')


def parse_sexprs(text: str, deadline: float | None = None) -> list:
    """The top-level s-expressions of ``text`` as nested lists of strings. A
    quoted symbol reads as its inner text, always as one symbol, so ``|(|``
    opens no list; a string keeps its quotes and escapes. The text is
    scanned once, then the trees are built, with the deadline checked as
    each top-level command closes."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok[0] in ';|"':
            if tok[0] == ";":
                continue
            if len(tok) == 1:
                raise SmtFormatError("unterminated quoted symbol" if tok == "|" else "unterminated string")
            stack[-1].append(tok[1:-1] if tok[0] == "|" else tok)
        elif tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise SmtFormatError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
            if len(stack) == 1:
                _check_deadline(deadline)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise SmtFormatError("unbalanced '('")
    return stack[0]


# ---------------------------------------------------------------------------
# CDCL SAT core

_UNSET = -1


class CdclSolver:
    """CDCL over integer literals (var << 1 | negated): two watched literals,
    first-UIP learning with recursive minimization, VSIDS, Luby restarts and
    length-based learned-clause deletion at restarts.

    A clause is a list of literals, its watched two first. The watch lists
    and ``reason`` hold the clause lists themselves (``reason`` is None for
    a decision or a level-0 unit). A deleted learned clause is emptied, and
    ``propagate`` drops it from a watch list when it meets it there.

    The VSIDS order is a lazy heap of (-activity, var) entries. ``queued[var]``
    says the heap holds an entry at var's current activity; ``cancel_until``
    pushes a variable it unassigns only when that flag is clear, so every
    unassigned variable has exactly one current entry, and it outranks any
    entry left stale by a bump. Popped entries of assigned variables are
    dropped, and the heap is rebuilt from the unassigned variables once it
    holds twice as many entries as there are variables."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []  # every clause stored, learned ones too
        self.learned: list[list[int]] = []
        self.watches: list[list[list[int]]] = [[], []]  # index 0/1 unused (var 0)
        self.value: list[int] = [0]  # per var: -1 unset else 0/1; index 0 unused
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self.phase: list[int] = [0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.heap: list[tuple[float, int]] = []
        self.queued = bytearray(1)
        self.ok = True

    def new_var(self) -> int:
        self.num_vars += 1
        self.value.append(_UNSET)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(0)
        self.watches.append([])
        self.watches.append([])
        self.queued.append(1)
        heappush(self.heap, (0.0, self.num_vars))
        return self.num_vars

    def lit_value(self, lit: int) -> int:
        v = self.value[lit >> 1]
        if v == _UNSET:
            return _UNSET
        return v ^ (lit & 1)

    def add_clause(self, lits: list[int]) -> None:
        """Add a problem clause. After a solve() it backtracks to level 0
        first, so learned clauses, activities and saved phases carry over to
        the next solve()."""
        if not self.ok:
            return
        if self.trail_lim:
            self.cancel_until(0)
        out: list[int] = []
        value = self.value
        for lit in lits:
            val = value[lit >> 1]
            if val != _UNSET:
                if val == 1 - (lit & 1):
                    return  # satisfied at level 0
                continue  # permanently false literal
            if lit in out:
                continue
            if lit ^ 1 in out:
                return  # tautology
            out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if not self.enqueue(out[0], None):
                self.ok = False
            elif self.propagate() is not None:
                self.ok = False
            return
        self._attach(out)

    def _attach(self, lits: list[int]) -> None:
        """Store a clause of two or more literals and watch its first two."""
        self.clauses.append(lits)
        self.watches[lits[0]].append(lits)
        self.watches[lits[1]].append(lits)

    def enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self.lit_value(lit)
        if val != _UNSET:
            return val == 1
        var = lit >> 1
        self.value[var] = 1 - (lit & 1)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def propagate(self) -> list[int] | None:
        """Propagate the trail from ``qhead``; the clause found false, or None."""
        watches = self.watches
        value = self.value
        level = self.level
        reason = self.reason
        trail = self.trail
        qhead = self.qhead
        current = len(self.trail_lim)
        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[falsified]
            i = 0
            while i < len(watchers):
                clause = watchers[i]
                if not clause:  # deleted
                    watchers[i] = watchers[-1]
                    watchers.pop()
                    continue
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                first = clause[0]
                fv = value[first >> 1]
                if fv == 1 - (first & 1):
                    i += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    if value[lk >> 1] != lk & 1:  # unset or true
                        clause[1] = lk
                        clause[k] = falsified
                        watches[lk].append(clause)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        moved = True
                        break
                if moved:
                    continue
                if fv != _UNSET:
                    self.qhead = qhead
                    return clause  # all literals false
                var = first >> 1
                value[var] = 1 - (first & 1)
                level[var] = current
                reason[var] = clause
                trail.append(first)
                i += 1
        self.qhead = qhead
        return None

    def bump(self, var: int) -> None:
        """Raise var's activity. Only assigned variables are bumped (they
        sit in a conflict or reason clause), so the new entry is pushed when
        ``cancel_until`` unassigns var."""
        act = self.activity[var] + self.var_inc
        self.activity[var] = act
        self.queued[var] = 0
        if act > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One entry per unassigned variable, at its current activity."""
        value, activity = self.value, self.activity
        self.heap = [(-activity[v], v) for v in range(1, self.num_vars + 1) if value[v] == _UNSET]
        heapify(self.heap)
        self.queued = bytearray(1 + self.num_vars)
        for _, v in self.heap:
            self.queued[v] = 1

    def analyze(self, confl: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = []
        seen = self._seen
        path_count = 0
        p = None
        index = len(self.trail)
        current = len(self.trail_lim)
        while True:
            for q in confl if p is None else confl[1:]:
                var = q >> 1
                if not seen[var] and self.level[var] > 0:
                    seen[var] = 1
                    self.bump(var)
                    if self.level[var] >= current:
                        path_count += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                if seen[self.trail[index] >> 1]:
                    break
            p = self.trail[index]
            confl = self.reason[p >> 1]
            seen[p >> 1] = 0
            path_count -= 1
            if path_count <= 0:
                break
        extra_marks: list[int] = []
        minimized = [q for q in learnt if not self._redundant(q, extra_marks)]
        for q in learnt:
            seen[q >> 1] = 0
        for var in extra_marks:
            seen[var] = 0
        learnt = [p ^ 1] + minimized
        if len(learnt) == 1:
            return learnt, 0
        best = 1
        for k in range(2, len(learnt)):
            if self.level[learnt[k] >> 1] > self.level[learnt[best] >> 1]:
                best = k
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self.level[learnt[1] >> 1]

    def _redundant(self, lit: int, extra_marks: list[int]) -> bool:
        """True when the reason graph shows ``lit`` is implied by the other
        learnt literals (standard recursive clause minimization). Marks made
        on success stay in ``_seen`` and are handed back for cleanup."""
        if self.reason[lit >> 1] is None:
            return False
        seen = self._seen
        stack = [lit]
        added: list[int] = []
        while stack:
            top = stack.pop()
            for q in self.reason[top >> 1][1:]:
                var = q >> 1
                if seen[var] or self.level[var] == 0:
                    continue
                if self.reason[var] is None:
                    for v in added:
                        seen[v] = 0
                    return False
                seen[var] = 1
                added.append(var)
                stack.append(q)
        extra_marks.extend(added)
        return True

    def cancel_until(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        limit = self.trail_lim[target]
        queued = self.queued
        for lit in reversed(self.trail[limit:]):
            var = lit >> 1
            self.phase[var] = self.value[var]
            self.value[var] = _UNSET
            self.reason[var] = None
            if not queued[var]:
                queued[var] = 1
                heappush(self.heap, (-self.activity[var], var))
        if len(self.heap) > 2 * self.num_vars:
            self._rebuild_heap()  # mostly stale entries by now
        del self.trail[limit:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    def pick_branch(self) -> int:
        while self.heap:
            _, var = heappop(self.heap)
            self.queued[var] = 0
            if self.value[var] == _UNSET:
                return var << 1 | (1 - self.phase[var])
        for var in range(1, self.num_vars + 1):
            if self.value[var] == _UNSET:
                return var << 1 | (1 - self.phase[var])
        return 0

    def _reduce_learned(self) -> None:
        """Drop the longer half of non-binary, non-reason learned clauses,
        each by emptying it."""

        def locked(clause: list[int]) -> bool:
            head = clause[0] >> 1
            return self.value[head] != _UNSET and self.reason[head] is clause

        candidates = [c for c in self.learned if len(c) > 2 and not locked(c)]
        candidates.sort(key=len)
        for clause in candidates[len(candidates) // 2 :]:
            clause.clear()
        self.learned = [c for c in self.learned if c]

    def solve(self, deadline: float | None = None, *assumptions: int) -> bool:
        """Decide the clauses with every literal of ``assumptions`` true;
        raises SolverTimeout once ``deadline`` has passed, checked every 64
        conflicts. The assumptions are taken MiniSat style, as the first
        decisions, one level each, so every learned clause follows from the
        clauses alone and stays valid for later solves. An assumption found
        false when its turn comes answers unsat and leaves ``ok`` set; only
        a conflict at level 0 makes the clauses themselves unsat."""
        if not self.ok:
            return False
        self.cancel_until(0)
        if self.propagate() is not None:
            self.ok = False
            return False
        self._seen = bytearray(self.num_vars + 1)
        restarts = 0
        conflicts_until_restart = self._luby(restarts) * 128
        conflicts = 0
        max_learned = max(4000, len(self.clauses) // 2)
        while True:
            confl = self.propagate()
            if confl is not None:
                if not self.trail_lim:
                    self.ok = False
                    return False
                conflicts += 1  # restarts come at multiples of 128 conflicts
                if not conflicts & 63:
                    _check_deadline(deadline)
                learnt, back_level = self.analyze(confl)
                self.cancel_until(back_level)
                if len(learnt) == 1:
                    self.enqueue(learnt[0], None)
                else:
                    self._attach(learnt)
                    self.learned.append(learnt)
                    self.enqueue(learnt[0], learnt)
                self.var_inc *= 1.052
                if conflicts >= conflicts_until_restart:
                    conflicts = 0
                    restarts += 1
                    conflicts_until_restart = self._luby(restarts) * 128
                    self.cancel_until(0)
                    if len(self.learned) > max_learned:
                        self._reduce_learned()
                        max_learned = int(max_learned * 1.3)
            else:
                level = len(self.trail_lim)
                if level < len(assumptions):
                    lit = assumptions[level]
                    if self.lit_value(lit) == 0:
                        return False
                else:
                    lit = self.pick_branch()
                    if lit == 0:
                        return True
                self.trail_lim.append(len(self.trail))
                self.enqueue(lit, None)  # a no-op for an assumption already true

    @staticmethod
    def _luby(i: int) -> int:
        size, seq = 1, 0
        while size < i + 1:
            seq += 1
            size = 2 * size + 1
        while size - 1 != i:
            size = (size - 1) >> 1
            seq -= 1
            i %= size
        return 1 << seq


# ---------------------------------------------------------------------------
# Script interpretation and grounding

_TRUE = ("true",)
_FALSE = ("false",)


def _flatten(kind: str, node: tuple, out: list[tuple]) -> list[tuple]:
    """``out`` extended by the operands of ``node``'s nested ``kind``
    (``and`` or ``or``) nodes; a node of another kind is its own operand."""
    if node[0] == kind:
        for child in node[1]:
            _flatten(kind, child, out)
    else:
        out.append(node)
    return out


def _conjunction(pairs: list[tuple]) -> tuple:
    """The pairwise terms of a chained ``=`` or a ``distinct``, as one term."""
    if not pairs:
        return _TRUE
    return pairs[0] if len(pairs) == 1 else ("and", tuple(pairs))


def _pairwise(names: tuple[str, ...]) -> tuple:
    """The disequalities of a ``distinct`` term's distinct names, as one term."""
    return _conjunction(
        [("not", ("eeq", min(a, b), max(a, b))) for i, a in enumerate(names) for b in names[i + 1 :]]
    )


class Script:
    """Declarations and assertions of one SMT-LIB script."""

    def __init__(self) -> None:
        self.bool_consts: dict[str, None] = {}  # in declaration order
        self.sorts: dict[str, list[str]] = {}
        self.const_sort: dict[str, str] = {}
        self.assertions: list[tuple] = []

    # -- command reading -------------------------------------------------------

    def read(self, text: str, deadline: float | None = None) -> bool:
        """Read a script's declarations and assertions into this one, and
        return whether it asks for a model. The text holds one
        ``(check-sat)``, after its assertions; ``push`` and ``pop`` are
        unsupported."""
        has_check = wants_model = False
        for command in parse_sexprs(text, deadline):
            _check_deadline(deadline)
            if not isinstance(command, list) or not command:
                raise SmtFormatError("top-level items must be command lists")
            head = command[0]
            if head in ("set-logic", "set-option", "set-info"):
                continue
            if head == "exit":
                break
            if head in ("assert", "check-sat") and has_check:
                # One (check-sat) decides every assertion of the script.
                raise SmtUnsupportedError(f"{head!r} after (check-sat)")
            elif head == "assert":
                if len(command) != 2:
                    raise SmtFormatError("'assert' takes one term")
                self.assertions.append(self.parse_term(command[1]))
            elif head == "check-sat":
                has_check = True
            elif head == "get-model":
                wants_model = True
            else:
                self.declare(command)
        if not has_check:
            raise SmtFormatError("script has no (check-sat)")
        return wants_model

    def declare(self, command: list | tuple) -> None:
        """Read one ``declare-sort``, ``declare-fun`` or ``declare-const``
        command, as ``parse_sexprs`` gives it; a parenthesised list may also
        be a tuple. Any other command is unsupported."""
        head = command[0]
        if head == "declare-sort":
            if len(command) == 2:
                command = [*command, "0"]  # the arity may be left out
            self.declare_sort(*_arguments(command, str, str))
        elif head == "declare-fun":
            self.declare_fun(*_arguments(command, str, (list, tuple), str))
        elif head == "declare-const":
            name, sort = _arguments(command, str, str)
            self.declare_fun(name, [], sort)
        else:
            raise SmtUnsupportedError(f"unsupported command {head!r}")

    def declare_sort(self, name: str, arity: str) -> None:
        if arity != "0":
            raise SmtUnsupportedError("only 0-ary sorts are supported")
        if name in self.sorts:
            raise SmtFormatError(f"redeclaration of sort {name}")
        self.sorts[name] = []

    def declare_fun(self, name: str, args: list, ret: str) -> None:
        if name in self.const_sort or name in self.bool_consts:
            raise SmtFormatError(f"redeclaration of {name}")
        if args:
            raise SmtUnsupportedError("function symbols with arguments are not supported")
        if ret == "Bool":
            self.bool_consts[name] = None
        elif ret in self.sorts:
            self.sorts[ret].append(name)
            self.const_sort[name] = ret
        else:
            raise SmtUnsupportedError(f"unsupported constant sort {ret}")

    # -- term parsing ---------------------------------------------------------

    def parse_term(self, sx) -> tuple:
        """Parse a term, as ``parse_sexprs`` gives it or with tuples for its
        lists, into ('true'|'false'), ('bvar',n), ('not',t), ('and'|'or',ts),
        ('eeq',a,b) or ('distinct',names); => / xor / = desugared. A
        ``distinct`` over sort constants of one sort stays one term, however
        many names it holds: a repeated name makes it false, and fewer than
        two names true."""
        if isinstance(sx, str):
            if sx == "true":
                return _TRUE
            if sx == "false":
                return _FALSE
            if sx in self.const_sort:
                raise SmtUnsupportedError(f"sort-valued term {sx} in Boolean position")
            if sx in self.bool_consts:
                return ("bvar", sx)
            raise SmtFormatError(f"unknown symbol {sx}")
        if not sx:
            raise SmtFormatError("empty term")
        head = sx[0]
        args = sx[1:]
        if head == "not":
            if len(args) != 1:
                raise SmtFormatError("'not' takes one argument")
            return ("not", self.parse_term(args[0]))
        if head == "and":
            return ("and", tuple(self.parse_term(a) for a in args)) if args else _TRUE
        if head == "or":
            return ("or", tuple(self.parse_term(a) for a in args)) if args else _FALSE
        if head == "=>":
            if len(args) < 2:
                raise SmtFormatError("'=>' takes at least two arguments")
            out = self.parse_term(args[-1])
            for a in reversed(args[:-1]):
                out = ("or", (("not", self.parse_term(a)), out))
            return out
        if head == "xor":
            if len(args) < 2:
                raise SmtFormatError("'xor' takes at least two arguments")
            out = self.parse_term(args[0])
            for a in args[1:]:
                rhs = self.parse_term(a)
                out = (
                    "and",
                    (("or", (out, rhs)), ("or", (("not", out), ("not", rhs)))),
                )
            return out
        if head == "=":
            if len(args) < 2:
                raise SmtFormatError("'=' takes at least two arguments")
            if all(isinstance(a, str) and a in self.const_sort for a in args):
                return _conjunction([self._elem_eq(a, b) for a, b in zip(args, args[1:])])
            parts = [self.parse_term(a) for a in args]
            return _conjunction(
                [
                    ("and", (("or", (("not", a), b)), ("or", (a, ("not", b)))))
                    for a, b in zip(parts, parts[1:])
                ]
            )
        if head == "distinct":
            if not all(isinstance(a, str) and a in self.const_sort for a in args):
                raise SmtUnsupportedError("'distinct' is only supported on sort constants")
            for a in args[1:]:
                self._same_sort(args[0], a)
            if len(set(args)) < len(args):
                return _FALSE
            return ("distinct", tuple(args)) if len(args) >= 2 else _TRUE
        raise SmtUnsupportedError(f"unsupported operator {head!r}")

    def _same_sort(self, a: str, b: str) -> None:
        if self.const_sort[a] != self.const_sort[b]:
            raise SmtFormatError(f"'=' on constants of different sorts: {a}, {b}")

    def _elem_eq(self, a: str, b: str) -> tuple:
        self._same_sort(a, b)
        if a == b:
            return _TRUE
        return ("eeq", min(a, b), max(a, b))


class Grounder:
    """Compile a Script to CNF and decide it. The script may grow between
    solves: ``ground`` grounds only the assertions added since its last call,
    as one batch, into the same CDCL solver. The first batch is the base;
    each later one gets a selector variable that guards its top-level
    clauses, and ``solve`` switches on the batches it is given. Every batch,
    the base included, is set up by ``_load``."""

    def __init__(self, script: Script) -> None:
        self.script = script
        self.sat = CdclSolver()
        self.grounded = 0  # assertions of the script ground so far
        self.sort_consts: int | None = None  # sort constants ground so far
        self.selectors: list[int] = []  # per later batch, its selector variable
        self.guard: tuple[int, ...] = ()  # the batch being ground: (not selector,)
        self.bool_var: dict[str, int] = {}  # the script's Boolean constants
        self.true_var: int | None = None  # true at level 0, for true and false
        self.fixed: dict[str, int] = {}  # constant -> pinned universe value
        self.values: dict[str, tuple[int, ...]] = {}  # unpinned constant -> its values
        self.value_var: dict[tuple[str, int], int] = {}
        self.sort_size: dict[str, int] = {}
        # memo: node -> [var, pos_done, neg_done]
        self.memo: dict[tuple, list] = {}

    # -- setup ----------------------------------------------------------------

    def _load(self) -> list[tuple]:
        """Set up the assertions added since the last check as a batch, and
        return its top-level conjuncts left to assert. Only the base fixes
        the sort sizes and pins constants: the first top-level ``distinct``
        of each sort pins its constants to the values 0 ... n-1 in order,
        and is dropped, as the pinning implies it. A later batch gets its
        selector instead. In every batch, an ``or`` of equalities between a
        sort constant the batch declares and pinned constants confines that
        constant to their values, and is taken as its value encoding. A
        later batch must so confine each sort constant it declares, which
        keeps the universe as the base fixed it."""
        start, self.grounded = self.grounded, len(self.script.assertions)
        conjuncts = [c for node in self.script.assertions[start:] for c in _flatten("and", node, [])]
        # the sort constants this batch declares, in declaration order
        new = dict.fromkeys(islice(self.script.const_sort, self.sort_consts or 0, None))
        if self.sort_consts is None:
            # Pinning is sound up to renaming the universe.
            pinned_sorts: set[str] = set()
            kept = []
            for node in conjuncts:
                if node[0] == "distinct" and (sort := self.script.const_sort[node[1][0]]) not in pinned_sorts:
                    pinned_sorts.add(sort)
                    self.fixed.update((c, v) for v, c in enumerate(node[1]))
                else:
                    kept.append(node)
            conjuncts = kept
            for sort, consts in self.script.sorts.items():
                self.sort_size[sort] = max(1, len(consts))
                every = tuple(range(self.sort_size[sort]))
                self.values.update((c, every) for c in consts if c not in self.fixed)
        else:
            self.selectors.append(self.sat.new_var())
            self.guard = ((self.selectors[-1] << 1) ^ 1,)
        self.sort_consts = len(self.script.const_sort)

        remaining: list[tuple] = []
        for node in conjuncts:
            confined = self._confinement(node)
            if confined is None or confined[0] not in new:
                remaining.append(node)
                continue
            # The exactly-one encoding over these values implies node.
            const, allowed = confined
            values = self.values.get(const, sorted(allowed))
            self.values[const] = tuple(v for v in values if v in allowed)
        for const in new:
            if const not in self.values and const not in self.fixed:
                raise SmtUnsupportedError(
                    f"sort constant {const} declared after the first check is not confined"
                )
        self._encode_free_constants([c for c in self.values if c in new])
        return remaining

    def _confinement(self, node: tuple) -> tuple[str, set[int]] | None:
        """(c, values) when ``node`` is an ``or`` of equalities between one
        unpinned constant c and pinned constants, which confines c to their
        values; None for any other node."""
        if node[0] != "or":
            return None
        free, allowed = None, set()
        for child in node[1]:
            if child[0] != "eeq":
                return None
            _, a, b = child
            if a in self.fixed:
                a, b = b, a
            if a in self.fixed or b not in self.fixed or free not in (None, a):
                return None
            free = a
            allowed.add(self.fixed[b])
        return free, allowed

    # -- variable helpers -------------------------------------------------------

    def _bool_var(self, name: str) -> int:
        var = self.bool_var.get(name)
        if var is None:
            var = self.sat.new_var()
            self.bool_var[name] = var
        return var

    def _value_literal(self, const: str, value: int) -> int | bool:
        """Literal for "const takes universe value ``value``", or False when
        ``value`` is not one of const's values. Pinned constants are handled
        by the callers and never reach here."""
        assert const not in self.fixed
        var = self.value_var.get((const, value))
        return False if var is None else var << 1

    def _encode_free_constants(self, consts) -> None:
        """A value literal per value of each given unpinned constant, and
        exactly-one of them (sequential at-most-one). The at-least-one
        clause is the only one the batch's guard applies to: with the batch
        off, the constant may take no value."""
        for const in consts:
            lits = []
            for v in self.values[const]:
                var = self.sat.new_var()
                self.value_var[(const, v)] = var
                lits.append(var << 1)
            self.sat.add_clause([*lits, *self.guard])
            size = len(lits)
            if size <= 1:
                continue
            chain = [self.sat.new_var() for _ in range(size - 1)]
            self.sat.add_clause([lits[0] ^ 1, chain[0] << 1])
            for i in range(1, size - 1):
                self.sat.add_clause([(chain[i - 1] << 1) ^ 1, chain[i] << 1])
                self.sat.add_clause([lits[i] ^ 1, (chain[i - 1] << 1) ^ 1])
                self.sat.add_clause([lits[i] ^ 1, chain[i] << 1])
            self.sat.add_clause([lits[size - 1] ^ 1, (chain[size - 2] << 1) ^ 1])

    # -- atom grounding ----------------------------------------------------------
    #
    # An atom is an equality of two sort constants. Each of its clauses ties
    # it to one entry (a value literal or a known truth value) in the
    # polarity being ground, and ``_emit`` writes them all: with a pinned
    # side, the other side's value literal, unguarded; with neither side
    # pinned, per value v of the first side, the second side's literal for
    # v, guarded by the negated literal of the first side's. Each clause
    # starts with a head: the negated literal of the atom's Tseitin
    # variable, or that literal itself in negative polarity; for an atom
    # asserted at the top level, the batch's guard, since its selector
    # serves as the atom's literal. ``_encode_free_constants`` creates a
    # batch's value literals before its first atom, so no variable is made
    # here. Only a top-level atom's clauses are guarded: the others only
    # define a Tseitin literal, which a batch that is off leaves free. A
    # ``distinct`` that pins nothing is its pairwise disequalities.

    def _emit(
        self, head: tuple[int, ...], guard: tuple[int, ...], entry: int | bool, positive: bool
    ) -> None:
        """The clause for one entry: ``head`` or ``guard`` or the entry in
        the polarity being ground, where ``entry`` is a literal or a
        known truth value."""
        if not isinstance(entry, bool):
            self.sat.add_clause([*head, *guard, entry if positive else entry ^ 1])
        elif entry != positive:
            self.sat.add_clause([*head, *guard])

    def _pinned_entry(self, a: str, b: str) -> int | bool | None:
        """The entry of ``(= a b)`` when a side is pinned: a known truth
        value when both are, else the other side's value literal (False for
        a value it cannot take); None when neither side is pinned."""
        fa, fb = self.fixed.get(a), self.fixed.get(b)
        if fa is not None and fb is not None:
            return fa == fb
        if fa is not None:
            return self._value_literal(b, fa)
        return None if fb is None else self._value_literal(a, fb)

    def _ground_eeq(self, node: tuple, head: tuple[int, ...], positive: bool) -> None:
        _, a, b = node
        entry = self._pinned_entry(a, b)
        if entry is not None:
            self._emit(head, (), entry, positive)
            return
        # given a=v, the equality is b=v
        for v in self.values[a]:
            guard = (self._value_literal(a, v) ^ 1,)
            self._emit(head, guard, self._value_literal(b, v), positive)

    # -- Tseitin with polarity tracking -------------------------------------------
    #
    # A compound node gets a variable, defined only in the polarities it is
    # needed in (Plaisted and Greenbaum, 1986), and only where no plain
    # clause says the same. The top level asserts an atom by its guarded
    # clauses (see above), and an ``or`` that holds one conjunction as one
    # clause per conjunct; an ``and`` needed only positively writes each
    # ``or`` child's operands into that child's clause.

    def compile(self, node: tuple, need_pos: bool, need_neg: bool) -> int:
        """Return a literal equisatisfiable with ``node``; clauses are emitted
        only for the polarities in which the node can be relevant. An
        equality with a pinned side is its entry, with no variable of its
        own: the other side's value literal, or a constant literal."""
        kind = node[0]
        if kind == "true":
            return self._const_literal(True)
        if kind == "false":
            return self._const_literal(False)
        if kind == "bvar":
            return self._bool_var(node[1]) << 1
        if kind == "not":
            return self.compile(node[1], need_neg, need_pos) ^ 1
        if kind == "distinct":
            return self.compile(_pairwise(node[1]), need_pos, need_neg)
        if kind == "eeq":
            entry = self._pinned_entry(node[1], node[2])
            if entry is not None:
                return self._const_literal(entry) if isinstance(entry, bool) else entry

        state = self.memo.get(node)
        if state is None:
            state = [self.sat.new_var(), False, False]
            self.memo[node] = state
        var, pos_done, neg_done = state
        emit_pos = need_pos and not pos_done
        emit_neg = need_neg and not neg_done
        lit = var << 1
        if not emit_pos and not emit_neg:
            return lit
        state[1] = pos_done or need_pos
        state[2] = neg_done or need_neg

        if kind == "eeq":
            if emit_pos:
                self._ground_eeq(node, (lit ^ 1,), True)
            if emit_neg:
                self._ground_eeq(node, (lit,), False)
            return lit
        if kind == "and" and not need_neg:
            for child in node[1]:
                parts = child[1] if child[0] == "or" else (child,)
                self.sat.add_clause([lit ^ 1, *(self.compile(p, True, False) for p in parts)])
            return lit
        if kind in ("and", "or"):
            children = [
                self.compile(child, need_pos, need_neg) for child in node[1]
            ]
            if kind == "and":
                if emit_pos:
                    for child in children:
                        self.sat.add_clause([lit ^ 1, child])
                if emit_neg:
                    self.sat.add_clause([lit] + [c ^ 1 for c in children])
            else:
                if emit_pos:
                    self.sat.add_clause([lit ^ 1] + children)
                if emit_neg:
                    for child in children:
                        self.sat.add_clause([lit, child ^ 1])
            return lit
        raise SmtUnsupportedError(f"cannot compile node {kind!r}")

    def _const_literal(self, truth: bool) -> int:
        if self.true_var is None:
            self.true_var = self.sat.new_var()
            self.sat.add_clause([self.true_var << 1])
        return self.true_var << 1 if truth else (self.true_var << 1) ^ 1

    def assert_top(self, node: tuple) -> None:
        """Assert ``node`` under the batch's guard: a conjunction conjunct by
        conjunct, a ``distinct`` as its disequalities, an ``or`` that holds
        one conjunction as one clause per conjunct, an atom by its guarded
        clauses, and anything else as one clause of Tseitin literals."""
        kind = node[0]
        if kind == "distinct":
            self.assert_top(_pairwise(node[1]))
            return
        if kind == "and":
            for child in node[1]:
                self.assert_top(child)
            return
        if kind == "or":
            disjuncts = _flatten("or", node, [])
            conjunctions = [d for d in disjuncts if d[0] == "and"]
            if len(conjunctions) == 1:
                rest = tuple(d for d in disjuncts if d[0] != "and")
                for conjunct in conjunctions[0][1]:
                    self.assert_top(("or", (*rest, conjunct)) if rest else conjunct)
                return
            self.sat.add_clause([*(self.compile(d, True, False) for d in disjuncts), *self.guard])
            return
        atom, positive = (node[1], False) if kind == "not" else (node, True)
        if atom[0] == "eeq":
            self._ground_eeq(atom, self.guard, positive)
            return
        self.sat.add_clause([self.compile(node, True, False), *self.guard])

    # -- main entry -----------------------------------------------------------

    def ground(self, deadline: float | None = None) -> None:
        """Ground the assertions added since the last call as one batch, set
        up by ``_load``: the first is the base, each later one is guarded by
        the next selector. A sort constant that a later batch confines stays
        confined in every later batch. A call cut short by SolverTimeout
        leaves its batch half ground: use the grounder no further."""
        for node in self._load():
            if not self.sat.ok:
                break
            _check_deadline(deadline)
            self.assert_top(node)

    def solve(self, deadline: float | None = None, batches: list[int] | range = ()) -> str:
        """Decide the base and the later batches numbered in ``batches``
        (positions in ``selectors``), under their selectors as assumptions;
        a batch not listed is off. A sat answer's model stays readable
        until the grounder is next changed or solved."""
        if not self.sat.ok:
            return "unsat"
        on = (self.selectors[b] << 1 for b in batches)
        return "sat" if self.sat.solve(deadline, *on) else "unsat"

    def bool_values(self, names: list[str]) -> dict[str, bool]:
        """The model's value of each Boolean constant named; one that no
        clause mentions is false."""
        var, value = self.bool_var, self.sat.value
        return {name: name in var and value[var[name]] == 1 for name in names}

    def model_lines(self) -> list[str]:
        lines = [
            f"  (define-fun {_symbol(name)} () Bool {'true' if value else 'false'})"
            for name, value in self.bool_values(self.script.bool_consts).items()
        ]
        for sort, consts in self.script.sorts.items():
            by_value = {v: c for c, v in self.fixed.items() if self.script.const_sort[c] == sort}
            for const in consts:
                value = self.fixed.get(const)
                if value is None:
                    value = 0
                    for v in range(self.sort_size[sort]):
                        var = self.value_var.get((const, v))
                        if var is not None and self.sat.value[var] == 1:
                            value = v
                            break
                rep = _symbol(by_value.get(value, f"@{sort}!val!{value}"))
                lines.append(f"  (define-fun {_symbol(const)} () {_symbol(sort)} {rep})")
        return lines


# SMT-LIB's simple symbols: letters, digits and ~!@$%^&*_-+=<>.?/, not led by
# a digit. Any other name is printed as a quoted symbol.
_SIMPLE_SYMBOL = re.compile(r"[A-Za-z~!@$%^&*_\-+=<>.?/][0-9A-Za-z~!@$%^&*_\-+=<>.?/]*\Z")


def _symbol(name: str) -> str:
    """``name`` as a model prints it: bare if it is a simple symbol, else
    between bars."""
    return name if _SIMPLE_SYMBOL.match(name) else f"|{name}|"


def _arguments(command: list | tuple, *kinds) -> list | tuple:
    """A declaration's arguments, checked in number and kind (``str`` for a
    symbol, ``(list, tuple)`` for a parenthesised list)."""
    args = command[1:]
    if len(args) != len(kinds) or not all(map(isinstance, args, kinds)):
        raise SmtFormatError(f"malformed {command[0]!r} command")
    return args


def interpret(text: str, deadline: float | None = None) -> tuple[str, list[str]]:
    """Run a script in a fresh grounder; returns (status token, model
    lines). The script is read whole by ``Script.read``."""
    grounder = Grounder(Script())
    wants_model = grounder.script.read(text, deadline)
    grounder.ground(deadline)
    status = grounder.solve(deadline)
    return status, grounder.model_lines() if status == "sat" and wants_model else []


def check_text(text: str, deadline: float | None = None) -> tuple[str, list[str], str]:
    """The solver's answer to a script, as in ``interpret``: (status, model
    lines, reason). A script outside the supported fragment, or malformed,
    or with a term nested past the reader's recursion limit (an n-ary
    ``xor`` or ``=>`` nests as deep as it has operands), is ``unknown``
    with the reason; a passed deadline raises SolverTimeout."""
    try:
        status, lines = interpret(text, deadline)
    except (SmtUnsupportedError, SmtFormatError) as exc:
        return "unknown", [], str(exc)
    except RecursionError:
        return "unknown", [], "term nested too deeply"
    return status, lines, ""


_MODEL_BOOL_RE = re.compile(
    r"\(\s*define-fun\s+(\|[^|]*\||[^\s()|]+)\s*\(\s*\)\s*Bool\s+(true|false)\s*\)"
)


def bool_model(text: str) -> dict[str, bool]:
    """The Boolean-constant values in a printed model, this solver's or any
    other's; a ``define-fun`` may span several lines, and a quoted name is
    read without its bars."""
    return {name.strip("|"): value == "true" for name, value in _MODEL_BOOL_RE.findall(text)}


def solve_text(text: str) -> tuple[str, dict[str, bool]]:
    """Convenience wrapper: status plus Boolean-constant model values."""
    status, lines = interpret(text)
    return status, bool_model("\n".join(lines))


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    try:
        if args:
            with open(args[0], "r", encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = sys.stdin.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status, model, reason = check_text(text)
    print(status)
    if reason:
        print(f"; {reason}", file=sys.stderr)
    if model:
        print("(")
        for line in model:
            print(line)
        print(")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
