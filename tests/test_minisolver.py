"""The bundled SMT-LIB solver is load-bearing for the whole solver pipeline,
so it gets checked three ways: protocol basics, CDCL versus brute-force
enumeration on random CNFs, and finite-domain scripts versus brute-force
model enumeration over small universes."""

import itertools
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statebound import minisolver
from statebound.core import build_transition_graph
from statebound.gen import SplitMix64, gen_clique, gen_lotus
from statebound.minisolver import CdclSolver, solve_text
from statebound.smt import encode_explicit, encode_factored

from conftest import equivalence_family, make_random


# Symbols as this package writes them, plus form feed, vertical tab and
# no-break space, which are symbol characters too.
_SYMBOLS = st.text(alphabet="abyzGS019_-.=<>+*/!?@$%^&~:#\f\v\u00a0", min_size=1, max_size=6)
_TREES = st.recursive(_SYMBOLS, lambda inner: st.lists(inner, max_size=4), max_leaves=20)


def _render(tree) -> str:
    return tree if isinstance(tree, str) else "(" + " ".join(map(_render, tree)) + ")"


_WIDE = "".join(f"(declare-fun a{i} () Bool)" for i in range(2000))
_OPERANDS = " ".join(f"a{i}" for i in range(2000))


class TestProtocol:
    def test_empty_script_sat(self):
        assert solve_text("(set-logic QF_UF)(check-sat)")[0] == "sat"

    def test_assert_false(self):
        assert solve_text("(assert false)(check-sat)")[0] == "unsat"

    def test_unit_conflict(self):
        text = "(declare-fun p () Bool)(assert p)(assert (not p))(check-sat)"
        assert solve_text(text)[0] == "unsat"

    def test_model_extraction(self):
        status, model = solve_text(
            "(declare-fun a () Bool)(declare-fun b () Bool)"
            "(assert (and a (not b)))(check-sat)(get-model)"
        )
        assert status == "sat"
        assert model == {"a": True, "b": False}

    def test_desugaring(self):
        assert (
            solve_text(
                "(declare-fun a () Bool)(declare-fun b () Bool)"
                "(assert (xor a b))(assert (= a b))(check-sat)"
            )[0]
            == "unsat"
        )
        assert (
            solve_text(
                "(declare-fun a () Bool)(declare-fun b () Bool)"
                "(assert (=> a b))(assert a)(assert (not b))(check-sat)"
            )[0]
            == "unsat"
        )

    def test_unsupported_syntax_reports_unknown(self, capsys):
        rc = main_with_stdin("(declare-fun f (Bool) Bool)(check-sat)")
        assert rc == (0, "unknown")

    def test_comments_ignored(self):
        assert solve_text("; a comment\n(check-sat)\n")[0] == "sat"

    # Scripts this one-check solver would otherwise answer wrongly or crash
    # on: push and pop would be skipped, a later assertion or check-sat
    # merged into the one check over every assertion, and a term nested past
    # the recursion limit would raise.
    @pytest.mark.parametrize(
        "script,reason",
        [
            ("(declare-fun p () Bool)(push 1)(assert false)(pop 1)(check-sat)", "'push'"),
            ("(declare-fun p () Bool)(assert p)(pop 1)(check-sat)", "'pop'"),
            (
                "(declare-fun p () Bool)(assert p)(check-sat)(assert (not p))(check-sat)",
                "'assert' after (check-sat)",
            ),
            ("(check-sat)(check-sat)", "'check-sat' after (check-sat)"),
            ("(declare-sort S 0)(declare-sort S 0)(check-sat)", "redeclaration of sort S"),
            # An n-ary xor or => is read as n nested binary terms.
            (f"{_WIDE}(assert (xor {_OPERANDS}))(check-sat)", "term nested too deeply"),
            (f"{_WIDE}(assert (=> {_OPERANDS}))(check-sat)", "term nested too deeply"),
            (
                "(declare-fun a () Bool)(assert " + "(not " * 3000 + "a" + ")" * 3001 + "(check-sat)",
                "term nested too deeply",
            ),
        ],
        ids=[
            "push", "pop", "assert-after-check", "second-check", "repeated-sort",
            "wide-xor", "wide-implies", "deep-not",
        ],
    )
    def test_unsupported_sequences_are_unknown(self, script, reason):
        status, model, why = minisolver.check_text(script)
        assert (status, model) == ("unknown", []) and reason in why
        assert main_with_stdin(script) == (0, "unknown")

    def test_model_request_after_check_sat(self):
        text = "(declare-fun p () Bool)(assert p)(check-sat)(get-model)(exit)(assert false)"
        assert solve_text(text) == ("sat", {"p": True})

    @pytest.mark.parametrize("name", ["a b", "x(y"])
    def test_quoted_name_in_model(self, name):
        # A name that is not a simple symbol is printed between bars, and
        # bool_model reads it back without them.
        text = (
            f"(declare-fun |{name}| () Bool)(declare-fun b () Bool)"
            f"(assert (and |{name}| (not b)))(check-sat)(get-model)"
        )
        assert minisolver.interpret(text) == (
            "sat",
            [f"  (define-fun |{name}| () Bool true)", "  (define-fun b () Bool false)"],
        )
        assert solve_text(text) == ("sat", {name: True, "b": False})

    def test_quoted_sort_names_in_model(self):
        text = "(declare-sort |S t| 0)(declare-fun |c d| () |S t|)(check-sat)(get-model)"
        assert minisolver.interpret(text) == ("sat", ["  (define-fun |c d| () |S t| |@S t!val!0|)"])

    @pytest.mark.parametrize("get_model", ["", "(get-model)"])
    def test_script_may_name_the_constant_true(self, get_model):
        # The grounder's own variable for true and false is not a script's
        # Boolean constant, whatever the script calls one.
        text = f"(declare-fun @const_true () Bool)(assert (or false (not @const_true)))(check-sat){get_model}"
        lines = ["  (define-fun @const_true () Bool false)"] if get_model else []
        assert minisolver.check_text(text) == ("sat", lines, "")


class TestReader:
    """``parse_sexprs``: whitespace is space, tab, CR and LF only, a comment
    runs to the end of its line, a quoted symbol reads as its inner text,
    always as one symbol, and a string keeps its quotes, with ``""`` an
    escaped quote inside it."""

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("(a |x;(y)\nz| b)", [["a", "x;(y)\nz", "b"]]),
            ("(f ||)", [["f", ""]]),
            ('(echo "two words")', [["echo", '"two words"']]),
            ("(a b) ; trailing", [["a", "b"]]),
            ("; first\n(a ; inner\n b)", [["a", "b"]]),
            ("(a\tb\r\nc)", [["a", "b", "c"]]),
            ("(a\fb c\vd e\u00a0f)", [["a\fb", "c\vd", "e\u00a0f"]]),
            ("(declare-fun |(| () Bool)(assert |)|)", [["declare-fun", "(", [], "Bool"], ["assert", ")"]]),
            ('(echo "a""b" "")', [["echo", '"a""b"', '""']]),
            ("(a |b c)", "unterminated quoted symbol"),
            ('(a "b c)', "unterminated string"),
            ("(a))", "unbalanced ')'"),
            ("((a)", "unbalanced '('"),
        ],
        ids=[
            "quoted-symbol", "empty-quoted-symbol", "string", "quoted-parentheses",
            "escaped-quote", "comment-at-end", "comments",
            "whitespace", "other-spaces-in-symbols", "unterminated-quoted-symbol",
            "unterminated-string", "unbalanced-close", "unbalanced-open",
        ],
    )
    def test_trees_and_errors(self, text, expected):
        if isinstance(expected, str):
            with pytest.raises(minisolver.SmtFormatError, match=re.escape(expected)):
                minisolver.parse_sexprs(text)
        else:
            assert minisolver.parse_sexprs(text) == expected

    def test_quoted_parenthesis_is_a_constant(self):
        text = "(declare-fun |(| () Bool)(assert |(|)(check-sat)"
        assert minisolver.check_text(text) == ("sat", [], "")

    def test_passed_deadline_stops_reading(self, monkeypatch):
        monkeypatch.setattr(minisolver, "_clock", lambda: 1.0)
        assert minisolver.parse_sexprs("(check-sat)", 2.0) == [["check-sat"]]
        # The deadline is checked as the first command closes, before the
        # stray parenthesis after it is read.
        with pytest.raises(minisolver.SolverTimeout):
            minisolver.parse_sexprs("(check-sat))", 0.5)

    @given(st.lists(_TREES, max_size=4), st.sampled_from([" ", "\n", "\t", "\r\n"]))
    @settings(max_examples=200, deadline=None)
    def test_rendered_trees_read_back(self, trees, gap):
        assert minisolver.parse_sexprs(gap.join(map(_render, trees))) == trees


def main_with_stdin(text):
    proc = subprocess.run(
        [sys.executable, minisolver.__file__],
        input=text,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout.split()[0] if proc.stdout.split() else ""


class TestExecutable:
    def test_stdin_protocol(self):
        assert main_with_stdin("(assert false)(check-sat)") == (0, "unsat")

    def test_file_argument(self, tmp_path):
        path = tmp_path / "q.smt2"
        path.write_text("(check-sat)\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, minisolver.__file__, str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout.startswith("sat")


class TestCdclAgainstBruteForce:
    def test_random_cnfs(self):
        rng = SplitMix64(42)
        for _ in range(200):
            num_vars = 4 + rng.below(6)
            num_clauses = 3 + rng.below(30)
            clauses = []
            for _ in range(num_clauses):
                width = 1 + rng.below(3)
                ids: list[int] = []
                while len(ids) < width:
                    v = 1 + rng.below(num_vars)
                    if v not in ids:
                        ids.append(v)
                clauses.append([(v << 1) | rng.below(2) for v in ids])
            expect = any(
                all(
                    any(assign[(lit >> 1) - 1] ^ (lit & 1) for lit in clause)
                    for clause in clauses
                )
                for assign in itertools.product([0, 1], repeat=num_vars)
            )
            solver = CdclSolver()
            for _ in range(num_vars):
                solver.new_var()
            for clause in clauses:
                solver.add_clause(list(clause))
            got = solver.solve() if solver.ok else False
            assert got == expect, clauses
            if got:
                for clause in clauses:
                    assert any(
                        solver.value[lit >> 1] == 1 - (lit & 1) for lit in clause
                    )

    def test_add_clause_after_sat_solve(self):
        """Clauses added after a sat solve(), with its learned clauses and
        phases kept, give the verdict of a fresh solver on all clauses."""
        rng = SplitMix64(7)
        resolved = {True: 0, False: 0}
        for _ in range(200):
            num_vars = 4 + rng.below(6)
            clauses = []
            for _ in range(6 + rng.below(30)):
                ids = list({1 + rng.below(num_vars) for _ in range(1 + rng.below(3))})
                clauses.append([(v << 1) | rng.below(2) for v in ids])
            split = len(clauses) // 2

            def solver_with(batch):
                solver = CdclSolver()
                for _ in range(num_vars):
                    solver.new_var()
                for clause in batch:
                    solver.add_clause(list(clause))
                return solver

            incremental = solver_with(clauses[:split])
            if not incremental.solve():
                continue
            for clause in clauses[split:]:
                incremental.add_clause(list(clause))
            got = incremental.solve()
            assert got == solver_with(clauses).solve(), clauses
            resolved[got] += 1
            if got:
                for clause in clauses:
                    assert any(incremental.value[lit >> 1] == 1 - (lit & 1) for lit in clause)
        assert min(resolved.values()) >= 10, resolved

    def test_pigeonhole_unsat(self):
        solver = CdclSolver()
        holes, pigeons = 5, 6
        var = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for i in range(pigeons):
            solver.add_clause([var[i][j] << 1 for j in range(holes)])
        for j in range(holes):
            for i1 in range(pigeons):
                for i2 in range(i1 + 1, pigeons):
                    solver.add_clause([(var[i1][j] << 1) ^ 1, (var[i2][j] << 1) ^ 1])
        assert solver.solve() is False

    def test_order_heap_stays_bounded(self):
        # Hundreds of conflicts, each bumping and unassigning most variables.
        solver = CdclSolver()
        holes, pigeons = 6, 7
        var = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for i in range(pigeons):
            solver.add_clause([var[i][j] << 1 for j in range(holes)])
        for j in range(holes):
            for i1 in range(pigeons):
                for i2 in range(i1 + 1, pigeons):
                    solver.add_clause([(var[i1][j] << 1) ^ 1, (var[i2][j] << 1) ^ 1])
        largest = []
        pick = solver.pick_branch

        def recording():
            largest.append(len(solver.heap))
            return pick()

        solver.pick_branch = recording
        assert solver.solve() is False
        assert len(largest) > 100
        assert max(largest) <= 2 * solver.num_vars


class TestAssumptions:
    """``CdclSolver.solve`` under assumptions: an answer for these literals
    only, which leaves the solver fit for the next solve."""

    @staticmethod
    def solver(num_vars, clauses):
        solver = CdclSolver()
        for _ in range(num_vars):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(clause)
        return solver

    def test_assumption_false_at_level_zero(self):
        solver = self.solver(2, [[2], [3, 5]])  # x1, and x1 or x2
        assert solver.solve(None, 3) is False
        assert solver.ok and solver.solve() is True and solver.value[1] == 1

    def test_conflicting_assumptions(self):
        solver = self.solver(3, [[3, 4], [3, 6]])  # not x1 implies x2 and x3
        assert solver.solve(None, 2, 4) is True
        assert solver.solve(None, 3, 4) is True
        assert solver.solve(None, 3, 5, 2) is False
        assert solver.solve(None, 2, 3) is False
        assert solver.ok

    @staticmethod
    def pigeonhole(holes, pigeons):
        """A solver for pigeonhole ``pigeons`` into ``holes``, each pigeon
        placed only when its selector is true, and the selectors."""
        solver = CdclSolver()
        select = [solver.new_var() for _ in range(pigeons)]
        var = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for i in range(pigeons):
            solver.add_clause([(select[i] << 1) ^ 1, *(var[i][j] << 1 for j in range(holes))])
        for j in range(holes):
            for i1 in range(pigeons):
                for i2 in range(i1 + 1, pigeons):
                    solver.add_clause([(var[i1][j] << 1) ^ 1, (var[i2][j] << 1) ^ 1])
        return solver, select

    def test_unsat_under_assumptions_then_sat_without(self):
        # Pigeonhole 4 into 3 only when every pigeon's selector is assumed.
        solver, select = self.pigeonhole(3, 4)
        assert solver.solve(None, *(s << 1 for s in select)) is False
        assert solver.ok and solver.learned
        assert solver.solve(None, *(s << 1 for s in select[:3])) is True
        assert solver.solve() is True
        solver.add_clause([select[3] << 1])
        assert solver.solve(None, *(s << 1 for s in select[:3])) is False
        assert solver.ok and solver.solve() is True

    def test_answers_survive_reduction_and_rescale(self):
        """Paths only long searches reach, driven directly: learned clauses
        dropped at level 0, their stale watches skipped, and activities
        rescaled past 1e100. Pigeonhole 5 into 4, each pigeon under a
        selector, is sat under a set of selectors iff the selected pigeons
        fit into the holes one each."""
        holes, pigeons = 4, 5
        solver, select = self.pigeonhole(holes, pigeons)
        assert solver.solve(None, *(s << 1 for s in select)) is False
        solver.cancel_until(0)
        learned = len(solver.learned)
        solver._reduce_learned()
        assert 0 < len(solver.learned) < learned

        def stale_watches():
            return sum(not clause for watchers in solver.watches for clause in watchers)

        stale = stale_watches()
        assert stale > 0
        largest = []
        pick = solver.pick_branch

        def recording():
            largest.append(len(solver.heap))
            return pick()

        solver.pick_branch = recording
        solver.var_inc = 1e100  # the next conflict's bumps rescale
        for chosen in itertools.chain.from_iterable(
            itertools.combinations(range(pigeons), r) for r in range(pigeons, -1, -1)
        ):
            fits = any(True for _ in itertools.permutations(range(holes), len(chosen)))
            assumed = [select[i] << 1 for i in chosen]
            assert solver.solve(None, *assumed) is fits, chosen
            others = [(select[i] << 1) ^ 1 for i in range(pigeons) if i not in chosen]
            assert solver.solve(None, *others, *assumed) is fits, chosen
            assert solver.solve() is True and solver.ok
        assert solver.var_inc < 1e100 and max(solver.activity) < 1e100
        assert stale_watches() < stale
        assert max(largest) <= 2 * solver.num_vars


class TestExtendedScripts:
    """A grounder's script read text after text: ``ground`` grounds each
    text's assertions as one batch, the first the base and each later one
    under its selector, and ``solve`` re-solves the same CDCL solver with
    the later batches it is given switched on."""

    _BASE = (
        "(declare-sort S 0)(declare-fun s0 () S)(declare-fun s1 () S)"
        "(declare-fun y () S)"
        "(assert (distinct s0 s1))(assert (or (= y s0) (= y s1)))(check-sat)"
    )

    @staticmethod
    def _grounded(*texts: str) -> minisolver.Grounder:
        """A grounder with each text read and ground as one batch."""
        grounder = minisolver.Grounder(minisolver.Script())
        for text in texts:
            grounder.script.read(text)
            grounder.ground()
        return grounder

    def test_later_sort_constant_is_unknown(self):
        grounder = self._grounded(self._BASE)
        assert grounder.solve() == "sat"
        grounder.script.read("(declare-fun z () S)(check-sat)")
        with pytest.raises(minisolver.SmtUnsupportedError, match="after the first check"):
            grounder.ground()

    def test_model_covers_every_batch(self):
        grounder = minisolver.Grounder(minisolver.Script())
        assert grounder.script.read("(declare-fun a () Bool)(assert a)(check-sat)(get-model)")
        grounder.ground()
        assert grounder.solve() == "sat"
        assert grounder.model_lines() == ["  (define-fun a () Bool true)"]
        assert not grounder.script.read("(declare-fun b () Bool)(assert (xor a b))(check-sat)")
        grounder.ground()
        assert grounder.solve(None, [0]) == "sat"
        assert minisolver.bool_model("\n".join(grounder.model_lines())) == {"a": True, "b": False}

    def test_later_sort_constant_confined_in_its_batch(self):
        grounder = self._grounded(self._BASE)
        assert grounder.solve() == "sat"
        later = "(declare-fun z () S)(assert (or (= z s0)))(assert (not (= z y)))(check-sat)(get-model)"
        assert grounder.script.read(later)
        grounder.ground()
        assert grounder.solve(None, [0]) == "sat"
        assert {"  (define-fun z () S s0)", "  (define-fun y () S s1)"} <= set(grounder.model_lines())
        assert grounder.values["z"] == (grounder.fixed["s0"],)  # confined to s0's value
        # z stays confined: the next batch cannot move it off s0.
        grounder.script.read("(assert (= z s1))(check-sat)")
        grounder.ground()
        assert grounder.solve(None, [0, 1]) == "unsat"

    def test_batches_switch_on_and_off(self):
        grounder = self._grounded(self._BASE, "(assert (= y s0))(check-sat)", "(assert (= y s1))(check-sat)")
        assert grounder.solve() == "sat"
        assert grounder.solve(None, [0]) == "sat"
        assert grounder.solve(None, [1]) == "sat"
        assert grounder.solve(None, [0, 1]) == "unsat"
        assert grounder.sat.ok
        assert grounder.solve(None, [1]) == grounder.solve(None, [0]) == grounder.solve() == "sat"


def _atom_holds(op, args, assignment) -> bool:
    if op == "distinct":
        return len({assignment[a] for a in args}) == len(args)
    return assignment[args[0]] == assignment[args[1]]


def _enumerate_euf(consts, constraints):
    """Brute-force satisfiability over universes up to len(consts) of
    constraints (op, args, want), where op is ``=`` or ``distinct``."""
    n = len(consts)
    for values in itertools.product(range(n), repeat=n):
        assignment = dict(zip(consts, values))
        if all(_atom_holds(op, args, assignment) == want for op, args, want in constraints):
            return True
    return False


class TestUninterpretedSorts:
    def test_pinned_equality_in_a_disjunction_adds_no_variable(self):
        """Inside an ``or``, ``(= x s1)`` is x's value literal for s1 itself,
        with no Tseitin variable: the clause holds the value literals."""
        decls = (
            "(declare-sort S 0)(declare-fun s0 () S)(declare-fun s1 () S)(declare-fun s2 () S)"
            "(declare-fun x () S)(declare-fun p () Bool)(assert (distinct s0 s1 s2))"
        )

        def grounded(assertion):
            grounder = minisolver.Grounder(minisolver.Script())
            grounder.script.read(f"{decls}(assert {assertion})(check-sat)")
            grounder.ground()
            return grounder

        bare = grounded("p")
        grounder = grounded("(or p (= x s1) (not (= s2 x)))")
        assert grounder.sat.num_vars == bare.sat.num_vars
        value = grounder.value_var
        p = grounder.bool_var["p"]
        want = [p << 1, value["x", 1] << 1, (value["x", 2] << 1) ^ 1]
        assert sorted(grounder.sat.clauses[-1]) == sorted(want)
        assert grounder.solve() == "sat"

    def test_distinct_forces_universe(self):
        text = (
            "(declare-sort S 0)"
            "(declare-fun a () S)(declare-fun b () S)(declare-fun c () S)"
            "(assert (distinct a b c))(check-sat)"
        )
        assert solve_text(text)[0] == "sat"

    def test_equality_chain_conflict(self):
        text = (
            "(declare-sort S 0)"
            "(declare-fun a () S)(declare-fun b () S)"
            "(assert (= a b))(assert (distinct a b))(check-sat)"
        )
        assert solve_text(text)[0] == "unsat"

    def test_pigeonhole_via_distinct(self):
        # four constants forced distinct but all equal to one of two bases
        text = (
            "(declare-sort S 0)"
            "(declare-fun s0 () S)(declare-fun s1 () S)"
            "(declare-fun y1 () S)(declare-fun y2 () S)(declare-fun y3 () S)"
            "(assert (distinct s0 s1))"
            "(assert (distinct y1 y2))(assert (distinct y2 y3))(assert (distinct y1 y3))"
            "(assert (or (= y1 s0) (= y1 s1)))"
            "(assert (or (= y2 s0) (= y2 s1)))"
            "(assert (or (= y3 s0) (= y3 s1)))"
            "(check-sat)"
        )
        assert solve_text(text)[0] == "unsat"

    def test_chain_through_edges(self):
        # path constants must follow the moves s0 -> s1 -> s2, stated as the
        # explicit encoding states them: per step and state, one successor
        # clause, and a state with no successor is not left
        moves = "".join(
            f"(assert (or (not (= y{i} s0)) (= y{i + 1} s1)))"
            f"(assert (or (not (= y{i} s1)) (= y{i + 1} s2)))"
            f"(assert (not (= y{i} s2)))"
            for i in (1, 2)
        )
        text = (
            "(declare-sort S 0)"
            "(declare-fun s0 () S)(declare-fun s1 () S)(declare-fun s2 () S)"
            "(declare-fun y1 () S)(declare-fun y2 () S)(declare-fun y3 () S)"
            "(assert (distinct s0 s1 s2))"
            f"{moves}"
            "(assert (not (= y1 y2)))(assert (not (= y1 y3)))(assert (not (= y2 y3)))"
            "(assert (or (= y1 s0) (= y1 s1) (= y1 s2)))"
            "(assert (or (= y2 s0) (= y2 s1) (= y2 s2)))"
            "(assert (or (= y3 s0) (= y3 s1) (= y3 s2)))"
            "(check-sat)(get-model)"
        )
        status, lines = minisolver.interpret(text)
        assert status == "sat"
        assert [line for line in lines if "(define-fun y" in line] == [
            f"  (define-fun y{i} () S s{i - 1})" for i in (1, 2, 3)
        ]

    def test_empty_confinement_is_unsat(self):
        # Each disjunction confines x to pinned values; they share none.
        text = (
            "(declare-sort S 0)"
            "(declare-fun s0 () S)(declare-fun s1 () S)(declare-fun s2 () S)"
            "(declare-fun x () S)"
            "(assert (distinct s0 s1 s2))"
            "(assert (or (= x s0) (= s1 x)))(assert (or (= x s2) (= x s0)))"
            "(assert (or (= x s1) (= x s2)))"
            "(check-sat)"
        )
        assert solve_text(text)[0] == "unsat"
        # Any two of them leave one value.
        assert solve_text(text.replace("(assert (or (= x s1) (= x s2)))", ""))[0] == "sat"

    def test_explicit_model_names_pinned_states(self):
        # lotus 3 has a simple path of 2 edges: the step constants confined
        # to the pinned states are reported as those states, along edges.
        lotus = gen_lotus(3)
        status, lines = minisolver.interpret(encode_explicit(lotus, 2, get_model=True).rendering)
        assert status == "sat"
        steps = dict(re.findall(r"\(define-fun (y\d) \(\) S s(\d+)\)", "\n".join(lines)))
        path = [int(steps[f"y{i}"]) for i in (1, 2, 3)]
        adj = build_transition_graph(lotus).adj
        assert len(set(path)) == 3
        assert all(v in adj[u] for u, v in zip(path, path[1:]))

    def test_random_euf_against_enumeration(self):
        rng = SplitMix64(99)
        verdicts = []
        for _ in range(120):
            n_consts = 2 + rng.below(3)  # 2..4 constants
            consts = [f"c{i}" for i in range(n_consts)]
            n_constraints = 1 + rng.below(5)
            constraints = []
            lines = ["(declare-sort S 0)", *(f"(declare-fun {c} () S)" for c in consts)]
            for _ in range(n_constraints):
                a = consts[rng.below(n_consts)]
                b = consts[rng.below(n_consts)]
                kind = rng.below(3)
                positive = rng.below(2) == 1
                if kind == 0:
                    constraints.append(("=", (a, b), positive))
                    term = f"(= {a} {b})"
                else:
                    # The first positive distinct of the base pins its names.
                    args = (a, b) if kind == 1 else (a, b, consts[rng.below(n_consts)])
                    constraints.append(("distinct", args, positive))
                    term = f"(distinct {' '.join(args)})"
                lines.append(f"(assert {term if positive else f'(not {term})'})")
            lines.append("(check-sat)")
            got = solve_text("".join(lines))[0]
            expect = "sat" if _enumerate_euf(consts, constraints) else "unsat"
            assert got == expect, "".join(lines)
            verdicts.append(got)
        assert verdicts.count("sat") >= 20 and verdicts.count("unsat") >= 20


class TestDistinct:
    """A ``distinct`` over sort constants is one term. The first one of a
    sort at the top level of the base pins its names; any other is its
    pairwise disequalities."""

    def test_explicit_base_distinct_pins_the_states(self):
        grounder = minisolver.Grounder(minisolver.Script())
        grounder.script.read(encode_explicit(_LOTUS3, 1).rendering)
        states = tuple(f"s{i}" for i in range(4))
        assert grounder.script.parse_term(("distinct", *states)) == ("distinct", states)
        assert [t for t in grounder.script.assertions if t[0] == "distinct"] == [("distinct", states)]
        grounder.ground()
        assert grounder.fixed == {s: i for i, s in enumerate(states)}
        assert grounder.solve() == "sat"

    @pytest.mark.parametrize(
        "args,term",
        [
            (("a", "b", "a"), ("false",)),
            (("a",), ("true",)),
            ((), ("true",)),
            (("b", "a"), ("distinct", ("b", "a"))),
        ],
        ids=["repeated", "one-name", "no-name", "two-names"],
    )
    def test_parse(self, args, term):
        script = minisolver.Script()
        script.read("(declare-sort S 0)(declare-fun a () S)(declare-fun b () S)(check-sat)")
        assert script.parse_term(("distinct", *args)) == term

    def test_repeated_name_is_unsat(self):
        text = "(declare-sort S 0)(declare-fun a () S)(declare-fun b () S)(assert (distinct a b a))(check-sat)"
        assert minisolver.check_text(text) == ("unsat", [], "")
        assert minisolver.check_text(text.replace("b a)", "b)")) == ("sat", [], "")

    def test_mixed_sorts_are_unknown(self):
        text = (
            "(declare-sort S 0)(declare-sort T 0)"
            "(declare-fun a () S)(declare-fun b () S)(declare-fun c () T)"
            "(assert (distinct a b c))(check-sat)"
        )
        assert minisolver.check_text(text) == ("unknown", [], "'=' on constants of different sorts: a, c")

    @staticmethod
    def _holds(ast, values) -> bool:
        op, *args = ast
        if op == "not":
            return not TestDistinct._holds(args[0], values)
        if op in ("and", "or"):
            results = [TestDistinct._holds(a, values) for a in args]
            return all(results) if op == "and" else any(results)
        return _atom_holds(op, args, values)

    # Each kind once sat and once unsat, over four constants of one sort; in
    # the base, a is pinned when a distinct at the top level comes first.
    @pytest.mark.parametrize(
        "base,later,status",
        [
            (
                [("or", ("distinct", "a", "b", "c"), ("=", "a", "d")), ("=", "b", "c"), ("not", ("=", "a", "d"))],
                [],
                "unsat",
            ),
            (
                [("or", ("distinct", "a", "b", "c"), ("=", "a", "d")), ("=", "b", "d"), ("not", ("=", "a", "d"))],
                [],
                "sat",
            ),
            ([("not", ("distinct", "a", "b", "c")), ("not", ("=", "a", "b")), ("not", ("=", "b", "c"))], [], "sat"),
            ([("not", ("distinct", "a", "b")), ("not", ("=", "a", "b"))], [], "unsat"),
            ([("distinct", "a", "b", "c"), ("distinct", "c", "d", "a"), ("=", "d", "b")], [], "sat"),
            ([("distinct", "a", "b"), ("distinct", "b", "c", "d"), ("=", "a", "c"), ("=", "a", "d")], [], "unsat"),
            ([("distinct", "a", "b")], [("distinct", "b", "c", "d"), ("=", "a", "c")], "sat"),
            ([("distinct", "a", "b"), ("=", "c", "d")], [("distinct", "a", "c", "d")], "unsat"),
        ],
        ids=[
            "nested-unsat", "nested-sat", "negated-sat", "negated-unsat",
            "second-sat", "second-unsat", "later-sat", "later-unsat",
        ],
    )
    def test_verdict_matches_enumeration(self, base, later, status):
        consts = ("a", "b", "c", "d")
        expect = any(
            all(self._holds(ast, dict(zip(consts, values))) for ast in base + later)
            for values in itertools.product(range(len(consts)), repeat=len(consts))
        )
        assert status == ("sat" if expect else "unsat")
        decls = "(declare-sort S 0)" + "".join(f"(declare-fun {c} () S)" for c in consts)
        texts = [decls + _asserted(base)] + ([_asserted(later)] if later else [])
        grounder = minisolver.Grounder(minisolver.Script())
        for text in texts:
            grounder.script.read(text)
            grounder.ground()
        assert ("a" in grounder.fixed) == (base[0][0] == "distinct")
        assert grounder.solve(None, range(len(grounder.selectors))) == status


def _asserted(asts) -> str:
    return "".join(f"(assert {_render(a)})" for a in asts) + "(check-sat)"


# Beside the pinning distinct: a second one over free constants at the top
# level, distincts nested under 'or' in both polarities, equalities of
# pinned constants nested in both polarities, and equalities with one and
# two free sides.
_NESTED_DISTINCT_SCRIPT = """(declare-sort S 0)
(declare-fun s0 () S)(declare-fun s1 () S)(declare-fun s2 () S)
(declare-fun x () S)(declare-fun y () S)
(declare-fun p () Bool)
(assert (distinct s0 s1 s2))
(assert (distinct x y s0))
(assert (or (= y x) (= x s2)))
(assert (or (distinct s1 x) (= x s0) p))
(assert (or (not (distinct x y s1)) (= y s1)))
(assert (or (not (= s0 s1)) (not p)))
(assert (or (= s1 s2) (not p)))
(check-sat)
"""


_LOTUS3, _SEED5, _CLIQUE2 = gen_lotus(3), make_random(equivalence_family(5)), gen_clique(2)

# One script per clause rule that writes no Tseitin variable: an implication
# whose conjunction holds a Boolean equality, distributed into a clause per
# conjunct; an or of xors, each and needed only positively; and, in a later
# batch, a distinct's disequalities and a negated equality ground straight
# under the batch's selector.
_IMPLIED_FRAME = """(declare-fun a () Bool)(declare-fun x () Bool)(declare-fun y () Bool)
(declare-fun z () Bool)
(assert (=> a (and z (= x y))))
(check-sat)
"""
_XOR_DISTINCT = """(declare-fun a () Bool)(declare-fun b () Bool)(declare-fun c () Bool)
(declare-fun d () Bool)
(assert (or (xor a b) (xor c d)))
(check-sat)
"""
_LATER_ATOMS = (
    """(declare-sort S 0)
(declare-fun s0 () S)(declare-fun s1 () S)(declare-fun s2 () S)
(declare-fun x () S)(declare-fun y () S)
(assert (distinct s0 s1 s2))
(check-sat)
""",
    """(assert (distinct x y s1))
(assert (not (= x y)))
(check-sat)
""",
)


@pytest.mark.parametrize(
    "script,status,shape",
    [
        pytest.param(lambda: encode_explicit(_LOTUS3, 1).rendering, "sat", (14, 26, 0), id="lotus3-explicit-k1"),
        pytest.param(lambda: encode_explicit(_LOTUS3, 2).rendering, "sat", (21, 47, 0), id="lotus3-explicit-k2"),
        pytest.param(lambda: encode_explicit(_LOTUS3, 3).rendering, "unsat", (28, 72, 0), id="lotus3-explicit-k3"),
        pytest.param(lambda: encode_explicit(_SEED5, 1).rendering, "sat", (62, 122, 0), id="seed5-explicit-k1"),
        pytest.param(lambda: encode_explicit(_SEED5, 2).rendering, "sat", (93, 215, 0), id="seed5-explicit-k2"),
        pytest.param(lambda: encode_explicit(_SEED5, 3).rendering, "sat", (124, 324, 0), id="seed5-explicit-k3"),
        pytest.param(lambda: encode_factored(_CLIQUE2, 3).rendering, "sat", (32, 57, 0), id="clique2-factored-k3"),
        pytest.param(lambda: encode_factored(_CLIQUE2, 4).rendering, "unsat", (46, 86, 0), id="clique2-factored-k4"),
        pytest.param(lambda: _NESTED_DISTINCT_SCRIPT, "sat", (22, 37, 5), id="nested-distinct"),
        pytest.param(lambda: _IMPLIED_FRAME, "sat", (4, 3, 0), id="implied-frame"),
        pytest.param(lambda: _XOR_DISTINCT, "sat", (6, 5, 0), id="xor-distinct"),
        pytest.param(lambda: _LATER_ATOMS, "sat", (19, 36, 0), id="later-batch-atoms"),
    ],
)
def test_grounding_shape(script, status, shape, monkeypatch):
    """(variables, problem clauses, literals fixed at level 0) of the
    grounded CNF as CDCL receives it: unit clauses are not stored but
    assigned. A change to grounding that keeps verdicts but changes the CNF
    shows here. A script given as several texts is read batch by batch into
    one grounder, and each solve switches every later batch on; the shape
    is the last solve's."""
    seen = []
    solve = CdclSolver.solve

    def recording(self, deadline=None, *assumptions):
        seen.append((self.num_vars, len(self.clauses), len(self.trail)))
        return solve(self, deadline, *assumptions)

    monkeypatch.setattr(CdclSolver, "solve", recording)
    texts = script()
    texts = [texts] if isinstance(texts, str) else texts
    grounder = minisolver.Grounder(minisolver.Script())
    for text in texts:
        grounder.script.read(text)
        grounder.ground()
        got = grounder.solve(None, range(len(grounder.selectors)))
    assert got == status
    assert seen[len(texts) - 1 :] == [shape]
