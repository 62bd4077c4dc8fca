"""Differential fuzzing for the bundled solver: random nested formulas are
rendered to SMT-LIB, decided by the solver, and compared with brute-force
evaluation over every assignment; models returned on sat must evaluate to
true. Boolean scripts test the CDCL core and its Tseitin encoding; scripts
over an uninterpreted sort test pinning, confinement and ``distinct``
terms."""

import itertools
from collections import Counter

from statebound.gen import SplitMix64
from statebound.minisolver import CdclSolver, Grounder, Script, bool_model, interpret, solve_text

NAMES = ["p", "q", "r", "s"]


def random_ast(rng: SplitMix64, depth: int):
    choice = rng.below(7) if depth > 0 else rng.below(2)
    if choice == 0:
        return NAMES[rng.below(len(NAMES))]
    if choice == 1:
        return True if rng.below(2) else False
    if choice == 2:
        return ("not", random_ast(rng, depth - 1))
    if choice == 3:
        arity = 2 + rng.below(2)
        return ("and", *(random_ast(rng, depth - 1) for _ in range(arity)))
    if choice == 4:
        arity = 2 + rng.below(2)
        return ("or", *(random_ast(rng, depth - 1) for _ in range(arity)))
    if choice == 5:
        return ("xor", random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if rng.below(2):
        return ("=>", random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    return ("=", random_ast(rng, depth - 1), random_ast(rng, depth - 1))


def render(ast) -> str:
    if ast is True:
        return "true"
    if ast is False:
        return "false"
    if isinstance(ast, str):
        return ast
    op, *args = ast
    return f"({op} " + " ".join(render(a) for a in args) + ")"


def evaluate(ast, env) -> bool:
    if ast is True or ast is False:
        return ast
    if isinstance(ast, str):
        return env[ast]
    op, *args = ast
    values = [evaluate(a, env) for a in args]
    if op == "not":
        return not values[0]
    if op == "and":
        return all(values)
    if op == "or":
        return any(values)
    if op == "xor":
        return values[0] ^ values[1]
    if op == "=>":
        return (not values[0]) or values[1]
    if op == "=":
        return values[0] == values[1]
    raise AssertionError(op)


def brute_force_sat(asts):
    for bits in itertools.product([False, True], repeat=len(NAMES)):
        env = dict(zip(NAMES, bits))
        if all(evaluate(a, env) for a in asts):
            return True
    return False


def test_random_boolean_scripts_against_enumeration():
    rng = SplitMix64(20240810)
    for _ in range(250):
        asts = [random_ast(rng, 3) for _ in range(1 + rng.below(4))]
        script = "".join(f"(declare-fun {n} () Bool)" for n in NAMES)
        script += "".join(f"(assert {render(a)})" for a in asts)
        script += "(check-sat)(get-model)"
        status, model = solve_text(script)
        expect = brute_force_sat(asts)
        assert status == ("sat" if expect else "unsat"), script
        if status == "sat":
            env = {name: model.get(name, False) for name in NAMES}
            assert all(evaluate(a, env) for a in asts), script


def test_extended_scripts_against_enumeration():
    """One assertion per batch into the same grounder: each solve switches
    every batch on, so it decides every assertion so far. Shared subterms
    reach the Tseitin memo first in one polarity and later in the other."""
    rng = SplitMix64(4242)
    for _ in range(150):
        asts = [random_ast(rng, 3) for _ in range(2 + rng.below(4))]
        grounder = Grounder(Script())
        head = "".join(f"(declare-fun {n} () Bool)" for n in NAMES)
        for i, ast in enumerate(asts):
            grounder.script.read(f"{head if i == 0 else ''}(assert {render(ast)})(check-sat)(get-model)")
            grounder.ground()
            status = grounder.solve(None, range(len(grounder.selectors)))
            expect = brute_force_sat(asts[: i + 1])
            assert status == ("sat" if expect else "unsat"), asts[: i + 1]
            if status == "sat":
                model = bool_model("\n".join(grounder.model_lines()))
                env = {name: model.get(name, False) for name in NAMES}
                assert all(evaluate(a, env) for a in asts[: i + 1])


def random_clause(rng: SplitMix64, num_vars: int) -> list[int]:
    ids = {1 + rng.below(num_vars) for _ in range(2 + rng.below(2))}
    return [(v << 1) | rng.below(2) for v in ids]


def brute_force_cnf(num_vars: int, clauses, assumptions) -> bool:
    return any(
        all(any(bits[(lit >> 1) - 1] ^ (lit & 1) for lit in clause) for clause in clauses)
        and all(bits[(lit >> 1) - 1] ^ (lit & 1) for lit in assumptions)
        for bits in itertools.product([0, 1], repeat=num_vars)
    )


def test_solves_under_assumptions_against_enumeration():
    """One solver per CNF over at most 12 variables, asked in turn under
    random assumption sets, with random clauses added between solves. Each
    answer is the brute-force one, a sat answer's assignment satisfies the
    clauses and the assumptions, and only unsat clauses clear ``ok``."""
    rng = SplitMix64(909)
    answers = Counter()  # (answer, ok) per solve
    for _ in range(120):
        num_vars = 3 + rng.below(10)
        clauses = [random_clause(rng, num_vars) for _ in range(1 + rng.below(3 * num_vars))]
        solver = CdclSolver()
        for _ in range(num_vars):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(list(clause))
        for _ in range(6):
            for _ in range(rng.below(2)):
                clauses.append(random_clause(rng, num_vars))
                solver.add_clause(list(clauses[-1]))
            picked = {1 + rng.below(num_vars) for _ in range(rng.below(5))}
            assumptions = [(v << 1) | rng.below(2) for v in picked]
            got = solver.solve(None, *assumptions)
            assert got == brute_force_cnf(num_vars, clauses, assumptions), (clauses, assumptions)
            if got:
                assert all(solver.value[lit >> 1] == 1 - (lit & 1) for lit in assumptions)
                for clause in clauses:
                    assert any(solver.value[lit >> 1] == 1 - (lit & 1) for lit in clause)
            assert solver.ok or not brute_force_cnf(num_vars, clauses, [])
            answers[got, solver.ok] += 1
    assert min(answers[key] for key in ((True, True), (False, True), (False, False))) >= 50, answers


def test_deep_nesting():
    rng = SplitMix64(77)
    for _ in range(40):
        ast = random_ast(rng, 6)
        script = "".join(f"(declare-fun {n} () Bool)" for n in NAMES)
        script += f"(assert {render(ast)})(check-sat)(get-model)"
        status, model = solve_text(script)
        expect = brute_force_sat([ast])
        assert status == ("sat" if expect else "unsat"), script
        if status == "sat":
            env = {name: model.get(name, False) for name in NAMES}
            assert evaluate(ast, env), script


# Sort scripts: pinned constants s0..s2 (when their distinct is asserted
# first), unpinned x and y, and a Boolean p.
PINNED = ["s0", "s1", "s2"]
SORT_CONSTS = PINNED + ["x", "y"]


def random_distinct(rng: SplitMix64, *names: str):
    """``distinct`` over ``names`` and one or two random sort constants,
    which may repeat a name."""
    picked = [SORT_CONSTS[rng.below(len(SORT_CONSTS))] for _ in range(1 + rng.below(2))]
    return ("distinct", *names, *picked)


def random_sort_atom(rng: SplitMix64):
    a = SORT_CONSTS[rng.below(len(SORT_CONSTS))]
    b = SORT_CONSTS[rng.below(len(SORT_CONSTS))]
    choice = rng.below(6)
    if choice == 0:
        return "p"
    return ("=", a, b) if choice <= 2 else random_distinct(rng, a)


def random_sort_formula(rng: SplitMix64, depth: int):
    choice = rng.below(5) if depth > 0 else 0
    if choice <= 1:
        atom = random_sort_atom(rng)
        return ("not", atom) if rng.below(2) else atom
    if choice == 2:
        return ("not", random_sort_formula(rng, depth - 1))
    op = "and" if choice == 3 else "or"
    return (op, *(random_sort_formula(rng, depth - 1) for _ in range(2)))


def confining_or(rng: SplitMix64, const: str):
    """(or (= const s_i) ...) over a random non-empty subset of the pinned
    constants, each equality written either way round."""
    picked = [s for s in PINNED if rng.below(2)] or [PINNED[rng.below(3)]]
    return ("or", *((("=", const, s) if rng.below(2) else ("=", s, const)) for s in picked))


def random_sort_conjunct(rng: SplitMix64):
    """A confining or, a shape that must not confine, a random formula or a
    ``distinct`` literal."""
    x, y = ("x", "y") if rng.below(2) else ("y", "x")
    s = PINNED[rng.below(3)]
    choice = rng.below(8)
    if choice <= 1:
        return confining_or(rng, x)
    if choice == 2:  # two unpinned constants
        return ("or", ("=", x, s), ("=", y, PINNED[rng.below(3)]))
    if choice == 3:  # an unpinned-unpinned equality
        return ("or", ("=", x, s), ("=", x, y))
    if choice == 4:  # below the top level
        return ("or", confining_or(rng, x), random_sort_formula(rng, 1))
    if choice == 5:
        return random_sort_formula(rng, 2)
    if choice == 6:
        return random_distinct(rng, x)  # over a free constant
    pinned = ("distinct", s, PINNED[rng.below(3)])  # a second one, over pinned constants
    return ("not", pinned) if rng.below(4) else pinned


def evaluate_sort(ast, values, p: bool) -> bool:
    if ast == "p":
        return p
    op, *args = ast
    if op == "=":
        return values[args[0]] == values[args[1]]
    if op == "distinct":
        return len({values[a] for a in args}) == len(args)
    if op == "not":
        return not evaluate_sort(args[0], values, p)
    results = [evaluate_sort(a, values, p) for a in args]
    return all(results) if op == "and" else any(results)


def partitions(count: int):
    """Every assignment of ``count`` constants to universe values, up to
    renaming the universe: each value at most one above the largest so far."""
    if count == 0:
        yield ()
        return
    for head in partitions(count - 1):
        for v in range(max(head, default=-1) + 2):
            yield (*head, v)


def brute_force_sort_sat(asts) -> bool:
    """Over every assignment of the constants and both truth values of p."""
    for assignment in partitions(len(SORT_CONSTS)):
        values = dict(zip(SORT_CONSTS, assignment))
        if any(all(evaluate_sort(a, values, p) for a in asts) for p in (False, True)):
            return True
    return False


def test_confined_sort_scripts_against_enumeration():
    rng = SplitMix64(31337)
    verdicts = []
    for _ in range(200):
        asts = [random_sort_conjunct(rng) for _ in range(2 + rng.below(6))]
        if rng.below(4):
            asts.insert(0, ("distinct", *PINNED))
        script = "(declare-sort S 0)(declare-fun p () Bool)"
        script += "".join(f"(declare-fun {c} () S)" for c in SORT_CONSTS)
        script += "".join(f"(assert {render(a)})" for a in asts)
        script += "(check-sat)"
        status, _ = interpret(script)
        assert status == ("sat" if brute_force_sort_sat(asts) else "unsat"), script
        verdicts.append(status)
    assert verdicts.count("sat") >= 20 and verdicts.count("unsat") >= 20


def random_later_conjunct(rng: SplitMix64):
    """Mostly a top-level ``distinct`` literal or negated equality, which a
    later batch grounds straight under its selector; else any conjunct."""
    a = SORT_CONSTS[rng.below(len(SORT_CONSTS))]
    b = SORT_CONSTS[rng.below(len(SORT_CONSTS))]
    choice = rng.below(5)
    if choice == 0:
        return random_distinct(rng, a)
    if choice == 1:
        return ("not", random_distinct(rng, a))
    if choice <= 3:
        return ("not", ("=", a, b))
    return random_sort_conjunct(rng)


def test_later_batches_against_enumeration():
    """Sort scripts read batch by batch into one grounder. Each solve
    switches the new batch and a random set of the earlier later batches
    on, and must decide the base and those batches."""
    rng = SplitMix64(5150)
    verdicts = Counter()
    head = "(declare-sort S 0)(declare-fun p () Bool)"
    head += "".join(f"(declare-fun {c} () S)" for c in SORT_CONSTS)
    for _ in range(120):
        base = [random_sort_conjunct(rng) for _ in range(rng.below(3))]
        if rng.below(4):
            base.insert(0, ("distinct", *PINNED))
        grounder = Grounder(Script())
        text = head + "".join(f"(assert {render(a)})" for a in base) + "(check-sat)"
        grounder.script.read(text)
        grounder.ground()
        status = grounder.solve()
        assert status == ("sat" if brute_force_sort_sat(base) else "unsat"), text
        later: list[list] = []
        for _ in range(3):
            batch = [random_later_conjunct(rng) for _ in range(1 + rng.below(2))]
            on = [b for b in range(len(later)) if rng.below(2)]
            text = "".join(f"(assert {render(a)})" for a in batch) + "(check-sat)"
            grounder.script.read(text)
            grounder.ground()
            status = grounder.solve(None, [*on, len(later)])
            asts = base + [a for b in on for a in later[b]] + batch
            assert status == ("sat" if brute_force_sort_sat(asts) else "unsat"), (base, later, on, batch)
            later.append(batch)
            verdicts[status] += 1
    assert verdicts["sat"] >= 20 and verdicts["unsat"] >= 20, verdicts
