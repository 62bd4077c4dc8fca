"""Differential fuzzing for the bundled solver's Boolean core: random nested
formulas are rendered to SMT-LIB, decided by the solver, and compared with
brute-force evaluation over every assignment; models returned on sat must
evaluate to true."""

import itertools

from statebound.gen import SplitMix64
from statebound.minisolver import Grounder, Script, bool_model, interpret, solve_text

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
    """One assertion per batch into the same grounder: each check decides
    every assertion so far. Shared subterms reach the Tseitin memo first in
    one polarity and later in the other."""
    rng = SplitMix64(4242)
    for _ in range(150):
        asts = [random_ast(rng, 3) for _ in range(2 + rng.below(4))]
        grounder = Grounder(Script())
        head = "".join(f"(declare-fun {n} () Bool)" for n in NAMES)
        for i, ast in enumerate(asts):
            text = f"{head if i == 0 else ''}(assert {render(ast)})(check-sat)(get-model)"
            status, lines = interpret(text, grounder=grounder)
            expect = brute_force_sat(asts[: i + 1])
            assert status == ("sat" if expect else "unsat"), asts[: i + 1]
            if status == "sat":
                model = bool_model("\n".join(lines))
                env = {name: model.get(name, False) for name in NAMES}
                assert all(evaluate(a, env) for a in asts[: i + 1])


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
