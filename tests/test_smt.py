import dataclasses
import hashlib
import math
import sys
from itertools import accumulate

import pytest

from statebound import minisolver, oracle, smt
from statebound.compose import BaseCaseKind, BoundConfig, compositional_bound
from statebound.core import Action, PartialState, System, build_transition_graph, execute
from statebound.gen import GeneratorSpec, gen_clique, gen_lotus, gen_random, gen_star
from statebound.oracle import recurrence_diameter_bruteforce
from statebound.smt import (
    SmtDocument,
    SolverConfig,
    SolverError,
    SolverVerdict,
    decode_factored_model,
    encode_explicit,
    encode_factored,
    rd_via_smt,
    run_solver,
)

from conftest import equivalence_family, make_random


class TestExplicitDocument:
    def test_declarations_follow_interface(self, clique2):
        doc = encode_explicit(clique2, 2)
        text = doc.rendering
        assert text.startswith("(set-logic QF_UF)\n")
        assert "(declare-sort S 0)" in text
        for i in range(4):
            assert f"(declare-fun s{i} () S)" in text
        for i in (1, 2, 3):
            assert f"(declare-fun y{i} () S)" in text
        assert "G" not in text  # no edge predicate: each step states its moves
        assert text.count("(check-sat)") == 1
        assert "(get-model)" not in text

    def test_edge_and_nonedge_assertions(self, star3):
        """The step states the edges and non-edges as successor clauses: one
        ``or`` for the hub, the one state with successors, and a
        ``(not (= y1 s))`` for each of the three sinks."""
        text = encode_explicit(star3, 1).rendering
        assert "(assert (or (not (= y1 s0)) (= y2 s1) (= y2 s2) (= y2 s3)))" in text
        for sink in (1, 2, 3):
            assert f"(assert (not (= y1 s{sink})))" in text
        assert text.count("(assert (or (not (= y1 ") == 1
        assert text.count("(assert (not (= y1 s") == 3
        assert "G" not in text

    def test_distinct_and_membership(self, clique2):
        text = encode_explicit(clique2, 1).rendering
        assert "(assert (distinct s0 s1 s2 s3))" in text
        assert "(assert (or (= y1 s0) (= y1 s1) (= y1 s2) (= y1 s3)))" in text
        assert "(assert (not (= y1 y2)))" in text

    def test_script_grows_with_the_edges(self):
        """Lotus 255 has 256 states and 510 edges: its k = 1 script holds no
        table over the 65,536 ordered state pairs."""
        assert encode_explicit(gen_lotus(255), 1).rendering.count("\n") < 600

    def test_rejects_k_zero(self, clique2):
        with pytest.raises(ValueError):
            encode_explicit(clique2, 0)

    def test_script_name(self, clique2):
        assert encode_explicit(clique2, 3).script_name() == "phi1_k3.smt2"
        assert encode_factored(clique2, 5).script_name() == "phi2_k5.smt2"


class TestFactoredDocument:
    def test_declarations_follow_interface(self, clique2):
        doc = encode_factored(clique2, 2)
        text = doc.rendering
        for var_id in (0, 1):
            for step in (1, 2, 3):
                assert f"(declare-fun v{var_id}_s{step} () Bool)" in text
        for action_index in range(4):
            for step in (1, 2):
                assert f"(declare-fun a{action_index}_s{step} () Bool)" in text
        assert text.count("(check-sat)") == 1

    def test_action_implication_shape(self):
        # one action with pre v1, eff v2: frame keeps v1
        system = System.from_names(
            ["v1", "v2"],
            (Action(PartialState(1, 1), PartialState(2, 2)),),
        )
        text = encode_factored(system, 1).rendering
        assert (
            "(assert (=> a0_s1 (and v0_s1 v1_s2 (= v0_s1 v0_s2))))" in text
        )
        assert "(assert a0_s1)" in text  # single-action disjunction collapses
        assert "(assert (xor v0_s1 v0_s2))" in text or (
            "(assert (or (xor v0_s1 v0_s2) (xor v1_s1 v1_s2)))" in text
        )

    def test_no_actions_forces_false(self):
        system = System.from_names(["v1"], ())
        text = encode_factored(system, 1).rendering
        assert "(assert false)" in text

    def test_get_model_appended(self, clique2):
        text = encode_factored(clique2, 1, get_model=True).rendering
        assert text.rstrip().endswith("(get-model)")

    def test_negative_literals_rendered(self):
        system = System.from_names(
            ["v1"], (Action(PartialState(1, 0), PartialState(1, 1)),)
        )
        text = encode_factored(system, 1).rendering
        assert "(assert (=> a0_s1 (and (not v0_s1) v0_s2)))" in text


class TestRunSolver:
    def test_sat_unsat_protocol(self, solver_cfg):
        sat_doc = encode_factored(gen_clique(2), 1)
        assert run_solver(sat_doc, solver_cfg).status == "sat"
        unsat_doc = encode_factored(System.from_names(["v1"], ()), 1)
        assert run_solver(unsat_doc, solver_cfg).status == "unsat"

    def test_missing_executable_is_solver_error(self, clique2):
        cfg = SolverConfig(command=("/nonexistent/solver-binary",))
        verdict = run_solver(encode_factored(clique2, 1), cfg)
        assert verdict.status == "solver-error"

    def test_garbage_output_is_solver_error(self, clique2):
        cfg = SolverConfig(command=(sys.executable, "-c", "print('hello')"))
        verdict = run_solver(encode_factored(clique2, 1), cfg)
        assert verdict.status == "solver-error"

    def test_timeout(self, clique2):
        cfg = SolverConfig(
            command=(sys.executable, "-c", "import time; time.sleep(30)"),
            timeout_ms=200,
        )
        verdict = run_solver(encode_factored(clique2, 1), cfg)
        assert verdict.status == "timeout"

    @pytest.mark.parametrize("timeout_ms", [0, -5])
    def test_timeout_below_one_rejected(self, timeout_ms):
        with pytest.raises(ValueError, match="timeout_ms"):
            SolverConfig.bundled(timeout_ms=timeout_ms)
        with pytest.raises(ValueError, match="timeout_ms"):
            SolverConfig(command=("unused",), timeout_ms=timeout_ms)

    def test_script_file_placeholder(self, clique2):
        from statebound import minisolver

        cfg = SolverConfig(command=(sys.executable, minisolver.__file__, "{script}"))
        verdict = run_solver(encode_factored(clique2, 1), cfg)
        assert verdict.status == "sat"

    def test_comment_lines_skipped(self, clique2):
        cfg = SolverConfig(
            command=(sys.executable, "-c", "print('; preamble'); print('sat')")
        )
        verdict = run_solver(encode_factored(clique2, 1), cfg)
        assert verdict.status == "sat"


# sha256 of the renderings for k = 1..top, concatenated. Scripts written by
# ``rd --emit-smt`` and handed to an external solver hold, as every query
# does, the declarations of steps 0..k and then their assertions, each
# step's in the order the step holds them; these bytes pin that order.
_RENDERING_DIGESTS = {
    ("lotus3", "explicit"): "35ff8676eb1ca305622ef4b884db4b94d6a8047cfdaea08bb229ce38293e6df6",
    ("lotus3", "factored"): "88989ea8a2c752a1301b240c58e54f50c1881509858a7fda1e38ffdaf7de8682",
    ("clique3", "explicit"): "7b515313ddd7f6fd472d2cc9f5de3cd9c36e8d3881e745e1a79373b307ac4ac4",
    ("clique3", "factored"): "18ac22dea5c55fb8c722a86b25cba442eca33568fbd5860ae518302fd30e9c98",
    ("star4", "explicit"): "7cb53b7eb42aac3b053c776736ec60c90de7b834f24cb66d1beffc6fb36c2365",
    ("star4", "factored"): "7355a20a8749b481b6afa36f7ed64d6c6900fc99bca887cbf0d37bdb3f36291d",
    ("random3", "explicit"): "a4170fd7cf8bd0f5afe7ca0e1cfea71349a5e60224fdaf297bdff590af6aabfd",
    ("random3", "factored"): "2b50df7d8aece2537a04fea38e894c901cc543ea2b63741567fde37e7f95c4f8",
    ("lotus5", "explicit"): "1a665c05476db5924787c5339feaee6a864550b2766461539e973a8a459ab6f1",
    ("lotus5", "factored"): "1def7216b7cce28d0fb76c5641e4be61728af25d2245339993b2b18ff5455317",
    ("clique2", "explicit"): "77a384e468b597469019bf1a4de164e95f4ccedb07f3562f7c8d699a1d7aa257",
    ("clique2", "factored"): "31d42988194f3017af49db2ef0a5503c2e6053e31a63a74ed25c318a35dab419",
    ("random3-to-k9", "explicit"): "4a7eb4790b7cf717719477a83c144e4ddecec023e259cd163073380c58519343",
    ("random3-to-k9", "factored"): "2d8696dfe7f0e9b5aaf28eed3758dfa2ab7e2a94ce72349388bca4d18e0c5679",
}
_RANDOM3 = GeneratorSpec("random", seed=3, num_vars=5, num_actions=6)
_DIGEST_SYSTEMS = {  # name -> (system, top k)
    "lotus3": (lambda: gen_lotus(3), 4),
    "clique3": (lambda: gen_clique(3), 4),
    "star4": (lambda: gen_star(4), 4),
    "random3": (lambda: gen_random(_RANDOM3), 4),
    "lotus5": (lambda: gen_lotus(5), 3),
    "clique2": (lambda: gen_clique(2), 4),
    "random3-to-k9": (lambda: gen_random(_RANDOM3), 9),
}


def _as_tuples(tree):
    """An s-expression as ``minisolver.parse_sexprs`` reads it, each list a tuple."""
    return tree if isinstance(tree, str) else tuple(map(_as_tuples, tree))


@pytest.mark.parametrize("encoding", smt.ENCODINGS)
def test_text_reads_back_as_the_trees(encoding):
    """A query's rendering, read back, is the document's own trees, command
    for command and in order."""
    for seed in range(1, 6):
        system = make_random(equivalence_family(seed))
        steps = smt.steps_of(system, encoding)
        for k in range(1, recurrence_diameter_bruteforce(system) + 2):
            doc = smt.encode(system, k, encoding, steps=steps)
            read = _as_tuples(minisolver.parse_sexprs(doc.rendering))
            assert read == (
                ("set-logic", "QF_UF"),
                *doc.declarations,
                *(("assert", a) for a in doc.assertions),
                ("check-sat",),
            ), (seed, k)


@pytest.mark.parametrize("encoding", smt.ENCODINGS)
def test_query_is_its_steps_in_order(encoding):
    """A query holds the declarations of its steps 0..k, then their
    assertions, each step's in the order the step holds them."""
    for seed in range(1, 6):
        system = make_random(equivalence_family(seed))
        steps = smt.steps_of(system, encoding)
        for k in range(1, recurrence_diameter_bruteforce(system) + 2):
            doc = smt.encode(system, k, encoding, steps=steps)
            assert doc.declarations == tuple(d for step in doc.steps for d in step.declarations)
            assert doc.assertions == tuple(a for step in doc.steps for a in step.assertions)
            assert doc.steps == steps.upto(k), (seed, k)


@pytest.mark.parametrize("name,encoding", sorted(_RENDERING_DIGESTS))
def test_rendering_digests(name, encoding):
    """The script bytes; an explicit query gives the same whether it builds
    its steps or shares them."""
    make, top = _DIGEST_SYSTEMS[name]
    system = make()
    if encoding == "factored":
        encoders = [lambda k: encode_factored(system, k)]
    else:
        steps = smt.steps_of(system, "explicit")
        encoders = [
            lambda k: encode_explicit(system, k),
            lambda k: encode_explicit(system, k, steps=steps),
        ]
    for encoder in encoders:
        text = "".join(encoder(k).rendering for k in range(1, top + 1))
        assert hashlib.sha256(text.encode()).hexdigest() == _RENDERING_DIGESTS[name, encoding]


class TestRdViaSmt:
    def test_explicit_search_builds_one_graph(self, monkeypatch):
        """Every query of one explicit search, and its td, share one graph."""
        built = []
        build = oracle.build_transition_graph
        monkeypatch.setattr(
            oracle, "build_transition_graph", lambda *a, **kw: built.append(a) or build(*a, **kw)
        )
        system = make_random(equivalence_family(5))
        result = rd_via_smt(system, "explicit", SolverConfig.bundled(), "binary")
        assert len(result.queries) > 1 and len(built) == 1

    def test_clique_linear_query_log(self, clique2, solver_cfg):
        result = rd_via_smt(clique2, "factored", solver_cfg, "linear")
        assert result.rd == 3 and result.exact
        assert [k for k, _ in result.queries] == [1, 2, 3, 4]
        assert [v.status for _, v in result.queries] == ["sat", "sat", "sat", "unsat"]

    def test_lotus7_binary(self, solver_cfg):
        result = rd_via_smt(gen_lotus(7), "factored", solver_cfg, "binary")
        assert result.rd == 2 and result.exact

    def test_explicit_encoding_agrees(self, clique2, solver_cfg):
        assert rd_via_smt(clique2, "explicit", solver_cfg).rd == 3

    def test_no_action_system(self, solver_cfg):
        result = rd_via_smt(System.from_names(["v1"], ()), "factored", solver_cfg)
        assert result.rd == 0 and result.exact
        assert [v.status for _, v in result.queries] == ["unsat"]

    def test_single_set_action(self, solver_cfg):
        system = System.from_names(
            ["v1"], (Action(PartialState(), PartialState(1, 1)),)
        )
        result = rd_via_smt(system, "factored", solver_cfg, "linear")
        assert result.rd == 1
        assert [v.status for _, v in result.queries] == ["sat", "unsat"]

    def test_monotone_verdicts(self, solver_cfg):
        for system in (gen_lotus(3), gen_star(3), make_random(equivalence_family(5))):
            rd = recurrence_diameter_bruteforce(system)
            from statebound.minisolver import solve_text
            from statebound.smt import encode_factored as enc

            for k in range(1, rd + 3):
                status = solve_text(enc(system, k).rendering)[0]
                assert status == ("sat" if k <= rd else "unsat"), (system, k)

    def test_oracle_equivalence_sample(self, solver_cfg):
        for seed in range(1, 13):
            system = make_random(equivalence_family(seed))
            expect = recurrence_diameter_bruteforce(system)
            fact = rd_via_smt(system, "factored", solver_cfg, "linear")
            expl = rd_via_smt(system, "explicit", solver_cfg, "binary")
            assert fact.rd == expl.rd == expect, (seed, fact.rd, expl.rd, expect)

    def test_solver_error_carries_query_log(self, clique2):
        cfg = SolverConfig(command=("/nonexistent/solver-binary",))
        with pytest.raises(SolverError) as info:
            rd_via_smt(clique2, "factored", cfg)
        assert len(info.value.queries) == 1

    def test_timeout_gives_lower_bound(self, clique2):
        cfg = SolverConfig(
            command=(sys.executable, "-c", "import time; time.sleep(30)"),
            timeout_ms=150,
        )
        result = rd_via_smt(clique2, "factored", cfg)
        assert not result.exact and result.rd == 0

    def test_bad_arguments(self, clique2, solver_cfg):
        with pytest.raises(ValueError):
            rd_via_smt(clique2, "tabular", solver_cfg)
        with pytest.raises(ValueError):
            rd_via_smt(clique2, "factored", solver_cfg, schedule="golden")


def _solver_asked(monkeypatch) -> list:
    """Patch run_solver so that the k of every query it gets is recorded."""
    asked, solve = [], smt.run_solver

    def recording(doc, cfg, session=None):
        asked.append(doc.k)
        return solve(doc, cfg, session)

    monkeypatch.setattr(smt, "run_solver", recording)
    return asked


class TestTdBound:
    """A search that has the transition graph answers every k above its td
    unsat without the solver, and logs it as a bound answer; these tests
    check each such answer instead of trusting it."""

    @pytest.mark.parametrize("schedule", smt.SCHEDULES)
    def test_explicit_search_asks_nothing_above_td(self, schedule, monkeypatch):
        """Every k above td is a bound answer that the query's text, read by
        a fresh solver, also refutes; every k up to td goes to the solver."""
        cfg, checked = SolverConfig.bundled(), 0
        for seed in range(1, 21):
            system = make_random(equivalence_family(seed))
            td = oracle.traversal_diameter(system)
            asked = _solver_asked(monkeypatch)
            result = rd_via_smt(system, "explicit", cfg, schedule)
            monkeypatch.undo()
            assert result.exact and result.rd == recurrence_diameter_bruteforce(system), seed
            assert asked == [k for k, _ in result.queries if k <= td], seed
            for k, verdict in result.queries:
                if k > td:
                    assert verdict == SolverVerdict("unsat", 0.0, raw=f"td={td}"), (seed, k)
                    assert minisolver.check_text(encode_explicit(system, k).rendering)[0] == "unsat"
                    checked += 1
        assert checked >= 15

    @pytest.mark.parametrize("schedule", smt.SCHEDULES)
    def test_factored_search_on_a_graph_matches_the_system(self, schedule, monkeypatch):
        """Given the graph, the factored search cuts above td and keeps the
        system's rd, exactness and (k, status) log; given the system, it
        builds no graph and sends every k to the solver."""
        cfg, cut = SolverConfig.bundled(), 0
        for seed in range(1, 21):
            system = make_random(equivalence_family(seed))
            graph = build_transition_graph(system)
            td = oracle.traversal_diameter(graph)
            asked = _solver_asked(monkeypatch)
            monkeypatch.setattr(oracle, "build_transition_graph", None)  # no graph may be built
            there = rd_via_smt(system, "factored", cfg, schedule)
            assert asked == [k for k, _ in there.queries], seed
            asked.clear()
            here = rd_via_smt(graph, "factored", cfg, schedule)
            monkeypatch.undo()
            assert (here.rd, here.exact) == (there.rd, there.exact), seed
            assert [(k, v.status) for k, v in here.queries] == [
                (k, v.status) for k, v in there.queries
            ], seed
            assert asked == [k for k, _ in here.queries if k <= td], seed
            cut += len(here.queries) - len(asked)
        assert cut >= 15


_STATUS = {"s": "sat", "u": "unsat", "t": "timeout", "e": "solver-error", "?": "unknown"}


def _log(text):
    return [(int(cell[:-1]), _STATUS[cell[-1]]) for cell in text.split()]


# schedule, exp, rd, statuses forced at some k -> (k, status) log, then
# (rd, exact), or "error" for a SolverError carrying that log.
_SCHEDULE_TABLE = [
    ("linear", 3, 3, "", "1s 2s 3s 4u", (3, True)),
    ("linear", 3, 0, "", "1u", (0, True)),
    ("linear", 7, 4, "3t", "1s 2s 3t", (2, False)),
    ("linear", 7, 4, "3e", "1s 2s 3e", "error"),
    ("linear", 1, 3, "", "1s 2s", "error"),  # sat beyond exp
    ("binary", 7, 5, "", "1s 2s 4s 8u 6u 5s", (5, True)),
    ("binary", 7, 0, "", "1u", (0, True)),
    ("binary", 5, 5, "", "1s 2s 4s 6u 5s", (5, True)),  # doubling capped at exp + 1
    ("binary", 5, 4, "", "1s 2s 4s 6u 5u", (4, True)),
    ("binary", 7, 5, "4t", "1s 2s 4t", (2, False)),  # timeout while doubling
    ("binary", 7, 5, "6t", "1s 2s 4s 8u 6t", (4, False)),  # timeout while bisecting
    ("binary", 7, 5, "6?", "1s 2s 4s 8u 6?", "error"),
    ("binary", 3, 7, "", "1s 2s 4s", "error"),  # sat beyond exp
]


@pytest.mark.parametrize(
    "schedule,exp,rd,forced,log,outcome",
    _SCHEDULE_TABLE,
    ids=[f"{row[0]}-exp{row[1]}-rd{row[2]}-{row[3] or 'none'}" for row in _SCHEDULE_TABLE],
)
def test_search_schedule_table(schedule, exp, rd, forced, log, outcome, clique2, monkeypatch):
    """A stub solver answers sat for k <= rd and unsat above, except where a
    status is forced; the table pins the exact k each schedule asks."""
    forced = dict(_log(forced))

    def stub(doc, cfg, session=None):
        return SolverVerdict(forced.get(doc.k, "sat" if doc.k <= rd else "unsat"), 0.0)

    monkeypatch.setattr("statebound.smt.run_solver", stub)
    monkeypatch.setattr("statebound.smt.exp_bound", lambda system: exp)
    cfg = SolverConfig(command=("unused",))
    if outcome == "error":
        with pytest.raises(SolverError) as info:
            rd_via_smt(clique2, "factored", cfg, schedule)
        queries = info.value.queries
    else:
        result = rd_via_smt(clique2, "factored", cfg, schedule)
        assert (result.rd, result.exact) == outcome
        queries = result.queries
    assert [(k, v.status) for k, v in queries] == _log(log)


# The bundled solver as a process, one per query: the path any other command takes.
_SPAWNED = SolverConfig(command=(sys.executable, minisolver.__file__, "{script}"))


def _pigeonhole(pigeons: int, holes: int) -> SmtDocument:
    cell = [[f"p{i}_{j}" for j in range(holes)] for i in range(pigeons)]
    assertions = ["(or " + " ".join(row) + ")" for row in cell]
    assertions += [
        f"(not (and {cell[a][j]} {cell[b][j]}))"
        for j in range(holes)
        for a in range(pigeons)
        for b in range(a + 1, pigeons)
    ]
    return SmtDocument(
        logic="QF_UF",
        declarations=tuple(f"(declare-fun {name} () Bool)" for row in cell for name in row),
        assertions=tuple(assertions),
        encoding="factored",
        k=1,
    )


def _unsupported(system, k, **kwargs):
    return SmtDocument(
        logic="QF_UF",
        declarations=("(declare-fun f (Bool) Bool)",),
        assertions=(),
        encoding="factored",
        k=k,
    )


class TestInProcessBundled:
    """The bundled command runs in the calling thread; the same solver
    spawned per query must give the same answers."""

    @pytest.mark.parametrize("encoding,schedule", [("factored", "linear"), ("explicit", "binary")])
    def test_query_logs_match_spawned(self, encoding, schedule):
        bundled = SolverConfig.bundled()
        for seed in range(1, 21):
            system = make_random(equivalence_family(seed))
            here = rd_via_smt(system, encoding, bundled, schedule)
            there = rd_via_smt(system, encoding, _SPAWNED, schedule)
            assert [(k, v.status) for k, v in here.queries] == [
                (k, v.status) for k, v in there.queries
            ], seed
            assert (here.rd, here.exact) == (there.rd, there.exact)

    def test_models_match_spawned(self, clique2):
        for system, k in ((clique2, 3), (gen_lotus(3), 2), (make_random(equivalence_family(5)), 2)):
            for encode in (encode_factored, encode_explicit):
                doc = encode(system, k, get_model=True)
                here = run_solver(doc, SolverConfig.bundled())
                there = run_solver(doc, _SPAWNED)
                assert here.status == there.status == "sat"
                assert here.model == there.model
                assert here.raw == there.raw == "sat"

    def test_no_process_is_spawned(self, clique2, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bundled solver spawned a process")

        monkeypatch.setattr(smt.subprocess, "run", refuse)
        result = rd_via_smt(clique2, "factored", SolverConfig.bundled())
        assert result.rd == 3 and result.exact

    def test_stubbed_clock_past_deadline_times_out(self, clique2, monkeypatch):
        asked = []
        encode = smt.encode_factored

        def recording(system, k, **kwargs):
            asked.append(k)
            return encode(system, k, **kwargs)

        monkeypatch.setattr(smt, "encode_factored", recording)
        # The clock reads far past any deadline while k = 3 is solved.
        monkeypatch.setattr(minisolver, "_clock", lambda: math.inf if asked[-1] == 3 else 0.0)
        cfg = SolverConfig.bundled()
        assert run_solver(smt.encode_factored(clique2, 3), cfg).status == "timeout"
        result = rd_via_smt(clique2, "factored", cfg, "linear")
        assert (result.rd, result.exact) == (2, False)
        assert [(k, v.status) for k, v in result.queries] == [
            (1, "sat"), (2, "sat"), (3, "timeout")
        ]

    def test_hard_script_times_out_on_the_clock(self):
        # Pigeonhole 8 -> 7 takes seconds of CDCL; the deadline stops it.
        verdict = run_solver(_pigeonhole(8, 7), SolverConfig.bundled(timeout_ms=50))
        assert verdict.status == "timeout"
        assert verdict.elapsed_ms < 1000

    @pytest.mark.parametrize("cfg", [SolverConfig.bundled(), _SPAWNED], ids=["in-process", "spawned"])
    def test_unsupported_script_is_unknown(self, cfg, clique2, monkeypatch):
        verdict = run_solver(_unsupported(clique2, 1), cfg)
        reason = "function symbols with arguments are not supported"
        assert (verdict.status, verdict.raw) == ("unknown", reason)
        monkeypatch.setattr(smt, "encode_factored", _unsupported)
        with pytest.raises(SolverError) as info:
            rd_via_smt(clique2, "factored", cfg)
        assert [(k, v.status) for k, v in info.value.queries] == [(1, "unknown")]
        assert reason in str(info.value)

    @pytest.mark.parametrize("cfg", [SolverConfig.bundled(), _SPAWNED], ids=["in-process", "spawned"])
    @pytest.mark.parametrize(
        "command",
        [
            "(declare-fun x Bool)",
            "(declare-fun)",
            "(declare-sort)",
            "(declare-const c)",
            "(declare-fun (f) () Bool)",
        ],
    )
    def test_malformed_command_is_unknown(self, cfg, command):
        doc = SmtDocument(
            logic="QF_UF", declarations=(command,), assertions=(), encoding="factored", k=1
        )
        verdict = run_solver(doc, cfg)
        reason = minisolver.check_text(doc.rendering)[2]
        assert reason and (verdict.status, verdict.raw) == ("unknown", reason)

    def test_solver_crash_is_solver_error(self, clique2, monkeypatch):
        def crash(text, deadline=None):
            raise AssertionError("internal check failed")

        monkeypatch.setattr(minisolver, "check_text", crash)
        verdict = run_solver(encode_factored(clique2, 1), SolverConfig.bundled())
        assert verdict.status == "solver-error"
        assert "internal check failed" in verdict.raw

    def test_one_argument_entry_points(self):
        text = "(declare-fun a () Bool)(assert a)(check-sat)"
        assert len(minisolver.parse_sexprs(text)) == 3
        assert minisolver.interpret(text) == ("sat", [])


def _fresh_starts(monkeypatch) -> list:
    """Patch the grounder so that every fresh start is recorded."""
    starts = []

    class Recorded(minisolver.Grounder):
        def __init__(self, script):
            starts.append(self)
            super().__init__(script)

    monkeypatch.setattr(minisolver, "Grounder", Recorded)
    return starts


def _solved_fresh(monkeypatch):
    """Make rd_via_smt solve every query fresh, as if it kept no session."""
    solve = smt.run_solver
    monkeypatch.setattr(smt, "run_solver", lambda doc, cfg, session=None: solve(doc, cfg))


class TestSolverSession:
    """rd_via_smt keeps one bundled-solver session per search: each query
    grounds only its steps not loaded yet, from their trees, into the same
    grounder, and a bisection back down loads nothing."""

    @pytest.mark.parametrize(
        "encoding,schedule",
        [("factored", "linear"), ("factored", "binary"), ("explicit", "linear"), ("explicit", "binary")],
    )
    def test_query_logs_match_fresh_solving(self, encoding, schedule, monkeypatch):
        cfg = SolverConfig.bundled()
        systems = [make_random(equivalence_family(seed)) for seed in range(1, 21)]
        starts = _fresh_starts(monkeypatch)
        session_logs = [rd_via_smt(system, encoding, cfg, schedule) for system in systems]
        fresh_starts = len(starts)
        _solved_fresh(monkeypatch)
        fresh_logs = [rd_via_smt(system, encoding, cfg, schedule) for system in systems]
        for seed, (here, there) in enumerate(zip(session_logs, fresh_logs), start=1):
            assert [(k, v.status) for k, v in here.queries] == [
                (k, v.status) for k, v in there.queries
            ], seed
            assert (here.rd, here.exact) == (there.rd, there.exact)
        assert fresh_starts == len(systems)  # every query holds the first one's lines

    def test_bound_batch_reports_match_fresh_solving(self, monkeypatch):
        """The bound-batch family under b2: same per-cluster values,
        properties and query counts with and without sessions. A one-unit
        search budget sends every rd cluster to the solver."""
        systems = [
            gen_random(GeneratorSpec("random", seed=seed, num_vars=12, num_actions=12, max_pre=2, max_eff=2))
            for seed in range(1, 51)
        ]
        cfg = BoundConfig(solver=SolverConfig.bundled(), rd_budget=1)

        def clusters():
            return [
                [(c.value, c.property_used, c.rd_queries) for c in report.per_cluster]
                for report in (compositional_bound(s, BaseCaseKind("b2"), cfg) for s in systems)
            ]

        with_sessions = clusters()
        assert sum(c[2] for report in with_sessions for c in report) > 100
        _solved_fresh(monkeypatch)
        assert with_sessions == clusters()

    @pytest.mark.parametrize("encoding", smt.ENCODINGS)
    def test_binary_search_grounds_each_step_once(self, encoding, monkeypatch):
        """Seed 2's binary search asks k = 1, 2, 4, 8, 6, 5: one grounder,
        the base and each step up to 8 ground once, one selector per step,
        and the bisection back down to 6 and 5 grounds nothing. An explicit
        search answers 8, 6 and 5 from its td of 4, so the explicit
        documents go to one session here, in the search's order."""
        starts = _fresh_starts(monkeypatch)
        ground = minisolver.Grounder.ground
        grounded = []  # the script's assertions at each ground

        def recording(grounder, deadline=None):
            grounded.append(len(grounder.script.assertions))
            ground(grounder, deadline)

        monkeypatch.setattr(minisolver.Grounder, "ground", recording)
        system = make_random(equivalence_family(2))
        cfg, asked = SolverConfig.bundled(), [1, 2, 4, 8, 6, 5]
        if encoding == "factored":
            log = rd_via_smt(system, encoding, cfg, "binary").queries
        else:
            session, steps = smt.SolverSession(), smt.steps_of(system, encoding)
            docs = [encode_explicit(system, k, steps=steps) for k in asked]
            log = [(doc.k, run_solver(doc, cfg, session)) for doc in docs]
        assert [(k, v.status) for k, v in log] == [(k, "sat" if k <= 4 else "unsat") for k in asked]
        (grounder,) = starts
        assert len(grounder.selectors) == 8
        steps = smt.steps_of(system, encoding).upto(8)
        assert grounded == list(accumulate(len(step.assertions) for step in steps))

    def test_queries_in_any_order_share_one_grounder(self, clique2, monkeypatch):
        """Each step stays under its selector as an assumption, so k = 1
        after a sat k = 3, and k = 2 after an unsat k = 4, extend the same
        grounder."""
        starts = _fresh_starts(monkeypatch)
        session = smt.SolverSession()
        steps = smt.steps_of(clique2, "factored")
        docs = [encode_factored(clique2, k, steps=steps) for k in (3, 1, 4, 2)]
        answers = [session.check(doc, math.inf)[0] for doc in docs]
        assert answers == [minisolver.check_text(doc.rendering)[0] for doc in docs]
        assert answers == ["sat", "sat", "unsat", "sat"]
        assert len(starts) == 1 + len(docs)  # the session's one, and a text check per query

    def test_query_after_a_timeout_starts_fresh(self, clique2, monkeypatch):
        starts = _fresh_starts(monkeypatch)
        session = smt.SolverSession()
        steps = smt.steps_of(clique2, "explicit")
        one, four = (encode_explicit(clique2, k, steps=steps) for k in (1, 4))
        assert session.check(one, math.inf)[0] == "sat"
        with pytest.raises(minisolver.SolverTimeout):
            session.check(four, -math.inf)
        assert len(starts) == 1  # k = 4 timed out extending k = 1's grounder
        assert session.check(four, math.inf)[0] == minisolver.check_text(four.rendering)[0] == "unsat"
        assert len(starts) == 3  # the session's fresh start, and the text's check

    def test_document_without_steps_is_answered_from_its_text(self, clique2, monkeypatch):
        """A document changed by dataclasses.replace carries no steps, so its
        lines are read, as a fresh solver reads them, and the session's
        grounder is left as it was. y3 is confined to the four states in the
        k = 2 query; put outside them, which a universe of seven values
        allows, it is unsat, since y2's successor clauses confine y3 too,
        where the session's grounder for k = 2 answers sat. v0_s5 is
        declared only at k = 4."""
        starts = _fresh_starts(monkeypatch)
        session = smt.SolverSession()
        two = encode_explicit(clique2, 2)
        confining = ("or", *(("=", "y3", f"s{u}") for u in range(4)))
        outside = dataclasses.replace(
            two,
            assertions=(
                *(a for a in two.assertions if a != confining),
                *(("not", ("=", "y3", f"s{u}")) for u in range(4)),
            ),
        )
        assert not outside.steps and confining in two.assertions
        assert session.check(two, math.inf)[0] == "sat"
        assert session.check(outside, math.inf) == ("unsat", None, "")
        steps = smt.steps_of(clique2, "factored")
        one, three, four = (encode_factored(clique2, k, steps=steps) for k in (1, 3, 4))
        stray = dataclasses.replace(one, assertions=(*one.assertions, "v0_s5"))
        assert [session.check(doc, math.inf)[0] for doc in (one, four)] == ["sat", "unsat"]
        assert session.check(stray, math.inf) == ("unknown", None, "unknown symbol v0_s5")
        assert minisolver.check_text(stray.rendering) == ("unknown", [], "unknown symbol v0_s5")
        starts_before = len(starts)
        assert session.check(three, math.inf)[0] == "sat"
        assert len(starts) == starts_before  # k = 3 extends k = 4's grounder

    def test_steps_are_checked_as_their_text(self):
        """A step that names an undeclared constant is refused, as the text
        that renders it is."""
        base = smt.Step((("declare-fun", "a", (), "Bool"),), ())
        step = smt.Step((), (("and", "a", "b"),))
        doc = smt._assembled((base, step), "factored", False)
        answer = smt.SolverSession().check(doc, math.inf)
        assert answer == smt._check_text(doc, math.inf) == ("unknown", None, "unknown symbol b")

    def test_deep_step_is_unknown(self):
        """A step nested past the recursion limit is ``unknown``, with or
        without a session, as its text is."""
        term = "a"
        for _ in range(3000):
            term = ("not", term)
        base = smt.Step((("declare-fun", "a", (), "Bool"),), ())
        doc = smt._assembled((base, smt.Step((), (term,))), "factored", False)
        text = "(declare-fun a () Bool)(assert " + "(not " * 3000 + "a" + ")" * 3001 + "(check-sat)"
        assert minisolver.check_text(text) == ("unknown", [], "term nested too deeply")
        for session in (None, smt.SolverSession()):
            verdict = run_solver(doc, SolverConfig.bundled(), session)
            assert (verdict.status, verdict.raw) == ("unknown", "term nested too deeply")

    @pytest.mark.parametrize("schedule", smt.SCHEDULES)
    def test_refused_steps_are_answered_from_the_text(self, schedule, monkeypatch):
        """A one-state system's explicit step asserts (= y2 s0), not an or of
        equalities, so y2 is left unconfined: the grounder refuses the step
        and the query is answered from its text. Its td is 0, so its search
        answers k = 1 without a query under either schedule, and the k = 1
        document goes to a session here."""
        check_text, texts = smt._check_text, []

        def recording(doc, deadline):
            texts.append(doc.k)
            return check_text(doc, deadline)

        monkeypatch.setattr(smt, "_check_text", recording)
        system, cfg = System.from_names(["v1"], ()), SolverConfig.bundled()
        result = rd_via_smt(system, "explicit", cfg, schedule)
        assert (result.rd, result.exact) == (0, True)
        assert [(k, v.status, v.raw) for k, v in result.queries] == [(1, "unsat", "td=0")]
        assert texts == []
        verdict = run_solver(encode_explicit(system, 1), cfg, smt.SolverSession())
        assert (verdict.status, texts) == ("unsat", [1])

    def test_extended_query_answers_and_models(self, clique2):
        session = smt.SolverSession()
        cfg = SolverConfig.bundled()
        for k, status in ((2, "sat"), (3, "sat"), (4, "unsat")):
            doc = encode_factored(clique2, k, get_model=True)
            verdict = run_solver(doc, cfg, session)
            assert verdict.status == status
            if status == "sat":
                states, _ = decode_factored_model(clique2, k, verdict.model)
                assert len(set(states)) == k + 1

    def test_deadline_mid_session_is_a_lower_bound(self, monkeypatch):
        # clique 3's k = 8 refutation takes seconds; k = 1..7 take milliseconds.
        starts = _fresh_starts(monkeypatch)
        result = rd_via_smt(gen_clique(3), "factored", SolverConfig.bundled(timeout_ms=200))
        assert (result.rd, result.exact) == (7, False)
        assert [(k, v.status) for k, v in result.queries] == [
            *((k, "sat") for k in range(1, 8)), (8, "timeout")
        ]
        assert len(starts) == 1  # k = 8 timed out inside the session
        assert result.queries[-1][1].elapsed_ms < 2000


class TestModelDecoding:
    def test_factored_model_is_a_real_path(self, solver_cfg):
        for system in (gen_clique(2), gen_lotus(3)):
            rd = recurrence_diameter_bruteforce(system)
            doc = encode_factored(system, rd, get_model=True)
            verdict = run_solver(doc, solver_cfg)
            assert verdict.status == "sat" and verdict.model
            states, enabled = decode_factored_model(system, rd, verdict.model)
            assert len(states) == rd + 1
            assert len(set(states)) == rd + 1  # pairwise distinct
            graph = build_transition_graph(system)
            for i, step_actions in enumerate(enabled):
                assert step_actions, f"no action enabled at step {i + 1}"
                for action in step_actions:
                    assert execute(system, states[i], action) == states[i + 1]


class TestEncodingSize:
    def test_factored_smaller_than_explicit_at_six_vars(self):
        system = gen_random(
            GeneratorSpec("random", seed=424, num_vars=6, num_actions=10, max_pre=2, max_eff=2)
        )
        assert system.num_domain_vars == 6 and len(system.actions) == 10
        factored = len(encode_factored(system, 10).rendering.encode())
        explicit = len(encode_explicit(system, 10).rendering.encode())
        assert factored < explicit
