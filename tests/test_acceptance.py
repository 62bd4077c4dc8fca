"""Acceptance suite: one test per criterion, each printing a pass line.

The SMT-backed criteria run through the configured solver (STATEBOUND_SOLVER
when set, the bundled one in-process otherwise); the stated runtime
budgets assume a working install on an unloaded machine.
"""

import csv
import io as stdio
import time

import pytest

from statebound.compose import BaseCaseKind, BoundConfig, compositional_bound
from statebound.core import build_transition_graph
from statebound.gen import (
    GeneratorSpec,
    disjoint_union,
    gen_clique,
    gen_lotus,
    gen_random,
    gen_star,
)
from statebound.io import parse_system, serialize_system
from statebound.oracle import (
    diameter,
    exp_bound,
    recurrence_diameter_bruteforce,
    traversal_diameter,
)
from statebound.smt import (
    SolverConfig,
    encode_explicit,
    encode_factored,
    rd_via_smt,
    run_solver,
)

from conftest import chain_family, equivalence_family


@pytest.fixture(scope="module")
def solver() -> SolverConfig:
    return SolverConfig.from_env(timeout_ms=300_000)


@pytest.fixture(scope="module")
def equivalence_suite():
    """The 100 seeded systems for the oracle/SMT criteria, with their exact
    longest-simple-path lengths from the explicit-search oracle."""
    suite = []
    for seed in range(1, 101):
        system = gen_random(equivalence_family(seed))
        suite.append((seed, system, recurrence_diameter_bruteforce(system)))
    return suite


@pytest.fixture(scope="module")
def chain_suite():
    """The 500 seeded systems for the chain and composition criteria."""
    return [(seed, gen_random(chain_family(seed))) for seed in range(1, 501)]


def test_criterion_01_worked_example_regression(clique2, star3):
    started = time.perf_counter()
    assert diameter(clique2) == 1
    assert recurrence_diameter_bruteforce(clique2) == 3
    assert exp_bound(star3) == 3
    assert traversal_diameter(star3) == 1
    lotus3 = gen_lotus(3)
    assert recurrence_diameter_bruteforce(lotus3) == 2
    assert traversal_diameter(lotus3) == 3
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"[criterion 1] PASS worked-example regression ({elapsed:.2f}s)")


def test_criterion_02_lotus_separation(solver):
    started = time.perf_counter()
    for n in (3, 7, 15, 31):
        system = gen_lotus(n)
        assert recurrence_diameter_bruteforce(system) == 2, n
        assert traversal_diameter(system) == n, n
        assert traversal_diameter(system) >= 2 ** (system.num_domain_vars - 2), n
    oracle_elapsed = time.perf_counter() - started
    assert oracle_elapsed < 5.0
    for n in (3, 7, 15):
        result = rd_via_smt(gen_lotus(n), "factored", solver, "linear")
        assert result.rd == 2 and result.exact, n
    print(
        f"[criterion 2] PASS lotus separation; oracles {oracle_elapsed:.2f}s, "
        f"factored confirmation for n<=15 ({time.perf_counter() - started:.1f}s total)"
    )


def test_criterion_03_oracle_smt_equivalence(equivalence_suite, solver):
    started = time.perf_counter()
    for seed, system, expect in equivalence_suite:
        factored = rd_via_smt(system, "factored", solver, "linear")
        assert factored.exact and factored.rd == expect, (seed, factored.rd, expect)
        explicit = rd_via_smt(system, "explicit", solver, "binary")
        assert explicit.exact and explicit.rd == expect, (seed, explicit.rd, expect)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"[criterion 3] PASS oracle/SMT equivalence on 100 systems ({elapsed:.0f}s)")


def test_criterion_04_monotone_satisfiability(equivalence_suite, solver):
    started = time.perf_counter()
    for seed, system, rd in equivalence_suite[:25]:
        for k in range(1, rd + 3):
            verdict = run_solver(encode_factored(system, k), solver)
            expect = "sat" if k <= rd else "unsat"
            assert verdict.status == expect, (seed, k, verdict.status, expect)
    print(
        f"[criterion 4] PASS monotone satisfiability on 25 systems "
        f"({time.perf_counter() - started:.0f}s)"
    )


def test_criterion_05_inequality_chain(chain_suite):
    started = time.perf_counter()
    for seed, system in chain_suite:
        graph = build_transition_graph(system)
        d = diameter(graph)
        rd = recurrence_diameter_bruteforce(graph)
        td = traversal_diameter(graph)
        exp = exp_bound(system)
        assert d <= rd <= td <= exp, (seed, d, rd, td, exp)
    print(
        f"[criterion 5] PASS d <= rd <= td <= exp on 500 systems "
        f"({time.perf_counter() - started:.0f}s)"
    )


@pytest.fixture(scope="module")
def composition_results(chain_suite):
    """Bounds for every base on the 500-system family (exact rd via the
    explicit-search fallback: no solver, no degradation)."""
    cfg = BoundConfig(solver=None)
    kinds = {tag: BaseCaseKind(tag) for tag in ("exp", "td", "rd", "b1", "b2")}
    results = []
    for seed, system in chain_suite:
        reports = {tag: compositional_bound(system, kind, cfg) for tag, kind in kinds.items()}
        results.append((seed, system, reports))
    return results


def test_criterion_06_compositional_admissibility(composition_results):
    started = time.perf_counter()
    for seed, system, reports in composition_results:
        d = diameter(system)
        for tag, report in reports.items():
            assert report.total >= d, (seed, tag, report.total, d)
        assert (
            reports["rd"].total <= reports["td"].total <= reports["exp"].total
        ), (seed, {t: r.total for t, r in reports.items()})
    print(
        f"[criterion 6] PASS admissibility and rd<=td<=exp ordering on 500 systems "
        f"({time.perf_counter() - started:.0f}s)"
    )


def test_criterion_07_b1_equals_rd(composition_results, tmp_path):
    for seed, system, reports in composition_results:
        b1, rd = reports["b1"], reports["rd"]
        if b1.degraded or rd.degraded:
            continue
        if b1.total != rd.total:
            # a diverging cluster would witness td in {0,1,2} with td != rd
            dump = tmp_path / f"conjecture_counterexample_seed{seed}.json"
            dump.write_text(
                serialize_system(system, "json", metadata={"seed": seed}),
                encoding="utf-8",
            )
            pytest.fail(
                f"b1/rd bound mismatch on seed {seed}: {b1.total} != {rd.total}; "
                f"candidate counterexample dumped to {dump}"
            )
    print("[criterion 7] PASS b1-based bounds equal rd-based bounds on 500 systems")


def test_criterion_08_lotus_product_gap():
    started = time.perf_counter()
    cfg = BoundConfig(solver=None)
    for copies in (1, 2, 3, 4):
        product = disjoint_union([gen_lotus(7)] * copies)
        b1_total = compositional_bound(product, BaseCaseKind("b1"), cfg).total
        td_total = compositional_bound(product, BaseCaseKind("td"), cfg).total
        assert b1_total * 3 <= td_total, (copies, b1_total, td_total)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"[criterion 8] PASS b1 at least 3x tighter than td on lotus products ({elapsed:.1f}s)")


def test_criterion_09_encoding_size_scaling():
    started = time.perf_counter()
    system = gen_random(
        GeneratorSpec("random", seed=424, num_vars=6, num_actions=10, max_pre=2, max_eff=2)
    )
    assert system.num_domain_vars == 6 and len(system.actions) == 10
    factored_bytes = len(encode_factored(system, 10).rendering.encode("utf-8"))
    explicit_bytes = len(encode_explicit(system, 10).rendering.encode("utf-8"))
    assert factored_bytes < explicit_bytes
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"[criterion 9] PASS factored script ({factored_bytes} B) smaller than "
        f"explicit ({explicit_bytes} B) ({elapsed:.2f}s)"
    )


def test_criterion_10_round_trip_and_determinism(tmp_path):
    # serialize/parse identity on 100 generated systems
    systems = [gen_clique(m) for m in (1, 2, 3)]
    systems += [gen_star(n) for n in range(1, 21)]
    systems += [gen_lotus(n) for n in range(1, 21)]
    systems += [
        gen_random(GeneratorSpec("random", seed=s, num_vars=4 + s % 3, num_actions=6))
        for s in range(1, 58)
    ]
    assert len(systems) == 100
    for system in systems:
        for fmt in ("json", "compact"):
            assert parse_system(serialize_system(system, fmt), fmt) == system

    # identical CLI invocations produce byte-identical CSV except timing columns
    from statebound.cli import main

    def run_bound(path):
        code = main(
            [
                "bound", "--gen", "random", "--seed", "7", "--vars", "5",
                "--actions", "8", "--base", "b1", "--csv", str(path),
            ]
        )
        assert code == 0

    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    run_bound(first)
    run_bound(second)
    timing_columns = {"rd_time_ms", "td_time_ms", "total_time_ms"}

    def split_columns(path):
        rows = list(csv.DictReader(stdio.StringIO(path.read_text())))
        stable = [
            {k: v for k, v in row.items() if k not in timing_columns} for row in rows
        ]
        timed = [
            {k: v for k, v in row.items() if k in timing_columns} for row in rows
        ]
        return stable, timed

    stable_one, timed_one = split_columns(first)
    stable_two, _ = split_columns(second)
    assert stable_one == stable_two
    assert all(set(t) == timing_columns for t in timed_one)
    print("[criterion 10] PASS round-trip on 100 systems and CSV determinism")
