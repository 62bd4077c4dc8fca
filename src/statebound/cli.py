"""Command-line front end: topological analysis, longest-simple-path search
through an external solver, compositional bounding over files or generated
families, and the td/rd coincidence harness.

Exit codes: 0 all requested outputs were produced, 2 configuration error
(an unreadable input or an unwritable output path among them), 3 input
parse error, 4 cap or solver hard failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

from . import io as sysio
from .compose import BASE_TAGS, BaseCaseKind, BoundConfig, BoundReport, compositional_bound
from .core import DEFAULT_VAR_CAP, StateSpaceTooLargeError, System, build_transition_graph, timed_ms
from .gen import GenerationError, GeneratorSpec, generate, provenance
from .oracle import (
    DEFAULT_RD_BUDGET,
    MAX_BOUND,
    SimplePathSearchTooLargeError,
    check_conjecture,
    compute_topo_report,
    exp_bound,
    longest_simple_path,
    recurrence_diameter_bruteforce,
    traversal_walk,
)
from .smt import (
    DEFAULT_TIMEOUT_MS,
    ENCODINGS,
    SCHEDULES,
    SOLVER_ENV_VAR,
    SolverConfig,
    SolverError,
    encode,
    rd_via_smt,
    steps_of,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_HARD = 4

# Count flags, on whichever subcommand has them; each must be at least 1.
_COUNT_FLAGS = ("jobs", "max_vars", "rd_budget", "timeout_ms", "max_k")


class _CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _machine_reason(exc: Exception) -> str:
    kind = {
        StateSpaceTooLargeError: "state-space-too-large",
        SimplePathSearchTooLargeError: "simple-path-search-too-large",
        SolverError: "solver-failure",
        sysio.SystemParseError: "parse-error",
        GenerationError: "generator-error",
    }.get(type(exc), "error")
    return json.dumps({"error": kind, "detail": str(exc)})


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("input")
    group.add_argument("--input", metavar="PATH", help="system file (.json or compact text)")
    group.add_argument("--format", choices=("json", "compact"), help="override input format")
    group.add_argument(
        "--gen", choices=("clique", "star", "lotus", "random"), help="generate the input system"
    )
    group.add_argument("--n", type=int, help="size parameter for star/lotus/random families")
    group.add_argument("--m", type=int, help="variable count for the clique family")
    group.add_argument("--seed", type=int, default=0, help="random-family seed")
    group.add_argument("--vars", type=int, default=4, help="random-family variable count")
    group.add_argument("--actions", type=int, default=6, help="random-family action count")
    group.add_argument("--max-pre", type=int, default=2, help="random-family precondition size cap")
    group.add_argument("--max-eff", type=int, default=2, help="random-family effect size cap")


def _add_cap_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-vars", type=int, default=DEFAULT_VAR_CAP, help="explicit-state variable cap"
    )
    parser.add_argument(
        "--rd-budget",
        type=int,
        default=DEFAULT_RD_BUDGET,
        help="simple-path search work budget: DFS pushes plus reach-count visits",
    )


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--solver-cmd", help=f"solver command (default ${SOLVER_ENV_VAR} or bundled)")
    parser.add_argument("--timeout-ms", type=int, default=DEFAULT_TIMEOUT_MS, help="per-query timeout")
    parser.add_argument("--schedule", choices=SCHEDULES, default="linear")


def _read_system(path: Path, fmt: str | None) -> tuple[System, str]:
    """Returns (system, problem name) for one system file."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", EXIT_CONFIG) from exc
    except UnicodeDecodeError as exc:
        raise sysio.SystemParseError(
            f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}"
        ) from exc
    return sysio.parse_system(text, fmt or sysio.detect_format(path.name)), path.stem


def _random_spec(args: argparse.Namespace, seed: int) -> GeneratorSpec:
    """The random family at ``seed``, sized by the command's flags."""
    return GeneratorSpec(
        family="random",
        seed=seed,
        num_vars=args.vars,
        num_actions=args.actions,
        max_pre=args.max_pre,
        max_eff=args.max_eff,
    )


def _load_system(args: argparse.Namespace) -> tuple[System, str]:
    """Returns (system, problem name)."""
    if args.input and args.gen:
        raise _CliError("--input and --gen are mutually exclusive", EXIT_CONFIG)
    if args.input:
        return _read_system(Path(args.input), args.format)
    if args.gen:
        size = args.m if args.gen == "clique" else args.n
        if args.gen == "random":
            return generate(_random_spec(args, args.seed)), f"random_s{args.seed}"
        if size is None:
            raise _CliError(f"--gen {args.gen} needs --n (or --m for clique)", EXIT_CONFIG)
        spec = GeneratorSpec(family=args.gen, n=size)
        return generate(spec), f"{args.gen}_{size}"
    raise _CliError("one of --input or --gen is required", EXIT_CONFIG)


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    if args.solver_cmd:
        return SolverConfig.from_string(args.solver_cmd, timeout_ms=args.timeout_ms)
    return SolverConfig.from_env(timeout_ms=args.timeout_ms)


def _render_states(system: System, vertices) -> str:
    graph_states = [system.state_of_index(v) for v in vertices]
    return " -> ".join(f"[{system.format_state(s)}]" for s in graph_states)


def _fmt_bound(value: int) -> str:
    """Saturated values mean "at least this much"."""
    return f">={MAX_BOUND}" if value >= MAX_BOUND else str(value)


def cmd_topo(args: argparse.Namespace) -> int:
    system, name = _load_system(args)
    graph, graph_ms = timed_ms(build_transition_graph, system, max_vars=args.max_vars)
    report = compute_topo_report(graph, problem=name, budget=args.rd_budget)
    report.timings["graph_ms"] = graph_ms
    print(f"d={report.d} rd={report.rd} td={report.td} exp={_fmt_bound(report.exp)}")
    if args.witness:
        # The graph keeps the search result, so this does not search again.
        _, rd_path = longest_simple_path(graph, budget=args.rd_budget)
        walk = traversal_walk(graph)
        print("rd witness:", _render_states(system, rd_path))
        print("td walk:   ", _render_states(system, walk))
    if args.csv:
        sysio.write_report(report, args.csv)
    return EXIT_OK


def cmd_rd(args: argparse.Namespace) -> int:
    if args.emit_smt and args.bruteforce:
        raise _CliError("--emit-smt and --bruteforce are mutually exclusive", EXIT_CONFIG)
    system, name = _load_system(args)

    if args.emit_smt:
        out_dir = Path(args.emit_smt)
        max_k = args.max_k if args.max_k is not None else min(exp_bound(system), 12)
        if max_k < 1:
            raise _CliError("nothing to emit: state space has a single state", EXIT_CONFIG)
        # Every script is assembled from one set of steps, built once, so the
        # explicit encoding builds one transition graph. They are built before
        # the directory is made, so a failure leaves no directory behind.
        steps = steps_of(system, args.encoding, args.max_vars)
        out_dir.mkdir(parents=True, exist_ok=True)
        for k in range(1, max_k + 1):
            doc = encode(system, k, args.encoding, steps)
            (out_dir / doc.script_name()).write_text(doc.rendering, encoding="utf-8")
        print(f"wrote {max_k} scripts to {out_dir}")
        return EXIT_OK

    if args.bruteforce:
        value = recurrence_diameter_bruteforce(
            system, budget=args.rd_budget, max_vars=args.max_vars
        )
        print(f"rd={value} (bruteforce)")
        return EXIT_OK

    cfg = _solver_config(args)
    result = rd_via_smt(
        system,
        encoding=args.encoding,
        cfg=cfg,
        schedule=args.schedule,
        max_vars=args.max_vars,
    )
    marker = "exact" if result.exact else "lower-bound"
    print(f"rd={result.rd} ({marker}) problem={name} encoding={result.encoding}")
    for k, verdict in result.queries:
        # A bound answer names its cause: "k=8 unsat (td=7) 0ms".
        cause = f" ({verdict.raw})" if verdict.raw not in ("", verdict.status) else ""
        print(f"  k={k} {verdict.status}{cause} {verdict.elapsed_ms:.0f}ms")
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    kind = BaseCaseKind(args.base)
    cfg = BoundConfig(
        solver=None if args.bruteforce else _solver_config(args),
        schedule=args.schedule,
        max_vars=args.max_vars,
        rd_budget=args.rd_budget,
    )

    # A bad batch file fails alone; a bad --input/--gen is a config error up front.
    if args.batch:
        if args.input or args.gen:
            raise _CliError("--batch and --input/--gen are mutually exclusive", EXIT_CONFIG)
        batch_dir = Path(args.batch)
        if not batch_dir.is_dir():
            raise _CliError(f"--batch {batch_dir} is not a directory", EXIT_CONFIG)
        loaders = {
            str(path): partial(_read_system, path, args.format)
            for path in sorted(batch_dir.iterdir())
            if path.suffix in (".json", ".txt", ".fts") and path.is_file()
        }
        if not loaders:
            raise _CliError(f"no .json/.txt/.fts files in {batch_dir}", EXIT_CONFIG)
    else:
        loaded = _load_system(args)
        loaders = {loaded[1]: lambda: loaded}

    def work(load) -> BoundReport | Exception:
        try:
            system, name = load()
            return compositional_bound(system, kind, cfg, problem=name)
        except Exception as exc:  # recorded, batch continues
            return exc

    # Queries to the in-process bundled solver hold the interpreter lock, so
    # threads cannot overlap them; they only contend for it.
    in_process = cfg.solver is not None and cfg.solver.in_process
    with ThreadPoolExecutor(max_workers=1 if in_process else args.jobs) as pool:
        outcomes = dict(zip(loaders, pool.map(work, loaders.values())))
    reports = [o for o in outcomes.values() if isinstance(o, BoundReport)]
    failures = {label: o for label, o in outcomes.items() if isinstance(o, Exception)}

    for report in reports:
        flags = " degraded" if report.degraded else ""
        print(
            f"{report.problem}: total={_fmt_bound(report.total)} base={report.base.tag} "
            f"clusters={report.num_clusters}{flags}"
        )
    for label, exc in failures.items():
        print(f"{label}: FAILED {exc}", file=sys.stderr)
    if args.csv:
        sysio.write_report(reports, args.csv)
    if failures:
        parse_failure = any(isinstance(e, sysio.SystemParseError) for e in failures.values())
        return EXIT_PARSE if parse_failure else EXIT_HARD
    return EXIT_OK


def cmd_conjecture(args: argparse.Namespace) -> int:
    try:
        first, last = args.seeds.split("..", 1)
        seed_range = range(int(first), int(last) + 1)
    except ValueError as exc:
        raise _CliError(f"--seeds must look like A..B: {exc}", EXIT_CONFIG) from exc
    if not seed_range:
        raise _CliError(f"--seeds {args.seeds} is empty: its end is below its start", EXIT_CONFIG)
    if args.vars > 8:
        raise _CliError("--vars is capped at 8 for the exhaustive check", EXIT_CONFIG)
    counts = {"holds": 0, "vacuous": 0, "counterexample": 0}
    out_dir = Path(args.out) if args.out else Path.cwd()
    for seed in seed_range:
        spec = _random_spec(args, seed)
        system = generate(spec)
        verdict = check_conjecture(system)
        counts[verdict.status] += 1
        if verdict.is_counterexample:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"conjecture_counterexample_seed{seed}.json"
            path.write_text(
                sysio.serialize_system(
                    system,
                    "json",
                    metadata={**provenance(spec), "td": verdict.td, "rd": verdict.rd},
                ),
                encoding="utf-8",
            )
            print(f"counterexample at seed {seed}: td={verdict.td} rd={verdict.rd} -> {path}")
    print(
        f"holds={counts['holds']} vacuous={counts['vacuous']} "
        f"counterexamples={counts['counterexample']}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statebound",
        description=(
            "State-space topology and compositional plan-length bounds "
            "for factored transition systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topo", help="exact topological properties")
    _add_input_flags(topo)
    topo.add_argument("--witness", action="store_true", help="print rd/td witnesses")
    topo.add_argument("--csv", metavar="PATH", help="write a CSV report")
    _add_cap_flags(topo)
    topo.set_defaults(func=cmd_topo)

    rd = sub.add_parser("rd", help="longest simple path via an SMT solver")
    _add_input_flags(rd)
    rd.add_argument("--encoding", choices=ENCODINGS, default="factored")
    _add_solver_flags(rd)
    rd.add_argument("--bruteforce", action="store_true", help="bypass the solver")
    rd.add_argument("--emit-smt", metavar="DIR", help="write scripts instead of solving")
    rd.add_argument("--max-k", type=int, help="largest k for --emit-smt (default min(exp, 12))")
    _add_cap_flags(rd)
    rd.set_defaults(func=cmd_rd)

    bound = sub.add_parser("bound", help="compositional plan-length bound")
    _add_input_flags(bound)
    bound.add_argument("--batch", metavar="DIR", help="bound every system file in a directory")
    bound.add_argument("--base", choices=BASE_TAGS, default="b2")
    _add_solver_flags(bound)
    bound.add_argument("--bruteforce", action="store_true", help="never call a solver")
    bound.add_argument("--csv", metavar="PATH", help="write per-problem CSV rows")
    bound.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="problems at once, in threads; with the in-process bundled solver "
        "problems run one at a time",
    )
    _add_cap_flags(bound)
    bound.set_defaults(func=cmd_bound)

    conj = sub.add_parser("conjecture", help="td/rd coincidence harness")
    conj.add_argument("--seeds", required=True, metavar="A..B", help="inclusive seed range")
    conj.add_argument("--vars", type=int, default=5)
    conj.add_argument("--actions", type=int, default=8)
    conj.add_argument("--max-pre", type=int, default=2)
    conj.add_argument("--max-eff", type=int, default=2)
    conj.add_argument("--out", metavar="DIR", help="where to dump counterexamples")
    conj.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest in _COUNT_FLAGS:
            value = getattr(args, dest, None)
            if value is not None and value < 1:
                flag = "--" + dest.replace("_", "-")
                raise _CliError(f"{flag} must be at least 1", EXIT_CONFIG)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except sysio.SystemParseError as exc:
        print(_machine_reason(exc), file=sys.stderr)
        return EXIT_PARSE
    except (GenerationError, ValueError) as exc:
        print(_machine_reason(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (StateSpaceTooLargeError, SimplePathSearchTooLargeError, SolverError) as exc:
        print(_machine_reason(exc), file=sys.stderr)
        return EXIT_HARD


if __name__ == "__main__":
    sys.exit(main())
