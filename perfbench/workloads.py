"""The three workloads: a fixed deck of inputs each, one timed pass over the
deck, and the correctness gate applied to every operation.

Every deck is the same population of systems on every seed. Cost per input is
heavy-tailed (two of the 500 chain systems take most of a topo pass, and two of
the 50 batch systems most of a bound-batch pass), so drawing fresh systems per
seed would make two runs measure different work. The seed sets the order of
the operations and, for bound-batch, which files are JSON and which compact.

Times are scaled to a reference CPU speed. The vCPUs of a shared host change
speed by a third within seconds, as neighbours come and go on the same
physical cores, and a run of fixed work can read 25% apart from the next. So
a fixed pure-Python loop (``calibrate``) runs on the same thread just before
and just after each operation, outside the timed call. A short operation is
scaled by the two loops around it. A long one may have seen the speed change
several times, so its scale leans towards the pass's mean loop time; the two
are weighted by the operation's length against ``SPEED_SWITCH_S``. rd-smt
is ``pinned`` to one CPU with its solver processes, so that the loop runs
where the solver ran.
"""

from __future__ import annotations

import csv
import io as stdio
import json
import os
import random
import shlex
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Criterion 03's settings: every system is searched with both.
RD_SETTINGS = (("factored", "linear"), ("explicit", "binary"))
RD_SEEDS = range(1, 21)
CHAIN_SEEDS = range(1, 501)
# One witness per dominant topo layer: graph build, d and rd, rd DFS.
WITNESSES = (("star", 4095), ("clique", 8), ("lotus", 1023))
CLOSED_FORMS = {  # family -> n -> (d, rd, td)
    "star": lambda n: (1, 1, 1),
    "clique": lambda m: (1, 2**m - 1, 2**m - 1),
    "lotus": lambda n: (2, 2, n),
}
# 50 systems put the p80 tail rank among the solver-using systems instead of
# on the edge between them and the td-only ones, where it jumps between runs.
BATCH_SEEDS = range(1, 51)
BATCH_JOBS = 2
SOLVER_TIMEOUT_MS = 60_000
# About half a millisecond of CPU on the 2-vCPU host the benchmark was set up
# on; REFERENCE_CAL_S is its mean there during runs, so that scaled times
# read close to raw ones.
CAL_ITERATIONS = 5_000
REFERENCE_CAL_S = 0.000_47
# How long the host's speed typically holds before it changes.
SPEED_SWITCH_S = 1.0


def equivalence_spec(gen, seed: int):
    """tests/conftest.py's equivalence_family, pinned here so that edits to
    the tests do not change the benchmark's inputs."""
    num_vars = 3 + seed % 4
    num_actions = 3 + (seed * 7) % 8 if num_vars < 6 else 3 + seed % 4
    return gen.GeneratorSpec(
        family="random", seed=seed, num_vars=num_vars, num_actions=num_actions, max_pre=3, max_eff=1
    )


def chain_spec(gen, seed: int):
    """tests/conftest.py's chain_family, pinned like equivalence_spec."""
    num_vars = 2 + seed % 7
    num_actions = 2 + (seed * 5) % 9 if num_vars < 7 else 2 + seed % 5
    return gen.GeneratorSpec(
        family="random", seed=seed, num_vars=num_vars, num_actions=num_actions, max_pre=2, max_eff=2
    )


def batch_spec(gen, seed: int):
    return gen.GeneratorSpec(
        family="random", seed=seed, num_vars=12, num_actions=12, max_pre=2, max_eff=2
    )


def bundled_solver(mods):
    """The bundled solver, named explicitly so STATEBOUND_SOLVER never applies."""
    return mods.smt.SolverConfig.bundled(timeout_ms=SOLVER_TIMEOUT_MS)


def bare_query(mods):
    """A script holding only (check-sat): its run time is the spawn cost."""
    return mods.smt.SmtDocument(
        logic="QF_UF", declarations=(), assertions=(), encoding="factored", k=1
    )


def rd_deck(mods) -> list[tuple]:
    """(key, system, encoding, schedule) for every search."""
    deck = []
    for seed in RD_SEEDS:
        system = mods.gen.gen_random(equivalence_spec(mods.gen, seed))
        for encoding, schedule in RD_SETTINGS:
            deck.append((f"{seed}/{encoding}", system, encoding, schedule))
    return deck


def topo_deck(mods) -> list[tuple]:
    """(key, family, n, system) for every topo report."""
    deck = [
        (f"chain{seed}", "chain", seed, mods.gen.gen_random(chain_spec(mods.gen, seed)))
        for seed in CHAIN_SEEDS
    ]
    for family, n in WITNESSES:
        spec = mods.gen.GeneratorSpec(family=family, n=n)
        deck.append((f"{family}{n}", family, n, mods.gen.generate(spec)))
    return deck


def query_log(found) -> str:
    """An RdResult's (k, verdict) log, as stored in expected.json."""
    return " ".join(f"{k}:{verdict.status}" for k, verdict in found.queries)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def calibrate() -> float:
    """CPU seconds the calling thread spends on a fixed pure-Python loop.
    Thread CPU time leaves out waits for the GIL and for a core."""
    t0 = time.thread_time()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - t0


def speed_scale(*calibrations: float) -> float:
    """The factor that takes a time measured while the calibration loop
    took ``calibrations`` on average to the reference speed."""
    return REFERENCE_CAL_S * len(calibrations) / sum(calibrations)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class PassResult:
    """One timed pass over a deck. ``seconds``, ``cpu_seconds`` and
    ``latencies`` are at the reference speed; ``raw_seconds`` is the same
    time as the clock read it, and ``wall_seconds`` the whole pass with its
    checks and calibrations."""

    attempted: int
    wall_seconds: float = 0.0
    raw_seconds: float = 0.0
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    keys: list = field(default_factory=list)  # the operation of each latency
    failed: int = 0
    inexact: int = 0
    notes: list[str] = field(default_factory=list)
    # (key, wall, CPU or None, calibration before, calibration after) per
    # operation
    samples: list[tuple] = field(default_factory=list)
    _calibration: float | None = None

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def timed(self, key, fn, *args, **kwargs):
        """Call ``fn`` as operation ``key`` of a sequential pass, timing its
        wall and CPU time between two calibrations."""
        if self._calibration is None:
            self._calibration = calibrate()
        cpu = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu
            after = calibrate()
            self.samples.append((key, wall, cpu, self._calibration, after))
            self._calibration = after

    def finish(self, wall_seconds: float, pass_seconds=None, pass_cpu=None, fallback=1.0) -> None:
        """Scale the samples. A sequential pass sums its operations; a pass
        that overlaps them gives its own time and CPU, scaled by the mean
        of its operations' factors weighted by their length."""
        self.wall_seconds = wall_seconds
        walls = [w for _, w, _, _, _ in self.samples]
        self.keys = [k for k, _, _, _, _ in self.samples]
        if self.samples:
            mean = speed_scale(*(c for _, _, _, b, a in self.samples for c in (b, a)))
            scales = [
                (SPEED_SWITCH_S * speed_scale(b, a) + w * mean) / (SPEED_SWITCH_S + w)
                for _, w, _, b, a in self.samples
            ]
            self.latencies = [w * f for w, f in zip(walls, scales)]
            scale = sum(self.latencies) / max(sum(walls), 1e-9)
        else:
            scales, scale = [], fallback
        self.raw_seconds = sum(walls) if pass_seconds is None else pass_seconds
        self.seconds = self.raw_seconds * scale
        if pass_cpu is None:
            self.cpu_seconds = sum(c * f for (_, _, c, _, _), f in zip(self.samples, scales))
        else:
            self.cpu_seconds = pass_cpu * scale


class RdSmt:
    """smt.rd_via_smt through the bundled solver, one search per operation."""

    name = "rd-smt"
    pinned = True

    def prepare(self, mods, seed: int, workdir: Path) -> list[tuple]:
        logs = load_expected()["rd-smt"]
        ops = [
            (key, system, encoding, schedule, mods.oracle.recurrence_diameter_bruteforce(system), logs[key])
            for key, system, encoding, schedule in rd_deck(mods)
        ]
        random.Random(seed).shuffle(ops)
        mods.smt.run_solver(bare_query(mods), bundled_solver(mods))
        return ops

    def run_pass(self, mods, ops: list[tuple]) -> PassResult:
        cfg = bundled_solver(mods)
        result = PassResult(len(ops))
        started = time.perf_counter()
        for key, system, encoding, schedule, rd, log in ops:
            try:
                found = result.timed(
                    key, mods.smt.rd_via_smt, system, encoding=encoding, cfg=cfg, schedule=schedule
                )
            except Exception as exc:  # recorded as a failed operation
                result.fail(f"{key}: {exc!r}")
                continue
            if not found.exact:
                result.inexact += 1
            got = query_log(found)
            if not found.exact or found.rd != rd:
                result.fail(f"{key}: rd={found.rd} exact={found.exact}, oracle rd={rd}")
            elif got != log:
                result.fail(f"{key}: query log {got} differs from the stored {log}")
        result.finish(time.perf_counter() - started)
        return result


class Topo:
    """oracle.compute_topo_report on the chain family and the witnesses."""

    name = "topo"
    pinned = False

    def prepare(self, mods, seed: int, workdir: Path) -> list[tuple]:
        values = load_expected()["topo"]
        ops = [(key, family, n, system, values[key]) for key, family, n, system in topo_deck(mods)]
        random.Random(seed).shuffle(ops)
        mods.oracle.compute_topo_report(mods.gen.gen_lotus(3))
        return ops

    def run_pass(self, mods, ops: list[tuple]) -> PassResult:
        result = PassResult(len(ops))
        started = time.perf_counter()
        for key, family, n, system, expected in ops:
            try:
                report = result.timed(key, mods.oracle.compute_topo_report, system, problem=key)
            except Exception as exc:  # recorded as a failed operation
                result.fail(f"{key}: {exc!r}")
                continue
            got = [report.d, report.rd, report.td, report.exp]
            closed = CLOSED_FORMS.get(family)
            if not report.d <= report.rd <= report.td <= report.exp:
                result.fail(f"{key}: d <= rd <= td <= exp fails for {got}")
            elif closed is not None and tuple(got[:3]) != closed(n):
                result.fail(f"{key}: (d, rd, td) {got[:3]} != closed form {closed(n)}")
            elif got != expected:
                result.fail(f"{key}: {got} differs from the stored {expected}")
        result.finish(time.perf_counter() - started)
        return result


@dataclass
class BatchState:
    argv: list[str]
    csv_path: Path
    reference: dict[str, tuple[int, int]]  # name -> (solver-free total, stored total)
    samples: list[tuple]  # see PassResult.samples


class BoundBatch:
    """`statebound bound --batch` in-process, as users run the pipeline."""

    name = "bound-batch"
    pinned = False

    def prepare(self, mods, seed: int, workdir: Path) -> BatchState:
        batch_dir = workdir / "batch"
        shutil.rmtree(batch_dir, ignore_errors=True)
        batch_dir.mkdir(parents=True)
        half = len(BATCH_SEEDS) // 2
        formats = ["json"] * half + ["compact"] * (len(BATCH_SEEDS) - half)
        random.Random(seed).shuffle(formats)
        stored = load_expected()["bound-batch"]
        kind = mods.compose.BaseCaseKind("b2")
        solver_free = mods.compose.BoundConfig(solver=None)
        reference = {}
        for family_seed, fmt in zip(BATCH_SEEDS, formats):
            system = mods.gen.gen_random(batch_spec(mods.gen, family_seed))
            name = f"r{family_seed:03d}"
            suffix = ".json" if fmt == "json" else ".txt"
            text = mods.io.serialize_system(system, fmt)
            (batch_dir / (name + suffix)).write_text(text, encoding="utf-8")
            solver_free_total = mods.compose.compositional_bound(system, kind, solver_free).total
            reference[name] = (solver_free_total, stored[name])
        cfg = bundled_solver(mods)
        csv_path = workdir / "report.csv"
        argv = [
            "bound", "--batch", str(batch_dir), "--base", "b2", "--jobs", str(BATCH_JOBS),
            "--csv", str(csv_path), "--solver-cmd", shlex.join(cfg.command),
        ]
        mods.smt.run_solver(bare_query(mods), cfg)
        return BatchState(argv, csv_path, reference, [])

    def run_pass(self, mods, state: BatchState) -> PassResult:
        state.samples.clear()
        state.csv_path.unlink(missing_ok=True)
        result = PassResult(len(state.reference))
        out, err = stdio.StringIO(), stdio.StringIO()
        # The CLI runs each system in a worker thread; timing the call it
        # makes per system is the only way to see per-system latency. The
        # wrapper goes outside any tracing wrapper, so that the calibrations
        # stay out of the spans.
        bound = mods.cli.compositional_bound

        def timed_bound(*args, **kwargs):
            key = kwargs.get("problem", len(state.samples))
            before = calibrate()
            t0 = time.perf_counter()
            try:
                return bound(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                state.samples.append((key, wall, None, before, calibrate()))

        mods.cli.compositional_bound = timed_bound
        around = calibrate()
        cpu = _cpu_seconds()
        started = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = mods.cli.main(state.argv)
        finally:
            mods.cli.compositional_bound = bound
        wall = time.perf_counter() - started
        cpu = _cpu_seconds() - cpu
        around = speed_scale(around, calibrate())
        rows = {}
        if state.csv_path.exists():
            with open(state.csv_path, newline="", encoding="utf-8") as handle:
                rows = {row["problem"]: row for row in csv.DictReader(handle)}
        for name, (expected, stored) in state.reference.items():
            row = rows.get(name)
            if row is None:
                result.fail(f"{name}: no CSV row (exit {code}; {err.getvalue().strip()[:200]})")
                continue
            total = int(row["total_bound"])
            if row["degraded"] == "true":
                # A degraded cluster falls back to td >= rd: looser, still sound.
                result.inexact += 1
                if total < max(expected, stored):
                    result.fail(f"{name}: degraded total {total} below the exact {expected}")
            elif total != expected:
                result.fail(f"{name}: total_bound {total} != solver-free {expected}")
            elif total != stored:
                result.fail(f"{name}: total_bound {total} differs from the stored {stored}")
        if code != 0 and not result.failed:
            result.fail(f"bound --batch exited {code}: {err.getvalue().strip()[:200]}")
        # Per-system times come from the wrapped call; should the work leave
        # this process, fall back to the calibrations around the pass and the
        # CSV's own per-problem timing column.
        result.samples = list(state.samples)
        result.finish(wall, pass_seconds=wall, pass_cpu=cpu, fallback=around)
        if not result.samples:
            result.keys = list(rows)
            result.latencies = [
                around * float(row["total_time_ms"]) / 1000.0 for row in rows.values()
            ]
        return result

WORKLOADS = {w.name: w for w in (BoundBatch(), RdSmt(), Topo())}
