"""statebound's benchmark: one workload per run, printed as one JSON line.

    python3 perfbench/run.py --workload {bound-batch,rd-smt,topo} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``. A run
sets up several times (imports, inputs, reference values, warm-up) and
reports the median as ``setup_s``. It then makes whole passes over the
workload's deck until another would end well past ``--seconds``, checking
every operation against its reference. Times are scaled to a reference CPU
speed by a calibration loop run around each operation (see workloads.py).
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with spans around the calls into each module, and
prints the per-layer metrics.
Metric names and units come from BENCHMARK.json. The last stdout line is
the result; the line before it records how the run was made. Both, and the
spans of a traced run, are also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from tracing import Tracer, instrument, layer_metrics, resolve_pending
from workloads import WORKLOADS, bare_query, bundled_solver, calibrate, speed_scale

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_MODULES = ("core", "gen", "io", "oracle", "smt", "compose", "cli", "minisolver")
SETUP_REPEATS = 5
SPAWN_PROBES = 7


class Modules:
    """The statebound modules of one import."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if n == "statebound" or n.startswith("statebound.")]:
            del sys.modules[name]
        for name in PACKAGE_MODULES:
            setattr(self, name, importlib.import_module(f"statebound.{name}"))


def measure(workload, mods, state, seconds: float, tracer: Tracer | None = None) -> list:
    """Whole passes over the deck, at least one, until another pass of the
    mean length would end more than half a pass after ``seconds``."""
    passes = []
    elapsed = 0.0
    while True:
        result = workload.run_pass(mods, state)
        if tracer is not None:
            for note in resolve_pending(tracer, mods.minisolver):
                result.fail(note)
        passes.append(result)
        elapsed += result.wall_seconds
        if elapsed + elapsed / len(passes) / 2 > seconds:
            return passes


def throughput(passes, raw: bool = False) -> float:
    """Operations completed correctly per second: the median over the
    passes, so that one pass on a slow stretch of the host does not move it."""
    return statistics.median(
        (p.attempted - min(p.failed, p.attempted)) / (p.raw_seconds if raw else p.seconds)
        for p in passes
    )


def tail_percentile(deck_size: int) -> int:
    """The highest whole percentile that leaves at least ten operations of
    the deck above it."""
    return 100 * (deck_size - 10) // deck_size


def latency(passes) -> tuple[float, float, dict]:
    """Median and tail latency in seconds of the deck's operations, each
    taken as its median over the passes, and where the tail sits."""
    runs = defaultdict(list)
    for p in passes:
        for key, seconds in zip(p.keys, p.latencies):
            runs[key].append(seconds)
    # Empty only when every operation failed before it could be timed.
    latencies = sorted(statistics.median(xs) for xs in runs.values()) or [0.0]
    percentile = tail_percentile(passes[0].attempted)
    rank = -(-percentile * len(latencies) // 100)
    tail = {
        "percentile": percentile,
        "rank": rank,
        "operations": len(latencies),
        "passes": len(passes),
    }
    return statistics.median(latencies), latencies[rank - 1], tail


def end_to_end(passes, setup_s: float) -> tuple[dict[str, float], dict]:
    attempted = sum(p.attempted for p in passes)
    p50, tail_value, tail = latency(passes)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "throughput_per_s": throughput(passes),
        "op_p50_ms": 1000 * p50,
        "op_tail_ms": 1000 * tail_value,
        "cpu_per_op_ms": 1000 * statistics.median(p.cpu_seconds / p.attempted for p in passes),
        "peak_rss_mb": peak_kb / 1024,
        "exact_share": 1 - sum(p.inexact for p in passes) / attempted,
        "setup_s": setup_s,
    }
    return metrics, tail


def with_units(metrics: dict[str, float], declared: list[dict]) -> dict:
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(
            f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}"
        )
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "statebound").is_dir():
        print(f"perfbench: no statebound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.pop("STATEBOUND_SOLVER", None)
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    cpus = sorted(os.sched_getaffinity(0))
    if workload.pinned:
        # A search waits for its solver process, so one CPU runs both, and
        # the calibration loop measures the CPU the solver ran on.
        os.sched_setaffinity(0, cpus[:1])
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            before = calibrate()
            started = time.perf_counter()
            mods = Modules()
            state = workload.prepare(mods, args.seed, workdir)
            elapsed = time.perf_counter() - started
            setup_times.append(elapsed * speed_scale(before, calibrate()))
        setup_s = statistics.median(setup_times)

        tracer = None
        if args.trace:
            untraced = measure(workload, mods, state, args.seconds / 2)
            cfg = bundled_solver(mods)
            probes = []
            for _ in range(SPAWN_PROBES):
                t0 = time.perf_counter()
                mods.smt.run_solver(bare_query(mods), cfg)
                probes.append(time.perf_counter() - t0)
            tracer = Tracer()
            instrument(tracer, mods)
            passes = measure(workload, mods, state, args.seconds / 2, tracer)
            ops = sum(p.attempted for p in passes)
            metrics = layer_metrics(tracer, ops, 1000 * statistics.median(probes))
            metrics["trace.untraced_per_s"] = throughput(untraced)
            metrics["trace.traced_per_s"] = throughput(passes)
            metrics["trace.overhead_per_s"] = throughput(untraced) - throughput(passes)
            _, _, tail = latency(passes)
            passes = untraced + passes
            declared = spec["per_layer"]
        else:
            passes = measure(workload, mods, state, args.seconds)
            metrics, tail = end_to_end(passes, setup_s)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, sum(p.failed for p in passes))
    notes = [note for p in passes for note in p.notes]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(metrics, declared),
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "solver": list(bundled_solver(mods).command),
        "python": platform.python_version(),
        "nproc": len(cpus),
        "pinned_to": cpus[0] if workload.pinned else None,
        "passes": len(passes),
        "raw_throughput_per_s": throughput(passes, raw=True),
        "speed_scale": sum(p.seconds for p in passes) / sum(p.raw_seconds for p in passes),
        "ops_per_pass": passes[0].attempted,
        "op_tail": tail,
        "failed_share": failed / attempted,
        "degraded_share": sum(p.inexact for p in passes) / attempted,
        "setup_samples_s": setup_times,
        "failures": notes[:20],
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    if tracer is not None:
        tracer.write_spans(out_dir / f"{stem}.spans.jsonl")
    for note in notes[:20]:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    print("perfbench-record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
