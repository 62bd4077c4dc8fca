"""Spans and counters recorded around calls into statebound's modules.

The package has no tracing of its own yet, so the traced run replaces module
attributes with timing wrappers. A call made through the wrapped name opens a
span; spans nest per thread, and a span's self time is its duration minus the
durations of its direct children. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gc
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, thread id]
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        # Solver queries waiting to be solved again in-process:
        # (script, verdict, encoding, query seconds).
        self.pending: list[tuple] = []
        self.local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, threading.get_ident()])
        stack.append(index)
        return index

    def end(self, index: int) -> float:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack().pop()
        return end - span[1]

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace ``module.attr`` with a wrapper that records a span named
        ``name``; ``observe(args, result, seconds)`` runs after the span."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.end(index)
            if observe is not None:
                observe(args, result, seconds)
            return result

        setattr(module, attr, traced)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name: (total duration, self time)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[index]
        return total, own

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, thread in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "thread": thread}
                    )
                    + "\n"
                )


def instrument(tracer: Tracer, mods) -> None:
    """Wrap the public functions each layer is entered through. A function
    imported by name into another module is wrapped in every module that
    calls it, under one span name."""
    oracle, compose, smt, io, cli = mods.oracle, mods.compose, mods.smt, mods.io, mods.cli

    def graph_built(args, graph, seconds):
        tracer.count("core.states", graph.num_states)
        tracer.count("core.edges", sum(map(len, graph.adj)))

    tracer.wrap(oracle, "build_transition_graph", "core.build_graph", graph_built)
    tracer.wrap(oracle, "diameter", "oracle.diameter")
    for module in (oracle, compose):
        tracer.wrap(module, "recurrence_diameter_bruteforce", "oracle.rd_dfs")
    tracer.wrap(oracle, "traversal_diameter", "oracle.td")

    def td_done(args, value, seconds):
        tracer.local.last_td = (args[0], value)

    tracer.wrap(compose, "traversal_diameter", "oracle.td", td_done)

    # Encoders render lazily; render inside the span so encode owns the cost.
    for attr in ("encode_factored", "encode_explicit"):
        def rendered(*args, _encode=getattr(smt, attr), **kwargs):
            doc = _encode(*args, **kwargs)
            doc.rendering
            return doc

        setattr(smt, attr, rendered)
        tracer.wrap(smt, attr, "smt.encode")

    def queried(args, verdict, seconds):
        doc = args[0]
        tracer.count("smt.queries")
        tracer.count("smt.script_bytes", len(doc.rendering))
        if verdict.status == "timeout":
            tracer.count("smt.timeouts")
        else:
            tracer.pending.append((doc.rendering, verdict.status, doc.encoding, seconds))

    tracer.wrap(smt, "run_solver", "smt.query", queried)

    def cluster_searched(args, result, seconds):
        last = getattr(tracer.local, "last_td", None)
        if last is not None and last[0] is args[0]:
            tracer.count("compose.rd_checked")
            if result.exact and result.rd < last[1]:
                tracer.count("compose.rd_useful")

    tracer.wrap(smt, "rd_via_smt", "smt.search")
    tracer.wrap(compose, "rd_via_smt", "smt.search", cluster_searched)
    tracer.wrap(compose, "decompose", "compose.decompose")
    tracer.wrap(compose, "project", "compose.project")

    def bounded(args, report, seconds):
        tracer.count("compose.clusters", report.num_clusters)
        tracer.count("compose.rd_clusters", sum(c.property_used == "rd" for c in report.per_cluster))

    tracer.wrap(cli, "compositional_bound", "compose.bound", bounded)

    def parsed(args, system, seconds):
        tracer.count("io.input_bytes", len(args[0]))

    tracer.wrap(io, "parse_system", "io.parse", parsed)
    tracer.wrap(io, "write_report", "io.csv")
    tracer.wrap(cli, "main", "cli.batch")


def resolve_pending(tracer: Tracer, minisolver) -> list[str]:
    """Solve every logged query script again in-process, timing the parse
    and the whole solve apart. Returns the queries whose in-process verdict
    differs from the one the solver process gave."""
    mismatches = []
    # A solver process starts with an empty heap; keep the benchmark's own
    # objects out of the collections the in-process solve triggers.
    gc.collect()
    gc.freeze()
    for text, status, encoding, query_seconds in tracer.pending:
        t0 = time.perf_counter()
        minisolver.parse_sexprs(text)
        t1 = time.perf_counter()
        got, _ = minisolver.interpret(text)
        t2 = time.perf_counter()
        tracer.count("minisolver.parse_s", t1 - t0)
        tracer.count("minisolver.solve_s", t2 - t1)
        tracer.count(f"minisolver.{encoding}.solve_s", t2 - t1)
        tracer.count("smt.resolved_query_s", query_seconds)
        tracer.count(f"smt.{encoding}.query_s", query_seconds)
        if got != status:
            mismatches.append(f"{encoding} query: process said {status}, in-process {got}")
    gc.unfreeze()
    tracer.pending.clear()
    return mismatches


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(tracer: Tracer, ops: int, spawn_ms: float) -> dict[str, float]:
    """Per-layer figures of the traced passes: times are self times in ms per
    operation unless the name says otherwise, counts are per operation."""
    total, own = tracer.totals()
    counts = tracer.counts

    def per_op(value: float) -> float:
        return value / ops

    queries = counts["smt.queries"]
    solve_s = counts["minisolver.solve_s"]
    encode_s = own["smt.encode"]
    batches = sum(1 for span in tracer.spans if span[0] == "cli.batch")
    serial_s = total["compose.bound"] + total["io.parse"]
    metrics = {
        "smt.spawn_ms": spawn_ms,
        "smt.queries": per_op(queries),
        "smt.query_ms": per_op(1000 * own["smt.query"]),
        "smt.timeouts": per_op(counts["smt.timeouts"]),
        "smt.encode_ms": per_op(1000 * encode_s),
        "smt.script_kb": _share(counts["smt.script_bytes"] / 1024, queries),
        "smt.search_ms": per_op(1000 * total["smt.search"]),
        "smt.process_overhead_share": 1 - _share(solve_s, counts["smt.resolved_query_s"]) if solve_s else 0.0,
        "smt.accounted_share": _share(spawn_ms / 1000 * queries + solve_s + encode_s, total["smt.search"]),
        "minisolver.parse_ms": per_op(1000 * counts["minisolver.parse_s"]),
        "minisolver.solve_ms": per_op(1000 * solve_s),
        "oracle.rd_dfs_ms": per_op(1000 * own["oracle.rd_dfs"]),
        "oracle.diameter_ms": per_op(1000 * own["oracle.diameter"]),
        "oracle.td_ms": per_op(1000 * own["oracle.td"]),
        "core.build_graph_ms": per_op(1000 * own["core.build_graph"]),
        "core.states": per_op(counts["core.states"]),
        "core.edges": per_op(counts["core.edges"]),
        "compose.decompose_ms": per_op(1000 * own["compose.decompose"]),
        "compose.project_ms": per_op(1000 * own["compose.project"]),
        "compose.base_case_ms": per_op(
            1000 * (total["compose.bound"] - total["compose.decompose"] - total["compose.project"])
        ),
        "compose.clusters": per_op(counts["compose.clusters"]),
        "compose.rd_clusters": per_op(counts["compose.rd_clusters"]),
        "compose.rd_useful_share": _share(counts["compose.rd_useful"], counts["compose.rd_checked"]),
        "io.parse_ms": per_op(1000 * own["io.parse"]),
        "io.input_kb": per_op(counts["io.input_bytes"] / 1024),
        "io.csv_ms": per_op(1000 * own["io.csv"]),
        "cli.batch_ms": _share(1000 * total["cli.batch"], batches),
        "cli.serial_ms": _share(1000 * serial_s, batches),
        "cli.overlap": _share(serial_s, total["cli.batch"]),
    }
    for encoding in ("factored", "explicit"):
        solve = counts[f"minisolver.{encoding}.solve_s"]
        metrics[f"smt.{encoding}.overhead_share"] = (
            1 - _share(solve, counts[f"smt.{encoding}.query_s"]) if solve else 0.0
        )
    return metrics
