"""Rewrite expected.json from the current sources: the bound of every
bound-batch system, the (k, verdict) query log of every rd-smt search and
the [d, rd, td, exp] of every topo input.
The runs gate on these values, so record them only from a commit whose
results are known to be right.

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import os
import sys

from run import ROOT, Modules
from workloads import (
    BATCH_SEEDS,
    EXPECTED_PATH,
    batch_spec,
    bundled_solver,
    query_log,
    rd_deck,
    topo_deck,
)


def main() -> int:
    os.environ.pop("STATEBOUND_SOLVER", None)
    sys.path.insert(0, str(ROOT / "src"))
    mods = Modules()
    cfg = bundled_solver(mods)
    kind = mods.compose.BaseCaseKind("b2")
    with_solver = mods.compose.BoundConfig(solver=cfg)
    bounds = {}
    for seed in BATCH_SEEDS:
        system = mods.gen.gen_random(batch_spec(mods.gen, seed))
        report = mods.compose.compositional_bound(system, kind, with_solver)
        if report.degraded:
            raise SystemExit(f"batch seed {seed} degraded; not recording a looser bound")
        bounds[f"r{seed:03d}"] = report.total
    logs = {}
    for key, system, encoding, schedule in rd_deck(mods):
        found = mods.smt.rd_via_smt(system, encoding=encoding, cfg=cfg, schedule=schedule)
        logs[key] = query_log(found)
    topo = {}
    for key, _, _, system in topo_deck(mods):
        report = mods.oracle.compute_topo_report(system)
        topo[key] = [report.d, report.rd, report.td, report.exp]
    sections = []
    for name, values in (("bound-batch", bounds), ("rd-smt", logs), ("topo", topo)):
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in values.items())
        sections.append(f"{json.dumps(name)}: {{\n{body}\n}}")
    EXPECTED_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
