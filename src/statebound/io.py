"""System file formats (JSON and a compact one-action-per-line text form)
plus CSV report emission.

Both formats require every variable to be declared before use, and both
round-trip: parsing a serialization yields the same variable list and action
set. Serialization is canonical (variables by id, actions sorted by their
bit patterns) so equal systems produce byte-identical files.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .compose import BoundReport
from .core import Action, PartialState, System, Variable
from .oracle import TopoReport

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

REPORT_COLUMNS = (
    "problem",
    "base",
    "total_bound",
    "num_clusters",
    "max_cluster_vars",
    "rd_queries",
    "rd_time_ms",
    "td_time_ms",
    "total_time_ms",
    "degraded",
)


class SystemParseError(ValueError):
    """Malformed system file; carries a 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f"line {line}"
            if column is not None:
                location += f", column {column}"
            location = f" ({location})"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class SystemDocument:
    """A parsed system plus whatever metadata the file carried."""

    system: System
    metadata: dict = field(default_factory=dict)


def detect_format(path_or_text: str) -> str:
    """Guess the format from a file name."""
    return "json" if path_or_text.endswith(".json") else "compact"


def parse_system(text: str, format: str = "json") -> System:
    return parse_document(text, format).system


def parse_document(text: str, format: str = "json") -> SystemDocument:
    if format == "json":
        return _parse_json(text)
    if format == "compact":
        return _parse_compact(text)
    raise ValueError(f"unknown system format {format!r}")


def _object(pairs: list[tuple[str, object]]) -> dict:
    """The ``object_pairs_hook`` that reads each JSON object as a dict. A key
    given twice in one object is an error; ``json.loads`` keeps the last."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise SystemParseError(f"key {key!r} appears twice in one object")
        out[key] = value
    return out


def _declare(ids: dict[str, int], name: str, **where) -> None:
    """Declare variable ``name`` with the next id; ``where`` is the location
    (``line``, ``column``) that an error reports, when the format has one."""
    if not _NAME_RE.match(name):
        raise SystemParseError(f"invalid variable name {name!r}", **where)
    if name in ids:
        raise SystemParseError(f"duplicate variable declaration {name!r}", **where)
    ids[name] = len(ids)


def _parse_json(text: str) -> SystemDocument:
    try:
        top = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise SystemParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(top, dict):
        raise SystemParseError("top-level JSON value must be an object")
    for key in top:
        if key not in ("variables", "actions", "metadata"):
            raise SystemParseError(f"unknown top-level key {key!r}")
    names = top.get("variables")
    if not isinstance(names, list) or any(not isinstance(n, str) for n in names):
        raise SystemParseError("'variables' must be an array of names")
    ids: dict[str, int] = {}
    for name in names:
        _declare(ids, name)
    raw_actions = top.get("actions", [])
    if not isinstance(raw_actions, list):
        raise SystemParseError("'actions' must be an array")
    actions = []
    for index, entry in enumerate(raw_actions, start=1):
        if not isinstance(entry, dict) or set(entry) - {"pre", "eff"}:
            raise SystemParseError(
                f"action #{index} must be an object with 'pre' and 'eff'"
            )
        sides = []
        for part in ("pre", "eff"):
            assignment = entry.get(part, {})
            if not isinstance(assignment, dict):
                raise SystemParseError(f"action #{index} {part} must be an object")
            for name, value in assignment.items():
                if not isinstance(value, bool):
                    raise SystemParseError(
                        f"{part} value for {name!r} must be true or false"
                    )
                if name not in ids:
                    raise SystemParseError(
                        f"action #{index} references undeclared variable {name!r}"
                    )
            sides.append(
                PartialState.from_items((ids[n], v) for n, v in assignment.items())
            )
        actions.append(Action(pre=sides[0], eff=sides[1]))
    metadata = top.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SystemParseError("'metadata' must be an object")
    system = System(tuple(Variable(i, n) for i, n in enumerate(names)), tuple(actions))
    return SystemDocument(system=system, metadata=metadata)


def _comma_tokens(line: str, start: int):
    """The comma-separated tokens of ``line[start:]``, stripped, each with
    the 1-based column where it starts in ``line``."""
    for raw in line[start:].split(","):
        yield raw.strip(), start + len(raw) - len(raw.lstrip()) + 1
        start += len(raw) + 1


def _parse_literals(
    line: str, start: int, ids: Mapping[str, int], line_no: int, what: str
) -> PartialState:
    items: list[tuple[int, bool]] = []
    claimed: dict[int, bool] = {}
    for token, column in _comma_tokens(line, start):
        if not token:
            if line[start:].strip():
                raise SystemParseError(
                    f"empty literal in {what}", line=line_no, column=column
                )
            continue
        negative = token.startswith("!")
        name = token[1:].strip() if negative else token
        if not _NAME_RE.match(name):
            raise SystemParseError(
                f"bad literal {token!r}", line=line_no, column=column
            )
        if name not in ids:
            raise SystemParseError(
                f"undeclared variable {name!r}", line=line_no, column=column
            )
        var_id = ids[name]
        value = not negative
        if var_id in claimed and claimed[var_id] != value:
            raise SystemParseError(
                f"variable {name!r} takes both polarities in one {what}",
                line=line_no,
                column=column,
            )
        claimed[var_id] = value
        items.append((var_id, value))
    return PartialState.from_items(items)


def _parse_compact(text: str) -> SystemDocument:
    ids: dict[str, int] | None = None
    actions: list[Action] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("vars:"):
            if ids is not None:
                raise SystemParseError("duplicate vars: header", line=line_no, column=1)
            ids = {}
            for token, column in _comma_tokens(line, line.index("vars:") + len("vars:")):
                if token:
                    _declare(ids, token, line=line_no, column=column)
            continue
        if stripped.startswith("pre:"):
            if ids is None:
                raise SystemParseError(
                    "action line before vars: header", line=line_no, column=1
                )
            if "->" not in line:
                raise SystemParseError(
                    "action line needs '->'", line=line_no, column=len(line)
                )
            arrow = line.index("->")
            if not line[arrow + 2 :].strip().startswith("eff:"):
                raise SystemParseError(
                    "action line must look like 'pre: ... -> eff: ...'",
                    line=line_no,
                    column=1,
                )
            pre_at = line.index("pre:") + len("pre:")
            eff_at = line.index("eff:", arrow) + len("eff:")
            pre = _parse_literals(line[:arrow], pre_at, ids, line_no, "pre")
            eff = _parse_literals(line, eff_at, ids, line_no, "eff")
            actions.append(Action(pre=pre, eff=eff))
            continue
        raise SystemParseError(
            f"unrecognized line {stripped[:40]!r}", line=line_no, column=1
        )
    if ids is None:
        raise SystemParseError("missing vars: header")
    system = System(tuple(Variable(i, n) for n, i in ids.items()), tuple(actions))
    return SystemDocument(system=system, metadata={})


def _assignment_json(system: System, state: PartialState) -> dict[str, bool]:
    return {system.variables[v].name: val for v, val in state.items()}


def serialize_system(
    system: System, format: str = "json", metadata: Mapping | None = None
) -> str:
    """Canonical, byte-stable rendering (UTF-8 text, LF line endings)."""
    if format == "json":
        payload: dict = {
            "variables": [v.name for v in system.variables],
            "actions": [
                {
                    "pre": _assignment_json(system, a.pre),
                    "eff": _assignment_json(system, a.eff),
                }
                for a in system.actions
            ],
        }
        if metadata:
            payload["metadata"] = {k: metadata[k] for k in sorted(metadata)}
        return json.dumps(payload, indent=2) + "\n"
    if format == "compact":
        lines = []
        if metadata:
            lines.extend(f"# {key}: {metadata[key]}" for key in sorted(metadata))
        lines.append("vars: " + ", ".join(v.name for v in system.variables))
        for action in system.actions:
            lines.append(
                f"pre: {system.format_state(action.pre)} -> "
                f"eff: {system.format_state(action.eff)}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown system format {format!r}")


def _report_row(report: BoundReport | TopoReport) -> dict[str, object]:
    if isinstance(report, BoundReport):
        return {
            "problem": report.problem,
            "base": report.base.tag,
            "total_bound": report.total,
            "num_clusters": report.num_clusters,
            "max_cluster_vars": report.max_cluster_vars,
            "rd_queries": report.rd_queries,
            "rd_time_ms": round(report.rd_time_ms),
            "td_time_ms": round(report.td_time_ms),
            "total_time_ms": round(report.total_time_ms),
            "degraded": "true" if report.degraded else "false",
        }
    if isinstance(report, TopoReport):
        # The diameter is the tightest bound an explicit analysis yields.
        return {
            "problem": report.problem,
            "base": "topo",
            "total_bound": report.d,
            "num_clusters": 1,
            "max_cluster_vars": 0,
            "rd_queries": 0,
            "rd_time_ms": round(report.timings.get("rd_ms", 0.0)),
            "td_time_ms": round(report.timings.get("td_ms", 0.0)),
            "total_time_ms": round(sum(report.timings.values())),
            "degraded": "false",
        }
    raise TypeError(f"cannot report {type(report).__name__}")


def render_report_csv(reports: Iterable[BoundReport | TopoReport]) -> str:
    buffer = _stdio.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=REPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        writer.writerow(_report_row(report))
    return buffer.getvalue()


def write_report(reports, destination) -> None:
    """Write one or many reports as CSV to a path or file-like object."""
    if isinstance(reports, (BoundReport, TopoReport)):
        reports = [reports]
    text = render_report_csv(reports)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
