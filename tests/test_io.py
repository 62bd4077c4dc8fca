import csv
import io as stdio

import pytest

from statebound.compose import BaseCaseKind, compositional_bound
from statebound.core import Action, PartialState, System
from statebound.gen import GeneratorSpec, gen_clique, gen_lotus, gen_random, gen_star
from statebound.io import (
    REPORT_COLUMNS,
    SystemParseError,
    detect_format,
    parse_document,
    parse_system,
    render_report_csv,
    serialize_system,
    write_report,
)
from statebound.oracle import compute_topo_report

EXAMPLE1_JSON = """
{
  "variables": ["v1", "v2"],
  "actions": [
    {"pre": {}, "eff": {"v1": true, "v2": true}},
    {"pre": {}, "eff": {"v1": false, "v2": true}},
    {"pre": {}, "eff": {"v1": true, "v2": false}},
    {"pre": {}, "eff": {"v1": false, "v2": false}}
  ]
}
"""


class TestJsonParsing:
    def test_worked_example(self, clique2):
        system = parse_system(EXAMPLE1_JSON, "json")
        assert system == clique2

    def test_metadata_preserved(self):
        document = parse_document(
            '{"variables": ["a"], "actions": [], "metadata": {"name": "x"}}', "json"
        )
        assert document.metadata == {"name": "x"}

    def test_unknown_variable_rejected(self):
        text = '{"variables": ["a"], "actions": [{"pre": {}, "eff": {"b": true}}]}'
        with pytest.raises(SystemParseError):
            parse_system(text, "json")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(SystemParseError):
            parse_system('{"variables": ["a", "a"], "actions": []}', "json")

    def test_duplicate_key_in_one_side_rejected(self):
        text = '{"variables": ["a"], "actions": [{"pre": {"a": true, "a": false}, "eff": {"a": true}}]}'
        with pytest.raises(SystemParseError):
            parse_system(text, "json")

    def test_syntax_error_carries_position(self):
        with pytest.raises(SystemParseError) as info:
            parse_system('{"variables": [,]}', "json")
        assert info.value.line == 1 and info.value.column is not None

    def test_non_bool_value_rejected(self):
        text = '{"variables": ["a"], "actions": [{"pre": {}, "eff": {"a": 1}}]}'
        with pytest.raises(SystemParseError):
            parse_system(text, "json")

    @pytest.mark.parametrize(
        "text",
        [
            '{"variables": ["v1"], "actions": [{"pre": [["v1", true]], "eff": {"v1": false}}]}',
            '{"variables": ["a"], "actions": [{"pre": [], "eff": {"a": true}}]}',
            '{"variables": ["a"], "actions": [[]]}',
            '{"variables": ["a"], "actions": {}}',
            '{"variables": {}, "actions": []}',
            '{"variables": ["a"], "variables": ["b"], "actions": []}',
            '{"variables": ["a"], "actions": [], "metadata": {"x": {"y": 1, "y": 2}}}',
        ],
        ids=[
            "pairs-as-pre",
            "empty-array-as-pre",
            "empty-array-as-action",
            "object-as-actions",
            "object-as-variables",
            "repeated-top-level-key",
            "repeated-metadata-key",
        ],
    )
    def test_array_object_mixup_and_repeated_key_rejected(self, text):
        with pytest.raises(SystemParseError):
            parse_system(text, "json")

    def test_unknown_top_level_key_rejected(self):
        # A misspelt "actions" would otherwise parse as a system with none.
        text = '{"variables": ["a"], "action": [{"pre": {}, "eff": {"a": true}}]}'
        with pytest.raises(SystemParseError, match="'action'"):
            parse_system(text, "json")

    def test_non_object_metadata_rejected(self):
        text = '{"variables": ["a"], "actions": [], "metadata": [["k", 1]]}'
        with pytest.raises(SystemParseError, match="'metadata'"):
            parse_document(text, "json")

    def test_empty_array_in_metadata_kept(self):
        document = parse_document(
            '{"variables": ["a"], "actions": [], "metadata": {"tags": []}}', "json"
        )
        assert document.metadata == {"tags": []}


class TestCompactParsing:
    def test_minimal_file(self):
        system = parse_system("vars: v1\npre: -> eff: v1\n", "compact")
        assert len(system.variables) == 1
        assert system.actions == (Action(PartialState(), PartialState(1, 1)),)

    def test_negative_literals_and_comments(self):
        text = "# header\nvars: a, b\npre: a,!b -> eff: !a  # trailing\n"
        system = parse_system(text, "compact")
        action = system.actions[0]
        assert dict(action.pre.items()) == {0: True, 1: False}
        assert dict(action.eff.items()) == {0: False}

    def test_contradictory_literal_rejected(self):
        with pytest.raises(SystemParseError) as info:
            parse_system("vars: v1, v2\npre: v1,!v1 -> eff: v2\n", "compact")
        assert info.value.line == 2

    def test_unknown_variable_rejected(self):
        with pytest.raises(SystemParseError) as info:
            parse_system("vars: v1\npre: -> eff: v2\n", "compact")
        assert info.value.line == 2 and info.value.column is not None

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(SystemParseError):
            parse_system("vars: v1, v1\n", "compact")

    @pytest.mark.parametrize(
        "text,message,column",
        [
            ("vars: x\npre: r -> eff: x\n", "undeclared variable 'r'", 6),
            ("vars: ab\npre: ab -> eff: a\n", "undeclared variable 'a'", 17),
            ("vars: x, x\n", "duplicate variable declaration 'x'", 10),
            ("vars: a, b\npre: b, a, !a -> eff: a\n", "takes both polarities", 12),
        ],
    )
    def test_error_column_is_the_offending_token(self, text, message, column):
        # The first three tokens also occur earlier on their line.
        with pytest.raises(SystemParseError, match=message) as info:
            parse_system(text, "compact")
        assert info.value.column == column

    def test_action_before_header_rejected(self):
        with pytest.raises(SystemParseError):
            parse_system("pre: -> eff: v1\nvars: v1\n", "compact")

    def test_garbage_line_rejected(self):
        with pytest.raises(SystemParseError) as info:
            parse_system("vars: v1\nwat\n", "compact")
        assert info.value.line == 2

    def test_empty_system_round_trip(self):
        system = System.from_names([], ())
        text = serialize_system(system, "compact")
        assert parse_system(text, "compact") == system


class TestSerialization:
    @pytest.mark.parametrize("fmt", ["json", "compact"])
    def test_round_trip_families(self, fmt):
        systems = [gen_clique(2), gen_star(3), gen_lotus(3)]
        systems += [
            gen_random(GeneratorSpec("random", seed=s, num_vars=4, num_actions=6))
            for s in range(1, 11)
        ]
        for system in systems:
            text = serialize_system(system, fmt)
            assert parse_system(text, fmt) == system

    def test_metadata_round_trip(self, clique2):
        metadata = {"name": "x", "run": {"seed": 3, "opts": {}}, "tags": ["a", 1], "empty": []}
        text = serialize_system(clique2, "json", metadata=metadata)
        assert parse_document(text, "json").metadata == metadata

    def test_byte_determinism(self):
        system = gen_lotus(3)
        assert serialize_system(system, "json") == serialize_system(system, "json")
        assert serialize_system(system, "compact") == serialize_system(system, "compact")

    def test_lf_endings(self):
        text = serialize_system(gen_star(2), "compact")
        assert "\r" not in text and text.endswith("\n")

    def test_detect_format(self):
        assert detect_format("x.json") == "json"
        assert detect_format("x.txt") == "compact"


class TestReports:
    def test_bound_report_row(self, clique2):
        report = compositional_bound(clique2, BaseCaseKind("b1"), problem="clique_2")
        text = render_report_csv([report])
        rows = list(csv.DictReader(stdio.StringIO(text)))
        assert list(rows[0]) == list(REPORT_COLUMNS)
        row = rows[0]
        assert row["problem"] == "clique_2"
        assert row["base"] == "b1"
        assert row["total_bound"] == "3"
        assert row["num_clusters"] == "1"
        assert row["degraded"] == "false"
        int(row["rd_time_ms"])  # integral milliseconds
        int(row["total_time_ms"])

    def test_topo_report_row(self, star3):
        report = compute_topo_report(star3, problem="star_3")
        rows = list(csv.DictReader(stdio.StringIO(render_report_csv([report]))))
        assert rows[0]["base"] == "topo"
        assert rows[0]["total_bound"] == "1"  # the diameter

    def test_empty_batch_header_only(self):
        text = render_report_csv([])
        assert text == ",".join(REPORT_COLUMNS) + "\n"

    def test_write_report_to_path(self, tmp_path, clique2):
        report = compositional_bound(clique2, BaseCaseKind("td"), problem="c")
        out = tmp_path / "r.csv"
        write_report(report, out)
        with out.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["problem"] == "c"

    def test_csv_parses_back(self, toggles2):
        reports = [
            compositional_bound(toggles2, BaseCaseKind(tag), problem=f"t_{tag}")
            for tag in ("exp", "td", "rd", "b1", "b2")
        ]
        rows = list(csv.DictReader(stdio.StringIO(render_report_csv(reports))))
        assert [r["problem"] for r in rows] == [f"t_{t}" for t in ("exp", "td", "rd", "b1", "b2")]
        assert all(set(r) == set(REPORT_COLUMNS) for r in rows)
