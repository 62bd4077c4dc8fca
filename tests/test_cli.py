import csv
import json
import shlex
import sys

import pytest

from statebound import cli, minisolver, oracle, smt
from statebound.cli import main
from statebound.gen import GeneratorSpec, gen_lotus, gen_random
from statebound.io import parse_document, serialize_system


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(path):
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


class TestTopo:
    def test_lotus3(self, capsys):
        code, out, _ = run(capsys, "topo", "--gen", "lotus", "--n", "3")
        assert code == 0
        assert "d=2 rd=2 td=3 exp=3" in out

    def test_clique2(self, capsys):
        code, out, _ = run(capsys, "topo", "--gen", "clique", "--m", "2")
        assert code == 0
        assert "d=1 rd=3 td=3 exp=3" in out

    def test_zero_action_file(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"variables": ["a"], "actions": []}', encoding="utf-8")
        code, out, _ = run(capsys, "topo", "--input", str(path))
        assert code == 0
        assert "d=0 rd=0 td=0 exp=0" in out

    def test_witness_lines(self, capsys):
        code, out, _ = run(capsys, "topo", "--gen", "clique", "--m", "2", "--witness")
        assert code == 0
        assert "rd witness:" in out and "td walk:" in out

    @pytest.mark.parametrize("witness", [(), ("--witness",)])
    def test_one_graph_one_search(self, capsys, monkeypatch, witness):
        calls = {"build": 0, "search": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        for module in (cli, oracle):
            monkeypatch.setattr(
                module, "build_transition_graph", counting("build", module.build_transition_graph)
            )
        monkeypatch.setattr(
            oracle,
            "_search_longest_simple_path",
            counting("search", oracle._search_longest_simple_path),
        )
        code, out, _ = run(
            capsys, "topo", "--gen", "random", "--seed", "3", "--vars", "8", "--actions", "10",
            *witness,
        )
        assert code == 0
        assert calls == {"build": 1, "search": 1}
        assert ("rd witness:" in out) == bool(witness)

    def test_csv_written(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "topo", "--gen", "star", "--n", "3", "--csv", str(target)
        )
        assert code == 0
        rows = csv_rows(target)
        assert rows[0]["base"] == "topo" and rows[0]["problem"] == "star_3"

    def test_cap_exceeded_machine_readable(self, capsys):
        code, _, err = run(
            capsys, "topo", "--gen", "clique", "--m", "4", "--max-vars", "2"
        )
        assert code == 4
        reason = json.loads(err.strip())
        assert reason["error"] == "state-space-too-large"

    def test_over_budget_machine_readable(self, capsys):
        code, out, err = run(capsys, "topo", "--gen", "clique", "--m", "3", "--rd-budget", "5")
        assert code == 4 and out == ""
        assert json.loads(err.strip()) == {
            "error": "simple-path-search-too-large",
            "detail": "the simple-path search spent 6 work units, over its budget of 5",
        }


class TestRd:
    def test_clique_factored(self, capsys):
        code, out, _ = run(
            capsys, "rd", "--gen", "clique", "--m", "2", "--encoding", "factored"
        )
        assert code == 0
        assert "rd=3 (exact)" in out
        assert out.count("k=") == 4

    def test_lotus7_binary(self, capsys):
        code, out, _ = run(
            capsys,
            "rd", "--gen", "lotus", "--n", "7",
            "--encoding", "factored", "--schedule", "binary",
        )
        assert code == 0 and "rd=2 (exact)" in out

    @pytest.mark.parametrize(
        "schedule,asked",
        [("linear", [1, 2, 3, 4, 5, 6, 7, 8]), ("binary", [1, 2, 4, 8, 6, 7])],
        ids=["linear", "binary"],
    )
    def test_bound_answer_names_its_cause(self, capsys, schedule, asked):
        """Clique 3 has rd = td = 7: k = 8 is answered from td, and only its
        line says so."""
        code, out, _ = run(
            capsys,
            "rd", "--gen", "clique", "--m", "3", "--encoding", "explicit", "--schedule", schedule,
        )
        first, *lines = out.splitlines()
        assert code == 0 and first.startswith("rd=7 (exact) ")
        want = [f"  k={k} unsat (td=7)" if k == 8 else f"  k={k} sat" for k in asked]
        assert [line.rsplit(" ", 1)[0] for line in lines] == want  # the time cut off
        assert "  k=8 unsat (td=7) 0ms" in lines

    def test_bruteforce_flag(self, capsys):
        code, out, _ = run(capsys, "rd", "--gen", "lotus", "--n", "3", "--bruteforce")
        assert code == 0 and "rd=2 (bruteforce)" in out

    def test_emit_smt(self, capsys, tmp_path):
        out_dir = tmp_path / "scripts"
        code, out, _ = run(
            capsys,
            "rd", "--gen", "lotus", "--n", "3",
            "--emit-smt", str(out_dir), "--max-k", "3",
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["phi2_k1.smt2", "phi2_k2.smt2", "phi2_k3.smt2"]
        assert "(check-sat)" in (out_dir / "phi2_k2.smt2").read_text()

    def test_emit_smt_explicit_naming(self, capsys, tmp_path):
        out_dir = tmp_path / "scripts"
        code, _, _ = run(
            capsys,
            "rd", "--gen", "clique", "--m", "2",
            "--encoding", "explicit", "--emit-smt", str(out_dir), "--max-k", "2",
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "phi1_k1.smt2",
            "phi1_k2.smt2",
        ]

    def test_emit_smt_explicit_builds_one_graph(self, capsys, tmp_path, monkeypatch):
        builds = []
        build = oracle.build_transition_graph
        monkeypatch.setattr(
            oracle, "build_transition_graph", lambda *a, **kw: builds.append(a) or build(*a, **kw)
        )
        gen_args = ["--gen", "random", "--seed", "3", "--vars", "10", "--actions", "6"]
        code, _, _ = run(
            capsys, "rd", *gen_args, "--encoding", "explicit", "--emit-smt", str(tmp_path)
        )
        assert code == 0 and len(builds) == 1
        monkeypatch.undo()
        system, _ = cli._load_system(cli.build_parser().parse_args(["rd", *gen_args]))
        assert len(list(tmp_path.iterdir())) == 12
        for k in range(1, 13):
            doc = smt.encode(system, k, "explicit")
            assert (tmp_path / doc.script_name()).read_text(encoding="utf-8") == doc.rendering

    def test_emit_smt_failure_leaves_no_directory(self, capsys, tmp_path):
        # 22 random variables leave 21 in use, over the explicit-state cap.
        emit_dir = tmp_path / "scripts"
        code, out, err = run(
            capsys,
            "rd", "--gen", "random", "--vars", "22", "--actions", "30",
            "--encoding", "explicit", "--emit-smt", str(emit_dir),
        )
        assert code == 4 and out == ""
        assert json.loads(err.strip())["error"] == "state-space-too-large"
        assert not emit_dir.exists()

    def test_missing_solver_is_hard_failure(self, capsys):
        code, _, err = run(
            capsys,
            "rd", "--gen", "clique", "--m", "2",
            "--solver-cmd", "/nonexistent/solver",
        )
        assert code == 4
        assert json.loads(err.strip())["error"] == "solver-failure"


class TestBound:
    def test_clique_b1(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--gen", "clique", "--m", "2", "--base", "b1", "--bruteforce"
        )
        assert code == 0 and "total=3" in out

    def test_star_b1_no_solver_queries(self, capsys, tmp_path):
        target = tmp_path / "b.csv"
        code, out, _ = run(
            capsys,
            "bound", "--gen", "star", "--n", "3",
            "--base", "b1", "--csv", str(target),
        )
        assert code == 0 and "total=1" in out
        rows = csv_rows(target)
        assert rows[0]["rd_queries"] == "0"

    def test_batch_and_jobs_determinism(self, capsys, tmp_path):
        batch = tmp_path / "problems"
        batch.mkdir()
        for n in (1, 2, 3):
            (batch / f"lotus_{n}.json").write_text(
                serialize_system(gen_lotus(n), "json"), encoding="utf-8"
            )
        csv_one = tmp_path / "jobs1.csv"
        csv_two = tmp_path / "jobs2.csv"
        code1, _, _ = run(
            capsys,
            "bound", "--batch", str(batch), "--base", "b1",
            "--bruteforce", "--csv", str(csv_one), "--jobs", "1",
        )
        code2, _, _ = run(
            capsys,
            "bound", "--batch", str(batch), "--base", "b1",
            "--bruteforce", "--csv", str(csv_two), "--jobs", "2",
        )
        assert code1 == code2 == 0

        def stable(path):
            rows = csv_rows(path)
            timing = ("rd_time_ms", "td_time_ms", "total_time_ms")
            return [{k: v for k, v in row.items() if k not in timing} for row in rows]

        assert stable(csv_one) == stable(csv_two)

    def test_jobs_runs_in_process_solver_one_at_a_time(self, capsys, tmp_path, monkeypatch):
        batch = tmp_path / "problems"
        batch.mkdir()
        for n in (2, 3, 4):
            (batch / f"lotus_{n}.json").write_text(
                serialize_system(gen_lotus(n), "json"), encoding="utf-8"
            )
        workers = []
        pool = cli.ThreadPoolExecutor

        def recording(max_workers):
            workers.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", recording)
        spawned = shlex.join([sys.executable, minisolver.__file__, "{script}"])
        rows = {}
        for label, solver in (
            ("bruteforce", ["--bruteforce"]),
            ("bundled", []),
            ("spawned", ["--solver-cmd", spawned]),
        ):
            target = tmp_path / f"{label}.csv"
            code, _, _ = run(
                capsys,
                "bound", "--batch", str(batch), "--base", "b1",
                "--csv", str(target), "--jobs", "2", *solver,
            )
            assert code == 0
            rows[label] = [
                (row["problem"], row["total_bound"], row["rd_queries"])
                for row in csv_rows(target)
            ]
        # Only the in-process solver is held to one thread.
        assert workers == [2, 1, 2]
        assert rows["bundled"] == rows["spawned"]
        assert [total for _, total, _ in rows["bruteforce"]] == [
            total for _, total, _ in rows["bundled"]
        ]

    def test_batch_continues_past_bad_file(self, capsys, tmp_path):
        batch = tmp_path / "problems"
        batch.mkdir()
        (batch / "good.json").write_text(
            serialize_system(gen_lotus(2), "json"), encoding="utf-8"
        )
        (batch / "bad.json").write_text("{not json", encoding="utf-8")
        target = tmp_path / "out.csv"
        code, out, err = run(
            capsys,
            "bound", "--batch", str(batch), "--base", "td",
            "--bruteforce", "--csv", str(target),
        )
        assert code == 3  # parse failure recorded
        assert "good: total=" in out
        assert "bad" in err and "FAILED" in err
        rows = csv_rows(target)
        assert len(rows) == 1  # the good problem still produced a row

    def test_batch_skips_directories(self, capsys, tmp_path):
        batch = tmp_path / "problems"
        batch.mkdir()
        (batch / "lotus.json").write_text(serialize_system(gen_lotus(2), "json"), encoding="utf-8")
        (batch / "sub.json").mkdir()
        target = tmp_path / "out.csv"
        code, _, err = run(
            capsys,
            "bound", "--batch", str(batch), "--base", "td",
            "--bruteforce", "--csv", str(target),
        )
        assert code == 0 and "FAILED" not in err
        assert [row["problem"] for row in csv_rows(target)] == ["lotus"]

    def test_array_for_object_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"variables": ["v1"], "actions": [{"pre": [["v1", true]], "eff": {"v1": false}}]}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "bound", "--input", str(bad), "--bruteforce")
        assert code == 3 and out == ""
        assert json.loads(err.strip())["error"] == "parse-error"

    def test_empty_batch_is_config_error(self, capsys, tmp_path):
        batch = tmp_path / "empty"
        batch.mkdir()
        code, _, _ = run(capsys, "bound", "--batch", str(batch))
        assert code == 2

    def test_jobs_below_one_is_config_error(self, capsys, tmp_path):
        target = tmp_path / "b.csv"
        for jobs in ("0", "-3"):
            code, out, _ = run(
                capsys,
                "bound", "--gen", "lotus", "--n", "3", "--bruteforce",
                "--jobs", jobs, "--csv", str(target),
            )
            assert code == 2
            assert out == "" and not target.exists()


class TestConjecture:
    def test_star_like_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "conjecture", "--seeds", "1..10", "--vars", "3", "--actions", "4",
        )
        assert code == 0
        assert "counterexamples=0" in out

    def test_counterexample_is_dumped(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "check_conjecture", lambda system: oracle.ConjectureVerdict("counterexample", td=2, rd=3)
        )
        out_dir = tmp_path / "found"
        code, out, _ = run(
            capsys,
            "conjecture", "--seeds", "7..7", "--vars", "3", "--actions", "4",
            "--max-pre", "1", "--out", str(out_dir),
        )
        path = out_dir / "conjecture_counterexample_seed7.json"
        assert code == 0
        assert out.splitlines() == [
            f"counterexample at seed 7: td=2 rd=3 -> {path}",
            "holds=0 vacuous=0 counterexamples=1",
        ]
        doc = parse_document(path.read_text(encoding="utf-8"))
        assert doc.metadata == {
            "family": "random", "rng": "splitmix64", "seed": 7, "vars": 3,
            "actions": 4, "max_pre": 1, "max_eff": 2, "td": 2, "rd": 3,
        }
        spec = GeneratorSpec("random", seed=7, num_vars=3, num_actions=4, max_pre=1, max_eff=2)
        assert doc.system == gen_random(spec)

    def test_vars_cap(self, capsys):
        code, _, _ = run(capsys, "conjecture", "--seeds", "1..2", "--vars", "9")
        assert code == 2

    def test_bad_seed_range(self, capsys):
        code, _, _ = run(capsys, "conjecture", "--seeds", "oops")
        assert code == 2

    def test_reversed_seed_range(self, capsys):
        """A range whose end is below its start would check no seed."""
        code, out, err = run(capsys, "conjecture", "--seeds", "3..1")
        assert code == 2 and "holds=" not in out
        assert "--seeds 3..1 is empty" in err


class TestConfigErrors:
    def test_missing_input_and_gen(self, capsys):
        code, _, _ = run(capsys, "topo")
        assert code == 2

    def test_gen_without_size(self, capsys):
        code, _, _ = run(capsys, "topo", "--gen", "lotus")
        assert code == 2

    def test_unreadable_input(self, capsys):
        code, _, _ = run(capsys, "topo", "--input", "/nonexistent/x.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["topo", "bound", "rd", "conjecture"])
    def test_unwritable_output(self, capsys, tmp_path, monkeypatch, command):
        """An output path under a file, or a directory that is a file, is a
        configuration error, reported after the results."""
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setattr(
            cli, "check_conjecture", lambda system: oracle.ConjectureVerdict("counterexample", td=2, rd=3)
        )
        lotus = ["--gen", "lotus", "--n", "3"]
        argv = {
            "topo": ["topo", *lotus, "--csv", str(blocker / "x.csv")],
            "bound": ["bound", *lotus, "--csv", str(blocker / "x.csv")],
            "rd": ["rd", *lotus, "--emit-smt", str(blocker)],
            "conjecture": ["conjecture", "--seeds", "7..7", "--vars", "3", "--out", str(blocker)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("source", [["--input", "missing.json"], ["--gen", "lotus", "--n", "3"]])
    def test_batch_with_one_system_is_config_error(self, capsys, tmp_path, source):
        batch = tmp_path / "problems"
        batch.mkdir()
        (batch / "lotus_2.json").write_text(serialize_system(gen_lotus(2), "json"), encoding="utf-8")
        target = tmp_path / "out.csv"
        code, out, err = run(
            capsys, "bound", "--batch", str(batch), *source, "--bruteforce", "--csv", str(target)
        )
        assert code == 2 and out == ""
        assert "--batch" in err
        assert not target.exists()

    def test_emit_smt_with_bruteforce_is_config_error(self, capsys, tmp_path):
        emit_dir = tmp_path / "scripts"
        code, out, err = run(
            capsys, "rd", "--gen", "lotus", "--n", "3", "--emit-smt", str(emit_dir), "--bruteforce"
        )
        assert code == 2 and out == ""
        assert "--emit-smt" in err
        assert not emit_dir.exists()

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("topo", "--max-vars"),
            ("topo", "--rd-budget"),
            ("rd", "--max-vars"),
            ("rd", "--rd-budget"),
            ("rd", "--timeout-ms"),
            ("rd", "--max-k"),
            ("bound", "--max-vars"),
            ("bound", "--rd-budget"),
            ("bound", "--timeout-ms"),
            ("bound", "--jobs"),
        ],
    )
    def test_count_below_one(self, capsys, tmp_path, command, flag):
        target = tmp_path / "out.csv"
        emit_dir = tmp_path / "scripts"
        output = {
            "topo": ["--csv", str(target)],
            "rd": ["--emit-smt", str(emit_dir)],
            "bound": ["--bruteforce", "--csv", str(target)],
        }[command]
        for value in ("0", "-1"):
            code, out, err = run(
                capsys, command, "--gen", "lotus", "--n", "3", *output, flag, value
            )
            assert code == 2 and out == "", (flag, value)
            assert flag in err
            assert not target.exists() and not emit_dir.exists()

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "topo", "--input", str(bad))
        assert code == 3
        assert json.loads(err.strip())["error"] == "parse-error"

    @pytest.mark.parametrize("command", ["topo", "bound"])
    def test_non_utf8_input_is_parse_error(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"variables": ["v\xff"]}')
        code, out, err = run(capsys, command, "--input", str(bad))
        assert code == 3 and out == ""
        reason = json.loads(err.strip())
        assert reason["error"] == "parse-error"
        assert "not UTF-8 at byte 17" in reason["detail"]

    def test_non_utf8_batch_file_is_parse_error(self, capsys, tmp_path):
        batch = tmp_path / "problems"
        batch.mkdir()
        (batch / "bad.json").write_bytes(b'{"variables": ["v\xff"]}')
        (batch / "good.json").write_text(serialize_system(gen_lotus(2), "json"), encoding="utf-8")
        code, out, err = run(capsys, "bound", "--batch", str(batch), "--bruteforce")
        assert code == 3
        assert "good: total=" in out
        assert "bad.json: FAILED" in err and "not UTF-8 at byte 17" in err
