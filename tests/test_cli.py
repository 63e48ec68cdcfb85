"""Command-line interface: subcommands, JSON output, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import datalogmtl
from datalogmtl import cli
from datalogmtl.cli import main
from datalogmtl.syntax import parse_program

from helpers import FIXTURES, block_buffered_env


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def fix(name):
    return str(FIXTURES / name)


def test_check_true(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--program", fix("immune.dmtl"),
        "--data", fix("immune.dtf"),
        "--fact", "Immune(james)@[7,10]",
    )
    assert code == 0 and out.strip() == "true"


def test_check_json(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--program", fix("immune.dmtl"),
        "--data", fix("immune.dtf"),
        "--fact", "Immune(james)@[6,10]",
        "--json", "--sequential",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is False and payload["fact_type"] == "T2"
    assert set(payload) == {"answer", "fact_type", "rounds", "winner",
                            "inconsistent", "timings"}


def test_materialize_json(capsys):
    code, out, _ = run(
        capsys,
        "materialize",
        "--program", fix("immune.dmtl"),
        "--data", fix("immune.dtf"),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Fixpoint" and payload["rounds"] == 2


def test_materialize_round_limit_exit_code(capsys):
    code, _, _ = run(
        capsys,
        "materialize",
        "--program", fix("birthday.dmtl"),
        "--data", fix("birthday.dtf"),
        "--max-rounds", "3",
        "--json",
    )
    assert code == 3


def test_materialize_has_a_default_round_budget(capsys, monkeypatch):
    # birthday never reaches a fixpoint; record the budget materialize is
    # given and run a short one, so the default is checked without 1000 rounds
    budgets = []
    real = cli.materialise

    def recording(program, store, max_rounds=None):
        budgets.append(max_rounds)
        return real(program, store, max_rounds=3)

    monkeypatch.setattr(cli, "materialise", recording)
    code, _, _ = run(
        capsys,
        "materialize",
        "--program", fix("birthday.dmtl"),
        "--data", fix("birthday.dtf"),
        "--json",
    )
    assert budgets == [1000] and code == 3


def test_materialize_writes_output(capsys, tmp_path):
    out_file = tmp_path / "out.dtf"
    code, _, _ = run(
        capsys,
        "materialize",
        "--program", fix("immune.dmtl"),
        "--data", fix("immune.dtf"),
        "-o", str(out_file),
    )
    assert code == 0
    assert "Immune(james)@[7,14]" in out_file.read_text()


def test_consistency(capsys):
    code, out, _ = run(
        capsys,
        "consistency",
        "--program", fix("monitoring.dmtl"),
        "--data", fix("monitoring.dtf"),
        "--json",
    )
    assert code == 0 and json.loads(out) == {"consistent": True}


def test_analyze_json(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--program", fix("professor.dmtl"),
        "--predicate", "AssistantProfessor",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["recursive_predicates"] == ["Chair", "FullProfessor"]
    assert payload["recursive_program"] is True
    assert len(payload["relevant_rules"]) == 1


def test_analyze_dot(capsys):
    code, out, _ = run(capsys, "analyze", "--program", fix("professor.dmtl"), "--dot")
    assert code == 0 and out.startswith("digraph")


def test_generate_and_bench(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "predicates": [["NoSympt", 1]],
        "constant_pool": 3,
        "fact_count": 20,
        "endpoint_range": [0, 50],
        "max_interval_length": 10,
        "granularity": 1,
        "seed": 5,
    }))
    data_file = tmp_path / "gen.dtf"
    code, _, _ = run(capsys, "generate", "--spec", str(spec_file), "-o", str(data_file))
    assert code == 0
    text1 = data_file.read_text()
    assert len(text1.strip().splitlines()) == 20
    run(capsys, "generate", "--spec", str(spec_file), "-o", str(data_file))
    assert data_file.read_text() == text1

    queries = tmp_path / "q.dtf"
    queries.write_text("NoSympt(c0)@[1,2]\nImmune(c1)@[10,12]\n")
    code, out, _ = run(
        capsys,
        "bench",
        "--program", fix("immune.dmtl"),
        "--data", str(data_file),
        "--queries", str(queries),
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["queries"]) == 2 and "census" in report


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "check", "--program", "nope.dmtl",
                       "--data", fix("immune.dtf"), "--fact", "P(a)@[0,1]")
    assert code == 2 and "error" in err


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.dmtl"
    bad.write_text("P(X) :- ")
    code, _, err = run(capsys, "materialize", "--program", str(bad),
                       "--data", fix("immune.dtf"))
    assert code == 2


@pytest.mark.parametrize(
    "program, data, fact",
    [
        ("P(X) :- Q(X) .", "Q(a)@[0,1]\n", "P(a)@[0,1/0]"),
        ("P(X) :- Q(X) .", "Q(a)@[0,1/0]\n", "P(a)@[0,1]"),
        ("P(X) :- DIAMONDMINUS[0,1.5/2] Q(X) .", "Q(a)@[0,1]\n", "P(a)@[0,1]"),
    ],
    ids=["fact", "dataset", "program"],
)
def test_malformed_rational_exit_2(capsys, tmp_path, program, data, fact):
    (tmp_path / "p.dmtl").write_text(program)
    (tmp_path / "d.dtf").write_text(data)
    code, _, err = run(capsys, "check", "--program", str(tmp_path / "p.dmtl"),
                       "--data", str(tmp_path / "d.dtf"), "--fact", fact)
    assert code == 2
    assert err.startswith("error: line 1, column ") and "not a rational number" in err


GOOD_SPEC = {
    "predicates": [["P", 1]],
    "constant_pool": 3,
    "fact_count": 2,
    "endpoint_range": [0, 5],
    "max_interval_length": 2,
    "granularity": 1,
    "seed": 1,
}


@pytest.mark.parametrize(
    "change, field",
    [
        ({"constant_pool": None}, "constant_pool"),
        ({"seed": None}, "seed"),
        ({"predicates": 5}, "predicates"),
        ({"predicates": [["P"]]}, "predicates"),
        ({"endpoint_range": [0, 5, 6]}, "endpoint_range"),
        ({"endpoint_range": [5, 0]}, "endpoint_range"),
        ({"granularity": "1/0"}, "granularity"),
        ({"granularity": 0}, "granularity"),
        ({"fact_count": "many"}, "fact_count"),
        ({"constant_pool": 0}, "constant_pool"),
        ({"max_interval_length": -1}, "max_interval_length"),
    ],
)
def test_generate_malformed_spec_exit_2(capsys, tmp_path, change, field):
    spec = {k: v for k, v in {**GOOD_SPEC, **change}.items() if v is not None}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code, out, err = run(capsys, "generate", "--spec", str(tmp_path / "spec.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize(
    "predicates", [[[1, 1], ["p q", 0]], [["P", 1], ["TOP", 1]], [["P", -1]]]
)
def test_generate_rejects_predicates_the_parser_cannot_read(capsys, tmp_path, predicates):
    (tmp_path / "spec.json").write_text(json.dumps({**GOOD_SPEC, "predicates": predicates}))
    code, out, err = run(capsys, "generate", "--spec", str(tmp_path / "spec.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: generator spec field 'predicates' is malformed: ")


def test_dataset_fault_reports_its_dataset_line(capsys, tmp_path):
    (tmp_path / "p.dmtl").write_text("")
    (tmp_path / "d.dtf").write_text("P(a)@[0,1]\nP(b)@[0,x]\n")
    code, _, err = run(capsys, "materialize", "--program", str(tmp_path / "p.dmtl"),
                       "--data", str(tmp_path / "d.dtf"))
    assert code == 2
    assert err.startswith("error: line 2, column 9: ")


def test_usage_error_exit_1(capsys):
    assert main(["check"]) == 1
    assert main([]) == 1


def test_help_documents_grammar(capsys):
    code = main(["--help"])
    out = capsys.readouterr().out
    assert code == 0 and ".dmtl" in out and ".dtf" in out
    # every example metric atom in the grammar summary parses
    examples = out.split("metric atoms:")[1].split("operators:")[0].split("|")
    atoms = [a.strip() for a in examples if "parentheses" not in a]
    assert len(atoms) == 6
    for atom in atoms:
        parse_program(f"H :- {atom} .")


def test_race_without_an_answer_exits_3(tmp_path):
    # the automata reject the unbounded BOXMINUS in a rule body and
    # materialisation never reaches the query, so neither engine answers
    prog = tmp_path / "p.dmtl"
    prog.write_text("BOXPLUS[1,1] P(X) :- P(X) .\nQ(X) :- BOXMINUS[0,+inf) P(X) .\n")
    data = tmp_path / "d.dtf"
    data.write_text("P(a)@[0,0]\n")
    src = str(Path(datalogmtl.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "datalogmtl.cli", "check", "--program", str(prog),
         "--data", str(data), "--fact", "Q(a)@[5,5]", "--max-rounds", "50"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 3, done.stderr
    assert "limit:" in done.stderr


def test_race_check_json_through_a_pipe_prints_one_document():
    # stdout is a block-buffered pipe here, which the race's forked child
    # inherits; the answer must still come out once
    done = subprocess.run(
        [sys.executable, "-m", "datalogmtl.cli", "check", "--program", fix("birthday.dmtl"),
         "--data", fix("birthday.dtf"), "--fact", "Bday(a)@[1/2,1/2]", "--json"],
        capture_output=True, text=True, env=block_buffered_env(), timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("\n") == 1
    payload = json.loads(done.stdout)
    assert (payload["answer"], payload["fact_type"]) == (False, "T5")
    assert "race" in payload["timings"]
