"""Command-line interface: subcommands, JSON output, and exit codes."""

import gc
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import datalogmtl
from datalogmtl import cli, materialisation, pipeline
from datalogmtl.analysis import propagation
from datalogmtl.automata import SearchBudgetExceeded, _Engine
from datalogmtl.cli import main
from datalogmtl.dense_grid import GridOracle
from datalogmtl.store import FactStore
from datalogmtl.syntax import ground, parse_dataset, parse_fact, parse_program

from helpers import FIXTURES, block_buffered_env, forbid_processes


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
    assert payload.keys() == {"status", "rounds", "facts", "coalescing_s"}
    assert isinstance(payload["coalescing_s"], float) and payload["coalescing_s"] >= 0


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


def test_materialize_notes_inconsistency_on_stderr(capsys, tmp_path):
    (tmp_path / "p.dmtl").write_text("BOTTOM :- P(X) .\n")
    (tmp_path / "d.dtf").write_text("P(a)@[0,1]\nP(b)@[3,4]\n")
    code, out, err = run(capsys, "materialize", "--program", str(tmp_path / "p.dmtl"),
                         "--data", str(tmp_path / "d.dtf"))
    assert (code, out) == (0, "P(a)@[0,1]\nP(b)@[3,4]\n")
    assert err == "note: inconsistent, BOTTOM derived on [0,1], [3,4]\n"


# An open head variable, Y below, ranges over every constant of the program,
# the data and the query, as in the automata's grounding: k only the query
# names, and m only the second rule.
OPEN_HEAD = "H(X,Y) :- P(X,Y) SINCE[0,1] Q(X) .\n"
OPEN_HEAD_DATA = "Q(a)@[0,0]\nR(b)@[3,3]\n"


def oracle_entails(program_text, data_text, query_text):
    """Whether the grid oracle's model over the program, data and query
    constants covers the query."""
    program, facts, query = parse_program(program_text), parse_dataset(data_text), parse_fact(query_text)
    constants = program.constants() | {a.name for f in [*facts, query] for a in f.atom.args}
    oracle = GridOracle(program, facts)
    oracle.materialise(sorted(ground(program, constants), key=str))
    return set(oracle.cells_covering(query.interval)) <= oracle.model.get(query.atom.key(), set())


@pytest.mark.parametrize("mode", [[], ["--sequential"]], ids=["race", "sequential"])
@pytest.mark.parametrize("program, query, entailed", [
    (OPEN_HEAD, "H(a,k)@[0,0]", True),
    (OPEN_HEAD, "H(k,a)@[0,0]", False),
    (OPEN_HEAD + "W(X) :- H(X,m) .\n", "W(a)@[0,0]", True),
], ids=["query-constant", "no-witness", "other-rule-constant"])
def test_open_head_variables_range_over_every_constant(capsys, tmp_path, mode, program, query, entailed):
    (tmp_path / "p.dmtl").write_text(program)
    (tmp_path / "d.dtf").write_text(OPEN_HEAD_DATA)
    assert oracle_entails(program, OPEN_HEAD_DATA, query) is entailed
    code, out, _ = run(capsys, "check", "--program", str(tmp_path / "p.dmtl"),
                       "--data", str(tmp_path / "d.dtf"), "--fact", query, *mode)
    assert (code, out) == (0, f"{str(entailed).lower()}\n")


def test_materialize_ranges_open_head_variables_over_every_program_constant(capsys, tmp_path):
    (tmp_path / "p.dmtl").write_text(OPEN_HEAD + "W(X) :- H(X,m) .\n")
    (tmp_path / "d.dtf").write_text(OPEN_HEAD_DATA)
    code, out, _ = run(capsys, "materialize", "--program", str(tmp_path / "p.dmtl"),
                       "--data", str(tmp_path / "d.dtf"))
    assert code == 0
    assert out.splitlines() == [
        "H(a,a)@[0,0]", "H(a,b)@[0,0]", "H(a,m)@[0,0]", "Q(a)@[0,0]", "R(b)@[3,3]", "W(a)@[0,0]",
    ]


def test_library_materialise_gives_the_store_cli_materialize_prints(capsys, tmp_path):
    # materialise widens the domain by the program's constants itself, so
    # a library run also derives H(a,m) and W(a)
    program = OPEN_HEAD + "W(X) :- H(X,m) .\n"
    (tmp_path / "p.dmtl").write_text(program)
    (tmp_path / "d.dtf").write_text(OPEN_HEAD_DATA)
    code, out, _ = run(capsys, "materialize", "--program", str(tmp_path / "p.dmtl"),
                       "--data", str(tmp_path / "d.dtf"))
    store = FactStore.from_facts(parse_dataset(OPEN_HEAD_DATA))
    assert code == 0
    assert materialisation.materialise(parse_program(program), store).store.dump() == out
    assert store.domain == frozenset()


def test_materialize_json_does_not_format_the_store(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the store was formatted")

    monkeypatch.setattr(FactStore, "dump", refuse)
    code, out, _ = run(capsys, "materialize", "--program", fix("immune.dmtl"),
                       "--data", fix("immune.dtf"), "--json")
    assert code == 0 and json.loads(out)["status"] == "Fixpoint"


def test_consistency(capsys):
    code, out, _ = run(
        capsys,
        "consistency",
        "--program", fix("monitoring.dmtl"),
        "--data", fix("monitoring.dtf"),
        "--json",
    )
    assert code == 0 and json.loads(out) == {"consistent": True}


def consistency_files(tmp_path, program, data):
    (tmp_path / "p.dmtl").write_text(program)
    (tmp_path / "d.dtf").write_text(data)
    return ("consistency", "--program", str(tmp_path / "p.dmtl"), "--data", str(tmp_path / "d.dtf"),
            "--trace", str(tmp_path / "trace.txt"))


def test_consistency_trace_is_written_on_exit_3(capsys, tmp_path):
    args = consistency_files(tmp_path, "BOTTOM :- DIAMONDMINUS[0,+inf) P(a) .\n", "P(a)@[0,1]\n")
    code, out, err = run(capsys, *args)
    assert code == 3 and out == "" and err.startswith("limit: unbounded operator intervals")
    last = (tmp_path / "trace.txt").read_text().splitlines()[-1]
    assert last.startswith("exit 3: NotImplementedError: unbounded operator intervals")


def test_consistency_rejects_an_unbounded_head_exit_3(capsys, tmp_path):
    program = "BOXPLUS[0,+inf) P(X) :- Q(X) .\nBOTTOM :- P(X), R(X) .\n"
    code, out, err = run(capsys, *consistency_files(tmp_path, program, "Q(a)@[0,1]\nR(a)@[5,6]\n"))
    assert (code, out, err) == (3, "", "limit: unbounded operator intervals in rule heads are unsupported\n")


def test_consistency_discharges_an_obligation_past_the_data(capsys, tmp_path):
    # M is absent from 5 on, where the reduction-shaped rule's box starts
    program = "BOTTOM :- A, BOXPLUS[5,+inf) M .\n"
    code, out, _ = run(capsys, *consistency_files(tmp_path, program, "A@[0,0]\nM@[0,1]\n"))
    assert code == 0 and out == "consistent\n"


def test_consistency_trace_is_written_on_a_budget_exit(capsys, tmp_path, monkeypatch):
    def exhausted(eng):
        raise SearchBudgetExceeded("automata state budget exhausted")

    monkeypatch.setattr(_Engine, "_poll", exhausted)
    args = consistency_files(tmp_path, "BOTTOM :- BOXMINUS[0,2] P(a) .\n", "P(a)@[0,1]\n")
    code, _, _ = run(capsys, *args)
    assert code == 3
    assert (tmp_path / "trace.txt").read_text().splitlines() == [
        "dropped 0 components without BOTTOM, 0 ground rules",
        "exit 3: SearchBudgetExceeded: automata state budget exhausted",
    ]


def test_consistency_trace_says_why_no_search_ran(capsys, tmp_path):
    code, out, _ = run(capsys, *consistency_files(tmp_path, "Q(a) :- P(a) .\n", "P(a)@[0,1]\n"))
    assert code == 0 and out.strip() == "consistent"
    assert (tmp_path / "trace.txt").read_text().splitlines() == [
        "no rule has a BOTTOM head: consistent without search",
        "exit 0: consistent",
    ]


def test_consistency_answers_when_an_unsupported_operator_cannot_derive_bottom(capsys, tmp_path):
    # the unbounded DIAMONDMINUS sits in a component with no BOTTOM head,
    # which is consistent without search, so it is no longer rejected (exit 3)
    program = "Q(b) :- DIAMONDMINUS[0,+inf) P(b) .\nBOTTOM :- BOXMINUS[0,2] P(a) .\n"
    code, out, _ = run(capsys, *consistency_files(tmp_path, program, "P(a)@[0,1]\nP(b)@[0,1]\n"))
    assert code == 0 and out.strip() == "consistent"
    lines = (tmp_path / "trace.txt").read_text().splitlines()
    assert lines[0] == "dropped 1 components without BOTTOM, 1 ground rules"
    assert lines[-2].startswith("component 1 of 1: 1 ground rules, 1 facts, 13 span cells, ")
    assert lines[-1] == "exit 0: consistent"


def test_consistency_trace_does_not_depend_on_the_hash_seed(tmp_path):
    # the components are decided in the order of their first ground rule
    args = consistency_files(tmp_path, "BOTTOM :- BOXMINUS[0,2] P(X) .\n",
                             "P(c)@[0,9]\nP(a)@[0,1]\nP(b)@[4,4]\n")
    traces = []
    for seed in ("1", "2"):
        env = dict(block_buffered_env(), PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-m", "datalogmtl.cli", *args],
                              capture_output=True, text=True, env=env, timeout=30)
        assert done.returncode == 0 and done.stdout == "inconsistent\n", done.stderr
        traces.append((tmp_path / "trace.txt").read_text())
    assert traces[0] == traces[1]
    assert [line.split(":")[0] for line in traces[0].splitlines() if line.startswith("component")] == [
        "component 1 of 3", "component 2 of 3", "component 3 of 3",
    ]


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


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "--program", fix("professor.dmtl"), "--predicate", "AssistantProfessor")
    assert code == 0
    assert out.splitlines() == [
        "recursive: yes",
        "recursive predicates: Chair, FullProfessor",
        "rules relevant to AssistantProfessor:",
        "  AssistantProfessor(X) :- BOXMINUS[0,3] Lecturer(X) .",
    ]
    code, out, _ = run(capsys, "analyze", "--program", fix("immune.dmtl"))
    assert code == 0 and out.splitlines() == ["recursive: no", "recursive predicates: (none)"]


def test_analyze_json_does_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("1", "2"):
        env = dict(block_buffered_env(), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-m", "datalogmtl.cli", "analyze", "--program", fix("professor.dmtl"), "--json"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    sccs = json.loads(outputs[0])["sccs"]
    assert sccs == sorted(sccs) and ["Chair", "FullProfessor"] in sccs


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
    code, out, _ = run(capsys, "generate", "--spec", str(spec_file))
    assert code == 0 and out == text1

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


def test_bench_text(capsys, tmp_path):
    queries = tmp_path / "q.dtf"
    queries.write_text("Immune(james)@[7,10]\nImmune(james)@[6,10]\nNoSympt(james)@[1,2]\n")
    code, out, _ = run(capsys, "bench", "--program", fix("immune.dmtl"), "--data", fix("immune.dtf"),
                       "--queries", str(queries))
    assert code == 0
    *rows, census = out.splitlines()
    rows = [row.split("\t") for row in rows]
    assert [row[:4] for row in rows] == [
        ["Immune(james)@[7,10]", "True", "T2", "rounds=1"],
        ["Immune(james)@[6,10]", "False", "T2", "rounds=2"],
        ["NoSympt(james)@[1,2]", "True", "T1", "rounds=0"],
    ]
    assert all(len(row) == 5 and re.fullmatch(r"total=\d+\.\d{3}s", row[4]) for row in rows)
    assert census == "census: {'T1': 1, 'T2': 2, 'T3': 0, 'T4': 0, 'T5': 0}"


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


def test_bench_arity_conflict_exit_2(capsys, tmp_path):
    # bench reads the same inputs as check, so it rejects the same conflicts
    prog, data, queries = tmp_path / "p.dmtl", tmp_path / "d.dtf", tmp_path / "q.dtf"
    prog.write_text("P(X) :- Q(X) .\n")
    data.write_text("Q(a,b)@[0,1]\n")
    queries.write_text("P(a)@[0,1]\n")
    code, out, err = run(capsys, "bench", "--program", str(prog), "--data", str(data),
                         "--queries", str(queries))
    assert (code, out) == (2, "") and "arity conflict for predicate Q" in err


def test_check_fact_arity_conflict_exit_2(capsys, tmp_path):
    prog, data = tmp_path / "p.dmtl", tmp_path / "d.dtf"
    prog.write_text("P(X) :- Q(X) .\n")
    data.write_text("Q(a)@[0,1]\n")
    code, out, err = run(capsys, "check", "--program", str(prog), "--data", str(data),
                         "--fact", "P(a,b)@[0,1]")
    assert (code, out) == (2, "") and "arity conflict for predicate P" in err


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
        # integer fields take JSON integers only, not numbers that truncate
        # or values that Python's int converts
        ({"constant_pool": 2.7}, "constant_pool"),
        ({"fact_count": True}, "fact_count"),
        ({"seed": "3"}, "seed"),
        ({"seed": 1.0}, "seed"),
        ({"predicates": [["P", 1.5]]}, "predicates"),
        ({"predicates": [["P", False]]}, "predicates"),
    ],
)
def test_generate_malformed_spec_exit_2(capsys, tmp_path, change, field):
    spec = {k: v for k, v in {**GOOD_SPEC, **change}.items() if v is not None}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code, out, err = run(capsys, "generate", "--spec", str(tmp_path / "spec.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err


def test_generate_spec_must_be_an_object_exit_2(capsys, tmp_path):
    (tmp_path / "spec.json").write_text("[1,2]")
    code, out, err = run(capsys, "generate", "--spec", str(tmp_path / "spec.json"))
    assert (code, out, err) == (2, "", "error: generator spec must be a JSON object\n")


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


@pytest.mark.parametrize("mode", [[], ["--sequential"]], ids=["race", "sequential"])
def test_check_until_with_zero_needs_no_left_facts(capsys, tmp_path, mode):
    # Drained(X) :- LowBattery(X) UNTIL[0,2] Shutdown(X): no LowBattery facts
    (tmp_path / "d.dtf").write_text("Shutdown(d9)@[5,5]\n")
    code, out, _ = run(capsys, "check", "--program", fix("monitoring.dmtl"),
                       "--data", str(tmp_path / "d.dtf"), "--fact", "Drained(d9)@[5,5]", *mode)
    assert code == 0 and out.strip() == "true"


@pytest.mark.parametrize("mode", [[], ["--sequential"]], ids=["race", "sequential"])
def test_check_left_only_variable_needs_no_facts(capsys, tmp_path, mode):
    (tmp_path / "p.dmtl").write_text("H(X) :- P(X,Y) SINCE[0,1] Q(X) .\n")
    (tmp_path / "d.dtf").write_text("Q(a)@[0,0]\n")
    code, out, _ = run(capsys, "check", "--program", str(tmp_path / "p.dmtl"),
                       "--data", str(tmp_path / "d.dtf"), "--fact", "H(a)@[0,0]", *mode)
    assert code == 0 and out.strip() == "true"


def test_materialize_timeout_exits_3(capsys, monkeypatch):
    # birthday derives a new fact every round for the 1000 rounds of its
    # budget; a rule evaluation that takes 0.1 s makes them outlast 1 s
    evaluate_rule = materialisation.evaluate_rule
    monkeypatch.setattr(materialisation, "evaluate_rule",
                        lambda *a: time.sleep(0.1) or evaluate_rule(*a))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "materialize", "--program", fix("birthday.dmtl"),
                         "--data", fix("birthday.dtf"), "--timeout", "1")
    assert code == 3 and out == ""
    assert err.startswith("error: wall-clock budget of 1 s exhausted")
    assert time.perf_counter() - t0 < 5


def expire_soon():
    """Bring the running --timeout alarm forward to 0.01 s from now, with
    the repeat that `_wall_clock` gave it."""
    signal.setitimer(signal.ITIMER_REAL, 0.01, signal.getitimer(signal.ITIMER_REAL)[1])


def test_timeout_lands_after_a_gc_callback_swallows_it(monkeypatch):
    # the alarm goes off while a gc callback runs, which hands the handler's
    # exception to sys.unraisablehook; a repeat must still end the block
    swallowed = []
    monkeypatch.setattr(sys, "unraisablehook", lambda unraisable: swallowed.append(unraisable.exc_type))
    slept = []

    def slow_callback(phase, _info):
        if phase == "start" and not slept:
            slept.append(True)
            expire_soon()
            time.sleep(0.05)

    gc.callbacks.append(slow_callback)
    try:
        with pytest.raises(cli.WallClockExceeded), cli._wall_clock(60):
            gc.collect()
            deadline = time.monotonic() + 1
            while time.monotonic() < deadline:
                pass
    finally:
        gc.callbacks.remove(slow_callback)
    # one alarm at least was lost; other gc callbacks may swallow a repeat
    assert swallowed and set(swallowed) == {cli.WallClockExceeded}
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def party_files(tmp_path, fact="Party(a)@[-2,-2]"):
    """Birthday with a rule that looks ahead, so the program propagates both
    ways and races, and a query only the automata can answer."""
    (tmp_path / "party.dmtl").write_text(
        "BOXPLUS[1,1] Bday(X) :- Bday(X) .\nParty(X) :- DIAMONDPLUS[0,1] Bday(X) .\n"
    )
    (tmp_path / "party.dtf").write_text("Bday(a)@[0,0]\n")
    return ("--program", str(tmp_path / "party.dmtl"), "--data", str(tmp_path / "party.dtf"),
            "--fact", fact)


def test_race_check_timeout_leaves_no_child(capsys, monkeypatch, tmp_path):
    # the race runs in this process and starts none: the budget runs out
    # while the automata poll, which runs materialisation's rounds
    forbid_processes(monkeypatch)
    raced = []

    def automata_outlast_the_budget(*a, cancelled):
        raced.append(multiprocessing.active_children())
        expire_soon()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            cancelled()

    monkeypatch.setattr(pipeline, "consistent", automata_outlast_the_budget)
    code, out, err = run(capsys, "check", *party_files(tmp_path), "--timeout", "60")
    assert (code, out) == (3, "")
    assert err.startswith("error: wall-clock budget of 60 s exhausted")
    assert raced == [[]]
    assert multiprocessing.active_children() == []


def test_race_check_timeout_inside_a_materialisation_round_exits_3(capsys, monkeypatch, tmp_path):
    # the budget runs out inside a round that the automata's poll runs: the
    # race must not take the timeout for a failed round
    outlasting = []

    def automata_poll(*a, cancelled):
        outlasting.append(True)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and not cancelled():
            pass

    apply_rules = pipeline.apply_rules

    def round_outlasts_the_budget(*a):
        if outlasting:  # not the pre-materialisation round
            expire_soon()
            time.sleep(60)
        return apply_rules(*a)

    monkeypatch.setattr(pipeline, "consistent", automata_poll)
    monkeypatch.setattr(pipeline, "apply_rules", round_outlasts_the_budget)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check", *party_files(tmp_path), "--timeout", "60")
    assert (code, out) == (3, "")
    assert err.startswith("error: wall-clock budget of 60 s exhausted")
    assert time.perf_counter() - t0 < 30


def test_one_way_check_timeout_exits_3_with_no_child(capsys, monkeypatch):
    # birthday propagates forward, so the query finishes sequentially; the
    # budget runs out while the automata run
    raced = []

    def automata_outlast_the_budget(*a, **k):
        raced.append(multiprocessing.active_children())
        expire_soon()
        time.sleep(60)

    monkeypatch.setattr(pipeline, "consistent", automata_outlast_the_budget)
    code, out, err = run(capsys, "check", "--program", fix("birthday.dmtl"),
                         "--data", fix("birthday.dtf"), "--fact", "Bday(a)@[1/2,1/2]",
                         "--timeout", "60")
    assert (code, out) == (3, "")
    assert err.startswith("error: wall-clock budget of 60 s exhausted")
    assert raced == [[]]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mode", [(), ("--sequential",)], ids=["race", "sequential"])
def test_check_over_a_span_longer_than_the_recursion_limit(capsys, mode):
    # the automata's span holds about 800 cells, one search level each
    code, out, err = run(capsys, "check", "--program", fix("birthday.dmtl"),
                         "--data", fix("birthday.dtf"), "--fact", "Bday(a)@[401/2,401/2]", *mode)
    assert (code, out.strip()) == (0, "false"), err


@pytest.mark.parametrize("mode", [(), ("--sequential",)], ids=["race", "sequential"])
@pytest.mark.parametrize("query", ["QF@[5,5]", "QG@[5,5]"])
def test_query_cannot_meet_the_reduction_anchor(capsys, tmp_path, mode, query):
    # the reduction's anchor once took the first of QF, QF1, ... that the
    # program and the data left unused, so a query on QF met its own anchor
    # and read as entailed; QG is the control
    (tmp_path / "p.dmtl").write_text("BOXPLUS[1,1] P(a) :- P(a) .\nBOTTOM :- P(a), Never(a) .\n")
    (tmp_path / "d.dtf").write_text("P(a)@[0,0]\n")
    code, out, err = run(capsys, "check", "--program", str(tmp_path / "p.dmtl"), "--data",
                         str(tmp_path / "d.dtf"), "--fact", query, "--max-rounds", "5", "--json", *mode)
    assert code == 0, err
    report = json.loads(out)
    assert (report["answer"], report["fact_type"], report["winner"]) == (False, "T5", "automata")


@pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf", "x"])
def test_timeout_must_be_positive_seconds(capsys, seconds):
    code, _, err = run(capsys, "consistency", "--program", fix("birthday.dmtl"),
                       "--data", fix("birthday.dtf"), "--timeout", seconds)
    assert code == 1
    assert f"argument --timeout: expected a positive number of seconds, got '{seconds}'" in err


@pytest.mark.parametrize("command, extra", [
    ("check", ["--fact", "Bday(a)@[3,3]", "--sequential"]),
    ("materialize", []),
])
def test_max_rounds_must_not_be_negative(capsys, command, extra):
    for rounds in ("-3", "abc", "1.5"):
        code, out, err = run(capsys, command, "--program", fix("birthday.dmtl"),
                             "--data", fix("birthday.dtf"), "--max-rounds", rounds, *extra)
        assert (code, out) == (1, "")
        assert f"argument --max-rounds: expected a non-negative number of rounds, got '{rounds}'" in err


@pytest.mark.parametrize("line", ["BOTTOM@[2,3]", "TOP(a)@[0,1]"])
def test_keyword_fact_exit_2(capsys, tmp_path, line):
    (tmp_path / "p.dmtl").write_text("")
    (tmp_path / "d.dtf").write_text(line + "\n")
    code, out, err = run(capsys, "materialize", "--program", str(tmp_path / "p.dmtl"),
                         "--data", str(tmp_path / "d.dtf"))
    assert code == 2 and out == ""
    assert err.startswith("error: line 1, column 1: expected predicate name")


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
    # materialisation never reaches the query, so neither engine answers;
    # the DIAMONDPLUS makes the program mixed, so it races
    text = "BOXPLUS[1,1] P(X) :- P(X) .\nQ(X) :- BOXMINUS[0,+inf) P(X), DIAMONDPLUS[0,1] P(X) .\n"
    assert propagation(parse_program(text)) == 0
    prog = tmp_path / "p.dmtl"
    prog.write_text(text)
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


@pytest.mark.parametrize("mode", [(), ("--sequential",)], ids=["race", "sequential"])
@pytest.mark.parametrize("files", [
    lambda tmp_path: ("--program", fix("birthday.dmtl"), "--data", fix("birthday.dtf"),
                      "--fact", "Bday(a)@(-inf,+inf)"),
    lambda tmp_path: party_files(tmp_path, "Party(a)@(-inf,+inf)"),
], ids=["one-way", "mixed"])
def test_check_of_a_query_unbounded_on_both_sides_exits_3(capsys, tmp_path, files, mode):
    # materialisation never covers the query, and the automata's reduction
    # rejects it: an unsupported shape, not malformed input
    code, out, err = run(capsys, "check", *files(tmp_path), "--max-rounds", "5", *mode)
    assert (code, out) == (3, "")
    assert err == "limit: query intervals unbounded on both sides are unsupported\n"


def test_race_check_json_through_a_pipe_prints_one_document(tmp_path):
    # stdout is a block-buffered pipe here; the answer must come out once
    done = subprocess.run(
        [sys.executable, "-m", "datalogmtl.cli", "check", *party_files(tmp_path), "--json"],
        capture_output=True, text=True, env=block_buffered_env(), timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("\n") == 1
    payload = json.loads(done.stdout)
    assert (payload["answer"], payload["fact_type"]) == (False, "T5")
    assert "race" in payload["timings"]
