import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asp_testkit
from asp_testkit import cli
from asp_testkit.engine import run_suite
from asp_testkit.parser import parse_unit
from asp_testkit.oracle import enumerate_answer_sets, ground
from asp_testkit.solver import InternalBackend, parse_competition_output
from helpers import FIXTURES, fixture_text


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "asp_testkit", *args],
                          capture_output=True, text=True, timeout=120, cwd=cwd)


def fixture(name: str) -> str:
    return str(FIXTURES / name)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_valid_file_exits_zero():
    proc = run_cli("check", fixture("coloring.lp"))
    assert proc.returncode == 0


def test_check_unsafe_rule_exits_one(tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("p(X) :- not q(X).\n", encoding="utf-8")
    proc = run_cli("check", str(bad))
    assert proc.returncode == 1
    assert "bad.lp:1:1" in proc.stdout
    assert "safety" in proc.stdout


def test_test_refuses_aggregate_term_outside_its_condition(tmp_path):
    # the constraint holds in no answer set once X is unsafe; read with X
    # ranging over d's constants it killed every model and noAnswerSet passed
    bad = tmp_path / "bad.lp"
    bad.write_text(
        '%** @rule(name = "r") **%\n:- #count{X : p(Y)} >= 3.\n'
        '%** @test(name = "t", scope = { "r" }, input = "d(1). d(2). d(3). p(1).",\n'
        '        assert = { @noAnswerSet }) **%\n', encoding="utf-8")
    proc = run_cli("test", str(bad))
    assert proc.returncode == 1
    assert "bad.lp:2:1: safety: unsafe statement: variable(s) X" in proc.stdout


def test_test_dangling_scope_without_assertions_is_an_error(tmp_path):
    # an empty assertion list must not hide the scope failure
    f = tmp_path / "dangling.lp"
    f.write_text('%** @rule(name = "r") **%\np(1).\n'
                 '%** @test(name = "t", scope = {"nope"}, assert = {}) **%\n',
                 encoding="utf-8")
    proc = run_cli("test", str(f))
    assert proc.returncode == 2, proc.stdout
    assert "test t: error" in proc.stdout
    assert "scope resolution failed: " in proc.stdout
    proc = run_cli("test", str(f), "--format", "json")
    assert proc.returncode == 2
    test = json.loads(proc.stdout)["tests"][0]
    assert test["verdict"] == "error" and test["assertions"] == []
    assert test["diagnostics"].startswith("scope resolution failed: ")


def test_check_reports_a_dangling_scope_at_its_test(tmp_path):
    f = tmp_path / "dangling.lp"
    f.write_text('%** @rule(name = "r") **%\np(1).\n'
                 '%** @test(name = "t", scope = {"nope"}, assert = {}) **%\n',
                 encoding="utf-8")
    proc = run_cli("check", str(f))
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout == (f"{f}:3:5: dangling-reference: scope resolution failed: "
                           "test 't': scope references unknown rule or block 'nope'\n")


def test_check_rejects_names_that_clash_across_files(tmp_path):
    for name in ("a.lp", "b.lp"):
        (tmp_path / name).write_text('%** @rule(name = "r") **%\np(1).\n', encoding="utf-8")
    proc = run_cli("check", str(tmp_path / "a.lp"), str(tmp_path / "b.lp"))
    assert proc.returncode == 1, proc.stdout
    assert "duplicate-name: duplicate name 'r' across the file set" in proc.stdout
    assert "OK" not in proc.stdout


@pytest.mark.parametrize("command", ["check", "test"])
def test_a_name_clash_across_files_is_reported_where_it_is_defined(tmp_path, command):
    (tmp_path / "a.lp").write_text('%** @rule(name = "r") **%\np(1).\n'
                                   '%** @block(name = "B") **%\n', encoding="utf-8")
    (tmp_path / "b.lp").write_text('% rules\n%** @rule(name = "r") **%\np(2).\n',
                                   encoding="utf-8")
    (tmp_path / "c.lp").write_text('%** @rule(name = "s", block = "B") **%\nq.\n',
                                   encoding="utf-8")
    a, b, c = (str(tmp_path / name) for name in ("a.lp", "b.lp", "c.lp"))
    proc = run_cli(command, a, b, c)
    assert proc.returncode == 1, proc.stdout
    # a rule clashes at its own span; a block carries none, so only its file
    assert proc.stdout == (
        f"{b}:3:1: duplicate-name: duplicate name 'r' across the file set (in {b})\n"
        f"{c}: duplicate-name: duplicate name 'B' across the file set (in {c})\n")


def test_check_resolves_a_scope_in_another_file(tmp_path):
    rules = tmp_path / "rules.lp"
    rules.write_text('%** @rule(name = "r") **%\np(1).\n', encoding="utf-8")
    tests = tmp_path / "tests.lp"
    tests.write_text('%** @test(name = "t", scope = {"r"}, '
                     'assert = { @trueInAll(atoms = "p(1)") }) **%\n', encoding="utf-8")
    proc = run_cli("check", str(rules), str(tests))
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout == "2 file(s) OK\n"


def test_check_missing_file_exits_two():
    proc = run_cli("check", "/no/such/file.lp")
    assert proc.returncode == 2


def test_check_reports_line_and_column(tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("p.\nq(1) :- r(1\n", encoding="utf-8")
    proc = run_cli("check", str(bad))
    assert proc.returncode == 1
    assert ":2:" in proc.stdout


def test_check_non_ascii_digit_is_a_lexical_error(tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("p(\u00b2).\n", encoding="utf-8")
    proc = run_cli("check", str(bad))
    assert proc.returncode == 1, proc.stderr
    assert "bad.lp:1:3: lexical:" in proc.stdout
    assert "Traceback" not in proc.stderr, proc.stderr


def test_unexpected_exception_exits_two_in_one_line(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "cmd_check", crash)
    assert cli.main(["check", "any.lp"]) == 2
    assert capsys.readouterr().err == "error: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("args", [
    ["solve", "-n", "-1"],
    ["solve", "-n", "x"],
    ["solve", "--timeout", "0"],
    ["test", "--timeout", "0", "--solver-path", sys.executable],
    ["mutate", "--count", "0"],
    ["mutate", "--ops", "deleteRule,bogus"],
    ["mutate", "--ops", ","],
    ["mutate", "--ops-per-mutant", "0"],
    ["test", "--jobs", "0"],
    ["mutate", "--jobs", "-1"],
], ids=" ".join)
def test_out_of_range_options_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, fixture("coloring_mutation.lp")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: asp-testkit"), err
    assert "internal error" not in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_n_zero_prints_every_model(capsys):
    assert cli.main(["solve", fixture("coloring.lp")]) == 0
    every = capsys.readouterr().out
    assert cli.main(["solve", "-n", "0", fixture("coloring.lp")]) == 0
    assert capsys.readouterr().out == every
    assert every.count("ANSWER") == 6


def test_solve_coloring_prints_six_answers():
    proc = run_cli("solve", fixture("coloring.lp"))
    assert proc.returncode == 0
    assert proc.stdout.count("ANSWER\n") == 6


def test_solve_incoherent_exits_one(tmp_path):
    f = tmp_path / "c.lp"
    f.write_text("a. :- a.\n", encoding="utf-8")
    proc = run_cli("solve", str(f))
    assert proc.returncode == 1
    assert "INCOHERENT" in proc.stdout


def test_solve_cap_honored():
    proc = run_cli("solve", "-n", "2", fixture("coloring.lp"))
    assert proc.returncode == 0
    assert proc.stdout.count("ANSWER\n") == 2


def test_solve_output_round_trips_through_the_output_parser():
    proc = run_cli("solve", fixture("coloring.lp"))
    parsed = parse_competition_output(proc.stdout)
    unit = parse_unit("coloring.lp", fixture_text("coloring.lp"))
    want = enumerate_answer_sets(ground(unit.program)).atom_sets()
    assert parsed.atom_sets() == want


def test_solve_optimization_prints_costs(tmp_path):
    f = tmp_path / "w.lp"
    f.write_text("a | b. :~ a. [3@1]\n", encoding="utf-8")
    proc = run_cli("solve", str(f))
    assert proc.returncode == 0
    assert "COST 0@1" in proc.stdout
    assert "OPTIMUM FOUND" in proc.stdout
    parsed = parse_competition_output(proc.stdout)
    assert parsed.exhausted and parsed.costs


def test_solve_merges_multiple_files(tmp_path):
    (tmp_path / "a.lp").write_text("p(1).\n", encoding="utf-8")
    (tmp_path / "b.lp").write_text("q(X) :- p(X).\n", encoding="utf-8")
    proc = run_cli("solve", str(tmp_path / "a.lp"), str(tmp_path / "b.lp"))
    assert proc.returncode == 0
    assert "q(1)." in proc.stdout


def test_solve_into_a_closed_pipe_exits_two_and_says_nothing(tmp_path):
    # 1024 answer sets of about 270 bytes each: far more than a pipe holds,
    # so the child is still writing when the reader goes away
    f = tmp_path / "many.lp"
    f.write_text(" ".join(f"take_the_left_branch({i}) | take_the_right_branch({i})."
                          for i in range(1, 11)) + "\n", encoding="utf-8")
    with subprocess.Popen([sys.executable, "-m", "asp_testkit", "solve", "-n", "0", str(f)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "ANSWER\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert stderr == ""


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------

def test_test_coloring_exits_zero():
    proc = run_cli("test", fixture("coloring.lp"))
    assert proc.returncode == 0
    assert "1 passed" in proc.stdout


def test_test_hamiltonian_bug_exits_one_with_witness():
    proc = run_cli("test", fixture("hamiltonian_bug.lp"))
    assert proc.returncode == 1
    assert "[fail] constraintForAll" in proc.stdout
    assert "inCycle(1,2)" in proc.stdout


def test_test_without_tests_notes_zero_tests(tmp_path):
    f = tmp_path / "plain.lp"
    f.write_text("p.\n", encoding="utf-8")
    proc = run_cli("test", str(f))
    assert proc.returncode == 0
    assert "0 tests found" in proc.stdout


def test_test_json_format_is_machine_readable():
    proc = run_cli("test", "--format", "json", fixture("coloring.lp"))
    doc = json.loads(proc.stdout)
    assert doc["counts"]["passed"] == 1
    assert doc["tests"][0]["assertions"][0]["verdict"] == "pass"
    assert doc["tests"][0]["assertions"][0]["requested_models"] == 3


def test_test_weak_constraint_fixture_passes():
    proc = run_cli("test", fixture("coloring_pref.lp"))
    assert proc.returncode == 0


def test_tests_in_separate_file(tmp_path):
    (tmp_path / "rules.lp").write_text(
        '%** @rule(name = "r1") **%\nvalue(1) | value(2).\n', encoding="utf-8")
    (tmp_path / "tests.lp").write_text(
        '%** @test(name = "t", scope = {"r1"},'
        ' assert = { @trueInExactly(number = 1, atoms = "value(1)") }) **%\n',
        encoding="utf-8")
    proc = run_cli("test", str(tmp_path / "rules.lp"), str(tmp_path / "tests.lp"))
    assert proc.returncode == 0


def test_test_reads_input_files_beside_the_declaring_file(tmp_path):
    # run from the parent directory of both files, which are merged
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "facts.lp").write_text("p(1). p(2).\n", encoding="utf-8")
    (sub / "a.lp").write_text(
        '%** @rule(name = "r1") **%\nq(X) :- p(X).\n'
        '%** @test(name = "t", scope = {"r1"}, inputFiles = {"facts.lp"},'
        ' assert = { @trueInAll(atoms = "q(2)") }) **%\n', encoding="utf-8")
    (sub / "b.lp").write_text('%** @rule(name = "r2") **%\nr.\n', encoding="utf-8")
    proc = run_cli("test", "sub/a.lp", "sub/b.lp", cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout


def test_test_parse_error_exits_one(tmp_path):
    f = tmp_path / "broken.lp"
    f.write_text("p(X :- q.\n", encoding="utf-8")
    proc = run_cli("test", str(f))
    assert proc.returncode == 1


# ---------------------------------------------------------------------------
# mutate
# ---------------------------------------------------------------------------

def test_mutate_coloring_all_killed():
    proc = run_cli("mutate", fixture("coloring_mutation.lp"),
                   "--ops", "deleteRule,deleteLiteral,addDefaultNegation,swapTerms,renamePredicates",
                   "--count", "8", "--seed", "3")
    assert proc.returncode == 0
    assert "8 killed" in proc.stdout


def test_mutate_baseline_failure_refused():
    proc = run_cli("mutate", fixture("hamiltonian_bug.lp"), "--count", "2")
    assert proc.returncode == 1
    assert "baseline" in proc.stdout


def test_mutate_exhausted_loci_partial_table(tmp_path):
    f = tmp_path / "tiny.lp"
    f.write_text('%** @rule(name = "r") **%\na | b.\n'
                 '%** @test(name = "t", scope = {"r"},'
                 ' assert = { @trueInExactly(number = 1, atoms = "a") }) **%\n',
                 encoding="utf-8")
    proc = run_cli("mutate", str(f), "--ops", "deleteRule", "--count", "50")
    assert proc.returncode == 1
    assert "note:" in proc.stdout


def test_mutate_json_format():
    proc = run_cli("mutate", fixture("hamiltonian_mutation.lp"),
                   "--count", "5", "--seed", "19", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["baseline_passed"] is True
    assert doc["counts"]["mutants"] == 5
    assert all(m["status"] == "killed" for m in doc["mutants"])


def test_mutate_deterministic_output():
    args = ("mutate", fixture("coloring_mutation.lp"), "--ops", "deleteRule,swapTerms",
            "--count", "4", "--seed", "7")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_mutate_delete_rule_example_kills_both():
    proc = run_cli("mutate", fixture("coloring.lp"),
                   "--ops", "deleteRule", "--count", "2", "--seed", "7")
    assert proc.returncode == 0
    assert "2 killed" in proc.stdout


FACTS = "node(1). node(2). node(3). edge(1,2). edge(2,3)."


def path_coloring_suite(sources: str) -> str:
    """2-coloring of a 3-node path; `sources` gives the test's program
    and input attributes."""
    return ('%** @rule(name = "r1", block = "ToTest") **%\n'
            "col(X,red) | col(X,blue) :- node(X).\n"
            '%** @rule(name = "r2", block = "ToTest") **%\n'
            ":- edge(X,Y), col(X,C), col(Y,C).\n"
            f'%** @test(name = "path", scope = {{"ToTest"}}, {sources},\n'
            '  assert = { @trueInExactly(number = 2, atoms = ""),\n'
            '             @trueInExactly(number = 1, atoms = "col(1, red). col(3, red)"),\n'
            '             @constraintForAll(":- node(X), #count{C : col(X,C)} = 0.") }) **%\n')


def mutant_statuses(tmp_path: Path, name: str, sources: str) -> list:
    """Kill status per mutant of `sub/<name>`, run from its parent directory."""
    sub = tmp_path / "sub"
    sub.mkdir(exist_ok=True)
    (sub / "facts.lp").write_text(FACTS + "\n", encoding="utf-8")
    (sub / name).write_text(path_coloring_suite(sources), encoding="utf-8")
    proc = run_cli("mutate", f"sub/{name}", "--count", "6", "--seed", "2",
                   "--format", "json", cwd=tmp_path)
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    return [(m["ops"], m["status"]) for m in doc["mutants"]]


@pytest.mark.parametrize("sources", [
    'inputFiles = {"facts.lp"}',
    f'programFiles = {{"files.lp"}}, input = "{FACTS}"',
    f'programFiles = {{"../sub/files.lp"}}, input = "{FACTS}"',
])
def test_mutate_reads_test_files_like_inline_facts(tmp_path, sources):
    inline = mutant_statuses(tmp_path, "inline.lp", f'input = "{FACTS}"')
    assert "killed" in {status for _, status in inline}
    assert mutant_statuses(tmp_path, "files.lp", sources) == inline


def coloring_suite(path: Path, file_nodes: int, scope_nodes: int) -> str:
    """3-coloring with `file_nodes` node facts outside the tested block and a
    test whose scope colors a path of `scope_nodes` nodes: 3 unknown atoms
    per node, so the file and the scope fit the oracle independently."""
    nodes = " ".join(f"node({i})." for i in range(1, scope_nodes + 1))
    edges = " ".join(f"edge({i},{i + 1})." for i in range(1, scope_nodes))
    path.write_text(
        " ".join(f"node({i})." for i in range(1, file_nodes + 1)) + "\n"
        '%** @block(name = "ToTest") **%\n'
        '%** @rule(name = "r1", block = "ToTest") **%\n'
        "col(X,red) | col(X,green) | col(X,blue) :- node(X).\n"
        '%** @rule(name = "r2", block = "ToTest") **%\n'
        ":- edge(X,Y), col(X,C), col(Y,C).\n"
        f'%** @test(name = "path", scope = {{"ToTest"}}, input = "{nodes} {edges}",\n'
        f'  assert = {{ @trueInExactly(number = {3 * 2 ** (scope_nodes - 1)}, atoms = "") }}) **%\n',
        encoding="utf-8")
    return str(path)


def test_internal_backend_grounds_each_scope_not_the_file(tmp_path):
    # the file is 24 unknown atoms, over the oracle's 22; the scope is 9
    f = coloring_suite(tmp_path / "wide.lp", file_nodes=8, scope_nodes=3)
    proc = run_cli("test", "--backend", "internal", f)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = run_cli("mutate", "--backend", "internal", f,
                   "--ops", "deleteRule", "--count", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 killed" in proc.stdout


def test_internal_backend_over_capacity_scope_is_an_error(tmp_path):
    f = coloring_suite(tmp_path / "wide.lp", file_nodes=8, scope_nodes=8)
    unit = parse_unit(f, Path(f).read_text(encoding="utf-8"))
    [result] = run_suite(unit, InternalBackend()).tests[0].assertions
    assert result.verdict == "error"
    assert result.diagnostics.startswith("CapacityExceeded"), result.diagnostics
    for command in ("test", "mutate"):
        proc = run_cli(command, "--backend", "internal", f)
        assert proc.returncode == 2, (command, proc.stdout, proc.stderr)


def test_mutate_undecided_baseline_exits_two(tmp_path, monkeypatch):
    # no solver to fall back to, so the oracle's refusal stays an error
    monkeypatch.delenv("ASP_TESTKIT_SOLVER", raising=False)
    monkeypatch.setenv("PATH", str(tmp_path))
    f = tmp_path / "recursive.lp"
    f.write_text('%** @rule(name = "r") **%\n'
                 "q(X) :- p(X), #count{Y : q(Y)} = 0.\n"
                 '%** @test(name = "t", scope = {"r"}, input = "p(1).",'
                 ' assert = { @trueInAll(atoms = "q(1)") }) **%\n',
                 encoding="utf-8")
    assert run_cli("test", str(f)).returncode == 2
    proc = run_cli("mutate", str(f), "--ops", "deleteRule", "--count", "1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "baseline run failed" in proc.stdout


def test_solve_external_without_solver_exits_two(tmp_path):
    f = tmp_path / "p.lp"
    f.write_text("a.\n", encoding="utf-8")
    # Only these two keys: an exported ASP_TESTKIT_SOLVER or a solver on the
    # real PATH would undo the "no solver" condition under test.
    package_root = str(Path(asp_testkit.__file__).parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = {"PATH": "/nonexistent",
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, inherited]))}
    proc = subprocess.run([sys.executable, "-m", "asp_testkit", "solve",
                           "--backend", "external", str(f)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "no external solver configured" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


def test_test_jobs_flag():
    proc = run_cli("test", "--jobs", "3", fixture("coloring_mutation.lp"))
    assert proc.returncode == 0
    assert "3 passed" in proc.stdout
