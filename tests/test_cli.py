import json
import os
import subprocess
import sys
from pathlib import Path

import asp_testkit
from asp_testkit import cli
from asp_testkit.parser import parse_unit
from asp_testkit.oracle import enumerate_answer_sets, ground
from asp_testkit.solver import parse_competition_output
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


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

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
