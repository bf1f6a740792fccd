import dataclasses
import os
import random
import sys
from pathlib import Path

import pytest

from asp_testkit import solver
from asp_testkit.engine import PASS, run_suite, run_tests
from asp_testkit.model import ASSERTION_KINDS, Atom, BestModelCost, Program
from asp_testkit.model import TestSpec as Spec  # not a test class
from asp_testkit.oracle import Scope, enumerate_answer_sets, ground
from asp_testkit.parser import parse_unit
from asp_testkit.solver import (
    AutoBackend,
    BackendConfig,
    BackendError,
    ExternalBackend,
    FormatError,
    InternalBackend,
    SpawnFailure,
    competition_lines,
    default_backend_config,
    parse_competition_output,
    select_backend,
    solve,
)
from helpers import (
    atom,
    random_assertion,
    random_join_assertion,
    random_join_program,
    random_program,
)

STUB = str(Path(__file__).resolve().parent / "stub_solver.py")


def stub_config(mode: str, **kwargs) -> BackendConfig:
    return BackendConfig(executable=sys.executable,
                         extra_args=(STUB, mode),
                         model_cap_template="", **kwargs)


def selfhosted_config(**kwargs) -> BackendConfig:
    """This tool's own solve command, driven as an external solver."""
    return BackendConfig(executable=sys.executable,
                         extra_args=("-m", "asp_testkit", "solve"),
                         pass_via="tempfile", **kwargs)


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

def test_parse_single_answer():
    res = parse_competition_output("ANSWER\na. b(1,2).\n")
    assert res.atom_sets() == {frozenset({Atom("a"), atom("b", 1, 2)})}
    assert not res.exhausted and not res.incoherent


def test_parse_atoms_without_periods_and_nested_commas():
    res = parse_competition_output("ANSWER\np(1, 2) q\n")
    assert res.atom_sets() == {frozenset({atom("p", 1, 2), Atom("q")})}


def test_parse_incoherent_markers():
    for marker in ("INCOHERENT", "INCONSISTENT", "UNSATISFIABLE"):
        res = parse_competition_output(f"{marker}\n")
        assert res.incoherent and res.exhausted and not res.answer_sets


def test_parse_cost_and_optimum():
    res = parse_competition_output("ANSWER\np.\nCOST 2@1\nOPTIMUM FOUND\n")
    assert res.atom_sets() == {frozenset({Atom("p")})}
    assert res.costs == {(0, 1): 2}
    assert res.exhausted


def test_parse_multi_level_cost():
    res = parse_competition_output("ANSWER\np.\nCOST 3@2 1@1\n")
    assert res.costs == {(0, 2): 3, (0, 1): 1}


def test_parse_ignores_unrecognized_lines():
    res = parse_competition_output(
        "clingo version x\nReading...\nANSWER\na.\nSATISFIABLE\nModels: 1\n")
    assert res.atom_sets() == {frozenset({Atom("a")})}


@pytest.mark.parametrize("text, message", [
    ("COST 1@1\n", "COST line with no preceding ANSWER"),
    ("ANSWER\np.\nCOST x@1\n", "malformed COST entry 'x@1'"),
    ("ANSWER\np.\nINCOHERENT\n", "INCOHERENT reported after ANSWER lines"),
    # a cost without a level is at level 0
    ("ANSWER\np.\nCOST 3\n", None),
])
def test_parse_output_cost_and_marker_order(text, message):
    if message is None:
        result, saw_unknown = solver._parse_output(text)
        assert result.costs == {(0, 0): 3} and not saw_unknown
        return
    with pytest.raises(FormatError) as exc:
        solver._parse_output(text)
    assert str(exc.value) == message


def test_written_output_reads_back_as_the_result_it_was_written_from():
    """`competition_lines` is `solve`'s writer: over seeded random programs
    (weak constraints included) solved internally, enumerating all models,
    at most two, or the optimal ones, its lines read back with the same
    answer sets in order, costs and incoherence, and an optimising run
    reads back as exhausted."""
    rng = random.Random(11)
    seen = {"costs": 0, "incoherent": 0, "optimized": 0}
    for _ in range(60):
        program = random_program(rng)
        runs = [(None, False), (2, False)] + [(None, True)] * bool(program.weak_constraints)
        for cap, optimize in runs:
            want, _ = InternalBackend().run(program, cap, optimize=optimize)
            got = parse_competition_output("\n".join(competition_lines(want, optimize)) + "\n")
            assert [a.atoms for a in got.answer_sets] == [a.atoms for a in want.answer_sets]
            # the format has no way to write an empty cost map apart from none
            assert (got.costs or None) == (want.costs or None)
            assert got.incoherent == want.incoherent
            assert got.exhausted == (optimize or want.incoherent)
            seen["costs"] += bool(want.costs)
            seen["incoherent"] += want.incoherent
            seen["optimized"] += optimize
    assert min(seen.values()) >= 5, seen


def test_parse_answer_without_model_line_is_format_error():
    with pytest.raises(FormatError):
        parse_competition_output("ANSWER")


def test_parse_unparseable_atom_is_format_error():
    with pytest.raises(FormatError):
        parse_competition_output("ANSWER\n((((\n")


@pytest.mark.parametrize("token, length, reason", [
    ("p(" + "9" * 5000 + ")", 5003, "integer literal of 5000 digits is too long"),
    ("x" * 10 + "!" * 2990, 3000, "unexpected character '!'"),
])
def test_an_unparseable_atom_is_quoted_in_part_with_its_length(token, length, reason):
    # a solver may print a token of any size; the message quotes its start
    with pytest.raises(FormatError) as exc:
        parse_competition_output(f"ANSWER\n{token}\n")
    message = str(exc.value)
    assert message == (f"unparseable atom {token[:60]!r}... ({length} characters) "
                       f"after ANSWER: {reason}")
    assert len(message) < 200


def test_parse_empty_model_line_is_empty_answer_set():
    res = parse_competition_output("ANSWER\n\n")
    assert res.atom_sets() == {frozenset()}


def test_parsed_atoms_reparse_through_the_parser():
    res = parse_competition_output("ANSWER\nedge(1,2). col(1,red). n.\n")
    for answer in res.answer_sets:
        for a in answer.atoms:
            assert a.is_ground()


# ---------------------------------------------------------------------------
# Process driving
# ---------------------------------------------------------------------------

def test_solve_basic_stub():
    res, run = solve(stub_config("basic"), "a.\n", max_models=10)
    assert res.atom_sets() == {frozenset({Atom("a"), atom("b", 1, 2)})}
    assert res.exhausted  # 1 < 10 requested
    assert run.requested_models == 10
    assert run.exit_status == 0


def test_solve_incoherent_stub():
    res, _ = solve(stub_config("incoherent"), "a. :- a.\n")
    assert res.incoherent and res.exhausted


def test_solve_cap_honored():
    res, run = solve(stub_config("twomodels"), "x.\n", max_models=1)
    assert len(res.answer_sets) == 1
    assert not res.exhausted  # hit the cap, cannot know


def test_solve_unknown_marker_not_exhausted():
    res, _ = solve(stub_config("unknown"), "x.\n", max_models=5)
    assert not res.exhausted and not res.incoherent


def test_solve_timeout_returns_partial():
    res, run = solve(stub_config("sleep", timeout=1), "x.\n", max_models=5)
    assert run.timed_out
    assert not res.exhausted
    assert res.atom_sets() == {frozenset({Atom("a")})}


def test_solve_timeout_mid_answer_salvages_prefix():
    res, run = solve(stub_config("sleep_midanswer", timeout=1), "x.\n", max_models=5)
    assert run.timed_out
    assert not res.exhausted
    assert res.atom_sets() == {frozenset({Atom("a")})}


def test_solve_timeout_mid_model_line_is_no_model():
    # `b(1,2) c` lacks its newline: the kill may have cut it short
    res, run = solve(stub_config("sleep_midline", timeout=1), "x.\n", max_models=5)
    assert run.timed_out
    assert not res.exhausted
    assert [s.atoms for s in res.answer_sets] == [frozenset({Atom("a")})]


def test_solve_timeout_before_any_output_is_no_model():
    # a run the solver did not finish: not a BackendError, and not incoherent
    res, run = solve(stub_config("sleep_silent", timeout=1), "x.\n", max_models=5)
    assert run.timed_out and run.stdout == ""
    assert res.answer_sets == [] and not res.exhausted and not res.incoherent


def test_solve_spawn_failure():
    cfg = BackendConfig(executable="/no/such/solver-binary")
    with pytest.raises(SpawnFailure):
        solve(cfg, "a.\n")


def test_solve_backend_error_on_garbage_with_nonzero_exit():
    with pytest.raises(BackendError):
        solve(stub_config("fail"), "a.\n")


def test_solve_tempfile_mode_records_path():
    res, run = solve(stub_config("basic", pass_via="tempfile"), "a.\n", max_models=2)
    assert run.temp_path is not None
    assert not os.path.exists(run.temp_path)  # cleaned up
    assert res.answer_sets


@pytest.mark.parametrize("pass_via", ["file", "Stdin", ""])
def test_backend_config_rejects_an_unknown_pass_via(pass_via):
    # any such value used to mean stdin without a word
    with pytest.raises(ValueError, match="pass_via must be 'stdin' or 'tempfile'"):
        BackendConfig("cat", pass_via=pass_via)
    for known in ("stdin", "tempfile"):
        assert BackendConfig("cat", pass_via=known).pass_via == known


def test_backend_config_cannot_be_changed_after_its_checks():
    # an assignment would skip `__post_init__`: pass_via = "file" fed stdin
    cfg = BackendConfig("cat", model_cap_template="")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.pass_via = "file"
    assert cfg.pass_via == "stdin"


def test_default_backend_config_env(monkeypatch):
    monkeypatch.setenv("ASP_TESTKIT_SOLVER", "/opt/solvers/mysolver")
    cfg = default_backend_config()
    assert cfg.executable == "/opt/solvers/mysolver"


def test_default_backend_config_absent(monkeypatch):
    monkeypatch.delenv("ASP_TESTKIT_SOLVER", raising=False)
    monkeypatch.setenv("PATH", "/nonexistent")
    assert default_backend_config() is None


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------

def tiny_program() -> Program:
    return parse_unit("t.lp", "a | b.").program


def test_select_internal_for_tiny_program():
    backend = select_backend("internal", None)
    assert isinstance(backend, InternalBackend)


def test_select_internal_rejects_recursive_aggregates():
    from asp_testkit.oracle import UnsupportedAggregate
    program = parse_unit("t.lp", "p(1). q(X) :- p(X), #count{Y : q(Y)} = 0.").program
    with pytest.raises(UnsupportedAggregate):
        select_backend("internal", None).run(program, None)


def test_select_external_requires_config():
    with pytest.raises(SpawnFailure):
        select_backend("external", None)


def test_select_external_checks_executable():
    cfg = BackendConfig(executable="/no/such/solver-binary")
    with pytest.raises(SpawnFailure):
        select_backend("external", cfg)
    backend = select_backend("external", stub_config("basic"))
    assert isinstance(backend, ExternalBackend)


def test_internal_backend_records_requested_models():
    program = tiny_program()
    _, run = InternalBackend().run(program, 1)
    assert run.requested_models == 1
    assert run.argv == ["<internal-oracle>"]


def test_an_answer_atom_with_an_integer_too_long_to_convert_is_a_format_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter converts any integer")
    with pytest.raises(FormatError, match=f"integer literal of {limit + 1} digits is too long"):
        parse_competition_output(f"ANSWER\np({'9' * (limit + 1)}).\n")


def test_auto_backend_falls_back_to_external():
    # over capacity for the oracle; the stub "solver" still answers
    text = " ".join(f"d({i})." for i in range(7)) + \
        " p(X,Y) | q(X,Y) | r(X,Y) :- d(X), d(Y)."
    program = parse_unit("t.lp", text).program
    backend = AutoBackend(stub_config("basic"))
    res, run = backend.run(program, 1)
    assert res.answer_sets
    assert run.argv[0] == sys.executable


# ---------------------------------------------------------------------------
# Self-hosted external solver: full process round trip
# ---------------------------------------------------------------------------

def test_selfhosted_external_equals_internal_on_random_programs():
    backend = ExternalBackend(selfhosted_config())
    rng = random.Random(5)
    for _ in range(12):
        program = random_program(rng, with_weaks=False)
        want = enumerate_answer_sets(ground(program)).atom_sets()
        got, _ = backend.run(program, None)
        assert got.atom_sets() == want


def test_selfhosted_external_incoherent():
    program = parse_unit("t.lp", "a. :- a.").program
    got, _ = ExternalBackend(selfhosted_config()).run(program, None)
    assert got.incoherent


def test_selfhosted_external_optimum_costs():
    program = parse_unit("t.lp", "a | b. :~ a. [3@1]").program
    got, _ = ExternalBackend(selfhosted_config()).run(program, None)
    assert got.exhausted
    idx = len(got.answer_sets) - 1
    assert got.costs and got.costs[(idx, 1)] == 0
    assert got.answer_sets[idx].atoms == frozenset({Atom("b")})


# `a` is never derivable, so simplification drops the weak constraint; its
# level is still the program's, and costs 0
ZERO_COST_LEVEL = """%** @rule(name = "b") **%
b.
%** @test(name = "t", scope = {"b"}, input = ":~ a. [1@1]",
          assert = { @bestModelCost(cost = 0, level = 1) }) **%
"""


@pytest.mark.parametrize("backend", ["internal", "external"])
def test_a_cost_at_a_level_whose_weak_constraints_were_removed(backend):
    backend = InternalBackend() if backend == "internal" else ExternalBackend(selfhosted_config())
    report = run_suite(parse_unit("t.lp", ZERO_COST_LEVEL), backend)
    assert [(a.verdict, a.diagnostics) for a in report.tests[0].assertions] == [(PASS, "")]


def verdict_cases() -> list[tuple[Program, object]]:
    """(scope, assertion) pairs: the scope of ZERO_COST_LEVEL with its
    assertion, then every assertion kind over two `random_program`s (which
    may have weak constraints) and one `random_join_program` each."""
    cases = [(parse_unit("t.lp", ":~ a. [1@1] b.").program, BestModelCost(0, 1))]
    rng = random.Random(41)
    for kind in ASSERTION_KINDS:
        for make in (random_program, random_join_program, random_program):
            p = make(rng)
            if kind == "bestModelCost":
                assertion = BestModelCost(rng.randint(0, 4), rng.randint(0, 2))
            elif make is random_join_program:
                assertion = random_join_assertion(rng, p, kind)
            else:
                assertion = random_assertion(rng, p, kind)
            cases.append((p, assertion))
    return cases


def test_selfhosted_external_verdicts_equal_internal_ones():
    # the child reports capacity and #count errors as a BackendError, so
    # an internal error is an external one too
    cases = verdict_cases()

    def verdicts(backend) -> list[str]:
        # internal calls run one after another, external ones two at a time
        tests = [(Spec("t", ("r",), (assertion,)), Scope(scope)) for scope, assertion in cases]
        return [test.assertions[0].verdict for test in run_tests(tests, backend, jobs=2)]

    internal = verdicts(InternalBackend())
    external = verdicts(ExternalBackend(selfhosted_config()))
    assert len(cases) >= 24 and {a.kind for _, a in cases} == set(ASSERTION_KINDS)
    assert internal[0] == PASS
    differ = [(case, i, e) for case, i, e in zip(cases, internal, external) if i != e]
    assert differ == []

