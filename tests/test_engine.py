import json
import random
import re
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from asp_testkit import cli, engine, mutate, serialize
from asp_testkit.engine import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    AssertionValidationError,
    DanglingReference,
    at_most,
    build_tester,
    evaluate,
    incoherent,
    optimum,
    resolve_scope,
    run_suite,
    run_test,
    vacuous_atoms,
)
from asp_testkit.model import (
    ASSERTION_CLASSES,
    ASSERTION_KINDS,
    Atom,
    BestModelCost,
    Comparison,
    ConstraintForAll,
    Literal,
    NoAnswerSet,
    Program,
    Rule,
    TrueInAll,
    TrueInAtLeast,
    TrueInAtMost,
    TrueInExactly,
    UnsafeRuleError,
    Variable,
    herbrand_universe,
    term_key,
)
from asp_testkit.mutate import (
    OPERATOR_KINDS,
    _mutant_transform,
    generate_mutants,
    mutation_analysis,
    mutation_base_program,
)
from asp_testkit import oracle
from asp_testkit.oracle import SolveResult, AnswerSet, UnsupportedAggregate, ground
from asp_testkit.parser import parse_assertion_list, parse_unit
from asp_testkit import solver
from asp_testkit.solver import AutoBackend, BackendConfig, ExternalBackend, InternalBackend
from helpers import (
    FIXTURES,
    atom,
    brute_answer_sets,
    direct_verdict,
    fixture_text,
    lit,
    naive_ground,
    random_assertion,
    random_join_assertion,
    random_join_program,
    random_program,
    untimed,
)

BACKEND = InternalBackend()
README = Path(__file__).resolve().parent.parent / "README.md"
STUB = str(Path(__file__).resolve().parent / "stub_solver.py")


def stub_config(mode: str = "basic", **kwargs) -> BackendConfig:
    """The stub solver in `mode`; `basic` prints one model."""
    return BackendConfig(executable=sys.executable, extra_args=(STUB, mode),
                         model_cap_template="", **kwargs)


def stub_backend() -> ExternalBackend:
    """An external backend whose every call prints the stub's one model."""
    return ExternalBackend(stub_config())


def coloring_unit():
    return parse_unit("coloring.lp", fixture_text("coloring.lp"))


def ham_unit():
    return parse_unit("hamiltonian_bug.lp", fixture_text("hamiltonian_bug.lp"))


# ---------------------------------------------------------------------------
# Scope resolution
# ---------------------------------------------------------------------------

def test_scope_block_resolves_rules_and_input():
    unit = coloring_unit()
    program = resolve_scope(unit.suite, unit.suite.tests[0])
    assert len(program.rules) == 8  # r1 + r2 + six input facts
    assert sum(1 for r in program.rules if r.is_fact()) == 6


def test_scope_by_rule_names_equals_scope_by_block():
    unit = coloring_unit()
    spec = unit.suite.tests[0]
    from dataclasses import replace
    by_names = replace(spec, scope=("r1", "r2"))
    assert resolve_scope(unit.suite, by_names) == resolve_scope(unit.suite, spec)


def test_scope_deduplicates_rule_and_its_block():
    unit = coloring_unit()
    from dataclasses import replace
    spec = replace(unit.suite.tests[0], scope=("r1", "ToTest"))
    program = resolve_scope(unit.suite, spec)
    assert len(program.rules) == 8


def test_scope_unknown_name_raises():
    unit = coloring_unit()
    from dataclasses import replace
    spec = replace(unit.suite.tests[0], scope=("nonsense",))
    with pytest.raises(DanglingReference):
        resolve_scope(unit.suite, spec)


def test_scope_program_files_replace_current_unit(tmp_path):
    other = tmp_path / "other.lp"
    other.write_text('%** @rule(name = "r1") **%\nq(1).\n', encoding="utf-8")
    unit = parse_unit("main.lp", (
        '%** @test(name = "t", scope = {"r1"}, programFiles = {"other.lp"},'
        ' assert = { @trueInAll(atoms = "q(1)") }) **%'))
    from asp_testkit.engine import default_file_loader
    program = resolve_scope(unit.suite, unit.suite.tests[0],
                            default_file_loader(str(tmp_path)))
    assert program.rules == (Rule((atom("q", 1),), ()),)


def test_scope_input_files_add_facts(tmp_path):
    (tmp_path / "facts.lp").write_text("p(1). p(2).\n", encoding="utf-8")
    unit = parse_unit("main.lp", (
        '%** @rule(name = "r1") **%\nq(X) :- p(X).\n'
        '%** @test(name = "t", scope = {"r1"}, inputFiles = {"facts.lp"},'
        ' assert = { @trueInAll(atoms = "q(2)") }) **%'))
    from asp_testkit.engine import default_file_loader
    spec = unit.suite.tests[0]
    program = resolve_scope(unit.suite, spec, default_file_loader(str(tmp_path)))
    assert run_test(spec, program, BACKEND).verdict == PASS


def test_scope_collects_weak_constraints_from_input():
    unit = parse_unit("pref.lp", fixture_text("coloring_pref.lp"))
    program = resolve_scope(unit.suite, unit.suite.tests[0])
    assert len(program.weak_constraints) == 1


# ---------------------------------------------------------------------------
# Tester construction
# ---------------------------------------------------------------------------

def simple_program():
    return parse_unit("t.lp", "a | b. c :- a.").program


def test_build_no_answer_set():
    tp = build_tester(simple_program(), NoAnswerSet())
    assert tp.added == ()
    assert tp.model_cap == 1
    assert tp.verdict is incoherent and not tp.optimize


def test_build_true_in_at_least_adds_constraints():
    tp = build_tester(simple_program(), TrueInAtLeast(1, (Atom("a"),)))
    assert tp.added == (Rule((), (lit("a", neg=True),)),)
    assert tp.model_cap == 1
    assert ":- not a." in tp.text


def test_build_true_in_at_most_requests_k_plus_one():
    tp = build_tester(simple_program(), TrueInAtMost(2, (Atom("a"),)))
    assert tp.model_cap == 3
    assert tp.verdict is at_most and not tp.optimize
    assert tp.assertion.count == 2


def test_build_true_in_all_miss_encoding():
    tp = build_tester(simple_program(), TrueInAll((Atom("a"), Atom("b"))))
    miss = Atom("__tk_miss_0")
    assert tp.added == (
        Rule((miss,), (lit("a", neg=True),)),
        Rule((miss,), (lit("b", neg=True),)),
        Rule((), (lit("__tk_miss_0", neg=True),)),
    )
    assert tp.model_cap == 1


def test_build_constraint_for_all_fail_encoding():
    constraint = Rule((), (lit("p"), lit("q")))
    tp = build_tester(simple_program(), ConstraintForAll(constraint))
    fail = Atom("__tk_fail_0")
    assert tp.added == (Rule((fail,), (lit("p"), lit("q"))),
                       Rule((), (lit("__tk_fail_0", neg=True),)))
    assert tp.model_cap == 1
    assert "__tk_fail_0 :- p, q." in tp.text


def test_build_fresh_names_avoid_collisions():
    program = parse_unit("t.lp", "__tk_miss_0.").program
    tp = build_tester(program, TrueInAll((Atom("__tk_miss_0"),)))
    assert any(r.head and r.head[0].predicate == "__tk_miss_1" for r in tp.added)


def test_build_best_model_cost_has_no_cap():
    tp = build_tester(simple_program(), BestModelCost(0, 1))
    assert tp.model_cap is None
    assert tp.verdict is optimum and tp.optimize
    assert (tp.assertion.cost, tp.assertion.level) == (0, 1)


def readme_assertion_forms() -> dict[str, str]:
    """The README's assertion table, placeholders filled in: kind -> form."""
    forms = {}
    for form in re.findall(r"^\| `(@\w+[^`]*)` \|", README.read_text(encoding="utf-8"), re.M):
        form = re.sub(r'(constraint = )"[^"]*"', r'\1":- a."', form)
        form = re.sub(r"= [ncl]\b", "= 1", form.replace('"..."', '"a"'))
        forms[re.match(r"@(\w+)", form).group(1)] = form
    return forms


@pytest.mark.parametrize("kind", ASSERTION_KINDS)
def test_every_kind_parses_from_its_readme_form_and_builds(kind):
    (assertion,) = parse_assertion_list(readme_assertion_forms()[kind])
    assert type(assertion) is ASSERTION_CLASSES[kind]
    assert assertion.kind == kind
    tp = build_tester(simple_program(), assertion)
    assert tp.assertion is assertion


def test_build_at_least_zero_rejected():
    with pytest.raises(AssertionValidationError):
        build_tester(simple_program(), TrueInAtLeast(0, (Atom("a"),)))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def run_assertion(program_text: str, assertion):
    program = parse_unit("t.lp", program_text).program
    tp = build_tester(program, assertion)
    res, raw = BACKEND.run(tp.program, tp.model_cap,
                           optimize=tp.optimize)
    return evaluate(tp, res)


def test_no_answer_set_fail_has_witness():
    result = run_assertion("a.", NoAnswerSet())
    assert result.verdict == FAIL
    assert result.witness == frozenset({Atom("a")})


def test_no_answer_set_pass():
    result = run_assertion("a. :- a.", NoAnswerSet())
    assert result.verdict == PASS


def test_true_in_all_vacuous_on_incoherent_program():
    result = run_assertion("a. :- a.", TrueInAll((Atom("a"),)))
    assert result.verdict == PASS


def test_count_verdicts_on_disjunction():
    assert run_assertion("a | b.", TrueInExactly(1, (Atom("a"),))).verdict == PASS
    assert run_assertion("a | b.", TrueInExactly(2, (Atom("a"),))).verdict == FAIL
    assert run_assertion("a | b.", TrueInAtMost(0, (Atom("a"),))).verdict == FAIL
    assert run_assertion("a | b.", TrueInAtLeast(2, (Atom("a"), Atom("b")))).verdict == FAIL


def test_inconclusive_on_unexhausted_incoherence_check():
    tp = build_tester(simple_program(), NoAnswerSet())
    result = evaluate(tp, SolveResult(answer_sets=[], exhausted=False))
    assert result.verdict == INCONCLUSIVE


class StoppedBackend:
    """A solver stopped before its search ended: no answer set, and none
    proved missing. It runs in-process and never sleeps."""

    name = "stopped"

    def run(self, program, cap, optimize=False, scope=None):
        return SolveResult(exhausted=False), None


def test_a_stopped_solver_makes_each_verdict_inconclusive():
    unit = parse_unit("t.lp", (
        '%** @rule(name = "r") **%\np(1).\n'
        '%** @test(name = "t", scope = {"r"}, assert = {\n'
        '  @trueInAtLeast(number = 1, atoms = "p(1)"),\n'
        '  @bestModelCost(cost = 0, level = 0) }) **%'))
    report = run_suite(unit, StoppedBackend())
    [test] = report.tests
    assert [(a.verdict, a.diagnostics) for a in test.assertions] == [
        (INCONCLUSIVE, "search stopped after 0 matching answer set(s)"),
        (INCONCLUSIVE, "optimality was not established")]
    assert test.verdict == INCONCLUSIVE == engine.TestResult.aggregate(test.assertions)
    lines = report.human_lines()
    assert re.fullmatch(r"  \[inconclusive\] trueInAtLeast \(\d+ ms\)  "
                        r"\[search stopped after 0 matching answer set\(s\)\]", lines[1]), lines
    assert lines[-1].startswith("1 test(s): 0 passed, 0 failed, 1 inconclusive, 0 error(s)")


def test_witnesses_hide_fresh_atoms():
    program = parse_unit("t.lp", "p. q.").program
    constraint = Rule((), (lit("p"), lit("q")))
    tp = build_tester(program, ConstraintForAll(constraint))
    res, _ = BACKEND.run(tp.program, tp.model_cap)
    result = evaluate(tp, res)
    assert result.verdict == FAIL
    assert result.witness == frozenset({Atom("p"), Atom("q")})
    assert all(not a.predicate.startswith("__tk_") for a in result.witness)


def test_best_model_cost_verdicts():
    text = "a | b. :~ a. [3@1]"
    assert run_assertion(text, BestModelCost(0, 1)).verdict == PASS
    assert run_assertion(text, BestModelCost(3, 1)).verdict == FAIL
    assert run_assertion(text, BestModelCost(0, 9)).verdict == PASS  # empty level
    assert run_assertion("a. :- a. :~ a. [1@1]", BestModelCost(0, 1)).verdict == FAIL


# 3-colorings of a 5-node tree: 3 * 2^4 = 48 answer sets
TREE_COLORING = ("col(X,red) | col(X,blue) | col(X,green) :- node(X). "
                 ":- edge(X,Y), col(X,C), col(Y,C). "
                 "node(1). node(2). node(3). node(4). node(5). "
                 "edge(1,2). edge(1,3). edge(2,4). edge(2,5).")


def decoding_run(monkeypatch, assertion):
    """The internal backend's result and the verdict for `assertion` on
    `TREE_COLORING`, and a list that records the mask of every answer set
    or statement decoded into atoms from then on."""
    decoded = []
    decode = oracle._atoms_in
    monkeypatch.setattr(oracle, "_atoms_in",
                        lambda atoms, mask: decoded.append(mask) or decode(atoms, mask))
    tp = build_tester(parse_unit("t.lp", TREE_COLORING).program, assertion)
    res, _ = BACKEND.run(tp.program, tp.model_cap, scope=tp.scope)
    return res, evaluate(tp, res), decoded


def test_a_counting_verdict_decodes_no_answer_set(monkeypatch):
    res, result, decoded = decoding_run(monkeypatch, TrueInExactly(48, ()))
    assert result.verdict == PASS and len(res.answer_sets) == 48
    assert decoded == []


def test_a_failing_count_decodes_only_its_witness(monkeypatch):
    res, result, decoded = decoding_run(monkeypatch, TrueInAtMost(47, ()))
    assert result.verdict == FAIL and len(res.answer_sets) == 48
    assert len(decoded) == 1
    # the witness is the last answer set, decoded once and kept
    assert result.witness == res.answer_sets[-1].atoms and len(decoded) == 1


def test_best_model_cost_errors_without_cost_report():
    program = parse_unit("t.lp", "a. :~ a. [1@1]").program
    tp = build_tester(program, BestModelCost(1, 1))
    stale = SolveResult(answer_sets=[AnswerSet(frozenset({Atom("a")}))],
                        exhausted=True, costs=None)
    result = evaluate(tp, stale)
    assert result.verdict == "error"


# ---------------------------------------------------------------------------
# Whole tests and suites
# ---------------------------------------------------------------------------

def test_figure_coloring_suite_passes():
    report = run_suite(coloring_unit(), BACKEND)
    assert report.all_passed()
    (test,) = report.tests
    assert [a.verdict for a in test.assertions] == [PASS, PASS]


def test_figure_hamiltonian_suite_fails_with_witness():
    report = run_suite(ham_unit(), BACKEND)
    (test,) = report.tests
    assert test.verdict == FAIL
    (assertion,) = test.assertions
    projected = {a for a in assertion.witness
                 if a.predicate in ("inCycle", "outCycle")}
    assert projected == {atom("inCycle", 1, 2), atom("inCycle", 2, 4),
                         atom("inCycle", 4, 3), atom("outCycle", 1, 4),
                         atom("outCycle", 3, 1)}


def test_empty_suite_report():
    unit = parse_unit("t.lp", "p.")
    report = run_suite(unit, BACKEND)
    assert report.tests == []
    assert report.all_passed()
    assert report.counts["tests"] == 0


def test_assertion_error_does_not_abort_siblings():
    unit = parse_unit("t.lp", (
        '%** @rule(name = "r") **%\np(1).\n'
        '%** @test(name = "t", scope = {"r"}, assert = {\n'
        '  @trueInAtLeast(number = 1, atoms = "p(1)"),\n'
        '  @bestModelCost(cost = 0, level = 0) }) **%'))
    class Flaky:
        def __init__(self):
            self.calls = 0
        def run(self, program, cap, optimize=False, scope=None):
            self.calls += 1
            if optimize:
                raise RuntimeError("no optimizer here")
            return BACKEND.run(program, cap, optimize, scope)
    spec = unit.suite.tests[0]
    result = run_test(spec, resolve_scope(unit.suite, spec), Flaky())
    assert [a.verdict for a in result.assertions] == [PASS, "error"]
    assert result.verdict == "error"


# `X < Y` leaves Y unbound: a constraint that no parse would accept
UNSAFE = Rule((), (lit("col", "X", "C"), Literal(Comparison("<", Variable("X"), Variable("Y")))))


def test_a_tester_still_checks_the_rules_it_adds():
    unit = coloring_unit()
    spec = replace(unit.suite.tests[0], asserts=(ConstraintForAll(UNSAFE),))
    scope = resolve_scope(unit.suite, spec)
    with pytest.raises(UnsafeRuleError):
        build_tester(scope, ConstraintForAll(UNSAFE))
    (result,) = run_test(spec, scope, BACKEND).assertions
    assert result.verdict == "error"
    assert result.diagnostics.startswith("UnsafeRuleError: unsafe rule: variable(s) Y")


def test_a_mutant_scope_holds_checked_rules_and_its_testers_check_theirs():
    unit = parse_unit("m.lp", fixture_text("coloring_mutation.lp"))
    mutants = generate_mutants(mutation_base_program(unit), OPERATOR_KINDS, 8, 3)
    scopes = [resolve_scope(unit.suite, spec) for spec in unit.suite.tests]
    for mutant in mutants:
        transform = _mutant_transform(unit, mutant)
        for scope in scopes:
            mutated = transform(scope)
            # checking every rule again accepts them all
            assert Program(mutated.rules, mutated.weak_constraints) == mutated
            with pytest.raises(UnsafeRuleError):
                build_tester(mutated, ConstraintForAll(UNSAFE))


def counted_renders(monkeypatch) -> list:
    """Each program that `serialize_program` renders, wherever it is
    imported from."""
    rendered = []
    render = serialize.serialize_program

    def counted(program):
        rendered.append(program)
        return render(program)

    for module in (serialize, engine, mutate):
        monkeypatch.setattr(module, "serialize_program", counted)
    return rendered


def test_an_internal_mutation_analysis_renders_no_tester(monkeypatch):
    rendered = counted_renders(monkeypatch)
    unit = parse_unit("m.lp", fixture_text("coloring_mutation.lp"))
    mutants = generate_mutants(mutation_base_program(unit), OPERATOR_KINDS, 8, 3)
    report = mutation_analysis(unit, mutants, BACKEND)
    report.human_lines()
    assert report.baseline_passed and len(report.outcomes) == 8 and rendered == []
    # the JSON report renders each mutant's program, and no tester
    report.to_json_dict()
    assert rendered == [m.program for m in mutants]


def test_a_mutation_analysis_resolves_each_scope_once(monkeypatch):
    """The mutants run on the scopes that the baseline resolved."""
    resolved = []
    resolve = engine.resolve_scope

    def counted(suite, spec, *args):
        resolved.append(spec.name)
        return resolve(suite, spec, *args)

    monkeypatch.setattr(engine, "resolve_scope", counted)
    unit = parse_unit("m.lp", fixture_text("coloring_mutation.lp"))
    mutants = generate_mutants(mutation_base_program(unit), OPERATOR_KINDS, 8, 3)
    for jobs in (1, 2):
        resolved.clear()
        report = mutation_analysis(unit, mutants, BACKEND, jobs=jobs)
        assert report.baseline_passed and len(report.outcomes) == 8
        assert resolved == [spec.name for spec in unit.suite.tests]


# The tester text of coloring.lp's first assertion, byte for byte.
COLORING_TESTER = ("col(X,red) | col(X,blue) | col(X,green) :- node(X).\n"
                   ":- edge(X,Y), col(X,C), col(Y,C).\n"
                   "node(1).\nnode(2).\nnode(3).\nedge(1,2).\nedge(1,3).\nedge(2,3).\n"
                   ":- not col(1,red).\n")


def test_a_tester_is_rendered_late_in_the_same_bytes(monkeypatch, capsys):
    rendered = counted_renders(monkeypatch)
    unit = coloring_unit()
    spec = unit.suite.tests[0]
    scope = resolve_scope(unit.suite, spec)
    results = run_test(spec, scope, BACKEND).assertions
    assert rendered == []
    for a, result in zip(spec.asserts, results):
        tp = build_tester(scope, a)
        want = serialize.serialize_program(Program(scope.rules + tp.added))
        assert result.executed_code == tp.text == want
    assert results[0].executed_code == COLORING_TESTER
    # `test --format json` shows the same bytes
    assert cli.main(["test", "--format", "json", "--backend", "internal",
                     str(FIXTURES / "coloring.lp")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tests"][0]["assertions"][0]["executed_code"] == COLORING_TESTER
    # and an external solver is fed them on its standard input
    tp = build_tester(scope, spec.asserts[0])
    _, raw = stub_backend().run(tp.program, tp.model_cap)
    assert raw.stdin_text == COLORING_TESTER


def test_suite_report_json_schema():
    report = run_suite(coloring_unit(), BACKEND)
    doc = report.to_json_dict()
    assert doc["counts"]["tests"] == 1
    entry = doc["tests"][0]["assertions"][0]
    assert set(entry) == {"kind", "verdict", "executed_code", "witness",
                          "diagnostics", "wall_ms", "requested_models"}


def test_parallel_suite_matches_serial():
    # the external calls, and auto's retries on the solver of what the
    # internal engine refused (every assertion of the path), run in up to
    # `jobs` threads; the report does not show it
    units = [parse_unit(name, fixture_text(name))
             for name in ("coloring_mutation.lp", "coloring.lp", "hamiltonian_mutation.lp")]
    units.append(parse_unit("path.lp", PATH_COLORING))
    for unit in units:
        for backend in (BACKEND, stub_backend(), AutoBackend(stub_config())):
            serial = untimed(run_suite(unit, backend, jobs=1).to_json_dict())
            for jobs in (2, 4):
                report = run_suite(unit, backend, jobs=jobs)
                assert untimed(report.to_json_dict()) == serial, (unit.path, backend.name, jobs)
    # the retried assertions are decided by the solver
    verdicts = {a["verdict"] for a in serial["tests"][0]["assertions"]}
    assert "error" not in verdicts


def test_one_tests_assertions_run_at_once():
    # each solver call waits for the other, so they only finish when they
    # overlap
    meet = threading.Barrier(2, timeout=2)

    class Meeting(ExternalBackend):
        def run(self, *args, **kwargs):
            meet.wait()
            return super().run(*args, **kwargs)

    (test,) = run_suite(coloring_unit(), Meeting(stub_config()), jobs=2).tests
    (serial,) = run_suite(coloring_unit(), stub_backend(), jobs=1).tests
    assert len(test.assertions) == 2 and "error" not in [a.verdict for a in test.assertions]
    assert [a.verdict for a in test.assertions] == [a.verdict for a in serial.assertions]


class Watching:
    """The internal engine, noting each scope as its first call starts:
    `refs` holds one weak reference per scope, in that order, and `alive`
    the index of each earlier scope still alive at that moment."""

    def __init__(self):
        self.refs = []
        self.alive = []

    def run(self, program, cap, optimize=False, scope=None):
        if not self.refs or self.refs[-1]() is not scope:
            self.alive.extend(i for i, ref in enumerate(self.refs) if ref() is not None)
            self.refs.append(weakref.ref(scope))
        return BACKEND.run(program, cap, optimize, scope)


def test_a_suite_frees_each_scope_after_its_test():
    # a scope kept past its test's last assertion keeps its saved ground
    # form alive for the rest of the suite
    watching = Watching()
    unit = parse_unit("m.lp", fixture_text("coloring_mutation.lp"))
    assert run_suite(unit, watching, jobs=1).all_passed()
    assert len(watching.refs) == 3 and watching.alive == []


def test_a_mutation_analysis_frees_each_scope_after_its_last_call():
    # every mutant's scopes are made before the first call; each is freed
    # once its own last call is done, not at the end of the analysis
    watching = Watching()
    unit = parse_unit("m.lp", fixture_text("coloring_mutation.lp"))
    mutants = generate_mutants(mutation_base_program(unit), OPERATOR_KINDS, 4, 3)
    report = mutation_analysis(unit, mutants, watching)
    assert report.baseline_passed and len(report.outcomes) == 4
    # the baseline's 3 scopes, then 3 per mutant
    assert len(watching.refs) == 15 and watching.alive == []


def test_one_mutants_solver_calls_run_at_once():
    # with fewer mutants than --jobs, one mutant's calls fill the pool
    unit = parse_unit("m.lp", fixture_text("coloring_mutation.lp"))
    baseline_calls = sum(len(spec.asserts) for spec in unit.suite.tests)
    lock = threading.Lock()
    calls = {"started": 0, "in_flight": 0, "most_of_the_mutant": 0}

    class Slow(ExternalBackend):
        """Answers through the internal engine after a short sleep, with no
        shared scope."""

        def run(self, program, cap, optimize=False, scope=None):
            with lock:
                of_the_mutant = calls["started"] >= baseline_calls
                calls["started"] += 1
                calls["in_flight"] += 1
                if of_the_mutant:
                    calls["most_of_the_mutant"] = max(calls["most_of_the_mutant"],
                                                      calls["in_flight"])
            try:
                time.sleep(0.05)
                return BACKEND.run(program, cap, optimize)
            finally:
                with lock:
                    calls["in_flight"] -= 1

    mutants = generate_mutants(mutation_base_program(unit), OPERATOR_KINDS, 1, 3)
    report = mutation_analysis(unit, mutants, Slow(stub_config()), jobs=2)
    serial = mutation_analysis(unit, mutants, BACKEND)
    assert report.baseline_passed and report.to_json_dict() == serial.to_json_dict()
    assert calls["started"] == 2 * baseline_calls
    assert calls["most_of_the_mutant"] >= 2


FOUR_ASSERTIONS = fixture_text("coloring.lp").replace(
    """        @trueInExactly(number = 1, atoms = "col(1, red). col(2, blue)") }""",
    """        @trueInExactly(number = 1, atoms = "col(1, red). col(2, blue)"),
        @constraintForAll(":- col(1,C), col(2,C)."),
        @trueInAtLeast(number = 1, atoms = "col(3, green)") }""")


def test_a_test_instantiates_its_scope_once(monkeypatch):
    """And simplifies it once: each tester simplifies only what it adds."""
    statements = []
    simplified = []
    instantiate = oracle._instantiate
    simplify = oracle._simplify

    def counted(stmts, universe_size):
        statements.append(len(stmts))
        return instantiate(stmts, universe_size)

    def counted_simplify(instances, *seeds):
        simplified.append("tester" if seeds else "whole program")
        return simplify(instances, *seeds)

    monkeypatch.setattr(oracle, "_instantiate", counted)
    monkeypatch.setattr(oracle, "_simplify", counted_simplify)
    unit = parse_unit("four.lp", FOUR_ASSERTIONS)
    spec = unit.suite.tests[0]
    scope = resolve_scope(unit.suite, spec)
    # the testers run one after another, at any --jobs, and under auto the
    # internal engine decides them all
    for run in (lambda: run_test(spec, scope, InternalBackend()),
                lambda: run_suite(unit, InternalBackend(), jobs=2).tests[0],
                lambda: run_suite(unit, AutoBackend(stub_config()), jobs=2).tests[0]):
        statements.clear()
        simplified.clear()
        result = run()
        assert [a.verdict for a in result.assertions] == [PASS] * 4
        assert statements == [len(scope.rules)]
        # the scope once, then only what each tester adds
        assert simplified == ["whole program"] + ["tester"] * 4


def counted_instantiations(monkeypatch, delay: float = 0.0) -> list:
    calls = []
    instantiate = oracle._instantiate

    def counted(*args):
        calls.append(args)
        time.sleep(delay)
        return instantiate(*args)

    monkeypatch.setattr(oracle, "_instantiate", counted)
    return calls


PATH_COLORING = """%** @block(name = "P") **%
%** @rule(name = "r1", block = "P") **%
col(X,red) | col(X,blue) | col(X,green) :- node(X).
%** @rule(name = "r2", block = "P") **%
:- edge(X,Y), col(X,C), col(Y,C).
%** @test(name = "path", scope = { "P" }, input = "INPUT", assert = {
        @trueInExactly(number = 1, atoms = "col(1, red). col(2, blue)"),
        @constraintForAll(":- col(1,C), col(2,C)."),
        @trueInAtLeast(number = 1, atoms = "col(3, green)"),
        @noAnswerSet }) **%
""".replace("INPUT", " ".join([f"node({i})." for i in range(1, 9)]
                              + [f"edge({i},{i + 1})." for i in range(1, 8)]))


def test_a_scope_over_capacity_is_grounded_once_for_all_its_assertions(monkeypatch):
    # 8 nodes of 3 colors are 24 unknown atoms; every tester splits on the
    # scope, so each raises the scope's own error and none is grounded
    calls = counted_instantiations(monkeypatch)
    unit = parse_unit("path.lp", PATH_COLORING)
    spec = unit.suite.tests[0]
    result = run_test(spec, resolve_scope(unit.suite, spec), InternalBackend())
    message = ("CapacityExceeded: 24 undetermined ground atoms / 29 ground rules exceed "
               "the exhaustive-scan capacity (22 atoms, 5000 rules)")
    assert [(a.verdict, a.diagnostics) for a in result.assertions] == [("error", message)] * 4
    assert len(calls) == 1


def test_interleaved_scopes_are_instantiated_once_each(monkeypatch):
    # a backend that saved only the last scope it saw would instantiate A
    # again for its second tester: 3 calls
    calls = counted_instantiations(monkeypatch)
    a = oracle.Scope(parse_unit("a.lp", "p(1) | p(2).").program)
    b = oracle.Scope(parse_unit("b.lp", "q(1). r(X) :- q(X).").program)
    backend = InternalBackend()
    for scope, wanted in ((a, atom("p", 1)), (b, atom("r", 1)), (a, atom("p", 2))):
        tp = build_tester(scope.program, TrueInAtLeast(1, (wanted,)))
        result, _ = backend.run(tp.program, tp.model_cap,
                                optimize=tp.optimize, scope=scope)
        assert evaluate(tp, result).verdict == PASS
    assert len(calls) == 2


def test_internal_calls_run_on_the_calling_thread(monkeypatch, tmp_path, capsys):
    # every ground and search call, at --jobs 4, for `test` and `mutate`,
    # under the internal backend and under auto with a solver configured;
    # auto's retries of the path's refused assertions spawn the solver in
    # pool threads
    threads = {"internal": [], "solve": []}

    def record(kind, original):
        def called(*args, **kwargs):
            threads[kind].append(threading.get_ident())
            return original(*args, **kwargs)
        return called

    # the names by which the internal backend calls the oracle
    for name in ("ground", "enumerate_answer_sets", "optimal_answer_sets"):
        monkeypatch.setattr(solver, name, record("internal", getattr(solver, name)))
    monkeypatch.setattr(solver, "solve", record("solve", solver.solve))
    path = tmp_path / "path.lp"
    path.write_text(PATH_COLORING, encoding="utf-8")
    mutation = str(FIXTURES / "coloring_mutation.lp")
    auto = ["--solver-path", sys.executable, "--solver-arg", STUB, "--solver-arg", "basic"]
    main = threading.get_ident()
    for backend in (["--backend", "internal"], auto):
        for command in (["test", mutation], ["test", str(path)],
                        ["mutate", "--count", "4", "--seed", "3", mutation]):
            for values in threads.values():
                values.clear()
            assert cli.main([command[0], "--jobs", "4", *backend, *command[1:]]) in (0, 1, 2)
            capsys.readouterr()
            assert threads["internal"] and set(threads["internal"]) == {main}, command
            if backend is auto and command[1] == str(path):
                assert len(threads["solve"]) == 4 and main not in threads["solve"]
            else:
                assert threads["solve"] == []


def test_solver_children_overlap(tmp_path, capsys):
    # four calls of a stub solver that sleeps until its 1 s timeout: under
    # external, and under auto, which retries each of the path's refused
    # assertions on it
    four = tmp_path / "four.lp"
    four.write_text(FOUR_ASSERTIONS, encoding="utf-8")
    path = tmp_path / "path.lp"
    path.write_text(PATH_COLORING, encoding="utf-8")
    sleeper = ["--solver-path", sys.executable, "--solver-arg", STUB,
               "--solver-arg", "sleep", "--timeout", "1"]
    for args in (["--backend", "external", str(four)], [str(path)]):
        reports = []
        for jobs in (4, 1):
            start = time.monotonic()
            status = cli.main(["test", "--format", "json", "--jobs", str(jobs), *sleeper, *args])
            elapsed = time.monotonic() - start
            doc = json.loads(capsys.readouterr().out)
            reports.append((status, untimed(doc)))
            if jobs == 4:
                assert elapsed < 2.5, args
        assert reports[0] == reports[1]
        verdicts = [a["verdict"] for a in doc["tests"][0]["assertions"]]
        assert len(verdicts) == 4 and "error" not in verdicts


def test_an_external_backend_never_instantiates_the_scope(monkeypatch):
    calls = counted_instantiations(monkeypatch)
    unit = parse_unit("four.lp", FOUR_ASSERTIONS)
    spec = unit.suite.tests[0]
    result = run_test(spec, resolve_scope(unit.suite, spec), stub_backend())
    assert len(result.assertions) == 4
    assert "error" not in [a.verdict for a in result.assertions]
    assert calls == []


# ---------------------------------------------------------------------------
# Encoding soundness: tester verdicts match direct semantics
# ---------------------------------------------------------------------------

def test_tester_encodings_agree_with_direct_semantics():
    rng = random.Random(1234)
    for i in range(120):
        program = random_program(rng)
        kind = ASSERTION_KINDS[i % len(ASSERTION_KINDS)]
        assertion = random_assertion(rng, program, kind)
        tp = build_tester(program, assertion)
        res, _ = BACKEND.run(tp.program, tp.model_cap,
                             optimize=tp.optimize)
        got = evaluate(tp, res).verdict
        want = direct_verdict(program, assertion)
        assert got == want, (program, assertion)


def test_tester_verdicts_match_direct_semantics_on_non_ground_programs():
    # bestModelCost is left out until weak constraints cost what ASP-Core-2
    # says (ROADMAP item 2)
    kinds = [k for k in ASSERTION_KINDS if k != "bestModelCost"]
    rng = random.Random(5)
    checked = witnesses = 0
    for _ in range(300):
        program = random_join_program(rng)
        try:
            ground(program)
        except UnsupportedAggregate:
            continue
        universe = sorted(herbrand_universe(program), key=term_key)
        answer_sets = brute_answer_sets(naive_ground(program.rules, universe), universe)
        for kind in kinds:
            assertion = random_join_assertion(rng, program, kind)
            tp = build_tester(program, assertion)
            res, _ = BACKEND.run(tp.program, tp.model_cap, optimize=tp.optimize)
            got = evaluate(tp, res)
            want = direct_verdict(program, assertion, universe, answer_sets)
            assert got.verdict == want, (program, assertion)
            checked += 1
            if got.witness is not None:
                assert got.verdict == FAIL and got.witness in answer_sets, (program, assertion)
                witnesses += 1
    assert checked >= 2000 and witnesses >= 300, (checked, witnesses)


# ---------------------------------------------------------------------------
# Atoms no head of the scope unifies with
# ---------------------------------------------------------------------------

VACUOUS = """%** @rule(name = "color") **%
col(X, red) | col(X, blue) :- node(X).
%** @test(name = "vacuous", scope = {"color"}, input = "node(1). node(2).",
      assert = { @trueInAtMost(number = 0, atoms = "colr(1, red)"),
                 @constraintForAll(":- col(X, red), col(X, gren)."),
                 @constraintInExactly(number = 4, constraint = ":- colour(X, red).") }) **%
%** @test(name = "negative", scope = {"color"}, input = "node(1). node(2).",
      assert = { @trueInExactly(number = 0, atoms = "col(3, red)") }) **%
"""

VACUOUS_WARNINGS = [
    "trueInAtMost: colr(1,red) unifies with no head or fact of the scope, "
    "so no answer set holds it",
    "constraintForAll: col(X,gren) unifies with no head or fact of the scope, "
    "so no answer set holds it",
    "constraintInExactly: colour(X,red) unifies with no head or fact of the scope, "
    "so no answer set holds it",
]


def test_assertion_atoms_no_head_unifies_with_are_warned_and_keep_their_verdicts():
    # all three assertions pass however the scope is written; col(3, red)
    # unifies with a head that no ground instance derives, and is a
    # deliberate negative test
    report = run_suite(parse_unit("vacuous.lp", VACUOUS), InternalBackend())
    vacuous, negative = report.tests
    assert [a.verdict for a in vacuous.assertions] == [PASS] * 3
    assert vacuous.warnings == VACUOUS_WARNINGS
    assert negative.verdict == PASS and negative.warnings == []
    doc = report.to_json_dict()
    assert doc["tests"][0]["warnings"] == VACUOUS_WARNINGS
    assert "warnings" not in doc["tests"][1]
    lines = report.human_lines()
    # after the test's assertions, before the next test
    assert lines[4:7] == [f"  note: {w}" for w in VACUOUS_WARNINGS]
    assert lines[7].startswith("test negative: pass")


@pytest.mark.parametrize("rule, facts, assertion, warned", [
    # a repeated head variable unifies only with equal arguments
    ("p(X,X) :- d(X).", "d(1).", '@trueInAll(atoms = "p(1,2)")', ["p(1,2)"]),
    ("p(X,X) :- d(X).", "d(1).", '@trueInAll(atoms = "p(2,2)")', []),
    ("p(X,X) :- d(X).", "d(1).", '@constraintForAll(":- p(X,Y), d(Y).")', []),
    # an assertion's repeated variable joins two head arguments
    ("p(1,Y) :- d(Y).", "d(1).", '@constraintForAll(":- p(X,X).")', []),
    ("p(1,2).", "", '@constraintForAll(":- p(X,X).")', ["p(X,X)"]),
    # the rule's body atom q has no head, and the input's fact is one
    ("p(X) :- q(X).", "", '@constraintInAtLeast(number = 1, constraint = ":- q(1).")',
     ["q(1)"]),
    ("p(X) :- q(X).", "q(2).", '@trueInAll(atoms = "q(1). q(2). p(1)")', ["q(1)"]),
    # a negated constraint atom is not checked
    ("p(1).", "", '@constraintForAll(":- p(1), not q(1).")', []),
])
def test_vacuous_atoms_unify_with_the_scopes_heads(rule, facts, assertion, warned):
    text = (f'%** @rule(name = "r") **%\n{rule}\n'
            f'%** @test(name = "t", scope = {{"r"}}, input = "{facts}", '
            f'assert = {{ {assertion} }}) **%\n')
    unit = parse_unit("u.lp", text)
    spec = unit.suite.tests[0]
    found = vacuous_atoms(spec, oracle.Scope(resolve_scope(unit.suite, spec)))
    assert [w.split(": ", 1)[1].split(" ", 1)[0] for w in found] == warned


def test_no_shipped_fixture_warns():
    for path in sorted(FIXTURES.glob("*.lp")):
        unit = parse_unit(str(path), path.read_text(encoding="utf-8"))
        for spec in unit.suite.tests:
            scope = oracle.Scope(resolve_scope(unit.suite, spec))
            assert vacuous_atoms(spec, scope) == [], (path.name, spec.name)
