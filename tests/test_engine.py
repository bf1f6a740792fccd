import random
import re
from pathlib import Path

import pytest

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
)
from asp_testkit.model import (
    ASSERTION_CLASSES,
    ASSERTION_KINDS,
    Atom,
    BestModelCost,
    ConstraintForAll,
    NoAnswerSet,
    Rule,
    TrueInAll,
    TrueInAtLeast,
    TrueInAtMost,
    TrueInExactly,
)
from asp_testkit.oracle import SolveResult, AnswerSet
from asp_testkit.parser import parse_assertion_list, parse_unit
from asp_testkit.solver import InternalBackend
from helpers import (
    atom,
    direct_verdict,
    fixture_text,
    lit,
    random_assertion,
    random_program,
)

BACKEND = InternalBackend()
README = Path(__file__).resolve().parent.parent / "README.md"


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
    result = run_test(unit.suite, unit.suite.tests[0], BACKEND,
                      default_file_loader(str(tmp_path)))
    assert result.verdict == PASS


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
    res, raw = BACKEND.run(tp.program, tp.text, tp.model_cap,
                           optimize=tp.optimize)
    return evaluate(tp, res, assertion)


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
    result = evaluate(tp, SolveResult(answer_sets=[], exhausted=False), NoAnswerSet())
    assert result.verdict == INCONCLUSIVE


def test_witnesses_hide_fresh_atoms():
    program = parse_unit("t.lp", "p. q.").program
    constraint = Rule((), (lit("p"), lit("q")))
    tp = build_tester(program, ConstraintForAll(constraint))
    res, _ = BACKEND.run(tp.program, tp.text, tp.model_cap)
    result = evaluate(tp, res, ConstraintForAll(constraint))
    assert result.verdict == FAIL
    assert result.witness == frozenset({Atom("p"), Atom("q")})
    assert all(not a.predicate.startswith("__tk_") for a in result.witness)


def test_best_model_cost_verdicts():
    text = "a | b. :~ a. [3@1]"
    assert run_assertion(text, BestModelCost(0, 1)).verdict == PASS
    assert run_assertion(text, BestModelCost(3, 1)).verdict == FAIL
    assert run_assertion(text, BestModelCost(0, 9)).verdict == PASS  # empty level
    assert run_assertion("a. :- a. :~ a. [1@1]", BestModelCost(0, 1)).verdict == FAIL


def test_best_model_cost_errors_without_cost_report():
    program = parse_unit("t.lp", "a. :~ a. [1@1]").program
    tp = build_tester(program, BestModelCost(1, 1))
    stale = SolveResult(answer_sets=[AnswerSet(frozenset({Atom("a")}))],
                        exhausted=True, costs=None)
    result = evaluate(tp, stale, BestModelCost(1, 1))
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
        def run(self, program, text, cap, optimize=False):
            self.calls += 1
            if optimize:
                raise RuntimeError("no optimizer here")
            return BACKEND.run(program, text, cap, optimize)
    result = run_test(unit.suite, unit.suite.tests[0], Flaky())
    assert [a.verdict for a in result.assertions] == [PASS, "error"]
    assert result.verdict == "error"


def test_suite_report_json_schema():
    report = run_suite(coloring_unit(), BACKEND)
    doc = report.to_json_dict()
    assert doc["counts"]["tests"] == 1
    entry = doc["tests"][0]["assertions"][0]
    assert set(entry) == {"kind", "verdict", "executed_code", "witness",
                          "diagnostics", "wall_ms", "requested_models"}


def test_parallel_suite_matches_serial():
    unit = parse_unit("m.lp", fixture_text("coloring_mutation.lp"))
    serial = run_suite(unit, BACKEND, jobs=1)
    parallel = run_suite(unit, BACKEND, jobs=4)
    assert [t.name for t in parallel.tests] == [t.name for t in serial.tests]
    assert [t.verdict for t in parallel.tests] == [t.verdict for t in serial.tests]


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
        res, _ = BACKEND.run(tp.program, tp.text, tp.model_cap,
                             optimize=tp.optimize)
        got = evaluate(tp, res, assertion).verdict
        want = direct_verdict(program, assertion)
        assert got == want, (program, assertion)
