
import sys
from pathlib import Path

import pytest

from asp_testkit import cli
from asp_testkit.engine import resolve_scope, run_test
from asp_testkit.engine import TestResult as Result  # not a test class
from asp_testkit.model import Program
from asp_testkit.mutate import (
    ExhaustedLoci,
    InapplicableOp,
    MutationOp,
    OPERATOR_KINDS,
    OPERATORS,
    UnsafeMutant,
    apply_op,
    enumerate_loci,
    _mutant_transform,
    generate_mutants,
    mutation_analysis,
    mutation_base_program,
)
from asp_testkit.oracle import CapacityExceeded
from asp_testkit.parser import parse_unit
from asp_testkit.serialize import rule_to_text, serialize_program
from asp_testkit.solver import AutoBackend, BackendConfig, ExternalBackend, InternalBackend
from helpers import FIXTURES, fixture_text, untimed

BACKEND = InternalBackend()
# the stub solver, printing one model whatever it is fed
STUB = BackendConfig(executable=sys.executable, model_cap_template="",
                     extra_args=(str(Path(__file__).resolve().parent / "stub_solver.py"), "basic"))
FIXTURE_NAMES = sorted(path.name for path in FIXTURES.glob("*.lp"))


def coloring_rules() -> Program:
    unit = parse_unit("c.lp", fixture_text("coloring.lp"))
    return mutation_base_program(unit)


# ---------------------------------------------------------------------------
# Single operators
# ---------------------------------------------------------------------------

def test_delete_rule():
    p = coloring_rules()
    mutated = apply_op(p, MutationOp("deleteRule", 1))
    assert len(mutated.rules) == 1
    assert mutated.rules[0] == p.rules[0]


def test_delete_literal_keeps_safety_or_raises():
    p = parse_unit("t.lp", "q(1). p(X) :- q(X), r(X).").program
    mutated = apply_op(p, MutationOp("deleteLiteral", 1, "body", 1))
    assert rule_to_text(mutated.rules[1]) == "p(X) :- q(X)."
    with pytest.raises(UnsafeMutant):
        # removing q(X) from p(X) :- q(X) leaves X unbound
        apply_op(parse_unit("t.lp", "p(X) :- q(X).").program,
                 MutationOp("deleteLiteral", 0, "body", 0))


def test_swap_terms_on_coloring_constraint():
    p = coloring_rules()
    mutated = apply_op(p, MutationOp("swapTerms", 1, "body", 1, (0, 1)))
    assert rule_to_text(mutated.rules[1]) == ":- edge(X,Y), col(C,X), col(Y,C)."
    # the result still parses back to the same AST
    assert parse_unit("rt.lp", serialize_program(mutated)).program == mutated


def test_add_default_negation_unsafe_is_rejected():
    p = parse_unit("t.lp", "reached(Y) :- reached(X), inCycle(X,Y).").program
    with pytest.raises(UnsafeMutant):
        apply_op(p, MutationOp("addDefaultNegation", 0, "body", 1))


def test_add_default_negation_on_ground_atom():
    p = parse_unit("t.lp", "a. b :- a.").program
    mutated = apply_op(p, MutationOp("addDefaultNegation", 1, "body", 0))
    assert rule_to_text(mutated.rules[1]) == "b :- not a."


def test_swap_default_negation_flips_both_ways():
    p = parse_unit("t.lp", "a. b :- not a.").program
    mutated = apply_op(p, MutationOp("swapDefaultNegation", 1, "body", 0))
    assert rule_to_text(mutated.rules[1]) == "b :- a."


def test_change_math_operator_adjacency():
    p = parse_unit("t.lp", ":- q(X), q(Y), X <> Y. q(1).").program
    mutated = apply_op(p, MutationOp("changeMathOperators", 0, "body", 2))
    assert rule_to_text(mutated.rules[0]) == ":- q(X), q(Y), X = Y."


def test_change_aggregate_guard_adjacency():
    p = parse_unit("t.lp", "q(1). :- #count{X : q(X)} = 0.").program
    mutated = apply_op(p, MutationOp("changeAggregates", 1, "body", 0))
    assert rule_to_text(mutated.rules[1]) == ":- #count{X : q(X)} != 0."


def test_rename_predicate_same_arity_target():
    p = coloring_rules()
    mutated = apply_op(p, MutationOp("renamePredicates", 1, "body", 1, ("edge",)))
    assert rule_to_text(mutated.rules[1]) == ":- edge(X,Y), edge(X,C), col(Y,C)."


def test_rename_predicate_fresh_when_no_peer():
    p = parse_unit("t.lp", "only(1,2).").program
    loci = enumerate_loci(p, ["renamePredicates"])
    assert loci == [MutationOp("renamePredicates", 0, "head", 0, ("only_m0",))]


def test_inapplicable_locus():
    p = parse_unit("t.lp", "a.").program
    with pytest.raises(InapplicableOp):
        apply_op(p, MutationOp("deleteLiteral", 0, "body", 0))


@pytest.mark.parametrize("op", [
    MutationOp("swapTerms", 1, "head", 0, (-1, 0)),
    MutationOp("swapTerms", 1, "head", 0, (0, 0)),
    MutationOp("swapTerms", 1, "head", 0, (0, 1, 2)),
    MutationOp("renamePredicates", 1, "head", 0, ()),
    MutationOp("renamePredicates", 1, "head", 0, ("Bad Name",)),
    MutationOp("renamePredicates", 1, "head", 0, ("p",)),
    MutationOp("deleteLiteral", 1, "head", 0),
    MutationOp("addDefaultNegation", 1, "body", 0, ("x",)),
    MutationOp("deleteRule", 1, "body", 0),
    MutationOp("noSuchOperator", 1),
], ids=MutationOp.describe)
def test_malformed_op_is_inapplicable(op):
    # each kind accepts exactly the site, slot and detail shape its loci have
    p = parse_unit("t.lp", "q(1,2). p(X,Y) :- q(X,Y), not r(X).").program
    with pytest.raises(InapplicableOp):
        apply_op(p, op)


def test_rename_accepts_any_other_predicate_name():
    p = parse_unit("t.lp", "q(1,2). p(X,Y) :- q(X,Y).").program
    mutated = apply_op(p, MutationOp("renamePredicates", 1, "head", 0, ("zz",)))
    assert rule_to_text(mutated.rules[1]) == "zz(X,Y) :- q(X,Y)."


def test_operator_kinds_order():
    # the order fixes the default --ops list and so every seeded mutant set
    assert OPERATOR_KINDS == (
        "renamePredicates", "deleteRule", "deleteLiteral", "addDefaultNegation",
        "swapTerms", "changeAggregates", "changeMathOperators", "swapDefaultNegation")
    assert tuple(OPERATORS) == OPERATOR_KINDS


HAND_WRITTEN = [
    "a. b :- a, not c. :- b.",
    "q(1,1). q(1,2). p(X,X) :- q(X,X). r(X,Y) | s(Y,X) :- q(X,Y), X < Y.",
    "d(1). d(2). c(X) :- d(X), #count{Y : d(Y)} >= 2. :- #count{X : c(X)} = 0.",
    "e(1,2). :~ e(X,Y), X != Y. [1@1]\nf(Y) :- e(X,Y), not f(X).",
]


def test_every_enumerated_locus_applies():
    programs = [parse_unit("h.lp", text).program for text in HAND_WRITTEN]
    units = [parse_unit(name, fixture_text(name)) for name in FIXTURE_NAMES]
    programs += [mutation_base_program(unit) for unit in units]
    for p in programs:
        for op in enumerate_loci(p, OPERATOR_KINDS):
            try:
                assert apply_op(p, op) != p, op
            except UnsafeMutant:
                pass
    # edits keep each rule's source origin, which maps mutants onto scopes
    for unit in units:
        origins = {rule.origin for rule in unit.suite.named_rules.values()}
        assert None not in origins
        base = mutation_base_program(unit)
        for seed, ops_per_mutant in [(0, 1), (1, 1), (2, 2), (3, 2)]:
            try:
                mutants = generate_mutants(base, OPERATOR_KINDS, 40, seed, ops_per_mutant)
            except ExhaustedLoci as exc:
                mutants = exc.mutants
            assert mutants
            for m in mutants:
                assert {rule.origin for rule in m.program.rules} <= origins


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def test_generate_delete_rule_mutants_cover_both_loci():
    p = coloring_rules()
    mutants = generate_mutants(p, ["deleteRule"], 2, seed=7)
    programs = {m.program for m in mutants}
    assert programs == {Program((p.rules[0],)), Program((p.rules[1],))}


def test_generate_is_deterministic():
    p = coloring_rules()
    a = generate_mutants(p, list(OPERATOR_KINDS), 6, seed=99)
    b = generate_mutants(p, list(OPERATOR_KINDS), 6, seed=99)
    assert [serialize_program(m.program) for m in a] == \
           [serialize_program(m.program) for m in b]
    assert [m.ops for m in a] == [m.ops for m in b]


def test_generate_exhausted_loci():
    p = parse_unit("t.lp", "a.").program  # aggregate-free
    with pytest.raises(ExhaustedLoci) as exc:
        generate_mutants(p, ["changeAggregates"], 1, seed=1)
    assert exc.value.mutants == []


def test_generated_mutants_are_valid_and_distinct():
    p = mutation_base_program(parse_unit("h.lp", fixture_text("hamiltonian_mutation.lp")))
    for seed in (1, 5, 23):
        mutants = generate_mutants(p, list(OPERATOR_KINDS), 10, seed=seed)
        seen = {serialize_program(p)}
        for m in mutants:
            text = serialize_program(m.program)
            assert text not in seen
            seen.add(text)
            reparsed = parse_unit("m.lp", text).program  # parses and is safe
            assert reparsed == m.program


def test_higher_order_mutants():
    p = coloring_rules()
    mutants = generate_mutants(p, ["swapTerms", "renamePredicates"], 3, seed=4,
                               ops_per_mutant=2)
    assert all(len(m.ops) == 2 for m in mutants)


# ---------------------------------------------------------------------------
# Kill analysis
# ---------------------------------------------------------------------------

def test_original_program_is_never_killed():
    unit = parse_unit("c.lp", fixture_text("coloring_mutation.lp"))
    report = mutation_analysis(unit, [], BACKEND)
    assert report.baseline_passed


def test_baseline_failure_refuses_analysis():
    unit = parse_unit("h.lp", fixture_text("hamiltonian_bug.lp"))
    base = mutation_base_program(unit)
    mutants = generate_mutants(base, ["deleteRule"], 1, seed=1)
    report = mutation_analysis(unit, mutants, BACKEND)
    assert not report.baseline_passed
    assert report.outcomes == []


def test_deleting_edge_constraint_is_killed_by_exact_count():
    unit = parse_unit("c.lp", fixture_text("coloring_mutation.lp"))
    base = mutation_base_program(unit)
    # rule index 1 is the edge constraint
    mutants = [m for m in generate_mutants(base, ["deleteRule"], 2, seed=7)
               if len(m.program.rules) == 1 and not m.program.rules[0].is_constraint()]
    report = mutation_analysis(unit, mutants, BACKEND)
    (outcome,) = report.outcomes
    assert outcome.status == "killed"
    assert any("trueInExactly" in label for label in outcome.killed_by)


def test_test_without_assertions_is_not_rerun_on_mutants():
    # its scope holds every mutated rule, but it has nothing to decide
    unit = parse_unit("c.lp", fixture_text("coloring.lp") + (
        '%** @test(name = "empty", scope = {"ToTest"}, assert = {}) **%\n'))
    mutants = generate_mutants(mutation_base_program(unit), ["deleteRule"], 2, seed=7)
    report = mutation_analysis(unit, mutants, BACKEND)
    assert report.baseline_passed
    assert [o.status for o in report.outcomes] == ["killed", "killed"]
    assert [[t.name for t in o.tests] for o in report.outcomes] == [["checkColors"]] * 2


def test_dangling_scope_without_assertions_refuses_the_baseline():
    unit = parse_unit("c.lp", fixture_text("coloring.lp") + (
        '%** @test(name = "empty", scope = {"nowhere"}, assert = {}) **%\n'))
    mutants = generate_mutants(mutation_base_program(unit), ["deleteRule"], 2, seed=7)
    report = mutation_analysis(unit, mutants, BACKEND)
    assert not report.baseline_passed and report.baseline.has_errors()
    assert report.baseline.tests[-1].verdict == "error"
    assert report.outcomes == []


def test_kill_report_counts_feed_both_renderings():
    unit = parse_unit("c.lp", fixture_text("coloring_mutation.lp"))
    mutants = generate_mutants(mutation_base_program(unit), ["deleteRule"], 2, seed=7)
    report = mutation_analysis(unit, mutants, BACKEND)
    assert report.counts == report.to_json_dict()["counts"] == {
        "mutants": 2, "killed": 2, "survived": 0, "inconclusive": 0}
    assert report.human_lines()[-1] == "2 mutant(s): 2 killed, 0 survived, 0 inconclusive"


class RefusesMutatedScopes(InternalBackend):
    """The internal backend, except that it raises CapacityExceeded on every
    scope that is not one of `unit`'s tests' own."""

    def __init__(self, unit):
        self.scopes = [resolve_scope(unit.suite, spec) for spec in unit.suite.tests]

    def run(self, program, max_models, optimize=False, scope=None):
        if scope.program not in self.scopes:
            raise CapacityExceeded("refused")
        return super().run(program, max_models, optimize, scope)


def test_a_mutant_with_an_error_and_no_failure_is_inconclusive(monkeypatch, capsys):
    unit = parse_unit("fixtures/coloring_mutation.lp", fixture_text("coloring_mutation.lp"))
    backend = RefusesMutatedScopes(unit)
    mutants = generate_mutants(mutation_base_program(unit), OPERATOR_KINDS, 1, seed=19)
    report = mutation_analysis(unit, mutants, backend)
    assert report.baseline_passed
    (outcome,) = report.outcomes
    assert {a.verdict for t in outcome.tests for a in t.assertions} == {"error"}
    assert outcome.status == "inconclusive" and outcome.killed_by == []
    assert report.counts["inconclusive"] == 1
    assert report.human_lines()[-1] == "1 mutant(s): 0 killed, 0 survived, 1 inconclusive"
    # `mutate` exits 1 when a mutant is not killed
    monkeypatch.chdir(FIXTURES.parent)
    monkeypatch.setattr(cli, "_make_backend", lambda args: backend)
    assert cli.main(["mutate", "--count", "1", "--seed", "19",
                     "fixtures/coloring_mutation.lp"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == report.human_lines()[-1]


def test_shipped_mutants_all_killed():
    configs = [
        ("coloring_mutation.lp",
         ["deleteRule", "deleteLiteral", "addDefaultNegation", "swapTerms",
          "renamePredicates"], 3),
        ("hamiltonian_mutation.lp", list(OPERATOR_KINDS), 19),
    ]
    for name, kinds, seed in configs:
        unit = parse_unit(name, fixture_text(name))
        base = mutation_base_program(unit)
        mutants = generate_mutants(base, kinds, 8, seed=seed)
        report = mutation_analysis(unit, mutants, BACKEND)
        assert report.baseline_passed
        assert report.all_killed(), [o.mutant.describe_ops() for o in report.outcomes
                                     if o.status != "killed"]


def test_parallel_mutation_analysis_matches_serial():
    # the internal engine decides every mutant on this thread at any --jobs
    unit = parse_unit("hamiltonian_mutation.lp", fixture_text("hamiltonian_mutation.lp"))
    mutants = generate_mutants(mutation_base_program(unit), OPERATOR_KINDS, 8, seed=19)
    serial = untimed(mutation_analysis(unit, mutants, BACKEND, jobs=1).to_json_dict())
    for jobs in (2, 4):
        report = mutation_analysis(unit, mutants, BACKEND, jobs=jobs)
        assert untimed(report.to_json_dict()) == serial


def test_refused_mutant_assertions_are_retried_on_the_solver():
    # under auto, each assertion that the internal engine refused on a
    # mutant runs again on the solver, and the mutant's tests and status
    # follow from the solver's verdicts
    unit = parse_unit("fixtures/coloring_mutation.lp", fixture_text("coloring_mutation.lp"))
    backend = AutoBackend(STUB)
    backend.internal = RefusesMutatedScopes(unit)
    mutants = generate_mutants(mutation_base_program(unit), OPERATOR_KINDS, 2, seed=19)
    reports = [mutation_analysis(unit, mutants, backend, jobs=jobs) for jobs in (1, 4)]
    assert untimed(reports[0].to_json_dict()) == untimed(reports[1].to_json_dict())
    baseline = reports[0].baseline
    for report in reports:
        assert report.baseline_passed and len(report.outcomes) == 2
        for outcome in report.outcomes:
            transform = _mutant_transform(unit, outcome.mutant)
            want = [run_test(spec, transform(test.program), ExternalBackend(STUB))
                    for spec, test in zip(unit.suite.tests, baseline.tests)]
            assert [[a.verdict for a in t.assertions] for t in outcome.tests] == \
                [[a.verdict for a in t.assertions] for t in want]
            assert [t.verdict for t in outcome.tests] == [t.verdict for t in want]
            assert all(t.verdict == Result.aggregate(t.assertions) for t in outcome.tests)
            assert outcome.killed_by == [f"{t.name}/{a.kind}" for t in outcome.tests
                                         for a in t.assertions if a.verdict == "fail"]
