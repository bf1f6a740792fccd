import re

import pytest
from hypothesis import given, settings, strategies as st

from asp_testkit.model import (
    Atom,
    ConstraintForAll,
    Integer,
    NoAnswerSet,
    TrueInExactly,
)
from asp_testkit.parser import (
    ParseFailure,
    merge_units,
    parse_assertion_list,
    parse_ground_atom,
    parse_unit,
    parse_unit_diagnostics,
)
from asp_testkit.serialize import rule_to_text, serialize_program
from helpers import atom, fixture_text


def test_empty_input_gives_empty_unit():
    unit = parse_unit("empty.lp", "")
    assert unit.program.rules == ()
    assert unit.suite.is_empty()


def test_figure_coloring_unit():
    unit = parse_unit("coloring.lp", fixture_text("coloring.lp"))
    assert set(unit.suite.named_rules) == {"r1", "r2"}
    assert unit.suite.blocks == {"ToTest": ("r1", "r2")}
    assert len(unit.suite.anonymous_rules) == 6
    (test,) = unit.suite.tests
    assert test.name == "checkColors"
    assert test.scope == ("ToTest",)
    assert len(test.asserts) == 2
    first, second = test.asserts
    assert first == TrueInExactly(2, (atom("col", 1, "red"),))
    assert second == TrueInExactly(1, (atom("col", 1, "red"), atom("col", 2, "blue")))


def test_figure_hamiltonian_unit():
    unit = parse_unit("ham.lp", fixture_text("hamiltonian_bug.lp"))
    assert len(unit.suite.named_rules) == 6
    assert set(unit.suite.blocks) == {"hamCycle"}
    assert len(unit.suite.blocks["hamCycle"]) == 6
    (test,) = unit.suite.tests
    assert len(test.asserts) == 1
    assert isinstance(test.asserts[0], ConstraintForAll)
    input_program = parse_unit("in.lp", test.input).program
    assert len(input_program.rules) == 10
    assert all(r.is_fact() for r in input_program.rules)


def test_rule_head_disjunction_and_body():
    unit = parse_unit("t.lp", "a | b :- c, not d, 1 < 2.")
    (rule,) = unit.program.rules
    assert [a.predicate for a in rule.head] == ["a", "b"]
    assert len(rule.body) == 3


def test_weak_constraint_parses_cost_and_level():
    unit = parse_unit("t.lp", "p(1). :~ p(X). [3@2]")
    (wc,) = unit.program.weak_constraints
    assert (wc.cost, wc.level) == (3, 2)


def test_negative_integers_round_trip():
    unit = parse_unit("t.lp", "p(-3).")
    (rule,) = unit.program.rules
    assert rule.head[0].args == (Integer(-3),)
    assert rule_to_text(rule) == "p(-3)."


def test_underscore_leading_names_are_constants():
    unit = parse_unit("t.lp", "__tk_fail_0 :- p. p.")
    preds = {r.head[0].predicate for r in unit.program.rules}
    assert "__tk_fail_0" in preds


def test_inequality_aliases():
    a = parse_unit("t.lp", "q(1). q(2). :- q(X), q(Y), X <> Y.").program
    b = parse_unit("t.lp", "q(1). q(2). :- q(X), q(Y), X != Y.").program
    assert a == b


def test_serialize_disjunctive_fact():
    from asp_testkit.model import Program, Rule
    program = Program((Rule((Atom("a"), Atom("b")), ()),))
    assert serialize_program(program) == "a | b.\n"


def test_serialize_weak_constraint():
    unit = parse_unit("t.lp", "col(1,red). preferablyRed(1).\n"
                              ":~ not col(X,red), preferablyRed(X). [1@1]")
    (wc,) = unit.program.weak_constraints
    from asp_testkit.serialize import weak_constraint_to_text
    assert weak_constraint_to_text(wc) == \
        ":~ not col(X,red), preferablyRed(X). [1@1]"


@pytest.mark.parametrize("name", ["coloring.lp", "hamiltonian_bug.lp",
                                  "coloring_pref.lp", "coloring_mutation.lp",
                                  "hamiltonian_mutation.lp"])
def test_round_trip_fixture_programs(name):
    unit = parse_unit(name, fixture_text(name))
    text = serialize_program(unit.program)
    again = parse_unit(name + "<rt>", text)
    assert again.program == unit.program


def test_annotations_are_inert_for_execution():
    text = fixture_text("coloring.lp")
    stripped = re.sub(r"%\*\*.*?\*\*%", "", text, flags=re.S)
    assert parse_unit("a.lp", text).program == parse_unit("b.lp", stripped).program
    assert parse_unit("b.lp", stripped).suite.tests == ()


def test_plain_comments_are_skipped():
    unit = parse_unit("t.lp", "p. % trailing comment\n%* block\ncomment *%\nq.")
    assert len(unit.program.rules) == 2


def test_block_comment_with_at_is_not_an_annotation():
    unit = parse_unit("t.lp", "%* @test(name=\"x\") *%\np.")
    assert unit.suite.tests == ()


def test_assertion_list_true_in_exactly():
    (a,) = parse_assertion_list('@trueInExactly(number = 2, atoms = "col(1, red).")')
    assert a == TrueInExactly(2, (atom("col", 1, "red"),))


def test_assertion_list_constraint_for_all_named_and_positional():
    (a,) = parse_assertion_list(
        '@constraintForAll(constraint = ":-node(X), #count{Y:inCycle(X,Y)}=0.")')
    (b,) = parse_assertion_list(
        '@constraintForAll(":-node(X), #count{Y:inCycle(X,Y)}=0.")')
    assert isinstance(a, ConstraintForAll)
    assert a == b
    assert a.constraint.is_constraint()


def test_assertion_list_no_answer_set():
    (a,) = parse_assertion_list("@noAnswerSet")
    assert a == NoAnswerSet()


def test_assertion_unknown_name_rejected():
    with pytest.raises(ParseFailure):
        parse_assertion_list("@trueInSome(number=1, atoms=\"a\")")


def test_assertion_non_ground_atoms_rejected():
    with pytest.raises(ParseFailure) as exc:
        parse_assertion_list('@trueInAll(atoms = "col(X, red)")')
    assert "ground" in str(exc.value)


def test_assertion_missing_number_rejected():
    with pytest.raises(ParseFailure) as exc:
        parse_assertion_list('@trueInAtLeast(atoms = "a")')
    assert "number" in str(exc.value)


def test_assertion_at_least_zero_rejected():
    with pytest.raises(ParseFailure):
        parse_assertion_list('@trueInAtLeast(number = 0, atoms = "a")')


def test_unknown_attribute_is_an_error():
    _, errors = parse_unit_diagnostics("t.lp", '%** @rule(nam = "r1") **%\np.')
    assert errors and errors[0].kind == "annotation"


def test_escaped_quotes_in_attribute_strings():
    unit = parse_unit("t.lp", '%** @test(name = "say \\"hi\\"", scope = {"r"},\n'
                              '  assert = { @noAnswerSet }) **%\n'
                              '%** @rule(name = "r") **%\np.')
    assert unit.suite.tests[0].name == 'say "hi"'


def test_rule_annotation_must_precede_a_rule():
    _, errors = parse_unit_diagnostics("t.lp", '%** @rule(name = "r1") **%\n')
    assert errors and errors[0].kind == "annotation"
    _, errors = parse_unit_diagnostics(
        "t.lp", '%** @rule(name = "r1") **%\n%** @block(name = "b") **%\np.')
    assert errors and "followed by a rule" in errors[0].message


def test_rule_annotation_on_weak_constraint_is_an_error():
    _, errors = parse_unit_diagnostics(
        "t.lp", 'p(1).\n%** @rule(name = "w") **%\n:~ p(X). [1@0]')
    assert errors and errors[0].kind == "annotation"


def test_duplicate_rule_names_rejected():
    _, errors = parse_unit_diagnostics(
        "t.lp", '%** @rule(name = "r") **%\np.\n%** @rule(name = "r") **%\nq.')
    assert any(e.kind == "duplicate-name" for e in errors)


def test_block_rule_conflict_rejected():
    text = ('%** @block(name = "b2", rules = {"r"}) **%\n'
            '%** @rule(name = "r", block = "b1") **%\np.\n')
    _, errors = parse_unit_diagnostics("t.lp", text)
    assert any(e.kind == "duplicate-name" for e in errors)


def test_block_listing_unknown_rule_rejected():
    _, errors = parse_unit_diagnostics(
        "t.lp", '%** @block(name = "b", rules = {"ghost"}) **%\np.')
    assert any(e.kind == "dangling-reference" for e in errors)


def test_unsafe_rule_reported_with_kind_safety():
    _, errors = parse_unit_diagnostics("t.lp", "p(X) :- not q(X).")
    assert errors and errors[0].kind == "safety"


def test_error_positions_inside_text():
    bad_texts = [
        "p(X :- q(X).",
        "p. q(.",
        ":- .",
        "%** @test(name) **%",
        "p. r(1) :- . q.",
        '%** @rule(name = 3) **%\np.',
    ]
    for text in bad_texts:
        _, errors = parse_unit_diagnostics("t.lp", text)
        assert errors, text
        lines = text.split("\n")
        for e in errors:
            assert 1 <= e.line <= len(lines)
            assert 1 <= e.column <= len(lines[e.line - 1]) + 1


def test_recovery_reports_multiple_errors():
    _, errors = parse_unit_diagnostics("t.lp", "p(. \n q(. \n r(X) :- not s(X).")
    assert len(errors) >= 3


def test_multiple_units_share_a_namespace():
    a = parse_unit("a.lp", '%** @rule(name = "r1") **%\np(1).')
    b = parse_unit("b.lp", '%** @test(name = "t", scope = {"r1"},'
                           ' assert = { @trueInExactly(number = 1, atoms = "p(1)") }) **%')
    merged = merge_units([a, b])
    assert "r1" in merged.suite.named_rules
    assert len(merged.suite.tests) == 1


def test_merge_rejects_duplicate_names_across_files():
    a = parse_unit("a.lp", '%** @rule(name = "r1") **%\np(1).')
    b = parse_unit("b.lp", '%** @rule(name = "r1") **%\nq(1).')
    with pytest.raises(ParseFailure):
        merge_units([a, b])


def test_parse_ground_atom_for_solver_output():
    assert parse_ground_atom("p(1, 2).") == atom("p", 1, 2)
    assert parse_ground_atom("flag") == Atom("flag")


def test_round_trip_random_programs():
    import random
    from helpers import random_program
    rng = random.Random(2024)
    for _ in range(80):
        program = random_program(rng)
        text = serialize_program(program)
        assert parse_unit("<rt>", text).program == program


# Grammar characters plus '²', which `str.isdigit` accepts but `int` rejects.
FUZZ_TEXT = st.text(alphabet='pX_1\u00b2-().,:|#{}=<@" \n%*', max_size=40)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FUZZ_TEXT)
def test_parse_unit_diagnostics_never_raises(text):
    unit, errors = parse_unit_diagnostics("fuzz.lp", text)
    assert (unit is None) == bool(errors)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FUZZ_TEXT)
def test_parse_assertion_list_raises_only_parse_failure(text):
    try:
        parse_assertion_list(text)
    except ParseFailure:
        pass
