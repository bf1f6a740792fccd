import ast
import random
import re
import string
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from asp_testkit.model import (
    Atom,
    Comparison,
    Constant,
    ConstraintForAll,
    Integer,
    NoAnswerSet,
    Span,
    TrueInExactly,
    Variable,
    check_statements,
)
from asp_testkit.parser import (
    ParseFailure,
    _AnnotationParser,
    _file_offset,
    _Issue,
    _scan,
    merge_units,
    parse_assertion_list,
    parse_ground_atom,
    parse_unit,
    parse_unit_diagnostics,
    read_source,
)
from asp_testkit.serialize import rule_to_text, serialize_program
from helpers import (
    ReferenceAnnotationParser,
    atom,
    fixture_text,
    reference_parse_unit_diagnostics,
    reference_scan,
)


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


def test_a_comparison_may_have_a_constant_on_its_left():
    (_, rule) = parse_unit("t.lp", "p(1). q(X) :- p(X), a < X.").program.rules
    assert rule.body[1].payload == Comparison("<", Constant("a"), Variable("X"))
    assert rule_to_text(rule) == "q(X) :- p(X), a < X."


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


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_line_endings_read_as_lf(tmp_path, newline):
    lf = ('p(1). % a comment up to the line end\n'
          '%** @rule(name = "r") **%\nq(X) :- p(X).\n'
          '%** @test(name = "t", scope = {"r"}, input = "p(2).\np(3).",\n'
          '  assert = { @trueInAll(atoms = "q(3)") }) **%\n')
    path = tmp_path / "unit.lp"
    path.write_bytes(lf.replace("\n", newline).encode("utf-8"))
    assert read_source(str(path)) == lf
    assert parse_unit("unit.lp", read_source(str(path))) == parse_unit("unit.lp", lf)


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


def test_duplicate_test_names_rejected_at_the_second_test():
    text = ('%** @rule(name = "r") **%\np.\n'
            '%** @test(name = "t", scope = {"r"}, assert = {}) **%\n'
            '%** @test(name = "u", scope = {"r"}, assert = {})\n'
            '    @test(name = "t", scope = {"r"}, assert = {}) **%\n')
    unit, errors = parse_unit_diagnostics("t.lp", text)
    assert unit is None
    assert [e.render() for e in errors] == ["5:5: duplicate-name: duplicate test name 't'"]


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


def test_aggregate_term_outside_its_condition_is_unsafe():
    text = "d(1). d(2). d(3). p(1).\n:- #count{X : p(Y)} >= 3."
    _, errors = parse_unit_diagnostics("t.lp", text)
    assert [e.render("t.lp") for e in errors] == [
        "t.lp:2:1: safety: unsafe statement: variable(s) X of #count{X : p(Y)} "
        "do not occur in its condition"]


def test_safety_diagnostics_separate_unbound_globals_from_aggregate_terms():
    text = ('%** @test(name = "t", scope = {}, assert = { @constraintForAll(\n'
            '    constraint = ":- #count{X,W : p(Y)} >= Z.") }) **%\n'
            'p(1).\nq(Z) :- #count{X,W : p(Y)} >= 1.\n'
            'r(X) :- p(X), #count{X : p(Y)} >= 1.')
    _, errors = parse_unit_diagnostics("t.lp", text)
    # the last rule is safe: its X is a global bound by p(X)
    assert [e.render("t.lp") for e in errors] == [
        "t.lp:2:19: safety: unsafe constraint payload: variable(s) Z not bound by a "
        "positive body atom; variable(s) W, X of #count{X,W : p(Y)} do not occur in "
        "its condition",
        "t.lp:4:1: safety: unsafe statement: variable(s) Z do not occur in a positive "
        "body atom; variable(s) W, X of #count{X,W : p(Y)} do not occur in its condition"]


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


_TEST_OPEN = '%** @test(name = "t", scope = {"r"}, assert = { '
_TEST_CLOSE = ' }) **%\n%** @rule(name = "r") **%\np.'


@pytest.mark.parametrize("text, expected", [
    # program mode
    ("p.\n%* open", ["t.lp:2:1: lexical: unterminated comment (missing '*%')"]),
    ('%** @rule(name = "r")\np.',
     ["t.lp:1:1: lexical: unterminated annotation block (missing '**%')"]),
    ("#const n = 3.",
     ["t.lp:1:1: lexical: unsupported directive '#const' (only #count is accepted)"]),
    ("p($).", ["t.lp:1:3: lexical: unexpected character '$'"]),
    ("p(²).", ["t.lp:1:3: lexical: unexpected character '²'"]),
    # annotation mode
    ('%** @rule(name = $) **%\np.',
     ["t.lp:1:18: annotation: unexpected character '$' in annotation"]),
    ('%** @rule(name = ²) **%\np.',
     ["t.lp:1:18: annotation: unexpected character '²' in annotation"]),
    ('%** @rule(name = "r) **%\np.',
     ["t.lp:1:18: annotation: unterminated string in annotation"]),
    (_TEST_OPEN + '@trueInAtMost(number = -1, atoms = "a")' + _TEST_CLOSE,
     ["t.lp:1:72: annotation: attribute 'number' of @trueInAtMost must be nonnegative"]),
    ('%** @rule(name = "r") % note: %* opens nothing here\n **%\np.', []),
    # a payload is program text; its columns count each escape's two characters
    (_TEST_OPEN + '@trueInAll(atoms = "a. %* \\"q\\" *% b(.")' + _TEST_CLOSE,
     ["t.lp:1:86: annotation: expected a term, found '.'"]),
], ids=["unterminated comment", "unterminated block", "directive", "dollar",
        "superscript", "dollar in block", "superscript in block", "unterminated string",
        "negative number", "comment line in block", "payload after escapes"])
def test_lexing_diagnostics(text, expected):
    _, errors = parse_unit_diagnostics("t.lp", text)
    assert [e.render("t.lp") for e in errors] == expected


_LEX_MODES = {"program": {}, "program without annotations": {"collect_annotations": False},
              "annotation": {"annotation": True}}

# Pieces of the random lexer inputs, drawn group first: openers and closers
# of comments, blocks and strings, escapes, `\n` as two characters,
# directives, `not`, non-ASCII characters that `\w` takes ('é' may start a
# word, the digits '²' and '٣' may not), a vertical tab, which `\s` takes,
# `$`; every ASCII punctuation mark; letters of both cases; digits and blanks.
_LEX_PIECES = [
    ["%*", "%**", "**%", "*%", '"', '\\"', "\\\\", "\\n", "\n", "#count", "#show", "not",
     "²", "٣", "é", "\x0b", "$"],
    list(string.punctuation),
    list(string.ascii_letters),
    list(string.digits) + [" ", "_", "\t"],
]


def _lexed(scan, text: str, base: int, mode: dict):
    """Each token as (kind, value, offset), a string's value as its text and
    the file offset of each of its characters and of its closing quote; or
    the error as (message, offset, kind)."""
    try:
        tokens = scan(text, base, **mode)
    except _Issue as exc:
        return exc.message, exc.offset, exc.kind
    view = []
    for tok in tokens:
        value = tok.value
        if tok.kind == "str" and scan is _scan:
            value = (value[0], [_file_offset(value, i) for i in range(len(value[0]) + 1)])
        view.append((tok.kind, value, tok.offset))
    return view


def _corpus_texts() -> list[str]:
    """Every fixture and every string constant of the test files."""
    root = Path(__file__).resolve().parent.parent
    texts = [p.read_text(encoding="utf-8") for p in sorted((root / "fixtures").glob("*.lp"))]
    for path in sorted((root / "tests").glob("*.py")):
        texts += [node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return texts


def _lexer_corpus() -> list[str]:
    """The corpus texts and every annotation body in them."""
    texts = _corpus_texts()
    return texts + [m.group(1) for text in texts
                    for m in re.finditer(r"%\*\*(.*?)\*\*%", text, re.S)]


def _random_lexer_input(rng: random.Random) -> str:
    # punctuation is drawn least: most marks end the scan with an error
    return "".join(rng.choice(rng.choices(_LEX_PIECES, (3, 1, 3, 3))[0])
                   for _ in range(rng.randint(0, 24)))


def _lexers_agree(texts, seen: Counter):
    for n, text in enumerate(texts):
        base = n % 5
        for name, mode in _LEX_MODES.items():
            new = _lexed(_scan, text, base, mode)
            assert new == _lexed(reference_scan, text, base, mode), (name, text)
            if isinstance(new, tuple):
                seen[name, new[0]] += 1
                continue
            seen[name, "tokens"] += 1
            # a string with escapes is longer in the file than its text
            seen[name, "escapes"] += any(kind == "str" and value[1][-1] - offset > len(value[0]) + 1
                                         for kind, value, offset in new)


def test_lexer_matches_the_reference():
    """The two patterns give the reference loop's tokens, values, offsets
    and errors in program text, program text without annotation tokens
    and annotation text, over the corpus and seeded random strings."""
    corpus = _lexer_corpus()
    rng = random.Random(21)
    seen = Counter()
    _lexers_agree(corpus + [_random_lexer_input(rng) for _ in range(20000)], seen)
    assert len(corpus) > 1000
    # the random strings reach every error, and the characters that `\w`
    # takes but a word may not start with
    for name, mode in _LEX_MODES.items():
        assert seen[name, "tokens"] > 1000, name
        where = " in annotation" if "annotation" in mode else ""
        for ch in ("²", "٣", "$"):
            assert seen[name, f"unexpected character {ch!r}{where}"], (name, ch)
    assert seen["program", "unterminated comment (missing '*%')"]
    assert seen["program", "unterminated annotation block (missing '**%')"]
    assert seen["program", "unsupported directive '#show' (only #count is accepted)"]
    assert seen["annotation", "unterminated string in annotation"]
    assert seen["annotation", "escapes"] > 10


def _block(body):
    return f"%** {body} **%\np."


def _in_test(assertion):
    return _TEST_OPEN + assertion + _TEST_CLOSE


# One rendered case per error path of the annotation reader.
@pytest.mark.parametrize("text, expected", [
    (_block('@fact(name = "r")'),
     ["t.lp:1:5: annotation: unknown annotation @fact (expected @rule, @block or @test)"]),
    (_block('@ (name = "r")'),
     ["t.lp:1:7: annotation: expected an annotation name after '@', found '('"]),
    (_block('rule(name = "r")'),
     ["t.lp:1:5: annotation: expected '@' to start an annotation, found 'rule'"]),
    (_block('@rule name = "r"'),
     ["t.lp:1:11: syntactic: expected '(' after @rule, found 'name'"]),
    (_block('@rule(nam = "r")'),
     ["t.lp:1:11: annotation: unknown attribute 'nam' for @rule"]),
    (_block('@rule(name = "r", name = "s")'),
     ["t.lp:1:23: annotation: duplicate attribute 'name' for @rule"]),
    (_block('@rule(name "r")'),
     ["t.lp:1:16: annotation: expected '=' after 'name', found \"r\""]),
    (_block('@rule(name "say \\"hi\\"")'),
     ["t.lp:1:16: annotation: expected '=' after 'name', found \"say \\\"hi\\\"\""]),
    (_block('@rule("x")'),
     ["t.lp:1:11: annotation: expected an attribute name in @rule, found \"x\""]),
    (_block('@rule(name = 3)'),
     ["t.lp:1:18: annotation: attribute 'name' of @rule must be a string"]),
    (_block('@rule(name = {"r"})'),
     ["t.lp:1:18: annotation: attribute 'name' of @rule must be a string"]),
    (_block('@block(name = "b", rules = "r")'),
     ["t.lp:1:32: syntactic: expected '{' to open the 'rules' list, found \"r\""]),
    (_block('@block(name = "b", rules = {"r", 3})'),
     ["t.lp:1:38: annotation: the 'rules' list may only contain strings"]),
    (_block('@test(name = "t", scope = {"r"}, assert = {"a"})'),
     ["t.lp:1:48: annotation: the 'assert' list may only contain @assertions"]),
    (_block('@block(name = "b", rules = {"r" "s"})'),
     ["t.lp:1:37: syntactic: expected '}' to close the 'rules' list, found \"s\""]),
    (_block('@rule(block = "b")'),
     ["t.lp:1:6: annotation: @rule is missing required attribute(s): name"]),
    (_block('@test(input = "p.")'),
     ["t.lp:1:6: annotation: @test is missing required attribute(s): assert, name, scope"]),
    (_block('@test(name = "t", scope = {}, assert = {})'),
     ["t.lp:1:23: annotation: a test needs a nonempty scope"]),
    (_block('@rule(name = "r"'),
     ["t.lp:1:22: annotation: expected an attribute name in @rule, found end of input"]),
    (_in_test('@trueInSome(number = 1, atoms = "p")'),
     ["t.lp:1:50: annotation: unknown assertion @trueInSome"]),
    (_in_test('@ (atoms = "p")'),
     ["t.lp:1:51: annotation: expected an assertion name after '@'"]),
    (_in_test('@trueInAll(atoms = "p", number = 1)'),
     ["t.lp:1:73: annotation: unknown attribute 'number' for @trueInAll"]),
    (_in_test('@trueInAll(atoms = "p", atoms = "p")'),
     ["t.lp:1:73: annotation: duplicate attribute 'atoms' for @trueInAll"]),
    (_in_test('@trueInAll(atoms "p")'),
     ["t.lp:1:66: annotation: expected '=' after 'atoms', found \"p\""]),
    (_in_test('@trueInAll(atoms = {"p"})'),
     ["t.lp:1:68: annotation: attribute 'atoms' of @trueInAll must be a string"]),
    (_in_test('@trueInAll(atoms = 1)'),
     ["t.lp:1:68: annotation: attribute 'atoms' of @trueInAll must be a string"]),
    (_in_test('@trueInAtMost(number = "1", atoms = "p")'),
     ["t.lp:1:72: annotation: attribute 'number' of @trueInAtMost must be an integer"]),
    (_in_test('@trueInAtMost(atoms = "p")'),
     ["t.lp:1:50: annotation: @trueInAtMost is missing required attribute(s): number"]),
    (_in_test('@trueInAll'),
     ["t.lp:1:50: annotation: @trueInAll is missing required attribute(s): atoms"]),
    (_in_test('@trueInAll(atoms = "p" =)'),
     ["t.lp:1:72: annotation: expected an attribute name in @trueInAll, found '='"]),
    (_in_test('@trueInAll("p")'),
     ["t.lp:1:60: annotation: expected an attribute name in @trueInAll, found \"p\""]),
    (_in_test('@constraintForAll(":- p.", ":- q.")'),
     ["t.lp:1:76: annotation: duplicate attribute 'constraint' for @constraintForAll"]),
    (_in_test('@constraintForAll(constraint = ":- p.", ":- q.")'),
     ["t.lp:1:89: annotation: duplicate attribute 'constraint' for @constraintForAll"]),
    (_in_test('@constraintForAll(":- p.", constraint = ":- q.")'),
     ["t.lp:1:76: annotation: duplicate attribute 'constraint' for @constraintForAll"]),
    # two errors: attributes are checked before payloads are parsed
    (_in_test('@constraintForAll(constraint = ":- not q(Y).", number = 1)'),
     ["t.lp:1:96: annotation: unknown attribute 'number' for @constraintForAll"]),
    (_in_test('@trueInAtLeast(number = 0, atoms = "p")'),
     ["t.lp:1:50: annotation: @trueInAtLeast needs number >= 1 "
      "(number = 0 would be vacuously true)"]),
    (_block('@test(name = "t", scope = {"r"}, assert = { @trueInAll(atoms = "p" })'),
     ["t.lp:1:72: annotation: expected an attribute name in @trueInAll, found '}'"]),
    (_in_test('@constraintForAll(":- p. :- q.")'),
     ["t.lp:1:74: annotation: a constraint payload must contain exactly one statement"]),
    ('%** @block(name = "b") **%\n%** @block(name = "b") **%\np.',
     ["t.lp:2:5: duplicate-name: duplicate block name 'b'"]),
    ('%** @block(name = "r") **%\n%** @rule(name = "r") **%\np.',
     ["t.lp:2:5: duplicate-name: 'r' is used both as a rule name and as a block name"]),
    ('%** @rule(name = "a", block = "b") **%\np.\n%** @rule(name = "b") **%\nq.\n'
     '%** @test(name = "t", scope = {"b"}, assert = { @trueInAll(atoms = "q") }) **%',
     ["t.lp:3:5: duplicate-name: 'b' is used both as a rule name and as a block name"]),
], ids=["unknown annotation", "no annotation name", "no at sign", "no parenthesis",
        "unknown attribute", "duplicate attribute", "missing equals",
        "missing equals before an escaped string", "string as attribute name",
        "integer for a string", "list for a string", "string for a list",
        "integer in a string list", "string in the assert list", "unclosed list",
        "missing required", "missing several required", "empty scope",
        "unclosed attributes", "unknown assertion", "no assertion name",
        "assertion unknown attribute", "assertion duplicate attribute",
        "assertion missing equals", "assertion list value",
        "assertion integer for a string", "assertion string for an integer",
        "assertion missing required", "assertion without parentheses",
        "assertion unexpected token", "positional string not taken",
        "duplicate positional constraint", "positional after keyword constraint",
        "keyword constraint after positional",
        "unknown attribute before an unsafe payload", "vacuous number",
        "unclosed assertion", "two statements in a constraint payload",
        "duplicate block name", "rule name as block name",
        "rule name as claimed block name"])
def test_annotation_diagnostics(text, expected):
    _, errors = parse_unit_diagnostics("t.lp", text)
    assert [e.render("t.lp") for e in errors] == expected


@pytest.mark.parametrize("text, expected", [
    ('@constraintForAll("   :- q(.")', "1:28: annotation: expected a term, found '.'"),
    ('@constraintForAll("\n\n  :- q(.")', "3:8: annotation: expected a term, found '.'"),
], ids=["spaces", "newlines"])
def test_constraint_payload_columns_count_leading_whitespace(text, expected):
    with pytest.raises(ParseFailure) as exc:
        parse_assertion_list(text)
    assert [e.render() for e in exc.value.errors] == [expected]


# Errors that the two readers `parser._AnnotationParser` replaced worded or
# placed differently: (old message, new message) regexes, where {0}, {1}
# stand for the old message's groups.
_REWORDED = [
    (r"attribute ('\w+') expects a string value", r"attribute {0} of @\w+ must be a string"),
    (r"attribute ('\w+') expects a string or integer",
     r"attribute {0} of @\w+ must be (a string|an integer)"),
    (r"expected '=' after ('\w+')", r"expected '=' after {0}, found .+"),
    (r"unexpected (.+) in (@\w+)", r"expected an attribute name in {1}, found {0}"),
    (r"(@\w+) does not take a positional string", r'expected an attribute name in {0}, found ".*"'),
    (r"duplicate constraint for (@\w+)", r"duplicate attribute 'constraint' for {0}"),
    (r"(@\w+) is missing the mandatory '(\w+)' attribute",
     r"{0} is missing required attribute\(s\): (\w+, )*{1}(, \w+)*"),
    # same words, reported at the annotation's name and at the attribute's key
    (r"(@\w+ is missing required attribute\(s\): .+)", r"{0}"),
    (r"(unknown attribute '\w+' for @\w+)", r"{0}"),
]


def _reworded(old: str, new: str) -> bool:
    for old_pattern, new_pattern in _REWORDED:
        m = re.fullmatch(old_pattern, old)
        if m and re.fullmatch(new_pattern.format(*map(re.escape, m.groups())), new):
            return True
    return False


def _annotation_corpus() -> list:
    """Every annotation block of the fixtures and of the test files' string
    constants, as (text, body start, body end, leading blank, pieces): a
    piece is one token with the blanks and comments after it."""
    corpus = []
    for text in _corpus_texts():
        for m in re.finditer(r"%\*\*(.*?)\*\*%", text, re.S):
            body = m.group(1)
            try:
                offsets = [tok.offset for tok in _scan(body, annotation=True)]
            except _Issue:
                continue
            corpus.append((text, m.start(1), m.end(1), body[:offsets[0]],
                           [body[a:b] for a, b in zip(offsets, offsets[1:])]))
    return corpus


def _token_edits(rng: random.Random, pieces: list, pool: list) -> str:
    """One to three edits: delete, duplicate, swap with the next, replace
    with a token of `pool`, or insert one."""
    pieces = list(pieces)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(pieces) + 1)
        op = rng.choice(("delete", "duplicate", "swap", "replace", "insert"))
        if op == "insert" or i == len(pieces):
            pieces.insert(i, rng.choice(pool))
        elif op == "delete":
            del pieces[i]
        elif op == "duplicate":
            pieces.insert(i, pieces[i])
        elif op == "replace":
            pieces[i] = rng.choice(pool)
        else:
            pieces[i:i + 2] = pieces[i:i + 2][::-1]
    return "".join(pieces)


def _read(reader, body: str, base: int):
    try:
        return reader(body, base).parse_all()
    except _Issue as exc:
        return exc


def _suite_view(parse, text: str):
    unit, errors = parse("t.lp", text)
    if unit is None:
        return [e.render() for e in errors]
    suite = unit.suite
    return suite.tests, [t.origin for t in suite.tests], suite.named_rules, suite.blocks


def test_annotation_reader_matches_the_reference():
    """20000 seeded token edits of the corpus's blocks. Both readers accept
    or reject each edited block alike, and a rejection keeps its kind. An
    accepted block is parsed in its file by the current and the reference
    unit parser, which give equal tests, named rules, blocks or errors. A
    rejection's message and position differ only where the old readers
    worded an error differently (`_REWORDED`) or, on input with several
    errors, where another one is now reported first."""
    corpus = _annotation_corpus()
    pool = [piece for *_, pieces in corpus for piece in pieces]
    rng = random.Random(13)
    seen = Counter()
    for n in range(20000):
        text, start, end, blank, pieces = corpus[n % len(corpus)]
        body = blank + _token_edits(rng, pieces, pool)
        old = _read(ReferenceAnnotationParser, body, start)
        new = _read(_AnnotationParser, body, start)
        if not isinstance(old, _Issue) and not isinstance(new, _Issue):
            edited = text[:start] + body + text[end:]
            assert _suite_view(parse_unit_diagnostics, edited) == \
                _suite_view(reference_parse_unit_diagnostics, edited), edited
            seen["accepted"] += 1
            continue
        assert isinstance(old, _Issue) and isinstance(new, _Issue), body
        assert old.kind == new.kind, body
        if (old.message, old.offset) == (new.message, new.offset):
            seen["same error"] += 1
        elif _reworded(old.message, new.message):
            seen["reworded"] += 1
        else:
            seen["another error first"] += 1
    # every block of the corpus was edited, and each outcome occurred
    assert len(corpus) >= 80 and len(seen) == 4, seen


def _program_corpus() -> list:
    """The corpus texts that parse to a unit with statements, each as its
    pieces: one token with the blanks and comments after it (an annotation
    block is one token)."""
    corpus = []
    for text in _corpus_texts():
        unit, _ = parse_unit_diagnostics("t.lp", text)
        if unit is not None and (unit.program.rules or unit.program.weak_constraints):
            offsets = [tok.offset for tok in _scan(text)][1:-1]  # without eof
            corpus.append([text[:offsets[0]]] + [text[a:b] for a, b in
                                                  zip(offsets, offsets[1:] + [len(text)])])
    return corpus


def test_every_unit_the_parser_accepts_passes_check_statements():
    """A parsed unit's program is built without checking its statements
    again (`Program.of_checked`), so the parser's own checks must cover
    `check_statements`: every unit it accepts passes it, over the corpus
    texts, 20000 seeded token edits of them and the lexer fuzz's seeded
    random strings."""
    corpus = _program_corpus()
    pool = [piece for pieces in corpus for piece in pieces]
    rng = random.Random(17)
    texts = ["".join(pieces) for pieces in corpus]
    texts += [_token_edits(rng, corpus[n % len(corpus)], pool) for n in range(20000)]
    lexer_rng = random.Random(21)
    texts += [_random_lexer_input(lexer_rng) for _ in range(20000)]
    seen = Counter()
    for text in texts:
        unit, errors = parse_unit_diagnostics("t.lp", text)
        if unit is None:
            seen["rejected"] += 1
            continue
        check_statements(unit.program.rules, unit.program.weak_constraints)
        seen["rules"] += bool(unit.program.rules)
        seen["weak constraints"] += bool(unit.program.weak_constraints)
        seen["negated"] += any(lit.negated for r in unit.program.rules for lit in r.body)
    # the edits reach rejected and accepted units, with every kind of statement
    assert len(corpus) >= 150 and min(seen.values()) >= 60, seen


def test_recovery_reports_multiple_errors():
    _, errors = parse_unit_diagnostics("t.lp", "p(. \n q(. \n r(X) :- not s(X).")
    assert len(errors) >= 3


@pytest.mark.parametrize("text, expected", [
    ("p(.\nq.", ["1:3: syntactic: expected a term, found '.'"]),
    # the weight after the failed body is skipped with it, not read as a
    # statement of its own
    (":~ p(. [1@1]\nq.", ["1:6: syntactic: expected a term, found '.'"]),
    ("p(1). :- #count{X : p(X)}.\nq.", ["1:26: syntactic: a #count aggregate needs a guard "
                                       "on its right-hand side (e.g. '= 0'), found '.'"]),
], ids=["rule", "weak constraint", "count without guard"])
def test_recovery_resumes_after_the_failed_statement(text, expected):
    _, errors = parse_unit_diagnostics("t.lp", text)
    assert [e.render() for e in errors] == expected


def test_multiple_units_share_a_namespace():
    a = parse_unit("a.lp", '%** @rule(name = "r1") **%\np(1).')
    b = parse_unit("b.lp", '%** @test(name = "t", scope = {"r1"},'
                           ' assert = { @trueInExactly(number = 1, atoms = "p(1)") }) **%')
    merged = merge_units([a, b])
    assert "r1" in merged.suite.named_rules
    assert len(merged.suite.tests) == 1


def test_test_origin_is_the_span_of_its_at_sign():
    text = ('%** @rule(name = "r") **%\np.\n'
            '%** @test(name = "a", scope = {"r"}, assert = { @noAnswerSet })\n'
            '  @test(name = "b", scope = {"r"}, assert = { @noAnswerSet }) **%\n')
    a, b = parse_unit("sub/t.lp", text).suite.tests
    assert a.origin == Span("sub/t.lp", 3, 5)
    assert b.origin == Span("sub/t.lp", 4, 3)
    merged = merge_units([parse_unit("x.lp", "q."), parse_unit("sub/t.lp", text)])
    assert [t.origin for t in merged.suite.tests] == [a.origin, b.origin]


def test_merge_rejects_duplicate_names_across_files():
    a = parse_unit("a.lp", '%** @block(name = "b1") **%\n%** @rule(name = "r1") **%\np(1).\n'
                           '%** @test(name = "t1", scope = {"r1"}, assert = {}) **%')
    for annotation, expected in (
            ('@rule(name = "r1")',
             "b.lp:2:1: duplicate-name: duplicate name 'r1' across the file set (in b.lp)"),
            ('@test(name = "t1", scope = {"r1"}, assert = {})',
             "b.lp:1:5: duplicate-name: duplicate name 't1' across the file set (in b.lp)"),
            # a block has no span of its own
            ('@block(name = "b1")',
             "b.lp: duplicate-name: duplicate name 'b1' across the file set (in b.lp)")):
        b = parse_unit("b.lp", f'%** {annotation} **%\nq(1).')
        with pytest.raises(ParseFailure) as exc:
            merge_units([a, b])
        assert [e.render() for e in exc.value.errors] == [expected]


def test_parse_ground_atom_for_solver_output():
    assert parse_ground_atom("p(1, 2).") == atom("p", 1, 2)
    assert parse_ground_atom("flag") == Atom("flag")


@pytest.mark.parametrize("text", ["p(1) q", "p(X)", "p(\u00b2)"])
def test_parse_ground_atom_raises_parse_failure(text):
    with pytest.raises(ParseFailure):
        parse_ground_atom(text)


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
