
import pytest
from hypothesis import given, strategies as st

from asp_testkit.model import (
    Atom,
    Comparison,
    Constant,
    CountAggregate,
    Integer,
    Literal,
    Program,
    Rule,
    UnsafeRuleError,
    Variable,
    WeakConstraint,
    compare_terms,
    fresh_predicate,
    herbrand_universe,
    is_safe,
)
from helpers import atom, lit


def test_term_order_integers_numeric():
    assert compare_terms("<", Integer(2), Integer(10))
    assert not compare_terms("<", Integer(10), Integer(2))
    assert compare_terms("=", Integer(-3), Integer(-3))


def test_term_order_constants_lexicographic():
    assert compare_terms("<", Constant("apple"), Constant("banana"))
    assert compare_terms(">=", Constant("b"), Constant("b"))


def test_term_order_integers_precede_constants():
    assert compare_terms("<", Integer(999), Constant("a"))
    assert compare_terms("!=", Integer(1), Constant("1"))


def test_is_safe_positive_binding():
    r = Rule((atom("p", "X"),), (lit("q", "X"),))
    assert is_safe(r)


def test_is_safe_negative_only_is_unsafe():
    r = Rule((atom("p", "X"),), (lit("q", "X", neg=True),))
    assert not is_safe(r)


def test_is_safe_comparison_does_not_bind():
    from asp_testkit.model import Comparison
    r = Rule((), (lit("p", "X"),
                  Literal(Comparison("!=", Variable("X"), Variable("Y")))))
    assert not is_safe(r)


def test_aggregate_local_variables_are_exempt():
    from asp_testkit.parser import parse_unit
    unit = parse_unit("t.lp", "p(1). :- p(X), #count{Y : q(X,Y)} = 0.")
    assert len(unit.program.rules) == 2


def test_aggregate_guard_variable_must_be_bound():
    from asp_testkit.parser import parse_unit, ParseFailure
    with pytest.raises(ParseFailure) as exc:
        parse_unit("t.lp", "p(1). :- p(X), #count{Y : q(X,Y)} = N.")
    assert any(e.kind == "safety" for e in exc.value.errors)


def test_program_rejects_unsafe_rule():
    with pytest.raises(UnsafeRuleError):
        Program((Rule((atom("p", "X"),), (lit("q", "Y"),)),))


def test_program_rejects_aggregate_term_outside_its_condition():
    # `d(1). d(2). d(3). p(1). :- #count{X : p(Y)} >= 3.`: X would range over
    # every constant, so the constraint would hold and kill every model
    loose = Literal(CountAggregate((Variable("X"),), atom("p", "Y"), ">=", Integer(3)))
    facts = tuple(Rule((atom(pred, i),)) for pred, i in [("d", 1), ("d", 2), ("d", 3), ("p", 1)])
    with pytest.raises(UnsafeRuleError) as exc:
        Program(facts + (Rule((), (loose,)),))
    assert exc.value.unbound == {"X"}
    with pytest.raises(UnsafeRuleError):
        Program(facts, (WeakConstraint((loose,), 1, 1),))
    # bound outside the braces, X is a global and the aggregate is safe
    Program(facts + (Rule((), (lit("d", "X"), loose)),))


def test_unsafe_rule_error_names_the_aggregate_condition():
    loose = Literal(CountAggregate((Variable("X"),), atom("p", "Y"), ">=", Integer(3)))
    with pytest.raises(UnsafeRuleError) as exc:
        Program((Rule((atom("q", "Z"),), (loose,)),))
    assert exc.value.unbound == {"X", "Z"}
    assert str(exc.value) == (
        "unsafe rule: variable(s) Z not bound by a positive body atom; "
        "variable(s) X of #count{X : p(Y)} do not occur in its condition")


NEGATED_NON_ATOMS = {
    # `p(1). :- not 1 < 2.`: read as positive, the constraint kills every model
    "comparison": Literal(Comparison("<", Integer(1), Integer(2)), negated=True),
    # `p(1). :- not #count{X : p(X)} >= 1.`
    "count": Literal(CountAggregate((Variable("X"),), atom("p", "X"), ">=", Integer(1)),
                     negated=True),
}


@pytest.mark.parametrize("payload", NEGATED_NON_ATOMS)
@pytest.mark.parametrize("statement", ["rule", "weak constraint"])
def test_program_rejects_negated_comparison_and_count(payload, statement):
    fact = Rule((atom("p", 1),))
    body = (NEGATED_NON_ATOMS[payload],)
    with pytest.raises(ValueError, match="only atoms can be negated"):
        if statement == "rule":
            Program((fact, Rule((), body)))
        else:
            Program((fact,), (WeakConstraint(body, 1, 1),))


def test_herbrand_universe_collects_constants():
    p = Program((Rule((atom("p", 1),), ()),
                 Rule((atom("q", "X"),), (lit("p", "X"),))))
    assert herbrand_universe(p) == {Integer(1)}


def test_herbrand_universe_defaults_to_a():
    p = Program((Rule((Atom("p"),), (Literal(Atom("q")),)),
                 Rule((Atom("q"),), ())))
    assert herbrand_universe(p) == {Constant("a")}


def test_herbrand_universe_coloring_constants():
    from asp_testkit.parser import parse_unit
    from helpers import fixture_text
    unit = parse_unit("coloring.lp", fixture_text("coloring.lp"))
    names = set()
    for t in herbrand_universe(unit.program):
        names.add(t.value if isinstance(t, Integer) else t.name)
    assert names == {1, 2, 3, "red", "blue", "green"}


def test_fresh_predicate_no_collision():
    assert fresh_predicate({"p", "q"}, "fail") == "__tk_fail_0"


def test_fresh_predicate_skips_taken():
    assert fresh_predicate({"__tk_fail_0"}, "fail") == "__tk_fail_1"


def test_fresh_predicate_empty_set():
    assert fresh_predicate(set(), "miss") == "__tk_miss_0"


@given(st.sets(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789",
                       min_size=1, max_size=14), max_size=40),
       st.sampled_from(["fail", "miss", "x"]))
def test_fresh_predicate_never_collides(taken, stem):
    assert fresh_predicate(taken, stem) not in taken


def test_rules_compare_modulo_origin():
    from asp_testkit.model import Span
    a = Rule((atom("p", 1),), (), origin=Span("x.lp", 1, 1))
    b = Rule((atom("p", 1),), (), origin=Span("y.lp", 9, 4))
    assert a == b
    assert hash(a) == hash(b)
