
import random
import re

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
    check_statements,
    compare_terms,
    fresh_predicate,
    herbrand_universe,
    is_safe,
    unbound_variables,
    unsafe_reason,
)
from helpers import atom, lit, random_guard_count_program, random_join_program


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


def _unsafe_by_definition(head, body) -> set[str]:
    """Safety as ASP-Core-2 defines it for this subset: head variables, the
    variables of negated atoms, comparisons and #count guards, and each
    #count's term variables missing from its condition are global; a
    global is safe when a positive body atom binds it."""
    globals_ = {v for a in head for v in a.variables()}
    binders: set[str] = set()
    for l in body:
        p = l.payload
        if isinstance(p, Atom):
            (globals_ if l.negated else binders).update(p.variables())
        elif isinstance(p, Comparison):
            globals_.update(p.variables())
        else:
            globals_.update(p.guard_variables())
            globals_.update({t.name for t in p.terms if isinstance(t, Variable)}
                            - set(p.condition.variables()))
    return globals_ - binders


def _count(terms: str, condition: Atom, op: str, guard) -> Literal:
    guard = Variable(guard) if isinstance(guard, str) else Integer(guard)
    return Literal(CountAggregate(tuple(Variable(t) for t in terms), condition, op, guard))


# (head, body) with #count terms that their conditions leave loose, and
# the names `unbound_variables` gives for each
HAND_WRITTEN_SAFETY = [
    ((), (_count("X", atom("p", "Y"), ">=", 3),), {"X"}),
    ((), (lit("d", "X"), _count("X", atom("p", "Y"), ">=", 3)), set()),
    ((atom("q", "Z"),), (_count("XW", atom("p", "Y"), ">=", 1),), {"W", "X", "Z"}),
    ((), (_count("X", atom("p", "Y"), ">=", "X"),), {"X"}),  # X is also the guard
    ((), (lit("p", "Y"), _count("Y", atom("q", "X"), ">=", 1)), set()),
    ((), (lit("p", "X", neg=True), _count("X", atom("q", "Y"), "=", 0)), {"X"}),
    ((), (_count("X", atom("p", "X"), "=", 0), _count("X", atom("q", "Y"), "=", 1)), {"X"}),
    ((atom("q", "W"),), (lit("d", "W"), _count("XY", atom("p", "Y"), "!=", "W")), {"X"}),
]


def _safety_cases():
    """(head, body, weight) of the statements of seeded join and guard
    programs, of each of them with one body literal left out, which may
    make it unsafe, and of `HAND_WRITTEN_SAFETY`, both as a rule and as a
    weak constraint where its head is empty; `weight` is None for a rule."""
    cases = []
    for seed in range(40):
        rng = random.Random(seed)
        for program in (random_join_program(rng), random_guard_count_program(rng)):
            for s in (*program.rules, *program.weak_constraints):
                weight = (s.cost, s.level) if isinstance(s, WeakConstraint) else None
                for i in range(-1, len(s.body)):
                    body = s.body if i < 0 else s.body[:i] + s.body[i + 1:]
                    if body or (s.head and weight is None):
                        cases.append((s.head, body, weight))
    for head, body, _ in HAND_WRITTEN_SAFETY:
        cases.append((head, body, None))
        if not head:
            cases.append((head, body, (1, 1)))
    return cases


def test_hand_written_loose_count_terms_are_unsafe_by_definition():
    for head, body, names in HAND_WRITTEN_SAFETY:
        assert _unsafe_by_definition(head, body) == names, (head, body)


def test_the_two_safety_views_agree():
    unsafe = 0
    for head, body, weight in _safety_cases():
        names = unbound_variables(head, body)
        assert names == _unsafe_by_definition(head, body), (head, body)
        reason = unsafe_reason(head, body, "are unbound")
        assert (reason == "") == (not names), (head, body, reason)
        # the reason names each unbound variable, and no other
        named = {v for group in re.findall(r"variable\(s\) ([\w, ]+?) (?:are|of) ", reason)
                 for v in group.split(", ")}
        assert named == names, (head, body, reason)
        statement = Rule(head, body) if weight is None else WeakConstraint(body, *weight)
        rules, weaks = ((statement,), ()) if weight is None else ((), (statement,))
        if names:
            unsafe += 1
            with pytest.raises(UnsafeRuleError) as exc:
                check_statements(rules, weaks)
            assert exc.value.unbound == names
        else:
            check_statements(rules, weaks)
    assert unsafe >= 50


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
