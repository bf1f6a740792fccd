"""Abstract syntax of answer set programs and of the inline test annotations.

Everything in this module is an immutable value object: rules and programs are
frozen dataclasses that compare structurally (source spans are carried along
but never participate in equality), so two parses of the same text are equal
and safe to share across threads.

Terms are ordered: integers compare numerically, symbolic constants compare
lexicographically by byte, and every integer precedes every symbolic constant.
That total order is what the comparison builtins (`<`, `<=`, ...) use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union, get_args

# Comparison operators in canonical spelling. `<>` is accepted by the parser
# as an alias of `!=`.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

FRESH_PREFIX = "__tk_"


@dataclass(frozen=True)
class Span:
    """1-based source location of a statement or annotation."""

    path: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Integer:
    value: int


@dataclass(frozen=True)
class Constant:
    """Symbolic constant; starts with a lowercase letter (or underscores)."""

    name: str


@dataclass(frozen=True)
class Variable:
    """Variable; starts with an uppercase letter or an underscore run
    followed by an uppercase letter."""

    name: str


Term = Union[Integer, Constant, Variable]


def term_key(term: Term):
    """Sort key realising the total order on ground terms."""
    if isinstance(term, Integer):
        return (0, term.value, "")
    if isinstance(term, Constant):
        return (1, 0, term.name)
    raise ValueError(f"variable {term.name} has no ground order")


def term_text(term: Term) -> str:
    if isinstance(term, Integer):
        return str(term.value)
    return term.name


def is_ground_term(term: Term) -> bool:
    return not isinstance(term, Variable)


def compare_terms(op: str, left: Term, right: Term) -> bool:
    """Evaluate a ground comparison under the fixed term order."""
    lk, rk = term_key(left), term_key(right)
    if op == "=":
        return lk == rk
    if op == "!=":
        return lk != rk
    if op == "<":
        return lk < rk
    if op == "<=":
        return lk <= rk
    if op == ">":
        return lk > rk
    if op == ">=":
        return lk >= rk
    raise ValueError(f"unknown comparison operator {op!r}")


# ---------------------------------------------------------------------------
# Atoms and literals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def signature(self) -> tuple[str, int]:
        # p/1 and p/2 are distinct predicates.
        return (self.predicate, len(self.args))

    def is_ground(self) -> bool:
        return all(is_ground_term(t) for t in self.args)

    def variables(self) -> Iterator[str]:
        for t in self.args:
            if isinstance(t, Variable):
                yield t.name

    def sort_key(self):
        return (self.predicate, len(self.args), tuple(term_key(t) for t in self.args))


@dataclass(frozen=True)
class Comparison:
    op: str
    left: Term
    right: Term

    def variables(self) -> Iterator[str]:
        for t in (self.left, self.right):
            if isinstance(t, Variable):
                yield t.name


@dataclass(frozen=True)
class CountAggregate:
    """`#count{ t1,...,tn : condition } op guard`.

    Variables that occur only inside the braces are local to the aggregate;
    the guard term is always global.
    """

    terms: tuple[Term, ...]
    condition: Atom
    guard_op: str
    guard: Term

    def inner_variables(self) -> set[str]:
        names = {t.name for t in self.terms if isinstance(t, Variable)}
        names.update(self.condition.variables())
        return names

    def guard_variables(self) -> set[str]:
        return {self.guard.name} if isinstance(self.guard, Variable) else set()


Payload = Union[Atom, Comparison, CountAggregate]


@dataclass(frozen=True)
class Literal:
    payload: Payload
    negated: bool = False

    @property
    def atom(self) -> Atom:
        assert isinstance(self.payload, Atom)
        return self.payload

    def is_atom(self) -> bool:
        return isinstance(self.payload, Atom)

    def is_comparison(self) -> bool:
        return isinstance(self.payload, Comparison)

    def is_aggregate(self) -> bool:
        return isinstance(self.payload, CountAggregate)


# ---------------------------------------------------------------------------
# Rules, weak constraints, programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """Disjunctive rule `h1 | ... | hl :- b1, ..., bn.`

    A fact has an empty body, a constraint an empty head; at least one of the
    two parts must be nonempty.
    """

    head: tuple[Atom, ...] = ()
    body: tuple[Literal, ...] = ()
    origin: Optional[Span] = field(default=None, compare=False)

    def is_fact(self) -> bool:
        return not self.body and len(self.head) == 1

    def is_constraint(self) -> bool:
        return not self.head

    def positive_atoms(self) -> Iterator[Atom]:
        for lit in self.body:
            if lit.is_atom() and not lit.negated:
                yield lit.atom

    def negative_atoms(self) -> Iterator[Atom]:
        for lit in self.body:
            if lit.is_atom() and lit.negated:
                yield lit.atom


@dataclass(frozen=True)
class WeakConstraint:
    """Soft constraint `:~ body. [cost@level]` with nonnegative cost/level."""

    body: tuple[Literal, ...]
    cost: int
    level: int
    origin: Optional[Span] = field(default=None, compare=False)


class UnsafeRuleError(ValueError):
    """Raised when constructing a program from an unsafe rule."""

    def __init__(self, rule, unbound: set[str]):
        self.rule = rule
        self.unbound = unbound
        names = ", ".join(sorted(unbound))
        super().__init__(f"unsafe rule: variable(s) {names} not bound by a positive body atom")


def _body_safety_sets(body: tuple[Literal, ...]) -> tuple[set[str], set[str], set[str]]:
    """Return (binders, globals-from-body, aggregate-local names)."""
    binders: set[str] = set()
    body_globals: set[str] = set()
    locals_: set[str] = set()
    for lit in body:
        p = lit.payload
        if isinstance(p, Atom):
            names = set(p.variables())
            if lit.negated:
                body_globals |= names
            else:
                binders |= names
        elif isinstance(p, Comparison):
            body_globals |= set(p.variables())
        else:
            body_globals |= p.guard_variables()
            locals_ |= p.inner_variables()
    return binders, body_globals, locals_


def unbound_variables(head: tuple[Atom, ...], body: tuple[Literal, ...]) -> set[str]:
    """Variables violating safety: every global variable must occur in a
    positive body atom. Variables occurring only inside an aggregate's braces
    are local to it and exempt; comparison and guard variables are global."""
    binders, body_globals, locals_ = _body_safety_sets(body)
    head_vars: set[str] = set()
    for a in head:
        head_vars |= set(a.variables())
    globals_ = head_vars | body_globals
    # A brace-local name that also shows up outside the aggregate is global.
    globals_ |= locals_ & (binders | head_vars | body_globals)
    return globals_ - binders


def is_safe(rule: Rule) -> bool:
    return not unbound_variables(rule.head, rule.body)


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...] = ()
    weak_constraints: tuple[WeakConstraint, ...] = ()

    def __post_init__(self):
        for r in self.rules:
            if not r.head and not r.body:
                raise ValueError("rule with empty head and empty body")
            unbound = unbound_variables(r.head, r.body)
            if unbound:
                raise UnsafeRuleError(r, unbound)
        for w in self.weak_constraints:
            if not w.body:
                raise ValueError("weak constraint with empty body")
            if w.cost < 0 or w.level < 0:
                raise ValueError("weak constraint cost/level must be nonnegative")
            unbound = unbound_variables((), w.body)
            if unbound:
                raise UnsafeRuleError(w, unbound)

    def all_bodies(self) -> Iterator[tuple[Literal, ...]]:
        for r in self.rules:
            yield r.body
        for w in self.weak_constraints:
            yield w.body


def program_atoms(program: Program) -> Iterator[Atom]:
    """All atom occurrences, including aggregate conditions."""
    for r in program.rules:
        yield from r.head
    for body in program.all_bodies():
        for lit in body:
            p = lit.payload
            if isinstance(p, Atom):
                yield p
            elif isinstance(p, CountAggregate):
                yield p.condition


def predicate_names(program: Program) -> set[str]:
    return {a.predicate for a in program_atoms(program)}


def signatures(program: Program) -> set[tuple[str, int]]:
    return {a.signature for a in program_atoms(program)}


def herbrand_universe(program: Program) -> set[Term]:
    """All constants of the program; `{a}` when there are none."""
    constants: set[Term] = set()

    def collect(term: Term):
        if not isinstance(term, Variable):
            constants.add(term)

    for atom in program_atoms(program):
        for t in atom.args:
            collect(t)
    for body in program.all_bodies():
        for lit in body:
            p = lit.payload
            if isinstance(p, Comparison):
                collect(p.left)
                collect(p.right)
            elif isinstance(p, CountAggregate):
                for t in p.terms:
                    collect(t)
                collect(p.guard)
    if not constants:
        constants.add(Constant("a"))
    return constants


def fresh_predicate(taken: set[str], stem: str) -> str:
    """Smallest `__tk_<stem>_<i>` not colliding with any name in `taken`."""
    i = 0
    while f"{FRESH_PREFIX}{stem}_{i}" in taken:
        i += 1
    return f"{FRESH_PREFIX}{stem}_{i}"


# ---------------------------------------------------------------------------
# Test annotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoAnswerSet:
    kind = "noAnswerSet"


@dataclass(frozen=True)
class TrueInAll:
    atoms: tuple[Atom, ...]
    kind = "trueInAll"


@dataclass(frozen=True)
class TrueInAtLeast:
    count: int
    atoms: tuple[Atom, ...]
    kind = "trueInAtLeast"
    min_count = 1  # number = 0 would be vacuously true


@dataclass(frozen=True)
class TrueInAtMost:
    count: int
    atoms: tuple[Atom, ...]
    kind = "trueInAtMost"


@dataclass(frozen=True)
class TrueInExactly:
    count: int
    atoms: tuple[Atom, ...]
    kind = "trueInExactly"


@dataclass(frozen=True)
class ConstraintForAll:
    constraint: Rule
    kind = "constraintForAll"


@dataclass(frozen=True)
class ConstraintInAtLeast:
    count: int
    constraint: Rule
    kind = "constraintInAtLeast"
    min_count = 1


@dataclass(frozen=True)
class ConstraintInAtMost:
    count: int
    constraint: Rule
    kind = "constraintInAtMost"


@dataclass(frozen=True)
class ConstraintInExactly:
    count: int
    constraint: Rule
    kind = "constraintInExactly"


@dataclass(frozen=True)
class BestModelCost:
    cost: int
    level: int
    kind = "bestModelCost"


Assertion = Union[
    NoAnswerSet,
    TrueInAll,
    TrueInAtLeast,
    TrueInAtMost,
    TrueInExactly,
    ConstraintForAll,
    ConstraintInAtLeast,
    ConstraintInAtMost,
    ConstraintInExactly,
    BestModelCost,
]

# Annotation name (`@trueInAll`, ...) -> assertion class, in declaration order.
ASSERTION_CLASSES = {cls.kind: cls for cls in get_args(Assertion)}
ASSERTION_KINDS = tuple(ASSERTION_CLASSES)


def assertion_predicates(assertion: Assertion) -> set[str]:
    """Predicate names occurring in an assertion payload."""
    names: set[str] = set()
    atoms = getattr(assertion, "atoms", ())
    for a in atoms:
        names.add(a.predicate)
    constraint = getattr(assertion, "constraint", None)
    if constraint is not None:
        for lit in constraint.body:
            p = lit.payload
            if isinstance(p, Atom):
                names.add(p.predicate)
            elif isinstance(p, CountAggregate):
                names.add(p.condition.predicate)
    return names


@dataclass(frozen=True)
class TestSpec:
    """One `@test(...)` annotation."""

    name: str
    scope: tuple[str, ...]
    asserts: tuple[Assertion, ...]
    program_files: tuple[str, ...] = ()
    input: str = ""
    input_files: tuple[str, ...] = ()
    origin: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class TestSuite:
    """Named rules, blocks and test specs harvested from one file set.

    Rules without a `@rule` annotation end up in `anonymous_rules`; they take
    part in whole-program runs but cannot be referenced from a test scope.
    """

    named_rules: dict[str, Rule] = field(default_factory=dict)
    blocks: dict[str, tuple[str, ...]] = field(default_factory=dict)
    tests: tuple[TestSpec, ...] = ()
    anonymous_rules: tuple[Rule, ...] = ()

    def is_empty(self) -> bool:
        return not (self.named_rules or self.blocks or self.tests or self.anonymous_rules)
