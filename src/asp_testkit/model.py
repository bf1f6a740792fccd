"""Abstract syntax of answer set programs and of the inline test annotations.

Everything in this module is an immutable value object: rules and programs are
frozen dataclasses that compare structurally (source spans are carried along
but never participate in equality), so two parses of the same text are equal
and safe to share across threads.

Terms are ordered: integers compare numerically, symbolic constants compare
lexicographically by byte, and every integer precedes every symbolic constant.
That total order is what the comparison builtins (`<`, `<=`, ...) use.

A weak constraint is a constraint with a weight (ASP-Core-2): its `head` is
the empty tuple, so code that reads a statement's head and body takes
rules and weak constraints alike. Safety is derived by one pass, `_unsafe`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union, get_args

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
    """Integer constant."""

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
    """Predicate applied to a tuple of terms, `p(t1, ..., tn)`."""

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
        return not any(isinstance(t, Variable) for t in self.args)

    def variables(self) -> Iterator[str]:
        for t in self.args:
            if isinstance(t, Variable):
                yield t.name

    def sort_key(self):
        return (self.predicate, len(self.args), tuple(term_key(t) for t in self.args))


def atom_to_text(atom: Atom) -> str:
    if not atom.args:
        return atom.predicate
    return f"{atom.predicate}({','.join(term_text(t) for t in atom.args)})"


@dataclass(frozen=True)
class Comparison:
    """Built-in comparison `left op right` in a rule body."""

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

    def guard_variables(self) -> set[str]:
        return {self.guard.name} if isinstance(self.guard, Variable) else set()


Payload = Union[Atom, Comparison, CountAggregate]


@dataclass(frozen=True)
class Literal:
    """Body element: an atom, comparison or `#count`, possibly under `not`."""

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


@dataclass(frozen=True)
class WeakConstraint:
    """Soft constraint `:~ body. [cost@level]` with nonnegative cost/level:
    a constraint with a weight, so its head is empty."""

    body: tuple[Literal, ...]
    cost: int
    level: int
    origin: Optional[Span] = field(default=None, compare=False)
    head = ()  # not a field: the head of every weak constraint is empty


class UnsafeRuleError(ValueError):
    """Raised when constructing a program from an unsafe rule."""

    def __init__(self, rule: Rule | WeakConstraint, unbound: set[str]):
        self.rule = rule
        self.unbound = unbound
        reason = unsafe_reason(rule.head, rule.body, "not bound by a positive body atom")
        super().__init__(f"unsafe rule: {reason}")


def _unsafe(head: tuple[Atom, ...], body: tuple[Literal, ...],
            ) -> tuple[set[str], list[tuple[CountAggregate, set[str]]]]:
    """The global variables no positive body atom binds, and each #count
    with its loose term variables: those missing from its condition that
    are neither bound nor among the unbound globals (only #counts that
    have some). Comparison and guard variables are global; a variable
    occurring only inside an aggregate's braces is local to it."""
    binders: set[str] = set()
    unbound = {v for a in head for v in a.variables()}
    aggregates: list[CountAggregate] = []
    for lit in body:
        p = lit.payload
        if isinstance(p, Atom):
            (unbound if lit.negated else binders).update(p.variables())
        elif isinstance(p, Comparison):
            unbound.update(p.variables())
        else:
            unbound |= p.guard_variables()
            aggregates.append(p)
    unbound -= binders
    loose = []
    for agg in aggregates:
        names = ({t.name for t in agg.terms if isinstance(t, Variable)}
                 - set(agg.condition.variables()) - binders - unbound)
        if names:
            loose.append((agg, names))
    return unbound, loose


def unbound_variables(head: tuple[Atom, ...], body: tuple[Literal, ...]) -> set[str]:
    """Variables violating safety: every global variable must occur in a
    positive body atom. Variables occurring only inside an aggregate's braces
    are local to it and exempt, provided each term variable occurs in the
    aggregate's condition; comparison and guard variables are global."""
    unbound, loose = _unsafe(head, body)
    # a loose term name is safe only as a global bound outside the aggregate
    return unbound.union(*(names for _, names in loose))


def unsafe_reason(head: tuple[Atom, ...], body: tuple[Literal, ...], unbound_phrase: str) -> str:
    """Why a statement is unsafe, "" when it is safe: the global variables no
    positive body atom binds, followed by `unbound_phrase`, then each
    aggregate's term variables that are missing from its condition and are
    not globals."""
    unbound, loose = _unsafe(head, body)
    reasons = [f"variable(s) {', '.join(sorted(unbound))} {unbound_phrase}"] if unbound else []
    for agg, names in loose:
        elements = ",".join(term_text(t) for t in agg.terms)
        reasons.append(f"variable(s) {', '.join(sorted(names))} of "
                       f"#count{{{elements} : {atom_to_text(agg.condition)}}} "
                       "do not occur in its condition")
    return "; ".join(reasons)


def is_safe(rule: Rule) -> bool:
    return not unbound_variables(rule.head, rule.body)


def check_statements(rules: tuple[Rule, ...] = (),
                     weak_constraints: tuple[WeakConstraint, ...] = ()) -> None:
    """Raise on the first malformed or unsafe statement: the rules, then
    the weak constraints, then any `not` on a comparison or #count. Each
    statement is checked on its own, so statements that passed as parts of
    one program pass as parts of any other."""
    for r in rules:
        if not r.head and not r.body:
            raise ValueError("rule with empty head and empty body")
        unbound = unbound_variables(r.head, r.body)
        if unbound:
            raise UnsafeRuleError(r, unbound)
    for w in weak_constraints:
        if not w.body:
            raise ValueError("weak constraint with empty body")
        if w.cost < 0 or w.level < 0:
            raise ValueError("weak constraint cost/level must be nonnegative")
        unbound = unbound_variables(w.head, w.body)
        if unbound:
            raise UnsafeRuleError(w, unbound)
    for s in (*rules, *weak_constraints):
        if any(lit.negated and not lit.is_atom() for lit in s.body):
            # the grammar has `not` on atoms only
            raise ValueError("only atoms can be negated, not comparisons or #count")


@dataclass(frozen=True)
class Program:
    """Rules and weak constraints, each checked for safety on construction."""

    rules: tuple[Rule, ...] = ()
    weak_constraints: tuple[WeakConstraint, ...] = ()

    def __post_init__(self):
        check_statements(self.rules, self.weak_constraints)

    @classmethod
    def of_checked(cls, rules: tuple[Rule, ...],
                   weak_constraints: tuple[WeakConstraint, ...] = ()) -> Program:
        """The program of statements that each passed `check_statements`
        already, as parts of other programs; they are not checked again."""
        program = object.__new__(cls)
        object.__setattr__(program, "rules", rules)
        object.__setattr__(program, "weak_constraints", weak_constraints)
        return program


def program_atoms(program: Program) -> Iterator[Atom]:
    """All atom occurrences, including aggregate conditions."""
    for s in (*program.rules, *program.weak_constraints):
        yield from s.head
        for lit in s.body:
            p = lit.payload
            if isinstance(p, Atom):
                yield p
            elif isinstance(p, CountAggregate):
                yield p.condition


def signatures(program: Program) -> set[tuple[str, int]]:
    return {a.signature for a in program_atoms(program)}


def constants(statements: Iterable[Rule | WeakConstraint]) -> set[Term]:
    """All constants of the statements: atom arguments, #count conditions,
    terms and guards, and both sides of comparisons."""
    found: set[Term] = set()
    for s in statements:
        atoms = list(s.head)
        for lit in s.body:
            p = lit.payload
            if isinstance(p, Atom):
                atoms.append(p)
            elif isinstance(p, Comparison):
                found.update((p.left, p.right))
            else:
                atoms.append(p.condition)
                found.update(p.terms)
                found.add(p.guard)
        for a in atoms:
            found.update(a.args)
    return {t for t in found if not isinstance(t, Variable)}


def herbrand_universe(program: Program) -> set[Term]:
    """All constants of the program; `{a}` when there are none."""
    return constants(program.rules + program.weak_constraints) or {Constant("a")}


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
    """`@noAnswerSet`: the scoped program has no answer set."""

    kind = "noAnswerSet"


@dataclass(frozen=True)
class TrueInAll:
    """`@trueInAll`: every listed atom is true in every answer set."""

    atoms: tuple[Atom, ...]
    kind = "trueInAll"


@dataclass(frozen=True)
class TrueInAtLeast:
    """`@trueInAtLeast`: at least `count` answer sets contain all atoms."""

    count: int
    atoms: tuple[Atom, ...]
    kind = "trueInAtLeast"
    min_count = 1  # number = 0 would be vacuously true


@dataclass(frozen=True)
class TrueInAtMost:
    """`@trueInAtMost`: at most `count` answer sets contain all atoms."""

    count: int
    atoms: tuple[Atom, ...]
    kind = "trueInAtMost"


@dataclass(frozen=True)
class TrueInExactly:
    """`@trueInExactly`: exactly `count` answer sets contain all atoms."""

    count: int
    atoms: tuple[Atom, ...]
    kind = "trueInExactly"


@dataclass(frozen=True)
class ConstraintForAll:
    """`@constraintForAll`: every answer set satisfies the constraint."""

    constraint: Rule
    kind = "constraintForAll"


@dataclass(frozen=True)
class ConstraintInAtLeast:
    """`@constraintInAtLeast`: at least `count` answer sets satisfy it."""

    count: int
    constraint: Rule
    kind = "constraintInAtLeast"
    min_count = 1


@dataclass(frozen=True)
class ConstraintInAtMost:
    """`@constraintInAtMost`: at most `count` answer sets satisfy it."""

    count: int
    constraint: Rule
    kind = "constraintInAtMost"


@dataclass(frozen=True)
class ConstraintInExactly:
    """`@constraintInExactly`: exactly `count` answer sets satisfy it."""

    count: int
    constraint: Rule
    kind = "constraintInExactly"


@dataclass(frozen=True)
class BestModelCost:
    """`@bestModelCost`: the optimum has penalty `cost` at `level`."""

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
