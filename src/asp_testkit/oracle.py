"""Exhaustive answer-set oracle for desk-scale programs.

The pipeline is: instantiate every rule and weak constraint by joining its
positive body against the atoms derived so far, evaluating comparisons as
soon as their variables are bound, then simplify by Van Gelder's alternating
fixpoint for the well-founded model (JCSS 1993): two Horn closures, the
possible atoms and the certain ones, alternate until neither changes.

Instantiation runs semi-naive rounds to the least fixpoint of the heads with
negation and aggregates ignored: a round matches each statement only in the
ways that use at least one atom derived in the round before. Safety puts
every global variable in a positive body atom, so no variable ranges over
the whole Herbrand universe, and every instance whose positive body can hold
is found exactly once. Each statement object is compiled once, on its first
use, and its compiled form (`_Join`) is kept on the statement itself, so
every scope fill and tester that holds the statement shares it. The form
numbers the statement's variables into slots, and a binding is one list
overwritten in place. Each of its join plans is a list of steps whose index
lookup key and per-argument operations are fixed when the plan is compiled.
Heads, negative bodies and #count aggregates are built from templates over
the binding, and a positive body is the atoms the join matched. Ground
comparisons are decided when the statement is compiled. A statement without
positive body atoms has no variable: it is not compiled and gets no join,
and its one instance is read off the statement in the first round, so the
many such rules a tester adds leave nothing behind. The
instances are emitted statement by statement in program order (rules, then
weak constraints), each statement's in the order the join finds them. A
one-atom head enters the index as it is, and a disjunctive head's atoms in
`Atom.sort_key` order, so the order of the instances does not depend on the
hash seed. MAX_INSTANTIATIONS bounds the instances emitted.

A test's assertions are decided by tester programs that each extend the
test's scope program P by a few rules. The test hands P to `ground` with
each of its testers as one `Scope`, which derives P's signatures, names,
constants and universe when it is made, and decides up front, from the
tester's rules and P's predicate names alone, whether P's atoms split the
tester (Lifschitz & Turner, ICLP 1994): its rules start with P's own and
its weak constraints are P's, no added head occurs in an added positive
body, and every added head's predicate name is new to P and sorts after all
of P's in the canonical order, where the fresh `__tk_` atoms come last. A
tester that splits on P is grounded as an extension of P's saved form,
which the scope fills once, the first time a tester needs it: P's
instances, its certain and possible atoms, its reduced statements and its
ground aggregates are the same in the tester, the added rules are joined
once against P's fixpoint, and only the added instances are simplified,
seeded with P's sets. A tester's atoms take the ids after its scope's, so
testers share the scope's statements as they are. A tester's universe is
P's constants plus those of the added rules. When P's fill raises, the
scope keeps that error and every tester that splits on P raises it: the
tester holds all of P's instances, statements and unknown atoms, so
grounding it in full raises an error of the same type. Any other tester is
grounded in full, and no tester is grounded twice.

One function, `_extend_ground`, builds every ground program: it extends a
ground program by reduced statements over new atoms. A full grounding, a
scope's fill and a reduct extend the empty ground program; a tester that
splits on its scope extends the scope's.

Every ground statement has one form from instantiation to search: a head,
a positive and a negative body (sets of ground atoms, later bit masks over
atom ids), the body's #count aggregates, and a weight. As in ASP-Core-2, a
weak constraint is a constraint with a weight, (cost, level); rules and
constraints have none. `GroundProgram.rules` and `weak_constraints` are AST
views rebuilt from that form on demand. A ground program keeps the sorted
levels of its program's weak constraints, so an optimum reports a cost at
each, 0 at a level whose weak constraints simplification removed.

The answer sets are then found by depth-first search over the remaining
unknown atoms. Each node propagates to a fixpoint: every rule and
constraint without #count as a clause, and support (an unknown atom is
false when no rule that heads it can still have a true body and no other
true head atom). A conflict drops the branch. Branching takes the highest
open atom id first, false before true, so the leaves come in the
binary-counter order of a scan over all subsets of the unknown atoms.
Every leaf is checked with the textbook test: it satisfies the constraints
(as good as keeping them in the reduct, since a violated positive body only
shrinks when atoms are removed) and is a minimal model of its reduct, which
a second run of the same search decides by finding no model of the reduct
strictly inside the leaf, as DLV does (Koch, Leone & Pfeifer, AIJ 2003).
Propagation only prunes candidates that the test rejects, so it changes the
cost of the search and never its result. Each answer set found is kept as
its true mask over the ground program's atom list, and an `AnswerSet`
decodes that mask into atoms on the first read of its `atoms`: a verdict
that only counts answer sets decodes none, and one that shows a witness
decodes that one.

Capacity is deliberately tiny (22 unknown atoms, ~4M leaves at worst): the
oracle exists to be obviously correct, not fast. Anything larger belongs to
an external solver.

Aggregates (`#count`) are evaluated against the candidate interpretation.
They are accepted in constraint and weak-constraint bodies, and in rule heads
only when non-recursive: if the counted predicate depends on the rule's own
head, the GL-style treatment would be ambiguous and UnsupportedAggregate is
raised instead.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import is_, itemgetter
from typing import Iterable, Optional, Sequence

from .model import (
    FRESH_PREFIX,
    Atom,
    Comparison,
    Constant,
    CountAggregate,
    Integer,
    Literal,
    Program,
    Rule,
    Term,
    Variable,
    WeakConstraint,
    compare_terms,
    constants,
    signatures,
    term_key,
)
from .serialize import rule_to_text, weak_constraint_to_text

MAX_ENUM_ATOMS = 22
MAX_GROUND_RULES = 5000
MAX_INSTANTIATIONS = 2_000_000


class CapacityExceeded(Exception):
    """The program is too large for exhaustive evaluation; use an external
    solver instead."""

    def __init__(self, message: str, atoms: int = 0, rules: int = 0):
        super().__init__(message)
        self.atoms = atoms
        self.rules = rules


class UnsupportedAggregate(Exception):
    """A #count aggregate occurs where the oracle has no defined semantics
    (recursively, through the head of its own rule)."""


class AnswerSet:
    """One answer set, as a set of ground atoms.

    `AnswerSet(atoms)` holds the atoms themselves, as the external backend
    parses them. The internal engine keeps each answer set it finds as a bit
    mask over its ground program's atom list (`_of_mask`), and `atoms`
    decodes that mask on its first read and keeps the set: a verdict that
    only counts answer sets decodes none of them. Equality, hashing and `in`
    go by the atoms, however the answer set was made."""

    __slots__ = ("_atoms", "_atom_list", "_mask")

    def __init__(self, atoms: frozenset[Atom]):
        self._atoms = atoms
        self._atom_list: Sequence[Atom] = ()
        self._mask = 0

    @classmethod
    def _of_mask(cls, atom_list: Sequence[Atom], mask: int) -> AnswerSet:
        """The answer set of the atoms of `atom_list` whose ids `mask` holds,
        not decoded until `atoms` is read."""
        answer_set = cls.__new__(cls)
        answer_set._atoms = None
        answer_set._atom_list = atom_list
        answer_set._mask = mask
        return answer_set

    @property
    def atoms(self) -> frozenset[Atom]:
        atoms = self._atoms
        if atoms is None:
            atoms = self._atoms = frozenset(_atoms_in(self._atom_list, self._mask))
        return atoms

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.atoms, key=Atom.sort_key)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash((self.atoms,))

    def __repr__(self) -> str:
        return f"AnswerSet(atoms={self.atoms!r})"


@dataclass
class SolveResult:
    """Normalized solver outcome shared by the oracle and external backends.

    The oracle's answer sets are masks, decoded into atoms on the first read
    of each one's `atoms` (see `AnswerSet`); the external backend's hold the
    atoms it parsed. costs maps (answer set index, level) to the penalty at
    that level and is only populated for optimizing runs / COST-reporting
    solvers.
    """

    answer_sets: list[AnswerSet] = field(default_factory=list)
    exhausted: bool = False
    incoherent: bool = False
    costs: Optional[dict[tuple[int, int], int]] = None

    def atom_sets(self) -> set[frozenset[Atom]]:
        return {a.atoms for a in self.answer_sets}


# ---------------------------------------------------------------------------
# Stage 1: instantiation by joining positive bodies
# ---------------------------------------------------------------------------

class _AtomIndex:
    """The atoms derived so far. Each atom is stamped with its position in
    derivation order and listed, in that order, under its signature and under
    every (signature, position, argument) it has. Those are the keys that
    plan steps look up, each step's fixed when its plan is compiled
    (`_Step`), so a lookup reads no pattern and no binding: it returns the
    atoms listed under one key that are stamped in [lo, hi)."""

    def __init__(self):
        self.atoms: set[Atom] = set()
        self._lists: dict[tuple, tuple[list[int], list[Atom]]] = {}

    def __len__(self) -> int:
        return len(self.atoms)

    def add(self, atom: Atom) -> None:
        stamp = len(self.atoms)
        self.atoms.add(atom)
        if len(self.atoms) == stamp:  # derived before
            return
        sig = atom.signature
        for key in [sig] + [(sig, i, t) for i, t in enumerate(atom.args)]:
            stamps, atoms = self._lists.setdefault(key, ([], []))
            stamps.append(stamp)
            atoms.append(atom)

    def lookup(self, key: tuple, lo: int, hi: int) -> list[Atom]:
        entry = self._lists.get(key)
        if entry is None:
            return []
        stamps, atoms = entry
        return atoms[bisect_left(stamps, lo):bisect_left(stamps, hi)]


class _Slots:
    """A numbering of a statement's global variables, in order of first
    occurrence, into the slots of a binding list, followed by one slot for
    each other term that a template or comparison reads: a constant, or a
    variable local to a #count. `binding()` is a fresh list with the
    variable slots empty and the others filled."""

    def __init__(self, variables: Iterable[str]):
        self.slot = {name: i for i, name in enumerate(dict.fromkeys(variables))}
        self._fixed: dict[Term, int] = {}

    def ref(self, term: Term) -> int:
        if isinstance(term, Variable) and term.name in self.slot:
            return self.slot[term.name]
        return self._fixed.setdefault(term, len(self.slot) + len(self._fixed))

    def binding(self) -> list:
        return [None] * len(self.slot) + list(self._fixed)

    def template(self, atom: Atom):
        """`atom` under a binding, built by a function of the binding list;
        None when `atom` has no global variable, so that it is its own
        instance."""
        if not any(isinstance(t, Variable) and t.name in self.slot for t in atom.args):
            return None
        predicate, refs = atom.predicate, [self.ref(t) for t in atom.args]
        if len(refs) == 1:
            only = refs[0]
            return lambda b: Atom(predicate, (b[only],))
        args = itemgetter(*refs)
        return lambda b: Atom(predicate, args(b))

    def tuple_of(self, terms: Sequence[Term]):
        """The function of a binding list that gives `terms` under it."""
        refs = [self.ref(t) for t in terms]
        if len(refs) == 1:
            only = refs[0]
            return lambda b: (b[only],)
        return itemgetter(*refs) if refs else lambda b: ()

    def atom_set(self, atoms: Sequence[Atom]):
        """The function of a binding list that gives the frozenset of
        `atoms` under it; the atoms without a global variable are kept as
        they are."""
        templates = [(a, self.template(a)) for a in atoms]
        fixed = [a for a, t in templates if t is None]
        built = [t for _, t in templates if t is not None]
        if not built:
            constant = frozenset(fixed)
            return lambda b: constant
        if len(built) == 1 and not fixed:
            only = built[0]
            return lambda b: frozenset((only(b),))
        return lambda b: frozenset([*fixed, *(t(b) for t in built)])

    def aggregates(self, aggregates: Sequence[CountAggregate]):
        """The function of a binding list that gives the tuple of the
        #count `aggregates` under it; a variable local to one survives."""
        if not aggregates:
            return lambda b: ()
        parts = [(self.tuple_of(a.terms),
                  self.template(a.condition) or (lambda b, c=a.condition: c),
                  a.guard_op, self.ref(a.guard)) for a in aggregates]
        return lambda b: tuple(CountAggregate(terms(b), cond(b), op, b[guard])
                               for terms, cond, op, guard in parts)


class _Step:
    """One positive body atom `j` of a plan, with what matching it against
    a ground atom does, argument by argument: `consts` compare an argument
    with a constant, `binds` bind a slot of the binding list to it, and
    `equals` compare it with a slot bound before. `key` is the index key it
    is looked up by, fixed when the plan is compiled: the first argument
    that is a constant or a variable an earlier step binds gives it, built
    as (key, at, binding[slot]) when `slot` is that variable's slot, and
    the signature alone when there is none. The index lists only atoms
    that agree with the key, so that argument is not compared again. Built
    without `keyed`, the step compares every argument. `checks` are the
    comparisons, (op, slot, slot), that this step's binds make decidable."""

    __slots__ = ("j", "key", "at", "slot", "consts", "binds", "equals", "checks")

    def __init__(self, j: int, atom: Atom, slot: dict[str, int], bound: set[str],
                 keyed: bool = True):
        self.j = j
        self.key, self.at, self.slot = atom.signature, None, None
        self.consts, self.binds, self.equals, self.checks = [], [], [], []
        seen = set(bound)
        for i, t in enumerate(atom.args):
            known = not isinstance(t, Variable) or t.name in bound
            if keyed and known and self.at is None:
                self.at = i
                if isinstance(t, Variable):
                    self.slot = slot[t.name]
                else:
                    self.key = (self.key, i, t)
            elif not isinstance(t, Variable):
                self.consts.append((i, t))
            elif t.name in seen:
                self.equals.append((i, slot[t.name]))
            else:
                seen.add(t.name)
                self.binds.append((i, slot[t.name]))


def _fits(step: _Step, args: tuple[Term, ...], b: list) -> bool:
    """Whether the ground `args` match `step`'s atom under the binding list
    `b`, whose slots of this step it binds, and satisfy its checks. The one
    matcher: of the join, and of each #count's condition."""
    for i, t in step.consts:
        if args[i] != t:
            return False
    for i, s in step.binds:
        b[s] = args[i]
    for i, s in step.equals:
        if args[i] != b[s]:
            return False
    for op, left, right in step.checks:
        if not compare_terms(op, b[left], b[right]):
            return False
    return True


class _OverBudget(Exception):
    """A round emitted more instances than the room it was given."""


class _Join:
    """A rule or weak constraint with a positive body atom, compiled for
    instantiation once per statement object (`_join_of`).

    Safety puts every global variable in a positive body atom, so the ground
    instances whose positive body consists of derived atoms are exactly the
    ways of matching those atoms, in turn, against the index, and they are
    emitted in the order the join finds them. The variables are numbered
    into slots (`_Slots`), and a binding is one list, overwritten in place
    as the join goes deeper. Plan i matches the positive atoms with atom i
    first and then the others in body order, each a `_Step` whose key and
    argument operations are fixed when the plan is compiled, and which
    tests each comparison as soon as its variables are bound. Plan 0 is
    compiled on the first round that joins, any other plan on the first
    round that needs it. An instance's head, negative body and #count
    aggregates are built from templates over the binding list, and its
    positive body is the atoms matched. Ground comparisons are decided
    here, once: a statement with one that fails has no instance and no
    plan.

    The form holds nothing of one fill and no reference to its statement,
    so every fill and tester that holds the statement shares it, and it is
    freed with the statement. Attaching it to the shared frozen statement,
    and compiling a plan, are lazy and idempotent: two threads that compile
    one statement or plan build equal forms, and either may be kept."""

    __slots__ = ("weight", "plans", "positive", "slot", "comparisons", "binding",
                 "head", "neg", "aggregates")

    def __init__(self, statement: Rule | WeakConstraint):
        self.weight = _weight(statement)
        self.plans: Sequence[Optional[list[_Step]]] = ()
        positive, negative, comparisons, aggregates = [], [], [], []
        for lit in statement.body:
            p = lit.payload
            if isinstance(p, Atom):
                (negative if lit.negated else positive).append(p)
            elif isinstance(p, Comparison):
                comparisons.append(p)
            else:
                aggregates.append(p)
        if not all(compare_terms(c.op, c.left, c.right)
                   for c in comparisons if not any(c.variables())):
            return
        slots = _Slots(v for a in positive for v in a.variables())
        self.positive = positive
        self.slot = slots.slot
        self.head = slots.atom_set(statement.head)
        self.neg = slots.atom_set(negative)
        self.aggregates = slots.aggregates(aggregates)
        self.comparisons = [(set(c.variables()), (c.op, slots.ref(c.left), slots.ref(c.right)))
                            for c in comparisons if any(c.variables())]
        self.binding = slots.binding()
        self.plans = [None] * len(positive)

    def _plan(self, i: int) -> list[_Step]:
        """Plan i, compiled and kept."""
        bound: set[str] = set()
        pending = self.comparisons
        steps = []
        for j in [i] + [j for j in range(len(self.positive)) if j != i]:
            atom = self.positive[j]
            step = _Step(j, atom, self.slot, bound)
            bound.update(atom.variables())
            step.checks = [check for names, check in pending if names <= bound]
            pending = [(names, check) for names, check in pending if not names <= bound]
            steps.append(step)
        self.plans[i] = steps
        return steps

    def round(self, index: _AtomIndex, lo: int, hi: int, room: int) -> list[tuple]:
        """The instances of one semi-naive round, as (head, pos, neg,
        aggregates, weight): the index holds the atoms stamped below `hi`,
        and those from `lo` on are new this round. Every instance matches
        at least one new atom, and each is found in exactly one round: plan
        i takes atom i from the new ones, the atoms before it from the old
        ones and those after it from all of them. When every atom is new
        (`lo == 0`), plan 0 alone finds them all: the atoms before atom
        i > 0 would come from an empty window. Raises _OverBudget past
        `room` instances."""
        out: list[tuple] = []
        if not self.plans:
            return out
        b = self.binding[:]
        matched = [None] * len(self.positive)
        for i in range(len(self.plans) if lo else 1):
            steps = self.plans[i] or self._plan(i)
            windows = [(0, lo) if s.j < i else (lo, hi) if s.j == i else (0, hi)
                       for s in steps]
            self._join(index, steps, windows, 0, b, matched, out, room)
        return out

    def _join(self, index, steps, windows, depth, b, matched, out, room):
        """Match the steps from `depth` on, each from its window of the
        index, and emit an instance into `out` for each full match."""
        step = steps[depth]
        key = step.key if step.slot is None else (step.key, step.at, b[step.slot])
        last = depth + 1 == len(steps)
        for atom in index.lookup(key, *windows[depth]):
            if not _fits(step, atom.args, b):
                continue
            matched[depth] = atom
            if not last:
                self._join(index, steps, windows, depth + 1, b, matched, out, room)
                continue
            out.append((self.head(b), frozenset(matched), self.neg(b),
                        self.aggregates(b), self.weight))
            if len(out) > room:
                raise _OverBudget


def _weight(statement: Rule | WeakConstraint) -> Optional[tuple[int, int]]:
    return (statement.cost, statement.level) if isinstance(statement, WeakConstraint) else None


def _join_of(statement: Rule | WeakConstraint) -> Optional[_Join]:
    """The compiled form of `statement`, compiled on its first use and kept
    on the statement object itself, so that it lives exactly as long as
    the statement. Two equal statements on different lines keep a form
    each, so a budget error names its own statement's origin. A statement
    without a positive body atom has no join: None, and nothing is kept on
    it, so that the many such rules a tester adds and uses once leave
    nothing behind."""
    join = statement.__dict__.get("_join")
    if join is None:
        if not any(isinstance(lit.payload, Atom) and not lit.negated for lit in statement.body):
            return None
        join = _Join(statement)
        object.__setattr__(statement, "_join", join)
    return join


def _own_instance(statement: Rule | WeakConstraint) -> Optional[tuple]:
    """The one instance of a statement without a positive body atom, read
    off the statement: safety leaves it no global variable, as in a fact,
    `__tk_miss_0 :- not a.` or `:- not a, 1 < 2.`. None when one of its
    comparisons, all ground, fails."""
    negative, aggregates = [], []
    for lit in statement.body:
        p = lit.payload
        if isinstance(p, Comparison):
            if not compare_terms(p.op, p.left, p.right):
                return None
        else:
            (negative if isinstance(p, Atom) else aggregates).append(p)
    return (frozenset(statement.head), frozenset(), frozenset(negative),
            tuple(aggregates), _weight(statement))


def _budget_exceeded(statement: Rule | WeakConstraint, universe_size: int) -> CapacityExceeded:
    text = (weak_constraint_to_text if isinstance(statement, WeakConstraint)
            else rule_to_text)(statement)
    where = f" at {statement.origin}" if statement.origin else ""
    return CapacityExceeded(
        f"instantiation budget exceeded ({MAX_INSTANTIATIONS} ground "
        f"instances) grounding `{text}`{where} over a universe of "
        f"{universe_size} constants", rules=MAX_INSTANTIATIONS)


def _instances(statement, index: _AtomIndex, lo: int, hi: int, emitted: int,
               universe_size: int) -> list[tuple]:
    """`statement`'s instances in the round of `index` between `lo` and
    `hi` (`_Join.round`), when `emitted` instances came before them. A
    statement without a join has its one instance (`_own_instance`) in
    whichever round asks, and is asked once. MAX_INSTANTIATIONS bounds the
    emitted count, and a statement past it is named by its text and
    origin."""
    room = MAX_INSTANTIATIONS - emitted
    join = _join_of(statement)
    try:
        if join is not None:
            return join.round(index, lo, hi, room)
        own = _own_instance(statement)
        if own is not None and room < 1:
            raise _OverBudget
        return [] if own is None else [own]
    except _OverBudget:
        raise _budget_exceeded(statement, universe_size) from None


def _instantiate(statements, universe_size: int) -> tuple[list[tuple], _AtomIndex, int]:
    """The ground instances, as (head, pos, neg, aggregates, weight), whose
    positive body lies in the least fixpoint of the heads with negation and
    aggregates ignored: the atoms that are possible at all. Semi-naive rounds
    reach that fixpoint; a round joins a statement only against the atoms
    derived in the round before, and a statement without a join is dropped
    after the first. Statements keep their order, and each one's instances
    come in the order the join finds them. A one-atom head enters the index
    as it is; a disjunctive head's atoms enter it in `Atom.sort_key` order:
    frozenset order would make the stamps, and so the order of later
    rounds, depend on the hash seed.

    Returns (instances, index, emitted): with the instances, the index of
    the fixpoint and the emitted count, so that a scope program
    instantiated once can be extended by each of its testers
    (`_ground_extension`)."""
    found: list[list[tuple]] = [[] for _ in statements]  # per statement
    index = _AtomIndex()
    emitted = 0
    lo = hi = 0
    rounds = list(zip(statements, found))
    while True:
        for statement, out in rounds:
            new = _instances(statement, index, lo, hi, emitted, universe_size)
            emitted += len(new)
            out += new
            for head, *_ in new:
                for a in head if len(head) < 2 else sorted(head, key=Atom.sort_key):
                    index.add(a)
        if len(index) == hi:
            break
        lo, hi = hi, len(index)
        # a statement without a join had its one instance in the first round
        rounds = [(statement, out) for statement, out in rounds
                  if (join := _join_of(statement)) is not None and join.plans]
    return [inst for out in found for inst in out], index, emitted


def _positive_signatures(statements) -> set[tuple[str, int]]:
    return {l.payload.signature for s in statements for l in s.body
            if isinstance(l.payload, Atom) and not l.negated}


# ---------------------------------------------------------------------------
# Ground program with evaluation structures
# ---------------------------------------------------------------------------

@dataclass
class _GroundAggregate:
    """One `#count` instance: tuples that always count, and those that need unknown atoms."""

    aggregate: CountAggregate   # ground apart from brace-local names
    # tuples contributed unconditionally (condition atom is certain)
    always: frozenset[tuple]
    # tuple value -> mask of unknown condition-atom ids that make it true
    conditional: dict[tuple, int]

    def count(self, interp_mask: int) -> int:
        n = len(self.always)
        for value, mask in self.conditional.items():
            if value not in self.always and (mask & interp_mask):
                n += 1
        return n

    def holds(self, interp_mask: int) -> bool:
        agg = self.aggregate
        return compare_terms(agg.guard_op, Integer(self.count(interp_mask)), agg.guard)


@dataclass
class _GroundStatement:
    """A simplified ground rule, constraint or weak constraint as masks over
    atom ids; `weight` is (cost, level) for a weak constraint, else None."""

    head: int
    pos: int
    neg: int
    aggregates: tuple[_GroundAggregate, ...]
    weight: Optional[tuple[int, int]]

    def holds(self, interp: int) -> bool:
        """Whether the body holds in the interpretation `interp`."""
        return (self.pos & ~interp) == 0 and (self.neg & interp) == 0 \
            and all(a.holds(interp) for a in self.aggregates)


def _ids(mask: int) -> list[int]:
    """The ids set in `mask`, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _atoms_in(atoms: Sequence[Atom], mask: int) -> tuple[Atom, ...]:
    """The atoms of `atoms` whose ids `mask` holds, in id order, which is
    the canonical order. Every answer set and ground statement that is read
    as atoms is decoded here."""
    return tuple(a for i, a in enumerate(atoms) if mask >> i & 1)


class GroundProgram:
    """Variable-free program plus the dense atom index used for enumeration.

    `atoms` lists every ground atom of the simplified program in canonical
    order (`_atom_order`); `certain_mask` holds the ids true in every answer
    set (`certain_ids` reads them as a set), and everything else is decided
    by the search. The simplified statements are kept as masks, split into
    rules, constraints and weak constraints. `levels` are the sorted levels
    of the program's weak constraints, those that simplification removed
    included. `atom_ids` (atom to id) and `unknown_ids` are built on first
    read: the search reads masks only, so a tester grounded as an extension
    of its scope builds neither. `rules` and `weak_constraints` are AST
    views built on demand from the masks (certain facts first, then the
    simplified rules). Every ground program is built by `_extend_ground`.
    """

    def __init__(self, universe: list[Term], atoms: list[Atom], certain_mask: int,
                 rules: list[_GroundStatement], constraints: list[_GroundStatement],
                 weaks: list[_GroundStatement], trivially_incoherent: bool,
                 levels: tuple[int, ...]):
        self.universe = universe
        self.atoms = atoms
        self.certain_mask = certain_mask
        self._rules = rules
        self._constraints = constraints
        self._weaks = weaks
        self.trivially_incoherent = trivially_incoherent
        self.levels = levels
        # built on first read
        self._atom_ids: Optional[dict[Atom, int]] = None
        self._unknown_ids: Optional[list[int]] = None

    @property
    def certain_ids(self) -> set[int]:
        return set(_ids(self.certain_mask))

    @property
    def atom_ids(self) -> dict[Atom, int]:
        if self._atom_ids is None:
            self._atom_ids = {a: i for i, a in enumerate(self.atoms)}
        return self._atom_ids

    @property
    def unknown_ids(self) -> list[int]:
        if self._unknown_ids is None:
            self._unknown_ids = _ids(self.unknown_mask)
        return self._unknown_ids

    @property
    def unknown_mask(self) -> int:
        return ((1 << len(self.atoms)) - 1) & ~self.certain_mask

    def _body(self, s: _GroundStatement) -> tuple[Literal, ...]:
        return (tuple(Literal(a) for a in _atoms_in(self.atoms, s.pos))
                + tuple(Literal(a, negated=True) for a in _atoms_in(self.atoms, s.neg))
                + tuple(Literal(agg.aggregate) for agg in s.aggregates))

    @property
    def rules(self) -> tuple[Rule, ...]:
        facts = tuple(Rule((a,), ()) for a in _atoms_in(self.atoms, self.certain_mask))
        rest = tuple(Rule(_atoms_in(self.atoms, s.head), self._body(s))
                     for s in self._rules + self._constraints)
        return facts + rest

    @property
    def weak_constraints(self) -> tuple[WeakConstraint, ...]:
        return tuple(WeakConstraint(self._body(s), *s.weight) for s in self._weaks)

    def certain_atoms(self) -> frozenset[Atom]:
        return self.mask_atoms(self.certain_mask)

    def interpretation_mask(self, atoms: Iterable[Atom]) -> Optional[int]:
        """Mask for an atom set; None when it mentions an atom outside the
        ground program (such a set can never be an answer set)."""
        mask = 0
        for a in atoms:
            i = self.atom_ids.get(a)
            if i is None:
                return None
            mask |= 1 << i
        return mask

    def mask_atoms(self, mask: int) -> frozenset[Atom]:
        return frozenset(_atoms_in(self.atoms, mask))


# the ground program that `_extend_ground` extends to build a program in full
_EMPTY = GroundProgram([], [], 0, [], [], [], False, ())


def _mask(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def ground(program: Program, scope: Optional[Scope] = None) -> GroundProgram:
    """The ground program of `program`. With `scope`, the scope of the test
    whose tester `program` is, a tester that splits on the scope (see
    `Scope.added`) is grounded as an extension of the scope's saved form
    (`_ground_extension`), and raises the scope's own error when the scope
    cannot be grounded. Any other program is instantiated, simplified and
    built in full, as a scope is filled. Either way it is grounded once."""
    added = None if scope is None else scope.added(program)
    if added is not None:
        return _ground_extension(scope, added)
    statements = program.rules + program.weak_constraints
    universe = _universe(constants(statements))
    instances, _, _ = _instantiate(statements, len(universe))
    return _build_ground(universe, instances, _levels(program))


def _closure(rules, derived):
    """The least superset of `derived` closed under `rules`, (head, body)
    pairs of sets: whenever a body lies inside, so does its head. Sweeps
    until a sweep fires no rule; a fired rule is not visited again."""
    derived = set(derived)
    while True:
        waiting = []
        for head, body in rules:
            if body <= derived:
                derived |= head
            else:
                waiting.append((head, body))
        if len(waiting) == len(rules):
            return derived
        rules = waiting


def _simplify(instances, certain=frozenset(), possible=frozenset()):
    """Van Gelder's alternating fixpoint for the well-founded model, extended
    to disjunctive heads and #count. The possible atoms close the certain
    ones under the rules with no certain head or negated atom; the certain
    atoms close under the single-head rules without #count whose negated
    atoms are all impossible. Certain only grows, possible only shrinks and
    follows from certain, so the loop stops once certain does. Returns the
    reduced, deduplicated instances, both sets, and whether a constraint
    always fires.

    Given the final `certain` and `possible` atoms of a program whose atoms
    `instances` do not head (a splitting set of the union), the loop runs
    over `instances` alone, seeded with them: the program's sets hold in the
    union as they are. The sets returned then include the seeds."""
    fixed = possible
    certain = set(certain)
    while True:
        possible = _closure([(head, pos) for head, pos, neg, _, _ in instances
                             if head and not (head | neg) & certain], certain | fixed)
        grown = _closure([(head, pos) for head, pos, neg, aggs, _ in instances
                          if len(head) == 1 and not aggs and not neg & possible], certain)
        if grown == certain:
            break
        certain = grown
    stmts = list(dict.fromkeys(
        (head, pos - certain, neg & possible, aggs, weight)
        for head, pos, neg, aggs, weight in instances
        if pos <= possible and not neg & certain and not head & certain))
    trivially_incoherent = any(weight is None and not (head or pos or neg or aggs)
                               for head, pos, neg, aggs, weight in stmts)
    return stmts, possible, certain, trivially_incoherent


def _check_aggregate_stratification(stmts):
    """Reject recursion through an aggregate: the counted predicate must not
    depend on the head of the rule the aggregate sits in."""
    depends = {(h.predicate, q.predicate)
               for head, pos, neg, aggs, _ in stmts for h in head
               for q in (*pos, *neg, *(agg.condition for agg in aggs))}
    # closed under these, a set of predicates holds all that depend on them
    edges = [({p}, {q}) for p, q in depends]
    for head, _, _, aggs, _ in stmts:
        if head and aggs:
            dependents = _closure(edges, {h.predicate for h in head})
            for cond in (agg.condition.predicate for agg in aggs):
                if cond in dependents:
                    raise UnsupportedAggregate(
                        f"#count over {cond!r} occurs in the head rule defining it; "
                        "the oracle only supports non-recursive aggregates in "
                        "rules with heads")


def _check_capacity(n_unknown: int, n_rules: int) -> None:
    if n_unknown > MAX_ENUM_ATOMS or n_rules > MAX_GROUND_RULES:
        raise CapacityExceeded(
            f"{n_unknown} undetermined ground atoms / {n_rules} ground rules exceed "
            f"the exhaustive-scan capacity ({MAX_ENUM_ATOMS} atoms, "
            f"{MAX_GROUND_RULES} rules)", atoms=n_unknown, rules=n_rules)


def _atom_order(atom: Atom) -> tuple:
    """The canonical order of atom ids: the fresh `__tk_` atoms that testers
    add come after every other atom, so a scope's atoms keep their ids in
    each of its testers. Atoms of different predicate names are ordered by
    `_name_order` of their names."""
    return atom.predicate.startswith(FRESH_PREFIX), atom.sort_key()


def _name_order(name: str) -> tuple[bool, str]:
    return name.startswith(FRESH_PREFIX), name


def _by_signature(atoms) -> dict[tuple[str, int], list[Atom]]:
    by_signature: dict[tuple[str, int], list[Atom]] = {}
    for a in atoms:
        by_signature.setdefault(a.signature, []).append(a)
    return by_signature


def _ground_statements(stmts, id_of, certain, by_signature) -> list[_GroundStatement]:
    """The reduced instances `stmts` as masks over the atom ids that
    `id_of(atom)` gives. Each #count counts the tuples of the possible
    atoms that its condition matches, `by_signature`: always for those in
    `certain`, else under their ids."""
    def build_aggregate(agg: CountAggregate) -> _GroundAggregate:
        # aggregate safety puts every term variable in the condition, so the
        # possible atoms the condition matches give every countable tuple
        slots = _Slots(agg.condition.variables())
        step = _Step(0, agg.condition, slots.slot, set(), keyed=False)
        terms = slots.tuple_of(agg.terms)
        b = slots.binding()
        always: set[tuple] = set()
        conditional: dict[tuple, int] = {}
        for cond in by_signature.get(agg.condition.signature, ()):
            if not _fits(step, cond.args, b):
                continue
            value = terms(b)
            if cond in certain:
                always.add(value)
            else:
                conditional[value] = conditional.get(value, 0) | (1 << id_of(cond))
        return _GroundAggregate(agg, frozenset(always), conditional)

    return [
        _GroundStatement(
            head=_mask(map(id_of, head)),
            pos=_mask(map(id_of, pos)),
            neg=_mask(map(id_of, neg)),
            aggregates=tuple(build_aggregate(a) for a in aggs),
            weight=weight,
        )
        for head, pos, neg, aggs, weight in stmts
    ]


def _extend_ground(base: GroundProgram, universe, stmts, atoms, certain, incoherent,
                   by_signature, levels) -> GroundProgram:
    """`base` extended by the reduced statements `stmts` over the possible
    `atoms` that it lacks, as `_simplify` returned them with `certain` and
    `incoherent`: the new atoms take the ids after `base`'s, in
    `_atom_order`, and each #count counts the possible atoms
    `by_signature`. `levels` are those of the program's weak constraints.
    A full grounding, a scope's fill and a reduct extend `_EMPTY`; a tester
    extends its scope's ground program, and one that adds nothing is that
    program. A recursive #count, or more than the capacity, raises."""
    _check_aggregate_stratification(stmts)
    # a possible atom is certain or heads a kept rule, and kept statements
    # mention only possible atoms
    atoms = sorted(atoms, key=_atom_order)
    ids = {a: i for i, a in enumerate(atoms, len(base.atoms))}
    new_certain = [i for a, i in ids.items() if a in certain]
    _check_capacity(base.unknown_mask.bit_count() + len(atoms) - len(new_certain),
                    len(base._rules) + len(base._constraints) + len(base._weaks) + len(stmts))
    if not atoms and not stmts and universe == base.universe:
        return base
    id_of = ids.__getitem__
    if base.atoms:
        # the scope's own map: a tester copies none of its ids
        base_ids = base.atom_ids

        def id_of(a: Atom) -> int:
            i = ids.get(a)
            return base_ids[a] if i is None else i
    added = _ground_statements(stmts, id_of, certain, by_signature)
    return GroundProgram(
        universe, base.atoms + atoms, base.certain_mask | _mask(new_certain),
        base._rules + [s for s in added if s.head],
        base._constraints + [s for s in added if not s.head and s.weight is None],
        base._weaks + [s for s in added if s.weight is not None],
        base.trivially_incoherent or incoherent, levels)


def _build_ground(universe, instances, levels) -> GroundProgram:
    """The ground program of `instances`, as `_instantiate` returns them,
    whose program's weak constraints have `levels`."""
    stmts, possible, certain, incoherent = _simplify(instances)
    return _extend_ground(_EMPTY, universe, stmts, possible, certain, incoherent,
                          _by_signature(possible), levels)


def _levels(program: Program) -> tuple[int, ...]:
    return tuple(sorted({w.level for w in program.weak_constraints}))


def _universe(found: set[Term]) -> list[Term]:
    """The sorted universe of a program whose constants are `found`: as in
    `herbrand_universe`, `{a}` when there are none."""
    return sorted(found or {Constant("a")}, key=term_key)


# ---------------------------------------------------------------------------
# Grounding a tester as an extension of its scope
# ---------------------------------------------------------------------------

class Scope:
    """A test's scope program P, handed to `ground` with each of its
    testers. What the testers need of P is derived once and kept: when the
    scope is made, P's signatures (which a witness keeps), its predicate
    `names` (which fresh helpers avoid), the `_name_order` of its `last`
    name (which an added head must follow), its `constants` and its sorted
    `universe`; and the saved form, P instantiated and simplified, the
    first time a tester that splits on P needs it (see `added`). A fill
    that raises is not tried again: the scope keeps the error, and
    `saved()` raises it for every such tester. A scope is filled and read
    on one thread: it is not to be shared between threads."""

    def __init__(self, program: Program):
        self.program = program
        self.signatures = frozenset(signatures(program))
        self.names = frozenset(name for name, _ in self.signatures)
        self.last = max(map(_name_order, self.names), default=(False, ""))
        self.constants = frozenset(constants(program.rules + program.weak_constraints))
        self.universe = _universe(self.constants)
        self._saved: Optional[_SavedScope] = None
        self._error: Optional[Exception] = None

    def saved(self) -> _SavedScope:
        if self._saved is None and self._error is None:
            try:
                self._saved = _save_scope(self.program, self.universe)
            except Exception as exc:
                self._error = exc
        if self._error is not None:
            # raised with a fresh traceback: the kept one would hold the
            # failed fill's frames, and the raises of several testers would
            # pile up on it
            raise self._error.with_traceback(None)
        return self._saved

    def added(self, program: Program) -> Optional[tuple[Rule, ...]]:
        """The rules that `program` adds to P when P's atoms split it, else
        None. They split it when its rules are P's rules (the same objects)
        and then the added ones, its weak constraints are P's, no added
        head occurs in an added positive body, and every added head's
        predicate name is new to P and comes after all of P's names in
        `_name_order`. The names differ, so every atom the tester adds then
        comes after every atom of P in `_atom_order`."""
        base = self.program
        k = len(base.rules)
        if len(program.rules) < k or program.weak_constraints != base.weak_constraints \
                or not all(map(is_, program.rules, base.rules)):
            return None
        added = program.rules[k:]
        heads = {a.signature for r in added for a in r.head}
        if heads & _positive_signatures(added) or any(
                name in self.names or _name_order(name) < self.last for name, _ in heads):
            return None
        return added


@dataclass
class _SavedScope:
    """A program P as instantiated and simplified, with what the testers
    that extend it reuse: the atom index of its instantiation's fixpoint
    and the instances it emitted, its ground program, its reduced
    instances, its certain and possible atoms, and those by signature."""

    index: _AtomIndex
    emitted: int
    ground: GroundProgram
    reduced: set[tuple]
    certain: set[Atom]
    possible: set[Atom]
    by_signature: dict[tuple[str, int], list[Atom]]


def _save_scope(program: Program, universe: list[Term]) -> _SavedScope:
    instances, index, emitted = _instantiate(program.rules + program.weak_constraints,
                                             len(universe))
    stmts, possible, certain, incoherent = _simplify(instances)
    by_signature = _by_signature(possible)
    g = _extend_ground(_EMPTY, universe, stmts, possible, certain, incoherent,
                       by_signature, _levels(program))
    return _SavedScope(index, emitted, g, set(stmts), certain, possible, by_signature)


def _ground_extension(scope: Scope, added: tuple[Rule, ...]) -> GroundProgram:
    """The ground program of the tester that adds the rules `added` to the
    scope P, which P's atoms split (`Scope.added`), built from P's saved
    form; P's own error when P cannot be grounded.

    No added head occurs in an added positive body, and no added head's
    predicate name occurs in P, so the added heads join with nothing: P's
    instances, sets, reduced statements and ground aggregates hold in the
    tester as they are, and one round with every atom of P's index new
    finds each added rule's instances exactly once. Only those are
    simplified, seeded with P's sets, and their reduced statements equal to
    one of P's are dropped. The added atoms come after all of P's in
    `_atom_order`: `_extend_ground` keeps each atom of P's id, gives the
    added atoms the ids after them, and P's statements are the tester's as
    they are. The tester's universe is P's constants plus those of `added`,
    and its levels are P's. An error, over the instantiation budget or
    capacity or a recursive #count, is raised here and the tester is not
    grounded again."""
    saved = scope.saved()
    extra = constants(added)
    universe = (scope.universe if extra <= scope.constants
                else _universe(scope.constants | extra))
    emitted = saved.emitted
    instances = []
    for rule in added:
        new = _instances(rule, saved.index, 0, len(saved.index), emitted, len(universe))
        emitted += len(new)
        instances += new
    stmts, possible, certain, incoherent = _simplify(instances, saved.certain, saved.possible)
    # only added atoms depend on an added head, so P's statements cannot
    # make an added #count recursive, and P's own passed the check: the
    # builder's check of the added statements raises what a check over the
    # whole tester raises
    stmts = [s for s in stmts if s not in saved.reduced]
    new = {a for inst in instances for a in inst[0] if a in possible}
    return _extend_ground(saved.ground, universe, stmts, new, certain, incoherent,
                          {**saved.by_signature, **_by_signature(new)}, saved.ground.levels)


# ---------------------------------------------------------------------------
# Answer-set checking and enumeration
# ---------------------------------------------------------------------------

def _violates_constraints(g: GroundProgram, interp: int) -> bool:
    # a loop, not any() over a generator: this runs for every leaf
    for c in g._constraints:
        if c.holds(interp):
            return True
    return False


def _reduct_rules(g: GroundProgram, interp: int) -> Optional[list[tuple[int, int]]]:
    """Active (head, pos) pairs of the reduct w.r.t. interp, or None when
    interp fails to model one of them."""
    active: list[tuple[int, int]] = []
    for r in g._rules:
        if r.neg & interp:
            continue
        if r.aggregates and not all(a.holds(interp) for a in r.aggregates):
            continue
        if (r.pos & ~interp) == 0 and (r.head & interp) == 0:
            return None
        active.append((r.head, r.pos))
    return active


def _is_minimal_model(active: list[tuple[int, int]], interp: int, certain_mask: int) -> bool:
    """Whether no model of the reduct rules `active` lies strictly inside
    `interp`, by one more `_search`: its variables are the non-certain atoms
    of `interp`, atoms outside it are false (all of them: `~interp`) and the
    certain ones true, the rules act as clauses, and one more clause says
    that some variable is false. A model strictly inside contains a minimal
    one, and a minimal model is supported by the rules, so propagating them
    as support rules loses none."""
    free = interp & ~certain_mask
    clauses = active + [(0, free)]
    rules = [(head, pos, 0) for head, pos in active]
    return next(_search(clauses, rules, free, certain_mask, ~interp), None) is None


def _passes(g: GroundProgram, interp: int) -> bool:
    if _violates_constraints(g, interp):
        return False
    active = _reduct_rules(g, interp)
    if active is None:
        return False
    return _is_minimal_model(active, interp, g.certain_mask)


def _interpretation(g: GroundProgram, interpretation) -> int:
    """Mask of `interpretation` (an AnswerSet or iterable of atoms). Raises
    ValueError when it holds an atom outside `g` or misses one of `g`'s
    facts: such a set is never an answer set of `g`."""
    atoms = interpretation.atoms if isinstance(interpretation, AnswerSet) else frozenset(interpretation)
    mask = g.interpretation_mask(atoms)
    if mask is None or (g.certain_mask & ~mask) != 0:
        raise ValueError("the interpretation must contain every fact of the "
                         "ground program and no atom outside it")
    return mask


def is_answer_set(g: GroundProgram, interpretation) -> bool:
    """Textbook check: `interpretation` (an AnswerSet or iterable of atoms)
    is a minimal model of the reduct and satisfies every constraint."""
    try:
        mask = _interpretation(g, interpretation)
    except ValueError:
        return False
    return _passes(g, mask)


def reduct(g: GroundProgram, interpretation) -> GroundProgram:
    """Gelfond-Lifschitz reduct as a new ground program: rules whose negative
    body intersects the interpretation are dropped, the remaining ones keep
    only their positive part. Aggregates in headed rules are evaluated against
    the interpretation the same way; constraints keep theirs. Raises
    ValueError when the interpretation holds an atom outside `g` or misses
    one of its facts."""
    mask = _interpretation(g, interpretation)
    instances = [(frozenset({a}), frozenset(), frozenset(), (), None)
                 for a in _atoms_in(g.atoms, g.certain_mask)]
    for r in g._rules + g._constraints:
        if r.neg & mask:
            continue
        if r.head and not all(a.holds(mask) for a in r.aggregates):
            continue
        aggs = () if r.head else tuple(a.aggregate for a in r.aggregates)
        instances.append((g.mask_atoms(r.head), g.mask_atoms(r.pos), frozenset(), aggs, None))
    return _build_ground(g.universe, instances, ())


def _propagate(clauses, rules, unknown: int, true: int, false: int):
    """Extend the partial assignment (`true`, `false`: disjoint masks) to the
    fixpoint of two inferences that every answer set extending it obeys (or,
    over reduct rules, every minimal model); None on a conflict.

    - Clauses: a rule or constraint without #count is the clause "some atom
      of `t` is true or some atom of `f` is false" (head and negative body,
      positive body). A clause with every literal false is a conflict; one
      with a single open literal forces it.
    - Support: an unknown atom of an answer set heads a rule whose body
      holds and whose other head atoms are false, or dropping it would leave
      a smaller model of the reduct. So an unknown atom is false when every
      rule that heads it has a body atom decided against it, or another head
      atom already true. A #count never rules out support."""
    while True:
        before = true, false
        for t, f in clauses:
            if t & true or f & false:
                continue
            open_t = t & ~false
            open_f = f & ~true
            if not (open_t | open_f):
                return None
            if not open_t and not open_f & (open_f - 1):
                false |= open_f
            elif not open_f and not open_t & (open_t - 1):
                true |= open_t
        supported = 0
        for head, pos, neg in rules:
            if pos & false or neg & true:
                continue
            held = head & true
            if not held:
                supported |= head
            elif not held & (held - 1):
                supported |= held
        unsupported = unknown & ~supported
        if unsupported & true:
            return None
        false |= unsupported
        if (true, false) == before:
            return true, false


def _search(clauses, rules, unknown: int, true: int, false: int):
    """Depth-first search for the total assignments of the `unknown` atoms
    that extend `true` and `false` and survive `_propagate`, yielded as
    their true masks. Each node propagates to a fixpoint, then branches on
    the highest open atom id, false before true, so they come in the
    binary-counter order of a scan over all subsets of the unknown atoms."""
    stack = [(true, false)]
    while stack:
        node = _propagate(clauses, rules, unknown, *stack.pop())
        if node is None:
            continue
        true, false = node
        open_ = unknown & ~(true | false)
        if open_:
            bit = 1 << (open_.bit_length() - 1)
            stack.append((true | bit, false))
            stack.append((true, false | bit))
        else:
            yield true


def _answer_masks(g: GroundProgram):
    """The answer sets of `g` as true masks, by `_search` over the unknown
    atoms (certain atoms fixed true).

    The search propagates every rule and constraint without #count as a
    clause, and support. Every leaf, a total assignment, is kept only if
    `_passes` accepts it, so propagation only saves work and never decides.
    The leaves come in the order of a scan of all subsets of the unknown
    atoms. A trivially incoherent program has none."""
    if g.trivially_incoherent:
        return
    clauses = [(s.head | s.neg, s.pos) for s in g._rules + g._constraints
               if not s.aggregates]
    rules = [(r.head, r.pos, r.neg) for r in g._rules]
    for true in _search(clauses, rules, g.unknown_mask, g.certain_mask, 0):
        if _passes(g, true):
            yield true


def enumerate_answer_sets(g: GroundProgram, cap: Optional[int] = None) -> SolveResult:
    """The answer sets of `_answer_masks`, stopping once `cap` many are
    found, each kept as its mask and decoded into atoms on the first read
    of its `atoms`. As for a scan of all subsets of the unknown atoms,
    `exhausted` at the cap means the cap-th answer set was the last
    candidate, the one with every unknown atom true."""
    if cap is not None and cap <= 0:
        raise ValueError("cap must be positive")
    found: list[int] = []
    exhausted = True
    for true in _answer_masks(g):
        found.append(true)
        if cap is not None and len(found) >= cap:
            exhausted = true == g.certain_mask | g.unknown_mask
            break
    return SolveResult([AnswerSet._of_mask(g.atoms, m) for m in found],
                       exhausted=exhausted, incoherent=exhausted and not found)


# ---------------------------------------------------------------------------
# Weak constraints
# ---------------------------------------------------------------------------

def _penalty_mask(g: GroundProgram, interp: int, level: int) -> int:
    return sum(w.weight[0] for w in g._weaks if w.weight[1] == level and w.holds(interp))


def penalty(g: GroundProgram, answer_set, level: int) -> int:
    """Sum of the costs of the level's weak constraints whose body the
    answer set satisfies. Raises ValueError when the set holds an atom
    outside `g` or misses one of its facts."""
    return _penalty_mask(g, _interpretation(g, answer_set), level)


def optimal_answer_sets(g: GroundProgram) -> SolveResult:
    """Exactly the non-dominated answer sets, each with its per-level costs,
    kept as masks and decoded into atoms on the first read of their `atoms`.

    Domination compares penalties levelwise from the highest level down, so
    all optimal answer sets share one penalty vector, reported at every
    level of `g.levels`: 0 at a level none of whose weak constraints
    holds, or whose every one simplification removed. A program without
    weak constraints reports no costs.
    """
    levels = g.levels
    top_down = levels[::-1]
    found = [(tuple(_penalty_mask(g, m, l) for l in top_down), m) for m in _answer_masks(g)]
    best = min((v for v, _ in found), default=())
    picked = [AnswerSet._of_mask(g.atoms, m) for v, m in found if v == best]
    by_level = dict(zip(top_down, best))
    costs = {(i, l): by_level[l] for i in range(len(picked)) for l in levels}
    return SolveResult(answer_sets=picked, exhausted=True, incoherent=not picked,
                       costs=costs if levels else None)
