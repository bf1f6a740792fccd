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
is found exactly once. The instances are emitted statement by statement in
program order (rules, then weak constraints), each statement's sorted by the
ground terms of its variables, which is the order of the product over the
sorted universe. MAX_INSTANTIATIONS bounds the instances emitted.

Every ground statement has one form from instantiation to search: a head,
a positive and a negative body (sets of ground atoms, later bit masks over
atom ids), the body's #count aggregates, and a weight. As in ASP-Core-2, a
weak constraint is a constraint with a weight, (cost, level); rules and
constraints have none. `GroundProgram.rules` and `weak_constraints` are AST
views rebuilt from that form on demand.

The answer sets are then found by depth-first search over the remaining
unknown atoms. Each node propagates to a fixpoint: every rule and
constraint without #count as a clause, and support (an unknown atom is
false when no rule that heads it can still have a true body and no other
true head atom). A conflict drops the branch. Branching takes the highest
open atom id first, false before true, so the leaves come in the
binary-counter order of a scan over all subsets of the unknown atoms.
Every leaf is checked with the textbook reduct/minimal-model test;
constraints are enforced directly against the candidate, which is
equivalent because a violated positive constraint body can only shrink when
atoms are removed. Propagation only prunes candidates that test rejects, so
it changes the cost of the search and never its result.

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
from operator import itemgetter
from typing import Iterable, Optional

from .model import (
    Atom,
    Comparison,
    CountAggregate,
    Integer,
    Literal,
    Program,
    Rule,
    Term,
    Variable,
    WeakConstraint,
    compare_terms,
    herbrand_universe,
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


@dataclass(frozen=True)
class AnswerSet:
    """One answer set, as a set of ground atoms."""

    atoms: frozenset[Atom]

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.atoms, key=Atom.sort_key)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms


@dataclass
class SolveResult:
    """Normalized solver outcome shared by the oracle and external backends.

    costs maps (answer set index, level) to the penalty at that level and is
    only populated for optimizing runs / COST-reporting solvers.
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

def _substitute_term(term: Term, subst: dict[str, Term]) -> Term:
    if isinstance(term, Variable):
        return subst.get(term.name, term)
    return term


def _substitute_atom(atom: Atom, subst: dict[str, Term]) -> Atom:
    return Atom(atom.predicate, tuple(_substitute_term(t, subst) for t in atom.args))


def _match(pattern: Atom, atom: Atom, subst: dict[str, Term]) -> Optional[dict[str, Term]]:
    """`subst` extended so that `pattern` becomes the ground `atom` of the
    same signature, or None when they clash. `subst` itself is not changed."""
    out = subst
    for p, a in zip(pattern.args, atom.args):
        if isinstance(p, Variable):
            bound = out.get(p.name)
            if bound is None:
                if out is subst:
                    out = dict(subst)
                out[p.name] = a
            elif bound != a:
                return None
        elif p != a:
            return None
    return out


def _global_variables(head: tuple[Atom, ...], body: tuple[Literal, ...]) -> list[str]:
    """Variables to instantiate: everything except aggregate-local names."""
    seen: list[str] = []
    outside: set[str] = set()

    def add(name: str):
        if name not in outside:
            outside.add(name)
            seen.append(name)

    for a in head:
        for v in a.variables():
            add(v)
    for lit in body:
        p = lit.payload
        if isinstance(p, Atom):
            for v in p.variables():
                add(v)
        elif isinstance(p, Comparison):
            for v in p.variables():
                add(v)
        else:
            for v in p.guard_variables():
                add(v)
    # a brace-local name that also occurs outside its aggregate is global and
    # was already collected through that other occurrence
    return seen


class _AtomIndex:
    """The atoms derived so far. Each atom is stamped with its position in
    derivation order and listed, in that order, under its signature and under
    every (signature, position, argument) it has. A lookup returns the atoms
    stamped in [lo, hi) that agree with a pattern's first bound argument."""

    def __init__(self):
        self.atoms: set[Atom] = set()
        self._lists: dict[tuple, tuple[list[int], list[Atom]]] = {}

    def __len__(self) -> int:
        return len(self.atoms)

    def add(self, atom: Atom) -> None:
        if atom in self.atoms:
            return
        stamp = len(self.atoms)
        self.atoms.add(atom)
        sig = atom.signature
        for key in [sig] + [(sig, i, t) for i, t in enumerate(atom.args)]:
            stamps, atoms = self._lists.setdefault(key, ([], []))
            stamps.append(stamp)
            atoms.append(atom)

    def lookup(self, pattern: Atom, subst: dict[str, Term], lo: int, hi: int) -> list[Atom]:
        sig = pattern.signature
        key = sig
        for i, t in enumerate(pattern.args):
            if isinstance(t, Variable):
                t = subst.get(t.name)
                if t is None:
                    continue
            key = (sig, i, t)
            break
        entry = self._lists.get(key)
        if entry is None:
            return []
        stamps, atoms = entry
        return atoms[bisect_left(stamps, lo):bisect_left(stamps, hi)]


def _holds(c: Comparison, subst: dict[str, Term]) -> bool:
    return compare_terms(c.op, _substitute_term(c.left, subst),
                         _substitute_term(c.right, subst))


class _Join:
    """One rule or weak constraint prepared for instantiation.

    Safety puts every global variable in a positive body atom, so the ground
    instances whose positive body consists of derived atoms are exactly the
    ways of matching those atoms, in turn, against the index. A comparison is
    tested as soon as the atoms matched so far bind its variables."""

    def __init__(self, statement: Rule | WeakConstraint):
        weak = isinstance(statement, WeakConstraint)
        self.statement = statement
        self.head = () if weak else statement.head
        self.weight = (statement.cost, statement.level) if weak else None
        self.variables = _global_variables(self.head, statement.body)
        self.positive = [l.payload for l in statement.body
                         if isinstance(l.payload, Atom) and not l.negated]
        comparisons = [l.payload for l in statement.body
                       if isinstance(l.payload, Comparison)]
        # ground comparisons decide the statement before any matching
        self.ground_checks = [c for c in comparisons if not any(c.variables())]
        # plans[i]: the positive atoms with atom i first, each paired with the
        # comparisons whose last unbound variable it binds
        self.plans = []
        for i in range(len(self.positive)):
            bound: set[str] = set()
            pending = [c for c in comparisons if any(c.variables())]
            steps = []
            for j in [i] + [j for j in range(len(self.positive)) if j != i]:
                bound.update(self.positive[j].variables())
                steps.append((j, [c for c in pending if set(c.variables()) <= bound]))
                pending = [c for c in pending if not set(c.variables()) <= bound]
            self.plans.append(steps)

    def bindings(self, index: _AtomIndex, lo: int, hi: int):
        """The assignments of one semi-naive round: the index holds the atoms
        stamped below `hi`, and those from `lo` on are new this round. Every
        assignment matches at least one new atom, and each is yielded in
        exactly one round: plan i takes atom i from the new ones, the atoms
        before it from the old ones and those after it from all of them. A
        statement without positive atoms has one assignment, in the first
        round."""
        if not all(_holds(c, {}) for c in self.ground_checks):
            return
        if not self.positive:
            if hi == 0:
                yield {}
            return
        for i, steps in enumerate(self.plans):
            windows = [(0, lo) if j < i else (lo, hi) if j == i else (0, hi)
                       for j, _ in steps]
            yield from self._extend(index, steps, windows, 0, {})

    def _extend(self, index, steps, windows, depth, subst):
        if depth == len(steps):
            yield subst
            return
        j, checks = steps[depth]
        pattern = self.positive[j]
        lo, hi = windows[depth]
        for atom in index.lookup(pattern, subst, lo, hi):
            extended = _match(pattern, atom, subst)
            if extended is not None and all(_holds(c, extended) for c in checks):
                yield from self._extend(index, steps, windows, depth + 1, extended)

    def instance(self, subst: dict[str, Term]) -> tuple:
        """(head, pos, neg, aggregates, weight) under `subst`: frozensets of
        ground atoms, and the body's #count aggregates with global variables
        substituted (brace-local names survive)."""
        pos: list[Atom] = []
        neg: list[Atom] = []
        aggs: list[CountAggregate] = []
        for lit in self.statement.body:
            p = lit.payload
            if isinstance(p, Atom):
                (neg if lit.negated else pos).append(_substitute_atom(p, subst))
            elif isinstance(p, CountAggregate):
                aggs.append(CountAggregate(
                    tuple(_substitute_term(t, subst) for t in p.terms),
                    _substitute_atom(p.condition, subst),
                    p.guard_op,
                    _substitute_term(p.guard, subst),
                ))
        return (frozenset(_substitute_atom(a, subst) for a in self.head),
                frozenset(pos), frozenset(neg), tuple(aggs), self.weight)

    def budget_exceeded(self, universe_size: int) -> CapacityExceeded:
        s = self.statement
        text = (rule_to_text if self.weight is None else weak_constraint_to_text)(s)
        where = f" at {s.origin}" if s.origin else ""
        return CapacityExceeded(
            f"instantiation budget exceeded ({MAX_INSTANTIATIONS} ground "
            f"instances) grounding `{text}`{where} over a universe of "
            f"{universe_size} constants", rules=MAX_INSTANTIATIONS)


def _instantiate(statements, universe_size: int) -> list[tuple]:
    """The ground instances, as (head, pos, neg, aggregates, weight), whose
    positive body lies in the least fixpoint of the heads with negation and
    aggregates ignored: the atoms that are possible at all. Semi-naive rounds
    reach that fixpoint; a round joins a statement only against the atoms
    derived in the round before. Statements keep their order, and each one's
    instances are sorted by the ground terms of its variables in
    `_global_variables` order, which is the order of the product over the
    sorted universe."""
    joins = [_Join(s) for s in statements]
    found: list[list[tuple]] = [[] for _ in joins]  # per statement: (key, instance)
    index = _AtomIndex()
    emitted = 0
    lo = hi = 0
    while True:
        for join, out in zip(joins, found):
            for subst in join.bindings(index, lo, hi):
                emitted += 1
                if emitted > MAX_INSTANTIATIONS:
                    raise join.budget_exceeded(universe_size)
                inst = join.instance(subst)
                out.append((tuple(term_key(subst[v]) for v in join.variables), inst))
                for a in inst[0]:
                    index.add(a)
        if len(index) == hi:
            break
        lo, hi = hi, len(index)
    return [inst for out in found for _, inst in sorted(out, key=itemgetter(0))]


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


class GroundProgram:
    """Variable-free program plus the dense atom index used for enumeration.

    `atoms` lists every ground atom of the simplified program in canonical
    order; `certain` are the ids true in every answer set, everything else is
    decided by the search. `rules` and `weak_constraints` are AST views built
    on demand from the masks (certain facts first, then the simplified rules).
    """

    def __init__(self, universe: list[Term], atoms: list[Atom],
                 certain_ids: set[int], statements: list[_GroundStatement],
                 trivially_incoherent: bool, has_weak_constraints: bool):
        self.universe = universe
        self.atoms = atoms
        self.atom_ids = {a: i for i, a in enumerate(atoms)}
        self.certain_ids = certain_ids
        self.unknown_ids = [i for i in range(len(atoms)) if i not in certain_ids]
        self.certain_mask = _mask(certain_ids)
        self._rules = [s for s in statements if s.head]
        self._constraints = [s for s in statements if not s.head and s.weight is None]
        self._weaks = [s for s in statements if s.weight is not None]
        self.trivially_incoherent = trivially_incoherent
        self.has_weak_constraints = has_weak_constraints

    def _sorted_atoms(self, mask: int) -> tuple[Atom, ...]:
        """The atoms of `mask` in id order, which is the canonical order."""
        return tuple(a for i, a in enumerate(self.atoms) if mask >> i & 1)

    def _body(self, s: _GroundStatement) -> tuple[Literal, ...]:
        return (tuple(Literal(a) for a in self._sorted_atoms(s.pos))
                + tuple(Literal(a, negated=True) for a in self._sorted_atoms(s.neg))
                + tuple(Literal(agg.aggregate) for agg in s.aggregates))

    @property
    def rules(self) -> tuple[Rule, ...]:
        facts = tuple(Rule((self.atoms[i],), ())
                      for i in sorted(self.certain_ids))
        rest = tuple(Rule(self._sorted_atoms(s.head), self._body(s))
                     for s in self._rules + self._constraints)
        return facts + rest

    @property
    def weak_constraints(self) -> tuple[WeakConstraint, ...]:
        return tuple(WeakConstraint(self._body(s), *s.weight) for s in self._weaks)

    def certain_atoms(self) -> frozenset[Atom]:
        return frozenset(self.atoms[i] for i in sorted(self.certain_ids))

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
        return frozenset(self._sorted_atoms(mask))


def _mask(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def ground(program: Program) -> GroundProgram:
    universe = sorted(herbrand_universe(program), key=term_key)
    instances = _instantiate(program.rules + program.weak_constraints, len(universe))
    return _build_ground(universe, instances, bool(program.weak_constraints))


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


def _simplify(instances):
    """Van Gelder's alternating fixpoint for the well-founded model, extended
    to disjunctive heads and #count. The possible atoms close the certain
    ones under the rules with no certain head or negated atom; the certain
    atoms close under the single-head rules without #count whose negated
    atoms are all impossible. Certain only grows, possible only shrinks and
    follows from certain, so the loop stops once certain does. Returns the
    reduced, deduplicated instances, both sets, and whether a constraint
    always fires."""
    certain: set[Atom] = set()
    while True:
        possible = _closure([(head, pos) for head, pos, neg, _, _ in instances
                             if head and not (head | neg) & certain], certain)
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


def _build_ground(universe, instances, has_weaks) -> GroundProgram:
    stmts, possible, certain, trivially_incoherent = _simplify(instances)
    _check_aggregate_stratification(stmts)

    # a possible atom is certain or heads a kept rule, and kept statements
    # mention only possible atoms
    atoms = sorted(possible, key=Atom.sort_key)
    ids = {a: i for i, a in enumerate(atoms)}
    certain_ids = {ids[a] for a in certain}
    n_unknown = len(atoms) - len(certain_ids)
    n_rules = len(stmts)
    if n_unknown > MAX_ENUM_ATOMS or n_rules > MAX_GROUND_RULES:
        raise CapacityExceeded(
            f"{n_unknown} undetermined ground atoms / {n_rules} ground rules exceed "
            f"the exhaustive-scan capacity ({MAX_ENUM_ATOMS} atoms, "
            f"{MAX_GROUND_RULES} rules)", atoms=n_unknown, rules=n_rules)

    by_signature: dict[tuple[str, int], list[Atom]] = {}
    for a in possible:
        by_signature.setdefault(a.signature, []).append(a)

    def build_aggregate(agg: CountAggregate) -> _GroundAggregate:
        # aggregate safety puts every term variable in the condition, so the
        # possible atoms the condition matches give every countable tuple
        always: set[tuple] = set()
        conditional: dict[tuple, int] = {}
        for cond in by_signature.get(agg.condition.signature, ()):
            subst = _match(agg.condition, cond, {})
            if subst is None:
                continue
            value = tuple(term_key(_substitute_term(t, subst)) for t in agg.terms)
            if cond in certain:
                always.add(value)
            else:
                conditional[value] = conditional.get(value, 0) | (1 << ids[cond])
        return _GroundAggregate(agg, frozenset(always), conditional)

    statements = [
        _GroundStatement(
            head=_mask(ids[a] for a in head),
            pos=_mask(ids[a] for a in pos),
            neg=_mask(ids[a] for a in neg),
            aggregates=tuple(build_aggregate(a) for a in aggs),
            weight=weight,
        )
        for head, pos, neg, aggs, weight in stmts
    ]
    return GroundProgram(universe, atoms, certain_ids, statements,
                         trivially_incoherent, has_weaks)


# ---------------------------------------------------------------------------
# Answer-set checking and enumeration
# ---------------------------------------------------------------------------

def _violates_constraints(g: GroundProgram, interp: int) -> bool:
    for c in g._constraints:
        if (c.pos & ~interp) == 0 and (c.neg & interp) == 0 \
                and all(a.holds(interp) for a in c.aggregates):
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
    # forced lower bound: unit propagation over rules with a single head
    # atom inside interp
    lower = certain_mask & interp
    changed = True
    while changed:
        changed = False
        for head, pos in active:
            if (pos & ~lower) == 0:
                hc = head & interp
                if hc and (hc & (hc - 1)) == 0 and (hc & ~lower):
                    lower |= hc
                    changed = True
    free = interp & ~lower
    if free == 0:
        return True
    free_bits = []
    b = free
    while b:
        low = b & -b
        free_bits.append(low)
        b ^= low
    # scan proper subsets lower | S with S a strict subset of the free atoms
    for k in range(2 ** len(free_bits) - 1):
        sub = lower
        kk = k
        idx = 0
        while kk:
            if kk & 1:
                sub |= free_bits[idx]
            kk >>= 1
            idx += 1
        if all(not ((pos & ~sub) == 0 and (head & sub) == 0) for head, pos in active):
            return False
    return True


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
    instances = [(frozenset({g.atoms[i]}), frozenset(), frozenset(), (), None)
                 for i in sorted(g.certain_ids)]
    for r in g._rules + g._constraints:
        if r.neg & mask:
            continue
        if r.head and not all(a.holds(mask) for a in r.aggregates):
            continue
        aggs = () if r.head else tuple(a.aggregate for a in r.aggregates)
        instances.append((g.mask_atoms(r.head), g.mask_atoms(r.pos), frozenset(), aggs, None))
    return _build_ground(g.universe, instances, False)


def _propagate(clauses, rules, unknown: int, true: int, false: int):
    """Extend the partial assignment (`true`, `false`: disjoint masks) to the
    fixpoint of two inferences that every answer set extending it obeys;
    None when one of them finds a conflict.

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


def enumerate_answer_sets(g: GroundProgram, cap: Optional[int] = None) -> SolveResult:
    """Collect the answer sets by depth-first search over the unknown atoms
    (certain atoms fixed true), stopping once `cap` many are found.

    Each node runs `_propagate` to a fixpoint and drops the branch on a
    conflict, then branches on the highest open atom id, false before true.
    So the leaves come in binary-counter order over ascending atom ids: the
    order of a scan of all subsets of the unknown atoms, minus the subsets
    propagation ruled out. Every leaf, a total assignment, is kept only if
    `_passes` accepts it, so propagation only saves work and never decides.
    As for that scan, `exhausted` at the cap means the cap-th answer set
    was the last candidate, the one with every unknown atom true."""
    if cap is not None and cap <= 0:
        raise ValueError("cap must be positive")
    result = SolveResult()
    if g.trivially_incoherent:
        result.incoherent = True
        result.exhausted = True
        return result
    n = len(g.unknown_ids)
    if n > MAX_ENUM_ATOMS:
        raise CapacityExceeded(
            f"{n} undetermined atoms exceed the scan capacity", atoms=n)
    unknown = _mask(g.unknown_ids)
    clauses = [(s.head | s.neg, s.pos) for s in g._rules + g._constraints
               if not s.aggregates]
    rules = [(r.head, r.pos, r.neg) for r in g._rules]
    found: list[int] = []
    exhausted = True
    stack = [(g.certain_mask, 0)]
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
        elif _passes(g, true):
            found.append(true)
            if cap is not None and len(found) >= cap:
                exhausted = true == g.certain_mask | unknown
                break
    result.answer_sets = [AnswerSet(g.mask_atoms(m)) for m in found]
    result.exhausted = exhausted
    result.incoherent = exhausted and not found
    return result


# ---------------------------------------------------------------------------
# Weak constraints
# ---------------------------------------------------------------------------

def _penalty_mask(g: GroundProgram, interp: int, level: int) -> int:
    total = 0
    for w in g._weaks:
        cost, w_level = w.weight
        if w_level != level:
            continue
        if (w.pos & ~interp) == 0 and (w.neg & interp) == 0 \
                and all(a.holds(interp) for a in w.aggregates):
            total += cost
    return total


def penalty(g: GroundProgram, answer_set, level: int) -> int:
    """Sum of the costs of the level's weak constraints whose body the
    answer set satisfies. Raises ValueError when the set holds an atom
    outside `g` or misses one of its facts."""
    return _penalty_mask(g, _interpretation(g, answer_set), level)


def penalty_levels(g: GroundProgram) -> list[int]:
    return sorted({w.weight[1] for w in g._weaks})


def optimal_answer_sets(g: GroundProgram) -> SolveResult:
    """Exactly the non-dominated answer sets, each with its per-level costs.

    Domination compares penalties levelwise from the highest level down, so
    all optimal answer sets share one penalty vector.
    """
    base = enumerate_answer_sets(g, cap=None)
    if base.incoherent or not base.answer_sets:
        base.costs = {} if g.has_weak_constraints else None
        return base
    levels = penalty_levels(g)
    vectors = []
    for a in base.answer_sets:
        mask = g.interpretation_mask(a.atoms)
        vectors.append(tuple(_penalty_mask(g, mask, l) for l in sorted(levels, reverse=True)))
    best = min(vectors) if vectors else ()
    picked = [a for a, v in zip(base.answer_sets, vectors) if v == best]
    costs: dict[tuple[int, int], int] = {}
    by_level = dict(zip(sorted(levels, reverse=True), best))
    for i, _ in enumerate(picked):
        for l in levels:
            costs[(i, l)] = by_level[l]
    return SolveResult(answer_sets=picked, exhausted=True, incoherent=False,
                       costs=costs if g.has_weak_constraints else None)
