"""Exhaustive answer-set oracle for desk-scale programs.

The pipeline is: instantiate every rule over the Herbrand universe and
evaluate ground comparisons away, then simplify to a fixpoint by propagating
which atoms are possible (occur in the head of a surviving rule) and which
are certain (derived unconditionally). Candidate interpretations are then the
subsets of the remaining unknown atoms, scanned in binary-counter order and
checked with the textbook reduct/minimal-model test; constraints are enforced
directly against the candidate, which is equivalent because a violated
positive constraint body can only shrink when atoms are removed.

Capacity is deliberately tiny (22 unknown atoms, ~4M candidates): the oracle
exists to be obviously correct, not fast. Anything larger belongs to an
external solver.

Aggregates (`#count`) are evaluated against the candidate interpretation.
They are accepted in constraint and weak-constraint bodies, and in rule heads
only when non-recursive: if the counted predicate depends on the rule's own
head, the GL-style treatment would be ambiguous and UnsupportedAggregate is
raised instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

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
# Stage 1: naive instantiation
# ---------------------------------------------------------------------------

def _substitute_term(term: Term, subst: dict[str, Term]) -> Term:
    if isinstance(term, Variable):
        return subst.get(term.name, term)
    return term


def _substitute_atom(atom: Atom, subst: dict[str, Term]) -> Atom:
    return Atom(atom.predicate, tuple(_substitute_term(t, subst) for t in atom.args))


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


def _instantiate_statement(head, body, universe: Sequence[Term], budget: list[int]):
    """Yield (ground head tuple, ground literal list) instances; ground
    comparisons are evaluated (false drops the instance, true drops the
    literal). Aggregate-local variables survive untouched."""
    variables = _global_variables(head, body)
    for assignment in itertools.product(universe, repeat=len(variables)):
        budget[0] -= 1
        if budget[0] < 0:
            raise CapacityExceeded(
                "instantiation budget exceeded "
                f"({MAX_INSTANTIATIONS} ground instances)", rules=MAX_INSTANTIATIONS)
        subst = dict(zip(variables, assignment))
        ghead = tuple(_substitute_atom(a, subst) for a in head)
        glits: list[Literal] = []
        ok = True
        for lit in body:
            p = lit.payload
            if isinstance(p, Atom):
                glits.append(Literal(_substitute_atom(p, subst), lit.negated))
            elif isinstance(p, Comparison):
                left = _substitute_term(p.left, subst)
                right = _substitute_term(p.right, subst)
                if not compare_terms(p.op, left, right):
                    ok = False
                    break
            else:
                # globals are substituted, brace-local names survive
                agg = CountAggregate(
                    tuple(_substitute_term(t, subst) for t in p.terms),
                    _substitute_atom(p.condition, subst),
                    p.guard_op,
                    _substitute_term(p.guard, subst),
                )
                glits.append(Literal(agg, lit.negated))
        if ok:
            yield ghead, tuple(glits)


def instantiate_rules(rules: Iterable[Rule], universe: Iterable[Term]) -> list[Rule]:
    """The plain instantiation step, exposed for inspection: every rule is
    grounded over `universe` and comparison literals are evaluated away."""
    ordered = sorted(universe, key=term_key)
    budget = [MAX_INSTANTIATIONS]
    out: list[Rule] = []
    for rule in rules:
        for ghead, gbody in _instantiate_statement(rule.head, rule.body, ordered, budget):
            out.append(Rule(ghead, gbody, origin=rule.origin))
    return out


# ---------------------------------------------------------------------------
# Ground program with evaluation structures
# ---------------------------------------------------------------------------

@dataclass
class _GroundAggregate:
    guard_op: str
    guard: Term
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
        return compare_terms(self.guard_op, Integer(self.count(interp_mask)), self.guard)


@dataclass
class _GroundRule:
    head: int          # mask
    pos: int           # mask over unknown atoms
    neg: int
    aggregates: tuple[_GroundAggregate, ...]
    source: Rule       # simplified AST form, for display


@dataclass
class _GroundWeak:
    pos: int
    neg: int
    aggregates: tuple[_GroundAggregate, ...]
    cost: int
    level: int
    source: WeakConstraint


class GroundProgram:
    """Variable-free program plus the dense atom index used for enumeration.

    `atoms` lists every ground atom of the simplified program in canonical
    order; `certain` are the ids true in every answer set, everything else is
    decided by the scan. `rules` reconstructs an AST view (certain facts
    first, then the simplified rules).
    """

    def __init__(self, universe: list[Term], atoms: list[Atom],
                 certain_ids: set[int],
                 rules: list[_GroundRule], constraints: list[_GroundRule],
                 weaks: list[_GroundWeak], trivially_incoherent: bool,
                 has_weak_constraints: bool):
        self.universe = universe
        self.atoms = atoms
        self.atom_ids = {a: i for i, a in enumerate(atoms)}
        self.certain_ids = certain_ids
        self.unknown_ids = [i for i in range(len(atoms)) if i not in certain_ids]
        self.certain_mask = _mask(certain_ids)
        self._rules = rules
        self._constraints = constraints
        self._weaks = weaks
        self.trivially_incoherent = trivially_incoherent
        self.has_weak_constraints = has_weak_constraints

    @property
    def rules(self) -> tuple[Rule, ...]:
        facts = tuple(Rule((self.atoms[i],), ())
                      for i in sorted(self.certain_ids))
        rest = tuple(r.source for r in self._rules + self._constraints)
        return facts + rest

    @property
    def weak_constraints(self) -> tuple[WeakConstraint, ...]:
        return tuple(w.source for w in self._weaks)

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
        out = []
        i = 0
        while mask:
            if mask & 1:
                out.append(self.atoms[i])
            mask >>= 1
            i += 1
        return frozenset(out)


def _mask(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def _statement_parts(ghead, gbody):
    pos = frozenset(l.atom for l in gbody if l.is_atom() and not l.negated)
    neg = frozenset(l.atom for l in gbody if l.is_atom() and l.negated)
    aggs = tuple(l.payload for l in gbody if l.is_aggregate())
    return frozenset(ghead), pos, neg, aggs


def ground(program: Program, enforce_capacity: bool = True) -> GroundProgram:
    universe = sorted(herbrand_universe(program), key=term_key)
    budget = [MAX_INSTANTIATIONS]
    rule_insts: list[tuple] = []   # (head fset, pos fset, neg fset, aggs, source-ish)
    weak_insts: list[tuple] = []
    for rule in program.rules:
        for ghead, gbody in _instantiate_statement(rule.head, rule.body, universe, budget):
            rule_insts.append(_statement_parts(ghead, gbody))
    for wc in program.weak_constraints:
        for _, gbody in _instantiate_statement((), wc.body, universe, budget):
            _, pos, neg, aggs = _statement_parts((), gbody)
            weak_insts.append((pos, neg, aggs, wc.cost, wc.level))
    return _build_ground(universe, rule_insts, weak_insts,
                         bool(program.weak_constraints), enforce_capacity)


def _simplify(universe, rule_insts, weak_insts):
    """Possible/certain fixpoint; returns simplified instances plus the two
    atom sets and whether an always-violated constraint was found."""
    rules = list(dict.fromkeys(rule_insts))
    weaks = list(dict.fromkeys(weak_insts))
    trivially_incoherent = False
    # accumulated across iterations: once an atom is certain its deriving
    # rule is dropped, so the knowledge must not be recomputed from scratch
    certain: set[Atom] = set()
    while True:
        # possible: least fixpoint over positive bodies, negation ignored
        possible: set[Atom] = set(certain)
        changed = True
        while changed:
            changed = False
            for head, pos, neg, aggs in rules:
                if head and pos <= possible and not (head <= possible):
                    possible |= head
                    changed = True
        # certain: unit closure over rules whose negative part can never fire
        changed = True
        while changed:
            changed = False
            for head, pos, neg, aggs in rules:
                if (len(head) == 1 and not aggs and pos <= certain
                        and not (neg & possible) and not (head <= certain)):
                    certain |= head
                    changed = True

        new_rules = []
        for head, pos, neg, aggs in rules:
            if not (pos <= possible):       # unsatisfiable positive body
                continue
            if neg & certain:               # negated atom always true
                continue
            if head & certain:              # head already a fact
                continue
            pos2 = pos - certain
            neg2 = neg & possible
            if not head and not pos2 and not neg2 and not aggs:
                trivially_incoherent = True
            new_rules.append((head, pos2, neg2, aggs))
        new_rules = list(dict.fromkeys(new_rules))

        new_weaks = []
        for pos, neg, aggs, cost, level in weaks:
            if not (pos <= possible) or (neg & certain):
                continue
            new_weaks.append((pos - certain, neg & possible, aggs, cost, level))
        new_weaks = list(dict.fromkeys(new_weaks))

        if new_rules == rules and new_weaks == weaks:
            return rules, weaks, possible, certain, trivially_incoherent
        rules, weaks = new_rules, new_weaks


def _check_aggregate_stratification(rules):
    """Reject recursion through an aggregate: the counted predicate must not
    depend on the head of the rule the aggregate sits in."""
    depends: dict[str, set[str]] = {}
    for head, pos, neg, aggs in rules:
        for h in head:
            deps = depends.setdefault(h.predicate, set())
            deps.update(a.predicate for a in pos)
            deps.update(a.predicate for a in neg)
            deps.update(agg.condition.predicate for agg in aggs)

    def reachable(start: str) -> set[str]:
        seen, stack = set(), [start]
        while stack:
            p = stack.pop()
            for q in depends.get(p, ()):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return seen

    for head, pos, neg, aggs in rules:
        if not head or not aggs:
            continue
        head_preds = {h.predicate for h in head}
        for agg in aggs:
            cond = agg.condition.predicate
            if cond in head_preds or head_preds & reachable(cond):
                raise UnsupportedAggregate(
                    f"#count over {cond!r} occurs in the head rule defining it; "
                    "the oracle only supports non-recursive aggregates in "
                    "rules with heads")


def _build_ground(universe, rule_insts, weak_insts, has_weaks,
                  enforce_capacity: bool) -> GroundProgram:
    rules, weaks, possible, certain, trivially_incoherent = _simplify(
        universe, rule_insts, weak_insts)
    _check_aggregate_stratification(rules)

    atom_set: set[Atom] = set(certain)
    for head, pos, neg, aggs in rules:
        atom_set |= head | pos | neg
    for pos, neg, aggs, _, _ in weaks:
        atom_set |= pos | neg
    atoms = sorted(atom_set, key=Atom.sort_key)
    ids = {a: i for i, a in enumerate(atoms)}
    certain_ids = {ids[a] for a in certain}
    n_unknown = len(atoms) - len(certain_ids)
    n_rules = len(rules) + len(weaks)
    if enforce_capacity and (n_unknown > MAX_ENUM_ATOMS or n_rules > MAX_GROUND_RULES):
        raise CapacityExceeded(
            f"{n_unknown} undetermined ground atoms / {n_rules} ground rules exceed "
            f"the exhaustive-scan capacity ({MAX_ENUM_ATOMS} atoms, "
            f"{MAX_GROUND_RULES} rules)", atoms=n_unknown, rules=n_rules)

    def build_aggregate(agg: CountAggregate) -> _GroundAggregate:
        locals_ = sorted(agg.inner_variables())
        always: set[tuple] = set()
        conditional: dict[tuple, int] = {}
        for assignment in itertools.product(universe, repeat=len(locals_)):
            subst = dict(zip(locals_, assignment))
            cond = _substitute_atom(agg.condition, subst)
            value = tuple(term_key(_substitute_term(t, subst)) for t in agg.terms)
            if cond in certain:
                always.add(value)
            elif cond in possible:
                conditional[value] = conditional.get(value, 0) | (1 << ids[cond])
            # otherwise the condition can never hold
        return _GroundAggregate(agg.guard_op, agg.guard, frozenset(always), conditional)

    def to_source(head, pos, neg, aggs) -> Rule:
        body = tuple(Literal(a) for a in sorted(pos, key=Atom.sort_key))
        body += tuple(Literal(a, negated=True) for a in sorted(neg, key=Atom.sort_key))
        body += tuple(Literal(agg) for agg in aggs)
        return Rule(tuple(sorted(head, key=Atom.sort_key)), body)

    grules: list[_GroundRule] = []
    gconstraints: list[_GroundRule] = []
    for head, pos, neg, aggs in rules:
        gr = _GroundRule(
            head=_mask(ids[a] for a in head),
            pos=_mask(ids[a] for a in pos),
            neg=_mask(ids[a] for a in neg),
            aggregates=tuple(build_aggregate(a) for a in aggs),
            source=to_source(head, pos, neg, aggs),
        )
        (gconstraints if not head else grules).append(gr)

    gweaks = [
        _GroundWeak(
            pos=_mask(ids[a] for a in pos),
            neg=_mask(ids[a] for a in neg),
            aggregates=tuple(build_aggregate(a) for a in aggs),
            cost=cost,
            level=level,
            source=WeakConstraint(
                tuple(Literal(a) for a in sorted(pos, key=Atom.sort_key))
                + tuple(Literal(a, negated=True) for a in sorted(neg, key=Atom.sort_key))
                + tuple(Literal(agg) for agg in aggs),
                cost, level),
        )
        for pos, neg, aggs, cost, level in weaks
    ]
    return GroundProgram(universe, atoms, certain_ids, grules, gconstraints,
                         gweaks, trivially_incoherent, has_weaks)


def ground_from_rules(rules: Iterable[Rule], universe: Optional[Iterable[Term]] = None,
                      enforce_capacity: bool = True) -> GroundProgram:
    """Build a ground program directly from already-ground rules."""
    rule_insts = [_statement_parts(r.head, r.body) for r in rules]
    uni = sorted(universe, key=term_key) if universe is not None else \
        sorted(herbrand_universe(Program(tuple(rules))), key=term_key)
    return _build_ground(uni, rule_insts, [], False, enforce_capacity)


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


def is_answer_set(g: GroundProgram, interpretation) -> bool:
    """Textbook check: `interpretation` (an AnswerSet or iterable of atoms)
    is a minimal model of the reduct and satisfies every constraint."""
    atoms = interpretation.atoms if isinstance(interpretation, AnswerSet) else frozenset(interpretation)
    mask = g.interpretation_mask(atoms)
    if mask is None:
        return False
    if (g.certain_mask & ~mask) != 0:   # misses a fact
        return False
    return _passes(g, mask)


def reduct(g: GroundProgram, interpretation) -> GroundProgram:
    """Gelfond-Lifschitz reduct as a new ground program: rules whose negative
    body intersects the interpretation are dropped, the remaining ones keep
    only their positive part. Aggregates in headed rules are evaluated against
    the interpretation the same way."""
    atoms = interpretation.atoms if isinstance(interpretation, AnswerSet) else frozenset(interpretation)
    out: list[Rule] = []
    for rule in g.rules:
        if any(a in atoms for a in rule.negative_atoms()):
            continue
        body: list[Literal] = []
        dropped = False
        for lit in rule.body:
            if lit.is_atom():
                if not lit.negated:
                    body.append(lit)
            elif lit.is_aggregate():
                if rule.head:
                    if not _aggregate_holds_in(lit.payload, g.universe, atoms):
                        dropped = True
                        break
                    # satisfied: stripped like a negative literal
                else:
                    body.append(lit)
            else:
                body.append(lit)
        if dropped:
            continue
        out.append(Rule(rule.head, tuple(body)))
    return ground_from_rules(out, universe=g.universe, enforce_capacity=False)


def _aggregate_holds_in(agg: CountAggregate, universe, atoms: frozenset[Atom]) -> bool:
    """Evaluate a symbolic-ground #count literal against an atom set."""
    locals_ = sorted(agg.inner_variables())
    values = set()
    for assignment in itertools.product(universe, repeat=len(locals_)):
        subst = dict(zip(locals_, assignment))
        if _substitute_atom(agg.condition, subst) in atoms:
            values.add(tuple(term_key(_substitute_term(t, subst)) for t in agg.terms))
    return compare_terms(agg.guard_op, Integer(len(values)), agg.guard)


def enumerate_answer_sets(g: GroundProgram, cap: Optional[int] = None) -> SolveResult:
    """Scan all interpretations (certain atoms fixed, unknown atoms in
    binary-counter order over ascending atom ids) and collect the answer
    sets. Stops early once `cap` many are found."""
    if cap is not None and cap <= 0:
        raise ValueError("cap must be positive")
    result = SolveResult()
    if g.trivially_incoherent:
        result.incoherent = True
        result.exhausted = True
        return result
    unknown = g.unknown_ids
    n = len(unknown)
    if n > MAX_ENUM_ATOMS:
        raise CapacityExceeded(
            f"{n} undetermined atoms exceed the scan capacity", atoms=n)
    found: list[int] = []
    exhausted = True
    for counter in range(1 << n):
        interp = g.certain_mask
        k = counter
        idx = 0
        while k:
            if k & 1:
                interp |= 1 << unknown[idx]
            k >>= 1
            idx += 1
        if _passes(g, interp):
            found.append(interp)
            if cap is not None and len(found) >= cap:
                exhausted = counter == (1 << n) - 1
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
        if w.level != level:
            continue
        if (w.pos & ~interp) == 0 and (w.neg & interp) == 0 \
                and all(a.holds(interp) for a in w.aggregates):
            total += w.cost
    return total


def penalty(g: GroundProgram, answer_set, level: int) -> int:
    """Sum of the costs of the level's weak constraints whose body the
    answer set satisfies."""
    atoms = answer_set.atoms if isinstance(answer_set, AnswerSet) else frozenset(answer_set)
    mask = _mask(g.atom_ids[a] for a in atoms if a in g.atom_ids)
    return _penalty_mask(g, mask, level)


def penalty_levels(g: GroundProgram) -> list[int]:
    return sorted({w.level for w in g._weaks})


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
