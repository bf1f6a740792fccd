"""Shared test utilities: an independent brute-force reference for answer
sets and assertion semantics, plus random program generators.

The brute enumerator and the naive grounder implement the definitions
literally (every variable takes every constant, reduct over every ground
rule, minimality by scanning all proper subsets) with none of the
simplification machinery of the production oracle, so the two can check each
other.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from asp_testkit.model import (
    Atom,
    BestModelCost,
    Comparison,
    Constant,
    ConstraintForAll,
    ConstraintInAtLeast,
    ConstraintInAtMost,
    ConstraintInExactly,
    Integer,
    Literal,
    NoAnswerSet,
    Program,
    Rule,
    TrueInAll,
    TrueInAtLeast,
    TrueInAtMost,
    TrueInExactly,
    Variable,
    WeakConstraint,
    compare_terms,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def atom(pred: str, *args) -> Atom:
    def term(a):
        if isinstance(a, int):
            return Integer(a)
        if isinstance(a, str) and (a[0].isupper() or a[0] == "_"):
            return Variable(a)
        return Constant(a)

    return Atom(pred, tuple(term(a) for a in args))


def lit(pred: str, *args, neg: bool = False) -> Literal:
    return Literal(atom(pred, *args), negated=neg)


# ---------------------------------------------------------------------------
# Naive grounder (aggregate-free programs)
# ---------------------------------------------------------------------------

def naive_ground(rules, universe) -> list[Rule]:
    """Every instance of every rule over `universe`: each variable of a rule
    takes each constant in turn, an instance with a false comparison is
    dropped and true comparisons are removed. No simplification."""
    out = []
    for rule in rules:
        if any(l.is_aggregate() for l in rule.body):
            raise NotImplementedError("the naive grounder has no aggregates")
        atoms = [l.atom for l in rule.body if l.is_atom()]
        comparisons = [l.payload for l in rule.body if l.is_comparison()]
        terms = [t for a in rule.head + tuple(atoms) for t in a.args]
        terms += [t for c in comparisons for t in (c.left, c.right)]
        variables = sorted({t for t in terms if isinstance(t, Variable)}, key=lambda v: v.name)
        for values in itertools.product(universe, repeat=len(variables)):
            subst = dict(zip(variables, values))

            def inst(a: Atom) -> Atom:
                return Atom(a.predicate, tuple(subst.get(t, t) for t in a.args))

            if all(compare_terms(c.op, subst.get(c.left, c.left), subst.get(c.right, c.right))
                   for c in comparisons):
                body = tuple(Literal(inst(l.atom), l.negated) for l in rule.body if l.is_atom())
                out.append(Rule(tuple(inst(a) for a in rule.head), body))
    return out


# ---------------------------------------------------------------------------
# Brute-force reference semantics (ground, aggregate-free programs)
# ---------------------------------------------------------------------------

def _collect_atoms(rules) -> list[Atom]:
    atoms = set()
    for r in rules:
        atoms.update(r.head)
        for l in r.body:
            if l.is_atom():
                atoms.add(l.atom)
    return sorted(atoms, key=Atom.sort_key)


def _models(interp: frozenset[Atom], reduct_rules) -> bool:
    for head, pos in reduct_rules:
        if pos <= interp and not (head & interp):
            return False
    return True


def brute_answer_sets(rules) -> list[frozenset[Atom]]:
    """Every answer set of a ground aggregate-free program, by definition."""
    # evaluate ground comparison literals up front
    kept = []
    for r in rules:
        comparisons = [l.payload for l in r.body if l.is_comparison()]
        if all(compare_terms(c.op, c.left, c.right) for c in comparisons):
            kept.append(Rule(r.head, tuple(l for l in r.body if l.is_atom())))
    rules = kept

    atoms = _collect_atoms(rules)
    n = len(atoms)
    answer_sets = []
    for bits in range(1 << n):
        interp = frozenset(a for i, a in enumerate(atoms) if bits >> i & 1)
        reduct = []
        for r in rules:
            if any(l.atom in interp for l in r.body if l.is_atom() and l.negated):
                continue
            pos = frozenset(l.atom for l in r.body if l.is_atom() and not l.negated)
            reduct.append((frozenset(r.head), pos))
        if not _models(interp, reduct):
            continue
        minimal = True
        members = sorted(interp, key=Atom.sort_key)
        for sub_bits in range((1 << len(members)) - 1):
            sub = frozenset(a for i, a in enumerate(members) if sub_bits >> i & 1)
            if _models(sub, reduct):
                minimal = False
                break
        if minimal:
            answer_sets.append(interp)
    return answer_sets


def _body_satisfied(body, interp: frozenset[Atom]) -> bool:
    for l in body:
        if l.is_atom():
            if l.negated == (l.atom in interp):
                return False
        elif l.is_comparison():
            c = l.payload
            if not compare_terms(c.op, c.left, c.right):
                return False
        else:
            raise NotImplementedError("brute reference has no aggregates")
    return True


def brute_penalty(program: Program, interp: frozenset[Atom], level: int) -> int:
    return sum(w.cost for w in program.weak_constraints
               if w.level == level and _body_satisfied(w.body, interp))


def brute_optimal(program: Program, answer_sets) -> list[frozenset[Atom]]:
    """Non-dominated answer sets by the levelwise definition, literally."""
    levels = sorted({w.level for w in program.weak_constraints})

    def dominated(m, others):
        for m2 in others:
            if m2 == m:
                continue
            for l in levels:
                if brute_penalty(program, m2, l) < brute_penalty(program, m, l) \
                        and all(brute_penalty(program, m2, k) == brute_penalty(program, m, k)
                                for k in levels if k > l):
                    return True
        return False

    return [m for m in answer_sets if not dominated(m, answer_sets)]


def direct_verdict(program: Program, assertion) -> str:
    """Assertion semantics computed straight from the enumerated answer
    sets, with no tester-program encoding involved."""
    answer_sets = brute_answer_sets(program.rules)

    def containing(atoms):
        want = set(atoms)
        return [m for m in answer_sets if want <= m]

    def satisfying(constraint):
        return [m for m in answer_sets if not _body_satisfied(constraint.body, m)]

    if isinstance(assertion, NoAnswerSet):
        ok = not answer_sets
    elif isinstance(assertion, TrueInAll):
        ok = all(set(assertion.atoms) <= m for m in answer_sets)
    elif isinstance(assertion, TrueInAtLeast):
        ok = len(containing(assertion.atoms)) >= assertion.count
    elif isinstance(assertion, TrueInAtMost):
        ok = len(containing(assertion.atoms)) <= assertion.count
    elif isinstance(assertion, TrueInExactly):
        ok = len(containing(assertion.atoms)) == assertion.count
    elif isinstance(assertion, ConstraintForAll):
        ok = len(satisfying(assertion.constraint)) == len(answer_sets)
    elif isinstance(assertion, ConstraintInAtLeast):
        ok = len(satisfying(assertion.constraint)) >= assertion.count
    elif isinstance(assertion, ConstraintInAtMost):
        ok = len(satisfying(assertion.constraint)) <= assertion.count
    elif isinstance(assertion, ConstraintInExactly):
        ok = len(satisfying(assertion.constraint)) == assertion.count
    elif isinstance(assertion, BestModelCost):
        optimal = brute_optimal(program, answer_sets)
        ok = bool(optimal) and brute_penalty(program, optimal[0], assertion.level) == assertion.cost
    else:
        raise TypeError(assertion)
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# Random generators (propositional, within oracle capacity)
# ---------------------------------------------------------------------------

ATOM_POOL = [Atom(name) for name in "abcdefghij"]


def random_program(rng: random.Random, max_atoms: int = 6,
                   with_weaks: bool = True) -> Program:
    atoms = ATOM_POOL[:rng.randint(2, max_atoms)]
    rules = []
    for _ in range(rng.randint(1, 7)):
        head = tuple(rng.sample(atoms, rng.choice([0, 1, 1, 1, 2])))
        n_body = rng.randint(0 if head else 1, 3)
        body = []
        for a in rng.sample(atoms, min(n_body, len(atoms))):
            body.append(Literal(a, negated=rng.random() < 0.4))
        if rng.random() < 0.15:
            i, j = rng.randint(0, 2), rng.randint(0, 2)
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            body.append(Literal(Comparison(op, Integer(i), Integer(j))))
        if not head and not body:
            body.append(Literal(rng.choice(atoms)))
        rules.append(Rule(head, tuple(body)))
    weaks = []
    if with_weaks and rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            body = tuple(Literal(a, negated=rng.random() < 0.4)
                         for a in rng.sample(atoms, rng.randint(1, 2)))
            weaks.append(WeakConstraint(body, cost=rng.randint(0, 3),
                                        level=rng.randint(0, 2)))
    return Program(tuple(rules), tuple(weaks))


def random_nonground_program(rng: random.Random) -> tuple[Program, list]:
    """A safe program with variables and comparisons over 2-3 constants, and
    its Herbrand universe: `d/1` holds every constant, `p/1`, `q/1` and `r`
    are defined by random rules whose variables `d` binds."""
    constants = [Integer(i) for i in range(1, rng.randint(2, 3) + 1)]
    if rng.random() < 0.3:
        constants[-1] = Constant("c")  # every integer precedes every symbol
    rules = [Rule((Atom("d", (c,)),), ()) for c in constants]
    for _ in range(rng.randint(2, 5)):
        names = rng.sample(["X", "Y"], rng.randint(0, 2))
        body = [Literal(Atom("d", (Variable(n),))) for n in names]
        for _ in range(rng.randint(0 if names else 1, 2)):
            arg = Variable(rng.choice(names)) if names else rng.choice(constants)
            body.append(Literal(Atom(rng.choice("pq"), (arg,)), negated=rng.random() < 0.5))
        if rng.random() < 0.3:
            body.append(Literal(Atom("r"), negated=rng.random() < 0.5))
        if names and rng.random() < 0.5:
            right = Variable(rng.choice(names)) if rng.random() < 0.5 else rng.choice(constants)
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            body.append(Literal(Comparison(op, Variable(names[0]), right)))
        shape = rng.random()
        if names and shape < 0.75:
            head = tuple(Atom(pred, (Variable(names[0]),))
                         for pred in rng.sample("pq", rng.randint(1, 2)))
        elif shape < 0.9:
            head = (Atom("r"),)
        else:
            head = ()
        rules.append(Rule(head, tuple(body)))
    return Program(tuple(rules)), constants


def random_assertion(rng: random.Random, program: Program, kind: str):
    atoms = sorted({a for r in program.rules for a in r.head}, key=Atom.sort_key) \
        or [Atom("a")]
    picked = tuple(rng.sample(atoms, min(rng.randint(1, 2), len(atoms))))
    k = rng.randint(1, 4)
    body = tuple(Literal(a, negated=rng.random() < 0.5)
                 for a in rng.sample(atoms, min(rng.randint(1, 2), len(atoms))))
    constraint = Rule((), body)
    if kind == "noAnswerSet":
        return NoAnswerSet()
    if kind == "trueInAll":
        return TrueInAll(picked)
    if kind == "trueInAtLeast":
        return TrueInAtLeast(k, picked)
    if kind == "trueInAtMost":
        return TrueInAtMost(rng.randint(0, 4), picked)
    if kind == "trueInExactly":
        return TrueInExactly(rng.randint(0, 4), picked)
    if kind == "constraintForAll":
        return ConstraintForAll(constraint)
    if kind == "constraintInAtLeast":
        return ConstraintInAtLeast(k, constraint)
    if kind == "constraintInAtMost":
        return ConstraintInAtMost(rng.randint(0, 4), constraint)
    if kind == "constraintInExactly":
        return ConstraintInExactly(rng.randint(0, 4), constraint)
    if kind == "bestModelCost":
        return BestModelCost(cost=rng.randint(0, 4), level=rng.randint(0, 2))
    raise ValueError(kind)
