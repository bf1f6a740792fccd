"""Shared test utilities: an independent brute-force reference for answer
sets and assertion semantics, references for rewritten layers (ground
simplification, the lexer, the annotation reader), plus random program
generators.

The brute enumerator and the naive grounders implement the definitions
literally (every variable takes every constant, #count counts over every
constant, reduct over every ground rule, minimality by scanning proper
subsets) with none of the simplification machinery of the production
oracle, so the two can check each other.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional

from asp_testkit import oracle
from asp_testkit.parser import (
    _LineIndex,
    _PAYLOAD_PARSERS,
    _Token,
    _TokenStream,
    _check_safety,
    _classify_word,
    _file_offset,
    _Issue,
    _parse_rule_or_weak,
    _scan,
    _show,
    _sync_statement,
    ParseError,
    SourceUnit,
)
from asp_testkit.oracle import UnsupportedAggregate
from asp_testkit.model import (
    ASSERTION_CLASSES,
    Assertion,
    Atom,
    BestModelCost,
    Comparison,
    Constant,
    ConstraintForAll,
    ConstraintInAtLeast,
    ConstraintInAtMost,
    ConstraintInExactly,
    CountAggregate,
    Integer,
    Literal,
    NoAnswerSet,
    Program,
    Rule,
    TestSpec,
    TestSuite,
    TrueInAll,
    TrueInAtLeast,
    TrueInAtMost,
    TrueInExactly,
    Variable,
    WeakConstraint,
    compare_terms,
    herbrand_universe,
    term_key,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def untimed(doc):
    """A report's JSON document without its wall-clock fields."""
    if isinstance(doc, dict):
        return {k: untimed(v) for k, v in doc.items() if k not in ("wall_ms", "total_wall_ms")}
    if isinstance(doc, list):
        return [untimed(v) for v in doc]
    return doc


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
# Naive grounders
# ---------------------------------------------------------------------------

def _subst_term(t, subst):
    return subst.get(t.name, t) if isinstance(t, Variable) else t


def _subst_atom(a: Atom, subst) -> Atom:
    return Atom(a.predicate, tuple(_subst_term(t, subst) for t in a.args))


def _subst_aggregate(agg: CountAggregate, subst) -> CountAggregate:
    return CountAggregate(tuple(_subst_term(t, subst) for t in agg.terms),
                          _subst_atom(agg.condition, subst), agg.guard_op,
                          _subst_term(agg.guard, subst))


def global_variables(head: tuple[Atom, ...], body: tuple[Literal, ...],
                     guards: bool = True) -> list[str]:
    """The variables of a statement outside its #count braces, in the order
    they first occur: the head's, then the body's from left to right, where
    a #count contributes its guard variable (with `guards`) or nothing."""
    names = [v for a in head for v in a.variables()]
    for l in body:
        p = l.payload
        if not isinstance(p, CountAggregate):
            names += p.variables()
        elif guards:
            names += p.guard_variables()
    return list(dict.fromkeys(names))


def product_instances(program: Program):
    """The instantiation the oracle's join must reproduce, by brute force:
    every global variable of every rule and weak constraint
    (`global_variables`) takes every constant of the Herbrand universe.
    Yields (head, pos, neg, aggregates, weight) like the oracle's instance
    stream, statement by statement in program order; a false comparison
    drops the instance and a true one its literal."""
    universe = sorted(herbrand_universe(program), key=term_key)
    for statement in program.rules + program.weak_constraints:
        weak = isinstance(statement, WeakConstraint)
        head = () if weak else statement.head
        weight = (statement.cost, statement.level) if weak else None
        variables = global_variables(head, statement.body)
        for assignment in itertools.product(universe, repeat=len(variables)):
            subst = dict(zip(variables, assignment))
            pos, neg, aggs = [], [], []
            for l in statement.body:
                p = l.payload
                if isinstance(p, Atom):
                    (neg if l.negated else pos).append(_subst_atom(p, subst))
                elif isinstance(p, Comparison):
                    if not compare_terms(p.op, _subst_term(p.left, subst),
                                         _subst_term(p.right, subst)):
                        break
                else:
                    aggs.append(_subst_aggregate(p, subst))
            else:
                yield (frozenset(_subst_atom(a, subst) for a in head),
                       frozenset(pos), frozenset(neg), tuple(aggs), weight)


def naive_ground(rules, universe) -> list[Rule]:
    """Every instance of every rule over `universe`: each variable outside
    the #count braces takes each constant in turn (and is substituted inside
    them too), an instance with a false comparison is dropped and true
    comparisons are removed. No simplification."""
    out = []
    for rule in rules:
        names = {v for a in rule.head for v in a.variables()}
        for l in rule.body:
            p = l.payload
            if isinstance(p, CountAggregate):
                if isinstance(p.guard, Variable):
                    names.add(p.guard.name)
            else:
                names.update(p.variables())
        variables = sorted(names)
        for values in itertools.product(universe, repeat=len(variables)):
            subst = dict(zip(variables, values))
            body = []
            for l in rule.body:
                p = l.payload
                if isinstance(p, Atom):
                    body.append(Literal(_subst_atom(p, subst), l.negated))
                elif isinstance(p, CountAggregate):
                    body.append(Literal(_subst_aggregate(p, subst)))
                elif not compare_terms(p.op, _subst_term(p.left, subst),
                                       _subst_term(p.right, subst)):
                    break
            else:
                out.append(Rule(tuple(_subst_atom(a, subst) for a in rule.head), tuple(body)))
    return out


# ---------------------------------------------------------------------------
# Brute-force reference semantics (ground programs)
# ---------------------------------------------------------------------------

def count_holds(agg: CountAggregate, interp: frozenset[Atom], universe) -> bool:
    """`#count{t1,...,tn : a} op g` as defined: the number of distinct tuples
    (t1,...,tn) under the assignments of the aggregate's local variables to
    `universe` that make `a` true in `interp`, compared with `g` by `op`."""
    local = sorted({t.name for t in agg.terms + agg.condition.args
                    if isinstance(t, Variable)})
    tuples = set()
    for values in itertools.product(universe, repeat=len(local)):
        subst = dict(zip(local, values))
        if _subst_atom(agg.condition, subst) in interp:
            tuples.add(tuple(_subst_term(t, subst) for t in agg.terms))
    return compare_terms(agg.guard_op, Integer(len(tuples)), agg.guard)


def least_fixpoint(rules) -> frozenset[Atom]:
    """Least set closed under `pos <= set => head <= set` for (head, pos)."""
    derived: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for head, pos in rules:
            if pos <= derived and not head <= derived:
                derived |= head
                changed = True
    return frozenset(derived)


def _models(interp: frozenset[Atom], reduct_rules) -> bool:
    for head, pos in reduct_rules:
        if pos <= interp and not (head & interp):
            return False
    return True


def brute_answer_sets(rules, universe=()) -> list[frozenset[Atom]]:
    """Every answer set of a ground program, by definition: M is one when it
    is a minimal model of the reduct, which drops each rule (constraints
    included) whose negative atoms or #count literals are false in M and
    keeps the head and positive atoms of the rest. `universe` is what the
    #count local variables range over.

    Only the candidates between two bounds are scanned. Every model of a
    reduct contains the least model of the rules with one head atom, no
    negation and no #count, since each reduct keeps them as they are. And M
    minus anything outside the least fixpoint of all heads over positive
    bodies is still a model of the reduct, so a minimal M lies inside it."""
    # evaluate ground comparison literals up front
    kept = []
    for r in rules:
        comparisons = [l.payload for l in r.body if l.is_comparison()]
        if all(compare_terms(c.op, c.left, c.right) for c in comparisons):
            kept.append(Rule(r.head, tuple(l for l in r.body if not l.is_comparison())))
    rules = [(r, frozenset(r.head), frozenset(l.atom for l in r.body if l.is_atom() and not l.negated))
             for r in kept]

    lower = least_fixpoint([(head, pos) for r, head, pos in rules
                             if len(head) == 1
                             and all(l.is_atom() and not l.negated for l in r.body)])
    upper = least_fixpoint([(head, pos) for _, head, pos in rules])
    free = sorted(upper - lower, key=Atom.sort_key)
    answer_sets = []
    for bits in range(1 << len(free)):
        interp = lower | frozenset(a for i, a in enumerate(free) if bits >> i & 1)
        reduct = [(head, pos) for r, head, pos in rules
                  if _body_satisfied(tuple(l for l in r.body if not l.is_atom() or l.negated),
                                     interp, universe)]
        if not _models(interp, reduct):
            continue
        members = sorted(interp - lower, key=Atom.sort_key)
        if not any(_models(lower | frozenset(a for i, a in enumerate(members) if sub >> i & 1),
                           reduct)
                   for sub in range((1 << len(members)) - 1)):
            answer_sets.append(interp)
    return answer_sets


def reference_is_minimal_model(active: list[tuple[int, int]], interp: int,
                               certain_mask: int) -> bool:
    """Whether no model of the reduct rules `active`, (head, pos) masks, lies
    strictly inside `interp`, by a scan over subsets. Every model inside
    `interp` contains `lower`: the certain atoms, closed under the rules
    with a single head atom inside `interp`. So only the subsets of the
    other atoms of `interp`, short of all of them, are tried."""
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
    free_bits = [1 << i for i in range(free.bit_length()) if free >> i & 1]
    for k in range((1 << len(free_bits)) - 1):
        sub = lower
        for i, bit in enumerate(free_bits):
            if k >> i & 1:
                sub |= bit
        if all(not ((pos & ~sub) == 0 and (head & sub) == 0) for head, pos in active):
            return False
    return True


def reference_passes(g: oracle.GroundProgram, interp: int) -> bool:
    """`oracle._passes` with `reference_is_minimal_model` for its
    minimality check."""
    if oracle._violates_constraints(g, interp):
        return False
    active = oracle._reduct_rules(g, interp)
    return active is not None and reference_is_minimal_model(active, interp, g.certain_mask)


def scan_answer_sets(g: oracle.GroundProgram, cap=None) -> oracle.SolveResult:
    """The search that `oracle.enumerate_answer_sets` must reproduce, by
    brute force: every interpretation (certain atoms fixed, unknown atoms in
    binary-counter order over ascending atom ids) goes through
    `reference_passes`, until `cap` many answer sets are found. At the cap,
    `exhausted` holds only when the last candidate, every unknown atom true,
    was the cap-th answer set."""
    result = oracle.SolveResult()
    if g.trivially_incoherent:
        result.incoherent = result.exhausted = True
        return result
    unknown = g.unknown_ids
    n = len(unknown)
    found = []
    exhausted = True
    for counter in range(1 << n):
        interp = g.certain_mask
        for idx in range(n):
            if counter >> idx & 1:
                interp |= 1 << unknown[idx]
        if reference_passes(g, interp):
            found.append(interp)
            if cap is not None and len(found) >= cap:
                exhausted = counter == (1 << n) - 1
                break
    result.answer_sets = [oracle.AnswerSet(g.mask_atoms(m)) for m in found]
    result.exhausted = exhausted
    result.incoherent = exhausted and not found
    return result


def is_tight(g: oracle.GroundProgram) -> bool:
    """No atom of `g` depends on itself through positive rule bodies."""
    edges = {}
    for r in g.rules:
        for h in r.head:
            edges.setdefault(h, set()).update(
                l.atom for l in r.body if l.is_atom() and not l.negated)
    done, active = set(), set()

    def acyclic(a) -> bool:
        if a in done:
            return True
        if a in active:
            return False
        active.add(a)
        ok = all(acyclic(b) for b in edges.get(a, ()))
        active.discard(a)
        done.add(a)
        return ok

    return all(acyclic(a) for a in list(edges))


def _body_satisfied(body, interp: frozenset[Atom], universe=()) -> bool:
    for l in body:
        if l.is_atom():
            if l.negated == (l.atom in interp):
                return False
        elif l.is_comparison():
            c = l.payload
            if not compare_terms(c.op, c.left, c.right):
                return False
        elif not count_holds(l.payload, interp, universe):
            return False
    return True


def brute_penalty(program, interp: frozenset[Atom], level: int, universe=()) -> int:
    """Sum of the costs of the level's weak constraints whose body holds in
    `interp`; `program` is a ground Program or a GroundProgram."""
    return sum(w.cost for w in program.weak_constraints
               if w.level == level and _body_satisfied(w.body, interp, universe))


def brute_optimal(program, answer_sets, universe=()) -> list[frozenset[Atom]]:
    """Non-dominated answer sets by the levelwise definition, literally."""
    levels = sorted({w.level for w in program.weak_constraints})

    def cost(m, level):
        return brute_penalty(program, m, level, universe)

    def dominated(m, others):
        for m2 in others:
            if m2 == m:
                continue
            for l in levels:
                if cost(m2, l) < cost(m, l) \
                        and all(cost(m2, k) == cost(m, k) for k in levels if k > l):
                    return True
        return False

    return [m for m in answer_sets if not dominated(m, answer_sets)]


def direct_verdict(program: Program, assertion, universe=(), answer_sets=None) -> str:
    """Assertion semantics computed straight from the enumerated answer
    sets (`answer_sets`, when the caller already has them), with no
    tester-program encoding involved. The variables of the program's rules
    and of a constraint payload range over `universe`; bestModelCost reads
    the weak constraints as ground."""
    if answer_sets is None:
        answer_sets = brute_answer_sets(naive_ground(program.rules, universe), universe)

    def containing(atoms):
        want = set(atoms)
        return [m for m in answer_sets if want <= m]

    def satisfying(constraint):
        instances = naive_ground([constraint], universe)
        return [m for m in answer_sets
                if not any(_body_satisfied(c.body, m, universe) for c in instances)]

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
# Ground simplification references
# ---------------------------------------------------------------------------

# The simplification and the stratification check that `oracle._simplify`
# and `oracle._check_aggregate_stratification` must reproduce: the former
# rewrites every instance each round and stops when the list stops
# changing, the latter searches the predicate dependencies depth-first.

def reference_simplify(instances):
    """Possible/certain fixpoint; returns the simplified instances plus the
    two atom sets and whether an always-violated constraint was found.
    Weighted instances have no head, so they derive nothing."""
    stmts = list(dict.fromkeys(instances))
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
            for head, pos, neg, aggs, weight in stmts:
                if head and pos <= possible and not (head <= possible):
                    possible |= head
                    changed = True
        # certain: unit closure over rules whose negative part can never fire
        changed = True
        while changed:
            changed = False
            for head, pos, neg, aggs, weight in stmts:
                if (len(head) == 1 and not aggs and pos <= certain
                        and not (neg & possible) and not (head <= certain)):
                    certain |= head
                    changed = True

        new_stmts = []
        for head, pos, neg, aggs, weight in stmts:
            if not (pos <= possible):       # unsatisfiable positive body
                continue
            if neg & certain:               # negated atom always true
                continue
            if head & certain:              # head already a fact
                continue
            pos2 = pos - certain
            neg2 = neg & possible
            if weight is None and not head and not pos2 and not neg2 and not aggs:
                trivially_incoherent = True
            new_stmts.append((head, pos2, neg2, aggs, weight))
        new_stmts = list(dict.fromkeys(new_stmts))

        if new_stmts == stmts:
            return stmts, possible, certain, trivially_incoherent
        stmts = new_stmts


def reference_check_aggregate_stratification(stmts):
    """Reject recursion through an aggregate: the counted predicate must not
    depend on the head of the rule the aggregate sits in."""
    depends: dict[str, set[str]] = {}
    for head, pos, neg, aggs, _ in stmts:
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

    for head, pos, neg, aggs, _ in stmts:
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


# ---------------------------------------------------------------------------
# Lexer reference
# ---------------------------------------------------------------------------

# The character loop that `parser._scan`'s two patterns replaced, verbatim
# apart from its name. A string token's value is its text and the file
# offset of each of its characters and of its closing quote.

_PROGRAM_PUNCT = (":-", ":~", "<=", ">=", "<>", "!=", "<", ">", "=", ".", ",",
                  "(", ")", "{", "}", "[", "]", "|", ":", "-", "@")
_ANNOTATION_PUNCT = ("@", "=", "(", ")", "{", "}", ",")


def _is_digit(ch: str) -> bool:
    """ASCII 0-9 only: `str.isdigit` also accepts digits such as '²' that
    `int()` rejects."""
    return "0" <= ch <= "9"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def reference_scan(text: str, base: int = 0, annotation: bool = False,
                   collect_annotations: bool = True) -> list[_Token]:
    """Tokenize program text or, with `annotation`, the body of a
    `%** ... **%` block. Token offsets are `base` plus the index in `text`.

    Both modes skip whitespace and `%` comments to end of line and read
    integers, words and punctuation. Program text also has `%* ... *%`
    comments, `%** ... **%` blocks (an `annot` token when
    `collect_annotations`), `not`, `#count` and variables. Annotation text
    has strings, in which a backslash escapes `"` and itself, and negative
    integers; every word is an `ident` there."""
    punct = _ANNOTATION_PUNCT if annotation else _PROGRAM_PUNCT
    error_kind, where = ("annotation", " in annotation") if annotation else ("lexical", "")
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "%" and not annotation and text.startswith("%*", i):
            block = text.startswith("%**", i)
            close = "**%" if block else "*%"
            end = text.find(close, i + len(close))
            if end < 0:
                what = "annotation block" if block else "comment"
                raise _Issue(f"unterminated {what} (missing {close!r})", base + i, error_kind)
            if block and collect_annotations:
                tokens.append(_Token("annot", (text[i + 3:end], base + i + 3), base + i))
            i = end + len(close)
            continue
        if ch == "%":
            nl = text.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if annotation and ch == '"':
            j = i + 1
            out: list[str] = []
            offsets: list[int] = []
            while j < n:
                c = text[j]
                if c == "\\" and j + 1 < n and text[j + 1] in ('"', "\\"):
                    out.append(text[j + 1])
                    offsets.append(base + j + 1)
                    j += 2
                    continue
                if c == '"':
                    break
                out.append(c)
                offsets.append(base + j)
                j += 1
            else:
                raise _Issue("unterminated string in annotation", base + i, error_kind)
            offsets.append(base + j)
            tokens.append(_Token("str", ("".join(out), offsets), base + i))
            i = j + 1
            continue
        if _is_digit(ch) or (annotation and ch == "-" and i + 1 < n and _is_digit(text[i + 1])):
            j = i + 1
            while j < n and _is_digit(text[j]):
                j += 1
            tokens.append(_Token("int", int(text[i:j]), base + i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            if annotation:
                kind = "ident"
            else:
                kind = "not" if word == "not" else _classify_word(word)
            tokens.append(_Token(kind, word, base + i))
            i = j
            continue
        if ch == "#" and not annotation:
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            if word != "#count":
                raise _Issue(f"unsupported directive {word!r} (only #count is accepted)",
                             base + i, error_kind)
            tokens.append(_Token("count", word, base + i))
            i = j
            continue
        for sym in punct:
            if text.startswith(sym, i):
                tokens.append(_Token("punct", sym, base + i))
                i += len(sym)
                break
        else:
            raise _Issue(f"unexpected character {ch!r}{where}", base + i, error_kind)
    tokens.append(_Token("eof", None, base + n))
    return tokens


# ---------------------------------------------------------------------------
# Annotation reader reference
# ---------------------------------------------------------------------------

# The two annotation readers that `parser._AnnotationParser` replaced, and
# the unit parser built on them, verbatim apart from the names:
# `_attributes`/`_value` read `@rule`, `@block` and `@test`; `_assertion`,
# `_attr` and `_build_assertion` read each `@assertion`.

@dataclass
class _RuleAnn:
    name: str
    block: Optional[str]
    offset: int


@dataclass
class _BlockAnn:
    name: str
    rules: Optional[list[str]]
    offset: int


@dataclass
class _TestAnn:
    spec: TestSpec
    offset: int


class ReferenceAnnotationParser:
    def __init__(self, text: str, base: int):
        self.ts = _TokenStream(_scan(text, base, annotation=True))

    def parse_all(self) -> list:
        anns = []
        while self.ts.peek().kind != "eof":
            anns.append(self._annotation())
        return anns

    def _at_name(self, at_message: str, name_message: str) -> tuple[_Token, _Token]:
        """Read `@name`; returns the '@' and the name tokens."""
        at = self.ts.expect("punct", at_message, "annotation", "@")
        return at, self.ts.expect("ident", name_message, "annotation")

    def _annotation(self):
        at, name_tok = self._at_name("expected '@' to start an annotation, found {found}",
                                     "expected an annotation name after '@', found {found}")
        name = name_tok.value
        if name == "rule":
            attrs = self._attributes(name, allowed={"name": "str", "block": "str"},
                                     required={"name"})
            return _RuleAnn(attrs["name"][0], attrs.get("block", (None,))[0], at.offset)
        if name == "block":
            attrs = self._attributes(name, allowed={"name": "str", "rules": "strlist"},
                                     required={"name"})
            rules = attrs.get("rules", (None,))[0]
            return _BlockAnn(attrs["name"][0], rules, at.offset)
        if name == "test":
            return self._test(at.offset)
        raise _Issue(f"unknown annotation @{name} (expected @rule, @block or @test)",
                     at.offset, "annotation")

    def _test(self, offset: int) -> _TestAnn:
        allowed = {"name": "str", "scope": "strlist", "programFiles": "strlist",
                   "input": "str", "inputFiles": "strlist", "assert": "assertlist"}
        attrs = self._attributes("test", allowed=allowed, required={"name", "scope", "assert"})
        scope = tuple(attrs["scope"][0])
        if not scope:
            raise _Issue("a test needs a nonempty scope", attrs["scope"][1], "annotation")
        spec = TestSpec(
            name=attrs["name"][0],
            scope=scope,
            asserts=tuple(attrs["assert"][0]),
            program_files=tuple(attrs.get("programFiles", ([],))[0]),
            input=attrs.get("input", ("",))[0],
            input_files=tuple(attrs.get("inputFiles", ([],))[0]),
        )
        return _TestAnn(spec, offset)

    def _attributes(self, owner: str, allowed: dict[str, str], required: set[str]) -> dict:
        """Parse `(key = value, ...)`. Commas between attributes may be
        omitted. Returns {key: (value, offset)}."""
        self.ts.expect_punct("(", f"after @{owner}")
        attrs: dict[str, tuple] = {}
        while not self.ts.at_punct(")"):
            key_tok = self.ts.expect(
                "ident", f"expected an attribute name in @{owner}, found {{found}}", "annotation")
            key = key_tok.value
            if key not in allowed:
                raise _Issue(f"unknown attribute {key!r} for @{owner}", key_tok.offset, "annotation")
            if key in attrs:
                raise _Issue(f"duplicate attribute {key!r} for @{owner}", key_tok.offset, "annotation")
            self.ts.expect("punct", f"expected '=' after {key!r}, found {{found}}", "annotation", "=")
            attrs[key] = (self._value(allowed[key], key), key_tok.offset)
            self.ts.take_punct(",")
        self.ts.next()  # closing paren
        missing = required - attrs.keys()
        if missing:
            raise _Issue(f"@{owner} is missing required attribute(s): {', '.join(sorted(missing))}",
                         self.ts.peek().offset, "annotation")
        return attrs

    def _value(self, value_type: str, key: str):
        if value_type == "str":
            return self.ts.expect("str", f"attribute {key!r} expects a string value",
                                  "annotation").value[0]
        if value_type == "strlist":
            return [s for s, _ in self._list(key, self._string_element)]
        if value_type == "assertlist":
            return [a for a, _ in self._list(key, self._assertion_element)]
        raise AssertionError(value_type)

    def _list(self, key: str, element: Callable) -> list:
        self.ts.expect_punct("{", f"to open the {key!r} list")
        items = []
        if not self.ts.at_punct("}"):
            items.append(element(key))
            while self.ts.take_punct(","):
                items.append(element(key))
        self.ts.expect_punct("}", f"to close the {key!r} list")
        return items

    def _string_element(self, key: str):
        tok = self.ts.expect("str", f"the {key!r} list may only contain strings", "annotation")
        return tok.value[0], tok.offset

    def _assertion_element(self, key: str):
        at, name_tok = self._at_name(f"the {key!r} list may only contain @assertions",
                                     "expected an assertion name after '@'")
        return self._assertion(name_tok.value, name_tok.offset), at.offset

    def _assertion(self, name: str, offset: int) -> Assertion:
        if name not in ASSERTION_CLASSES:
            raise _Issue(f"unknown assertion @{name}", offset, "annotation")
        field_names = [f.name for f in fields(ASSERTION_CLASSES[name])]
        attrs: dict[str, tuple] = {}
        positional: Optional[tuple] = None
        if self.ts.take_punct("("):
            while not self.ts.at_punct(")"):
                tok = self.ts.peek()
                if tok.kind == "str":
                    # bare string: shorthand for the constraint attribute
                    if "constraint" not in field_names:
                        raise _Issue(f"@{name} does not take a positional string",
                                     tok.offset, "annotation")
                    if positional is not None or "constraint" in attrs:
                        raise _Issue(f"duplicate constraint for @{name}", tok.offset, "annotation")
                    self.ts.next()
                    positional = (tok.value, tok.offset)
                elif tok.kind == "ident":
                    self.ts.next()
                    key = tok.value
                    self.ts.expect("punct", f"expected '=' after {key!r}", "annotation", "=")
                    val = self.ts.peek()
                    if val.kind not in ("str", "int"):
                        raise _Issue(f"attribute {key!r} expects a string or integer",
                                     val.offset, "annotation")
                    self.ts.next()
                    if key in attrs:
                        raise _Issue(f"duplicate attribute {key!r} for @{name}",
                                     tok.offset, "annotation")
                    attrs[key] = (val.value, val.offset, val.kind)
                else:
                    raise _Issue(f"unexpected {_show(tok)} in @{name}", tok.offset, "annotation")
                self.ts.take_punct(",")
            self.ts.next()
        if positional is not None:
            attrs["constraint"] = (positional[0], positional[1], "str")
        return self._build_assertion(name, field_names, attrs, offset)

    def _attr(self, attrs, name: str, key: str, offset: int, kind: str):
        if key not in attrs:
            raise _Issue(f"@{name} is missing the mandatory {key!r} attribute", offset, "annotation")
        value, off, got = attrs.pop(key)
        if got != kind:
            what = "an integer" if kind == "int" else "a string"
            raise _Issue(f"attribute {key!r} of @{name} must be {what}", off, "annotation")
        if kind == "int" and value < 0:
            raise _Issue(f"attribute {key!r} of @{name} must be nonnegative", off, "annotation")
        return value

    def _build_assertion(self, name: str, field_names: list[str], attrs: dict,
                         offset: int) -> Assertion:
        """Read the class's fields in declaration order: `count` from the
        `number` attribute, `atoms` and `constraint` from string payloads,
        `cost` and `level` from integers."""
        cls = ASSERTION_CLASSES[name]
        values = {}
        for fname in field_names:
            payload = _PAYLOAD_PARSERS.get(fname)
            key = "number" if fname == "count" else fname
            value = self._attr(attrs, name, key, offset, "str" if payload else "int")
            if payload is None:
                values[fname] = value
                continue
            try:
                values[fname] = payload(value[0])
            except _Issue as exc:
                # payload offsets index the string's text; map them back into the file
                kind = exc.kind if exc.kind == "safety" else "annotation"
                raise _Issue(exc.message, _file_offset(value, exc.offset), kind)
        if values.get("count", 1) < getattr(cls, "min_count", 0):
            raise _Issue(f"@{name} needs number >= {cls.min_count} "
                         "(number = 0 would be vacuously true)", offset, "annotation")
        if attrs:
            key = next(iter(attrs))
            raise _Issue(f"unknown attribute {key!r} for @{name}", attrs[key][1], "annotation")
        return cls(**values)


def reference_parse_unit_diagnostics(path: str, text: str) -> tuple[Optional[SourceUnit], list[ParseError]]:
    """Best-effort parse returning every error found; the unit is only
    returned when the input is clean."""
    index = _LineIndex(text)
    errors: list[ParseError] = []
    try:
        tokens = _scan(text)
    except _Issue as exc:
        return None, [index.error(exc)]

    ts = _TokenStream(tokens)
    statements: list = []            # Rule | WeakConstraint in source order
    named: dict[str, tuple] = {}     # name -> (rule, block claim, offset)
    name_order: list[str] = []
    block_anns: list[_BlockAnn] = []
    tests: list[TestSpec] = []
    pending_rule: Optional[_RuleAnn] = None

    def flush_pending(reason: str):
        nonlocal pending_rule
        if pending_rule is not None:
            errors.append(index.error(_Issue(
                f"@rule(name=\"{pending_rule.name}\") must be followed by a rule, not {reason}",
                pending_rule.offset, "annotation")))
            pending_rule = None

    while ts.peek().kind != "eof":
        tok = ts.peek()
        if tok.kind == "annot":
            ts.next()
            block_text, base = tok.value
            try:
                anns = ReferenceAnnotationParser(block_text, base).parse_all()
            except _Issue as exc:
                errors.append(index.error(exc))
                continue
            for ann in anns:
                flush_pending("another annotation")
                if isinstance(ann, _RuleAnn):
                    pending_rule = ann
                elif isinstance(ann, _BlockAnn):
                    block_anns.append(ann)
                else:
                    if ann.spec.name in {t.name for t in tests}:
                        errors.append(index.error(_Issue(
                            f"duplicate test name {ann.spec.name!r}", ann.offset,
                            "duplicate-name")))
                    tests.append(replace(ann.spec, origin=index.span(path, ann.offset)))
            continue
        span = index.span(path, tok.offset)
        try:
            stmt = _parse_rule_or_weak(ts, span)
        except _Issue as exc:
            errors.append(index.error(exc))
            _sync_statement(ts)
            pending_rule = None
            continue
        if not _check_safety(stmt, index, errors):
            pending_rule = None
            continue
        statements.append(stmt)
        if isinstance(stmt, WeakConstraint):
            flush_pending("a weak constraint")
            continue
        if pending_rule is not None:
            ann, pending_rule = pending_rule, None
            if ann.name in named:
                errors.append(index.error(_Issue(
                    f"duplicate rule name {ann.name!r}", ann.offset, "duplicate-name")))
            else:
                named[ann.name] = (stmt, ann.block, ann.offset)
                name_order.append(ann.name)
    flush_pending("the end of the file")

    # Blocks: explicit declarations first, then memberships claimed by rules.
    blocks: dict[str, tuple] = {}
    for ann in block_anns:
        if ann.name in blocks:
            errors.append(index.error(_Issue(
                f"duplicate block name {ann.name!r}", ann.offset, "duplicate-name")))
            continue
        blocks[ann.name] = (list(ann.rules or []), ann.offset)
    for name in name_order:
        if name in blocks:
            errors.append(index.error(_Issue(
                f"{name!r} is used both as a rule name and as a block name",
                named[name][2], "duplicate-name")))
    for bname, (rule_names, boffset) in blocks.items():
        for rname in rule_names:
            if rname not in named:
                errors.append(index.error(_Issue(
                    f"block {bname!r} lists unknown rule {rname!r}",
                    boffset, "dangling-reference")))
            else:
                claimed = named[rname][1]
                if claimed is not None and claimed != bname:
                    errors.append(index.error(_Issue(
                        f"rule {rname!r} is assigned to block {claimed!r} but block "
                        f"{bname!r} also lists it", boffset, "duplicate-name")))
    for name in name_order:
        claimed = named[name][1]
        if claimed is not None and claimed not in blocks:
            blocks[claimed] = ([], named[name][2])
            if claimed in named:
                # a claimed block named like a rule clashes as a declared one does
                errors.append(index.error(_Issue(
                    f"{claimed!r} is used both as a rule name and as a block name",
                    named[claimed][2], "duplicate-name")))

    final_blocks: dict[str, tuple[str, ...]] = {}
    for bname, (rule_names, _) in blocks.items():
        members = [n for n in name_order
                   if n in rule_names or named[n][1] == bname]
        final_blocks[bname] = tuple(members)

    if errors:
        return None, errors

    named_rules = {name: named[name][0] for name in name_order}
    named_set = {id(r) for r in named_rules.values()}
    anonymous = tuple(s for s in statements
                      if isinstance(s, Rule) and id(s) not in named_set)
    rules = tuple(s for s in statements if isinstance(s, Rule))
    weaks = tuple(s for s in statements if isinstance(s, WeakConstraint))
    suite = TestSuite(named_rules=named_rules, blocks=final_blocks,
                      tests=tuple(tests), anonymous_rules=anonymous)
    unit = SourceUnit(path=path, text=text, program=Program(rules, weaks), suite=suite)
    return unit, []


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


def random_head_cycle_program(rng: random.Random, max_atoms: int = 12) -> Program:
    """A propositional program over 3 to `max_atoms` atoms with head cycles:
    one to three disjunctive rules, each with a head of two or more atoms
    that a cycle of single-head rules makes derive each other positively
    (the cycle may run through other atoms), and a few random rules with
    negation, disjunction and constraints."""
    atoms = [Atom(f"h{i}") for i in range(rng.randint(3, max_atoms))]
    rules = []
    for _ in range(rng.randint(1, 3)):
        cycle = rng.sample(atoms, rng.randint(2, min(4, len(atoms))))
        head = tuple(cycle[:rng.randint(2, len(cycle))])
        body = tuple(Literal(a, negated=True) for a in rng.sample(atoms, rng.randint(0, 1)))
        rules.append(Rule(head, body))
        rules += [Rule((b,), (Literal(a),)) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    for _ in range(rng.randint(0, 4)):
        head = tuple(rng.sample(atoms, rng.choice([0, 1, 1, 2])))
        body = tuple(Literal(a, negated=rng.random() < 0.5)
                     for a in rng.sample(atoms, rng.randint(1, 2)))
        rules.append(Rule(head, body))
    return Program(tuple(rules))


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


X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def _join_count(rng: random.Random) -> CountAggregate:
    """A #count over p, q or reach, which may share the global X."""
    cond = rng.choice([Atom("p", (Z,)), Atom("q", (Z,)), Atom("reach", (Z, Y)),
                       Atom("reach", (X, Z))])
    terms = rng.choice([(Z,), tuple(cond.args)])
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    return CountAggregate(terms, cond, op, Integer(rng.randint(0, 3)))


def join_body(rng: random.Random, constants: list) -> tuple[Literal, ...]:
    """1-3 atoms over d, p, e and reach joined on X (and maybe Y), plus
    negation, a comparison with `constants` or a #count over them."""
    def binder(a: Variable, b: Variable) -> Atom:
        return rng.choice([Atom("d", (a,)), Atom("p", (a,)), Atom("e", (a, b)),
                           Atom("reach", (a, b))])

    pool = [X, Y] if rng.random() < 0.7 else [X]
    atoms = [binder(X, rng.choice(pool))]
    atoms += [binder(rng.choice(pool), rng.choice(pool))
              for _ in range(rng.randint(0, 2))]
    bound = sorted({v for a in atoms for v in a.variables()})
    terms = [Variable(n) for n in bound]
    lits = [Literal(a) for a in atoms]
    if rng.random() < 0.5:
        lits.append(Literal(Atom(rng.choice("pq"), (rng.choice(terms),)), negated=True))
    if rng.random() < 0.2:
        lits.append(Literal(Atom("r"), negated=True))
    if rng.random() < 0.4:
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        lits.append(Literal(Comparison(op, rng.choice(terms),
                                       rng.choice(terms + constants))))
    if rng.random() < 0.3:
        lits.append(Literal(_join_count(rng)))
    rng.shuffle(lits)
    return tuple(lits)


def random_join_program(rng: random.Random) -> Program:
    """A safe program that exercises the join: over 2-3 constants, `d/1`
    holds every constant, `e/2` a few random edges and `reach/2` their
    transitive closure by a recursive rule. Random rules (`join_body`) join
    1-3 atoms on shared variables and add comparisons, negation, #count,
    disjunctive heads over `p/1` and `q/1`, and weak constraints. Up to
    two statements have no positive body atom, so that each is its own one
    instance: a fact, `h :- not a.`, a constraint `:- not a.` or a weak
    constraint `:~ not a.`, some with a ground comparison. A #count in a
    rule head may be recursive; the oracle then raises
    UnsupportedAggregate."""
    constants = [Integer(i) for i in range(1, rng.randint(2, 3) + 1)]
    if rng.random() < 0.3:
        constants[-1] = Constant("c")  # every integer precedes every symbol
    pairs = [(a, b) for a in constants for b in constants]
    rules = [Rule((Atom("d", (c,)),), ()) for c in constants]
    rules += [Rule((Atom("e", edge),), ()) for edge in rng.sample(pairs, rng.randint(1, 3))]
    rules.append(Rule((Atom("reach", (X, Y)),), (Literal(Atom("e", (X, Y))),)))
    step = [Literal(Atom("reach", (X, Y))), Literal(Atom("e", (Y, Z)))]
    if rng.random() < 0.3:
        step.append(Literal(Comparison(rng.choice(["!=", "<", ">="]), X, Z)))
    rules.append(Rule((Atom("reach", (X, Z)),), tuple(step)))

    for _ in range(rng.randint(2, 4)):
        shape = rng.random()
        if shape < 0.6:
            head = tuple(Atom(pred, (X,)) for pred in rng.sample("pq", rng.randint(1, 2)))
            rules.append(Rule(head, join_body(rng, constants)))
        elif shape < 0.85:
            rules.append(Rule((Atom("r"),), join_body(rng, constants)))
        else:
            rules.append(Rule((), join_body(rng, constants)))
    weaks = [WeakConstraint(join_body(rng, constants), cost=rng.randint(0, 3),
                            level=rng.randint(0, 2))
             for _ in range(rng.choice([0, 0, 1, 2]))]
    for _ in range(rng.randint(0, 2)):
        shape = rng.random()
        body = tuple(Literal(Atom(pred, (rng.choice(constants),)), negated=True)
                     for pred in rng.sample("dpq", 0 if shape < 0.2 else rng.randint(1, 2)))
        if rng.random() < 0.4:
            body += (Literal(Comparison(rng.choice(["=", "!=", "<", ">="]),
                                        rng.choice(constants), rng.choice(constants))),)
        if shape < 0.8:
            c = rng.choice(constants)
            rules.append(Rule((rng.choice([Atom("p", (c,)), Atom("q", (c,)), Atom("r")]),), body))
        elif shape < 0.9:
            rules.append(Rule((), body or (Literal(Atom("r"), negated=True),)))
        else:
            weaks.append(WeakConstraint(body or (Literal(Atom("r"), negated=True),),
                                        cost=rng.randint(0, 3), level=rng.randint(0, 2)))
    return Program(tuple(rules), tuple(weaks))


def random_join_assertion(rng: random.Random, program: Program, kind: str):
    """An assertion of a non-optimising `kind` over a `random_join_program`:
    its atoms are ground atoms of the program's predicates over its
    universe, and its constraint payload is ground or a `join_body`."""
    universe = sorted(herbrand_universe(program), key=term_key)
    pool = [Atom("r")] + [Atom(pred, (c,)) for pred in "dpq" for c in universe] \
        + [Atom(pred, (a, b)) for pred in ("e", "reach") for a in universe for b in universe]
    if rng.random() < 0.5:
        body = tuple(Literal(a, negated=rng.random() < 0.5)
                     for a in rng.sample(pool, rng.randint(1, 2)))
    else:
        body = join_body(rng, universe)
    cls = ASSERTION_CLASSES[kind]
    values = {"atoms": tuple(rng.sample(pool, rng.randint(1, 2))),
              "count": rng.randint(getattr(cls, "min_count", 0), 4),
              "constraint": Rule((), body)}
    return cls(**{f.name: values[f.name] for f in fields(cls)})


N = Variable("N")


def guard_count_body(rng: random.Random, counted: str = "pq") -> tuple[Literal, ...]:
    """`n(N)` and one or two #count literals whose guard is N, or X where
    `d(X)` binds it, each counting a predicate of `counted`; maybe with
    `d(X)`, negation and a comparison of X with N. The literals come in a
    random order, so a guard variable may occur before any atom binds it."""
    lits = [Literal(Atom("n", (N,)))]
    guards = [N]
    if rng.random() < 0.6:
        lits.append(Literal(Atom("d", (X,))))
        guards.append(X)
        if rng.random() < 0.4:
            lits.append(Literal(Atom(rng.choice("pq"), (X,)), negated=rng.random() < 0.5))
        if rng.random() < 0.3:
            lits.append(Literal(Comparison(rng.choice(["!=", "<", ">="]), X, N)))
    for _ in range(1 if rng.random() < 0.75 else 2):
        cond = Atom(rng.choice(counted), (rng.choice([Y, Y, N]),))
        terms = rng.choice([tuple(cond.args), ()]) if cond.args == (N,) else (Y,)
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        lits.append(Literal(CountAggregate(terms, cond, op, rng.choice(guards))))
    rng.shuffle(lits)
    return tuple(lits)


def random_guard_count_program(rng: random.Random) -> Program:
    """A safe program whose #count guards are variables: over the integers
    0, 1 and 2, `d/1` holds 1 and 2, `n/1` two of 0..2, and `p(X) | q(X)
    :- d(X).` chooses p or q per constant. Two or three rules, constraints
    and disjunctive heads over `r` and `s/1` have a `guard_count_body`.
    Rules count p and q, which no such head defines, so no #count is
    recursive; constraints may also count s."""
    rules = [Rule((Atom("d", (Integer(i),)),), ()) for i in (1, 2)]
    rules += [Rule((Atom("n", (Integer(i),)),), ()) for i in rng.sample(range(3), 2)]
    rules.append(Rule((Atom("p", (X,)), Atom("q", (X,))), (Literal(Atom("d", (X,))),)))
    for _ in range(rng.randint(2, 3)):
        shape = rng.random()
        if shape < 0.3:
            rules.append(Rule((), guard_count_body(rng, "pqs")))
            continue
        body = guard_count_body(rng)
        v = rng.choice([X, N]) if Literal(Atom("d", (X,))) in body else N
        if shape < 0.5:
            head = (Atom("r"),)
        elif shape < 0.75:
            head = (Atom("s", (v,)),)
        else:
            head = (Atom("s", (v,)), Atom("r"))
        rules.append(Rule(head, body))
    return Program(tuple(rules))


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
