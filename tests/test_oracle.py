import gc
import os
import random
import re
import subprocess
import sys
import traceback
import weakref
from collections import Counter
from operator import is_
from pathlib import Path

import pytest

from asp_testkit import mutate, oracle
from asp_testkit.engine import build_tester, default_file_loader, resolve_scope
from asp_testkit.model import (
    ASSERTION_KINDS,
    Atom,
    BestModelCost,
    Constant,
    ConstraintForAll,
    ConstraintInAtLeast,
    Integer,
    Literal,
    NoAnswerSet,
    Program,
    Rule,
    TrueInAll,
    TrueInAtLeast,
    UnsafeRuleError,
    WeakConstraint,
    herbrand_universe,
    term_key,
)
from asp_testkit.mutate import (
    OPERATOR_KINDS,
    ExhaustedLoci,
    generate_mutants,
    mutation_base_program,
)
from asp_testkit.oracle import (
    CapacityExceeded,
    UnsupportedAggregate,
    enumerate_answer_sets,
    ground,
    is_answer_set,
    optimal_answer_sets,
    penalty,
    reduct,
)
from asp_testkit.parser import parse_unit
from asp_testkit.solver import InternalBackend
from helpers import (
    FIXTURES,
    atom,
    brute_answer_sets,
    brute_optimal,
    brute_penalty,
    fixture_text,
    global_variables,
    guard_count_body,
    least_fixpoint,
    lit,
    naive_ground,
    product_instances,
    random_join_assertion,
    random_join_program,
    is_tight,
    random_head_cycle_program,
    random_guard_count_program,
    random_nonground_program,
    random_program,
    reference_check_aggregate_stratification,
    reference_is_minimal_model,
    reference_simplify,
    scan_answer_sets,
)

COLORING = """node(1). node(2). node(3). edge(1,2). edge(1,3). edge(2,3).
col(X,red) | col(X,blue) | col(X,green) :- node(X).
:- edge(X,Y), col(X,C), col(Y,C)."""

COLORING_PREF = COLORING + """
preferablyRed(2).
:~ not col(X,red), preferablyRed(X). [1@1]"""


def program(text: str) -> Program:
    return parse_unit("<test>", text).program


def col_facts():
    return {atom("node", 1), atom("node", 2), atom("node", 3),
            atom("edge", 1, 2), atom("edge", 1, 3), atom("edge", 2, 3)}


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------

# The disjunctive facts keep every p atom unknown, so simplification leaves
# each instance in `g.rules` as it was instantiated.

def test_instantiate_over_explicit_universe():
    g = ground(program("p(1) | p(2). q(X) :- p(X)."))
    assert g.universe == [Integer(1), Integer(2)]
    assert [r for r in g.rules if r.head[0].predicate == "q"] == [
        Rule((atom("q", 1),), (lit("p", 1),)),
        Rule((atom("q", 2),), (lit("p", 2),))]


def test_instantiate_evaluates_comparisons():
    g = ground(program("p(1,1) | p(1,2) | p(2,1) | p(2,2). :- p(X,Y), X != Y."))
    constraints = [r for r in g.rules if r.is_constraint()]
    bodies = {tuple(l.atom.args for l in r.body) for r in constraints}
    assert bodies == {((Integer(1), Integer(2)),), ((Integer(2), Integer(1)),)}
    assert all(len(r.body) == 1 for r in constraints)  # comparison evaluated away


def test_instantiation_budget_names_the_statement_and_universe(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_INSTANTIATIONS", 10)
    # an equal rule on another line, compiled first, lends big.lp's rule
    # neither its form nor its origin
    small = parse_unit("small.lp", "p(X,Y) :- d(X), d(Y).\nd(1).").program
    big = parse_unit("big.lp", "d(1). d(2). d(3).\np(X,Y) :- d(X), d(Y).").program
    assert small.rules[0] == big.rules[3] and small.rules[0] is not big.rules[3]
    assert len(ground(small).atoms) == 2
    with pytest.raises(CapacityExceeded) as exc:
        ground(big)
    message = str(exc.value)
    assert "instantiation budget exceeded (10 ground instances)" in message
    assert "`p(X,Y) :- d(X), d(Y).` at big.lp:2:1" in message
    assert "universe of 3 constants" in message


OWN_INSTANCES = """a(1). a(2). a(3).
h :- not b.
:- not b, 2 < 1.
:- not h, 1 < 2."""


def test_the_budget_counts_each_statement_without_positive_atoms_once(monkeypatch):
    # three facts, `h :- not b.` and the last constraint are one instance
    # each; the constraint whose comparison fails has none
    p = parse_unit("own.lp", OWN_INSTANCES).program
    monkeypatch.setattr(oracle, "MAX_INSTANTIATIONS", 5)
    assert ground(p).certain_atoms() == {atom("a", 1), atom("a", 2), atom("a", 3), atom("h")}
    monkeypatch.setattr(oracle, "MAX_INSTANTIATIONS", 4)
    with pytest.raises(CapacityExceeded) as exc:
        ground(p)
    assert "(4 ground instances) grounding `:- not h, 1 < 2.` at own.lp:4:1" in str(exc.value)
    # a tester's `:- not a(1).` counts once on top of its scope's five
    scope = oracle.Scope(p)
    tester = build_tester(p, TrueInAtLeast(1, (atom("a", 1),))).program
    monkeypatch.setattr(oracle, "MAX_INSTANTIATIONS", 6)
    assert assert_scope_path_matches(scope, tester) == "simplified"
    monkeypatch.setattr(oracle, "MAX_INSTANTIATIONS", 5)
    with pytest.raises(CapacityExceeded) as exc:
        ground(tester, scope=oracle.Scope(p))
    assert "(5 ground instances) grounding `:- not a(1).`" in str(exc.value)


CHAIN = " ".join(f"edge({i},{i + 1})." for i in range(1, 18)) + """
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z)."""


def test_instantiation_budget_counts_emitted_instances(monkeypatch):
    # 17 edge facts, 17 base instances and one step instance per reach(X,Y)
    # with Y < 18: 170 in all, against 18^3 candidates of the universe product
    monkeypatch.setattr(oracle, "MAX_INSTANTIATIONS", 1000)
    g = ground(program(CHAIN))
    closure = {atom("reach", i, j) for i in range(1, 19) for j in range(i + 1, 19)}
    edges = {atom("edge", i, i + 1) for i in range(1, 18)}
    result = enumerate_answer_sets(g)
    assert result.atom_sets() == {frozenset(closure | edges)}
    assert result.exhausted


def _ground_or_none(build):
    try:
        return build()
    except UnsupportedAggregate:
        return None


def assert_join_matches_product(p: Program):
    """The join emits the universe product's instances whose positive body
    is possible at all, each as often as the product does, and `ground`
    gives the same ground program as the whole product, up to the order of
    the statements."""
    universe = sorted(herbrand_universe(p), key=term_key)
    instances = list(product_instances(p))
    possible = least_fixpoint([(head, pos) for head, pos, *_ in instances])
    assert Counter(oracle._instantiate(p.rules + p.weak_constraints, len(universe))[0]) \
        == Counter(i for i in instances if i[1] <= possible)
    got = _ground_or_none(lambda: ground(p))
    want = _ground_or_none(lambda: oracle._build_ground(
        universe, instances, oracle._levels(p)))
    assert (got is None) == (want is None), p
    if got is None:
        return
    assert got.universe == want.universe
    assert got.atoms == want.atoms
    assert got.certain_atoms() == want.certain_atoms()
    assert Counter(got.rules) == Counter(want.rules)
    assert Counter(got.weak_constraints) == Counter(want.weak_constraints)
    assert got.trivially_incoherent == want.trivially_incoherent


def fixture_scopes():
    """(scope, tester program) for every assertion of the shipped fixtures."""
    for path in sorted(FIXTURES.glob("*.lp")):
        unit = parse_unit(path.name, path.read_text(encoding="utf-8"))
        for spec in unit.suite.tests:
            scoped = resolve_scope(unit.suite, spec, default_file_loader(str(FIXTURES)))
            for assertion in spec.asserts:
                yield scoped, build_tester(scoped, assertion).program


def fixture_testers():
    for _, tester in fixture_scopes():
        yield tester


CONSTANT_KEYS = """d(1). d(2). d(c). e(1,1). e(1,2). e(2,2). e(c,1). e(c,c).
s(X) :- e(X,X).
t(Y) :- e(1,Y), d(Y).
u(X,Y) :- e(X,Y), e(Y,X), X != Y.
v(X) :- d(X), e(c,X), not s(X).
w(X) :- e(X,X), e(c,X), d(X).
x :- e(2,2).
n :- e(1,c).
y(X) | z(X) :- e(c,X), s(X)."""


def with_constant_first_argument(p: Program, rng: random.Random) -> Program:
    """`p` with the first argument of one positive body atom, a variable,
    replaced by a constant of its universe; `p` itself when that leaves
    the statement unsafe or no such atom exists."""
    universe = sorted(herbrand_universe(p), key=term_key)
    loci = [(i, k) for i, r in enumerate(p.rules) for k, l in enumerate(r.body)
            if isinstance(l.payload, Atom) and not l.negated and l.payload.args
            and not l.payload.is_ground()]
    if not loci:
        return p
    i, k = rng.choice(loci)
    rule = p.rules[i]
    lit = rule.body[k]
    bound = Atom(lit.payload.predicate, (rng.choice(universe), *lit.payload.args[1:]))
    body = rule.body[:k] + (Literal(bound),) + rule.body[k + 1:]
    try:
        return Program(p.rules[:i] + (Rule(rule.head, body),) + p.rules[i + 1:],
                       p.weak_constraints)
    except UnsafeRuleError:
        return p


def test_join_matches_product_instantiation():
    rng = random.Random(8)
    programs = [random_join_program(rng) for _ in range(500)]
    testers = list(fixture_testers())
    assert len(testers) > 20
    # a constant first argument is a plan step's lookup key
    rng = random.Random(31)
    keyed = [(p, with_constant_first_argument(p, rng))
             for p in (random_join_program(rng) for _ in range(300))]
    keyed = [q for p, q in keyed if q is not p]
    assert len(keyed) > 150
    for p in programs + testers + keyed + [program(CONSTANT_KEYS)]:
        assert_join_matches_product(p)


def test_plan_steps_key_by_constants_and_compare_repeated_variables():
    # a constant first argument is the lookup key; a variable repeated in
    # one atom binds at its first place and is compared at the next
    joins = {r.head[0].predicate: oracle._join_of(r)
             for r in program(CONSTANT_KEYS).rules if r.body}
    t, s, w = (joins[name]._plan(0)[0] for name in "tsw")
    assert t.key == (("e", 2), 0, Integer(1)) and t.binds == [(1, 0)]
    assert s.key == ("e", 2) and s.binds == [(0, 0)] and s.equals == [(1, 0)]
    # w's second atom is keyed by its constant, and X, bound before it, is compared
    second = joins["w"]._plan(0)[1]
    assert second.key == (("e", 2), 0, Constant("c")) and second.equals == [(1, 0)]
    # a constant after the key is compared
    n = joins["n"]._plan(0)[0]
    assert n.key == (("e", 2), 0, Integer(1)) and n.consts == [(1, Constant("c"))]


def test_each_statement_object_is_compiled_once(monkeypatch):
    # one mutate --count 8 analysis of each mutation fixture: every scope
    # fill and tester shares the forms of the statements it holds, and a
    # statement without a positive body atom is never compiled
    compiled, asked = [], []  # both keep their statements, so ids stay unique

    class Counted(oracle._Join):
        __slots__ = ()

        def __init__(self, statement):
            compiled.append(statement)
            super().__init__(statement)

    instances = oracle._instances

    def spy(statement, *args):
        asked.append(statement)
        return instances(statement, *args)

    monkeypatch.setattr(oracle, "_Join", Counted)
    monkeypatch.setattr(oracle, "_instances", spy)
    for name in ("coloring_mutation.lp", "hamiltonian_mutation.lp"):
        unit = parse_unit(name, fixture_text(name))
        mutants = generate_mutants(mutation_base_program(unit), OPERATOR_KINDS, 8, 19)
        report = mutate.mutation_analysis(unit, mutants, InternalBackend())
        assert report.baseline_passed and len(report.outcomes) == 8
    joined = {id(s) for s in asked
              if any(isinstance(l.payload, Atom) and not l.negated for l in s.body)}
    assert sorted(map(id, compiled)) == sorted(joined)
    # a scope rule is asked for by many fills and testers
    assert max(Counter(map(id, asked)).values()) > 8


def test_a_compiled_form_dies_with_its_statement():
    p = program("q(1). q(2). p(X) :- q(X). r :- not p(3).")
    assert len(ground(p).atoms) == 5
    # only the statement with a positive body atom is compiled
    assert ["_join" in vars(r) for r in p.rules] == [False, False, True, False]
    rules = [weakref.ref(r) for r in p.rules]
    # with the cycle collector off, a form that held its statement would
    # keep it alive
    gc.disable()
    try:
        del p
        assert [r() for r in rules] == [None] * 4
    finally:
        gc.enable()


def test_ground_rules_keep_each_statements_instances_together_in_program_order():
    # every atom but the d facts is unknown, so each statement keeps its
    # instances; the step rule and `far` find theirs over several
    # semi-naive rounds, so instances listed round by round would interleave
    p = program("""d(1). d(2). d(3). d(4).
        e(1,2) | e(2,3). e(3,4) | x.
        reach(X,Y) :- e(X,Y).
        reach(X,Z) :- reach(X,Y), e(Y,Z).
        far(X) :- reach(X,Y), d(Y), Y > X, not x.
        :- reach(X,4), far(X), X < 2.
        :~ reach(X,Y). [1@1]
        :~ far(X). [2@1]""")
    g = ground(p)
    facts = len(g.certain_ids)
    sources = {("e", 0): 0, ("reach", 1): 1, ("reach", 2): 2, ("far", 2): 3, (None, 2): 4}
    order = [sources[r.head[0].predicate if r.head else None, len(r.body)]
             for r in g.rules[facts:]]
    assert order == sorted(order) and set(order) == set(sources.values()), order
    weak_order = [l.atom.predicate for w in g.weak_constraints for l in w.body]
    assert weak_order == sorted(weak_order, key=["reach", "far"].index), weak_order
    assert len(set(weak_order)) == 2


HASH_SEED_EXAMPLE = "p(1) | p(2) | p(3). q(X) :- p(X)."


def ground_statement_lines() -> list[str]:
    """`repr` of the `rules` and `weak_constraints` of the ground programs of
    `HASH_SEED_EXAMPLE`, 100 seeded `random_join_program`s and every fixture
    tester, in full and as an extension of its scope, one line each; the
    error's type for a program the oracle refuses."""
    rng = random.Random(8)
    programs = [(program(HASH_SEED_EXAMPLE), None)]
    programs += [(random_join_program(rng), None) for _ in range(100)]
    for scope, tester in fixture_scopes():
        programs += [(tester, None), (tester, oracle.Scope(scope))]
    lines = []
    for p, scope in programs:
        try:
            g = ground(p, scope=scope)
        except (CapacityExceeded, UnsupportedAggregate) as exc:
            lines.append(type(exc).__name__)
        else:
            lines.append(repr((g.rules, g.weak_constraints)))
    return lines


def test_ground_programs_do_not_depend_on_the_hash_seed():
    # a head's atoms are sets of atoms, whose order varies with the hash
    # seed; the order in which they enter the join must not
    child = "import test_oracle; print(*test_oracle.ground_statement_lines(), sep='\\n')"
    outputs = [subprocess.run([sys.executable, "-c", child], cwd=Path(__file__).parent,
                              env={**os.environ, "PYTHONHASHSEED": seed}, capture_output=True,
                              text=True, timeout=300, check=True).stdout.splitlines()
               for seed in ("1", "2")]
    assert len(outputs[0]) > 100
    for first, second in zip(*outputs):
        assert first == second
    assert len(outputs[0]) == len(outputs[1])


# ---------------------------------------------------------------------------
# Grounding a tester as an extension of its scope
# ---------------------------------------------------------------------------

# Every field of a GroundProgram, read through its public name: the lazily
# built `atom_ids` and `unknown_ids` are read, not compared as caches. The
# statement masks have no public name; `rules` and `weak_constraints` are
# views that drop each #count's ground tuples.
GROUND_FIELDS = ("universe", "atoms", "atom_ids", "certain_ids", "certain_mask",
                 "unknown_ids", "unknown_mask", "_rules", "_constraints", "_weaks",
                 "trivially_incoherent", "levels")


def ground_fields(g: oracle.GroundProgram) -> dict:
    """`g`'s fields by name; a field that GROUND_FIELDS misses fails."""
    stored = {name.lstrip("_") for name in vars(g)}
    assert stored <= {name.lstrip("_") for name in GROUND_FIELDS}, stored
    return {name: getattr(g, name) for name in GROUND_FIELDS}


def _statement_key(s: oracle._GroundStatement) -> tuple:
    """A ground statement as a hashable value, its #count tuples included."""
    return (s.head, s.pos, s.neg, s.weight,
            tuple((a.aggregate, a.always, frozenset(a.conditional.items()))
                  for a in s.aggregates))


def _ground_outcome(build):
    """Every field of the ground program `build` returns, or the type,
    message and attributes of what it raises. The statement lists are
    multisets: a statement's instances come in the order the join finds
    them, which differs between a tester's extension of its scope and its
    full grounding."""
    try:
        fields = ground_fields(build())
    except Exception as exc:
        return type(exc).__name__, str(exc), vars(exc)
    for name in ("_rules", "_constraints", "_weaks"):
        fields[name] = Counter(map(_statement_key, fields[name]))
    return fields


def assert_scope_path_matches(scope: oracle.Scope, tester: Program) -> str:
    """`ground(tester, scope=scope)` equals `ground(tester)` in every field,
    or raises the same. Returns how it grounded the tester: "simplified"
    when it built on the scope's saved form, "full" when it instantiated the
    whole tester, and "scope error" when it raised, without instantiating,
    exactly the error that filling the scope raised; grounding that tester
    in full must then raise an error of the same type. The scope is filled
    first, so that its own instantiation is not counted as the tester's."""
    filled = _ground_outcome(lambda: scope.saved().ground)
    called = []
    instantiate = oracle._instantiate

    def spy(*args):
        called.append(args)
        return instantiate(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_instantiate", spy)
        got = _ground_outcome(lambda: ground(tester, scope=scope))
    full = _ground_outcome(lambda: ground(tester))
    if isinstance(filled, tuple) and not called:
        assert got == filled and got[0] == full[0], tester
        return "scope error"
    assert got == full, tester
    return "full" if called else "simplified"


def mutant_scopes():
    """(mutated scope, tester program) for every assertion of the mutation
    fixtures on each of their mutants at seeds 19 and 3 (8 per seed)."""
    for name in ("coloring_mutation.lp", "hamiltonian_mutation.lp"):
        unit = parse_unit(name, fixture_text(name))
        scopes = [(spec, resolve_scope(unit.suite, spec, default_file_loader(str(FIXTURES))))
                  for spec in unit.suite.tests]
        for seed in (19, 3):
            try:
                mutants = generate_mutants(mutation_base_program(unit), OPERATOR_KINDS, 8, seed)
            except ExhaustedLoci as exc:
                mutants = exc.mutants
            for mutant in mutants:
                transform = mutate._mutant_transform(unit, mutant)
                for spec, scope in scopes:
                    mutated = transform(scope)
                    for assertion in spec.asserts:
                        yield mutated, build_tester(mutated, assertion).program


def test_scope_path_matches_full_grounding_on_fixtures_and_mutants():
    paths = Counter(assert_scope_path_matches(oracle.Scope(scope), tester)
                    for scope, tester in [*fixture_scopes(), *mutant_scopes()])
    # every encoding of engine.KINDS adds fresh `__tk_` heads that occur only
    # negated, and no fixture names a predicate that sorts before them
    assert paths == {"simplified": 310}, paths


def test_scope_path_matches_full_grounding_on_random_join_programs():
    rng = random.Random(15)
    paths = Counter()
    for _ in range(300):
        p = random_join_program(rng)
        saved = oracle.Scope(p)
        outcome = _ground_outcome(lambda: ground(p))
        scope_outcome = outcome[0] if isinstance(outcome, tuple) else "ground program"
        for kind in ASSERTION_KINDS:
            if kind == "bestModelCost":
                assertion = BestModelCost(cost=rng.randint(0, 3), level=rng.randint(0, 2))
            else:
                assertion = random_join_assertion(rng, p, kind)
            paths[assert_scope_path_matches(saved, build_tester(p, assertion).program),
                  scope_outcome] += 1
    # a scope with a recursive #count in a rule head cannot be simplified;
    # its testers raise the scope's own error
    assert paths == {("simplified", "ground program"): 2720,
                     ("scope error", "UnsupportedAggregate"): 280}, paths


def test_scope_path_raises_what_full_grounding_raises_over_budget(monkeypatch):
    # the chain emits 170 instances; constraintForAll's `fail :- reach(X,Y).`
    # and `:- not fail.` add 153 and 1
    scope = program(CHAIN)
    tester = build_tester(scope, ConstraintForAll(Rule((), (lit("reach", "X", "Y"),)))).program
    for budget, path in ((100, "scope error"), (200, "simplified")):
        monkeypatch.setattr(oracle, "MAX_INSTANTIATIONS", budget)
        saved = oracle.Scope(scope)
        with pytest.raises(CapacityExceeded):
            ground(tester, scope=saved)
        # at 100 the scope's own join trips the budget, at 200 the tester's
        assert assert_scope_path_matches(saved, tester) == path


def test_a_tester_over_budget_raises_from_the_extension(monkeypatch):
    # the scope's 170 instances fit; the tester's added rule trips the
    # budget, and the tester is not instantiated again to raise it
    monkeypatch.setattr(oracle, "MAX_INSTANTIATIONS", 200)
    scope = oracle.Scope(program(CHAIN))
    tester = build_tester(scope.program,
                          ConstraintForAll(Rule((), (lit("reach", "X", "Y"),)))).program
    assert assert_scope_path_matches(scope, tester) == "simplified"
    with pytest.raises(CapacityExceeded, match=re.escape("grounding `__tk_fail_0 :- reach(X,Y).`")):
        ground(tester, scope=scope)


def test_a_scopes_error_is_raised_with_a_fresh_traceback_each_time():
    # the kept error holds no frame of the failed fill, and raising it for
    # one tester after another does not pile their frames up on it
    scope = oracle.Scope(program("p(1). q(X) :- p(X), #count{Y : q(Y)} = 0."))
    tester = build_tester(scope.program, NoAnswerSet()).program
    frames = []
    for _ in range(3):
        with pytest.raises(UnsupportedAggregate) as exc:
            ground(tester, scope=scope)
        frames.append([f.name for f in traceback.extract_tb(exc.value.__traceback__)])
    assert frames[0] == frames[1] == frames[2]
    assert "_save_scope" not in frames[0] and frames[0][-1] == "saved"


def test_an_added_head_in_a_positive_body_takes_the_full_path():
    scope = program("p(1). q(X) :- p(X).")
    saved = oracle.Scope(scope)
    feeds_scope = Program(scope.rules + (Rule((atom("p", 2),), ()),))
    feeds_itself = Program(scope.rules + (Rule((atom("b"),), ()),
                                          Rule((atom("a"),), (lit("b"),))))
    # equal rules that are not the scope's own, and other weak constraints
    copied_rules = program("p(1). q(X) :- p(X). r.")
    other_weaks = Program(scope.rules, (WeakConstraint((lit("q", "X"),), 1, 1),))
    for tester in (feeds_scope, feeds_itself, copied_rules, other_weaks):
        assert assert_scope_path_matches(saved, tester) == "full"
    assert atom("q", 2) in ground(feeds_scope, scope=saved).atoms
    assert atom("a") in ground(feeds_itself, scope=saved).atoms


@pytest.mark.parametrize("scope_text, asserted, universe", [
    ("p(1) | p(2).", atom("p", 3), [Integer(1), Integer(2), Integer(3)]),
    ("p(1) | p(2).", atom("p", 2), [Integer(1), Integer(2)]),
    # a scope without constants has the universe {a}; the tester's 1 replaces it
    ("a | b.", atom("c", 1), [Integer(1)]),
    ("a | b.", atom("b"), [Constant("a")]),
])
def test_a_testers_universe_is_its_scopes_plus_what_it_adds(scope_text, asserted, universe):
    scope = program(scope_text)
    tester = build_tester(scope, TrueInAll((asserted,))).program
    assert assert_scope_path_matches(oracle.Scope(scope), tester) == "simplified"
    assert ground(tester, scope=oracle.Scope(scope)).universe == universe


def test_scope_path_reuses_the_scope_and_matches_on_hand_built_testers():
    scope = program("p(1) | p(2). q(X) :- p(X), not r(X). r(3). :- q(1), q(2).")
    saved = oracle.Scope(scope)
    count_body = program(":- #count{X : q(X)} >= 1.").rules[0]
    testers = {
        # `:- q(1), q(2).` again: deduplicated against the scope's copy
        "same constraint": build_tester(
            scope, ConstraintInAtLeast(1, Rule((), (lit("q", 1), lit("q", 2))))),
        # `__tk_fail_0 :- #count{X : q(X)} >= 1.` has a head and a #count
        "count body": build_tester(scope, ConstraintForAll(count_body)),
        # r(1) is impossible, so `__tk_miss_0 :- not r(1).` makes it certain
        "certain head": build_tester(scope, TrueInAll((atom("r", 1),))),
    }
    for name, tp in testers.items():
        assert assert_scope_path_matches(saved, tp.program) == "simplified", name
    same = ground(testers["same constraint"].program)
    assert len(same.rules) == len(saved.saved().ground.rules)
    g = ground(testers["certain head"].program, scope=saved)
    last = len(g.atoms) - 1
    assert g.atoms[last] == atom("__tk_miss_0") and last in g.certain_ids


def test_a_tester_keeps_its_scopes_atom_ids_and_statements():
    scope = program(COLORING)
    saved = oracle.Scope(scope)
    tester = build_tester(scope, TrueInAll((atom("col", 1, "red"),))).program
    assert assert_scope_path_matches(saved, tester) == "simplified"
    base, g = saved.saved().ground, ground(tester, scope=saved)
    # the tester's `__tk_miss_0` takes the one id after the scope's atoms
    assert g.atoms == base.atoms + [atom("__tk_miss_0")]
    assert all(g.atom_ids[a] == i for i, a in enumerate(base.atoms))
    assert g.certain_ids == base.certain_ids and g.certain_mask == base.certain_mask
    for mine, scopes in ((g._rules, base._rules), (g._constraints, base._constraints),
                         (g._weaks, base._weaks)):
        assert all(map(is_, mine, scopes))
    assert len(g._rules) == len(base._rules) + 1
    assert len(g._constraints) == len(base._constraints) + 1


def test_scope_path_simplifies_the_whole_tester_when_the_scope_does_not_split_it(monkeypatch):
    def path(scope_text, assertion):
        scope = program(scope_text)
        return assert_scope_path_matches(oracle.Scope(scope),
                                         build_tester(scope, assertion).program)

    # the scope's own `__tk_z(1)` sorts after the tester's `__tk_miss_0`
    assert path("__tk_z(1) | b(1).", TrueInAll((atom("b", 1),))) == "full"
    # a recursive #count in a rule head: the scope itself cannot be
    # simplified, and its tester raises the scope's error
    assert path("p(1). q(X) :- p(X), #count{Y : q(Y)} = 0.", NoAnswerSet()) == "scope error"
    # an added head that the scope negates: `a.` makes the scope's `b` false
    scope = program("b :- not a.")
    tester = Program(scope.rules + (Rule((atom("a"),), ()),))
    assert assert_scope_path_matches(oracle.Scope(scope), tester) == "full"
    # over capacity only by the tester's unknown `__tk_miss_0`: the
    # extension raises what the full grounding raises
    monkeypatch.setattr(oracle, "MAX_ENUM_ATOMS", 2)
    assert path("a | b.", TrueInAll((atom("a"),))) == "simplified"
    with pytest.raises(CapacityExceeded):
        ground(build_tester(program("a | b."), TrueInAll((atom("a"),))).program)


def test_a_round_with_every_atom_new_joins_by_the_first_plan_only(monkeypatch):
    # with lo == 0, plan 1 would look q up and then p in the empty window
    # [0, 0); plan 0 looks p up by its signature, then q by Y's value
    join = oracle._join_of(program("r(X,Z) :- p(X,Y), q(Y,Z).").rules[0])
    index = oracle._AtomIndex()
    for a in (atom("p", 1, 2), atom("p", 2, 3), atom("q", 2, 4), atom("q", 3, 5)):
        index.add(a)
    keys = []
    lookup = index.lookup
    monkeypatch.setattr(index, "lookup", lambda key, *args: keys.append(key)
                        or lookup(key, *args))
    instances = join.round(index, 0, len(index), room=10)
    assert [head for head, *_ in instances] == [{atom("r", 1, 4)}, {atom("r", 2, 5)}]
    assert keys == [("p", 2), (("q", 2), 0, Integer(2)), (("q", 2), 0, Integer(3))]
    assert join.plans[1] is None  # never compiled


def test_ground_coloring_counts():
    g = ground(program(COLORING))
    disjunctive = [r for r in g.rules if len(r.head) > 1]
    constraints = [r for r in g.rules if r.is_constraint()]
    facts = [r for r in g.rules if r.is_fact()]
    assert len(disjunctive) == 3
    assert len(constraints) == 9
    assert len(facts) == 6
    assert len(g.unknown_ids) == 9


def test_ground_capacity_exceeded():
    # 3 predicates of arity 2 over 7 constants: far beyond 22 unknown atoms
    text = " ".join(f"d({i})." for i in range(7)) + \
        " p(X,Y) | q(X,Y) | r(X,Y) :- d(X), d(Y)."
    with pytest.raises(CapacityExceeded) as exc:
        ground(program(text))
    assert exc.value.atoms > 22


# ---------------------------------------------------------------------------
# Reduct
# ---------------------------------------------------------------------------

def test_reduct_textbook():
    g = ground(program("a :- not b. b :- not a."))
    red = reduct(g, [Atom("a")])
    assert red.rules == (Rule((Atom("a"),), ()),)


def test_reduct_positive_program_unchanged():
    g = ground(program("a. b :- a. c | d :- b."))
    red = reduct(g, [Atom("a"), Atom("b"), Atom("c")])
    assert set(red.rules) == set(g.rules)


def test_reduct_drops_all_when_everything_blocked():
    g = ground(program("a :- not b. b :- not a."))
    red = reduct(g, [Atom("a"), Atom("b")])
    assert red.rules == ()


def test_reduct_evaluates_head_rule_aggregates_and_keeps_constraint_ones():
    g = ground(program("p(1). p(2) :- not x. x :- not p(2). "
                       "r :- #count{X : p(X)} >= 2. :- #count{X : p(X)} > 5."))
    constraint = next(rule for rule in g.rules if not rule.head)
    held = reduct(g, [atom("p", 1), atom("p", 2), Atom("r")])
    assert Rule((Atom("r"),), ()) in held.rules
    assert constraint in held.rules
    failed = reduct(g, [atom("p", 1), Atom("x")])
    assert all(Atom("r") not in rule.head for rule in failed.rules)
    assert constraint in failed.rules


@pytest.mark.parametrize("interpretation", [
    [Atom("b")],                          # misses the fact a
    [Atom("a"), Atom("b"), Atom("zzz")],  # holds an atom outside the program
])
def test_reduct_rejects_interpretations_outside_its_domain(interpretation):
    g = ground(program("a. b :- a, not c. c :- not b."))
    with pytest.raises(ValueError):
        reduct(g, interpretation)


RECURSIVE_COUNT = ("#count over 'q' occurs in the head rule defining it; the oracle "
                   "only supports non-recursive aggregates in rules with heads")


def test_recursive_aggregate_rejected():
    with pytest.raises(UnsupportedAggregate) as exc:
        ground(program("p(1). q(X) :- p(X), #count{Y : q(Y)} = 0."))
    assert str(exc.value) == RECURSIVE_COUNT
    # recursion through another predicate
    with pytest.raises(UnsupportedAggregate) as exc:
        ground(program("p(1). q(X) :- p(X), #count{Y : s(Y)} = 0. s(X) :- q(X)."))
    assert str(exc.value) == RECURSIVE_COUNT.replace("'q'", "'s'")


def test_stratified_headed_aggregate_accepted():
    g = ground(program("p(1). p(2). many :- #count{X : p(X)} >= 2."))
    res = enumerate_answer_sets(g)
    assert len(res.answer_sets) == 1
    assert Atom("many") in res.answer_sets[0].atoms


# ---------------------------------------------------------------------------
# Simplification: the well-founded alternating fixpoint
# ---------------------------------------------------------------------------

def test_positive_loop_leaves_no_atom():
    g = ground(program("p :- q. q :- p."))
    assert g.atoms == [] and g.rules == ()


def test_negation_of_an_underivable_atom_is_certain():
    g = ground(program("a :- not b. b :- c."))
    assert g.atoms == [Atom("a")]
    assert g.certain_atoms() == {Atom("a")}
    assert g.rules == (Rule((Atom("a"),), ()),)


def test_even_negative_loop_stays_unknown():
    g = ground(program("a :- not b. b :- not a."))
    assert g.atoms == [Atom("a"), Atom("b")]
    assert g.certain_atoms() == frozenset()
    assert len(g.unknown_ids) == 2


def test_disjunction_with_a_certain_atom_drops_the_others():
    g = ground(program("a | b. a."))
    assert g.atoms == [Atom("a")]
    assert g.rules == (Rule((Atom("a"),), ()),)


def _stratification_message(check, stmts):
    try:
        check(stmts)
    except UnsupportedAggregate as exc:
        return str(exc)
    return None


def _build_outcome(universe, instances, levels):
    """The ground program `_build_ground` makes, or the type, message and
    counts of what it raises."""
    try:
        return oracle._build_ground(universe, instances, levels)
    except CapacityExceeded as exc:
        return "CapacityExceeded", str(exc), exc.atoms, exc.rules
    except UnsupportedAggregate as exc:
        return "UnsupportedAggregate", str(exc)


def _fields(outcome):
    return ground_fields(outcome) if isinstance(outcome, oracle.GroundProgram) else outcome


def simplify_inputs():
    """(universe, instances, levels) for `_build_ground`: the join's
    instances of 2500 random join programs, 2000 propositional ones, 500
    non-ground ones and every fixture tester, the universe product's
    instances of 500 join programs, and one program over capacity."""
    def joined(p: Program):
        universe = sorted(herbrand_universe(p), key=term_key)
        instances = oracle._instantiate(p.rules + p.weak_constraints, len(universe))[0]
        return universe, instances, oracle._levels(p)

    rng = random.Random(21)
    for _ in range(2500):
        yield joined(random_join_program(rng))
    rng = random.Random(22)
    for _ in range(2000):
        yield joined(random_program(rng))
    rng = random.Random(23)
    for _ in range(500):
        yield joined(random_nonground_program(rng)[0])
    for p in fixture_testers():
        yield joined(p)
    rng = random.Random(24)
    for _ in range(500):
        p = random_join_program(rng)
        yield (sorted(herbrand_universe(p), key=term_key), list(product_instances(p)),
               oracle._levels(p))
    yield joined(program(" ".join(f"d({i})." for i in range(7))
                         + " p(X,Y) | q(X,Y) | r(X,Y) :- d(X), d(Y)."))


def test_simplify_matches_the_reference(monkeypatch):
    reducts: list[tuple] = []
    build = oracle._build_ground

    def assert_matches(universe, instances, levels):
        got, want = oracle._simplify(instances), reference_simplify(instances)
        for name, g, w in zip(("statements", "possible", "certain", "incoherent"), got, want):
            assert g == w, (name, instances)
        stmts, possible, certain, _ = want
        # `_build_ground` takes its atoms from the possible set
        assert possible == certain.union(*(h | p | n for h, p, n, _, _ in stmts))
        assert _stratification_message(oracle._check_aggregate_stratification, stmts) == \
            _stratification_message(reference_check_aggregate_stratification, stmts)
        got = _build_outcome(universe, instances, levels)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_simplify", reference_simplify)
            m.setattr(oracle, "_check_aggregate_stratification",
                      reference_check_aggregate_stratification)
            want = _build_outcome(universe, instances, levels)
        assert _fields(got) == _fields(want), instances
        return got

    def record(universe, instances, levels):
        reducts.append((universe, list(instances), levels))
        return build(universe, instances, levels)

    outcomes = [assert_matches(*args) for args in simplify_inputs()]
    grounds = [g for g in outcomes if isinstance(g, oracle.GroundProgram)]
    with monkeypatch.context() as m:
        m.setattr(oracle, "_build_ground", record)
        for g in grounds:
            for answer in enumerate_answer_sets(g).answer_sets:
                reduct(g, answer)
    for args in reducts:
        assert_matches(*args)
    errors = [o[0] for o in outcomes if isinstance(o, tuple)]
    assert len(grounds) >= 4500 and len(reducts) >= 4500
    assert errors.count("UnsupportedAggregate") >= 50 and "CapacityExceeded" in errors
    assert sum(g.trivially_incoherent for g in grounds) >= 50


# ---------------------------------------------------------------------------
# Answer-set checking
# ---------------------------------------------------------------------------

def test_is_answer_set_disjunction_minimality():
    g = ground(program("a | b."))
    assert is_answer_set(g, [Atom("a")])
    assert is_answer_set(g, [Atom("b")])
    assert not is_answer_set(g, [Atom("a"), Atom("b")])
    # an atom outside the program
    assert not is_answer_set(g, [Atom("a"), Atom("zzz")])


def test_is_answer_set_coloring_member():
    g = ground(program(COLORING))
    interp = col_facts() | {atom("col", 1, "red"), atom("col", 2, "blue"),
                            atom("col", 3, "green")}
    assert is_answer_set(g, interp)
    assert not is_answer_set(g, interp | {atom("col", 1, "blue")})


def test_is_answer_set_hamiltonian_path_model():
    unit = parse_unit("ham.lp", fixture_text("hamiltonian_bug.lp"))
    input_prog = parse_unit("in.lp", unit.suite.tests[0].input).program
    scoped = Program(tuple(unit.suite.named_rules.values()) + input_prog.rules)
    g = ground(scoped)
    interp = {a.head[0] for a in input_prog.rules} | {
        atom("inCycle", 1, 2), atom("inCycle", 2, 4), atom("inCycle", 4, 3),
        atom("outCycle", 1, 4), atom("outCycle", 3, 1),
        atom("reached", 1), atom("reached", 2), atom("reached", 3), atom("reached", 4)}
    assert is_answer_set(g, interp)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_disjunctive_fact():
    res = enumerate_answer_sets(ground(program("a | b.")))
    assert res.exhausted and not res.incoherent
    assert res.atom_sets() == {frozenset({Atom("a")}), frozenset({Atom("b")})}


def test_enumerate_coloring_has_six_models():
    res = enumerate_answer_sets(ground(program(COLORING)))
    assert len(res.answer_sets) == 6
    assert res.exhausted


def test_enumerate_contradiction_is_incoherent():
    res = enumerate_answer_sets(ground(program("a. :- a.")))
    assert res.incoherent and res.exhausted and not res.answer_sets


def test_enumerate_empty_program_has_empty_model():
    res = enumerate_answer_sets(ground(Program()))
    assert [a.atoms for a in res.answer_sets] == [frozenset()]


def test_enumerate_cap_returns_prefix():
    g = ground(program(COLORING))
    full = enumerate_answer_sets(g)
    for cap in range(1, 8):
        capped = enumerate_answer_sets(g, cap=cap)
        assert capped.answer_sets == full.answer_sets[:cap]
        # at the cap the scan stops early, so exhaustion is only known
        # when fewer models than requested exist
        assert capped.exhausted == (cap > 6)
    with pytest.raises(ValueError):
        enumerate_answer_sets(g, cap=0)


def path_coloring(n: int) -> str:
    return " ".join(f"node({i}). edge({i},{i + 1})." for i in range(1, n)) + f""" node({n}).
col(X,red) | col(X,blue) | col(X,green) :- node(X).
:- edge(X,Y), col(X,C), col(Y,C)."""


def odd_cycle_two_coloring(n: int) -> str:
    return " ".join(f"node({i}). edge({i},{i % n + 1})." for i in range(1, n + 1)) + """
col(X,red) | col(X,blue) :- node(X).
:- edge(X,Y), col(X,C), col(Y,C)."""


@pytest.fixture
def leaves(monkeypatch):
    """The total assignments the search hands to `_passes`, in order."""
    seen = []
    passes = oracle._passes
    monkeypatch.setattr(oracle, "_passes",
                        lambda g, interp: seen.append(interp) or passes(g, interp))
    return seen


def test_search_cliff_path_colorings(leaves):
    # of the 2^18 candidates, propagation leaves only the 3 * 2^5 colorings
    g = ground(program(path_coloring(6)))
    res = enumerate_answer_sets(g)
    assert len(g.unknown_ids) == 18
    assert len(res.answer_sets) == 96 and res.exhausted
    assert len(leaves) == 96


def test_search_cliff_odd_cycle_is_incoherent(leaves):
    # propagation refutes both branches of the first atom, so none of the
    # 2^22 candidates reaches the answer-set check
    g = ground(program(odd_cycle_two_coloring(11)))
    res = enumerate_answer_sets(g)
    assert len(g.unknown_ids) == 22
    assert res.incoherent and res.exhausted and not res.answer_sets
    assert leaves == []


def head_cycle_inputs():
    """300 propositional programs with head cycles, each with its ground
    program."""
    rng = random.Random(14)
    for _ in range(300):
        p = random_head_cycle_program(rng)
        yield p, ground(p)


def random_search_inputs():
    """300 random join programs, 300 propositional ones with disjunction
    and head cycles, and 300 made to have head cycles, each with its ground
    program."""
    rng = random.Random(12)
    for _ in range(300):
        p = random_join_program(rng)
        try:
            yield p, ground(p)
        except UnsupportedAggregate:
            pass
    rng = random.Random(13)
    for _ in range(300):
        p = random_program(rng)
        yield p, ground(p)
    yield from head_cycle_inputs()


def search_inputs():
    """The random programs, then every tester built from the fixtures."""
    yield from random_search_inputs()
    for p in fixture_testers():
        yield p, ground(p)


def test_search_matches_scan_at_every_cap():
    checked = capped = 0
    for p, g in search_inputs():
        full = scan_answer_sets(g)
        for cap in [None] + list(range(1, len(full.answer_sets) + 2)):
            got, want = enumerate_answer_sets(g, cap), scan_answer_sets(g, cap)
            assert (got.answer_sets, got.exhausted, got.incoherent) == \
                (want.answer_sets, want.exhausted, want.incoherent), (p, cap)
            capped += cap is not None
        checked += 1
    assert checked >= 880 and capped >= 1400


def test_search_matches_brute_force():
    # the fixture testers are left to the scan: brute force takes about
    # 45 s on the Hamiltonian ones
    for p, g in random_search_inputs():
        want = brute_answer_sets(naive_ground(p.rules, g.universe), g.universe)
        assert enumerate_answer_sets(g).atom_sets() == set(want), p
    assert sum(not is_tight(g) for _, g in head_cycle_inputs()) >= 100


def mask_and_eager_inputs():
    """500 random join programs and 500 propositional ones with weak
    constraints, each with its ground program and its answer sets as
    `scan_answer_sets` decodes them, eagerly and on its own."""
    rng = random.Random(31)
    programs = [random_join_program(rng) for _ in range(500)]
    rng = random.Random(32)
    programs += [random_program(rng) for _ in range(500)]
    for p in programs:
        try:
            g = ground(p)
        except UnsupportedAggregate:
            continue
        yield p, g, scan_answer_sets(g).answer_sets


def test_mask_backed_answer_sets_behave_as_eager_ones():
    """Each check reads a fresh enumeration, so it meets the answer sets
    still as masks: a hash or a membership test may be what decodes them."""
    checked = with_levels = 0
    for p, g, eager in mask_and_eager_inputs():
        def fresh():
            return enumerate_answer_sets(g).answer_sets

        assert fresh() == eager and eager == fresh(), p
        assert [hash(a) for a in fresh()] == [hash(e) for e in eager], p
        assert [a.sorted_atoms() for a in fresh()] == [e.sorted_atoms() for e in eager], p
        assert [[x in a for x in g.atoms] for a in fresh()] == \
            [[x in e for x in g.atoms] for e in eager], p
        assert enumerate_answer_sets(g).atom_sets() == {e.atoms for e in eager}, p
        assert set(fresh()) == set(eager) and len(set(fresh() + eager)) == len(eager), p
        for a, e in zip(fresh(), eager):
            assert is_answer_set(g, a) and is_answer_set(g, e), p
            assert ground_fields(reduct(g, a)) == ground_fields(reduct(g, e)), p
        for a, e in zip(fresh(), eager):
            assert [penalty(g, a, l) for l in g.levels] == \
                [penalty(g, e, l) for l in g.levels], p
        checked += len(eager)
        with_levels += bool(g.levels) and bool(eager)
    assert checked >= 800 and with_levels >= 300


def test_minimality_check_matches_the_reference_at_every_leaf(leaves):
    checked = not_minimal = 0
    for p, g in search_inputs():
        leaves.clear()
        enumerate_answer_sets(g)
        for leaf in leaves:
            active = oracle._reduct_rules(g, leaf)
            if active is None:
                continue
            want = reference_is_minimal_model(active, leaf, g.certain_mask)
            assert oracle._is_minimal_model(active, leaf, g.certain_mask) == want, (p, leaf)
            checked += 1
            not_minimal += not want
    assert checked >= 800 and not_minimal >= 90


def test_search_reaches_only_answer_sets_on_tight_programs(leaves):
    # Without positive loops, a model whose true unknown atoms each head a
    # rule with a true body and no other true head atom is an answer set
    # (Fages 1994, with disjunction shifted). Propagation leaves only such
    # assignments when no #count hides a clause, so every leaf passes.
    checked = 0
    for p, g in search_inputs():
        if not is_tight(g) or any(s.aggregates for s in g._rules + g._constraints):
            continue
        leaves.clear()
        res = enumerate_answer_sets(g)
        assert len(leaves) == len(res.answer_sets), p
        checked += 1
    assert checked >= 450


def test_answer_sets_form_an_antichain():
    rng = random.Random(7)
    for _ in range(60):
        p = random_program(rng, with_weaks=False)
        sets = enumerate_answer_sets(ground(p)).atom_sets()
        for a in sets:
            for b in sets:
                assert not (a < b)


def test_pipeline_matches_brute_force_on_random_programs():
    rng = random.Random(42)
    for _ in range(150):
        p = random_program(rng, with_weaks=False)
        got = enumerate_answer_sets(ground(p)).atom_sets()
        want = set(brute_answer_sets(p.rules))
        assert got == want, p


def test_pipeline_matches_brute_force_with_variables():
    text = """d(1). d(2). d(3).
    p(X) | q(X) :- d(X).
    r(X) :- p(X), not q(X).
    :- p(1), p(2).
    """
    p = program(text)
    got = enumerate_answer_sets(ground(p)).atom_sets()
    naive = naive_ground(p.rules, [Integer(1), Integer(2), Integer(3)])
    want = set(brute_answer_sets(naive))
    assert got == want


def test_pipeline_matches_brute_force_on_random_nonground_programs():
    rng = random.Random(5)
    for _ in range(40):
        p, universe = random_nonground_program(rng)
        got = enumerate_answer_sets(ground(p)).atom_sets()
        want = set(brute_answer_sets(naive_ground(p.rules, universe)))
        assert got == want, p


def test_pipeline_matches_brute_force_on_random_join_programs():
    # Costs are read from the ground program's weak constraints, the ones
    # `penalty` documents: weighted instances that simplification merges
    # are one weak constraint there (see ROADMAP item 2).
    rng = random.Random(9)
    checked = optimized = 0
    for _ in range(300):
        p = random_join_program(rng)
        try:
            g = ground(p)
        except UnsupportedAggregate:
            continue
        universe = g.universe
        want = brute_answer_sets(naive_ground(p.rules, universe), universe)
        assert enumerate_answer_sets(g).atom_sets() == set(want), p
        checked += 1
        if not p.weak_constraints:
            continue
        best = optimal_answer_sets(g)
        assert best.atom_sets() == set(brute_optimal(g, want, universe)), p
        for i, answer in enumerate(best.answer_sets):
            for level in g.levels:
                assert best.costs[(i, level)] == brute_penalty(g, answer.atoms, level, universe)
        optimized += bool(best.answer_sets)
    assert checked >= 250 and optimized >= 50


def test_pipeline_matches_brute_force_on_count_guard_variables():
    # a #count guard variable is global: the product reference ranges it
    # over the universe, and the join must bind it from a positive atom
    rng = random.Random(31)
    first = 0
    for _ in range(300):
        p = random_guard_count_program(rng)
        assert_join_matches_product(p)
        g = ground(p)
        want = brute_answer_sets(naive_ground(p.rules, g.universe), g.universe)
        assert enumerate_answer_sets(g).atom_sets() == set(want), p
        tester = build_tester(p, ConstraintForAll(Rule((), guard_count_body(rng)))).program
        assert assert_scope_path_matches(oracle.Scope(p), tester) == "simplified"
        first += any(global_variables(r.head, r.body)
                     != global_variables(r.head, r.body, guards=False) for r in p.rules)
    # programs where a #count guard is a variable's first occurrence
    assert first >= 25, first


def test_reduct_of_answer_set_reproduces_it():
    rng = random.Random(3)
    for _ in range(40):
        p = random_program(rng, with_weaks=False)
        g = ground(p)
        for answer in enumerate_answer_sets(g).answer_sets:
            assert is_answer_set(g, answer)


# ---------------------------------------------------------------------------
# Weak constraints
# ---------------------------------------------------------------------------

def test_penalty_without_weak_constraints_is_zero():
    g = ground(program("a | b."))
    for answer in enumerate_answer_sets(g).answer_sets:
        assert penalty(g, answer, 0) == 0
        assert penalty(g, answer, 7) == 0


@pytest.mark.parametrize("interpretation", [
    [Atom("a"), Atom("zzz")],  # misses the fact b and holds an atom outside
    [Atom("a")],               # misses the fact b, whose weak constraint fires
])
def test_penalty_rejects_interpretations_outside_its_domain(interpretation):
    g = ground(program("b. a :- not c. c :- not a. :~ a. [2@1] :~ b. [1@1]"))
    assert penalty(g, [Atom("a"), Atom("b")], 1) == 3
    with pytest.raises(ValueError):
        penalty(g, interpretation, 1)


def test_weak_constraint_with_count_aggregate():
    # the weak constraint fires exactly when a holds and both d atoms do
    g = ground(program("d(1). d(2) | e. a | b. :~ a, #count{X : d(X)} >= 2. [4@1]"))
    assert penalty(g, {atom("d", 1), atom("d", 2), Atom("a")}, 1) == 4
    assert penalty(g, {atom("d", 1), Atom("e"), Atom("a")}, 1) == 0
    res = optimal_answer_sets(g)
    assert res.atom_sets() == {
        frozenset({atom("d", 1), atom("d", 2), Atom("b")}),
        frozenset({atom("d", 1), Atom("e"), Atom("a")}),
        frozenset({atom("d", 1), Atom("e"), Atom("b")}),
    }
    assert all(cost == 0 for cost in res.costs.values())


def test_penalty_coloring_preference():
    g = ground(program(COLORING_PREF))
    res = enumerate_answer_sets(g)
    for answer in res.answer_sets:
        expected = 0 if atom("col", 2, "red") in answer.atoms else 1
        assert penalty(g, answer, 1) == expected
        assert penalty(g, answer, 0) == 0


def test_optimal_all_when_no_weak_constraints():
    g = ground(program("a | b."))
    res = optimal_answer_sets(g)
    assert len(res.answer_sets) == 2
    assert res.costs is None


def test_optimal_coloring_preference():
    g = ground(program(COLORING_PREF))
    res = optimal_answer_sets(g)
    assert len(res.answer_sets) == 2
    assert all(atom("col", 2, "red") in a.atoms for a in res.answer_sets)
    preferred = col_facts() | {atom("preferablyRed", 2), atom("col", 1, "green"),
                               atom("col", 2, "red"), atom("col", 3, "blue")}
    assert frozenset(preferred) in res.atom_sets()
    assert all(res.costs[(i, 1)] == 0 for i in range(2))


def test_optimal_single_level_costs():
    # three answer sets with costs 2, 1, 1: the two cheap ones win
    text = """a | b | c.
    :~ a. [2@1]
    :~ b. [1@1]
    :~ c. [1@1]"""
    res = optimal_answer_sets(ground(program(text)))
    assert res.atom_sets() == {frozenset({Atom("b")}), frozenset({Atom("c")})}


def test_optimal_respects_levels():
    # level 2 dominates: a is cheaper at the highest level despite level 1
    text = """a | b.
    :~ a. [5@1]
    :~ b. [1@2]"""
    res = optimal_answer_sets(ground(program(text)))
    assert res.atom_sets() == {frozenset({Atom("a")})}


def test_optimal_reports_a_level_whose_weak_constraints_were_removed():
    # `a` is never derivable, so simplification drops `:~ a. [1@1]`, and
    # level 1 still costs 0; the tester's levels are its scope's
    p = program(":~ a. [1@1] b.")
    assert optimal_answer_sets(ground(p)).costs == {(0, 1): 0}
    scope = oracle.Scope(p)
    tester = build_tester(p, BestModelCost(0, 1)).program
    assert optimal_answer_sets(ground(tester, scope=scope)).costs == {(0, 1): 0}


def test_no_returned_optimum_is_dominated():
    from helpers import brute_optimal
    rng = random.Random(11)
    for _ in range(60):
        p = random_program(rng, with_weaks=True)
        got = optimal_answer_sets(ground(p)).atom_sets()
        want = set(brute_optimal(p, brute_answer_sets(p.rules)))
        assert got == want, p


def test_reduct_is_identity_on_random_positive_programs():
    rng = random.Random(19)
    for _ in range(30):
        p = random_program(rng, with_weaks=False)
        positive = Program(tuple(
            Rule(r.head, tuple(l for l in r.body if not l.negated))
            for r in p.rules if r.head or any(not l.negated for l in r.body)))
        g = ground(positive)
        for answer in enumerate_answer_sets(g).answer_sets:
            assert set(reduct(g, answer).rules) == set(g.rules)
