"""Mutation operators and the kill-analysis harness.

Every mutant differs from the original program by a single structural edit
(more per mutant on request): renaming one predicate occurrence, deleting a
rule or a body literal, toggling default negation, swapping two arguments of
one atom, or nudging a comparison / aggregate guard operator to its
neighbor. Edits that produce an unsafe or unchanged program are discarded at
generation time.

`OPERATORS` defines each operator once: its loci within one rule and its
edit of the rule at a locus. Its order fixes seeded output: a seed shuffles
the loci listed by rule, then in table order, which makes shipped mutant
sets reproducible. The analysis runs every assertion of the suite against
each mutant; a mutant is killed when at least one fails, and `killed_by`
lists every assertion that failed on it.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter, namedtuple
from dataclasses import dataclass, field, replace
from itertools import combinations, count as naturals, islice
from typing import Callable, Iterable, Iterator, Optional

from .model import Atom, Literal, Program, Rule, UnsafeRuleError, check_statements
# `run_test` is not called here, but stays a name of this module, as it is
# of `engine`: verdictbench/tracing.py wraps both
from .engine import FAIL, PASS, SuiteReport, TestResult, run_suite, run_test, run_tests
from .oracle import Scope
from .parser import ParseFailure, SourceUnit, parse_ground_atom
from .serialize import serialize_program

# = <-> !=, < <-> <=, > <-> >=
_ADJACENT_OP = {"=": "!=", "!=": "=", "<": "<=", "<=": "<", ">": ">=", ">=": ">"}


class InapplicableOp(Exception):
    """The operator has no valid locus in the target program."""


class UnsafeMutant(Exception):
    """The edit would break rule safety; the mutant is discarded."""


class ExhaustedLoci(Exception):
    """Fewer distinct valid mutants exist than were requested."""

    def __init__(self, requested: int, mutants: list["Mutant"]):
        self.requested = requested
        self.mutants = mutants
        super().__init__(
            f"only {len(mutants)} distinct valid mutant(s) exist, {requested} requested")


@dataclass(frozen=True)
class MutationOp:
    """One concrete edit: operator kind plus its locus.

    site: "head", "body", "agg" (an aggregate's condition) or "" (the whole
    rule); slot: atom/literal position; detail: operator specific (argument
    pair, replacement name, ...).
    """

    kind: str
    rule_index: int
    site: str = ""
    slot: int = -1
    detail: tuple = ()

    def describe(self) -> str:
        bits = [self.kind, f"rule {self.rule_index}"]
        if self.site:
            bits.append(f"{self.site}[{self.slot}]")
        if self.detail:
            bits.append("/".join(str(d) for d in self.detail))
        return " ".join(bits)


@dataclass(frozen=True)
class Mutant:
    """A program derived by applying mutation operators to the base."""

    id: str
    ops: tuple[MutationOp, ...]
    program: Program
    seed: int

    def describe_ops(self) -> str:
        return "; ".join(op.describe() for op in self.ops)


# ---------------------------------------------------------------------------
# The operator table
# ---------------------------------------------------------------------------

# `loci(rule, rename_targets)` lists an operator's (site, slot, detail) loci in
# one rule; `edit(rule, op, rename_targets)` edits the rule at the op's locus,
# giving None to delete it. `rename_targets(atom)` names the predicates an
# occurrence of `atom` may be renamed to.
Operator = namedtuple("Operator", "loci edit")


def _splice(items: tuple, i: int, new: tuple) -> tuple:
    """`items` with its i-th element replaced by the elements of `new`."""
    return items[:i] + new + items[i + 1:]


def _whole_rule(rule: Rule, rename_targets) -> list[tuple[str, int, tuple]]:
    return [("", -1, ())]


def _delete_rule(rule: Rule, op: MutationOp, rename_targets) -> None:
    return None


def _body_operator(rewrite: Callable[[Rule, Literal], Optional[tuple]]) -> Operator:
    """An operator whose locus is one body literal: `rewrite` gives the
    literals that take its place, or None where the operator does not apply."""
    def loci(rule: Rule, rename_targets) -> list[tuple[str, int, tuple]]:
        return [("body", i, ()) for i, lit in enumerate(rule.body)
                if rewrite(rule, lit) is not None]

    def edit(rule: Rule, op: MutationOp, rename_targets) -> Rule:
        return replace(rule, body=_splice(rule.body, op.slot, rewrite(rule, rule.body[op.slot])))

    return Operator(loci, edit)


def _delete_literal(rule: Rule, lit: Literal) -> Optional[tuple]:
    # a constraint keeps at least one body literal
    return () if rule.head or len(rule.body) > 1 else None


def _add_default_negation(rule: Rule, lit: Literal) -> Optional[tuple]:
    if lit.is_atom() and not lit.negated:
        return (Literal(lit.atom, negated=True),)


def _swap_default_negation(rule: Rule, lit: Literal) -> Optional[tuple]:
    if lit.is_atom():
        return (Literal(lit.atom, negated=not lit.negated),)


def _change_math_operator(rule: Rule, lit: Literal) -> Optional[tuple]:
    if lit.is_comparison():
        return (Literal(replace(lit.payload, op=_ADJACENT_OP[lit.payload.op])),)


def _change_aggregate(rule: Rule, lit: Literal) -> Optional[tuple]:
    if lit.is_aggregate():
        agg = lit.payload
        return (Literal(replace(agg, guard_op=_ADJACENT_OP[agg.guard_op]), lit.negated),)


def _atom_sites(rule: Rule) -> Iterator[tuple[str, int, Atom]]:
    """(site, slot, atom) for every atom occurrence, aggregate conditions included."""
    for i, a in enumerate(rule.head):
        yield ("head", i, a)
    for i, lit in enumerate(rule.body):
        if lit.is_atom():
            yield ("body", i, lit.atom)
        elif lit.is_aggregate():
            yield ("agg", i, lit.payload.condition)


def _atom_operator(variants: Callable[..., dict[tuple, Atom]]) -> Operator:
    """An operator whose locus is one atom occurrence plus a detail: a key of
    `variants(atom, rename_targets)`, which maps it to the replacement atom."""
    def loci(rule: Rule, rename_targets) -> list[tuple[str, int, tuple]]:
        return [(site, slot, detail) for site, slot, atom in _atom_sites(rule)
                for detail in variants(atom, rename_targets)]

    def edit(rule: Rule, op: MutationOp, rename_targets) -> Rule:
        atom = next(a for site, slot, a in _atom_sites(rule) if (site, slot) == (op.site, op.slot))
        new = variants(atom, rename_targets)[op.detail]
        if op.site == "head":
            return replace(rule, head=_splice(rule.head, op.slot, (new,)))
        lit = rule.body[op.slot]
        payload = new if op.site == "body" else replace(lit.payload, condition=new)
        return replace(rule, body=_splice(rule.body, op.slot, (replace(lit, payload=payload),)))

    return Operator(loci, edit)


def _swap_terms(atom: Atom, rename_targets) -> dict[tuple, Atom]:
    swaps = {}
    for i, j in combinations(range(atom.arity), 2):
        if atom.args[i] != atom.args[j]:
            args = list(atom.args)
            args[i], args[j] = args[j], args[i]
            swaps[(i, j)] = Atom(atom.predicate, tuple(args))
    return swaps


def _rename_predicate(atom: Atom, rename_targets) -> dict[tuple, Atom]:
    return {(target,): Atom(target, atom.args) for target in rename_targets(atom)}


OPERATORS: dict[str, Operator] = {
    "renamePredicates": _atom_operator(_rename_predicate),
    "deleteRule": Operator(_whole_rule, _delete_rule),
    "deleteLiteral": _body_operator(_delete_literal),
    "addDefaultNegation": _body_operator(_add_default_negation),
    "swapTerms": _atom_operator(_swap_terms),
    "changeAggregates": _body_operator(_change_aggregate),
    "changeMathOperators": _body_operator(_change_math_operator),
    "swapDefaultNegation": _body_operator(_swap_default_negation),
}
OPERATOR_KINDS = tuple(OPERATORS)


# ---------------------------------------------------------------------------
# Loci enumeration and application
# ---------------------------------------------------------------------------

def enumerate_loci(program: Program, kinds: Iterable[str]) -> list[MutationOp]:
    """Every concrete (operator, locus) pair applicable to the program, by
    rule, then kind, then locus. An occurrence is renamed to every other
    predicate of its arity, or to a fresh `<name>_m<i>` when it has none."""
    kinds = list(kinds)
    for kind in kinds:
        if kind not in OPERATORS:
            raise ValueError(f"unknown mutation operator {kind!r}")
    by_arity: dict[int, set[str]] = {}
    for rule in program.rules:
        for _, _, atom in _atom_sites(rule):
            by_arity.setdefault(atom.arity, set()).add(atom.predicate)
    taken = set().union(*by_arity.values())

    def rename_targets(atom: Atom) -> list[str]:
        peers = sorted(by_arity[atom.arity] - {atom.predicate})
        return peers or [next(f"{atom.predicate}_m{i}" for i in naturals()
                              if f"{atom.predicate}_m{i}" not in taken)]

    return [MutationOp(kind, ri, site, slot, detail)
            for ri, rule in enumerate(program.rules)
            for kind in kinds
            for site, slot, detail in OPERATORS[kind].loci(rule, rename_targets)]


def _is_predicate_name(name) -> bool:
    try:
        return isinstance(name, str) and parse_ground_atom(name) == Atom(name, ())
    except ParseFailure:
        return False


def apply_op(program: Program, op: MutationOp) -> Program:
    """Apply one edit; raises InapplicableOp unless the op's locus is one its
    operator lists for the rule (a rename may target any other well-formed
    predicate name), and UnsafeMutant when the result would violate safety."""
    operator = OPERATORS.get(op.kind)
    if operator is None or not 0 <= op.rule_index < len(program.rules):
        raise InapplicableOp(f"no locus {op.describe()}")
    rule = program.rules[op.rule_index]

    def rename_targets(atom: Atom) -> list[str]:  # any other well-formed name
        return [name for name in op.detail if name != atom.predicate and _is_predicate_name(name)]

    if (op.site, op.slot, op.detail) not in operator.loci(rule, rename_targets):
        raise InapplicableOp(f"no locus {op.describe()}")
    new_rule = operator.edit(rule, op, rename_targets)
    edited = () if new_rule is None else (new_rule,)
    try:
        check_statements(edited)  # the other rules passed as parts of `program`
    except UnsafeRuleError as exc:
        raise UnsafeMutant(
            f"{op.kind} at rule {op.rule_index} leaves {sorted(exc.unbound)} unbound") from None
    return Program.of_checked(_splice(program.rules, op.rule_index, edited),
                              program.weak_constraints)


def _applicable(program: Program, loci: list[MutationOp]) -> Iterator[tuple[MutationOp, Program]]:
    """(op, mutated program) for each op of `loci` that applies safely."""
    for op in loci:
        try:
            yield op, apply_op(program, op)
        except (InapplicableOp, UnsafeMutant):
            continue


def generate_mutants(program: Program, kinds: Iterable[str], count: int,
                     seed: int, ops_per_mutant: int = 1) -> list[Mutant]:
    """Draw up to `count` distinct valid mutants; deterministic under seed.

    Unsafe edits, unparseable results and programs AST-equal to the original
    or to an earlier mutant are skipped. Raises ExhaustedLoci (carrying the
    partial list) when the loci run out first.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    kinds = list(kinds)
    rng = random.Random(seed)
    mutants: list[Mutant] = []
    seen_programs = {program}

    if ops_per_mutant == 1:
        loci = enumerate_loci(program, kinds)
        rng.shuffle(loci)
        for op, mutated in _applicable(program, loci):
            if mutated in seen_programs:
                continue
            seen_programs.add(mutated)
            mutants.append(Mutant(f"m{len(mutants) + 1:02d}", (op,), mutated, seed))
            if len(mutants) == count:
                return mutants
        raise ExhaustedLoci(count, mutants)

    # higher-order mutants: apply several random edits in sequence
    for _attempt in range(count * 50):
        if len(mutants) == count:
            break
        current = program
        applied: list[MutationOp] = []
        for _ in range(ops_per_mutant):
            loci = enumerate_loci(current, kinds)
            rng.shuffle(loci)
            op, current = next(_applicable(current, loci), (None, current))
            if op is None:
                break
            applied.append(op)
        if len(applied) != ops_per_mutant or current in seen_programs:
            continue
        seen_programs.add(current)
        mutants.append(Mutant(f"m{len(mutants) + 1:02d}", tuple(applied), current, seed))
    if len(mutants) < count:
        raise ExhaustedLoci(count, mutants)
    return mutants


# ---------------------------------------------------------------------------
# Kill analysis
# ---------------------------------------------------------------------------

@dataclass
class MutantOutcome:
    """Whether the suite killed one mutant, and by which tests."""

    mutant: Mutant
    status: str                    # killed | survived | inconclusive
    killed_by: list[str] = field(default_factory=list)
    tests: list[TestResult] = field(default_factory=list)


@dataclass
class KillReport:
    """Baseline run and the outcome of every mutant, rendered as text or
    JSON; `exhausted` says that fewer mutants exist than were requested.
    A unit without named rules has nothing to mutate: its report
    (`nothing_to_mutate`) has no baseline run, `baseline_passed` None, and
    says why in both formats."""

    baseline: Optional[SuiteReport]
    baseline_passed: Optional[bool]
    outcomes: list[MutantOutcome] = field(default_factory=list)
    assertion_failures: dict[str, int] = field(default_factory=dict)
    exhausted: Optional[ExhaustedLoci] = None
    refusal: str = ""

    @classmethod
    def nothing_to_mutate(cls) -> KillReport:
        return cls(baseline=None, baseline_passed=None, refusal="no named rules to mutate "
                   "(only @rule-annotated rules are mutation targets)")

    def all_killed(self) -> bool:
        return bool(self.outcomes) and all(o.status == "killed" for o in self.outcomes)

    @property
    def counts(self) -> dict[str, int]:
        statuses = [o.status for o in self.outcomes]
        return {"mutants": len(statuses), "killed": statuses.count("killed"),
                "survived": statuses.count("survived"),
                "inconclusive": statuses.count("inconclusive")}

    def to_json_dict(self) -> dict:
        doc = {
            "baseline_passed": self.baseline_passed,
            "mutants": [
                {
                    "id": o.mutant.id,
                    "ops": [op.describe() for op in o.mutant.ops],
                    "seed": o.mutant.seed,
                    "status": o.status,
                    "killed_by": o.killed_by,
                    "program": serialize_program(o.mutant.program),
                }
                for o in self.outcomes
            ],
            "assertion_failures": self.assertion_failures,
            "counts": self.counts,
        }
        if self.refusal:
            doc["refusal"] = self.refusal
        elif not self.baseline_passed:
            doc["baseline"] = self.baseline.to_json_dict()
        elif self.exhausted is not None:
            doc["exhausted_loci"] = str(self.exhausted)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def human_lines(self) -> list[str]:
        if self.refusal:
            return [self.refusal]
        if not self.baseline_passed:
            return ["baseline run failed: the original program does not pass its own "
                    "test suite; fix the tests before measuring them",
                    *("  " + line for line in self.baseline.human_lines())]
        lines = ["mutant  status       ops"]
        for o in self.outcomes:
            detail = f"  killed by: {', '.join(o.killed_by)}" if o.killed_by else ""
            lines.append(f"{o.mutant.id:<7} {o.status:<12} {o.mutant.describe_ops()}{detail}")
        c = self.counts
        lines.append(f"{c['mutants']} mutant(s): {c['killed']} killed, "
                     f"{c['survived']} survived, {c['inconclusive']} inconclusive")
        if self.exhausted is not None:
            lines.append(f"note: {self.exhausted}")
        return lines


def mutation_base_program(unit: SourceUnit) -> Program:
    """The program mutation operates on: the named (testable) rules."""
    return Program(tuple(unit.suite.named_rules.values()))


def _origin_key(rule: Rule):
    """Where a rule was written; `p.lp` and `./p.lp` are one file."""
    o = rule.origin
    return (os.path.abspath(o.path), o.line, o.column) if o is not None else ("", id(rule), 0)


def _mutant_transform(unit: SourceUnit, mutant: Mutant) -> Callable[[Program], Program]:
    """Map resolved scope programs onto the mutant. Rules are matched by
    source origin, which every edit keeps: a named rule maps to its edited
    form, or to None when the mutant deleted it. Each rule of the result
    was checked as part of the scope or of the mutant, so none is checked
    again."""
    mapping: dict = {_origin_key(rule): None for rule in unit.suite.named_rules.values()}
    mapping.update((_origin_key(rule), rule) for rule in mutant.program.rules)

    def transform(program: Program) -> Program:
        rules = (mapping.get(_origin_key(rule), rule) for rule in program.rules)
        return Program.of_checked(tuple(r for r in rules if r is not None),
                                  program.weak_constraints)

    return transform


def _outcome(mutant: Mutant, tests: list[TestResult]) -> MutantOutcome:
    """Killed when the verdict of all the mutant's assertions together is
    a failure, survived when it is a pass, inconclusive otherwise."""
    labelled = [(f"{test.name}/{a.kind}", a) for test in tests for a in test.assertions]
    verdict = TestResult.aggregate([a for _, a in labelled])
    return MutantOutcome(mutant, {FAIL: "killed", PASS: "survived"}.get(verdict, "inconclusive"),
                         [label for label, a in labelled if a.verdict == FAIL], tests)


def mutation_analysis(unit: SourceUnit, mutants: list[Mutant], backend,
                      jobs: int = 1) -> KillReport:
    """Run the unit's suite against every mutant. Requires a green baseline:
    when the original program already fails its own tests the analysis is
    refused (baseline_passed=False, no outcomes). Every mutant runs on its
    transform of each test's scope as the baseline resolved it; the tests
    of every mutant are one list of `engine.run_tests`."""
    baseline = run_suite(unit, backend, jobs=jobs)
    report = KillReport(baseline=baseline, baseline_passed=baseline.all_passed())
    if not report.baseline_passed:
        return report
    # a green baseline resolved every test's scope; a test without
    # assertions has nothing to decide on a mutant
    scopes = [(spec, test.program) for spec, test in zip(unit.suite.tests, baseline.tests)
              if spec.asserts]
    tests = []
    for mutant in mutants:
        transform = _mutant_transform(unit, mutant)
        tests.extend((spec, Scope(transform(program))) for spec, program in scopes)
    decided = iter(run_tests(tests, backend, jobs))
    report.outcomes = [_outcome(mutant, list(islice(decided, len(scopes)))) for mutant in mutants]
    report.assertion_failures = dict(Counter(label for outcome in report.outcomes
                                             for label in outcome.killed_by))
    return report
