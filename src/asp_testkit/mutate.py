"""Mutation operators and the kill-analysis harness.

Every mutant differs from the original program by a single structural edit
(more per mutant on request): renaming one predicate occurrence, deleting a
rule or a body literal, toggling default negation, swapping two arguments of
one atom, or nudging a comparison / aggregate guard operator to its
neighbor. Edits that produce an unsafe or unchanged program are discarded at
generation time.

Generation is deterministic under its seed, which makes shipped mutant sets
reproducible. The analysis runs the suite against each mutant; a mutant is
killed as soon as one assertion fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from .model import (
    Atom,
    Comparison,
    CountAggregate,
    Literal,
    Program,
    Rule,
    unbound_variables,
)
from .engine import FAIL, PASS, SuiteReport, TestResult, map_in_order, run_suite, run_test
from .parser import SourceUnit
from .serialize import serialize_program

OPERATOR_KINDS = (
    "renamePredicates",
    "deleteRule",
    "deleteLiteral",
    "addDefaultNegation",
    "swapTerms",
    "changeAggregates",
    "changeMathOperators",
    "swapDefaultNegation",
)

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

    site: "head" or "body"; index: rule index; slot: atom/literal position;
    detail: operator specific (argument pair, replacement name, ...).
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
    id: str
    ops: tuple[MutationOp, ...]
    program: Program
    seed: int

    def describe_ops(self) -> str:
        return "; ".join(op.describe() for op in self.ops)


# ---------------------------------------------------------------------------
# Loci enumeration and application
# ---------------------------------------------------------------------------

def _atom_sites(rule: Rule):
    """(site, slot, atom) triples for every atom occurrence of a rule,
    aggregate conditions included."""
    for i, a in enumerate(rule.head):
        yield ("head", i, a)
    for i, lit in enumerate(rule.body):
        if lit.is_atom():
            yield ("body", i, lit.atom)
        elif lit.is_aggregate():
            yield ("agg", i, lit.payload.condition)


def _arities(program: Program) -> dict[int, set[str]]:
    by_arity: dict[int, set[str]] = {}
    for rule in program.rules:
        for _, _, atom in _atom_sites(rule):
            by_arity.setdefault(atom.arity, set()).add(atom.predicate)
    return by_arity


def _fresh_rename_target(program: Program, base: str) -> str:
    taken = set()
    for arity_preds in _arities(program).values():
        taken |= arity_preds
    i = 0
    while f"{base}_m{i}" in taken:
        i += 1
    return f"{base}_m{i}"


def enumerate_loci(program: Program, kinds: Iterable[str]) -> list[MutationOp]:
    """Every concrete (operator, locus) pair applicable to the program, in a
    deterministic order."""
    ops: list[MutationOp] = []
    by_arity = _arities(program)
    for kind in kinds:
        if kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown mutation operator {kind!r}")
    for ri, rule in enumerate(program.rules):
        for kind in kinds:
            if kind == "deleteRule":
                ops.append(MutationOp(kind, ri))
            elif kind == "deleteLiteral":
                for bi in range(len(rule.body)):
                    if rule.head or len(rule.body) > 1:
                        ops.append(MutationOp(kind, ri, "body", bi))
            elif kind == "addDefaultNegation":
                for bi, lit in enumerate(rule.body):
                    if lit.is_atom() and not lit.negated:
                        ops.append(MutationOp(kind, ri, "body", bi))
            elif kind == "swapDefaultNegation":
                for bi, lit in enumerate(rule.body):
                    if lit.is_atom():
                        ops.append(MutationOp(kind, ri, "body", bi))
            elif kind == "changeMathOperators":
                for bi, lit in enumerate(rule.body):
                    if lit.is_comparison():
                        ops.append(MutationOp(kind, ri, "body", bi))
            elif kind == "changeAggregates":
                for bi, lit in enumerate(rule.body):
                    if lit.is_aggregate():
                        ops.append(MutationOp(kind, ri, "body", bi))
            elif kind == "swapTerms":
                for site, slot, atom in _atom_sites(rule):
                    for i in range(atom.arity):
                        for j in range(i + 1, atom.arity):
                            if atom.args[i] != atom.args[j]:
                                ops.append(MutationOp(kind, ri, site, slot, (i, j)))
            elif kind == "renamePredicates":
                for site, slot, atom in _atom_sites(rule):
                    others = sorted(by_arity.get(atom.arity, set()) - {atom.predicate})
                    if not others:
                        others = [_fresh_rename_target(program, atom.predicate)]
                    for target in others:
                        ops.append(MutationOp(kind, ri, site, slot, (target,)))
    return ops


def _replace_atom(rule: Rule, site: str, slot: int, new_atom: Atom) -> Rule:
    if site == "head":
        head = list(rule.head)
        head[slot] = new_atom
        return replace(rule, head=tuple(head))
    body = list(rule.body)
    lit = body[slot]
    if site == "body":
        body[slot] = Literal(new_atom, lit.negated)
    else:  # aggregate condition
        agg = lit.payload
        body[slot] = Literal(CountAggregate(agg.terms, new_atom, agg.guard_op, agg.guard),
                             lit.negated)
    return replace(rule, body=tuple(body))


def apply_op(program: Program, op: MutationOp) -> Program:
    """Apply one edit; raises InapplicableOp for a bad locus and UnsafeMutant
    when the result would violate safety."""
    if not (0 <= op.rule_index < len(program.rules)):
        raise InapplicableOp(f"no rule at index {op.rule_index}")
    rule = program.rules[op.rule_index]
    new_rule: Optional[Rule]

    if op.kind == "deleteRule":
        new_rule = None
    elif op.kind == "deleteLiteral":
        if not (0 <= op.slot < len(rule.body)):
            raise InapplicableOp("no body literal at that locus")
        body = rule.body[:op.slot] + rule.body[op.slot + 1:]
        if not rule.head and not body:
            raise InapplicableOp("deleting the only literal of a constraint")
        new_rule = replace(rule, body=body)
    elif op.kind == "addDefaultNegation":
        lit = _body_lit(rule, op)
        if not lit.is_atom() or lit.negated:
            raise InapplicableOp("locus is not a positive body atom")
        body = list(rule.body)
        body[op.slot] = Literal(lit.atom, negated=True)
        new_rule = replace(rule, body=tuple(body))
    elif op.kind == "swapDefaultNegation":
        lit = _body_lit(rule, op)
        if not lit.is_atom():
            raise InapplicableOp("locus is not a body atom literal")
        body = list(rule.body)
        body[op.slot] = Literal(lit.atom, negated=not lit.negated)
        new_rule = replace(rule, body=tuple(body))
    elif op.kind == "changeMathOperators":
        lit = _body_lit(rule, op)
        if not lit.is_comparison():
            raise InapplicableOp("locus is not a comparison")
        cmp = lit.payload
        body = list(rule.body)
        body[op.slot] = Literal(Comparison(_ADJACENT_OP[cmp.op], cmp.left, cmp.right))
        new_rule = replace(rule, body=tuple(body))
    elif op.kind == "changeAggregates":
        lit = _body_lit(rule, op)
        if not lit.is_aggregate():
            raise InapplicableOp("locus is not an aggregate")
        agg = lit.payload
        body = list(rule.body)
        body[op.slot] = Literal(CountAggregate(
            agg.terms, agg.condition, _ADJACENT_OP[agg.guard_op], agg.guard), lit.negated)
        new_rule = replace(rule, body=tuple(body))
    elif op.kind == "swapTerms":
        atom = _site_atom(rule, op)
        i, j = op.detail
        if atom.arity <= max(i, j):
            raise InapplicableOp("argument positions out of range")
        args = list(atom.args)
        args[i], args[j] = args[j], args[i]
        new_rule = _replace_atom(rule, op.site, op.slot, Atom(atom.predicate, tuple(args)))
    elif op.kind == "renamePredicates":
        atom = _site_atom(rule, op)
        (target,) = op.detail
        new_rule = _replace_atom(rule, op.site, op.slot, Atom(target, atom.args))
    else:
        raise InapplicableOp(f"unknown operator {op.kind!r}")

    rules = list(program.rules)
    if new_rule is None:
        del rules[op.rule_index]
    else:
        unbound = unbound_variables(new_rule.head, new_rule.body)
        if unbound:
            raise UnsafeMutant(
                f"{op.kind} at rule {op.rule_index} leaves {sorted(unbound)} unbound")
        rules[op.rule_index] = new_rule
    return Program(tuple(rules), program.weak_constraints)


def _body_lit(rule: Rule, op: MutationOp) -> Literal:
    if op.site != "body" or not (0 <= op.slot < len(rule.body)):
        raise InapplicableOp("no body literal at that locus")
    return rule.body[op.slot]


def _site_atom(rule: Rule, op: MutationOp) -> Atom:
    for site, slot, atom in _atom_sites(rule):
        if site == op.site and slot == op.slot:
            return atom
    raise InapplicableOp("no atom at that locus")


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
        for op in loci:
            try:
                mutated = apply_op(program, op)
            except (InapplicableOp, UnsafeMutant):
                continue
            if mutated in seen_programs:
                continue
            seen_programs.add(mutated)
            mutants.append(Mutant(f"m{len(mutants) + 1:02d}", (op,), mutated, seed))
            if len(mutants) == count:
                return mutants
        raise ExhaustedLoci(count, mutants)

    # higher-order mutants: apply several random edits in sequence
    attempts = 0
    max_attempts = count * 50
    while len(mutants) < count and attempts < max_attempts:
        attempts += 1
        current = program
        applied: list[MutationOp] = []
        for _ in range(ops_per_mutant):
            loci = enumerate_loci(current, kinds)
            rng.shuffle(loci)
            for op in loci:
                try:
                    current = apply_op(current, op)
                    applied.append(op)
                    break
                except (InapplicableOp, UnsafeMutant):
                    continue
            else:
                break
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
    mutant: Mutant
    status: str                    # killed | survived | inconclusive
    killed_by: list[str] = field(default_factory=list)
    tests: list[TestResult] = field(default_factory=list)


@dataclass
class KillReport:
    baseline: SuiteReport
    baseline_passed: bool
    outcomes: list[MutantOutcome] = field(default_factory=list)
    assertion_failures: dict[str, int] = field(default_factory=dict)

    def all_killed(self) -> bool:
        return bool(self.outcomes) and all(o.status == "killed" for o in self.outcomes)

    def to_json_dict(self) -> dict:
        return {
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
            "counts": {
                "mutants": len(self.outcomes),
                "killed": sum(o.status == "killed" for o in self.outcomes),
                "survived": sum(o.status == "survived" for o in self.outcomes),
                "inconclusive": sum(o.status == "inconclusive" for o in self.outcomes),
            },
        }

    def human_lines(self) -> list[str]:
        lines = ["mutant  status       ops"]
        for o in self.outcomes:
            detail = f"  killed by: {', '.join(o.killed_by)}" if o.killed_by else ""
            lines.append(f"{o.mutant.id:<7} {o.status:<12} {o.mutant.describe_ops()}{detail}")
        c = self.to_json_dict()["counts"]
        lines.append(f"{c['mutants']} mutant(s): {c['killed']} killed, "
                     f"{c['survived']} survived, {c['inconclusive']} inconclusive")
        return lines


def named_rules_in_order(unit: SourceUnit) -> list[tuple[str, Rule]]:
    return list(unit.suite.named_rules.items())


def mutation_base_program(unit: SourceUnit) -> Program:
    """The program mutation operates on: the named (testable) rules."""
    return Program(tuple(r for _, r in named_rules_in_order(unit)))


def _origin_key(rule: Rule):
    o = rule.origin
    return (o.path, o.line, o.column) if o is not None else ("", id(rule), 0)


def _mutant_transform(unit: SourceUnit, mutant: Mutant) -> Callable[[Program], Program]:
    """Map resolved scope programs onto the mutant: rules are matched by
    source origin, edits and deletions replayed positionally."""
    originals = [rule for _, rule in named_rules_in_order(unit)]
    survivors = list(range(len(originals)))
    for op in mutant.ops:
        if op.kind == "deleteRule":
            del survivors[op.rule_index]
    mapping: dict = {}
    deleted = set(range(len(originals))) - set(survivors)
    for new_idx, old_idx in enumerate(survivors):
        mapping[_origin_key(originals[old_idx])] = mutant.program.rules[new_idx]
    for old_idx in deleted:
        mapping[_origin_key(originals[old_idx])] = None

    def transform(program: Program) -> Program:
        rules = []
        for rule in program.rules:
            key = _origin_key(rule)
            if key in mapping:
                replacement = mapping[key]
                if replacement is not None:
                    rules.append(replacement)
            else:
                rules.append(rule)
        return Program(tuple(rules), program.weak_constraints)

    return transform


def mutation_analysis(unit: SourceUnit, mutants: list[Mutant], backend,
                      file_loader=None, jobs: int = 1) -> KillReport:
    """Run the unit's suite against every mutant. Requires a green baseline:
    when the original program already fails its own tests the analysis is
    refused (baseline_passed=False, no outcomes)."""
    baseline = run_suite(unit, backend, file_loader=file_loader, jobs=jobs)
    report = KillReport(baseline=baseline, baseline_passed=baseline.all_passed())
    if not report.baseline_passed:
        return report

    def evaluate_mutant(mutant: Mutant) -> MutantOutcome:
        transform = _mutant_transform(unit, mutant)
        outcome = MutantOutcome(mutant=mutant, status="survived")
        had_error = False
        for spec in unit.suite.tests:
            result = run_test(unit.suite, spec, backend, file_loader,
                              program_transform=transform)
            outcome.tests.append(result)
            for a in result.assertions:
                if a.verdict == FAIL:
                    outcome.killed_by.append(f"{spec.name}/{a.kind}")
                elif a.verdict != PASS:
                    had_error = True
        if outcome.killed_by:
            outcome.status = "killed"
        elif had_error:
            outcome.status = "inconclusive"
        return outcome

    report.outcomes = map_in_order(evaluate_mutant, mutants, jobs)
    for outcome in report.outcomes:
        for label in outcome.killed_by:
            report.assertion_failures[label] = report.assertion_failures.get(label, 0) + 1
    return report
