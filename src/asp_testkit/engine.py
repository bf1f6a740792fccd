"""Test execution: scope resolution, tester programs, verdicts, reports.

Each assertion is decided by running one tester program, the scoped program
P plus the rules its encoding adds, and handing the solver outcome to one of
five verdict functions. `KINDS` maps each assertion class to its encoding
and verdict function; `MODEL_CAP` gives each verdict function's model cap,
so a counting assertion never asks the solver for more than k+1 models.

`miss` and `fail` are fresh predicates. The trueInAll encoding derives `miss`
from any missing atom, so incoherence of the tester is exactly "every answer
set contains all of A", for sets of atoms as well as singletons.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .model import (
    Assertion,
    Atom,
    BestModelCost,
    ConstraintForAll,
    ConstraintInAtLeast,
    ConstraintInAtMost,
    ConstraintInExactly,
    FRESH_PREFIX,
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
    WeakConstraint,
    assertion_predicates,
    fresh_predicate,
    predicate_names,
    signatures,
)
from .oracle import AnswerSet, SolveResult
from .parser import SourceUnit, merge_units, parse_program_text, parse_unit
from .serialize import atom_to_text, serialize_program

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
ERROR = "error"


class DanglingReference(Exception):
    """A test scope names a rule or block that does not exist."""


class AssertionValidationError(ValueError):
    """The assertion itself is malformed (e.g. atLeast with count 0)."""


def default_file_loader(base_dir: str) -> Callable[[str], str]:
    def load(path: str) -> str:
        p = Path(path)
        if not p.is_absolute():
            p = Path(base_dir) / p
        return p.read_text(encoding="utf-8")
    return load


def resolve_scope(suite: TestSuite, spec: TestSpec,
                  file_loader: Optional[Callable[[str], str]] = None) -> Program:
    """Assemble the program a test runs against: the rules named in the
    scope (directly or through blocks), plus inline input and input files.
    With programFiles the named rules come from those files instead of the
    current one. A relative path in either resolves against the directory
    of the file that declares the test (`spec.origin`; without one, the
    current directory), which also names the parsed file; a given
    `file_loader` receives each path as written."""
    base = os.path.dirname(spec.origin.path) if spec.origin else ""
    load = file_loader or default_file_loader(base)
    if spec.program_files:
        suite = merge_units([parse_unit(os.path.join(base, path), load(path))
                             for path in spec.program_files]).suite
    named = suite.named_rules
    blocks = suite.blocks

    rule_names: list[str] = []
    for ref in spec.scope:
        if ref in named:
            rule_names.append(ref)
        elif ref in blocks:
            rule_names.extend(blocks[ref])
        else:
            raise DanglingReference(
                f"test {spec.name!r}: scope references unknown rule or block {ref!r}")
    seen: set[str] = set()
    rules: list[Rule] = []
    for name in rule_names:
        if name in seen:
            continue
        seen.add(name)
        rules.append(named[name])

    weaks: list[WeakConstraint] = []
    if spec.input.strip():
        extra = parse_program_text(spec.input, path=f"<input:{spec.name}>")
        rules.extend(extra.rules)
        weaks.extend(extra.weak_constraints)
    for path in spec.input_files:
        extra = parse_program_text(load(path), path=os.path.join(base, path))
        rules.extend(extra.rules)
        weaks.extend(extra.weak_constraints)
    return Program(tuple(rules), tuple(weaks))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass
class AssertionResult:
    """Verdict of one assertion, with its witness and the tester it ran."""

    assertion: Assertion
    kind: str
    executed_code: str
    verdict: str
    witness: Optional[frozenset[Atom]] = None
    diagnostics: str = ""
    wall_ms: int = 0
    requested_models: Optional[int] = None

    def witness_strings(self) -> Optional[list[str]]:
        if self.witness is None:
            return None
        return sorted(atom_to_text(a) for a in self.witness)


def _project_witness(tp: TesterProgram, answer_set: AnswerSet) -> frozenset[Atom]:
    """Keep only atoms over the scoped program's own predicates; the fresh
    `__tk_` helpers never leak into witnesses."""
    base_sigs = signatures(tp.base)
    kept = frozenset(a for a in answer_set.atoms
                     if a.signature in base_sigs
                     and not a.predicate.startswith(FRESH_PREFIX))
    return kept


# A verdict function maps the solver outcome on a tester program to
# (verdict, index of the answer set shown as witness or None, diagnostics).

def incoherent(tp: TesterProgram, result: SolveResult) -> tuple:
    """Pass iff the tester has no answer set."""
    if result.incoherent:
        return PASS, None, ""
    if result.answer_sets:
        return FAIL, 0, ""
    return INCONCLUSIVE, None, "solver stopped before finding a model or proving incoherence"


def _stopped(n: int) -> tuple:
    return INCONCLUSIVE, None, f"search stopped after {n} matching answer set(s)"


def at_least(tp: TesterProgram, result: SolveResult) -> tuple:
    """Pass iff the tester has >= k answer sets."""
    k, n = tp.assertion.count, len(result.answer_sets)
    if n >= k:
        return PASS, None, ""
    if result.exhausted:
        return FAIL, None, f"only {n} matching answer set(s) exist, expected at least {k}"
    return _stopped(n)


def at_most(tp: TesterProgram, result: SolveResult) -> tuple:
    """Pass iff the tester has <= k answer sets."""
    k, n = tp.assertion.count, len(result.answer_sets)
    if n > k:
        return FAIL, -1, f"more than {k} matching answer set(s) exist"
    return (PASS, None, "") if result.exhausted else _stopped(n)


def exactly(tp: TesterProgram, result: SolveResult) -> tuple:
    """Pass iff the tester has at most k answer sets, and no fewer."""
    k, n = tp.assertion.count, len(result.answer_sets)
    outcome = at_most(tp, result)
    if outcome[0] == PASS and n != k:
        return FAIL, None, f"exactly {n} matching answer set(s) exist, expected {k}"
    return outcome


def optimum(tp: TesterProgram, result: SolveResult) -> tuple:
    """Pass iff the optimal answer set costs c at level l."""
    cost, level = tp.assertion.cost, tp.assertion.level
    if result.incoherent:
        return FAIL, None, "the program has no answer set, hence no best model"
    if not result.exhausted or not result.answer_sets:
        return INCONCLUSIVE, None, "optimality was not established"
    if result.costs is None and tp.base.weak_constraints:
        return ERROR, None, "backend reported no COST information for an optimization program"
    best_cost = (result.costs or {}).get((len(result.answer_sets) - 1, level), 0)
    if best_cost == cost:
        return PASS, None, ""
    return FAIL, -1, f"best model costs {best_cost} at level {level}, expected {cost}"


# Verdict function -> the most models it needs to see (None: all of them,
# under optimisation); verdicts are unchanged from unbounded enumeration.
MODEL_CAP = {
    incoherent: lambda a: 1,
    at_least: lambda a: a.count,
    at_most: lambda a: a.count + 1,
    exactly: lambda a: a.count + 1,
    optimum: lambda a: None,
}


# ---------------------------------------------------------------------------
# Tester programs: one table of assertion kinds
# ---------------------------------------------------------------------------

# An encoding returns the rules a tester adds to the scoped program P;
# `names` holds every predicate name its fresh helpers must avoid.

def _nothing(assertion, names: set[str]) -> tuple[Rule, ...]:
    return ()


def _miss_any(assertion, names: set[str]) -> tuple[Rule, ...]:
    """miss :- not a (a in A), :- not miss."""
    miss = Atom(fresh_predicate(names, "miss"))
    return (*(Rule((miss,), (Literal(a, negated=True),)) for a in assertion.atoms),
            Rule((), (Literal(miss, negated=True),)))


def _require_atoms(assertion, names: set[str]) -> tuple[Rule, ...]:
    """:- not a (a in A)."""
    return tuple(Rule((), (Literal(a, negated=True),)) for a in assertion.atoms)


def _fail_on_body(assertion, names: set[str]) -> tuple[Rule, ...]:
    """fail :- body(C), :- not fail."""
    fail = Atom(fresh_predicate(names, "fail"))
    return (Rule((fail,), assertion.constraint.body),
            Rule((), (Literal(fail, negated=True),)))


def _add_constraint(assertion, names: set[str]) -> tuple[Rule, ...]:
    return (assertion.constraint,)


# Assertion class -> (encoding, verdict function).
KINDS = {
    NoAnswerSet: (_nothing, incoherent),
    TrueInAll: (_miss_any, incoherent),
    TrueInAtLeast: (_require_atoms, at_least),
    TrueInAtMost: (_require_atoms, at_most),
    TrueInExactly: (_require_atoms, exactly),
    ConstraintForAll: (_fail_on_body, incoherent),
    ConstraintInAtLeast: (_add_constraint, at_least),
    ConstraintInAtMost: (_add_constraint, at_most),
    ConstraintInExactly: (_add_constraint, exactly),
    BestModelCost: (_nothing, optimum),
}


@dataclass
class TesterProgram:
    """One assertion's solver call: the scoped program plus its added rules."""

    text: str
    base: Program
    added: tuple[Rule, ...]
    model_cap: Optional[int]
    assertion: Assertion
    program: Program = field(repr=False, default=None)

    @property
    def verdict(self) -> Callable[[TesterProgram, SolveResult], tuple]:
        return KINDS[type(self.assertion)][1]

    @property
    def optimize(self) -> bool:
        return self.verdict is optimum


def build_tester(program: Program, assertion: Assertion,
                 taken_names: Optional[set[str]] = None) -> TesterProgram:
    """Encode one assertion over the scoped program."""
    encode, verdict = KINDS[type(assertion)]
    if getattr(assertion, "count", 1) < getattr(assertion, "min_count", 0):
        raise AssertionValidationError(
            f"{assertion.kind} needs a count >= {assertion.min_count}")
    names = set(taken_names or ())
    names |= predicate_names(program)
    names |= assertion_predicates(assertion)
    added = encode(assertion, names)
    combined = Program(program.rules + added, program.weak_constraints)
    return TesterProgram(text=serialize_program(combined), base=program,
                         added=added, model_cap=MODEL_CAP[verdict](assertion),
                         assertion=assertion, program=combined)


def evaluate(tp: TesterProgram, result: SolveResult) -> AssertionResult:
    """Map a solver outcome on the tester program to pass/fail."""
    verdict, shown, diagnostics = tp.verdict(tp, result)
    witness = None if shown is None else _project_witness(tp, result.answer_sets[shown])
    return AssertionResult(assertion=tp.assertion, kind=tp.assertion.kind,
                           executed_code=tp.text, verdict=verdict, witness=witness,
                           diagnostics=diagnostics, requested_models=tp.model_cap)


# ---------------------------------------------------------------------------
# Tests and suites
# ---------------------------------------------------------------------------

@dataclass
class TestResult:
    """Verdicts of one test's assertions and the test's own verdict."""

    name: str
    assertions: list[AssertionResult]
    verdict: str
    wall_ms: int = 0
    diagnostics: str = ""  # why the test as a whole is an error

    @staticmethod
    def aggregate(results: list[AssertionResult]) -> str:
        verdicts = {r.verdict for r in results}
        if verdicts <= {PASS}:
            return PASS
        if FAIL in verdicts:
            return FAIL
        if ERROR in verdicts:
            return ERROR
        return INCONCLUSIVE


@dataclass
class SuiteReport:
    """Results of every test of a run, rendered as text or JSON."""

    source: str
    tests: list[TestResult]
    total_wall_ms: int = 0

    @property
    def counts(self) -> dict[str, int]:
        c = {"tests": len(self.tests), "passed": 0, "failed": 0,
             "inconclusive": 0, "errors": 0, "assertions": 0}
        for t in self.tests:
            key = {PASS: "passed", FAIL: "failed",
                   INCONCLUSIVE: "inconclusive", ERROR: "errors"}[t.verdict]
            c[key] += 1
            c["assertions"] += len(t.assertions)
        return c

    def all_passed(self) -> bool:
        return all(t.verdict == PASS for t in self.tests)

    def has_errors(self) -> bool:
        return any(t.diagnostics or any(a.verdict == ERROR for a in t.assertions)
                   for t in self.tests)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.source,
            "tests": [
                {
                    "name": t.name,
                    "verdict": t.verdict,
                    "wall_ms": t.wall_ms,
                    "assertions": [
                        {
                            "kind": a.kind,
                            "verdict": a.verdict,
                            "executed_code": a.executed_code,
                            "witness": a.witness_strings(),
                            "diagnostics": a.diagnostics,
                            "wall_ms": a.wall_ms,
                            "requested_models": a.requested_models,
                        }
                        for a in t.assertions
                    ],
                    **({"diagnostics": t.diagnostics} if t.diagnostics else {}),
                }
                for t in self.tests
            ],
            "counts": self.counts,
            "total_wall_ms": self.total_wall_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def human_lines(self) -> list[str]:
        lines = []
        for t in self.tests:
            line = f"test {t.name}: {t.verdict} ({t.wall_ms} ms)"
            lines.append(line + (f"  [{t.diagnostics}]" if t.diagnostics else ""))
            for a in t.assertions:
                entry = f"  [{a.verdict}] {a.kind} ({a.wall_ms} ms)"
                if a.verdict == FAIL and a.witness is not None:
                    entry += "  witness: {" + ", ".join(a.witness_strings() or []) + "}"
                if a.verdict in (ERROR, INCONCLUSIVE) and a.diagnostics:
                    entry += f"  [{a.diagnostics}]"
                lines.append(entry)
        c = self.counts
        if not self.tests:
            lines.append("0 tests found")
        lines.append(
            f"{c['tests']} test(s): {c['passed']} passed, {c['failed']} failed, "
            f"{c['inconclusive']} inconclusive, {c['errors']} error(s) "
            f"in {self.total_wall_ms} ms")
        return lines


def _error_result(assertion: Assertion, message: str) -> AssertionResult:
    return AssertionResult(assertion=assertion, kind=assertion.kind,
                           executed_code="", verdict=ERROR, diagnostics=message)


def run_test(spec: TestSpec, program: Program, backend) -> TestResult:
    """Decide every assertion of `spec` on `program`, its resolved scope
    (see `resolve_scope`), each with its own backend call; one assertion
    failing or erroring never stops its siblings."""
    start = time.monotonic()
    results: list[AssertionResult] = []
    for assertion in spec.asserts:
        t0 = time.monotonic()
        try:
            tp = build_tester(program, assertion)
            solve_result, _ = backend.run(tp.program, tp.text, tp.model_cap,
                                          optimize=tp.optimize)
            res = evaluate(tp, solve_result)
        except Exception as exc:
            res = _error_result(assertion, f"{type(exc).__name__}: {exc}")
        res.wall_ms = int((time.monotonic() - t0) * 1000)
        results.append(res)
    return TestResult(spec.name, results, TestResult.aggregate(results),
                      int((time.monotonic() - start) * 1000))


def map_in_order(fn: Callable, items: list, jobs: int) -> list:
    """`fn` over `items`, results in declaration order; threaded when
    jobs > 1 and there are at least two items."""
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def run_suite(unit: SourceUnit, backend, jobs: int = 1) -> SuiteReport:
    """Run every test of a unit; tests are independent and may execute in
    parallel, the report always lists them in declaration order. A test
    whose scope does not resolve is an error, and so is each of its
    assertions."""
    start = time.monotonic()

    def run(spec: TestSpec) -> TestResult:
        try:
            program = resolve_scope(unit.suite, spec)
        except Exception as exc:
            message = f"scope resolution failed: {exc}"
            results = [_error_result(a, message) for a in spec.asserts]
            return TestResult(spec.name, results, ERROR, diagnostics=message)
        return run_test(spec, program, backend)

    tests = map_in_order(run, list(unit.suite.tests), jobs)
    return SuiteReport(source=unit.path, tests=tests,
                       total_wall_ms=int((time.monotonic() - start) * 1000))
