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

import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
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
    Variable,
    WeakConstraint,
    assertion_predicates,
    check_statements,
    fresh_predicate,
)
from .oracle import AnswerSet, Scope, SolveResult
from .parser import SourceUnit, merge_units, parse_program_text, parse_unit, quote, read_source
from .serialize import atom_to_text, serialize_program
from .solver import REFUSED, AutoBackend, ExternalBackend

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
ERROR = "error"


class DanglingReference(Exception):
    """A test scope names a rule or block that does not exist."""


class AssertionValidationError(ValueError):
    """The assertion itself is malformed (e.g. atLeast with count 0)."""


def default_file_loader(base_dir: str) -> Callable[[str], str]:
    """Read a path relative to `base_dir` with `parser.read_source`."""
    return lambda path: read_source(str(Path(base_dir, path)))


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
                f"test {quote(spec.name)}: scope references unknown rule or block {quote(ref)}")
    seen: set[str] = set()
    rules: list[Rule] = []
    for name in rule_names:
        if name in seen:
            continue
        seen.add(name)
        rules.append(named[name])

    weaks: list[WeakConstraint] = []
    inline = [(spec.input, f"<input:{quote(spec.name, str)}>")] if spec.input.strip() else []
    # a generator: each file is read once the sources before it have parsed
    files = ((load(path), os.path.join(base, path)) for path in spec.input_files)
    for text, source in itertools.chain(inline, files):
        extra = parse_program_text(text, path=source)
        rules.extend(extra.rules)
        weaks.extend(extra.weak_constraints)
    return Program(tuple(rules), tuple(weaks))


def _unify(a: Atom, b: Atom) -> bool:
    """Whether `a` and `b`, their variables renamed apart, have a common
    ground instance. Terms are constants or variables, so a binding maps
    a variable to a constant or to another variable."""
    if a.signature != b.signature:
        return False
    binding: dict = {}

    def resolve(term, side: int):
        t = (side, term.name) if isinstance(term, Variable) else term
        while t in binding:
            t = binding[t]
        return t

    for s, t in zip(a.args, b.args):
        s, t = resolve(s, 0), resolve(t, 1)
        if s == t:
            continue
        if isinstance(s, tuple):
            binding[s] = t
        elif isinstance(t, tuple):
            binding[t] = s
        else:
            return False
    return True


def vacuous_atoms(spec: TestSpec, scope: Scope) -> list[str]:
    """One warning for each atom of an assertion, and each positive atom of
    an assertion's constraint body, that unifies with no head of the test's
    resolved scope (a fact is a rule with a head): no answer set of any
    tester holds it, so the assertion reads as a check it does not make. An
    atom whose signature the scope lacks is found by `scope.signatures`
    alone. An atom that some head unifies with is not flagged even when no
    ground instance derives it, such as `col(3, red)` without `node(3)`:
    that can be a deliberate negative test. A head whose arguments are
    distinct variables unifies with every atom of its signature, so such a
    signature is settled without unifying."""
    heads: dict[tuple[str, int], list[Atom]] = {}
    general = set()
    for rule in scope.program.rules:
        for h in rule.head:
            heads.setdefault(h.signature, []).append(h)
            if len({t.name for t in h.args if isinstance(t, Variable)}) == len(h.args):
                general.add(h.signature)
    found = []
    for assertion in spec.asserts:
        constraint = getattr(assertion, "constraint", None)
        atoms = getattr(assertion, "atoms", ()) if constraint is None else \
            [lit.payload for lit in constraint.body
             if isinstance(lit.payload, Atom) and not lit.negated]
        for a in atoms:
            if a.signature in general or a.signature in scope.signatures and any(
                    _unify(a, h) for h in heads.get(a.signature, ())):
                continue
            found.append(f"{assertion.kind}: {atom_to_text(a)} unifies with no head "
                         "or fact of the scope, so no answer set holds it")
    return found


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass
class AssertionResult:
    """Verdict of one assertion, with its witness and the tester program it
    ran. `executed_code` renders that program when it is read, such as by
    the JSON report, in the bytes an external solver is fed; an assertion
    that never got a tester has none. `refused` marks an error raised by
    the internal engine's refusal of the call (`solver.REFUSED`)."""

    assertion: Assertion
    kind: str
    verdict: str
    witness: Optional[frozenset[Atom]] = None
    diagnostics: str = ""
    wall_ms: int = 0
    requested_models: Optional[int] = None
    program: Optional[Program] = field(default=None, repr=False)
    refused: bool = field(default=False, repr=False)

    @property
    def executed_code(self) -> str:
        return "" if self.program is None else serialize_program(self.program)

    def witness_strings(self) -> Optional[list[str]]:
        if self.witness is None:
            return None
        return sorted(atom_to_text(a) for a in self.witness)


def _project_witness(tp: TesterProgram, answer_set: AnswerSet) -> frozenset[Atom]:
    """Keep only atoms over the scoped program's own predicates; the fresh
    `__tk_` helpers never leak into witnesses."""
    base_sigs = tp.scope.signatures
    return frozenset(a for a in answer_set.atoms
                     if a.signature in base_sigs and not a.predicate.startswith(FRESH_PREFIX))


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
    """One assertion's solver call: the scoped program `base` plus the
    rules `added` for the assertion, as `program`. `scope` is the
    `oracle.Scope` of `base`, shared by the testers of one test. `text` is
    rendered from `program` on each read; no internal call reads it."""

    base: Program
    added: tuple[Rule, ...]
    model_cap: Optional[int]
    assertion: Assertion
    program: Program = field(repr=False)
    scope: Scope = field(repr=False)

    @property
    def text(self) -> str:
        return serialize_program(self.program)

    @property
    def verdict(self) -> Callable[[TesterProgram, SolveResult], tuple]:
        return KINDS[type(self.assertion)][1]

    @property
    def optimize(self) -> bool:
        return self.verdict is optimum


def build_tester(program: Program, assertion: Assertion,
                 scope: Optional[Scope] = None) -> TesterProgram:
    """Encode one assertion over the scoped program. `scope` is the
    `oracle.Scope` of `program` (a new one when not given), which derives
    the program's predicate names once for all of its testers. Only the
    added rules are checked for safety, since `program`'s own were checked
    when it was built, and no text is rendered (see `TesterProgram.text`)."""
    encode, verdict = KINDS[type(assertion)]
    if getattr(assertion, "count", 1) < getattr(assertion, "min_count", 0):
        raise AssertionValidationError(
            f"{assertion.kind} needs a count >= {assertion.min_count}")
    if scope is None:
        scope = Scope(program)
    added = encode(assertion, scope.names | assertion_predicates(assertion))
    check_statements(added)
    return TesterProgram(base=program, added=added, model_cap=MODEL_CAP[verdict](assertion),
                         assertion=assertion, scope=scope,
                         program=Program.of_checked(program.rules + added,
                                                    program.weak_constraints))


def evaluate(tp: TesterProgram, result: SolveResult) -> AssertionResult:
    """Map a solver outcome on the tester program to pass/fail."""
    verdict, shown, diagnostics = tp.verdict(tp, result)
    witness = None if shown is None else _project_witness(tp, result.answer_sets[shown])
    return AssertionResult(assertion=tp.assertion, kind=tp.assertion.kind,
                           verdict=verdict, witness=witness, diagnostics=diagnostics,
                           requested_models=tp.model_cap, program=tp.program)


# ---------------------------------------------------------------------------
# Tests and suites
# ---------------------------------------------------------------------------

@dataclass
class TestResult:
    """Verdicts of one test's assertions and the test's own verdict.
    `run_tests` keeps the test's scope program as `program`, and
    `run_suite` adds the test's `warnings`."""

    name: str
    assertions: list[AssertionResult]
    verdict: str
    wall_ms: int = 0
    diagnostics: str = ""  # why the test as a whole is an error
    program: Optional[Program] = field(default=None, repr=False)
    warnings: list[str] = field(default_factory=list)  # see `vacuous_atoms`

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
                    **({"warnings": t.warnings} if t.warnings else {}),
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
            lines += [f"  note: {w}" for w in t.warnings]
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
                           verdict=ERROR, diagnostics=message)


def run_test(spec: TestSpec, program: Program, backend,
             scope: Optional[Scope] = None) -> TestResult:
    """Decide every assertion of `spec` on `program`, its resolved scope
    (see `resolve_scope`), each with its own backend call; one assertion
    failing or erroring never stops its siblings. Every call is handed
    `scope`, the `oracle.Scope` of `program` (a new one when not given), so
    the scope's names are derived once, and the internal backend
    instantiates and simplifies the scope once, for the first tester, and
    grounds each tester as an extension of it.
    `run_tests` passes one scope to each of a test's assertions, which it
    decides as separate calls of this function."""
    start = time.monotonic()
    results: list[AssertionResult] = []
    if scope is None:
        scope = Scope(program)
    for assertion in spec.asserts:
        t0 = time.monotonic()
        try:
            tp = build_tester(program, assertion, scope=scope)
            solve_result, _ = backend.run(tp.program, tp.model_cap,
                                          optimize=tp.optimize, scope=scope)
            res = evaluate(tp, solve_result)
        except Exception as exc:
            res = _error_result(assertion, f"{type(exc).__name__}: {exc}")
            res.refused = isinstance(exc, REFUSED)
        res.wall_ms = int((time.monotonic() - t0) * 1000)
        results.append(res)
    return TestResult(spec.name, results, TestResult.aggregate(results),
                      int((time.monotonic() - start) * 1000))


def _pooled(fn: Callable, items: list, jobs: int) -> list:
    """`fn` over `items`, results in order; in up to `jobs` threads when
    jobs > 1 and there are at least two items. The list is emptied, and
    each item is dropped once `fn` is done with it."""
    items.reverse()
    drained = (items.pop() for _ in range(len(items)))
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, drained))
    return [fn(item) for item in drained]


def _decide(call: tuple[TestSpec, Scope], backend) -> AssertionResult:
    """The result of one call: a spec cut to one assertion, and its scope."""
    spec, scope = call
    return run_test(spec, scope.program, backend, scope).assertions[0]


def run_tests(tests: list[tuple[TestSpec, Scope]], backend, jobs: int = 1) -> list[TestResult]:
    """Decide each test, a (spec, scope) pair, and return one `TestResult`
    per test, in order, with the scope's program as `program`. Each
    assertion is one call, `run_test(spec cut to it, scope.program,
    backend, scope)`. The list is emptied, and each call is dropped as it
    starts, so a scope is freed after its last call. A test's verdict is
    `TestResult.aggregate` of its assertions' (`pass` without any), and
    its `wall_ms` is their sum.

    The internal engine runs on the calling thread only, one call after
    another in declaration order. Only calls that start a solver child go
    to a pool of up to `jobs` threads: with an external backend, each call
    is one pool task. Under auto with a solver configured, every call runs
    on the internal engine first; then each call that it refused
    (`solver.REFUSED`) runs again on the solver, as one pool task, and
    takes the refused result's place. Its `wall_ms` covers both attempts."""
    shapes = [(spec.name, len(spec.asserts), scope.program) for spec, scope in tests]
    calls = [(replace(spec, asserts=(a,)), scope) for spec, scope in reversed(tests)
             for a in reversed(spec.asserts)]
    tests.clear()
    external = isinstance(backend, ExternalBackend)
    fallback = backend.external if isinstance(backend, AutoBackend) else None
    inline = backend.internal if fallback else backend
    results: list[Optional[AssertionResult]] = []
    later: list = []  # (index in results, call) of each call the pool decides
    while calls:
        call = calls.pop()
        result = None if external else _decide(call, inline)
        if external or (fallback and result.refused):
            later.append((len(results), call))
        results.append(result)

    def decide_later(entry: tuple) -> tuple[int, AssertionResult]:
        return entry[0], _decide(entry[1], backend if external else fallback)

    for i, result in _pooled(decide_later, later, jobs):
        result.wall_ms += results[i].wall_ms if results[i] else 0
        results[i] = result
    done = iter(results)
    out = []
    for name, n, program in shapes:
        mine = list(itertools.islice(done, n))
        out.append(TestResult(name, mine, TestResult.aggregate(mine),
                              sum(a.wall_ms for a in mine), program=program))
    return out


def run_suite(unit: SourceUnit, backend, jobs: int = 1) -> SuiteReport:
    """Run every test of a unit with `run_tests`. Each test's scope is
    resolved once, and the assertions of a test share its `oracle.Scope`.
    The report lists tests and assertions in declaration order. A test
    whose scope does not resolve is an error, and so is each of its
    assertions. Each resolved test carries its `vacuous_atoms` warnings,
    found once per test, before any of its calls."""
    start = time.monotonic()
    tests: list[Optional[TestResult]] = []  # None where the scope resolves
    resolved: list[tuple[TestSpec, Scope]] = []
    for spec in unit.suite.tests:
        try:
            resolved.append((spec, Scope(resolve_scope(unit.suite, spec))))
            tests.append(None)
        except Exception as exc:
            message = f"scope resolution failed: {exc}"
            results = [_error_result(a, message) for a in spec.asserts]
            tests.append(TestResult(spec.name, results, ERROR, diagnostics=message))
    warnings = [vacuous_atoms(spec, scope) for spec, scope in resolved]
    decided = run_tests(resolved, backend, jobs)
    for result, found in zip(decided, warnings):
        result.warnings = found
    decided = iter(decided)
    return SuiteReport(source=unit.path, tests=[t or next(decided) for t in tests],
                       total_wall_ms=int((time.monotonic() - start) * 1000))
