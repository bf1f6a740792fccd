"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line with its measured time (run with `pytest -s` to see them).

1. graph-coloring fixture: 6 answer sets, both inline assertions pass
2. buggy Hamiltonian fixture: the constraint assertion fails with the exact
   documented witness
3. weak-constraint preference: optimal models and bestModelCost verdicts
4. encoding soundness: tester-program verdicts match direct semantics on
   500 random programs across all ten assertion kinds
5. bounded model requests: counting assertions never ask for more than k+1
   models, and capped verdicts equal uncapped ones
6. mutation study: shipped mutants of both curated fixtures are all killed
7. backend equivalence against a real external solver (skipped when none
   is installed)
"""

import random
import subprocess
import sys
import time

import pytest

from asp_testkit.engine import build_tester, evaluate, run_suite
from asp_testkit.model import ASSERTION_KINDS, BestModelCost
from asp_testkit.mutate import (
    OPERATOR_KINDS,
    generate_mutants,
    mutation_analysis,
    mutation_base_program,
)
from asp_testkit.oracle import enumerate_answer_sets, ground, optimal_answer_sets
from asp_testkit.parser import parse_unit
from asp_testkit.serialize import serialize_program
from asp_testkit.solver import (
    ExternalBackend,
    InternalBackend,
    default_backend_config,
    parse_competition_output,
)
from helpers import (
    FIXTURES,
    atom,
    direct_verdict,
    fixture_text,
    random_assertion,
    random_program,
)

BACKEND = InternalBackend()

def report(criterion: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {criterion}  [{elapsed:.2f}s]{suffix}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_coloring_reproduction():
    start = time.monotonic()
    unit = parse_unit("coloring.lp", fixture_text("coloring.lp"))
    result = enumerate_answer_sets(ground(unit.program))
    six_models = len(result.answer_sets) == 6 and result.exhausted
    suite = run_suite(unit, BACKEND)
    verdicts = [a.verdict for t in suite.tests for a in t.assertions]
    elapsed = time.monotonic() - start
    ok = six_models and verdicts == ["pass", "pass"] and elapsed < 1.0
    report("criterion 1: coloring fixture has 6 answer sets and green assertions",
           ok, elapsed, f"models={len(result.answer_sets)}, verdicts={verdicts}")


def test_criterion_2_hamiltonian_witness():
    start = time.monotonic()
    unit = parse_unit("ham.lp", fixture_text("hamiltonian_bug.lp"))
    suite = run_suite(unit, BACKEND)
    (test,) = suite.tests
    (assertion,) = test.assertions
    failed = assertion.verdict == "fail" and assertion.witness is not None
    projected = {a for a in (assertion.witness or ())
                 if a.predicate in ("inCycle", "outCycle")}
    expected = {atom("inCycle", 1, 2), atom("inCycle", 2, 4), atom("inCycle", 4, 3),
                atom("outCycle", 1, 4), atom("outCycle", 3, 1)}
    elapsed = time.monotonic() - start
    ok = failed and projected == expected and elapsed < 5.0
    report("criterion 2: buggy Hamiltonian fixture fails with the documented witness",
           ok, elapsed, f"verdict={assertion.verdict}")


def test_criterion_3_weak_constraint_preference():
    start = time.monotonic()
    program = parse_unit("w.lp", """
        node(1). node(2). node(3). edge(1,2). edge(1,3). edge(2,3).
        preferablyRed(2).
        col(X,red) | col(X,blue) | col(X,green) :- node(X).
        :- edge(X,Y), col(X,C), col(Y,C).
        :~ not col(X,red), preferablyRed(X). [1@1]
    """).program
    optimal = optimal_answer_sets(ground(program))
    all_red2 = bool(optimal.answer_sets) and \
        all(atom("col", 2, "red") in a.atoms for a in optimal.answer_sets)
    documented = {atom("col", 1, "green"), atom("col", 2, "red"), atom("col", 3, "blue")}
    has_documented = any(documented <= a.atoms for a in optimal.answer_sets)

    def best_cost_verdict(expected_cost: int) -> str:
        assertion = BestModelCost(expected_cost, 1)
        tp = build_tester(program, assertion)
        res, _ = BACKEND.run(tp.program, tp.text, tp.model_cap, optimize=True)
        return evaluate(tp, res, assertion).verdict

    v0, v1 = best_cost_verdict(0), best_cost_verdict(1)
    elapsed = time.monotonic() - start
    ok = all_red2 and has_documented and v0 == "pass" and v1 == "fail" and elapsed < 1.0
    report("criterion 3: preferred coloring is optimal and bestModelCost splits 0/1",
           ok, elapsed, f"optimal={len(optimal.answer_sets)}, v0={v0}, v1={v1}")


class _SoundnessRun:
    """Criteria 4 and 5 share one sweep over the random programs."""

    done = False
    mismatches: list = []
    cap_violations: list = []
    cap_mismatches: list = []
    checked = 0
    per_kind: dict = {}
    elapsed = 0.0

    @classmethod
    def run(cls):
        if cls.done:
            return
        start = time.monotonic()
        rng = random.Random(20240817)
        draw = 0
        for _ in range(500):
            program = random_program(rng)
            for _ in range(4):
                kind = ASSERTION_KINDS[draw % len(ASSERTION_KINDS)]
                draw += 1
                assertion = random_assertion(rng, program, kind)
                tp = build_tester(program, assertion)
                optimize = tp.optimize
                capped, raw = BACKEND.run(tp.program, tp.text, tp.model_cap,
                                          optimize=optimize)
                got = evaluate(tp, capped, assertion).verdict
                want = direct_verdict(program, assertion)
                cls.checked += 1
                cls.per_kind[kind] = cls.per_kind.get(kind, 0) + 1
                if got != want:
                    cls.mismatches.append((program, assertion, got, want))
                # bounded model requests per assertion kind
                k = getattr(assertion, "count", None)
                limit = {"trueInAtLeast": k, "constraintInAtLeast": k,
                         "trueInAtMost": None if k is None else k + 1,
                         "trueInExactly": None if k is None else k + 1,
                         "constraintInAtMost": None if k is None else k + 1,
                         "constraintInExactly": None if k is None else k + 1,
                         "noAnswerSet": 1, "trueInAll": 1,
                         "constraintForAll": 1, "bestModelCost": None}[kind]
                if limit is not None and (raw.requested_models is None
                                          or raw.requested_models > limit):
                    cls.cap_violations.append((kind, raw.requested_models, limit))
                # capped verdict must equal the unbounded one
                uncapped, _ = BACKEND.run(tp.program, tp.text, None,
                                          optimize=optimize)
                if evaluate(tp, uncapped, assertion).verdict != got:
                    cls.cap_mismatches.append((program, assertion))
        cls.elapsed = time.monotonic() - start
        cls.done = True


def test_criterion_4_encoding_soundness():
    _SoundnessRun.run()
    ok = (not _SoundnessRun.mismatches
          and _SoundnessRun.checked >= 500
          and set(_SoundnessRun.per_kind) == set(ASSERTION_KINDS)
          and _SoundnessRun.elapsed < 60.0)
    report("criterion 4: tester verdicts match direct semantics on "
           f"{_SoundnessRun.checked} random assertions",
           ok, _SoundnessRun.elapsed,
           f"mismatches={len(_SoundnessRun.mismatches)}")


def test_criterion_5_bounded_model_requests():
    _SoundnessRun.run()
    ok = (not _SoundnessRun.cap_violations
          and not _SoundnessRun.cap_mismatches
          and _SoundnessRun.done)
    report("criterion 5: counting assertions request at most k/k+1 models and "
           "capped verdicts equal unbounded ones",
           ok, _SoundnessRun.elapsed,
           f"violations={len(_SoundnessRun.cap_violations)}, "
           f"verdict drift={len(_SoundnessRun.cap_mismatches)}")


def test_criterion_6_mutation_study():
    start = time.monotonic()
    configs = [
        ("coloring_mutation.lp",
         ["deleteRule", "deleteLiteral", "addDefaultNegation", "swapTerms",
          "renamePredicates"], 3),
        ("hamiltonian_mutation.lp", list(OPERATOR_KINDS), 19),
    ]
    details = []
    ok = True
    for name, kinds, seed in configs:
        unit = parse_unit(name, fixture_text(name))
        mutants = generate_mutants(mutation_base_program(unit), kinds, 8, seed=seed)
        result = mutation_analysis(unit, mutants, BACKEND)
        killed = sum(o.status == "killed" for o in result.outcomes)
        details.append(f"{name}: baseline={'green' if result.baseline_passed else 'RED'}, "
                       f"{killed}/{len(mutants)} killed")
        ok = ok and result.baseline_passed and len(mutants) >= 5 \
            and killed == len(mutants)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report("criterion 6: curated fixtures kill every shipped mutant",
           ok, elapsed, "; ".join(details))


def test_criterion_7_backend_equivalence():
    cfg = default_backend_config()
    if cfg is None:
        print("[SKIP] criterion 7: no external solver installed "
              "(set ASP_TESTKIT_SOLVER to enable)")
        pytest.skip("no external ASP solver available")
    start = time.monotonic()
    external = ExternalBackend(cfg)
    rng = random.Random(77)
    disagreements = 0
    for _ in range(100):
        program = random_program(rng, with_weaks=False)
        text = serialize_program(program)
        want = enumerate_answer_sets(ground(program)).atom_sets()
        got, _ = external.run(program, text, None)
        if got.atom_sets() != want:
            disagreements += 1
    # solve output self round trip
    proc = subprocess.run(
        [sys.executable, "-m", "asp_testkit", "solve", str(FIXTURES / "coloring.lp")],
        capture_output=True, text=True, timeout=60)
    parsed = parse_competition_output(proc.stdout)
    unit = parse_unit("coloring.lp", fixture_text("coloring.lp"))
    round_trip = parsed.atom_sets() == enumerate_answer_sets(ground(unit.program)).atom_sets()
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and round_trip and elapsed < 120.0
    report("criterion 7: external and internal backends agree on 100 random programs",
           ok, elapsed, f"disagreements={disagreements}")
