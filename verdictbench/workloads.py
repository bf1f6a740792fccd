"""The four workloads: seeded inputs, one pass each, and references that do
not come from the code under test.

A pass does what a CI job does with the command line: parse each input
file, build the backend, run the suite (or the mutation study) and render
both report formats. Entry points are called through their modules so that
the tracer's wrappers see every call.

Import this module after `checkout.import_checkout()`.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import deque
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Optional

from asp_testkit import engine, mutate, parser, solver

from checkout import FIXTURES, OUT, PACKAGE, SRC, BenchmarkError

PASS, FAIL, KILLED = "pass", "fail", "killed"
UNDECIDED = ("error", "inconclusive")

# search-coloring: 5-node graphs leave 15 unknown atoms, about 0.1 s of
# search per call, so a 20 s run yields the 100+ verdicts p90 needs.
COLOR_NODES = 5
TREES = 6
CLIQUE_GRAPHS = 2
# ground-closure: grounding cost grows with nodes^3 (three variables in the
# recursive rule); an 18-node chain takes about 0.15-0.25 s per call, so a
# 20 s run yields the 100 verdicts p90 needs. A chain, not a DAG with random
# shortcuts, so that the seed changes labels but not cost.
CLOSURE_NODES = 18
# mutate-study: criterion 6 of the acceptance suite, at its pinned seeds.
MUTANTS = 8
COLORING_OPS = ("deleteRule", "deleteLiteral", "addDefaultNegation", "swapTerms",
                "renamePredicates")
MUTATION_STUDY = (("hamiltonian_mutation.lp", mutate.OPERATOR_KINDS, 19, 10),
                  ("coloring_mutation.lp", COLORING_OPS, 3, 8))
# Verdicts documented in the README and pinned by acceptance criteria 1-3;
# the hamiltonian_bug witness is criterion 2's, over inCycle/outCycle.
HAM_WITNESS = frozenset({"inCycle(1,2)", "inCycle(2,4)", "inCycle(4,3)",
                         "outCycle(1,4)", "outCycle(3,1)"})


@dataclass(frozen=True)
class Expect:
    """Reference outcome of one assertion or mutant. When `witness` is set,
    the witness atoms over `witness_predicates` must equal it."""

    verdict: str
    witness: Optional[frozenset[str]] = None
    witness_predicates: tuple[str, ...] = ()


FIXTURE_VERDICTS = {
    "coloring.lp": [Expect(PASS)] * 2,
    "coloring_pref.lp": [Expect(PASS)],
    "coloring_mutation.lp": [Expect(PASS)] * 8,
    "hamiltonian_bug.lp": [Expect(FAIL, HAM_WITNESS, ("inCycle", "outCycle"))],
}


@dataclass
class Workload:
    files: list[tuple[str, str]]        # (path, text); each file is one suite
    expected: list[list[Expect]]        # per file, in report order
    jobs: int = 1
    # mutate-study only: per file, (operator kinds, mutant seed)
    mutation: Optional[list[tuple[tuple[str, ...], int]]] = None
    external: bool = False

    @property
    def mutants_per_pass(self) -> int:
        return MUTANTS * len(self.mutation or ())


@dataclass
class Tally:
    """Outcomes checked against the references, over every pass of a run."""

    attempted: int = 0
    wrong: int = 0
    failed: int = 0                 # wrong, error or inconclusive
    examples: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def colorings(nodes: list[int], edges: list[tuple[int, int]]) -> int:
    """Number of proper 3-colorings, by brute force."""
    count = 0
    for colors in itertools.product(range(3), repeat=len(nodes)):
        color = dict(zip(nodes, colors))
        count += all(color[a] != color[b] for a, b in edges)
    return count


def closure(edges: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Transitive closure by breadth-first search from every node."""
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    pairs = set()
    for source in {a for a, _ in edges}:
        queue = deque(succ[source])
        seen = set()
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            pairs.add((source, node))
            queue.extend(succ.get(node, ()))
    return pairs


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _labels(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(1, 100), n)


def random_tree(rng: random.Random, n: int) -> tuple[list[int], list[tuple[int, int]]]:
    nodes = _labels(rng, n)
    return nodes, [(nodes[rng.randrange(i)], nodes[i]) for i in range(1, n)]


def clique_graph(rng: random.Random, n: int) -> tuple[list[int], list[tuple[int, int]]]:
    """A K4 on the first four nodes; each further node gets one random edge."""
    nodes = _labels(rng, n)
    edges = list(itertools.combinations(nodes[:4], 2))
    edges += [(nodes[rng.randrange(i)], nodes[i]) for i in range(4, n)]
    return nodes, edges


def random_chain(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """The edges of a path through n shuffled labels."""
    order = _labels(rng, n)
    return list(zip(order, order[1:]))


def _facts(predicate: str, tuples) -> str:
    return " ".join(f"{predicate}({','.join(map(str, t))})." for t in tuples)


def _test(name: str, scope: str, facts: str, *asserts: str) -> str:
    return (f'%** @test(name = "{name}", scope = {{ {scope} }},\n'
            f'        input = "{facts}",\n'
            f'        assert = {{ {", ".join(asserts)} }}) **%\n')


COLORING_RULES = """\
%** @block(name = "ToTest") **%
%** @rule(name = "r1", block = "ToTest") **%
col(X,red) | col(X,blue) | col(X,green) :- node(X).
%** @rule(name = "r2", block = "ToTest") **%
:- edge(X,Y), col(X,C), col(Y,C).
"""

CLOSURE_RULES = """\
%** @rule(name = "base") **%
reach(X,Y) :- edge(X,Y).
%** @rule(name = "step") **%
reach(X,Z) :- reach(X,Y), edge(Y,Z).
"""


def search_coloring(rng: random.Random) -> Workload:
    """Trees have exactly 3*2^(n-1) colorings, so trueInExactly with that
    count and its k+1 cap scans every candidate; graphs holding a K4 have
    none, so noAnswerSet scans every candidate too."""
    tests, expected = [], []
    for i in range(TREES):
        nodes, edges = random_tree(rng, COLOR_NODES)
        facts = f"{_facts('node', [(v,) for v in nodes])} {_facts('edge', edges)}"
        tests.append(_test(f"tree{i}", '"ToTest"', facts,
                           f'@trueInExactly(number = {colorings(nodes, edges)}, atoms = "")'))
        expected.append(Expect(PASS))
    for i in range(CLIQUE_GRAPHS):
        nodes, edges = clique_graph(rng, COLOR_NODES)
        facts = f"{_facts('node', [(v,) for v in nodes])} {_facts('edge', edges)}"
        tests.append(_test(f"clique{i}", '"ToTest"', facts, "@noAnswerSet"))
        expected.append(Expect(PASS if colorings(nodes, edges) == 0 else FAIL))
    text = COLORING_RULES + "".join(tests)
    return Workload([("coloring_trees.lp", text)], [expected])


def ground_closure(rng: random.Random) -> Workload:
    """One chain; its closure (by BFS) must be the unique answer set. The
    last assertion asks for a pair outside the closure, so it fails and its
    witness must show exactly the edges and the closure."""
    edges = random_chain(rng, CLOSURE_NODES)
    reach = sorted(closure(edges))
    outside = rng.choice(sorted((b, a) for a, b in reach))
    reach_atoms = _facts("reach", reach)
    model = frozenset(f"{p}({a},{b})" for p, pairs in (("reach", reach), ("edge", edges))
                      for a, b in pairs)
    text = CLOSURE_RULES + _test(
        "closure", '"base", "step"', _facts("edge", edges),
        '@trueInExactly(number = 1, atoms = "")',
        f'@trueInAll(atoms = "{reach_atoms}")',
        '@constraintForAll(":- reach(X,X).")',
        f'@trueInAll(atoms = "reach({outside[0]},{outside[1]})")')
    expected = [Expect(PASS), Expect(PASS), Expect(PASS),
                Expect(FAIL, model, ("reach", "edge"))]
    return Workload([("closure.lp", text)], [expected])


_ATOM_ARGS = re.compile(r"(?<![@\w])[a-z]\w*\(([^()]*)\)")
_INTEGER = re.compile(r"\b\d+\b")


def relabel_integers(text: str, rng: random.Random) -> str:
    """Rename the integer constants inside atoms by one seeded injective map.
    The mutation fixtures' rules hold no integer and compare integers only
    for (in)equality, so every verdict and kill status is unchanged."""
    found = sorted({int(x) for m in _ATOM_ARGS.finditer(text)
                    for x in _INTEGER.findall(m.group(1))})
    mapping = dict(zip(found, _labels(rng, len(found))))

    def rename(m: re.Match) -> str:
        args = _INTEGER.sub(lambda i: str(mapping[int(i.group())]), m.group(1))
        return m.group()[:m.start(1) - m.start()] + args + ")"

    return _ATOM_ARGS.sub(rename, text)


def mutate_study(rng: random.Random) -> Workload:
    """Criterion 6: both baselines pass and all 16 mutants are killed. The
    seed relabels the fixtures' node constants; the mutant seeds stay at
    19 and 3, so that reference holds on every seed."""
    files, expected, mutation = [], [], []
    for name, ops, mutant_seed, assertions in MUTATION_STUDY:
        text = (FIXTURES / name).read_text(encoding="utf-8")
        files.append((name, relabel_integers(text, rng)))
        expected.append([Expect(PASS)] * assertions + [Expect(KILLED)] * MUTANTS)
        mutation.append((ops, mutant_seed))
    return Workload(files, expected, jobs=2, mutation=mutation)


def external_loopback(rng: random.Random) -> Workload:
    """The shipped fixtures verbatim (criterion 2 pins their first witness);
    the seed only orders the suites."""
    names = sorted(FIXTURE_VERDICTS)
    rng.shuffle(names)
    _prepare_children()
    return Workload([(name, (FIXTURES / name).read_text(encoding="utf-8")) for name in names],
                    [FIXTURE_VERDICTS[name] for name in names], jobs=2, external=True)


BUILDERS = {"mutate-study": mutate_study, "search-coloring": search_coloring,
            "ground-closure": ground_closure, "external-loopback": external_loopback}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(f"{name}/{seed}"))


# ---------------------------------------------------------------------------
# The external solver child
# ---------------------------------------------------------------------------

# This checkout's own `asp-testkit solve`, fed through a temporary file.
CHILD_SOLVER = solver.BackendConfig(
    executable=sys.executable, extra_args=("-m", "asp_testkit", "solve"),
    timeout=60, pass_via="tempfile")


def _prepare_children() -> None:
    """Solver children import this checkout, and their input files are
    written inside it."""
    os.environ["PYTHONPATH"] = str(SRC)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT / "tmp")


def check_child_imports_checkout() -> None:
    """A child that cannot import this checkout errors out in a few ms per
    call, which would read as a speed-up; refuse to measure it."""
    probe = subprocess.run(
        [CHILD_SOLVER.executable, "-c", "import asp_testkit; print(asp_testkit.__file__)"],
        capture_output=True, text=True, timeout=60)
    found = probe.stdout.strip()
    if probe.returncode != 0 or Path(found).resolve().parent != PACKAGE:
        raise BenchmarkError("the solver child does not import asp_testkit from "
                             f"{PACKAGE}: {probe.stderr.strip() or found}")


# ---------------------------------------------------------------------------
# One pass and its check
# ---------------------------------------------------------------------------

def run_pass(wl: Workload) -> list:
    """Run every file of the workload once; returns its suite or kill
    reports."""
    backend = (solver.ExternalBackend(CHILD_SOLVER) if wl.external
               else solver.InternalBackend())
    reports = []
    for i, (path, text) in enumerate(wl.files):
        unit = parser.parse_unit(path, text)
        # render both report formats, as `--format json` and `human` would
        if wl.mutation is None:
            report = engine.run_suite(unit, backend, jobs=wl.jobs)
            report.to_json()
        else:
            ops, seed = wl.mutation[i]
            mutants = mutate.generate_mutants(mutate.mutation_base_program(unit),
                                              ops, MUTANTS, seed)
            report = mutate.mutation_analysis(unit, mutants, backend, jobs=wl.jobs)
            json.dumps(report.to_json_dict(), indent=2)
        report.human_lines()
        reports.append(report)
    return reports


def _outcomes(report) -> list[tuple[str, Optional[list[str]]]]:
    """(verdict or kill status, witness) per assertion or mutant. A mutant
    with an undecided assertion counts as `error`."""
    if isinstance(report, mutate.KillReport):
        out = [(a.verdict, None) for t in report.baseline.tests for a in t.assertions]
        for o in report.outcomes:
            undecided = any(a.verdict in UNDECIDED for t in o.tests for a in t.assertions)
            out.append(("error" if undecided else o.status, None))
        return out
    return [(a.verdict, a.witness_strings()) for t in report.tests for a in t.assertions]


def _matches(want: Optional[Expect], verdict: Optional[str],
             witness: Optional[list[str]]) -> bool:
    if want is None or verdict != want.verdict:
        return False
    if want.witness is None:
        return True
    shown = {w for w in witness or () if w.split("(")[0] in want.witness_predicates}
    return shown == want.witness


def check(wl: Workload, reports: list, tally: Tally) -> None:
    """Compare every outcome of one pass with its reference."""
    for (path, _), report, expected in zip(wl.files, reports, wl.expected):
        for k, (want, got) in enumerate(zip_longest(expected, _outcomes(report))):
            verdict, witness = got or (None, None)
            ok = _matches(want, verdict, witness)
            tally.attempted += 1
            tally.wrong += not ok
            tally.failed += not ok or verdict in UNDECIDED
            if not ok and len(tally.examples) < 5:
                tally.examples.append(f"{path} #{k}: got {verdict}, "
                                      f"expected {want.verdict if want else None}")
