"""The package's public names, loaded on first use, and the modules an
`asp-testkit solve` child loads."""

import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import asp_testkit
from helpers import FIXTURES

# Every name `import asp_testkit` exports, by defining module.
PUBLIC_API = {
    "model": (
        "Assertion", "Atom", "BestModelCost", "Comparison", "Constant",
        "ConstraintForAll", "ConstraintInAtLeast", "ConstraintInAtMost",
        "ConstraintInExactly", "CountAggregate", "Integer", "Literal",
        "NoAnswerSet", "Program", "Rule", "TestSpec", "TestSuite", "TrueInAll",
        "TrueInAtLeast", "TrueInAtMost", "TrueInExactly", "Variable",
        "WeakConstraint", "fresh_predicate", "herbrand_universe", "is_safe",
    ),
    "parser": (
        "ParseError", "ParseFailure", "SourceUnit", "merge_units",
        "parse_assertion_list", "parse_unit",
    ),
    "serialize": ("atom_to_text", "rule_to_text", "serialize_program"),
    "oracle": (
        "AnswerSet", "CapacityExceeded", "GroundProgram", "SolveResult",
        "UnsupportedAggregate", "enumerate_answer_sets", "ground",
        "is_answer_set", "optimal_answer_sets", "penalty", "reduct",
    ),
    "solver": (
        "AutoBackend", "BackendConfig", "ExternalBackend", "InternalBackend",
        "RawRun", "SpawnFailure", "parse_competition_output", "select_backend",
        "solve",
    ),
    "engine": (
        "AssertionResult", "DanglingReference", "SuiteReport", "TesterProgram",
        "TestResult", "build_tester", "evaluate", "resolve_scope", "run_suite",
        "run_test",
    ),
    "mutate": (
        "ExhaustedLoci", "KillReport", "Mutant", "MutationOp", "apply_op",
        "generate_mutants", "mutation_analysis",
    ),
}
PUBLIC_NAMES = {name for names in PUBLIC_API.values() for name in names}

# Loaded by `test`, `mutate` or the external backend, never by `solve`.
NOT_FOR_SOLVE = {"asp_testkit.engine", "asp_testkit.mutate", "concurrent.futures",
                 "subprocess", "json"}
SOLVE_PATH = {"asp_testkit.parser", "asp_testkit.oracle", "asp_testkit.solver"}


# ---------------------------------------------------------------------------
# Public names
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module", PUBLIC_API)
def test_every_public_name_is_its_defining_module_attribute(module):
    defining = importlib.import_module(f"asp_testkit.{module}")
    for name in PUBLIC_API[module]:
        assert getattr(asp_testkit, name) is getattr(defining, name), name


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from asp_testkit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES


def test_dir_lists_every_public_name():
    assert PUBLIC_NAMES <= set(dir(asp_testkit))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        asp_testkit.no_such_name


def test_names_load_their_module_on_first_use():
    code = "\n".join([
        "import sys, asp_testkit",
        "assert 'asp_testkit.engine' not in sys.modules",
        "asp_testkit.Program",
        "assert 'asp_testkit.model' in sys.modules",
        "assert 'asp_testkit.engine' not in sys.modules",
        "from asp_testkit import engine",
        "assert asp_testkit.run_suite is engine.run_suite",
        "assert 'asp_testkit.mutate' not in sys.modules",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_dataclass_keeps_the_generated_docstring():
    """Without a docstring, `dataclass` builds `Name(args)` from the
    class's signature, which costs start-up time."""
    undocumented = []
    for info in pkgutil.iter_modules(asp_testkit.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"asp_testkit.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__ \
                    and dataclasses.is_dataclass(obj) \
                    and obj.__doc__.startswith(f"{name}("):
                undocumented.append(f"{info.name}.{name}")
    assert undocumented == []


# ---------------------------------------------------------------------------
# What a `solve` child loads
# ---------------------------------------------------------------------------

def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    report = "import sys; sys.stderr.write('\\n'.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines())


def test_solve_loads_only_the_parse_ground_search_path():
    fixture = str(FIXTURES / "coloring.lp")
    bare = _modules_after("pass")
    child = _modules_after(
        f"from asp_testkit import cli\nassert cli.main(['solve', {fixture!r}]) == 0")
    added = child - bare
    assert SOLVE_PATH <= added
    assert added & NOT_FOR_SOLVE == set()


def _imported_by(*args: str) -> set[str]:
    """The modules `python -X importtime ARGS` imports, read off its report."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_python_m_solve_child_loads_only_the_parse_ground_search_path():
    bare = _imported_by("-c", "pass")
    added = _imported_by("-m", "asp_testkit", "solve", str(FIXTURES / "coloring.lp")) - bare
    assert SOLVE_PATH <= added
    assert added & NOT_FOR_SOLVE == set()
