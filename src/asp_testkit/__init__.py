"""Unit testing, solving and mutation analysis for answer set programs.

Every public name below is imported from its submodule on first use, so a
process loads only the submodules it touches: an `asp-testkit solve` child
never loads the test engine or the mutator.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "model": (
        "Assertion",
        "Atom",
        "BestModelCost",
        "Comparison",
        "Constant",
        "ConstraintForAll",
        "ConstraintInAtLeast",
        "ConstraintInAtMost",
        "ConstraintInExactly",
        "CountAggregate",
        "Integer",
        "Literal",
        "NoAnswerSet",
        "Program",
        "Rule",
        "TestSpec",
        "TestSuite",
        "TrueInAll",
        "TrueInAtLeast",
        "TrueInAtMost",
        "TrueInExactly",
        "Variable",
        "WeakConstraint",
        "fresh_predicate",
        "herbrand_universe",
        "is_safe",
    ),
    "parser": (
        "ParseError",
        "ParseFailure",
        "SourceUnit",
        "merge_units",
        "parse_assertion_list",
        "parse_unit",
    ),
    "serialize": ("atom_to_text", "rule_to_text", "serialize_program"),
    "oracle": (
        "AnswerSet",
        "CapacityExceeded",
        "GroundProgram",
        "SolveResult",
        "UnsupportedAggregate",
        "enumerate_answer_sets",
        "ground",
        "is_answer_set",
        "optimal_answer_sets",
        "penalty",
        "reduct",
    ),
    "solver": (
        "AutoBackend",
        "BackendConfig",
        "ExternalBackend",
        "InternalBackend",
        "RawRun",
        "SpawnFailure",
        "parse_competition_output",
        "select_backend",
        "solve",
    ),
    "engine": (
        "AssertionResult",
        "DanglingReference",
        "SuiteReport",
        "TesterProgram",
        "TestResult",
        "build_tester",
        "evaluate",
        "resolve_scope",
        "run_suite",
        "run_test",
    ),
    "mutate": (
        "ExhaustedLoci",
        "KillReport",
        "Mutant",
        "MutationOp",
        "apply_op",
        "generate_mutants",
        "mutation_analysis",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import a public name's submodule on first use and cache the name.
    Any other name is an AttributeError, so `from asp_testkit import engine`
    falls through to the submodule import."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
