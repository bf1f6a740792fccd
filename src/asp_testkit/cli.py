"""Command line front end.

    asp-testkit check  FILES...          syntax / safety / annotation / scope check
    asp-testkit solve  FILES...          run the program, print answer sets
    asp-testkit test   FILES...          run the inline test suites
    asp-testkit mutate FILES...          mutation analysis of the suites

Exit codes are a stable contract for every command: 0 success, 1 semantic
failure (parse errors, incoherence, failing tests, surviving mutants), 2
tool or environment errors (missing files, no solver, crashes, a closed
standard output).

Multiple input files share one name universe, so tests may live apart from
the rules they exercise. `solve` prints ASP-competition format, which this
tool's own output parser accepts back.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .parser import (NotUTF8, ParseFailure, merge_units, parse_unit_diagnostics, quote,
                     read_source)
from .solver import (REFUSED, SpawnFailure, competition_lines, default_backend_config,
                     select_backend)

# `engine` and `mutate` are imported by the commands that use them:
# `solve` runs once per call of the external backend, and loading them would
# only add to its start-up.

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_ERROR = 2


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _operator_list(text: str) -> list[str]:
    """argparse type: comma separated mutation operator kinds."""
    from .mutate import OPERATOR_KINDS
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    if not kinds or any(k not in OPERATOR_KINDS for k in kinds):
        raise argparse.ArgumentTypeError(
            f"expected operators from {', '.join(OPERATOR_KINDS)}, got {text!r}")
    return kinds


def _add_backend_options(p: argparse.ArgumentParser):
    p.add_argument("--backend", choices=["internal", "external"],
                   help="force a backend (default: the internal engine; a call "
                        "it refuses, over capacity or the instantiation budget or "
                        "with a recursive #count in a rule head, goes to the "
                        "configured external solver, and is an error without one)")
    p.add_argument("--solver-path", metavar="EXE",
                   help="external solver executable (default: $ASP_TESTKIT_SOLVER "
                        "or clingo/dlv2 on PATH)")
    p.add_argument("--solver-arg", action="append", default=[], metavar="ARG",
                   help="extra argument for the external solver (repeatable)")
    p.add_argument("--timeout", type=_int_at_least(1), default=30, metavar="SECS",
                   help="per-call solver timeout (default 30)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="asp-testkit", description=__doc__.split("\n")[0])
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse files and report errors")
    p.add_argument("files", nargs="+")

    p = sub.add_parser("solve", help="run the program and print its answer sets")
    p.add_argument("files", nargs="+")
    p.add_argument("-n", dest="cap", type=_int_at_least(0), default=None, metavar="CAP",
                   help="stop after CAP answer sets (default, or 0: all)")
    _add_backend_options(p)

    p = sub.add_parser("test", help="run the inline unit tests")
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, metavar="N",
                   help="run up to N solver calls at once")
    _add_backend_options(p)

    p = sub.add_parser("mutate", help="mutation analysis of the test suites")
    p.add_argument("files", nargs="+")
    p.add_argument("--ops", type=_operator_list, default=None, metavar="LIST",
                   help="comma separated operator kinds (default: all)")
    p.add_argument("--count", type=_int_at_least(1), default=10, metavar="K",
                   help="number of mutants to generate (default 10)")
    p.add_argument("--seed", type=int, default=1, metavar="S")
    p.add_argument("--ops-per-mutant", type=_int_at_least(1), default=1, metavar="N")
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, metavar="N",
                   help="run up to N solver calls at once")
    _add_backend_options(p)
    return ap


def _read_files(paths: list[str]) -> list[tuple[str, str]]:
    out = []
    for path in paths:
        try:
            out.append((path, read_source(path)))
        except NotUTF8 as exc:
            raise _ToolError(str(exc))
        except OSError as exc:
            raise _ToolError(f"cannot read {path}: {exc}")
    return out


class _ToolError(Exception):
    pass


def _parse_all(paths: list[str]):
    """Parse and merge the input files; raises ParseFailure with the errors
    of every file, each naming its own file."""
    units = []
    errors = []
    for path, text in _read_files(paths):
        unit, errs = parse_unit_diagnostics(path, text)
        errors += [e if e.path else replace(e, path=path) for e in errs]
        if unit is not None:
            units.append(unit)
    if errors:
        raise ParseFailure(errors[0].path, errors)
    return merge_units(units)


def _make_backend(args):
    return select_backend(args.backend, default_backend_config(
        args.solver_path, tuple(args.solver_arg), args.timeout))


def cmd_check(args) -> int:
    """Parse and merge the files as `test` does, then resolve every test's
    scope; each failure is reported at its `@test` annotation, labelled
    by its cause: a dangling name or a parse error exits 1, a file that
    cannot be read exits 2. A test whose assertions mention an atom that
    no head of its scope unifies with (`engine.vacuous_atoms`) gets a
    `warning:` line at its annotation, and keeps exit 0."""
    from .engine import DanglingReference, resolve_scope, vacuous_atoms
    from .oracle import Scope
    unit = _parse_all(args.files)
    status = EXIT_OK
    for spec in unit.suite.tests:
        try:
            scope = Scope(resolve_scope(unit.suite, spec))
            for warning in vacuous_atoms(spec, scope):
                print(f"{spec.origin}: warning: test {quote(spec.name)}: {warning}")
            continue
        except DanglingReference as exc:
            kind, code, message = "dangling-reference", EXIT_FAILURE, exc
        except ParseFailure as exc:
            kind, code, message = exc.errors[0].kind, EXIT_FAILURE, exc
        except OSError as exc:
            kind, code, message = "missing-file", EXIT_ERROR, exc
        print(f"{spec.origin}: {kind}: scope resolution failed: {message}")
        status = max(status, code)
    if status == EXIT_OK:
        print(f"{len(args.files)} file(s) OK")
    return status


def cmd_solve(args) -> int:
    unit = _parse_all(args.files)
    program = unit.program
    backend = _make_backend(args)
    cap = args.cap if args.cap else None  # -n 0 requests every model
    optimize = bool(program.weak_constraints) and cap is None
    result, _ = backend.run(program, cap, optimize=optimize)
    for line in competition_lines(result, optimize):
        print(line)
    return EXIT_FAILURE if result.incoherent else EXIT_OK


def _print_report(report, fmt: str) -> None:
    """A `SuiteReport` or `KillReport` in the `--format` asked for."""
    print(report.to_json() if fmt == "json" else "\n".join(report.human_lines()))


def cmd_test(args) -> int:
    from .engine import run_suite
    unit = _parse_all(args.files)
    backend = _make_backend(args)
    report = run_suite(unit, backend, jobs=args.jobs)
    _print_report(report, args.format)
    if report.has_errors():
        return EXIT_ERROR
    return EXIT_OK if report.all_passed() else EXIT_FAILURE


def cmd_mutate(args) -> int:
    from .mutate import (ExhaustedLoci, KillReport, OPERATOR_KINDS, generate_mutants,
                         mutation_analysis, mutation_base_program)
    unit = _parse_all(args.files)
    backend = _make_backend(args)
    base = mutation_base_program(unit)
    if not base.rules:
        _print_report(KillReport.nothing_to_mutate(), args.format)
        return EXIT_FAILURE
    ops = args.ops if args.ops is not None else list(OPERATOR_KINDS)
    try:
        mutants, exhausted = generate_mutants(base, ops, args.count, args.seed,
                                              ops_per_mutant=args.ops_per_mutant), None
    except ExhaustedLoci as exc:
        mutants, exhausted = exc.mutants, exc
    report = mutation_analysis(unit, mutants, backend, jobs=args.jobs)
    report.exhausted = exhausted
    _print_report(report, args.format)
    if not report.baseline_passed:
        return EXIT_ERROR if report.baseline.has_errors() else EXIT_FAILURE
    return EXIT_OK if exhausted is None and report.all_killed() else EXIT_FAILURE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return status
    except BrokenPipeError:
        # The reader closed standard output. Point it at devnull so that the
        # flush at shutdown has nowhere to fail, and say nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_ERROR


def _dispatch(args) -> int:
    """Run the command; every error it raises becomes its exit code."""
    handlers = {"check": cmd_check, "solve": cmd_solve,
                "test": cmd_test, "mutate": cmd_mutate}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        raise
    except (_ToolError, SpawnFailure, *REFUSED) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, REFUSED):
            print("hint: use --backend external with a configured solver",
                  file=sys.stderr)
        return EXIT_ERROR
    except ParseFailure as exc:
        for e in exc.errors:
            print(e.render(exc.path))
        return EXIT_FAILURE
    except Exception as exc:  # a crash is a tool error, reported in one line
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
