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
from pathlib import Path

from . import __version__
from .oracle import CapacityExceeded, UnsupportedAggregate
from .parser import ParseFailure, merge_units, parse_unit_diagnostics
from .serialize import atom_to_text, serialize_program
from .solver import SpawnFailure, default_backend_config, select_backend

# `engine`, `mutate` and `json` are imported by the commands that use them:
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
                   help="force a backend (default: internal when the program "
                        "fits the oracle capacity, external otherwise)")
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
                   help="run tests in parallel")
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
    p.add_argument("--jobs", type=_int_at_least(1), default=1, metavar="N")
    _add_backend_options(p)
    return ap


def _read_files(paths: list[str]) -> list[tuple[str, str]]:
    out = []
    for path in paths:
        try:
            out.append((path, Path(path).read_text(encoding="utf-8")))
        except OSError as exc:
            raise _ToolError(f"cannot read {path}: {exc}")
    return out


class _ToolError(Exception):
    pass


def _parse_all(paths: list[str]):
    """Parse and merge the input files; raises on any error."""
    units = []
    errors = []
    for path, text in _read_files(paths):
        unit, errs = parse_unit_diagnostics(path, text)
        for e in errs:
            errors.append(e.render(path))
        if unit is not None:
            units.append(unit)
    if errors:
        raise _ParseErrors(errors)
    return merge_units(units)


class _ParseErrors(Exception):
    def __init__(self, rendered: list[str]):
        self.rendered = rendered
        super().__init__("\n".join(rendered))


def _make_backend(args):
    return select_backend(args.backend, default_backend_config(
        args.solver_path, tuple(args.solver_arg), args.timeout))


def cmd_check(args) -> int:
    """Parse and merge the files as `test` does, then resolve every test's
    scope; each failure is reported at its `@test` annotation."""
    from .engine import resolve_scope
    unit = _parse_all(args.files)
    status = EXIT_OK
    for spec in unit.suite.tests:
        try:
            resolve_scope(unit.suite, spec)
        except Exception as exc:
            print(f"{spec.origin}: dangling-reference: scope resolution failed: {exc}")
            status = EXIT_FAILURE
    if status == EXIT_OK:
        print(f"{len(args.files)} file(s) OK")
    return status


def cmd_solve(args) -> int:
    unit = _parse_all(args.files)
    program = unit.program
    backend = _make_backend(args)
    cap = args.cap if args.cap else None  # -n 0 requests every model
    optimize = bool(program.weak_constraints) and cap is None
    result, _ = backend.run(program, serialize_program(program), cap,
                            optimize=optimize)
    for i, answer in enumerate(result.answer_sets):
        print("ANSWER")
        print(" ".join(f"{atom_to_text(a)}." for a in answer.sorted_atoms()))
        if result.costs is not None:
            levels = sorted({l for (idx, l) in result.costs if idx == i}, reverse=True)
            if levels:
                pairs = " ".join(f"{result.costs[(i, l)]}@{l}" for l in levels)
                print(f"COST {pairs}")
    if result.incoherent:
        print("INCOHERENT")
        return EXIT_FAILURE
    if optimize and result.exhausted:
        print("OPTIMUM FOUND")
    elif result.exhausted:
        print("SATISFIABLE")
    return EXIT_OK


def cmd_test(args) -> int:
    from .engine import run_suite
    unit = _parse_all(args.files)
    backend = _make_backend(args)
    report = run_suite(unit, backend, jobs=args.jobs)
    if args.format == "json":
        print(report.to_json())
    else:
        for line in report.human_lines():
            print(line)
    if report.has_errors():
        return EXIT_ERROR
    return EXIT_OK if report.all_passed() else EXIT_FAILURE


def cmd_mutate(args) -> int:
    from .mutate import (
        ExhaustedLoci,
        OPERATOR_KINDS,
        generate_mutants,
        mutation_analysis,
        mutation_base_program,
    )
    unit = _parse_all(args.files)
    backend = _make_backend(args)
    base = mutation_base_program(unit)
    if not base.rules:
        print("no named rules to mutate (only @rule-annotated rules are mutation targets)")
        return EXIT_FAILURE
    ops = args.ops if args.ops is not None else list(OPERATOR_KINDS)
    exhausted = None
    try:
        mutants = generate_mutants(base, ops, args.count, args.seed,
                                   ops_per_mutant=args.ops_per_mutant)
    except ExhaustedLoci as exc:
        exhausted = exc
        mutants = exc.mutants
    report = mutation_analysis(unit, mutants, backend, jobs=args.jobs)
    if not report.baseline_passed:
        print("baseline run failed: the original program does not pass its own "
              "test suite; fix the tests before measuring them")
        for line in report.baseline.human_lines():
            print("  " + line)
        return EXIT_ERROR if report.baseline.has_errors() else EXIT_FAILURE
    if args.format == "json":
        import json
        doc = report.to_json_dict()
        if exhausted is not None:
            doc["exhausted_loci"] = str(exhausted)
        print(json.dumps(doc, indent=2))
    else:
        for line in report.human_lines():
            print(line)
        if exhausted is not None:
            print(f"note: {exhausted}")
    if exhausted is not None or not report.all_killed():
        return EXIT_FAILURE
    return EXIT_OK


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
    except _ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except _ParseErrors as exc:
        for line in exc.rendered:
            print(line)
        return EXIT_FAILURE
    except (CapacityExceeded, UnsupportedAggregate) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: use --backend external with a configured solver",
              file=sys.stderr)
        return EXIT_ERROR
    except SpawnFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
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
