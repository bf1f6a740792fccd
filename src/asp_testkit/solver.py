"""Backends: the in-process oracle and external solver processes.

External systems are driven as child processes and must speak the ASP
competition output format, line oriented:

    ANSWER                     marks a model; the NEXT line holds its atoms,
                               whitespace separated, each optionally ending
                               in '.'; parentheses protect inner commas
    COST c1@l1 c2@l2 ...       costs of the preceding model, per level
    OPTIMUM FOUND              search finished, last model is optimal
    INCOHERENT | INCONSISTENT | UNSATISFIABLE
                               no answer set exists
    UNKNOWN                    gave up; nothing may be concluded

Anything else (comments, statistics, SATISFIABLE banners) is ignored. The
program is fed on standard input by default; configure `pass_via="tempfile"`
for systems that only read files. The model cap is injected through a
configurable argv template (clingo style `-n {n}`; `n` is 0 when every model
is requested).
"""

from __future__ import annotations

import os
import re
import shutil
import time
from dataclasses import dataclass
from typing import Optional

from .model import Program
from .oracle import (
    AnswerSet,
    CapacityExceeded,
    Scope,
    SolveResult,
    UnsupportedAggregate,
    enumerate_answer_sets,
    ground,
    optimal_answer_sets,
)
from .parser import ParseFailure, parse_ground_atom, quote
from .serialize import atom_to_text, serialize_program

SOLVER_ENV_VAR = "ASP_TESTKIT_SOLVER"

INTERNAL_BACKEND = "internal"
EXTERNAL_BACKEND = "external"

_INCOHERENT_MARKERS = ("INCOHERENT", "INCONSISTENT", "UNSATISFIABLE")

# What the internal engine refuses to decide: under auto, a configured
# external solver decides such a call instead.
REFUSED = (CapacityExceeded, UnsupportedAggregate)


class SpawnFailure(Exception):
    """The solver executable could not be started."""


class BackendError(Exception):
    """The solver exited abnormally and produced no usable output."""


class FormatError(Exception):
    """The solver output does not follow the competition format."""


@dataclass(frozen=True)
class BackendConfig:
    """How to start an external solver and feed it a program."""

    executable: str
    extra_args: tuple[str, ...] = ()
    timeout: int = 30
    model_cap_template: str = "-n {n}"
    pass_via: str = "stdin"  # or "tempfile"

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.pass_via not in ("stdin", "tempfile"):
            raise ValueError(f"pass_via must be 'stdin' or 'tempfile', not {self.pass_via!r}")


@dataclass
class RawRun:
    """Verbatim record of one backend invocation: its command, input,
    output, exit status and time, and the model count it requested."""

    argv: list[str]
    stdin_text: str
    stdout: str
    stderr: str
    exit_status: int
    wall_ms: int
    requested_models: Optional[int]
    timed_out: bool = False
    temp_path: Optional[str] = None


# one atom of a model line: whitespace inside parentheses does not split it
_MODEL_ATOM = re.compile(r"(?:[^\s(]|\([^)]*\)?)+")


def _parse_output(text: str, killed: bool = False) -> tuple[SolveResult, bool]:
    """Returns (result, saw_unknown). The output of a `killed` run may end
    in a record the kill cut short: parsing stops at the first record that
    does not parse and keeps the answers before it, where any other output
    raises FormatError."""
    result = SolveResult()
    costs: dict[tuple[int, int], int] = {}
    saw_unknown = False
    lines = text.splitlines()
    i = 0
    try:
        while i < len(lines):
            line = lines[i].strip()
            i += 1
            if line == "ANSWER":
                if i >= len(lines):
                    raise FormatError("ANSWER marker at end of output, model line missing")
                model_line = lines[i]
                i += 1
                atoms = []
                for token in _MODEL_ATOM.findall(model_line):
                    token = token.rstrip(".")
                    if not token:
                        continue
                    try:
                        atoms.append(parse_ground_atom(token))
                    except ParseFailure as exc:
                        raise FormatError(f"unparseable atom {quote(token)} after ANSWER: "
                                          f"{exc.errors[0].message}")
                result.answer_sets.append(AnswerSet(frozenset(atoms)))
                continue
            if line == "COST" or line.startswith("COST "):
                if not result.answer_sets:
                    raise FormatError("COST line with no preceding ANSWER")
                idx = len(result.answer_sets) - 1
                line_costs = {}
                for pair in line[4:].split():
                    if "@" in pair:
                        c, _, l = pair.partition("@")
                    else:
                        c, l = pair, "0"
                    try:
                        line_costs[(idx, int(l))] = int(c)
                    except ValueError:
                        raise FormatError(f"malformed COST entry {quote(pair)}")
                costs.update(line_costs)
                continue
            if line == "OPTIMUM FOUND":
                result.exhausted = True
                continue
            if line in _INCOHERENT_MARKERS:
                if result.answer_sets:
                    raise FormatError(f"{line} reported after ANSWER lines")
                result.incoherent = True
                result.exhausted = True
                continue
            if line == "UNKNOWN":
                saw_unknown = True
                continue
            # everything else is solver chatter
    except FormatError:
        if not killed:
            raise
    if costs:
        result.costs = costs
    return result, saw_unknown


def competition_lines(result: SolveResult, optimized: bool) -> list[str]:
    """`result` in the competition format, as `asp-testkit solve` prints
    it; `optimized` says that the run searched for optimal answer sets, so
    an exhausted search ends in OPTIMUM FOUND instead of SATISFIABLE."""
    lines = []
    for i, answer in enumerate(result.answer_sets):
        lines += ["ANSWER", " ".join(f"{atom_to_text(a)}." for a in answer.sorted_atoms())]
        if result.costs is not None:
            levels = sorted({l for (idx, l) in result.costs if idx == i}, reverse=True)
            if levels:
                lines.append("COST " + " ".join(f"{result.costs[(i, l)]}@{l}" for l in levels))
    if result.incoherent:
        lines.append("INCOHERENT")
    elif result.exhausted:
        lines.append("OPTIMUM FOUND" if optimized else "SATISFIABLE")
    return lines


def parse_competition_output(text: str) -> SolveResult:
    """Parse competition-format solver output into a SolveResult. Exhaustion
    is only claimed for OPTIMUM FOUND or incoherence; the caller may know
    better from the requested model count."""
    result, _ = _parse_output(text)
    return result


def solve(cfg: BackendConfig, program_text: str,
          max_models: Optional[int] = None) -> tuple[SolveResult, RawRun]:
    """Run the external solver on `program_text` with the given model cap
    (None requests every model). Timeouts yield a partial, not-exhausted
    result rather than an exception; the RawRun records everything."""
    # imported here, so that a process that only solves in-process (such as
    # an `asp-testkit solve` child) does not load them
    import shlex
    import subprocess
    import tempfile

    cap_n = 0 if max_models is None else max_models
    cap_args = shlex.split(cfg.model_cap_template.format(n=cap_n))
    argv = [cfg.executable, *cfg.extra_args, *cap_args]

    temp_path = None
    stdin_text = program_text
    try:
        if cfg.pass_via == "tempfile":
            fd, temp_path = tempfile.mkstemp(suffix=".lp", text=True)
            with os.fdopen(fd, "w") as fh:
                fh.write(program_text)
            argv.append(temp_path)
            stdin_text = ""
        start = time.monotonic()
        try:
            proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
        except OSError as exc:
            raise SpawnFailure(f"cannot start {cfg.executable!r}: {exc}") from exc
        timed_out = False
        try:
            stdout, stderr = proc.communicate(stdin_text, timeout=cfg.timeout)
        except subprocess.TimeoutExpired:
            timed_out = True
            proc.kill()
            stdout, stderr = proc.communicate()
        wall_ms = int((time.monotonic() - start) * 1000)
    finally:
        if temp_path is not None and os.path.exists(temp_path):
            os.unlink(temp_path)

    run = RawRun(argv=argv, stdin_text=program_text, stdout=stdout or "",
                 stderr=stderr or "", exit_status=proc.returncode,
                 wall_ms=wall_ms, requested_models=max_models,
                 timed_out=timed_out, temp_path=temp_path)
    stdout = run.stdout
    if timed_out:
        # the kill may have cut the last line short; only whole lines count
        stdout = stdout[:stdout.rfind("\n") + 1]
    try:
        result, saw_unknown = _parse_output(stdout, killed=timed_out)
    except FormatError:
        # solver exit codes are commonly bitmasks; only flag hard failures
        if proc.returncode != 0:
            raise BackendError(
                f"{cfg.executable} exited with status {proc.returncode}: "
                f"{run.stderr.strip() or run.stdout.strip()}")
        raise
    if not timed_out and proc.returncode != 0 and not run.stdout.strip():
        raise BackendError(
            f"{cfg.executable} exited with status {proc.returncode} and no "
            f"output: {run.stderr.strip()}")
    if max_models is not None and len(result.answer_sets) > max_models:
        result.answer_sets = result.answer_sets[:max_models]
    if timed_out:
        result.exhausted = False
    elif not saw_unknown and not result.exhausted:
        if max_models is None or len(result.answer_sets) < max_models:
            result.exhausted = True
    result.incoherent = result.incoherent or (result.exhausted and not result.answer_sets)
    return result, run


# ---------------------------------------------------------------------------
# Uniform backend handles
# ---------------------------------------------------------------------------

class InternalBackend:
    """Exhaustive oracle behind the common backend interface. `scope` is the
    `oracle.Scope` of the test whose tester `program` is (see
    `engine.run_test`): the scope instantiates and simplifies its program
    once, for its first tester, and `ground` builds each tester on that.
    The backend itself keeps no state. It renders no program text: its
    `RawRun` has no standard input."""

    name = INTERNAL_BACKEND

    def run(self, program: Program, max_models: Optional[int],
            optimize: bool = False, scope: Optional[Scope] = None) -> tuple[SolveResult, RawRun]:
        start = time.monotonic()
        g = ground(program, scope=scope)
        if optimize:
            result = optimal_answer_sets(g)
        else:
            result = enumerate_answer_sets(g, cap=max_models)
        wall_ms = int((time.monotonic() - start) * 1000)
        run = RawRun(argv=["<internal-oracle>"], stdin_text="", stdout="",
                     stderr="", exit_status=0, wall_ms=wall_ms,
                     requested_models=max_models)
        return result, run


class ExternalBackend:
    """Child-process solver behind the common backend interface, fed the
    text of `program` as `serialize_program` renders it."""

    name = EXTERNAL_BACKEND

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg

    def run(self, program: Program, max_models: Optional[int],
            optimize: bool = False, scope: Optional[Scope] = None) -> tuple[SolveResult, RawRun]:
        return solve(self.cfg, serialize_program(program), max_models)


class AutoBackend:
    """Oracle unless it refuses the call (`REFUSED`), external solver
    then (and the refusal if none is configured)."""

    name = "auto"

    def __init__(self, cfg: Optional[BackendConfig] = None):
        self.internal = InternalBackend()
        self.external = ExternalBackend(cfg) if cfg is not None else None

    def run(self, program: Program, max_models: Optional[int],
            optimize: bool = False, scope: Optional[Scope] = None) -> tuple[SolveResult, RawRun]:
        try:
            return self.internal.run(program, max_models, optimize, scope)
        except REFUSED:
            if self.external is None:
                raise
            return self.external.run(program, max_models, optimize)


def default_backend_config(executable: Optional[str] = None,
                           extra_args: tuple[str, ...] = (),
                           timeout: int = 30) -> Optional[BackendConfig]:
    """Config for the solver named explicitly, via ASP_TESTKIT_SOLVER, or
    found on PATH (clingo/dlv2); None when nothing is available."""
    path = executable or os.environ.get(SOLVER_ENV_VAR)
    if not path:
        for candidate in ("clingo", "dlv2"):
            found = shutil.which(candidate)
            if found:
                path = found
                break
    if not path:
        return None
    args = extra_args
    if not args and os.path.basename(path).startswith("clingo"):
        args = ("--outf=1", "--quiet=0,0")
    return BackendConfig(executable=path, extra_args=args, timeout=timeout)


def select_backend(name: Optional[str], cfg: Optional[BackendConfig]):
    """Pick a backend: None is auto, `internal` checks capacity and the
    aggregate restrictions on each call, `external` checks the executable
    up front."""
    if name is None:
        return AutoBackend(cfg)
    if name == INTERNAL_BACKEND:
        return InternalBackend()
    if name == EXTERNAL_BACKEND:
        if cfg is None:
            raise SpawnFailure("no external solver configured "
                               f"(set {SOLVER_ENV_VAR} or --solver-path)")
        resolved = shutil.which(cfg.executable) or (
            cfg.executable if os.path.isfile(cfg.executable) and os.access(cfg.executable, os.X_OK)
            else None)
        if resolved is None:
            raise SpawnFailure(f"solver executable {cfg.executable!r} not found")
        return ExternalBackend(cfg)
    raise ValueError(f"unknown backend {name!r}")
