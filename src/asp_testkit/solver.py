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
import shutil
import time
from dataclasses import dataclass
from typing import Optional

from .model import Program
from .oracle import (
    AnswerSet,
    CapacityExceeded,
    SolveResult,
    UnsupportedAggregate,
    enumerate_answer_sets,
    ground,
    optimal_answer_sets,
)
from .parser import ParseFailure, parse_ground_atom

SOLVER_ENV_VAR = "ASP_TESTKIT_SOLVER"

INTERNAL_BACKEND = "internal"
EXTERNAL_BACKEND = "external"

_INCOHERENT_MARKERS = ("INCOHERENT", "INCONSISTENT", "UNSATISFIABLE")


class SpawnFailure(Exception):
    """The solver executable could not be started."""


class BackendError(Exception):
    """The solver exited abnormally and produced no usable output."""


class FormatError(Exception):
    """The solver output does not follow the competition format."""


@dataclass
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


@dataclass
class RawRun:
    """Verbatim record of one backend invocation, kept for witness reporting
    and for checking that assertions request bounded model counts."""

    argv: list[str]
    stdin_text: str
    stdout: str
    stderr: str
    exit_status: int
    wall_ms: int
    requested_models: Optional[int]
    timed_out: bool = False
    temp_path: Optional[str] = None


def _split_atom_line(line: str) -> list[str]:
    """Split a model line into atom strings, honoring parenthesis nesting."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in line:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch.isspace() and depth == 0:
            if current:
                parts.append("".join(current))
                current = []
            continue
        current.append(ch)
    if current:
        parts.append("".join(current))
    return parts


def _parse_output(text: str) -> tuple[SolveResult, bool]:
    """Returns (result, saw_unknown)."""
    result = SolveResult()
    costs: dict[tuple[int, int], int] = {}
    saw_unknown = False
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line == "ANSWER":
            if i >= len(lines):
                raise FormatError("ANSWER marker at end of output, model line missing")
            model_line = lines[i]
            i += 1
            atoms = []
            for token in _split_atom_line(model_line):
                token = token.rstrip(".")
                if not token:
                    continue
                try:
                    atoms.append(parse_ground_atom(token))
                except ParseFailure as exc:
                    raise FormatError(
                        f"unparseable atom {token!r} after ANSWER: {exc.errors[0].message}")
            result.answer_sets.append(AnswerSet(frozenset(atoms)))
            continue
        if line == "COST" or line.startswith("COST "):
            if not result.answer_sets:
                raise FormatError("COST line with no preceding ANSWER")
            idx = len(result.answer_sets) - 1
            for pair in line[4:].split():
                if "@" in pair:
                    c, _, l = pair.partition("@")
                else:
                    c, l = pair, "0"
                try:
                    costs[(idx, int(l))] = int(c)
                except ValueError:
                    raise FormatError(f"malformed COST entry {pair!r}")
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
    if costs:
        result.costs = costs
    return result, saw_unknown


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
        result, saw_unknown = _parse_output(stdout)
    except FormatError:
        if timed_out:
            # the kill may have truncated the output mid-model; salvage the
            # complete prefix
            lines = stdout.splitlines()
            while lines:
                lines.pop()
                try:
                    result, saw_unknown = _parse_output("\n".join(lines))
                    break
                except FormatError:
                    continue
            else:
                result, saw_unknown = SolveResult(), False
            result.exhausted = False
            return result, run
        # solver exit codes are commonly bitmasks; only flag hard failures
        if proc.returncode != 0:
            raise BackendError(
                f"{cfg.executable} exited with status {proc.returncode}: "
                f"{run.stderr.strip() or run.stdout.strip()}")
        raise
    if not result.answer_sets and not result.incoherent and not result.exhausted \
            and proc.returncode != 0 and not run.stdout.strip():
        raise BackendError(
            f"{cfg.executable} exited with status {proc.returncode} and no "
            f"output: {run.stderr.strip()}")
    if max_models is not None and len(result.answer_sets) > max_models:
        result.answer_sets = result.answer_sets[:max_models]
    if not timed_out and not saw_unknown and not result.exhausted:
        if max_models is None or len(result.answer_sets) < max_models:
            result.exhausted = True
    if timed_out:
        result.exhausted = False
    result.incoherent = result.incoherent or (result.exhausted and not result.answer_sets)
    return result, run


# ---------------------------------------------------------------------------
# Uniform backend handles
# ---------------------------------------------------------------------------

class InternalBackend:
    """Exhaustive oracle behind the common backend interface."""

    name = INTERNAL_BACKEND

    def run(self, program: Program, text: str, max_models: Optional[int],
            optimize: bool = False) -> tuple[SolveResult, RawRun]:
        start = time.monotonic()
        g = ground(program)
        if optimize:
            result = optimal_answer_sets(g)
        else:
            result = enumerate_answer_sets(g, cap=max_models)
        wall_ms = int((time.monotonic() - start) * 1000)
        run = RawRun(argv=["<internal-oracle>"], stdin_text=text, stdout="",
                     stderr="", exit_status=0, wall_ms=wall_ms,
                     requested_models=max_models)
        return result, run


class ExternalBackend:
    """Child-process solver behind the common backend interface."""

    name = EXTERNAL_BACKEND

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg

    def run(self, program: Program, text: str, max_models: Optional[int],
            optimize: bool = False) -> tuple[SolveResult, RawRun]:
        return solve(self.cfg, text, max_models)


class AutoBackend:
    """Oracle when the grounding fits its capacity, external solver
    otherwise (and an error if none is configured)."""

    name = "auto"

    def __init__(self, cfg: Optional[BackendConfig] = None):
        self.internal = InternalBackend()
        self.external = ExternalBackend(cfg) if cfg is not None else None

    def run(self, program: Program, text: str, max_models: Optional[int],
            optimize: bool = False) -> tuple[SolveResult, RawRun]:
        try:
            return self.internal.run(program, text, max_models, optimize)
        except (CapacityExceeded, UnsupportedAggregate):
            if self.external is None:
                raise
            return self.external.run(program, text, max_models, optimize)


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
