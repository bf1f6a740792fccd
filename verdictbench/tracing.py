"""Spans and counters around asp_testkit's layer entry points.

Everything here wraps module attributes from outside; no source changes.
Each span records its layer, thread, start, end and the span that caused
it. Worker-thread spans take the submitting thread's innermost span (the
pool) as parent.

Self time splits each instant of a pass evenly among the threads that are
running a span at that instant, and gives a thread's share to its innermost
span. A span whose children are running in other threads is waiting, not
running. Layer times therefore add up to at most the pass wall time even
when `--jobs` threads overlap, and `other.ms` is whatever no layer covers.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

from asp_testkit import engine, mutate, parser, solver

LAYERS = ("parser", "scope", "tester", "ground", "search", "verdict", "report",
          "external", "mutgen", "pool")
TASK = "run_test"  # busy time of a pool worker; its own self time is `other`


class Patches:
    """Replaces attributes with wrappers and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make: Callable) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class LatencyProbe:
    """Per-assertion latency, from the call of build_tester to the return of
    evaluate in the same thread, as (midpoint on the perf_counter clock, ms).
    Installed with and without tracing."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._started = threading.local()

    def install(self, patches: Patches) -> None:
        def timed_build(original):
            def build_tester(*args, **kwargs):
                self._started.at = time.perf_counter()
                return original(*args, **kwargs)
            return build_tester

        def timed_evaluate(original):
            def evaluate(*args, **kwargs):
                result = original(*args, **kwargs)
                started, ended = self._started.at, time.perf_counter()
                self.samples.append(((started + ended) / 2, (ended - started) * 1000))
                return result
            return evaluate

        patches.wrap(engine, "build_tester", timed_build)
        patches.wrap(engine, "evaluate", timed_evaluate)


@dataclass(eq=False)
class Span:
    layer: str
    thread: int
    parent: Optional["Span"]
    start: float
    end: float = 0.0


class Tracer:
    """Collects the spans and counters of one traced pass at a time."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.log: list[dict] = []   # spans of every traced pass, for the dump
        self.passes = 0
        self.begin_pass()

    def begin_pass(self) -> None:
        self.spans: list[Span] = []
        self.events: list[tuple[float, Span, bool]] = []
        self.sums: Counter = Counter()
        self.maxima: Counter = Counter()
        self._tester_base: dict[int, tuple] = {}
        self._grounded: set = set()
        self._main = self._stack()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _add(self, **values: float) -> None:
        with self._lock:
            for key, value in values.items():
                self.sums[key] += value
                self.maxima[key] = max(self.maxima[key], value)

    def span(self, layer: str, count: Optional[Callable] = None) -> Callable:
        """Wrapper factory: time `original` as a span of `layer`, then call
        `count(result, *args, **kwargs)`. A call made from inside a span of
        the same layer is part of that span."""
        def make(original):
            def traced(*args, **kwargs):
                stack = self._stack()
                if stack and stack[-1].layer == layer:
                    return original(*args, **kwargs)
                parent = stack[-1] if stack else (self._main[-1] if self._main else None)
                span = Span(layer, threading.get_ident(), parent, time.perf_counter())
                self.spans.append(span)
                self.events.append((span.start, span, True))
                stack.append(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    stack.pop()
                    self.events.append((span.end, span, False))
                if count is not None:
                    count(result, *args, **kwargs)
                return result
            return traced
        return make

    # -- counters, recorded after the span has closed -----------------------

    def _parsed(self, result, path, text, *args, **kwargs):
        self._add(**{"parser.bytes": len(text.encode())})

    def _parsed_input(self, result, text, *args, **kwargs):
        self._add(**{"parser.bytes": len(text.encode())})

    def _built(self, tp, *args, **kwargs):
        with self._lock:
            self._tester_base[id(tp.program)] = (tp.program, tp.base)
        self._add(**{"tester.text_bytes": len(tp.text.encode())})

    def _grounded_program(self, g, program, *args, **kwargs):
        with self._lock:
            entry = self._tester_base.get(id(program))
            scope = entry[1] if entry and entry[0] is program else program
            repeat = scope in self._grounded
            self._grounded.add(scope)
        self._add(**{"ground.atoms": len(g.atoms), "ground.unknown_atoms": len(g.unknown_ids),
                     "ground.rules": len(g.rules), "ground.universe": len(g.universe),
                     "ground.repeats": repeat})

    def _enumerated(self, result, g, cap=None):
        self._add(**{"search.models": len(result.answer_sets),
                     "search.cap_hits": cap is not None and len(result.answer_sets) >= cap,
                     "search.unknown_atoms": len(g.unknown_ids)})

    def _solved(self, result, cfg, program_text, *args, **kwargs):
        _, raw = result
        self._add(**{"external.child_ms": raw.wall_ms,
                     "external.stdin_bytes": len(program_text.encode()),
                     "external.stdout_bytes": len(raw.stdout.encode()),
                     "external.timeouts": raw.timed_out})

    def _mutants(self, result, *args, **kwargs):
        self._add(**{"mutgen.mutants": len(result)})

    def install(self, patches: Patches) -> None:
        """Wrap every layer entry point where its callers look it up."""
        targets = [
            (parser, "parse_unit", "parser", self._parsed),
            (engine, "parse_program_text", "parser", self._parsed_input),
            (engine, "resolve_scope", "scope", None),
            (engine, "build_tester", "tester", self._built),
            (solver, "ground", "ground", self._grounded_program),
            (solver, "enumerate_answer_sets", "search", self._enumerated),
            (solver, "optimal_answer_sets", "search", self._enumerated),
            (engine, "evaluate", "verdict", None),
            (engine.SuiteReport, "to_json", "report", None),
            (engine.SuiteReport, "human_lines", "report", None),
            (mutate.KillReport, "to_json_dict", "report", None),
            (mutate.KillReport, "human_lines", "report", None),
            (solver, "solve", "external", self._solved),
            (mutate, "generate_mutants", "mutgen", self._mutants),
            (engine, "run_suite", "pool", None),
            (mutate, "run_suite", "pool", None),
            (mutate, "mutation_analysis", "pool", None),
            (engine, "run_test", TASK, None),
            (mutate, "run_test", TASK, None),
        ]
        for owner, name, layer, count in targets:
            patches.wrap(owner, name, self.span(layer, count))

    # -- per-pass metrics ----------------------------------------------------

    def end_pass(self, wall_s: float, jobs: int) -> dict[str, float]:
        """Per-layer metrics of the pass just traced; also appends its spans
        to the log, where `parent` is a log index and times are ms from the
        pass's first span."""
        own = self_times_ms(self.events)
        calls = Counter(s.layer for s in self.spans)
        wall_ms = wall_s * 1000
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.ms"] = own[layer]
            m[f"{layer}.calls"] = calls[layer]
        for key in ("ground.atoms", "ground.unknown_atoms", "ground.rules", "ground.universe"):
            m[f"{key}.sum"] = self.sums[key]
            m[f"{key}.max"] = self.maxima[key]
        m["ground.repeat_scope_share"] = self.sums["ground.repeats"] / max(calls["ground"], 1)
        m["search.models"] = self.sums["search.models"]
        m["search.cap_hit_share"] = self.sums["search.cap_hits"] / max(calls["search"], 1)
        m["search.unknown_atoms.max"] = self.maxima["search.unknown_atoms"]
        m["tester.text_bytes"] = self.sums["tester.text_bytes"]
        m["parser.bytes"] = self.sums["parser.bytes"]
        external_ms = sum(s.end - s.start for s in self.spans if s.layer == "external") * 1000
        m["external.child_ms"] = self.sums["external.child_ms"]
        m["external.parse_ms"] = external_ms - self.sums["external.child_ms"]
        for key in ("external.stdin_bytes", "external.stdout_bytes", "external.timeouts",
                    "mutgen.mutants"):
            m[key] = self.sums[key]
        busy_ms = sum(s.end - s.start for s in self.spans if s.layer == TASK) * 1000
        m["pool.busy_share"] = busy_ms / (jobs * wall_ms)
        m["other.ms"] = wall_ms - sum(own[layer] for layer in LAYERS)
        m["pass.ms"] = wall_ms

        origin = self.events[0][0] if self.events else 0.0
        index = {id(s): len(self.log) + i for i, s in enumerate(self.spans)}
        self.passes += 1
        self.log.extend({"pass": self.passes, "layer": s.layer, "thread": s.thread,
                         "start_ms": (s.start - origin) * 1000, "end_ms": (s.end - origin) * 1000,
                         "parent": index.get(id(s.parent))} for s in self.spans)
        return m


def self_times_ms(events: list[tuple[float, Span, bool]]) -> Counter:
    """Self time per layer, in ms, from start/end events in recording order
    (see the module docstring)."""
    stacks: dict[int, list[Span]] = defaultdict(list)
    waiting: Counter = Counter()   # span -> its running children in other threads
    out: Counter = Counter()
    previous: Optional[float] = None
    for t, span, starts in events:
        if previous is not None and t > previous:
            running = [s[-1] for s in stacks.values() if s and not waiting[s[-1]]]
            for top in running:
                out[top.layer] += (t - previous) * 1000 / len(running)
        if previous is None or t > previous:
            previous = t   # stamps of two threads may land out of order
        crosses = span.parent is not None and span.parent.thread != span.thread
        if starts:
            stacks[span.thread].append(span)
            waiting[span.parent] += crosses
        else:
            stacks[span.thread].pop()
            waiting[span.parent] -= crosses
    return out
