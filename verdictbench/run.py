"""Verdict benchmark for asp-testkit.

    python3 verdictbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: mutate-study, search-coloring, ground-closure, external-loopback
(see workloads.py and BENCHMARK.json for why each). With `--trace 0` it
measures the end-to-end metrics with tracing off; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer split.
Every verdict is checked against its reference on every pass. On the
single-threaded workloads (search-coloring, ground-closure) the pass and
verdict timings are scaled to a reference host speed measured around each
pass (hostspeed.py), because the shared host's own speed drifts by more
than the bounds; the unscaled medians are printed too.

Prints one metric per line, then, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Exits 1 when any verdict
differs from its reference, 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import checkout
import hostspeed

MIN_VERDICTS = 100     # p90 needs ten samples beyond it
MAX_EXTRA_S = 30       # how long a run may go on to reach MIN_VERDICTS
SETUP_SAMPLES = 5


def unit_of(key: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if key.endswith("_share"):
        return "ratio"
    if key.endswith("bytes"):
        return "B"
    if key.endswith("ms"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    return "count"


def fresh_process(workload: str, seed: int, until: str) -> dict:
    """Run fresh.py; returns its report plus the set-up time."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(checkout.HERE / "fresh.py"), workload,
                           str(seed), until], capture_output=True, text=True, timeout=170)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise checkout.BenchmarkError(f"fresh process failed: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.splitlines()[0])
    report["setup_s"] = report["first_call"] - started
    return report


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(timed_pass, wl, args, probe) -> tuple[dict, list[str]]:
    """When a pass runs in one thread (jobs 1), its wall time and verdict
    latencies are scaled to the reference host speed (see hostspeed.py) by
    calibrations right before and right after it; the unscaled figures are
    printed as a note. Passes spread over both cores (jobs 2) and set-up
    samples (a fresh process, mostly spawn and imports) are not scaled: a
    40 ms calibration on one core does not represent them, and scaling
    them widened their spread."""
    scaled = wl.jobs == 1
    peak = fresh_process(args.workload, args.seed, "end")
    timed_pass()  # warm-up
    walls, samples, setups, factors = [], [], [], []
    raw_walls, raw_samples = [], []
    start = time.monotonic()

    def more() -> bool:
        now = time.monotonic()
        return (now < start + args.seconds or len(setups) < SETUP_SAMPLES
                or (len(samples) < MIN_VERDICTS
                    and now < start + args.seconds + MAX_EXTRA_S))

    # One set-up sample after each pass spreads them over the run, like
    # the passes, rather than over one moment of the host's speed.
    before = hostspeed.calibrate() if scaled else None
    while more():
        probe.samples.clear()
        wall = timed_pass()
        after = hostspeed.calibrate() if scaled else None
        factor = hostspeed.scale(before, after) if scaled else 1.0
        factors.append(factor)
        raw_walls.append(wall)
        walls.append(wall * factor)
        for at, ms in probe.samples:
            raw_samples.append(ms)
            samples.append(ms * hostspeed.scale(before, after, at) if scaled else ms)
        setups.append(fresh_process(args.workload, args.seed, "first-call")["setup_s"])
        before = hostspeed.calibrate() if scaled else None
    run_s = statistics.median(walls)
    metrics = {
        "run_s": (run_s, "s"),
        "verdict_ms.p50": (statistics.median(samples), "ms"),
        "verdict_ms.p90": (percentile(samples, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak["peak_rss_kb"] * 1024 / 1e6, "MB"),
    }
    notes = [f"passes {len(walls)}, verdict samples {len(samples)}, "
             f"set-up samples {len(setups)}"]
    if scaled:
        notes += [f"host speed factor median {statistics.median(factors):.4f} "
                  f"(min {min(factors):.4f}, max {max(factors):.4f})",
                  f"unscaled: run_s {statistics.median(raw_walls):.4f} s, "
                  f"verdict_ms.p50 {statistics.median(raw_samples):.4f} ms, "
                  f"verdict_ms.p90 {percentile(raw_samples, 90):.4f} ms"]
    if len(samples) < MIN_VERDICTS:
        notes.append(f"warning: {len(samples)} verdict samples do not support p90")
    if wl.mutation:
        notes.append(f"mutants_per_s {wl.mutants_per_pass / run_s:.4f} 1/s")
    return metrics, notes


def per_layer(timed_pass, wl, args, tracing) -> tuple[dict, list[str]]:
    tracer = tracing.Tracer()
    timed_pass()  # warm-up
    plain: list[float] = []
    traced: list[dict] = []
    start = time.monotonic()
    while time.monotonic() < start + args.seconds or len(traced) < 2:
        plain.append(timed_pass())
        patches = tracing.Patches()
        tracer.install(patches)
        tracer.begin_pass()
        try:
            wall = timed_pass()
        finally:
            patches.restore()
        traced.append(tracer.end_pass(wall, wl.jobs))
    layer = {key: statistics.median(m[key] for m in traced) for key in traced[0]}
    layer["trace.overhead_s"] = (layer["pass.ms"] / 1000) - statistics.median(plain)

    dump = checkout.OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
    dump.parent.mkdir(parents=True, exist_ok=True)
    dump.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "spans": tracer.log}))
    shares = ", ".join(f"{name} {layer[f'{name}.ms'] / layer['pass.ms']:.1%}"
                       for name in (*tracing.LAYERS, "other"))
    notes = [f"traced passes {len(traced)}, untraced passes {len(plain)}",
             f"self-time shares: {shares}", f"spans written to {dump}"]
    metrics = {key: (value, unit_of(key)) for key, value in layer.items()}
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("mutate-study", "search-coloring", "ground-closure",
                             "external-loopback"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        checkout.import_checkout()
        import tracing
        import workloads
        wl = workloads.build(args.workload, args.seed)
        if wl.external:
            workloads.check_child_imports_checkout()
        tally = workloads.Tally()

        def timed_pass() -> float:
            start = time.perf_counter()
            reports = workloads.run_pass(wl)
            wall = time.perf_counter() - start
            workloads.check(wl, reports, tally)
            return wall

        patches = tracing.Patches()
        probe = tracing.LatencyProbe()
        probe.install(patches)
        try:
            if args.trace:
                metrics, notes = per_layer(timed_pass, wl, args, tracing)
            else:
                metrics, notes = end_to_end(timed_pass, wl, args, probe)
        finally:
            patches.restore()
    except checkout.BenchmarkError as exc:
        print(f"verdictbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, jobs {wl.jobs}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.4f} {unit}")
    print(f"{'wrong_verdicts':<28} {tally.wrong:>14d} count")
    print(f"{'failed_share':<28} {tally.failed / tally.attempted:>14.4f} ratio "
          f"({tally.failed} of {tally.attempted})")
    for example in tally.examples:
        print(f"wrong: {example}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
