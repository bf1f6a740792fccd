"""Tests of the benchmark itself: seeded generators, references, the
wrong-verdict gate, the solver-child import guard, self-time accounting and
host-speed scaling.

    PYTHONPATH=src python -m pytest -q verdictbench
"""

from __future__ import annotations

import random
import re
import tempfile

import pytest

import checkout
import hostspeed

checkout.import_checkout()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Expect  # noqa: E402


@pytest.fixture
def scratch_process(monkeypatch, tmp_path):
    """Undo what building external-loopback does to the process."""
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    monkeypatch.setenv("PYTHONPATH", "")
    monkeypatch.setattr(checkout, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "OUT", tmp_path)


def test_generators_are_deterministic_under_a_seed(scratch_process):
    for name in workloads.BUILDERS:
        first, again = workloads.build(name, 7), workloads.build(name, 7)
        assert (first.files, first.expected) == (again.files, again.expected)
    for name in ("mutate-study", "search-coloring", "ground-closure"):
        assert workloads.build(name, 7).files != workloads.build(name, 8).files


def test_references_on_tiny_cases():
    assert workloads.colorings([1, 2], [(1, 2)]) == 6
    assert workloads.closure([(1, 2), (2, 3)]) == {(1, 2), (1, 3), (2, 3)}
    k4 = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    assert workloads.colorings([1, 2, 3, 4], k4) == 0
    rng = random.Random(0)
    for n in range(2, 7):
        assert workloads.colorings(*workloads.random_tree(rng, n)) == 3 * 2 ** (n - 1)
    assert workloads.colorings(*workloads.clique_graph(rng, 5)) == 0


def test_chain_closure_is_every_forward_pair():
    edges = workloads.random_chain(random.Random(3), 8)
    order = [a for a, _ in edges] + [edges[-1][1]]
    assert workloads.closure(edges) == {(order[i], order[j])
                                        for i in range(8) for j in range(i + 1, 8)}


def test_relabelling_renames_atom_integers_only():
    text = '@trueInExactly(number = 1, atoms = "p(1,2)") q(2). r(X) :- s(X), X != 0.'
    out = workloads.relabel_integers(text, random.Random(5))
    m = re.fullmatch(r'@trueInExactly\(number = 1, atoms = "p\((\d+),(\d+)\)"\) '
                     r'q\((\d+)\)\. r\(X\) :- s\(X\), X != 0\.', out)
    assert m and m[1] != m[2] and m[2] == m[3]


def tiny_workload(expected: list[Expect]) -> workloads.Workload:
    text = (checkout.FIXTURES / "coloring.lp").read_text(encoding="utf-8")
    return workloads.Workload([("coloring.lp", text)], [expected])


def test_check_counts_a_flipped_verdict_as_wrong():
    good = tiny_workload([Expect("pass"), Expect("pass")])
    tally = workloads.Tally()
    workloads.check(good, workloads.run_pass(good), tally)
    assert (tally.attempted, tally.wrong, tally.failed) == (2, 0, 0)

    flipped = tiny_workload([Expect("pass"), Expect("fail")])
    tally = workloads.Tally()
    workloads.check(flipped, workloads.run_pass(flipped), tally)
    assert (tally.attempted, tally.wrong, tally.failed) == (2, 1, 1)


def test_a_wrong_verdict_fails_the_run(scratch_process, monkeypatch, capsys):
    flipped = tiny_workload([Expect("fail"), Expect("pass")])
    monkeypatch.setattr(workloads, "build", lambda name, seed: flipped)
    status = run.main(["--workload", "ground-closure", "--seconds", "0", "--trace", "1"])
    last = capsys.readouterr().out.splitlines()[-1]
    assert status == 1 and '"correct": false' in last


def test_child_that_cannot_import_the_checkout_is_refused(scratch_process, monkeypatch,
                                                          tmp_path):
    workloads.build("external-loopback", 1)
    workloads.check_child_imports_checkout()
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    with pytest.raises(checkout.BenchmarkError):
        workloads.check_child_imports_checkout()


def test_self_time_splits_overlapping_threads():
    pool = tracing.Span("pool", 1, None, 0.0, 0.010)
    a = tracing.Span("search", 2, pool, 0.001, 0.009)
    b = tracing.Span("ground", 3, pool, 0.001, 0.005)
    events = [(0.0, pool, True), (0.001, a, True), (0.001, b, True), (0.005, b, False),
              (0.009, a, False), (0.010, pool, False)]
    own = tracing.self_times_ms(events)
    assert own["pool"] == pytest.approx(2.0)
    assert own["search"] == pytest.approx(6.0)
    assert own["ground"] == pytest.approx(2.0)


def test_host_speed_scaling_interpolates_between_calibrations():
    slow = hostspeed.REFERENCE_S * 2
    before = hostspeed.Calibration(10.0, hostspeed.REFERENCE_S)
    after = hostspeed.Calibration(12.0, slow)
    assert hostspeed.scale(before, before) == pytest.approx(1.0)
    assert hostspeed.scale(before, after, at=10.0) == pytest.approx(1.0)
    assert hostspeed.scale(before, after, at=12.0) == pytest.approx(0.5)
    assert hostspeed.scale(before, after) == pytest.approx(2 ** -0.5)
    assert hostspeed.calibrate().took_s > 0
