"""Golden reports: `test` on every fixture and `mutate` on both mutation
fixtures, run in-process through `cli.main`, against the reports recorded
under `tests/golden/`.

Each golden file is one JSON document, `{"exit": <exit code>, "report":
<the --format json report>}`, with every `wall_ms` and `total_wall_ms`
field removed and written with `json.dumps(doc, indent=1)` plus a newline.
Every `--jobs` value of a case must give the same document. To regenerate
after a deliberate change to the reports, run the case's command from the
repository root at `--jobs 1`, for example
`PYTHONPATH=src python -m asp_testkit mutate --count 8 --seed 19 --format json
--backend internal fixtures/coloring_mutation.lp`, drop the timing fields,
and write that document over the file named by `golden_path`.

`solve` output is kept as it is printed, byte for byte, with exit code 0:
`solve -n 0 --backend internal` on every fixture (`solve_n0_*.txt`), and
plain `solve` on coloring_pref.lp, alone (one empty answer set: its facts
and weak constraint are in its test's input) and with that input as a
second file, whose output ends in COST lines and OPTIMUM FOUND. To
regenerate, run the command from the repository root, for example
`PYTHONPATH=src python -m asp_testkit solve -n 0 --backend internal
fixtures/coloring.lp`, and write its standard output over the file named in
`SOLVE_CASES`.
"""

import json
from pathlib import Path

import pytest

from asp_testkit import cli
from helpers import FIXTURES, untimed

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [(("test",), name) for name in sorted(p.name for p in FIXTURES.glob("*.lp"))] + [
    (("mutate", "--count", "8", "--seed", str(seed)), name)
    for name in ("coloring_mutation.lp", "hamiltonian_mutation.lp") for seed in (19, 3)]


# the input of coloring_pref.lp's test, given to `solve` as a second file
PREFERENCES = """node(1). node(2). node(3). edge(1,2). edge(1,3). edge(2,3).
preferablyRed(2).
:~ not col(X,red), preferablyRed(X). [1@1]
"""

# golden file name -> `solve` arguments; "PREFERENCES" names a file holding them
SOLVE_CASES = {
    **{f"solve_n0_{p.stem}.txt": ["-n", "0", "--backend", "internal", f"fixtures/{p.name}"]
       for p in sorted(FIXTURES.glob("*.lp"))},
    "solve_coloring_pref.txt": ["fixtures/coloring_pref.lp"],
    "solve_coloring_pref_with_input.txt": ["fixtures/coloring_pref.lp", "PREFERENCES"],
}


def golden_path(command: tuple, fixture: str) -> Path:
    seed = f"_seed{command[-1]}" if command[0] == "mutate" else ""
    return GOLDEN / f"{command[0]}_{Path(fixture).stem}{seed}.json"


def test_every_golden_file_has_a_case():
    assert sorted(GOLDEN.iterdir()) == sorted(
        [golden_path(*case) for case in CASES] + [GOLDEN / name for name in SOLVE_CASES])


@pytest.mark.parametrize("command, fixture", CASES,
                         ids=[golden_path(*case).stem for case in CASES])
def test_reports_match_the_golden_files(command, fixture, monkeypatch, capsys):
    # the report names the suite by the path it was given
    monkeypatch.chdir(FIXTURES.parent)
    want = json.loads(golden_path(command, fixture).read_text(encoding="utf-8"))
    for jobs in ((1, 4) if command[0] == "test" else (1, 2)):
        code = cli.main([*command, "--format", "json", "--backend", "internal",
                         "--jobs", str(jobs), f"fixtures/{fixture}"])
        got = {"exit": code, "report": untimed(json.loads(capsys.readouterr().out))}
        assert got == want, (fixture, jobs)


@pytest.mark.parametrize("name", list(SOLVE_CASES), ids=[Path(n).stem for n in SOLVE_CASES])
def test_solve_output_matches_the_golden_files(name, monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(FIXTURES.parent)
    preferences = tmp_path / "preferences.lp"
    preferences.write_text(PREFERENCES, encoding="utf-8")
    args = [str(preferences) if a == "PREFERENCES" else a for a in SOLVE_CASES[name]]
    assert cli.main(["solve", *args]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()
