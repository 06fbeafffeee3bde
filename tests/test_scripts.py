"""Smoke tests: each script in scripts/ runs to completion at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv: str) -> subprocess.CompletedProcess:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("scripts/demo_sim.py", "--ticks", "3"),
        ("scripts/totality_survey.py", "--count", "3", "--horizon", "3"),
    ],
    ids=["demo_sim", "totality_survey"],
)
def test_script_runs(argv):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "SOUNDNESS VIOLATED" not in proc.stdout


def test_tick_cost_reports_each_chain():
    proc = run_script("scripts/tick_cost.py", "--sizes", "3", "8", "--ticks", "5")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [(n, sweeps) for n, _, sweeps, _, _ in rows] == [("3", "4.00"), ("8", "9.00")]
    # Only the N gates are swept: the delay reads its committed value.
    assert [row[3:] for row in rows] == [["3", "12.00"], ["8", "72.00"]]


def test_check_cost_pins_the_walk_at_small_horizons():
    proc = run_script(
        "scripts/check_cost.py", "--totality", "2", "3", "9", "--equiv", "1", "2", "4",
        "--repeat", "1",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[-2:] == ["ms/check", "us/tick"]
    rows = [line.split() for line in lines[1:]]
    # The times vary; each is positive, and us/tick is ms/check over ticks.
    for *_, ticks, ms, us in rows:
        assert float(us) > 0 and abs(float(us) * int(ticks) / 1e3 - float(ms)) < 1e-2
    rows = [row[:-2] for row in rows]
    # Once every reachable history is met, steps grow by a constant per
    # tick of horizon and ticks stop growing: at most 8 histories times 2
    # rows for wobble.net, one (empty) history times 3 rows per circuit for
    # the delay-free diagonals.
    assert rows == [
        ["totality", "2", "4", "6", "6"],
        ["totality", "3", "8", "14", "12"],
        ["totality", "9", "512", "62", "16"],
        ["equiv", "1", "3", "6", "6"],
        ["equiv", "2", "9", "12", "6"],
        ["equiv", "4", "81", "24", "6"],
    ]


def test_law_cost_pins_each_laws_cases():
    proc = run_script(
        "scripts/law_cost.py", "--cap", "100", "--samples", "5", "--repeat", "1"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["law", "cases", "calls", "solves", "ms", "us/case", "us/call"]
    rows = [line.split() for line in lines[1:9]]
    # The cases, operator calls and solves follow from the configuration;
    # the times vary.
    assert [row[:4] for row in rows] == [
        ["fixpoint", "60", "60", "139"],
        ["naturality-param", "143", "286", "662"],
        ["dinaturality", "205", "410", "934"],
        ["bekic", "40", "120", "450"],
        ["yanking", "5", "2", "5"],
        ["vanishing", "64", "144", "514"],
        ["sliding", "80", "160", "400"],
        ["superposing", "264", "528", "1988"],
    ]
    total, run, *rest = lines[9:]
    total = total.split()
    assert not rest and total[:4] == ["sum", "861", "1710", "5092"]
    assert run.split()[0] == "run_laws"
    times = [float(row[4]) for row in rows] + [float(total[4]), float(run.split()[1])]
    assert all(t > 0 for t in times)
    assert abs(sum(times[:8]) - times[8]) < 0.01
    # the last two columns are each law's time per case and per operator
    # call in microseconds, up to the rounding of both printed times
    for law, *work, ms, per_case, per_call in rows + [total]:
        for n, us in zip(map(int, work), (per_case, per_call)):
            assert abs(float(us) - float(ms) * 1e3 / n) <= 0.5 / n + 0.006, law
    assert int(run.split()[-2]) >= 1 and run.split()[-1] == "workers"


def test_cold_start_reports_each_command_and_module():
    proc = run_script("scripts/cold_start.py", "--runs", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("bytecode: ")
    assert lines[1].split() == ["command", "ms", "q1", "q3", "(2", "runs)"]
    rows = [line.split() for line in lines[2:6]]
    assert [row[0] for row in rows] == ["python", "setup", "sim", "check"]
    for _, med, q1, q3 in rows:
        assert 0 < float(q1) <= float(med) <= float(q3)
    assert lines[6].split() == ["module", "self", "ms"]
    # The package and the modules the benchmark's set-up imports, gates
    # among them; cli and random_circuits are not imported.
    layers = "analysis circuit comb domain engine gates laws netlist streams".split()
    modules = sorted(line.split()[0] for line in lines[7:-1])
    assert modules == ["causalcirc"] + [f"causalcirc.{m}" for m in layers]
    assert lines[-1].split()[0] == "sum"


def test_netlist_fuzz_raises_only_netlist_errors():
    # The digests pin every mutant's diagnostics and canonical print, so a
    # front-end change that moves any of them fails here.
    proc = run_script("scripts/netlist_fuzz.py", "--count", "300", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "300 mutants: 5 parsed, 295 NetlistError, 0 other",
        "sha256 6ed634312e26f8b361b621671cba306c54e0cf1f1fa02af6a21264372329f37f",
        "sha256 ascii c9ea9fb51e724cbbd69554c04cfff94008d06f850de870c9d0d27df5409d828c",
    ]


def test_netlist_fuzz_pins_the_default_run():
    # The default 6,000 mutants reach parser paths the 300 above do not,
    # among them a feedback wire closed twice and skipping a bad table row.
    proc = run_script("scripts/netlist_fuzz.py", "--count", "6000", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "6000 mutants: 47 parsed, 5953 NetlistError, 0 other",
        "sha256 b691ccdfdaea7fbab03ffc08cfd00ac4c2d870c32ae89983cf6bf0deb515171f",
        "sha256 ascii d451fde0170d69b4a225ae012e81f56fbba089464c541f1bd55588759adb574c",
    ]
