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
    assert lines[0].split() == ["law", "cases", "ms"]
    rows = [line.split() for line in lines[1:9]]
    # The cases follow from the configuration; the times vary.
    assert [row[:2] for row in rows] == [
        ["fixpoint", "60"],
        ["naturality-param", "143"],
        ["dinaturality", "205"],
        ["bekic", "40"],
        ["yanking", "5"],
        ["vanishing", "64"],
        ["sliding", "80"],
        ["superposing", "264"],
    ]
    total, run, *rest = lines[9:]
    assert not rest and total.split()[0] == "sum" and run.split()[0] == "run_laws"
    times = [float(row[2]) for row in rows] + [float(total.split()[1]), float(run.split()[1])]
    assert all(t > 0 for t in times)
    assert abs(sum(times[:8]) - times[8]) < 0.01
    assert int(run.split()[-2]) >= 1 and run.split()[-1] == "workers"


def test_netlist_fuzz_raises_only_netlist_errors():
    # The digests pin every mutant's diagnostics and canonical print, so a
    # front-end change that moves any of them fails here.
    proc = run_script("scripts/netlist_fuzz.py", "--count", "300", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "300 mutants: 5 parsed, 295 NetlistError, 0 other",
        "sha256 ed2ff011c2e80142a73a194e9db0068829883afd510859410bd5482dbaebcb70",
        "sha256 ascii 60f8ae70db24387e005371677fc6833341262dfbd0c613b7096b824497f21ff7",
    ]
