import dataclasses
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from causalcirc import laws
from causalcirc.cli import main

POR_LOOP = "circuits/por_loop.net"
POR_GATE = "circuits/por_gate.net"
TOGGLE = "circuits/toggle.net"
BOT_DELAY = "circuits/bot_delay.net"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- check ----------------------------------------------------------------


def test_check_describes_a_netlist(capsys):
    code, out, _ = run(capsys, "check", TOGGLE)
    assert code == 0
    assert out.startswith("ok:")
    assert "contractive" in out


def test_check_json_dumps_the_ir(capsys):
    code, out, _ = run(capsys, "check", POR_LOOP, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["nodes"] and doc["loops"]


def test_check_rejects_a_broken_file(capsys, tmp_path):
    p = tmp_path / "bad.net"
    p.write_text("circuit main {\n  out y: bool\n  y = zap(1)\n}\n")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "zap" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "no/such/file.net")
    assert code == 2
    assert "error" in err


def test_check_of_a_file_that_is_not_utf8(capsys, tmp_path):
    p = tmp_path / "latin1.net"
    p.write_bytes("# caf\xe9\n".encode("latin-1") + Path(TOGGLE).read_bytes())
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {p}: not UTF-8")
    assert err.count("\n") == 1


# -- sim ------------------------------------------------------------------


def test_sim_a_closed_loop(capsys):
    code, out, _ = run(capsys, "sim", POR_LOOP, "--ticks", "3")
    assert code == 0
    assert out == "y\n1\n1\n1\n"


def test_sim_requires_inputs_or_padding(capsys):
    code, _, err = run(capsys, "sim", POR_GATE, "--ticks", "2")
    assert code == 2
    assert "--pad-bot" in err


def test_sim_with_a_stream_file(capsys, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,b\n1,_\n0,0\n_,1\n")
    code, out, _ = run(
        capsys, "sim", POR_GATE, "--ticks", "3", "--in", str(p)
    )
    assert code == 0
    assert out == "y\n1\n0\n1\n"


def test_sim_pads_a_short_stream(capsys, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,b\n0,0\n")
    code, _, err = run(
        capsys, "sim", POR_GATE, "--ticks", "3", "--in", str(p)
    )
    assert code == 2 and "--pad-bot" in err
    code, out, _ = run(
        capsys, "sim", POR_GATE, "--ticks", "3", "--in", str(p), "--pad-bot"
    )
    assert code == 0
    assert out == "y\n0\n_\n_\n"


def test_sim_pad_bot_alone_feeds_undefined_rows(capsys):
    code, out, _ = run(capsys, "sim", POR_GATE, "--ticks", "2", "--pad-bot")
    assert code == 0
    assert out == "y\n_\n_\n"


def test_sim_writes_a_file(capsys, tmp_path):
    dest = tmp_path / "out.csv"
    code, out, _ = run(
        capsys, "sim", TOGGLE, "--ticks", "4", "--out", str(dest)
    )
    assert code == 0 and out == ""
    assert dest.read_text() == "y\n1\n0\n1\n0\n"


def test_sim_input_stream_that_is_not_utf8(capsys, tmp_path):
    p = tmp_path / "in.txt"
    p.write_bytes(b"\xff\n")
    code, out, err = run(capsys, "sim", POR_GATE, "--ticks", "1", "--in", str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {p}: not UTF-8")
    assert err.count("\n") == 1


def test_sim_to_an_unwritable_output(capsys, tmp_path):
    for target in (tmp_path, tmp_path / "no" / "out.txt"):
        code, out, err = run(capsys, "sim", TOGGLE, "--ticks", "2", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1


def test_sim_shorter_run_is_a_prefix(capsys):
    _, short, _ = run(capsys, "sim", TOGGLE, "--ticks", "3")
    _, long, _ = run(capsys, "sim", TOGGLE, "--ticks", "8")
    assert long.startswith(short)


def test_sim_rejects_a_mismatched_header(capsys, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("x,y\n1,1\n")
    code, _, err = run(
        capsys, "sim", POR_GATE, "--ticks", "1", "--in", str(p)
    )
    assert code == 2
    assert "do not match" in err


def test_sim_checks_a_stream_over_no_inputs(capsys, tmp_path):
    p = tmp_path / "in.csv"
    code, out, err = run(capsys, "sim", TOGGLE, "--ticks", "2", "--in", str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {p}: ")
    p.write_text("\n\n\n")  # the blank header and two blank rows
    assert run(capsys, "sim", TOGGLE, "--ticks", "2", "--in", str(p)) == run(
        capsys, "sim", TOGGLE, "--ticks", "2"
    )
    p.write_text("a\n\n")
    assert run(capsys, "sim", TOGGLE, "--ticks", "1", "--in", str(p)) == (
        2, "", f"error: {p}: header names a do not match ports (none)\n"
    )
    p.write_text("\n\n")
    code, out, err = run(capsys, "sim", TOGGLE, "--ticks", "2", "--in", str(p))
    assert (code, out) == (2, "")
    assert "stream has 1 ticks, 2 requested" in err and "--pad-bot" in err


# -- canon ----------------------------------------------------------------


def test_canon_is_stable(capsys, tmp_path):
    code, once, _ = run(capsys, "canon", POR_LOOP)
    assert code == 0
    code, twice, _ = run(capsys, "canon", POR_LOOP)
    assert twice == once
    # canonical text is a fixpoint of the printer
    p = tmp_path / "canon.net"
    p.write_text(once)
    _, again, _ = run(capsys, "canon", str(p))
    assert again == once


# -- laws -----------------------------------------------------------------


def test_laws_small_sweep(capsys):
    code, out, _ = run(
        capsys, "laws", "--cap", "400", "--samples", "10", "--seed", "1"
    )
    assert code == 0
    assert "all laws hold" in out
    assert "fixpoint" in out and "yanking" in out


def test_a_bare_laws_runs_the_default_config(capsys, monkeypatch):
    # The flags' defaults are read from LawConfig, not repeated: with other
    # field defaults, a bare ``laws`` still runs exactly ``LawConfig()``.
    @dataclasses.dataclass(frozen=True)
    class Moved(laws.LawConfig):
        budget: int = 7
        pair_budget: int = 8
        samples: int = 9
        seed: int = 10

    ran = []
    monkeypatch.setattr(laws, "LawConfig", Moved)
    monkeypatch.setattr(laws, "run_laws", lambda cfg: ran.append(cfg) or [])
    assert run(capsys, "laws") == (0, "all laws hold\n", "")
    assert ran == [Moved()]


def test_laws_json(capsys):
    code, out, _ = run(
        capsys, "laws", "--cap", "400", "--samples", "5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 8
    assert all(entry["passed"] for entry in doc)


def failing_sweep():
    fail = lambda law, combo, mode, cases, detail: laws.ComboResult(
        combo, mode, cases, laws.Counterexample(law, combo, detail)
    )
    return [
        laws.SweepResult("fixpoint", (laws.ComboResult("X=unit", "exhaustive", 3),)),
        laws.SweepResult("bekic", (
            laws.ComboResult("X=unit", "exhaustive", 5),
            fail("bekic", "X=bool", "sampled", 7, "at (0,): first"),
        )),
        laws.SweepResult("sliding", (
            fail("sliding", "X=unit", "sampled", 2, "at (_,): second"),
        )),
    ]


def test_a_failing_law_prints_its_first_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(laws, "run_laws", lambda cfg: failing_sweep())
    assert run(capsys, "laws") == (
        1,
        "fixpoint             1 combos        3 cases  [exhaustive]  ok\n"
        "bekic                2 combos       12 cases  [exhaustive, sampled]  FAIL\n"
        "sliding              1 combos        2 cases  [sampled]  FAIL\n"
        "counterexample: bekic fails at X=bool: at (0,): first\n",
        "",
    )
    combo = lambda name, mode, cases, cx=None: {
        "combo": name, "mode": mode, "cases": cases, "counterexample": cx
    }
    doc = [
        {"law": "fixpoint", "passed": True, "cases": 3,
         "combos": [combo("X=unit", "exhaustive", 3)]},
        {"law": "bekic", "passed": False, "cases": 12,
         "combos": [combo("X=unit", "exhaustive", 5),
                    combo("X=bool", "sampled", 7,
                          "bekic fails at X=bool: at (0,): first")]},
        {"law": "sliding", "passed": False, "cases": 2,
         "combos": [combo("X=unit", "sampled", 2,
                          "sliding fails at X=unit: at (_,): second")]},
    ]
    assert run(capsys, "laws", "--json") == (1, json.dumps(doc, indent=2) + "\n", "")


def test_laws_budget_too_small_for_a_space_is_a_usage_error(capsys):
    code, out, err = run(capsys, "laws", "--budget", "30", "--cap", "400")
    assert code == 2
    assert out == ""
    assert "sig(unit, bool) -> sig(bool)" in err and "--budget" in err


def test_a_law_worker_that_dies_is_one_error_line_not_a_traceback(capsys, monkeypatch):
    def dies(cfg):
        raise RuntimeError("law worker 4242 exited without a result")

    monkeypatch.setattr(laws, "run_laws", dies)
    assert run(capsys, "laws") == (
        2, "", "error: law worker 4242 exited without a result\n"
    )
    # A CapError is a RuntimeError too, and keeps its hint.
    def runs_out(cfg):
        raise laws.CapError("budget of 7 steps exceeded building sig() -> sig()")

    monkeypatch.setattr(laws, "run_laws", runs_out)
    assert run(capsys, "laws", "--json") == (
        2,
        "",
        "error: budget of 7 steps exceeded building sig() -> sig(); "
        "pass a larger --budget\n",
    )


# -- equiv ----------------------------------------------------------------


def test_equiv_of_different_port_signatures_gives_no_sampling_hint(capsys):
    code, out, err = run(capsys, "equiv", POR_GATE, TOGGLE, "--horizon", "3")
    assert code == 2
    assert out == ""
    assert "different port signatures" in err
    assert "--samples" not in err


def test_equiv_accepts_the_diagonal_pair(capsys):
    code, out, _ = run(
        capsys,
        "equiv",
        "circuits/diag_left.net",
        "circuits/diag_right.net",
        "--horizon",
        "4",
        "--exhaustive",
    )
    assert code == 0
    assert out.startswith("Equivalent up to horizon 4")


def test_equiv_reports_a_witness(capsys, tmp_path):
    left = tmp_path / "l.net"
    right = tmp_path / "r.net"
    left.write_text("circuit main {\n  in a: bool\n  out y: bool\n  y = a\n}\n")
    right.write_text(
        "circuit main {\n  in a: bool\n  out y: bool\n  y = not(a)\n}\n"
    )
    code, out, _ = run(
        capsys, "equiv", str(left), str(right), "--horizon", "2"
    )
    assert code == 1
    assert out.startswith("NotEquivalent: outputs differ at tick")
    assert "input trace:" in out
    assert out.count("\n") >= 5


def test_equiv_json_reports_a_witness_and_both_sides(capsys, tmp_path):
    left = tmp_path / "l.net"
    right = tmp_path / "r.net"
    left.write_text("circuit main {\n  in a: bool\n  out y: bool\n  y = a\n}\n")
    right.write_text(
        "circuit main {\n  in a: bool\n  out y: bool\n  y = not(a)\n}\n"
    )
    code, out, err = run(
        capsys, "equiv", str(left), str(right), "--horizon", "2", "--json"
    )
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "check": "equivalence",
        "equivalent": False,
        "horizon": 2,
        "strategy": "exhaustive",
        "cases": 2,
        "witness": {"inputs": [[None], [0]], "tick": 1, "port": 0},
        "left": [0],
        "right": [1],
    }
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_equiv_budget_overflow_suggests_sampling(capsys):
    code, _, err = run(
        capsys, "equiv", POR_GATE, POR_GATE, "--horizon", "12"
    )
    assert code == 2
    assert "--samples" in err
    code, out, _ = run(
        capsys,
        "equiv",
        POR_GATE,
        POR_GATE,
        "--horizon",
        "12",
        "--samples",
        "40",
        "--seed",
        "7",
    )
    assert code == 0
    assert "random" in out


def test_equiv_seed_determinism(capsys):
    argv = (
        "equiv", POR_GATE, POR_GATE,
        "--horizon", "6", "--samples", "25", "--seed", "9", "--json",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    assert json.loads(first)["equivalent"] is True


# -- totality -------------------------------------------------------------


def test_totality_of_the_toggle(capsys):
    code, out, _ = run(capsys, "totality", TOGGLE, "--horizon", "3")
    assert code == 0
    assert out.startswith("Total up to horizon 3")
    assert "also guaranteed statically" in out


def test_totality_catches_an_undefined_init(capsys):
    code, out, _ = run(capsys, "totality", BOT_DELAY, "--horizon", "2")
    assert code == 1
    assert out.startswith("NotTotal: undefined output at tick 0")


def test_totality_of_a_loop_that_is_not_contractive(capsys, tmp_path):
    p = tmp_path / "loop.net"
    p.write_text(
        "circuit main {\n  in a: bool\n  out y: bool\n  loop w: bool\n"
        "  w = por(a, w)\n  y = w\n}\n"
    )
    assert run(capsys, "totality", str(p), "--horizon", "2") == (
        1,
        "NotTotal: undefined output at tick 0, port 0\n"
        "input trace:\na\n0\n"
        "note: the circuit is not contractive\n",
        "",
    )


def test_a_bot_constant_is_not_guaranteed_total(capsys, tmp_path):
    # check, totality and its JSON agree: the output is undefined at tick 0.
    p = tmp_path / "bot.net"
    p.write_text("circuit main { in a: bool  out y: bool  y = const[bool](bot) }\n")
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0 and "totality guaranteed" not in out
    code, out, _ = run(capsys, "totality", str(p), "--horizon", "1", "--json")
    doc = json.loads(out)
    assert code == 1 and doc["total"] is False and doc["guaranteed"] is False


@pytest.mark.parametrize("argv", [["check"], ["totality", "--horizon", "3"]])
def test_a_command_walks_the_contractivity_wiring_once(capsys, monkeypatch, argv):
    # Validation and contractivity are each kept per circuit, so ``check``
    # and ``totality`` walk each wiring once, however often they ask.
    import causalcirc.circuit as circuit

    searches = []
    real = circuit._wiring_cycle

    def counted(c, cut_history):
        searches.append(cut_history)
        return real(c, cut_history)

    monkeypatch.setattr(circuit, "_wiring_cycle", counted)
    code, out, _ = run(capsys, argv[0], TOGGLE, *argv[1:])
    assert code == 0 and "guaranteed" in out
    assert searches == [False, True]


def test_totality_json(capsys):
    code, out, _ = run(
        capsys, "totality", TOGGLE, "--horizon", "2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] is True and doc["guaranteed"] is True


# -- usage errors ---------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "sim", TOGGLE)[0] == 2  # --ticks is required
    assert run(capsys)[0] == 2


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "sim", "--help")[0] == 0


def test_exclusive_strategy_flags(capsys):
    code, _, _ = run(
        capsys,
        "totality",
        TOGGLE,
        "--horizon",
        "2",
        "--exhaustive",
        "--samples",
        "5",
    )
    assert code == 2


def usage_error(capsys, *argv) -> str:
    """Run argv, demand exit 2 with no output and one ``error:`` line."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_negative_horizons_are_usage_errors(capsys):
    assert "horizon" in usage_error(capsys, "totality", POR_GATE, "--horizon", "-1")
    assert "horizon" in usage_error(capsys, "totality", BOT_DELAY, "--horizon", "-1")
    assert "horizon" in usage_error(
        capsys, "equiv", POR_GATE, POR_GATE, "--horizon", "-1"
    )


def test_too_few_samples_are_usage_errors(capsys):
    for n in ("0", "-5"):
        assert "sample" in usage_error(
            capsys, "totality", POR_GATE, "--horizon", "2", "--samples", n
        )
        assert "sample" in usage_error(
            capsys, "equiv", POR_GATE, POR_GATE, "--horizon", "2", "--samples", n
        )
        assert "samples" in usage_error(capsys, "laws", "--samples", n)


def test_negative_law_budgets_are_usage_errors(capsys):
    for flag, field in (("--budget", "budget"), ("--cap", "pair_budget")):
        err = usage_error(capsys, "laws", flag, "-1")
        assert err.startswith(f"error: {field} must not be negative")


def test_negative_ticks_are_a_usage_error(capsys):
    assert "ticks" in usage_error(capsys, "sim", TOGGLE, "--ticks", "-1")
    assert "ticks" in usage_error(
        capsys, "sim", POR_GATE, "--ticks", "-1", "--pad-bot"
    )


def test_a_closed_stdout_exits_141_without_a_traceback():
    # The pipe has no reader from the start, so the first write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = ["laws", "--cap", "400", "--samples", "10", "--json"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "causalcirc", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


# -- whole output ---------------------------------------------------------

NETS = sorted(str(p) for p in Path("circuits").glob("*.net"))
PAIRS = [("circuits/diag_left.net", "circuits/diag_right.net"),
         ("circuits/rearrange_left.net", "circuits/rearrange_right.net")]
PINNED_ARGVS = (
    [argv for net in NETS for argv in (
        ("check", net),
        ("check", net, "--json"),
        ("canon", net),
        ("sim", net, "--pad-bot", "--ticks", "4"),
        ("totality", net, "--horizon", "3"),
        ("totality", net, "--horizon", "3", "--json"),
    )]
    + [("equiv", *pair, "--horizon", "3", *fmt) for pair in PAIRS
       for fmt in ((), ("--json",))]
    + [("laws", "--cap", "400", "--samples", "10", "--json")]
)
# sha256 over every (argv, exit code, stdout) above.  A change that alters
# any byte of the CLI's stdout or any exit code must update it knowingly.
PINNED_DIGEST = "e0604b83f0026d92f767074593a1c51a9e77e49dbd3e715c72c9bd405d0f521f"


def test_cli_output_is_pinned(capsys):
    assert len(NETS) == 12
    h = hashlib.sha256()
    for argv in PINNED_ARGVS:
        code, out, _ = run(capsys, *argv)
        h.update(json.dumps([list(argv), code, out]).encode())
    assert h.hexdigest() == PINNED_DIGEST


@pytest.mark.parametrize(
    "argv, space",
    [
        (("totality", "circuits/wobble.net", "--horizon", "18"), 262144),
        (("equiv", "circuits/diag_left.net", "circuits/diag_right.net",
          "--horizon", "12"), 531441),
    ],
    ids=["totality", "equiv"],
)
def test_the_exhaustive_cap_gives_one_hint(capsys, argv, space):
    assert run(capsys, *argv) == (
        2, "",
        f"error: {space} input traces exceed the budget of 200000; "
        "pass --samples N\n",
    )


# -- the README's examples ------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _readme_block(heading: str, lang: str) -> list[str]:
    """The lines of the first ``lang`` code block after ``heading``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    after = text[text.index(f"\n{heading}\n"):]
    start = after.index(f"```{lang}\n") + len(f"```{lang}\n")
    return after[start:after.index("```", start)].splitlines()


def test_readme_commands_print_what_the_readme_shows(capsys, monkeypatch):
    # A command followed by "# " lines must print those lines first; one
    # with no output lines (the long law sweep, the JSON dump) is not run.
    monkeypatch.chdir(ROOT)
    lines = _readme_block("## Command line", "sh") + [""]
    ran = 0
    for i, line in enumerate(lines):
        if not line.startswith("causalcirc "):
            continue
        shown = []
        for nxt in lines[i + 1:]:
            if not nxt.startswith("# "):
                break
            shown.append(nxt[2:])
        if shown:
            code, out, err = run(capsys, *shlex.split(line)[1:])
            assert out.splitlines()[:len(shown)] == shown, (line, out, err)
            ran += 1
    assert ran == 3


def test_readme_python_example_gives_what_its_comments_say(monkeypatch):
    # Each "# -> X" comment is the repr of the call on its line.
    monkeypatch.chdir(ROOT)
    lines = _readme_block("## Python API", "python")
    scope: dict = {}
    exec("\n".join(lines), scope)
    checked = 0
    for line in lines:
        code, sep, said = line.partition("# -> ")
        if sep:
            assert repr(eval(code, scope)) == said.split("  ")[0], line
            checked += 1
    assert checked == 2
