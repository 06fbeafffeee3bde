import glob
import random

import pytest
from hypothesis import given, strategies as st

from causalcirc.circuit import UnitDelay, VarDelay, validate
from causalcirc.domain import BOOL, BOT, SignatureError, sig
from causalcirc.engine import PrefixTrace, bot_trace, simulate
from causalcirc.gates import por
from causalcirc.netlist import (
    NetlistError,
    parse_netlist,
    print_netlist,
    tokenize,
)
from causalcirc.random_circuits import GenConfig, random_circuit

CORPUS = sorted(glob.glob("circuits/*.net"))


def errors_of(text: str):
    with pytest.raises(NetlistError) as exc:
        parse_netlist(text)
    return exc.value.diagnostics


# -- lexing ---------------------------------------------------------------


def test_token_positions():
    toks = tokenize("circuit main {\n  in a: bool\n}")
    kinds = [t.kind for t in toks]
    assert kinds[-1] == "EOF"
    a = next(t for t in toks if t.text == "a")
    assert (a.line, a.col) == (2, 6)


def test_bot_is_a_dedicated_token():
    toks = tokenize("bot bots")
    assert toks[0].kind == "BOT"
    assert toks[1].kind == "IDENT" and toks[1].text == "bots"


def test_stray_character_is_a_positioned_error():
    with pytest.raises(NetlistError) as exc:
        tokenize("circuit main {\n  in a: bool $\n}")
    (line, col, msg) = exc.value.diagnostics[0]
    assert (line, col) == (2, 14)
    assert "$" in msg


def test_comments_and_negative_ints():
    toks = tokenize("# hi\n-3..4 -> ..")
    assert [t.kind for t in toks[:5]] == ["INT", "..", "INT", "->", ".."]
    assert toks[0].text == "-3"


# -- golden parse ---------------------------------------------------------


def test_parse_the_por_loop_file():
    with open("circuits/por_loop.net") as fh:
        c = parse_netlist(fh.read())
    assert len(c.in_ports) == 0
    assert len(c.out_ports) == 1
    assert len(c.loops) == 1
    assert any(getattr(n, "name", "") == "por" for n in c.nodes)


def test_parse_builds_delay_nodes():
    c = parse_netlist(
        """
        type d1_4 = int 1..4
        circuit main {
          in a: bool, k: d1_4
          out y: bool, z: bool
          y = delay(a, init=1)
          z = vardelay(a, k, min=1, max=4, init=0)
        }
        """
    )
    kinds = [type(n).__name__ for n in c.nodes]
    assert "UnitDelay" in kinds and "VarDelay" in kinds
    vd = next(n for n in c.nodes if isinstance(n, VarDelay))
    assert (vd.d_min, vd.d_max, vd.init) == (1, 4, 0)
    ud = next(n for n in c.nodes if isinstance(n, UnitDelay))
    assert ud.init == 1


def test_gate_tables_load_both_flavours():
    c = parse_netlist(
        """
        gate maj(p0: bool, p1: bool, p2: bool) -> (bool) strict {
          (0,0,0) -> (0)
          (0,0,1) -> (0)
          (0,1,0) -> (0)
          (0,1,1) -> (1)
          (1,0,0) -> (0)
          (1,0,1) -> (1)
          (1,1,0) -> (1)
          (1,1,1) -> (1)
        }
        circuit main {
          in a: bool
          out y: bool
          y = maj(a, a, 1)
        }
        """
    )
    g = next(n for n in c.nodes if getattr(n, "name", "") == "maj")
    assert g.fn.apply((1, BOT, 1)) == (BOT,)
    assert g.fn.apply((1, 0, 1)) == (1,)


# -- semantic errors with positions ---------------------------------------


def test_unknown_wire_needs_a_loop():
    diags = errors_of(
        "circuit main {\n  in a: bool\n  out y: bool\n  y = por(a, z)\n}\n"
    )
    (line, col, msg) = diags[0]
    assert (line, col) == (4, 14)
    assert "loop" in msg


def test_loop_wire_may_be_used_before_assignment():
    c = parse_netlist(
        "circuit main {\n  out y: bool\n  loop w: bool\n"
        "  z = por(1, w)\n  w = z\n  y = z\n}\n"
    )
    assert len(c.loops) == 1


def test_unclosed_loop_is_an_error():
    diags = errors_of(
        "circuit main {\n  out y: bool\n  loop w: bool\n  y = por(1, w)\n}\n"
    )
    assert any("never" in msg or "closed" in msg for (_, _, msg) in diags)


def test_loop_closed_twice_is_an_error():
    diags = errors_of(
        "circuit main {\n  out y: bool\n  loop w: bool\n"
        "  z = por(1, w)\n  w = z\n  w = z\n  y = z\n}\n"
    )
    assert diags


def test_output_assigned_twice_is_an_error():
    diags = errors_of(
        "circuit main {\n  in a: bool\n  out y: bool\n  y = a\n  y = a\n}\n"
    )
    assert diags


def test_reserved_names_are_refused():
    for bad in ("loop", "bot", "por", "delay"):
        diags = errors_of(
            f"circuit main {{\n  in {bad}: bool\n  out y: bool\n  y = 1\n}}\n"
        )
        assert diags, bad


def test_type_errors_name_both_sides():
    diags = errors_of(
        """
        type i0_3 = int 0..3
        circuit main {
          in a: i0_3
          out y: bool
          y = not(a)
        }
        """
    )
    assert any("bool" in msg and "i0_3" in msg for (_, _, msg) in diags)


def test_bare_literal_without_context():
    diags = errors_of(
        "circuit main {\n  out y: bool\n  z = 1\n  y = z\n}\n"
    )
    assert any("const" in msg for (_, _, msg) in diags)


def test_multiple_errors_are_collected():
    diags = errors_of(
        "circuit main {\n  in a: bool\n  out y: bool, z: bool\n"
        "  y = por(a, q)\n  z = and(a, r)\n}\n"
    )
    assert len(diags) >= 2
    lines = [line for (line, _, _) in diags]
    assert 4 in lines and 5 in lines


BUMP = """type temp = { lo, mid, hi }
gate bump(p0: temp) -> (temp) strict {
  (lo) -> (mid)
  (mid) -> (hi)
  (hi) -> (hi)
}
"""


def test_literal_gate_arguments_take_the_gate_signature():
    # Literal and atom arguments are typed by the gate they feed: bot and
    # an atom of the argument's type build, anything else is pinned here.
    diags = errors_of(
        BUMP + "circuit main {\n"
        "  out y: bool, z: bool, w: temp, v: bool, u: bool\n"
        "  y = not(2)\n"
        "  z = por(bot, 3)\n"
        "  w = bump(mid)\n"
        "  v = not(nope)\n"
        "  u = not(lo)\n"
        "}\n"
    )
    unknown = "(forward references need a loop wire)"
    assert [d for d in diags if "never assigned" not in d[2]] == [
        (9, 11, "2 is not a value of type 'bool'"),
        (10, 16, "3 is not a value of type 'bool'"),
        (12, 11, f"unknown wire 'nope' {unknown}"),
        (13, 11, f"unknown wire 'lo' {unknown}"),
    ]
    c = parse_netlist(
        BUMP + "circuit main {\n  out z: bool, w: temp\n"
        "  z = por(bot, 1)\n  w = bump(mid)\n}\n"
    )
    assert simulate(c, bot_trace(sig(), 1)).rows == ((1, "hi"),)


def test_syntax_error_reports_position_and_aborts():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("circuit main {\n  in a: bool\n  out y bool\n}\n")
    (line, _, msg) = exc.value.diagnostics[-1]
    assert line == 3
    assert "expected" in msg


def test_unbalanced_parenthesis():
    with pytest.raises(NetlistError) as exc:
        parse_netlist(
            "circuit main {\n  in a: bool\n  out y: bool\n  y = por(a, a\n}\n"
        )
    assert exc.value.diagnostics


def test_non_monotone_gate_table_is_rejected():
    diags = errors_of(
        """
        gate weird(p0: bool) -> (bool) {
          (bot) -> (1)
          (0) -> (0)
          (1) -> (1)
        }
        circuit main {
          in a: bool
          out y: bool
          y = weird(a)
        }
        """
    )
    assert any("monotone" in msg for (_, _, msg) in diags)


def test_strict_gate_rejects_bot_cells_and_gaps():
    diags = errors_of(
        """
        gate half(p0: bool) -> (bool) strict {
          (0) -> (bot)
          (1) -> (1)
        }
        circuit main { in a: bool out y: bool y = half(a) }
        """
    )
    assert diags
    diags = errors_of(
        """
        gate gappy(p0: bool) -> (bool) strict {
          (0) -> (1)
        }
        circuit main { in a: bool out y: bool y = gappy(a) }
        """
    )
    assert any("missing" in msg or "row" in msg for (_, _, msg) in diags)


def test_vardelay_validation():
    diags = errors_of(
        "circuit main {\n  in a: bool\n  out y: bool\n"
        "  y = vardelay(a, 1, min=1)\n}\n"
    )
    assert any("max" in msg for (_, _, msg) in diags)
    diags = errors_of(
        """
        type d0_9 = int 0..9
        circuit main {
          in a: bool, k: d0_9
          out y: bool
          y = vardelay(a, k, min=1, max=4)
        }
        """
    )
    assert any("1..4" in msg for (_, _, msg) in diags)


def test_kwargs_only_on_delays():
    diags = errors_of(
        "circuit main {\n  in a: bool\n  out y: bool\n"
        "  y = and(a, a, init=1)\n}\n"
    )
    assert any("init" in msg for (_, _, msg) in diags)


def test_arity_mismatch():
    diags = errors_of(
        "circuit main {\n  in a: bool\n  out y: bool\n  y = not(a, a)\n}\n"
    )
    assert any("argument" in msg for (_, _, msg) in diags)


def test_tuple_assignment_width():
    diags = errors_of(
        "circuit main {\n  in a: bool\n  out y: bool\n"
        "  (p, q, r) = dup(a)\n  y = p\n}\n"
    )
    assert diags


def test_only_one_circuit_per_file():
    with pytest.raises(NetlistError):
        parse_netlist(
            "circuit main { out y: bool y = const[bool](1) }\n"
            "circuit main { out y: bool y = const[bool](0) }\n"
        )


# -- printing -------------------------------------------------------------


def test_print_is_deterministic_and_round_trips_the_corpus():
    for path in CORPUS:
        with open(path, "r", encoding="utf-8") as fh:
            c = parse_netlist(fh.read())
        text1 = print_netlist(c)
        c2 = parse_netlist(text1)
        assert c2 == c, path
        assert print_netlist(c2) == text1, path


def test_deeply_nested_expressions_parse_simulate_and_round_trip():
    # 5,000 nested calls: recursion per nesting level would overflow the
    # interpreter's stack long before this depth.
    pairs = 2500
    text = (
        "circuit main {\n  in a: bool\n  out y: bool\n  y = "
        + "not(por(1, " * pairs
        + "a"
        + "))" * pairs
        + "\n}\n"
    )
    c = parse_netlist(text)
    assert validate(c) == []
    assert len(c.nodes) == 3 * pairs  # a const, a por and a not per pair
    out = simulate(c, PrefixTrace(sig(BOOL), ((0,), (1,), (BOT,))))
    assert [r[0] for r in out.rows] == [0, 0, 0]  # not(por(1, _)) is 0
    printed = print_netlist(c)
    c2 = parse_netlist(printed)
    assert c2 == c
    assert print_netlist(c2) == printed


def test_printed_por_loop_still_outputs_one():
    with open("circuits/por_loop.net") as fh:
        c = parse_netlist(fh.read())
    c2 = parse_netlist(print_netlist(c))
    out = simulate(c2, bot_trace(sig(), 4))
    assert [r[0] for r in out.rows] == [1, 1, 1, 1]


def test_print_spells_bot_in_tables_and_inits():
    c = parse_netlist(
        "circuit main {\n  in a: bool\n  out y: bool\n  y = delay(a)\n}\n"
    )
    text = print_netlist(c)
    assert "init=bot" in text


@given(st.integers(0, 2**32 - 1))
def test_random_circuits_round_trip(seed):
    rng = random.Random(seed)
    c = random_circuit(rng, GenConfig(max_nodes=6, max_loops=2))
    text = print_netlist(c)
    c2 = parse_netlist(text)
    assert c2 == c
    assert print_netlist(c2) == text


def test_printer_wants_a_valid_circuit():
    from causalcirc.circuit import Circuit, SrcIn, SrcNode

    bad = Circuit(
        sig(BOOL), sig(BOOL), (por(),), ((SrcIn(0),),), (SrcNode(0, 0),), ()
    )
    with pytest.raises(SignatureError):
        print_netlist(bad)
