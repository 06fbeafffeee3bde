import glob
import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from causalcirc.circuit import (
    Circuit,
    LoopWire,
    SrcIn,
    SrcLoop,
    SrcNode,
    UnitDelay,
    VarDelay,
    validate,
)
from causalcirc.domain import BOOL, BOT, BaseType, SignatureError, sig
from causalcirc.engine import PrefixTrace, bot_trace, simulate
from causalcirc.gates import (
    identity_gate,
    not_gate,
    por,
    strict_lift,
    strict_lift_table,
)
from causalcirc.netlist import (
    NetlistError,
    parse_netlist,
    print_netlist,
    tokenize,
)
from causalcirc.random_circuits import GenConfig, random_circuit
from oracles import corpus, tokenize_by_char

CORPUS = sorted(glob.glob("circuits/*.net"))
ROOT = Path(__file__).resolve().parent.parent


def errors_of(text: str):
    with pytest.raises(NetlistError) as exc:
        parse_netlist(text)
    return exc.value.diagnostics


# -- lexing ---------------------------------------------------------------


def test_token_positions():
    toks = tokenize("circuit main {\n  in a: bool\n}")
    assert toks[-1] == ("EOF", "", 3, 2)
    assert ("IDENT", "a", 2, 6) in toks


def test_bot_is_a_dedicated_token():
    toks = tokenize("bot bots")
    assert toks[0][:2] == ("BOT", "bot")
    assert toks[1][:2] == ("IDENT", "bots")


def test_stray_character_is_a_positioned_error():
    with pytest.raises(NetlistError) as exc:
        tokenize("circuit main {\n  in a: bool $\n}")
    (line, col, msg) = exc.value.diagnostics[0]
    assert (line, col) == (2, 14)
    assert "$" in msg
    # only ASCII digits make an INT, and only a letter starts a name
    for ch in "²٣":
        assert _lexed(tokenize, f"x {ch}") == ((1, 3, f"unexpected character {ch!r}"),)
    assert _lexed(tokenize, "1 .") == ((1, 3, "stray '.'"),)


def test_comments_and_negative_ints():
    toks = tokenize("# hi\n-3..4 -> ..")
    assert [kind for kind, _, _, _ in toks[:5]] == ["INT", "..", "INT", "->", ".."]
    assert toks[0][1] == "-3"
    assert tokenize("a² _x")[:2] == [("IDENT", "a²", 1, 1), ("IDENT", "_x", 1, 4)]


def _lexed(tokenize_fn, text: str):
    try:
        return tokenize_fn(text)
    except NetlistError as e:
        return e.diagnostics


def _fuzz_mutants(count: int, seed: int) -> list[str]:
    """The mutants ``scripts/netlist_fuzz.py --count count --seed seed`` runs."""
    path = ROOT / "scripts" / "netlist_fuzz.py"
    spec = importlib.util.spec_from_file_location("netlist_fuzz", path)
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    rng = random.Random(seed)
    sources = [p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("circuits/*.net"))]
    return [fuzz.mutate(rng, rng.choice(sources)) for _ in range(count)]


LEXING_EDGE_CASES = [
    "a²", "²a", "٣", "a٣", "9٣", "_x", "é1", "𝑥", "𝟘", "½",
    "-3..4", "- 3", "-x", "-->", ".", "...", "a.b", "->", "-",
    "a\tb \t-1", "circuit m {\r\n  in a: bool\r\n}\r\n", "x\r",
    "", "\n\n", "x # note", "x #", "# only", "bot bots _bot", "a\x0bb", "a\u00a0b",
]


def test_tokenize_matches_the_character_loop():
    texts = [Path(f).read_text(encoding="utf-8") for f in CORPUS]
    texts += LEXING_EDGE_CASES + _fuzz_mutants(300, 5)
    outcomes = set()
    for text in texts:
        want = _lexed(tokenize_by_char, text)
        assert _lexed(tokenize, text) == want, text
        outcomes.add(type(want))
    assert outcomes == {list, tuple}  # both token lists and diagnostics


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


def _main(stmts: str, decls: str = "") -> str:
    return decls + f"circuit main {{\n  in x: bool\n  out y: bool\n{stmts}\n}}\n"


ENUM = "type e = { p, q }\n"
GATE = "gate g(a: bool) -> (bool) strict {\n  (0) -> (%s)\n  (1) -> (0)\n}\n"
NEVER = (1, 9, "output 'y' is never assigned")
NEVER2 = (2, 9, "output 'y' is never assigned")  # after one declaration
NEVER5 = (5, 9, "output 'y' is never assigned")  # after GATE
REPEATED = "gate g(a: bool, a: bool) -> (bool) {\n  (0, 0) -> (1)\n}\n"
UNKNOWN_ZZ = "unknown wire 'zz' (forward references need a loop wire)"

DIAGNOSTICS = {
    # every site that reads a literal
    # a gate whose declaration failed is reported there, not where it is used
    "row cell": (_main("  y = g(x)", GATE % 2), [
        (2, 11, "2 is not a value of type 'bool'"),
    ]),
    "strict row cell": (_main("  y = g(x)", GATE % "bot"), [
        (2, 11, "'bot' is not allowed here"),
    ]),
    "repeated parameter": (_main("  y = g(x, x)", REPEATED * 2), [
        (1, 17, "parameter 'a' repeated"), (4, 6, "gate 'g' is already declared"),
    ]),
    # a bad row is skipped and parsing goes on to the next row and beyond
    "two bad rows": (_main("  y = not(zz)", (GATE % 2).replace("(1) ->", "(bot) ->")), [
        (2, 11, "2 is not a value of type 'bool'"), (3, 4, "'bot' is not allowed here"),
        (8, 11, "unknown wire 'zz' (forward references need a loop wire)"), NEVER5,
    ]),
    "init": (_main("  y = delay(x, init=3)"), [
        (4, 21, "3 is not a value of type 'bool'"), NEVER,
    ]),
    "keyword value": (_main("  y = delay(x, init=()"), [
        (4, 21, "expected a value, found '('"),
    ]),
    "const": (_main("  y = const[bool](2)"), [
        (4, 19, "2 is not a value of type 'bool'"), NEVER,
    ]),
    "argument": (_main("  y = and(x, 5)"), [
        (4, 14, "5 is not a value of type 'bool'"), NEVER,
    ]),
    "enum atom": (_main("  y = x", "type t = { a, bot }\n"), [
        (1, 15, "expected a value, found 'bot'"),
    ]),
    # every comma-separated list, empty and with a dangling comma
    "no atoms": (_main("  y = x", "type t = { }\n"), [
        (1, 12, "expected a value, found '}'"),
    ]),
    "atoms, dangling": (_main("  y = x", "type t = { a, }\n"), [
        (1, 15, "expected a value, found '}'"),
    ]),
    "no params": (_main("  y = x", "gate g() -> (bool) {\n  (1) -> (1)\n}\n"), [
        (2, 5, "row has 1 cells, gate needs 0"),
    ]),
    "params, dangling": (_main("  y = x", "gate g(a: bool,) -> (bool) {\n}\n"), [
        (1, 16, "expected a parameter name, found ')'"),
    ]),
    "no outputs": (_main("  y = x", "gate g(a: bool) -> () {\n  (0) -> (1)\n}\n"), [
        (2, 12, "row has 1 cells, gate needs 0"),
    ]),
    "outputs, dangling": (_main("  y = x", "gate g(a: bool) -> (bool,) {\n}\n"), [
        (1, 26, "expected a type name, found ')'"),
    ]),
    "no cells": (_main("  y = x", "gate g(a: bool) -> (bool) {\n  () -> (1)\n}\n"), [
        (2, 4, "row has 0 cells, gate needs 1"),
    ]),
    "cells, dangling": (_main("  y = x", "gate g(a: bool) -> (bool) {\n  (0,) -> (1)\n}\n"), [
        (2, 8, "row has 2 cells, gate needs 1"),
    ]),
    "no ports": (_main("  in\n  y = x"), [
        (4, 3, "expected a statement, found 'in'"),
    ]),
    "ports, dangling": ("circuit main {\n  in x: bool,\n  out y: bool\n  y = x\n}\n", [
        (3, 7, "expected :, found 'y'"),
    ]),
    "no names": (_main("  () = dup(x)\n  y = x"), [
        (4, 4, "expected a wire name, found ')'"),
    ]),
    "names, dangling": (_main("  (a, ) = dup(x)\n  y = x"), [
        (4, 7, "expected a wire name, found ')'"),
    ]),
    # both phrasings of a type mismatch
    "output type": (ENUM + _main("  y = not(x)").replace("y: bool", "y: e"), [
        (5, 3, "output 'y' is e, got bool"), (2, 9, "output 'y' is never assigned"),
    ]),
    "feedback type": (_main("  loop w: e\n  w = not(x)\n  y = x", ENUM), [
        (6, 3, "feedback wire 'w' is e, got bool"),
        (5, 8, "feedback wire 'w' is never closed"),
    ]),
    "output type, tuple": (ENUM + _main("  (y, z) = dup(x)").replace("y: bool", "y: e"), [
        (5, 4, "output 'y' type mismatch"), (2, 9, "output 'y' is never assigned"),
    ]),
    "feedback type, tuple": (_main("  loop w: e\n  (w, z) = dup(x)\n  y = x", ENUM), [
        (6, 4, "feedback wire 'w' type mismatch"),
        (5, 8, "feedback wire 'w' is never closed"),
    ]),
    # names bound twice
    "closed twice": (_main("  loop w: bool\n  w = x\n  w = not(x)\n  y = w"), [
        (6, 3, "feedback wire 'w' is closed twice"),
    ]),
    "closed twice, tuple": (_main("  loop w: bool\n  w = not(x)\n  (w, z) = dup(x)\n  y = w"), [
        (6, 4, "feedback wire 'w' is closed twice"),
    ]),
    "assigned twice": (_main("  y = x\n  y = not(x)"), [
        (5, 3, "output 'y' is assigned twice"),
    ]),
    "assigned twice, tuple": (_main("  y = not(x)\n  (y, z) = dup(x)"), [
        (5, 4, "output 'y' is assigned twice"),
    ]),
    "in use": (_main("  x = not(x)\n  y = x"), [(4, 3, "'x' is already in use")]),
    "in use, port": ("circuit main {\n  in x: bool, x: bool\n  out y: bool\n  y = x\n}\n", [
        (2, 15, "'x' is already in use"),
    ]),
    "in use, tuple": (_main("  (x, z) = dup(x)\n  y = x"), [
        (4, 4, "'x' is already in use"),
    ]),
    # builtin gates whose types cannot be inferred or do not fit
    "swap types": (_main("  (a, b) = swap(x, 0)\n  (c, d) = swap(0, 1)\n  y = x"), [
        (4, 12, "cannot infer the types of 'swap'"),
        (5, 12, "cannot infer the types of 'swap'"),
    ]),
    "mux type": (_main("  y = mux(x, 0, 1)"), [
        (4, 7, "cannot infer the type of 'mux'; annotate as mux[type](...)"), NEVER,
    ]),
    "lt on atoms": (_main("  z = lt[e](p, q)\n  y = x", ENUM), [
        (5, 7, "lt needs integer values, got 'e'"),
    ]),
    "const keyword": (_main("  y = const[bool](1, k=1)"), [
        (4, 7, "const takes no 'k' argument"), NEVER,
    ]),
    # a refused type name is reported, its body is read, and parsing goes on
    "type name reserved, atoms": (_main("  y = not(zz)", "type bool = { a }\n"), [
        (1, 6, "cannot redeclare type 'bool'"),
        (5, 11, "unknown wire 'zz' (forward references need a loop wire)"), NEVER2,
    ]),
    "type name reserved, range": (_main("  y = not(zz)", "type not = int 0..3\n"), [
        (1, 6, "cannot redeclare type 'not'"),
        (5, 11, "unknown wire 'zz' (forward references need a loop wire)"), NEVER2,
    ]),
    "type declared twice": (_main("  y = not(zz)", "type t = { a }\ntype t = int 0..1\n"), [
        (2, 6, "type 't' is already declared"),
        (6, 11, "unknown wire 'zz' (forward references need a loop wire)"),
        (3, 9, "output 'y' is never assigned"),
    ]),
    # the name's fault is the one shown
    "type name over body": (_main("  y = x", ENUM + "type e = {a, a}\ntype bool = int 3..2\n"), [
        (2, 6, "type 'e' is already declared"), (3, 6, "cannot redeclare type 'bool'"),
    ]),
    "type repeats a value": (_main("  y = x", "type t = { a, b, a }\n"), [
        (1, 6, "type 't' repeats a value"),
    ]),
    "no circuit": ("type t = { a }\n", [(2, 1, "no circuit block in file")]),
    "declaration after the circuit": (_main("  y = x") + GATE % 2, [
        (7, 11, "2 is not a value of type 'bool'"),
    ]),
    # an unknown type skips only its own port
    "unknown type, first port": (_main("  y = z").replace("x: bool", "x: foo, z: bool"), [
        (2, 9, "unknown type 'foo'"),
    ]),
    "unknown type, last port": (_main("  y = a").replace("x: bool", "a: bool, b: foo"), [
        (2, 18, "unknown type 'foo'"),
    ]),
    "unknown type, output": (_main("  z = x").replace("y: bool", "y: foo, z: bool"), [
        (3, 10, "unknown type 'foo'"),
    ]),
    "unknown type, feedback wire": (_main("  loop w: foo\n  y = x"), [
        (4, 11, "unknown type 'foo'"),
    ]),
    # a refused port name skips only itself, and is judged before its type
    "reserved port name": (_main("  y = z").replace("x: bool", "not: bool, z: bool"), [
        (2, 6, "'not' is reserved and cannot name a port"),
    ]),
    "repeated port name": (_main("  y = z").replace("x: bool", "x: bool, x: bool, z: bool"), [
        (2, 15, "'x' is already in use"),
    ]),
    "reserved port name, unknown type": (
        _main("  y = x").replace("x: bool", "dup: bool, x: bool, z: eq"), [
            (2, 6, "'dup' is reserved and cannot name a port"), (2, 29, "unknown type 'eq'"),
        ]),
    # a refused type, or a port or feedback wire of an unknown type, is
    # reported once, where it is declared
    "refused type, port": (
        _main("  y = x\n  q = id(w)", "type t = { a, a }\n").replace("x: bool", "x: bool, w: t"),
        [(1, 6, "type 't' repeats a value")],
    ),
    "refused type, annotation": (_main("  y = mux[t](x, x, x)", "type t = { a, a }\n"), [
        (1, 6, "type 't' repeats a value"),
    ]),
    "unknown type, port read": (_main("  y = not(z)").replace("x: bool", "x: bool, z: foo"), [
        (2, 18, "unknown type 'foo'"),
    ]),
    "unknown type, feedback wire read": (_main("  loop w: foo\n  y = x\n  q = not(w)\n  w = x"), [
        (4, 11, "unknown type 'foo'"),
    ]),
    "unknown type, port assigned": (
        _main("  z = not(x)\n  y = x").replace("x: bool", "x: bool, z: foo"),
        [(2, 18, "unknown type 'foo'"), (4, 3, "'z' is already in use")],
    ),
    "unknown type, feedback wire closed": (_main("  loop w: foo\n  y = x\n  w = not(zz)"), [
        (4, 11, "unknown type 'foo'"), (6, 11, UNKNOWN_ZZ),
    ]),
    # a repeated keyword fails only its own statement
    "repeated keyword": (_main("  y = delay(x, init=0, init=1)\n  q = zz"), [
        (4, 24, "argument 'init' repeated"), (5, 7, UNKNOWN_ZZ), NEVER,
    ]),
    "repeated keyword, nested": (_main("  y = not(delay(x, init=0, init=1))\n  q = zz"), [
        (4, 28, "argument 'init' repeated"), (5, 7, UNKNOWN_ZZ), NEVER,
    ]),
    # declarations
    "row repeated": (_main("  y = g(x)", (GATE % 1).replace("(1) ->", "(0) ->")), [
        (3, 3, "row repeated"),
    ]),
    "builtin gate name": (_main("  y = x", "gate not(a: bool) -> (bool) {\n}\n"), [
        (1, 6, "'not' is a builtin name"),
    ]),
    "not a declaration": (_main("  y = x", "wire w\n"), [
        (1, 1, "expected type, gate, or circuit, found 'wire'"),
    ]),
    "unknown parameter type": (_main("  y = x", "gate g(a: foo) -> (bool) {\n}\n"), [
        (1, 11, "unknown type 'foo'"),
    ]),
    # calls that cannot be built
    "tuple of a wire": (_main("  (a, b) = x\n  y = x"), [
        (4, 4, "tuple assignment needs a gate call on the right"),
    ]),
    "two outputs": (_main("  y = dup(x)"), [
        (4, 7, "'dup' has 2 outputs; use tuple assignment"), NEVER,
    ]),
    "unknown annotation": (_main("  y = mux[foo](x, x, x)"), [
        (4, 11, "unknown type 'foo'"), NEVER,
    ]),
    "const untyped": (_main("  y = const(1)"), [
        (4, 7, "const needs a type: const[type](value)"), NEVER,
    ]),
    "const empty": (_main("  y = const[bool]()"), [
        (4, 7, "const takes exactly one literal value"), NEVER,
    ]),
    "const of a call": (_main("  y = const[bool](not(x))"), [
        (4, 7, "const takes exactly one literal value"), NEVER,
    ]),
    "min not an integer": (_main("  y = vardelay(x, 0, min=a, max=1)"), [
        (4, 26, "min must be an integer"), NEVER,
    ]),
    "delay keyword": (_main("  y = delay(x, foo=1)"), [
        (4, 7, "delay takes no 'foo' argument"), NEVER,
    ]),
    "delay arity": (_main("  y = delay(x, x)"), [
        (4, 7, "delay takes one wire argument"), NEVER,
    ]),
    "vardelay keyword": (_main("  y = vardelay(x, 0, min=0, max=1, foo=1)"), [
        (4, 7, "vardelay takes no 'foo' argument"), NEVER,
    ]),
    "vardelay arity": (_main("  y = vardelay(x, min=0, max=1)"), [
        (4, 7, "vardelay takes a data wire and a delay wire"), NEVER,
    ]),
    "vardelay range": (_main("  y = vardelay(x, 0, min=2, max=1)"), [
        (4, 7, "bad delay range 2..1"), NEVER,
    ]),
    # syntax errors
    "expression expected": (_main("  y = not(x, ,)"), [
        (4, 14, "expected an expression, found ','"),
    ]),
    "unclosed circuit": ("circuit main {\n  in x: bool\n  out y: bool\n  y = x\n", [
        (5, 1, "expected }, found end of file"),
    ]),
    "collected then fatal": (_main("  y = zz\n  y = )"), [
        (4, 7, UNKNOWN_ZZ), (5, 7, "expected an expression, found ')'"),
    ]),
}


@pytest.mark.parametrize(
    "text, diags", list(DIAGNOSTICS.values()), ids=list(DIAGNOSTICS)
)
def test_diagnostics_are_pinned(text, diags):
    assert list(errors_of(text)) == diags


def test_a_refused_gate_is_reported_once_whatever_its_calls_bind():
    # Every name a call of a refused gate would bind counts as bound: no
    # output is "never assigned", no feedback wire "never closed", and a
    # wire read later is no "unknown wire".
    text = (
        "gate g(p: bool) -> (bool) {\n  (bot) -> (1)\n  (0) -> (0)\n  (1) -> (1)\n}\n"
        "gate h(p: bool) -> (bool, bool) strict {\n  (0) -> (2, 0)\n  (1) -> (0, 1)\n}\n"
        "circuit main {\n  in a: bool\n  out y: bool, z: bool\n  loop w: bool\n"
        "  x = g(a)\n  w = not(x)\n  (u, v) = h(w)\n  y = and(u, x)\n  z = g(v)\n}\n"
    )
    assert errors_of(text) == (
        (1, 6, "table 'g' is not monotone: (_,) <= (0,) but (1,) !<= (0,)"),
        (7, 11, "2 is not a value of type 'bool'"),
    )
    # A name bound before keeps its source: reading it is no follow-on,
    # and binding it again is still an error.
    stmts = "  y = not(x)\n  (y, z) = g(x)\n  q = not(y, y)\n  y = z"
    assert errors_of(_main(stmts, GATE % 2)) == (
        (2, 11, "2 is not a value of type 'bool'"),
        (10, 7, "'not' takes 1 arguments, got 2"),
        (11, 3, "output 'y' is assigned twice"),
    )


@pytest.mark.parametrize("digit", ["²", "٣"], ids=["superscript", "arabic-indic"])
def test_non_ascii_digits_are_unexpected_characters(digit):
    # str.isdigit accepts both; int() refuses '²' and reads '٣' as 3.
    for init, col in ((digit, 21), (f"1{digit}", 22), (f"-{digit}", 21)):
        text = _main(f"  y = delay(x, init={init})")
        shown = "-" if init[0] == "-" else digit
        assert errors_of(text) == ((4, col, f"unexpected character {shown!r}"),)


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


def test_parsed_circuits_are_valid_by_construction():
    # The parser refuses whatever validate would, so it leaves the verdict
    # to the circuit's first compile or print.
    for path in sorted(glob.glob("circuits/*.net")):
        with open(path) as fh:
            assert validate(parse_netlist(fh.read())) == [], path
    for m in corpus():  # every member prints
        assert validate(parse_netlist(print_netlist(m.circuit))) == [], m.name


def test_printer_wants_a_valid_circuit():
    from causalcirc.circuit import Circuit, SrcIn, SrcNode

    bad = Circuit(
        sig(BOOL), sig(BOOL), (por(),), ((SrcIn(0),),), (SrcNode(0, 0),), ()
    )
    with pytest.raises(SignatureError):
        print_netlist(bad)


def test_a_circuit_is_validated_once(monkeypatch):
    # The first print's verdict is kept on the circuit, so simulating and
    # printing it again do not search its wiring for cycles again.
    import causalcirc.circuit as circuit

    searches = []
    real = circuit._wiring_cycle

    def counted(c, cut_history):
        searches.append(cut_history)
        return real(c, cut_history)

    monkeypatch.setattr(circuit, "_wiring_cycle", counted)
    with open("circuits/wobble.net") as fh:
        c = parse_netlist(fh.read())
    text = print_netlist(c)
    simulate(c, bot_trace(c.in_ports, 3))
    assert print_netlist(c) == text
    assert searches == [False]
    bad = Circuit(sig(BOOL), sig(BOOL), (por(),), ((SrcIn(0),),), (SrcNode(0, 0),))
    for _ in range(2):  # a kept refusal still refuses
        with pytest.raises(SignatureError, match="invalid circuit"):
            print_netlist(bad)


# -- what the printer refuses ---------------------------------------------
#
# Each circuit below printed at one time as text that does not parse back,
# or that parses to a different circuit; now the printer names the part it
# cannot print.


def _through(gate, base=BOOL, ins=("a",), outs=("y",)):
    """One gate on an input port of type ``base``, straight to an output."""
    ports = sig(base), gate.cod
    wiring = (gate,), ((SrcIn(0),),), (SrcNode(0, 0),), ()
    return Circuit(*ports, *wiring, in_names=ins, out_names=outs)


def _refused(c, offender: str) -> None:
    with pytest.raises(SignatureError, match="cannot") as exc:
        print_netlist(c)
    assert repr(offender) in str(exc.value)


def test_a_python_gate_without_a_table_is_refused():
    B = sig(BOOL)
    _refused(_through(strict_lift("f", B, B, lambda t: t)), "f")


def test_a_gate_named_like_a_builtin_prints_only_if_it_is_that_builtin():
    B = sig(BOOL)
    _refused(_through(strict_lift("not", B, B, lambda t: t)), "not")
    rows = {(0,): (0,), (1,): (1,)}
    _refused(_through(strict_lift_table("not", B, B, rows)), "not")
    # the builtin itself, and a table gate of a free name, still round-trip
    for gate in (not_gate(), strict_lift_table("same", B, B, rows)):
        c = _through(gate)
        text = print_netlist(c)
        assert parse_netlist(text) == c
        assert ("gate same(" in text) == (gate.name == "same")


def test_type_names_that_do_not_read_back_are_refused():
    for name in ("loop", "bool", "my type", "a-b", "12", "bot", "not"):
        base = BaseType(name, ("p", "q"))
        _refused(_through(identity_gate(base), base), name)


def test_atoms_that_do_not_read_back_are_refused():
    for atom in ("bot", "12", "-3", "a b", "a-b", ""):
        base = BaseType("t", ("p", atom))
        _refused(_through(identity_gate(base), base), atom)
    # an int atom and a keyword atom both read back
    base = BaseType("t", (12, "loop"))
    c = _through(identity_gate(base), base)
    assert parse_netlist(print_netlist(c)) == c


def test_port_names_that_do_not_read_back_are_refused():
    for name in ("in", "bot", "a b", "a-b", "1x", "not"):
        _refused(_through(not_gate(), ins=(name,)), name)
        _refused(_through(not_gate(), outs=(name,)), name)
    _refused(_through(not_gate(), ins=("x",), outs=("x",)), "x")


def test_two_types_or_two_gates_sharing_a_name_are_refused():
    # Each would print as one declaration, which reads back as one of them.
    ports = sig(BaseType("t", ("p", "q")), BaseType("t", ("p", "r")))
    c = Circuit(ports, ports, outputs=(SrcIn(0), SrcIn(1)), in_names=("a", "b"))
    with pytest.raises(SignatureError, match="two base types share the name 't'"):
        print_netlist(c)
    B = sig(BOOL)
    same = strict_lift_table("g", B, B, {(0,): (0,), (1,): (1,)})
    flip = strict_lift_table("g", B, B, {(0,): (1,), (1,): (0,)})
    wiring = (same, flip), ((SrcIn(0),), (SrcNode(0, 0),)), (SrcNode(1, 0),)
    with pytest.raises(SignatureError, match="two gates share the name 'g'"):
        print_netlist(Circuit(B, B, *wiring))


def test_generated_names_step_around_the_ports():
    # Node 0 and feedback wire 0 would print as n0 and w0; each takes a "_"
    # prefix until it no longer names a port.
    c = Circuit(
        sig(BOOL, BOOL),
        sig(BOOL),
        (por(),),
        ((SrcIn(0), SrcLoop(0)),),
        (SrcNode(0, 0),),
        (LoopWire(BOOL, SrcNode(0, 0)),),
        in_names=("n0", "_n0"),
        out_names=("w0",),
    )
    text = print_netlist(c)
    assert "  __n0 = por(n0, _w0)\n" in text
    assert "  loop _w0: bool\n" in text
    assert parse_netlist(text) == c
