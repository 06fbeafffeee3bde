import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from causalcirc.circuit import compose, from_gate, tensor
from causalcirc.domain import (
    BOOL,
    BOT,
    BaseType,
    SignatureError,
    UNIT,
    int_range,
    sig,
)
from causalcirc.engine import PrefixTrace, random_trace, simulate
from causalcirc.gates import (
    GateDef,
    add_gate,
    and_gate,
    const_gate,
    dup_gate,
    eq_gate,
    identity_gate,
    lt_gate,
    mux_gate,
    nand_gate,
    nor_gate,
    not_gate,
    or_gate,
    pand,
    por,
    sink_gate,
    strict_lift,
    strict_lift_table,
    swap_gate,
    table_gate,
    xor_gate,
)
from causalcirc.netlist import parse_netlist, print_netlist
from causalcirc.random_circuits import GenConfig, random_circuit

import oracles

B = sig(BOOL)
I3 = int_range(0, 2)


# -- the non-strict pair --------------------------------------------------

POR_TABLE = {
    (BOT, BOT): BOT, (BOT, 0): BOT, (BOT, 1): 1,
    (0, BOT): BOT, (0, 0): 0, (0, 1): 1,
    (1, BOT): 1, (1, 0): 1, (1, 1): 1,
}


def test_por_matches_its_table_entry_for_entry():
    g = por()
    for (x, y), want in POR_TABLE.items():
        assert g.fn.apply((x, y)) == (want,), (x, y)


def test_pand_is_the_dual_of_por():
    g = pand()
    for (x, y), want in POR_TABLE.items():
        flip = {0: 1, 1: 0, BOT: BOT}
        assert g.fn.apply((flip[x], flip[y])) == (flip[want],)


def test_por_recovers_where_strict_or_cannot():
    assert or_gate().fn.apply((1, BOT)) == (BOT,)
    assert por().fn.apply((1, BOT)) == (1,)
    assert por().fn.apply((BOT, 1)) == (1,)


def test_the_non_strict_gates_are_monotone():
    assert oracles.brute_is_monotone(por().fn)
    assert oracles.brute_is_monotone(pand().fn)


# -- strict lifts ---------------------------------------------------------


def test_strict_lift_bottom_in_bottom_out():
    g = strict_lift("xor2", sig(BOOL, BOOL), B, lambda t: (t[0] ^ t[1],))
    assert g.fn.apply((BOT, 1)) == (BOT,)
    assert g.fn.apply((1, BOT)) == (BOT,)
    assert g.fn.apply((1, 1)) == (0,)
    assert oracles.brute_is_monotone(g.fn)


def test_boolean_gates_agree_with_python_on_concrete_rows():
    cases = [
        (not_gate(), lambda a: 1 - a, 1),
        (and_gate(), lambda a, b: a & b, 2),
        (or_gate(), lambda a, b: a | b, 2),
        (xor_gate(), lambda a, b: a ^ b, 2),
        (nand_gate(), lambda a, b: 1 - (a & b), 2),
        (nor_gate(), lambda a, b: 1 - (a | b), 2),
    ]
    for g, ref, n in cases:
        for row in sig(*[BOOL] * n).concrete_tuples():
            assert g.fn.apply(row) == (ref(*row),), g.name


def test_mux_selects_and_is_strict():
    g = mux_gate()
    assert g.fn.apply((1, 0, 1)) == (0,)
    assert g.fn.apply((0, 0, 1)) == (1,)
    assert g.fn.apply((BOT, 0, 0)) == (BOT,)
    # Strict in every input: an undefined unselected branch still poisons
    # the output, unlike por.
    assert g.fn.apply((1, 0, BOT)) == (BOT,)
    assert g.fn.apply((0, BOT, 1)) == (BOT,)


def test_add_wraps_within_the_range():
    t = int_range(0, 3)
    g = add_gate(t)
    assert g.fn.apply((3, 1)) == (0,)
    assert g.fn.apply((2, 3)) == (1,)
    assert g.fn.apply((BOT, 2)) == (BOT,)
    with pytest.raises(SignatureError):
        add_gate(BaseType("t3", ("lo", "mid", "hi")))


def test_eq_and_lt():
    t3 = BaseType("t3", ("lo", "mid", "hi"))
    assert eq_gate(t3).fn.apply(("lo", "lo")) == (1,)
    assert eq_gate(t3).fn.apply(("lo", "hi")) == (0,)
    r = int_range(0, 3)
    assert lt_gate(r).fn.apply((1, 2)) == (1,)
    assert lt_gate(r).fn.apply((2, 2)) == (0,)
    with pytest.raises(SignatureError):
        lt_gate(t3)


# -- wiring ---------------------------------------------------------------


def test_wiring_gates_route_values():
    assert identity_gate(BOOL).fn.apply((1,)) == (1,)
    assert dup_gate(BOOL).fn.apply((BOT,)) == (BOT, BOT)
    assert dup_gate(BOOL).fn.apply((1,)) == (1, 1)
    assert sink_gate(BOOL).fn.apply((1,)) == ()
    assert swap_gate(BOOL, UNIT).fn.apply((1, 0)) == (0, 1)


def test_const_gate():
    g = const_gate(BOOL, 1)
    assert g.fn.apply(()) == (1,)
    gb = const_gate(BOOL, BOT)
    assert gb.fn.apply(()) == (BOT,)
    with pytest.raises(SignatureError):
        const_gate(BOOL, 2)


def test_const_gates_are_memoized_after_the_member_check():
    assert const_gate(BOOL, 1) is const_gate(BOOL, 1)
    assert const_gate(BOOL, BOT) is const_gate(BOOL, BOT)
    assert const_gate(BOOL, 0) is not const_gate(BOOL, 1)
    assert const_gate(I3, 1) is not const_gate(BOOL, 1)
    # (BOOL, True) and (BOOL, 1.0) are equal keys to the cached (BOOL, 1).
    for bad in (True, 1.0, 2, "1"):
        with pytest.raises(SignatureError):
            const_gate(BOOL, bad)


# -- table gates ----------------------------------------------------------


def test_strict_lift_table_checks_coverage():
    rows = {(0,): (1,), (1,): (0,)}
    g = strict_lift_table("inv", B, B, rows)
    assert g.fn.apply((BOT,)) == (BOT,)
    assert g.concrete_table == rows
    with pytest.raises(SignatureError):
        strict_lift_table("partial", B, B, {(0,): (1,)})
    with pytest.raises(SignatureError):
        strict_lift_table("bottomy", B, B, {(0,): (BOT,), (1,): (0,)})


def test_strict_table_refuses_rows_outside_its_domain():
    rows = {(0,): (1,), (1,): (0,), (BOT,): (0,)}
    with pytest.raises(SignatureError) as exc:
        strict_lift_table("g", B, B, rows)
    assert str(exc.value) == "gate 'g' has rows outside its domain"


def test_table_gate_rejects_non_monotone_tables():
    rows = dict.fromkeys(B.tuples(), (0,))
    rows[(BOT,)] = (1,)
    with pytest.raises(SignatureError, match="not monotone"):
        table_gate("bad", B, B, rows)


def test_table_gate_requires_all_lifted_rows():
    rows = {(0,): (0,), (1,): (1,)}
    with pytest.raises(SignatureError, match="missing a row"):
        table_gate("partial", B, B, rows)


# -- equality -------------------------------------------------------------


def test_gate_equality_is_structural():
    assert por() == por()
    assert por() != pand()
    assert const_gate(BOOL, 0) != const_gate(BOOL, 1)
    rows = {(0,): (1,), (1,): (0,)}
    assert strict_lift_table("inv", B, B, rows) == strict_lift_table(
        "inv", B, B, rows
    )


def test_gates_without_a_table_compare_their_callables():
    ident = strict_lift("f", B, B, lambda t: t)
    negate = strict_lift("f", B, B, lambda t: (1 - t[0],))
    assert ident != negate
    assert from_gate(ident) != from_gate(negate)
    assert ident == ident
    # Builtins are memoized, so rebuilding one gives the same gate back.
    assert not_gate() is not_gate()
    assert mux_gate() is mux_gate(BOOL)
    assert identity_gate(BOOL) == identity_gate(BOOL)
    assert swap_gate(BOOL, UNIT) != swap_gate(UNIT, BOOL)



@given(st.integers(0, 2**32 - 1))
def test_strict_lifts_of_random_concrete_functions_are_monotone(seed):
    rng = random.Random(seed)
    table = {
        row: (rng.choice((0, 1)),)
        for row in sig(BOOL, BOOL).concrete_tuples()
    }
    g = strict_lift_table("rnd", sig(BOOL, BOOL), B, table)
    assert oracles.brute_is_monotone(g.fn)


# -- tables in the tick ---------------------------------------------------


def table_of(g: GateDef) -> dict:
    """The table behind the gate's tick function."""
    return g.tick.__self__


def builtin_gates() -> list[GateDef]:
    gates = [por(), pand(), not_gate(), and_gate(), or_gate(), xor_gate()]
    gates += [nand_gate(), nor_gate()]
    for base in (BOOL, I3):
        gates += [mux_gate(base), add_gate(base), eq_gate(base), lt_gate(base)]
        gates += [identity_gate(base), dup_gate(base), sink_gate(base)]
        gates += [swap_gate(base, BOOL), swap_gate(BOOL, base)]
    return gates


def test_a_gate_that_raises_stores_nothing_and_raises_every_time():
    calls = []

    def g(t):
        calls.append(t)
        if t == (1,):
            raise ZeroDivisionError("no output for 1")
        return t

    gate = strict_lift("flaky", B, B, g)
    look = gate.tick
    for _ in range(3):
        with pytest.raises(ZeroDivisionError):
            look(1)
    assert 1 not in table_of(gate)
    assert look(0) == (0,) and look(0) == (0,) and look(BOT) == (BOT,)
    assert calls == [(1,)] * 3 + [(0,)]
    c = from_gate(gate)
    with pytest.raises(ZeroDivisionError):
        simulate(c, PrefixTrace(B, ((0,), (1,))))
    assert simulate(c, PrefixTrace(B, ((0,), (BOT,)))).rows == ((0,), (BOT,))
    assert set(table_of(gate)) == {0, BOT}


def test_a_nullary_gate_value_off_its_signature_is_refused():
    # A gate of no inputs goes through the checked table too: 2 on a bool
    # wire would otherwise reach ``and`` as 2 & 1 == 0.
    two = strict_lift("two", sig(), B, lambda t: (2,))
    one = from_gate(const_gate(BOOL, 1))
    c = compose(tensor(from_gate(two), one), from_gate(and_gate()))
    with pytest.raises(SignatureError, match="'two'"):
        simulate(c, PrefixTrace(sig(), ((), ())))


def test_a_gate_value_off_its_signature_is_refused_and_never_stored():
    # Stored, the True of ``isz`` would reach the shared mux table under
    # the key (1, 1, 0), and a later, valid circuit would output True.
    isz = strict_lift("isz", B, B, lambda t: (t[0] == 0,))
    ident = from_gate(identity_gate(BOOL))
    bad = compose(tensor(tensor(ident, from_gate(isz)), ident), from_gate(mux_gate()))
    with pytest.raises(SignatureError, match="gate 'isz' gave"):
        simulate(bad, PrefixTrace(bad.in_ports, ((1, 0, 0),)))
    assert table_of(isz) == {}
    good = from_gate(mux_gate())
    ((y,),) = simulate(good, PrefixTrace(good.in_ports, ((1, 1, 0),))).rows
    assert y == 1 and type(y) is int
    wide = strict_lift("wide", B, B, lambda t: (t[0], t[0]))
    with pytest.raises(SignatureError, match="gate 'wide' gave"):
        simulate(from_gate(wide), PrefixTrace(B, ((1,),)))


def test_gate_tables_hold_the_gate_function_after_simulation():
    rng = random.Random(7)
    gates = builtin_gates()
    for g in gates:
        c = from_gate(g)
        simulate(c, random_trace(rng, c.in_ports, 40, p_bot=0.3))
    cfg = GenConfig(max_inputs=2, max_nodes=6, max_loops=2)
    for _ in range(30):
        c = random_circuit(rng, cfg)
        simulate(c, random_trace(rng, c.in_ports, 6, p_bot=0.25))
    for g in gates:
        table = table_of(g)
        assert 0 < len(table) <= g.dom.count(), g
        for key, out in table.items():
            # A one-input gate's table is keyed on the bare value.
            assert out == g.fn.fn((key,) if len(g.dom) == 1 else key), (g, key)


SHARING = """type i0_2 = int 0..2
circuit main {
  in a: bool, b: bool, k: i0_2
  out y: bool, s: i0_2
  loop w: bool
%s}
"""
LEFT = """  n = not(a)
  o = por(n, w)
  w = delay(o, init=bot)
  y = and(o, b)
  k2 = add(k, k)
  s = mux[i0_2](b, k2, k)
"""
RIGHT = """  e = eq(k, 1)
  o = pand(e, w)
  n = not(o)
  w = delay(n, init=0)
  y = xor(n, b)
  one = const[i0_2](1)
  s = mux[i0_2](a, k, add(k, one))
"""


def test_circuits_that_share_builtin_gates_simulate_alike_in_either_order():
    def run(order):
        circuits = {name: parse_netlist(SHARING % body) for name, body in order}
        gates = [n for c in circuits.values() for n in c.nodes if isinstance(n, GateDef)]
        for g in gates:
            g.__dict__.pop("tick", None)  # start from empty tables
        assert not any(map(table_of, gates))
        streams = {}
        for name, c in circuits.items():
            tr = random_trace(random.Random(name), c.in_ports, 30, p_bot=0.3)
            streams[name] = simulate(c, tr).rows
        return streams

    left_first = run([("left", LEFT), ("right", RIGHT)])
    right_first = run([("right", RIGHT), ("left", LEFT)])
    assert left_first == right_first


def test_a_gate_is_a_frozen_value():
    # A gate cannot be changed under a circuit that has compiled it: the
    # plan kept on the circuit would run the old function while a print
    # and parse of the circuit ran the new one.
    c = parse_netlist(
        "gate g(p: bool) -> (bool) strict { (0) -> (1) (1) -> (0) }\n"
        "circuit main { in a: bool  out y: bool  y = g(a) }\n"
    )
    tr = PrefixTrace(c.in_ports, ((0,),))
    assert simulate(c, tr).rows == ((1,),)
    g = c.nodes[0]
    with pytest.raises(FrozenInstanceError):
        g.concrete_table = {(0,): (0,), (1,): (1,)}
    assert g.concrete_table == {(0,): (1,), (1,): (0,)}
    assert simulate(parse_netlist(print_netlist(c)), tr).rows == ((1,),)
    for field in ("name", "fn", "kind", "concrete_table", "bot_free"):
        with pytest.raises(FrozenInstanceError):
            setattr(not_gate(), field, getattr(not_gate(), field))
        with pytest.raises(FrozenInstanceError):
            delattr(not_gate(), field)
    assert not_gate().bot_free and not_gate() == not_gate()
