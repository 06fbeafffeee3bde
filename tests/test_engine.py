import random

import pytest
from hypothesis import given, strategies as st

from causalcirc.circuit import (
    Circuit,
    SrcIn,
    SrcNode,
    UnitDelay,
    VarDelay,
    from_gate,
)
from causalcirc.domain import BOOL, BOT, SignatureError, int_range, sig
from causalcirc.engine import (
    PrefixTrace,
    SimState,
    bot_trace,
    initial_state,
    random_rows,
    random_trace,
    simulate,
    step,
)
from causalcirc.analysis import check_equiv
from causalcirc.gates import const_gate, strict_lift
from causalcirc.netlist import parse_netlist
from causalcirc.random_circuits import GenConfig, random_circuit

import oracles


def load(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def rows(tr: PrefixTrace) -> list:
    return [r[0] for r in tr.rows]


# -- traces ---------------------------------------------------------------


def test_prefix_trace_validates_rows():
    tr = PrefixTrace(sig(BOOL), ((0,), (1,), (BOT,)))
    assert len(tr) == 3
    assert tr.prefix(2).rows == ((0,), (1,))
    assert any(BOT in row for row in tr.rows)
    assert not any(BOT in row for row in PrefixTrace(sig(BOOL), ((0,),)).rows)
    with pytest.raises(SignatureError):
        PrefixTrace(sig(BOOL), ((0, 1),))


def test_a_prefix_longer_than_the_trace_or_negative_is_refused():
    tr = PrefixTrace(sig(BOOL), ((0,), (1,)))
    assert tr.prefix(0).rows == ()
    for n in (-1, 3):
        with pytest.raises(SignatureError) as exc:
            tr.prefix(n)
        assert str(exc.value) == f"a length-2 trace has no prefix of length {n}"


def test_bot_trace():
    tr = bot_trace(sig(BOOL, BOOL), 3)
    assert tr.rows == (((BOT, BOT),) * 3)


def test_random_trace_respects_p_bot():
    rng = random.Random(0)
    tr = random_trace(rng, sig(BOOL), 50, p_bot=0.0)
    assert not any(BOT in row for row in tr.rows)
    tr2 = random_trace(rng, sig(BOOL), 200, p_bot=0.5)
    assert any(BOT in row for row in tr2.rows)


@pytest.mark.parametrize("p_bot", [0.0, 0.25])
@pytest.mark.parametrize(
    "s", [sig(BOOL, BOOL), sig(int_range(0, 3), BOOL)], ids=["bool", "int_range"]
)
def test_random_rows_draws_what_random_trace_draws(s, p_bot):
    # Successive draws from one generator each: the same rng calls in the
    # same order, so the bounded checks' samples are random_trace's.
    a, b = random.Random(7), random.Random(7)
    for ticks in (0, 1, 6, 6):
        got = random_rows(a, s, ticks, p_bot)
        assert got == random_trace(b, s, ticks, p_bot).rows
        assert len(got) == ticks
    assert a.getstate() == b.getstate()
    assert (p_bot > 0) == any(BOT in row for row in got)


# -- delay ticks ----------------------------------------------------------


def delay_circuit(d) -> Circuit:
    """``d`` alone, its input ports fed from the circuit's."""
    ins = tuple(SrcIn(i) for i in range(len(d.dom)))
    return Circuit(d.dom, d.cod, (d,), (ins,), (SrcNode(0, 0),))


def test_unit_delay_step():
    c = delay_circuit(UnitDelay(BOOL, 1))
    # Before the first commit the history is init.
    assert initial_state(c).histories == (1,)
    # Each tick emits the committed value, whatever arrives now.
    tr = PrefixTrace(c.in_ports, ((0,), (BOT,), (1,), (0,)))
    assert rows(simulate(c, tr)) == [1, 0, BOT, 1]


def test_vardelay_step_depths():
    vd = VarDelay(BOOL, 0, 2, 1)

    def f(args):
        return vd.tick(args + (0, 1))  # oldest first

    assert f((0, BOT)) == (BOT,)
    assert f((0, 0)) == (0,)  # in-tick passthrough
    assert f((BOT, 0)) == (BOT,)
    assert f((0, 1)) == (1,)
    assert f((0, 2)) == (0,)
    with pytest.raises(SignatureError):
        f((0, 3))
    # Deeper than the run so far: the history starts as init repeated, so
    # the init value fills in.
    s = initial_state(delay_circuit(vd))
    assert s.histories == (1, 1)
    s, out = step(s, (0, 2))
    assert out == (1,)
    s, out = step(s, (0, 2))
    assert out == (1,) and s.histories == (0, 0)
    assert step(s, (1, 2))[1] == (0,)


# -- simulate -------------------------------------------------------------


def test_toggle_alternates():
    c = load("circuits/toggle.net")
    out = simulate(c, bot_trace(sig(), 8))
    assert rows(out) == [1, 0, 1, 0, 1, 0, 1, 0]


def test_por_loop_outputs_one_forever():
    c = load("circuits/por_loop.net")
    out = simulate(c, bot_trace(sig(), 16))
    assert rows(out) == [1] * 16


def test_unit_delay_shifts_by_one():
    c = load("circuits/unit_delay.net")
    ins = PrefixTrace(sig(BOOL), ((1,), (0,), (1,), (1,)))
    out = simulate(c, ins)
    assert rows(out) == [0, 1, 0, 1]


def test_vardelay_depth_two():
    vd = VarDelay(BOOL, 2, 2, 0)
    c = Circuit(
        sig(BOOL), sig(BOOL),
        (vd, const_gate(vd.d_base, 2)),
        ((SrcIn(0), SrcNode(1, 0)), ()),
        (SrcNode(0, 0),),
        (),
    )
    ins = PrefixTrace(sig(BOOL), tuple((v,) for v in (1, 0, 1, 1, 0, 0, 1, 0)))
    out = simulate(c, ins)
    assert rows(out) == [0, 0, 1, 0, 1, 1, 0, 0]


def test_wobble_alternates_its_depth():
    c = load("circuits/wobble.net")
    a = [1, 0, 1, 1, 0, 0]
    out = simulate(c, PrefixTrace(sig(BOOL), tuple((v,) for v in a)))
    # The toggle starts at 0, so the mux picks depth 2 first.
    want = []
    for t, depth in enumerate([2, 1, 2, 1, 2, 1]):
        want.append(0 if t - depth < 0 else a[t - depth])
    assert rows(out) == want


def test_simulate_needs_enough_input():
    c = load("circuits/unit_delay.net")
    ins = PrefixTrace(sig(BOOL), ((1,),))
    with pytest.raises(SignatureError):
        simulate(c, ins, ticks=3)


def test_simulate_wants_a_trace_over_the_input_ports():
    c = load("circuits/unit_delay.net")  # one bool input
    for s in (sig(), sig(BOOL, BOOL), sig(int_range(0, 1))):
        with pytest.raises(SignatureError, match="does not fit"):
            simulate(c, bot_trace(s, 2))


def test_simulate_rejects_negative_ticks():
    c = load("circuits/toggle.net")
    with pytest.raises(SignatureError, match="ticks"):
        simulate(c, bot_trace(sig(), 3), ticks=-1)


def test_bot_init_delay_emits_bot_then_recovers():
    c = load("circuits/bot_delay.net")
    out = simulate(c, bot_trace(sig(), 3))
    assert rows(out) == [BOT, 0, 0]


# -- state stepping -------------------------------------------------------


def test_step_is_pure_in_the_state():
    c = load("circuits/toggle.net")
    s0 = initial_state(c)
    s1a, outs_a = step(s0, ())
    s1b, outs_b = step(s0, ())
    assert outs_a == outs_b == (1,)
    assert s1a == s1b
    assert s0.t == 0 and s1a.t == 1


def test_histories_stay_bounded():
    vd = VarDelay(BOOL, 0, 3, 0)
    c = Circuit(
        sig(BOOL), sig(BOOL),
        (vd, const_gate(vd.d_base, 3)),
        ((SrcIn(0), SrcNode(1, 0)), ()),
        (SrcNode(0, 0),),
        (),
    )
    s = initial_state(c)
    for t in range(50):
        s, _ = step(s, (t % 2,))
        assert len(s.histories) == 3


def test_unit_delay_history_is_one_deep():
    c = load("circuits/toggle.net")
    s = initial_state(c)
    assert sum(isinstance(n, UnitDelay) for n in c.nodes) == 1
    for _ in range(10):
        s, _ = step(s, ())
        assert len(s.histories) == 1


def test_a_tick_reads_no_clock():
    # A tick is a function of the committed histories and the input row:
    # stepping the same histories under any tick number gives the same
    # outputs and histories; t only counts.
    rng = random.Random(8)
    cfg = GenConfig(max_nodes=8, p_vardelay=0.3)
    undefined_inits = vardelays = 0
    for _ in range(40):
        c = random_circuit(rng, cfg)
        undefined_inits += any(getattr(n, "init", 0) is BOT for n in c.nodes)
        vardelays += any(isinstance(n, VarDelay) for n in c.nodes)
        state = initial_state(c)
        for k, row in enumerate(random_trace(rng, c.in_ports, 6, p_bot=0.2).rows):
            nxt, out = step(state, row)
            for t in (0, 1, k + 3, 50):
                moved, moved_out = step(SimState(c, state.histories, t), row)
                assert (moved.histories, moved_out) == (nxt.histories, out)
                assert moved.t == t + 1
            state = nxt
    assert undefined_inits >= 10 and vardelays >= 10


# -- causality ------------------------------------------------------------


def test_prefix_property_on_the_toggle():
    c = load("circuits/toggle.net")
    assert oracles.check_causality(c, bot_trace(sig(), 10))


@given(st.integers(0, 2**32 - 1))
def test_prefix_property_on_random_circuits(seed):
    rng = random.Random(seed)
    c = random_circuit(rng, GenConfig(max_nodes=5))
    ins = random_trace(rng, c.in_ports, 6, p_bot=0.25)
    assert oracles.check_causality(c, ins)


@given(st.integers(0, 2**32 - 1))
def test_outputs_rise_with_inputs(seed):
    # Monotone lowering built into check_causality's rng branch.
    rng = random.Random(seed)
    c = random_circuit(rng, GenConfig(max_nodes=5))
    ins = random_trace(rng, c.in_ports, 6, p_bot=0.1)
    assert oracles.check_causality(c, ins, rng=random.Random(seed ^ 1))


# -- compiled plans -------------------------------------------------------


def test_a_bool_input_is_refused_not_taken_for_an_atom():
    # Fed True, a mux would store True in its table where 1 is looked up,
    # and a second circuit fed 1 would then output True.
    text = "circuit main {\n  in a: bool\n  out y: bool\n  y = mux(a, a, a)\n}\n"
    first, second = parse_netlist(text), parse_netlist(text)
    with pytest.raises(SignatureError):
        step(initial_state(first), (True,))
    with pytest.raises(SignatureError):
        PrefixTrace(first.in_ports, ((True,),))
    (out,) = simulate(second, PrefixTrace(second.in_ports, ((1,),))).rows
    assert out == (1,) and type(out[0]) is int


def test_equal_looking_gates_with_different_functions_simulate_apart():
    # Same name, kind and signatures, different callables: a plan cache
    # that matched gates by their metadata would share one compiled
    # circuit between them.
    b = sig(BOOL)
    ident = from_gate(strict_lift("f", b, b, lambda t: t))
    negate = from_gate(strict_lift("f", b, b, lambda t: (1 - t[0],)))
    tr = PrefixTrace(b, ((0,), (1,)))
    assert simulate(ident, tr).rows == ((0,), (1,))
    assert simulate(negate, tr).rows == ((1,), (0,))
    rep = check_equiv(ident, negate, horizon=1)
    assert not rep.equivalent
    assert rep.witness is not None and rep.witness.tick == 0


def test_step_settles_each_tick_at_the_brute_force_fixed_point():
    # The corpus's settle slice: seed 21, 60 circuits of at most 6 wires,
    # each with the trace drawn right after it.
    settle = [m for m in oracles.corpus() if m.slice == "settle"]
    assert len(settle) == 60
    for m in settle:
        assert len(oracles.wire_layout(m.circuit)[1]) <= 6, m.name
        oracles.assert_step_settles(m)
    nodes = [m.circuit.nodes for m in settle]
    assert sum(any(isinstance(n, VarDelay) for n in ns) for ns in nodes) >= 10
    assert sum(any(getattr(n, "init", 0) is BOT for n in ns) for ns in nodes) >= 10
