import random

import pytest
from hypothesis import given, strategies as st

from causalcirc import analysis
from causalcirc.analysis import (
    check_equiv,
    check_totality,
    totality_guarantee,
)
from causalcirc.circuit import (
    Circuit,
    SrcIn,
    SrcNode,
    UnitDelay,
    from_gate,
    trace_loop,
)
from causalcirc.comb import Propagator
from causalcirc.domain import (
    BOOL,
    BOT,
    MAX_ENUM_VALUES,
    MAX_ENUM_WIRES,
    CapError,
    MonotoneFn,
    SignatureError,
    int_range,
    sig,
)
from causalcirc.engine import simulate
from causalcirc.gates import (
    KIND_STRICT,
    KIND_TABLE,
    GateDef,
    and_gate,
    eq_gate,
    por,
    strict_lift,
)
from causalcirc.netlist import parse_netlist
from causalcirc.random_circuits import (
    GenConfig,
    random_contractive_circuit,
)

import oracles


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())


# -- totality -------------------------------------------------------------


def test_toggle_is_total_and_guaranteed():
    c = load("circuits/toggle.net")
    rep = check_totality(c, horizon=8)
    assert rep.total
    assert rep.strategy == "exhaustive"
    assert totality_guarantee(c)


def test_bot_init_breaks_totality_with_a_tick_zero_witness():
    c = load("circuits/bot_delay.net")
    rep = check_totality(c, horizon=2)
    assert not rep.total
    assert rep.witness.tick == 0
    assert rep.witness.port == 0
    assert not totality_guarantee(c)


def test_a_bot_constant_is_not_a_total_gate():
    # const[bool](bot) is a wiring gate; its table, not its kind, decides.
    c = parse_netlist(
        "circuit main { in a: bool  out y: bool  y = const[bool](bot) }"
    )
    assert not check_totality(c, horizon=1).total
    assert not totality_guarantee(c)


def test_a_gate_table_with_a_concrete_row_to_bot_is_not_guaranteed():
    b = sig(BOOL)
    rows = {(BOT,): (BOT,), (0,): (BOT,), (1,): (1,)}
    c = from_gate(GateDef("g", MonotoneFn.from_table(b, b, rows, "g"), KIND_TABLE))
    assert not check_totality(c, horizon=1).total
    assert not totality_guarantee(c)
    rows[(0,)] = (0,)
    c = from_gate(GateDef("g", MonotoneFn.from_table(b, b, rows, "g"), KIND_TABLE))
    assert check_totality(c, horizon=1).total
    assert totality_guarantee(c)


def test_a_tableless_gate_over_the_enumeration_cap_is_not_guaranteed():
    # A non-strict gate without a table is tried on every concrete input,
    # which a domain over the cap does not allow: the guarantee is refused,
    # though the gate is total.
    for n in MAX_ENUM_WIRES, MAX_ENUM_WIRES + 1:
        f = MonotoneFn(sig(*[BOOL] * n), sig(BOOL), lambda t: (0,), "zero")
        c = from_gate(GateDef("zero", f, KIND_TABLE))
        assert check_totality(c, horizon=1).total
        assert totality_guarantee(c) is (n == MAX_ENUM_WIRES)


def test_a_strict_gate_giving_bot_on_a_concrete_row_is_not_guaranteed():
    # A strict gate built in Python is trusted only when marked bot_free;
    # otherwise its concrete rows are checked, as a tableless gate's are.
    b = sig(BOOL)
    half = strict_lift("half", b, b, lambda t: (BOT,) if t[0] == 0 else (1,))
    c = from_gate(half)
    assert not check_totality(c, horizon=1).total
    assert not totality_guarantee(c)
    ident = from_gate(strict_lift("id", b, b, lambda t: t))
    assert check_totality(ident, horizon=1).total
    assert totality_guarantee(ident)
    # Over the cap the rows cannot be checked; a builtin is still trusted.
    wide = int_range(0, MAX_ENUM_VALUES)
    zero = strict_lift("zero", sig(wide), b, lambda t: (0,))
    assert not totality_guarantee(from_gate(zero))
    assert totality_guarantee(from_gate(eq_gate(wide)))
    assert totality_guarantee(from_gate(and_gate()))


def test_stuck_loop_is_not_total():
    from causalcirc.circuit import compose
    from causalcirc.gates import dup_gate
    from causalcirc.domain import BOOL

    # por(a, x) closed on x: a = 0 never produces a concrete output.
    c = trace_loop(
        compose(from_gate(por()), from_gate(dup_gate(BOOL))), 1
    )
    rep = check_totality(c, horizon=2)
    assert not rep.total
    out = simulate(c, rep.witness.inputs)
    assert out.rows[rep.witness.tick][rep.witness.port] is BOT
    assert not totality_guarantee(c)


def test_exhaustive_totality_respects_its_budget():
    c = load("circuits/por_gate.net")
    with pytest.raises(CapError, match="random"):
        check_totality(c, horizon=12, max_cases=1000)
    rep = check_totality(c, horizon=12, strategy="random", samples=50, seed=1)
    assert rep.total
    assert rep.cases == 50


def test_checks_reject_a_negative_horizon():
    c = load("circuits/por_gate.net")
    for strategy in ("exhaustive", "random"):
        with pytest.raises(ValueError, match="horizon"):
            check_totality(c, horizon=-1, strategy=strategy)
        with pytest.raises(ValueError, match="horizon"):
            check_equiv(c, c, horizon=-1, strategy=strategy)
    with pytest.raises(ValueError, match="horizon"):
        check_totality(load("circuits/bot_delay.net"), horizon=-1)


def test_random_checks_need_a_sample():
    c = load("circuits/por_gate.net")
    for n in (0, -5):
        with pytest.raises(ValueError, match="sample"):
            check_totality(c, horizon=2, strategy="random", samples=n)
        with pytest.raises(ValueError, match="sample"):
            check_equiv(c, c, horizon=2, strategy="random", samples=n)
    # The exhaustive strategy draws no samples, so it ignores the count.
    assert check_totality(c, horizon=1, samples=0).total


def test_checks_refuse_an_unknown_strategy():
    c = load("circuits/por_gate.net")
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        check_totality(c, horizon=1, strategy="bogus")
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        check_equiv(c, c, horizon=1, strategy="bogus")


def test_random_totality_is_deterministic_per_seed():
    c = load("circuits/wobble.net")
    a = check_totality(c, horizon=6, strategy="random", samples=40, seed=9)
    b = check_totality(c, horizon=6, strategy="random", samples=40, seed=9)
    assert a == b


def test_totality_report_json_shape():
    c = load("circuits/bot_delay.net")
    rep = check_totality(c, horizon=2)
    doc = rep.to_json()
    assert doc["total"] is False
    assert doc["witness"]["tick"] == 0
    assert isinstance(doc["witness"]["inputs"], list)


@given(st.integers(0, 2**32 - 1))
def test_guarantee_implies_bounded_totality(seed):
    rng = random.Random(seed)
    c = random_contractive_circuit(
        rng, GenConfig(max_nodes=4, bot_free_inits=True)
    )
    if not totality_guarantee(c):
        return
    rep = check_totality(c, horizon=4, strategy="random", samples=30, seed=seed)
    assert rep.total


# -- equivalence ----------------------------------------------------------


def test_diagonal_pair_is_equivalent():
    left = load("circuits/diag_left.net")
    right = load("circuits/diag_right.net")
    rep = check_equiv(left, right, horizon=4)
    assert rep.equivalent
    assert rep.cases == 3**4


def test_pinned_vardelay_equals_the_unit_delay():
    rep = check_equiv(
        load("circuits/vardelay_pinned.net"),
        load("circuits/unit_delay.net"),
        horizon=5,
    )
    assert rep.equivalent


def test_different_inits_give_a_minimal_witness():
    left = parse_netlist(
        "circuit main { in a: bool out y: bool y = delay(a, init=0) }"
    )
    right = parse_netlist(
        "circuit main { in a: bool out y: bool y = delay(a, init=1) }"
    )
    rep = check_equiv(left, right, horizon=3)
    assert not rep.equivalent
    assert rep.witness.tick == 0
    # The witness is minimal: a single-tick all-bottom input splits them.
    assert len(rep.witness.inputs) == 1
    assert rep.left == (0,) and rep.right == (1,)


def test_equiv_requires_matching_ports():
    with pytest.raises(SignatureError):
        check_equiv(
            load("circuits/por_gate.net"),
            load("circuits/unit_delay.net"),
            horizon=2,
        )


def test_equiv_budget_and_random_fallback():
    left = load("circuits/por_gate.net")
    with pytest.raises(CapError):
        check_equiv(left, left, horizon=8, max_cases=100)
    rep = check_equiv(left, left, horizon=8, strategy="random", samples=64)
    assert rep.equivalent
    assert rep.strategy == "random"


def test_equiv_sees_through_gate_rearrangement():
    rep = check_equiv(
        load("circuits/rearrange_left.net"),
        load("circuits/rearrange_right.net"),
        horizon=3,
    )
    assert rep.equivalent


# -- prefix walk and per-check memo -----------------------------------------


def _count_ticks(monkeypatch):
    """Record the histories of every tick the checks run, at the one entry
    point they step circuits through."""
    calls = []
    real = Propagator.tick

    def counting(prop, histories, row):
        calls.append(histories)
        return real(prop, histories, row)

    monkeypatch.setattr(Propagator, "tick", counting)
    return calls


def test_exhaustive_checks_step_each_prefix_at_most_once(monkeypatch):
    calls = _count_ticks(monkeypatch)
    rng = random.Random(3)
    cfg = GenConfig(max_inputs=2, max_nodes=6, bot_free_inits=True)
    checked = 0
    for _ in range(20):
        c = random_contractive_circuit(rng, cfg)
        if not totality_guarantee(c):
            continue
        b = c.in_ports.concrete_count()
        for h in range(5):
            calls.clear()
            rep = check_totality(c, h)
            assert rep.total and rep.cases == b**h
            assert len(calls) <= sum(b**k for k in range(1, h + 1))
            assert (len(calls) > 0) == (h > 0)
        checked += 1
    assert checked >= 5
    calls.clear()
    rep = check_equiv(load("circuits/diag_left.net"), load("circuits/diag_right.net"), 4)
    assert rep.equivalent
    assert 0 < len(calls) <= 2 * sum(3**k for k in range(1, 5))


def test_the_memoized_walk_steps_each_state_once_per_ticks_left(monkeypatch):
    # Walked in full, wobble.net's 2**17 traces take 2 + 4 + ... + 2**17
    # steps; each (histories, ticks left) pair is walked once instead.
    calls = _count_ticks(monkeypatch)
    steps = []
    real = analysis._stepper

    def counting_stepper(c):
        advance = real(c)

        def counted(histories, row):
            steps.append(histories)
            return advance(histories, row)

        return counted

    monkeypatch.setattr(analysis, "_stepper", counting_stepper)
    horizon, rows = 17, 2
    rep = check_totality(load("circuits/wobble.net"), horizon)
    assert rep.total and rep.cases == rows**horizon
    states = len(set(calls))
    assert 0 < len(calls) <= states * rows
    assert 0 < len(steps) <= states * rows * horizon


def test_equal_comparing_circuits_never_share_a_memo():
    b = sig(BOOL)
    # Equality trusts a gate's table, so these two compare equal while
    # computing different things.
    table = {(0,): (0,), (1,): (1,)}

    def gate(fn):
        f = MonotoneFn(b, b, fn, "f")
        return GateDef("f", f, KIND_STRICT, concrete_table=table)

    ident = from_gate(gate(lambda t: t))
    negate = from_gate(gate(lambda t: (BOT,) if t[0] is BOT else (1 - t[0],)))
    assert ident == negate and hash(ident) == hash(negate)
    rep = check_equiv(ident, negate, horizon=2)
    assert not rep.equivalent
    # First failing trace in order: undefined, then 0.
    assert rep.witness.inputs.rows == ((BOT,), (0,))
    assert (rep.left, rep.right, rep.cases) == ((0,), (1,), 2)
    assert rep == oracles.trace_by_trace_equiv(ident, negate, 2)
    assert not check_equiv(ident, negate, 2, strategy="random", samples=20).equivalent
    # One check after another: the second must not reuse the first's memo.
    ref = from_gate(strict_lift("g", b, b, lambda t: t))
    assert check_equiv(ident, ref, horizon=2).equivalent
    assert not check_equiv(negate, ref, horizon=2).equivalent


def test_a_failure_is_reported_even_if_a_later_tick_would_raise():
    b = sig(BOOL)

    def boom(t):
        if t[0] == 0:
            raise ValueError("boom")
        return t

    # y0 is undefined at tick 0; y1 raises at tick 1 after a 0 input.
    c = Circuit(
        in_ports=b,
        out_ports=sig(BOOL, BOOL),
        nodes=(
            UnitDelay(BOOL, BOT),
            UnitDelay(BOOL, 1),
            strict_lift("boom", b, b, boom),
        ),
        node_inputs=((SrcIn(0),), (SrcIn(0),), (SrcNode(1, 0),)),
        outputs=(SrcNode(0, 0), SrcNode(2, 0)),
    )
    with pytest.raises(ValueError):
        oracles.trace_by_trace_totality(c, 2)
    rep = check_totality(c, 2)
    assert not rep.total
    assert (rep.cases, rep.witness.tick, rep.witness.port) == (1, 0, 0)
    assert rep.witness.inputs.rows == ((0,),)
