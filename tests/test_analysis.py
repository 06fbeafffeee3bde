import random

import pytest
from hypothesis import given, strategies as st

from causalcirc.analysis import (
    check_equiv,
    check_totality,
    totality_guarantee,
)
from causalcirc.circuit import from_gate, trace_loop
from causalcirc.domain import BOT, CapError, SignatureError
from causalcirc.engine import simulate
from causalcirc.gates import por
from causalcirc.netlist import parse_netlist
from causalcirc.random_circuits import GenConfig, random_contractive_circuit


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
