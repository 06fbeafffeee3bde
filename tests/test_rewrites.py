"""Equations that move delays, checked as rewrites of circuits: each
rewritten circuit must emit its source's output traces, and a mutant of
each rewrite must be caught at tick 0."""

import pytest

from causalcirc import BOT
from causalcirc.analysis import check_equiv
from causalcirc.circuit import Circuit, SrcIn, SrcNode, UnitDelay, VarDelay
from causalcirc.domain import BOOL, BaseType, int_range, sig
from causalcirc.gates import const_gate, not_gate
from causalcirc.netlist import parse_netlist

from oracles import CIRCUITS, chain_vardelays, retime_forward, with_init

ABC = BaseType("abc", ("a", "b", "c"))


def fixed_vardelay(base: BaseType, k: int, init) -> Circuit:
    """y = vardelay(s, k, min=k, max=k, init=init), k a constant of int k..k."""
    amount = int_range(k, k)
    return Circuit(
        sig(base), sig(base),
        (const_gate(amount, k), VarDelay(base, k, k, init, amount)),
        ((), (SrcIn(0), SrcNode(0, 0))),
        (SrcNode(1, 0),),
    )


def not_after_delay(init) -> Circuit:
    """y = not(delay(a, init=init))."""
    return Circuit(
        sig(BOOL), sig(BOOL),
        (UnitDelay(BOOL, init), not_gate()),
        ((SrcIn(0),), (SrcNode(0, 0),)),
        (SrcNode(1, 0),),
    )


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("base, init, other", [
    (BOOL, 1, 0), (BOOL, BOT, 0), (ABC, "b", "c"), (ABC, BOT, "a"),
], ids=["bool@1", "bool@bot", "abc@b", "abc@bot"])
def test_a_fixed_vardelay_is_a_chain_of_unit_delays(k, base, init, other):
    c = fixed_vardelay(base, k, init)
    chained = chain_vardelays(c)
    delays = [n for n in chained.nodes if isinstance(n, UnitDelay)]
    assert delays == [UnitDelay(base, init)] * k
    assert not any(isinstance(n, VarDelay) for n in chained.nodes)
    rep = check_equiv(c, chained, k + 2)
    assert rep.equivalent and rep.cases == (len(base.values) + 1) ** (k + 2)
    # The vardelay's node ends the chain: its init is the output at tick 0.
    rep = check_equiv(c, with_init(chained, 1, other), k + 2)
    assert not rep.equivalent and rep.witness.tick == 0


@pytest.mark.parametrize("init", [0, 1, BOT], ids=["0", "1", "bot"])
def test_a_unit_delay_retimes_forward_past_not(init):
    c = not_after_delay(init)
    retimed = retime_forward(c, 1)
    # The gate reads the input now, and a new delay of init not(x) follows it.
    moved = BOT if init is BOT else 1 - init
    assert retimed.nodes[1:] == (not_gate(), UnitDelay(BOOL, moved))
    assert retimed.node_inputs[1:] == ((SrcIn(0),), (SrcNode(1, 0),))
    assert retimed.outputs == (SrcNode(2, 0),)
    assert check_equiv(c, retimed, 3).equivalent
    if init is not BOT:  # not(bot) is bot: keeping the init changes nothing
        rep = check_equiv(c, with_init(retimed, 2, init), 3)
        assert not rep.equivalent and rep.witness.tick == 0


def test_retiming_a_loop_keeps_the_toggle():
    # w = delay(not(w), init=1) becomes w = delay(not(w), init=0) read
    # after the not: the output trace 1, 0, 1, ... is unchanged.
    c = parse_netlist((CIRCUITS / "toggle.net").read_text("utf-8"))
    j = next(i for i, n in enumerate(c.nodes) if n == not_gate())
    assert check_equiv(c, retime_forward(c, j), 6).equivalent
