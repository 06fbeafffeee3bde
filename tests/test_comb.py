import random

import pytest
from hypothesis import given, strategies as st

from causalcirc.circuit import UnitDelay, from_gate, trace_loop
from causalcirc.comb import Propagator, denote, eval_comb, propagator
from causalcirc.domain import BOOL, BOT, SignatureError, local_lfp, sig, trace
from causalcirc.gates import not_gate, por
from causalcirc.random_circuits import GenConfig, random_delay_free_circuit

import oracles


def test_denote_matches_the_gate_for_a_single_node():
    f = denote(from_gate(por()))
    for x in sig(BOOL, BOOL).tuples():
        assert f.apply(x) == por().fn.apply(x)


def test_eval_comb_checks_the_input_shape():
    c = from_gate(por())
    assert eval_comb(c, (1, BOT)) == (1,)
    with pytest.raises(SignatureError):
        eval_comb(c, (1,))


def test_denote_refuses_stateful_circuits():
    from causalcirc.circuit import Circuit, SrcIn, SrcNode

    d = UnitDelay(BOOL, 0)
    c = Circuit(
        sig(BOOL), sig(BOOL), (d,), ((SrcIn(0),),), (SrcNode(0, 0),), ()
    )
    with pytest.raises(SignatureError, match="simulate"):
        denote(c)


def test_fixpoint_and_topo_strategies_agree_without_loops():
    # denote always solves for the least fixed point; on loop-free circuits
    # that must equal a one-pass topological evaluation.
    rng = random.Random(5)
    cfg = GenConfig(max_inputs=2, max_nodes=5, max_outputs=2)
    checked = 0
    for _ in range(40):
        c = random_delay_free_circuit(rng, cfg)
        if c.loops:
            continue
        f = denote(c)
        for x in c.in_ports.tuples():
            assert f.apply(x) == oracles.topo_eval(c, x)
        checked += 1
    assert checked >= 10


def test_topo_strategy_refuses_loops():
    c = trace_loop(from_gate(por()), 1)
    with pytest.raises(ValueError, match="feedback"):
        oracles.topo_eval(c, (1,))
    denote(c)
    rng = random.Random(7)
    cfg = GenConfig(max_inputs=2, max_nodes=5, max_loops=2, max_outputs=2)
    refused = 0
    for _ in range(40):
        c = random_delay_free_circuit(rng, cfg)
        if not c.loops:
            continue
        with pytest.raises(ValueError, match="feedback"):
            oracles.topo_eval(c, next(iter(c.in_ports.tuples())))
        denote(c)
        refused += 1
    assert refused >= 10

def test_solver_settles_within_the_wire_bound(monkeypatch):
    # Jacobi sweeps recompute every wire at once; the vector rises at most
    # once per wire, so n_wires + 1 sweeps always suffice.
    sweeps = []
    real = Propagator.sweep

    def counted(self, t):
        sweeps[-1] += 1
        return real(self, t)

    monkeypatch.setattr(Propagator, "sweep", counted)
    rng = random.Random(12)
    cfg = GenConfig(max_inputs=2, max_nodes=6, max_loops=2, max_outputs=2)
    most = tight = 0
    for _ in range(60):
        c = random_delay_free_circuit(rng, cfg)
        if not c.loops:
            continue
        prop = propagator(c)
        for x in c.in_ports.tuples():
            sweeps.append(0)
            prop.solve(x)
            assert 1 <= sweeps[-1] <= prop.n_wires + 1
            most = max(most, sweeps[-1])
            tight += sweeps[-1] == prop.n_wires + 1
    assert most >= 3 and tight  # the bound is reached, not just respected


@given(st.integers(0, 2**32 - 1))
def test_denote_commutes_with_loop_closure(seed):
    rng = random.Random(seed)
    cfg = GenConfig(max_inputs=2, max_nodes=4, max_outputs=2)
    c = random_delay_free_circuit(rng, cfg)
    if not c.in_ports or not c.out_ports:
        return
    k = rng.randint(0, min(len(c.in_ports), len(c.out_ports)))
    if k == 0:
        return
    closed = trace_loop(c, k)
    lhs = denote(closed)
    rhs = trace(denote(c), k, local_lfp)
    for x in closed.in_ports.tuples():
        assert lhs.apply(x) == rhs.apply(x)


@given(st.integers(0, 2**32 - 1))
def test_loop_closure_matches_the_scan_oracle(seed):
    rng = random.Random(seed)
    cfg = GenConfig(max_inputs=2, max_nodes=4, max_outputs=2)
    c = random_delay_free_circuit(rng, cfg)
    if not c.in_ports or not c.out_ports:
        return
    closed = trace_loop(c, 1)
    want = oracles.brute_trace(denote(c), 1)
    got = denote(closed)
    for a in closed.in_ports.tuples():
        assert got.apply(a) == want[a]


def test_not_gate_chain():
    inv = from_gate(not_gate())
    f = denote(inv)
    assert f.apply((BOT,)) == (BOT,)
    assert f.apply((0,)) == (1,)
