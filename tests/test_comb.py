import random

import pytest
from hypothesis import given, strategies as st

from causalcirc.analysis import check_totality
from causalcirc.circuit import (
    Circuit,
    SrcIn,
    SrcLoop,
    SrcNode,
    UnitDelay,
    check_valid,
    from_gate,
    trace_loop,
)
from causalcirc import comb
from causalcirc.comb import Propagator, denote, propagator
from causalcirc.domain import BOOL, BOT, SignatureError, local_lfp, sig, trace
from causalcirc.engine import PrefixTrace, initial_state, random_trace, simulate, step
from causalcirc.gates import not_gate, pand, por
from causalcirc.random_circuits import (
    GenConfig,
    random_circuit,
    random_delay_free_circuit,
)

import oracles


def test_denote_matches_the_gate_for_a_single_node():
    f = denote(from_gate(por()))
    for x in sig(BOOL, BOOL).tuples():
        assert f.apply(x) == por().fn.apply(x)


def test_denote_checks_the_input_shape():
    f = denote(from_gate(por()))
    assert f.apply((1, BOT)) == (1,)
    with pytest.raises(SignatureError):
        f.apply((1,))


def test_denote_refuses_stateful_circuits():
    d = UnitDelay(BOOL, 0)
    c = Circuit(
        sig(BOOL), sig(BOOL), (d,), ((SrcIn(0),),), (SrcNode(0, 0),), ()
    )
    with pytest.raises(SignatureError, match="simulate"):
        denote(c)


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


def test_solver_settles_within_the_swept_wire_bound_with_delays(monkeypatch):
    # Unit delays read their history slot and feedback wires read their
    # source, so only the other nodes' output ports are swept; the vector
    # of those still rises at most once per wire.
    sweeps = []
    real = Propagator.sweep

    def counted(self, t):
        sweeps[-1] += 1
        return real(self, t)

    monkeypatch.setattr(Propagator, "sweep", counted)
    rng = random.Random(13)
    cfg = GenConfig(max_inputs=2, max_nodes=6, max_loops=2, p_delay=0.4)
    delayed = 0
    for _ in range(80):
        c = random_circuit(rng, cfg)
        prop = propagator(c)
        swept = [n for n in c.nodes if not isinstance(n, UnitDelay)]
        assert prop.n_wires == sum(len(n.cod) for n in swept)
        delayed += len(swept) < len(c.nodes)
        state = initial_state(c)
        for row in random_trace(rng, c.in_ports, 4, p_bot=0.2).rows:
            sweeps.append(0)
            state, _ = step(state, row)
            assert 1 <= sweeps[-1] <= prop.n_wires + 1
    assert delayed >= 30


def test_ticks_look_up_the_sweep_when_they_run(monkeypatch):
    # Counters patch Propagator.sweep on the class or on one compiled
    # instance, after compiling; every tick, a check's included, must run
    # the patched sweep.
    c = random_circuit(random.Random(5), GenConfig(max_inputs=1, max_nodes=4, p_delay=0.5))
    prop = propagator(c)
    on_class, on_instance = [], []
    real = Propagator.sweep

    def counted(self, t):
        on_class.append(t)
        return real(self, t)

    monkeypatch.setattr(Propagator, "sweep", counted)
    check_totality(c, 2)
    assert on_class
    prop.sweep = lambda t: on_instance.append(t) or real(prop, t)
    try:
        check_totality(c, 2)
        assert on_instance == on_class
        step(initial_state(c), (BOT,) * len(c.in_ports))
        assert len(on_instance) > len(on_class)
    finally:
        del prop.sweep


@pytest.mark.parametrize("build", oracles.CORNERS)
def test_resolved_reads_match_the_brute_force_tick(build):
    # Where unit delays and feedback wires read: the corpus holds each
    # corner at the inits ⊥, 0 and 1, with four traces each.
    members = [
        m for m in oracles.corpus()
        if m.name.startswith(f"corner/{build.__name__}@")
    ]
    assert len(members) == 3
    for m in members:
        c = m.circuit
        assert propagator(c).n_wires == sum(
            len(n.cod) for n in c.nodes if not isinstance(n, UnitDelay)
        )
        oracles.assert_step_settles(m)


def test_a_long_chain_of_loop_wires_compiles_and_simulates():
    # Loop wire i reads loop wire i+1: one chain ends at the input, the
    # other returns to its own start and is ⊥.  Resolving them must not
    # recurse per link.
    n = 100_000
    loops = [SrcLoop(i + 1) for i in range(n - 1)] + [SrcIn(0)]
    loops += [SrcLoop(n + i + 1) for i in range(n - 1)] + [SrcLoop(n)]
    c = oracles.looped(
        1, [not_gate()], [(SrcLoop(0),)], (SrcLoop(0), SrcNode(0, 0), SrcLoop(n)),
        loops,
    )
    assert propagator(c).n_wires == 1
    tr = PrefixTrace(c.in_ports, ((1,), (BOT,), (0,)))
    assert simulate(c, tr).rows == ((1, 0, BOT), (BOT, BOT, BOT), (0, 1, BOT))


def _followed(loops: list, j: int):
    """Where feedback wire ``j``'s chain leaves the feedback wires, found by
    following it at most ``len(loops)`` steps, or ⊥ if it never does."""
    src = SrcLoop(j)
    for _ in range(len(loops)):
        if isinstance(src, SrcLoop):
            src = loops[src.index]
    return BOT if isinstance(src, SrcLoop) else src


@pytest.mark.parametrize("seed", range(4))
def test_each_feedback_wire_reads_where_its_chain_leads(seed):
    # Each output shows one feedback wire.  Over the four input rows, the
    # inputs, the not gate and ⊥ each give a different column of values.
    rng = random.Random(seed)
    leads = [SrcIn(0), SrcIn(1), SrcNode(0, 0)]
    for _ in range(200):
        m = rng.randint(1, 8)
        loops = [
            SrcLoop(rng.randrange(m)) if rng.random() < 0.7 else rng.choice(leads)
            for _ in range(m)
        ]
        c = oracles.looped(
            2, [not_gate()], [(SrcIn(0),)], [SrcLoop(j) for j in range(m)], loops
        )
        want = [_followed(loops, j) for j in range(m)]
        prop = propagator(c)
        assert len(prop.bot) == prop.n_wires + (BOT in want)
        f = denote(c)
        for a, b in sig(BOOL, BOOL).concrete_tuples():
            value = {SrcIn(0): a, SrcIn(1): b, SrcNode(0, 0): 1 - a, BOT: BOT}
            assert f.apply((a, b)) == tuple(value[src] for src in want), loops


class _NoDict(Circuit):
    """A circuit whose ``__dict__`` cannot be read: its stash must be read
    with ``getattr``, which keeps the instance's values inline."""

    @property
    def __dict__(self):
        raise AssertionError("the stash was read through __dict__")


def test_the_stash_is_read_without_the_instance_dict():
    rng = random.Random(5)
    plain = random_circuit(rng, GenConfig(max_inputs=2, max_nodes=6, max_loops=2, p_delay=0.4))
    c = _NoDict(*(getattr(plain, f) for f in Circuit._fields))
    assert check_valid(c) is c
    assert propagator(c) is propagator(c)
    tr = random_trace(rng, c.in_ports, 20, p_bot=0.2)
    assert simulate(c, tr).rows == simulate(plain, tr).rows


# The commit and output gathers read 0, 1 or more slots; an itemgetter of
# one index would hand back a bare value, not a 1-tuple.
GATHERS = {
    "no delays, no outputs": lambda init: oracles.looped(
        1, [not_gate()], [(SrcIn(0),)], (), [],
    ),
    "no delays, one output": lambda init: oracles.looped(
        2, [pand()], [(SrcIn(0), SrcIn(1))], (SrcNode(0, 0),), [],
    ),
    "one history slot, no outputs": lambda init: oracles.looped(
        1, [UnitDelay(BOOL, init)], [(SrcIn(0),)], (), [],
    ),
    "one history slot, one gate output": lambda init: oracles.looped(
        1,
        [por(), UnitDelay(BOOL, init)],
        [(SrcIn(0), SrcLoop(0)), (SrcNode(0, 0),)],
        (SrcNode(0, 0),),
        [SrcNode(1, 0)],
    ),
    "one history slot, its delay the output": lambda init: oracles.looped(
        1,
        [not_gate(), UnitDelay(BOOL, init)],
        [(SrcLoop(0),), (SrcNode(0, 0),)],
        (SrcNode(1, 0),),
        [SrcNode(1, 0)],
    ),
}


@pytest.mark.parametrize("name", GATHERS)
@pytest.mark.parametrize("init", [BOT, 0, 1])
def test_compiled_gathers_match_the_brute_force_tick(name, init):
    c = GATHERS[name](init)
    rng = random.Random(name)
    traces = tuple(random_trace(rng, c.in_ports, 5, p_bot=0.3).rows for _ in range(4))
    oracles.assert_step_settles(oracles.Member(name, "gathers", c, traces))


def test_a_tick_reuses_the_settle_built_at_compile_time(monkeypatch):
    built = []
    real = comb._kleene

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(comb, "_kleene", counted)
    rng = random.Random(9)
    c = random_circuit(rng, GenConfig(max_inputs=2, max_nodes=6, max_loops=2, p_delay=0.4))
    propagator(c)
    assert len(built) == 1
    out = simulate(c, random_trace(rng, c.in_ports, 50, p_bot=0.2))
    assert len(out) == 50
    assert len(built) == 1
