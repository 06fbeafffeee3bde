import json
import random

import pytest

from causalcirc.analysis import totality_guarantee
from causalcirc.circuit import (
    Circuit,
    LoopWire,
    SrcIn,
    SrcLoop,
    SrcNode,
    UnitDelay,
    VarDelay,
    _walk,
    check_valid,
    compose,
    delay_free_cycle,
    dump_json,
    from_gate,
    identity_circuit,
    in_port_names,
    is_contractive,
    out_port_names,
    tensor,
    to_json,
    trace_loop,
    validate,
)
from causalcirc.comb import denote
from causalcirc.domain import BOOL, BOT, BaseType, SignatureError, int_range, sig
from causalcirc.engine import PrefixTrace, bot_trace, random_trace, simulate
from causalcirc.gates import const_gate, eq_gate, not_gate, por
from causalcirc.netlist import parse_netlist


def por_circuit() -> Circuit:
    return from_gate(por())


# -- builders -------------------------------------------------------------


def test_from_gate_wraps_ports_one_to_one():
    c = por_circuit()
    assert c.in_ports == sig(BOOL, BOOL)
    assert c.out_ports == sig(BOOL)
    check_valid(c)
    assert denote(c).apply((1, BOT)) == (1,)


def test_identity_circuit():
    c = identity_circuit(sig(BOOL, BOOL))
    assert denote(c).apply((0, 1)) == (0, 1)


def test_compose_pipes_outputs_to_inputs():
    inv = from_gate(not_gate())
    twice = compose(inv, inv)
    f = denote(twice)
    assert f.apply((0,)) == (0,)
    assert f.apply((1,)) == (1,)
    with pytest.raises(SignatureError):
        compose(inv, por_circuit())


def test_tensor_runs_side_by_side():
    c = tensor(from_gate(not_gate()), por_circuit())
    f = denote(c)
    assert f.apply((0, 1, BOT)) == (1, 1)


def load(path: str) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def seeded_inputs(c: Circuit, seed: int, ticks: int = 12) -> PrefixTrace:
    return random_trace(random.Random(seed), c.in_ports, ticks, p_bot=0.2)


@pytest.mark.parametrize("seed", range(5))
def test_tensor_of_stateful_circuits_runs_them_side_by_side(seed):
    # toggle's feedback wire and delay are numbered past wobble's
    wobble, toggle = load("circuits/wobble.net"), load("circuits/toggle.net")
    c = tensor(wobble, toggle)
    assert c.loops[1] == LoopWire(BOOL, SrcNode(7, 0))
    assert c.node_inputs[6] == (SrcLoop(1),)
    ins = seeded_inputs(c, seed)
    left = simulate(wobble, ins)
    right = simulate(toggle, bot_trace(sig(), len(ins)))
    want = tuple(l + r for l, r in zip(left.rows, right.rows))
    assert simulate(c, ins).rows == want


@pytest.mark.parametrize("seed", range(5))
def test_compose_of_stateful_circuits_runs_the_second_on_the_first(seed):
    wobble = load("circuits/wobble.net")
    c = compose(wobble, wobble)
    assert c.loops[1] == LoopWire(BOOL, SrcNode(7, 0))
    assert c.node_inputs[6] == (SrcLoop(1),)
    ins = seeded_inputs(c, seed)
    assert simulate(c, ins) == simulate(wobble, simulate(wobble, ins))


def test_tensor_keeps_port_names_only_when_both_circuits_name_them():
    wobble, toggle = load("circuits/wobble.net"), load("circuits/toggle.net")
    for c in tensor(wobble, toggle), tensor(toggle, wobble):
        assert (c.in_names, c.out_names) == (("a",), ("y", "y"))
    for c in tensor(wobble, por_circuit()), tensor(por_circuit(), wobble):
        assert (c.in_names, c.out_names) == (None, None)
        assert in_port_names(c) == ("a0", "a1", "a2")


def test_trace_loop_consumes_the_closed_output():
    c = trace_loop(por_circuit(), 1)
    assert c.in_ports == sig(BOOL)
    assert c.out_ports == sig()
    assert len(c.loops) == 1


def test_trace_loop_feeds_the_fixed_point_forward():
    from causalcirc.gates import dup_gate

    # (a, x) -> (por(a,x), por(a,x)), then close x.
    c = compose(por_circuit(), from_gate(dup_gate(BOOL)))
    t = trace_loop(c, 1)
    f = denote(t)
    assert f.apply((1,)) == (1,)
    assert f.apply((0,)) == (BOT,)
    assert f.apply((BOT,)) == (BOT,)


def test_trace_loop_requires_matching_tails():
    c = tensor(from_gate(not_gate()), from_gate(const_gate(BOOL, 1)))
    # in (bool,), out (bool, bool): tails of length 2 cannot match.
    with pytest.raises(SignatureError):
        trace_loop(c, 2)
    with pytest.raises(SignatureError) as exc:
        trace_loop(c, 3)
    assert str(exc.value) == "cannot loop 3 wires of a 1-in 2-out circuit"
    eq = from_gate(eq_gate(int_range(0, 2)))
    with pytest.raises(SignatureError) as exc:
        trace_loop(eq, 1)
    assert str(exc.value) == "looped ports disagree: sig(i0_2) vs sig(bool)"


def test_port_names_default_and_stick():
    c = por_circuit()
    assert in_port_names(c) == ("a0", "a1")
    assert out_port_names(c) == ("y0",)
    named = Circuit(
        c.in_ports, c.out_ports, c.nodes, c.node_inputs, c.outputs,
        c.loops, in_names=("x", "y"), out_names=("z",),
    )
    assert in_port_names(named) == ("x", "y")


# -- validation -----------------------------------------------------------


def test_validate_catches_arity_and_type_errors():
    g = por()
    bad_arity = Circuit(
        sig(BOOL), sig(BOOL), (g,), ((SrcIn(0),),), (SrcNode(0, 0),), ()
    )
    assert any("input" in d.message for d in validate(bad_arity))

    ir = int_range(0, 3)
    bad_type = Circuit(
        sig(ir, BOOL), sig(BOOL),
        (g,), ((SrcIn(0), SrcIn(1)),), (SrcNode(0, 0),), (),
    )
    assert any("bool" in d.message for d in validate(bad_type))

    bad_index = Circuit(
        sig(BOOL, BOOL), sig(BOOL),
        (g,), ((SrcIn(0), SrcIn(7)),), (SrcNode(0, 0),), (),
    )
    assert validate(bad_index)


def test_structural_diagnostics_are_pinned():
    # One fault at a time in a well-formed por circuit, each with its text.
    def diags(**fault):
        fields = dict(
            in_ports=sig(BOOL, BOOL), out_ports=sig(BOOL), nodes=(por(),),
            node_inputs=((SrcIn(0), SrcIn(1)),), outputs=(SrcNode(0, 0),),
        )
        return [str(d) for d in validate(Circuit(**{**fields, **fault}))]

    assert diags() == []
    assert diags(node_inputs=()) == ["circuit: 1 nodes but 0 input lists"]
    assert diags(outputs=()) == ["circuit: 0 output sources for 1 ports"]
    assert diags(in_names=("a",)) == ["circuit: input name list does not match ports"]
    assert diags(out_names=("y", "z")) == [
        "circuit: output name list does not match ports"
    ]
    assert diags(outputs=(SrcNode(3, 0),)) == [
        "output 0: source SrcNode(node=3, port=0) does not exist"
    ]
    assert diags(node_inputs=((SrcIn(0), SrcLoop(0)),)) == [
        "node 0 (por) input 1: source SrcLoop(index=0) does not exist"
    ]


def test_validate_rejects_undeclared_cycles():
    # por feeding itself without a LoopWire is a wiring error, not a trace.
    g = por()
    c = Circuit(
        sig(BOOL), sig(BOOL),
        (g,), ((SrcIn(0), SrcNode(0, 0)),), (SrcNode(0, 0),), (),
    )
    diags = validate(c)
    assert any("cycle" in d.message for d in diags)
    with pytest.raises(SignatureError):
        check_valid(c)


def test_validate_names_the_first_cycle_the_walk_meets():
    # Node 1 closes a cycle with node 0 and one with node 2.  The walk
    # starts at node 0, follows node 1's inputs in port order, and first
    # comes back into its path from node 2.
    c = Circuit(
        sig(BOOL), sig(BOOL),
        (not_gate(), por(), not_gate()),
        ((SrcNode(1, 0),), (SrcNode(2, 0), SrcNode(0, 0)), (SrcNode(1, 0),)),
        (SrcNode(0, 0),),
    )
    assert [str(d) for d in validate(c)] == [
        "circuit: cycle not routed through a feedback wire: "
        "node 1 (por) -> node 2 (not) -> node 1 (por)"
    ]


def test_declared_loops_are_legal_cycles():
    c = trace_loop(por_circuit(), 1)
    assert validate(c) == []


def test_loop_wire_type_must_match_its_source():
    g = por()
    c = Circuit(
        sig(BOOL), sig(BOOL),
        (g,), ((SrcIn(0), SrcLoop(0)),), (SrcNode(0, 0),),
        (LoopWire(int_range(0, 1), SrcNode(0, 0)),),
    )
    diags = validate(c)
    assert any("feedback wire" in d.where for d in diags)


# -- contractivity --------------------------------------------------------


def test_delay_in_the_loop_makes_it_contractive():
    inv = from_gate(not_gate())
    d = UnitDelay(BOOL, 1)
    c = Circuit(
        sig(), sig(BOOL),
        (not_gate(), d),
        ((SrcLoop(0),), (SrcNode(0, 0),)),
        (SrcNode(1, 0),),
        (LoopWire(BOOL, SrcNode(1, 0)),),
    )
    check_valid(c)
    assert is_contractive(c)
    assert delay_free_cycle(c) is None
    assert not is_contractive(trace_loop(por_circuit(), 1))
    del inv


def test_delay_free_cycle_names_the_path():
    c = trace_loop(por_circuit(), 1)
    cyc = delay_free_cycle(c)
    assert cyc is not None
    assert any("por" in label for label in cyc)


def test_vardelay_s_port_cuts_only_when_min_is_positive():
    ir0 = int_range(0, 1)
    vd0 = VarDelay(BOOL, 0, 1, 0)
    c0 = Circuit(
        sig(), sig(BOOL),
        (vd0, const_gate(ir0, 0)),
        ((SrcLoop(0), SrcNode(1, 0)), ()),
        (SrcNode(0, 0),),
        (LoopWire(BOOL, SrcNode(0, 0)),),
    )
    check_valid(c0)
    assert not is_contractive(c0)

    vd1 = VarDelay(BOOL, 1, 2, 0)
    ir12 = vd1.d_base
    c1 = Circuit(
        sig(), sig(BOOL),
        (vd1, const_gate(ir12, 1)),
        ((SrcLoop(0), SrcNode(1, 0)), ()),
        (SrcNode(0, 0),),
        (LoopWire(BOOL, SrcNode(0, 0)),),
    )
    check_valid(c1)
    assert is_contractive(c1)


def test_vardelay_d_port_never_cuts():
    # Route the delay-control wire through a feedback wire from the
    # vardelay's own output: the depth is read in-tick, so even min >= 1
    # leaves an instantaneous cycle through the d port.
    ir = int_range(1, 1)
    vd = VarDelay(ir, 1, 1, 1)
    c = Circuit(
        sig(), sig(ir),
        (vd,),
        ((SrcLoop(0), SrcLoop(1)),),
        (SrcNode(0, 0),),
        (LoopWire(ir, SrcNode(0, 0)), LoopWire(ir, SrcNode(0, 0))),
    )
    check_valid(c)
    assert not is_contractive(c)
    cyc = delay_free_cycle(c)
    assert cyc is not None


@pytest.mark.parametrize(
    "nodes, node_inputs",
    [
        ((por(),), ((SrcIn(0), SrcNode(5, 0)),)),
        ((por(),), ((SrcIn(0), SrcLoop(3)),)),
        ((por(), not_gate()), ((SrcIn(0), SrcIn(0)),)),
    ],
    ids=["node past the end", "feedback wire past the end", "input lists short"],
)
def test_contractivity_refuses_an_invalid_circuit(nodes, node_inputs):
    # These once raised IndexError, or called a circuit with a node left
    # unwired contractive and total.
    c = Circuit(sig(BOOL), sig(BOOL), nodes, node_inputs, (SrcNode(0, 0),))
    for check in (delay_free_cycle, is_contractive, totality_guarantee):
        with pytest.raises(SignatureError, match="^invalid circuit: "):
            check(c)


def test_vardelay_validates_its_range():
    with pytest.raises(SignatureError):
        VarDelay(BOOL, 2, 1, 0)
    with pytest.raises(SignatureError):
        VarDelay(BOOL, -1, 1, 0)
    with pytest.raises(SignatureError) as exc:
        VarDelay(BOOL, 1, 2, 0, int_range(0, 2))
    assert str(exc.value) == "d port type 'i0_2' must have values exactly 1..2"
    vd = VarDelay(BOOL, 0, 3, BOT)
    assert vd.d_base.values == (0, 1, 2, 3)
    assert vd.cod == sig(BOOL)


# -- structural dump ------------------------------------------------------


def test_dump_is_stable_and_reparses_as_json():
    c = trace_loop(por_circuit(), 1)
    a, b = dump_json(c), dump_json(c)
    assert a == b
    doc = json.loads(a)
    assert doc["loops"]
    assert len(doc["nodes"]) == 1


def test_dump_distinguishes_node_order():
    inv = not_gate()
    left = Circuit(
        sig(BOOL, BOOL), sig(BOOL, BOOL),
        (inv, inv),
        ((SrcIn(0),), (SrcIn(1),)),
        (SrcNode(0, 0), SrcNode(1, 0)),
        (),
    )
    right = Circuit(
        sig(BOOL, BOOL), sig(BOOL, BOOL),
        (inv, inv),
        ((SrcIn(1),), (SrcIn(0),)),
        (SrcNode(1, 0), SrcNode(0, 0)),
        (),
    )
    assert to_json(left) != to_json(right)
    f, g = denote(left), denote(right)
    for x in sig(BOOL, BOOL).tuples():
        assert f.apply(x) == g.apply(x)


def test_dump_refuses_two_base_types_of_one_name():
    # Each would dump as one "types" entry, so two unequal circuits
    # would dump alike.
    t1, t2 = BaseType("t", (0, 1)), BaseType("t", (0, 1, 2))
    mixed = Circuit(sig(t1, t2), sig(t2), outputs=(SrcIn(1),))
    same = Circuit(sig(t2, t2), sig(t2), outputs=(SrcIn(1),))
    assert mixed != same
    with pytest.raises(SignatureError, match="two base types share the name 't'"):
        to_json(mixed)
    assert to_json(same)["types"] == {"t": [0, 1, 2]}


def test_bot_dumps_as_null():
    d = UnitDelay(BOOL, BOT)
    c = Circuit(
        sig(BOOL), sig(BOOL), (d,), ((SrcIn(0),),), (SrcNode(0, 0),), ()
    )
    doc = json.loads(dump_json(c))
    assert doc["nodes"][0]["init"] is None


def test_a_deep_chain_listed_against_its_dependencies_validates():
    # Node i reads node i + 1 and the last node reads the input, so a
    # depth-first walk from node 0 runs the whole chain.
    n = 3000
    g = not_gate()
    c = Circuit(
        in_ports=sig(BOOL),
        out_ports=sig(BOOL),
        nodes=(g,) * n,
        node_inputs=tuple((SrcNode(i + 1, 0),) for i in range(n - 1)) + ((SrcIn(0),),),
        outputs=(SrcNode(0, 0),),
    )
    assert check_valid(c) is c
    assert is_contractive(c)


# -- the depth-first walk -------------------------------------------------


def _reached(edges: list[list[int]], v: int) -> set[int]:
    """The vertices ``v`` reaches by one edge or more."""
    seen, todo = set(), list(edges[v])
    while todo:
        w = todo.pop()
        if w not in seen:
            seen.add(w)
            todo.extend(edges[w])
    return seen


@pytest.mark.parametrize("seed", range(4))
def test_the_walk_matches_brute_force_reachability(seed):
    rng = random.Random(seed)
    for _ in range(500):
        n = rng.randint(0, 8)
        edges = [[rng.randrange(n) for _ in range(rng.randint(0, 3))] for _ in range(n)]
        reached = [_reached(edges, v) for v in range(n)]
        order, cycle = _walk(edges)
        assert sorted(order) == list(range(n))
        left = {v: i for i, v in enumerate(order)}
        for v in range(n):
            for w in edges[v]:
                assert left[w] < left[v] or v in reached[w], (edges, v, w)
        if cycle is None:
            assert all(v not in reached[v] for v in range(n)), edges
        else:
            assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
            assert all(w in edges[v] for v, w in zip(cycle, cycle[1:])), edges
