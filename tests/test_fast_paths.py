"""Every fast path against its slow oracle, on the seeded corpus.

The corpus (``oracles.corpus``) holds three seeded random slices, every
netlist under ``circuits/`` and the aliasing corners of tick resolution.
Each test runs one (fast path, oracle) pair on every member the oracle can
afford, and checks that the members it ran on cover what it must see.
``engine.step`` against ``tick_lfp`` on the settle slice and on the corners
runs in ``test_engine.py`` and ``test_comb.py``.
"""

from collections import Counter
from math import prod

from causalcirc import analysis
from causalcirc.analysis import check_equiv, check_totality
from causalcirc.circuit import (
    Circuit,
    SrcIn,
    SrcNode,
    UnitDelay,
    VarDelay,
    in_port_names,
    to_json,
)
from causalcirc.comb import denote, propagator
from causalcirc.domain import BOOL, BOT, CapError, sig
from causalcirc.engine import PrefixTrace, simulate
from causalcirc.gates import strict_lift
from causalcirc.netlist import parse_netlist, print_netlist

import oracles


def test_the_corpus_keeps_each_draw():
    assert Counter(m.slice for m in oracles.corpus()) == {
        "walk": 40, "settle": 60, "delay-free": 40, "netlist": 12, "corner": 21,
    }
    assert len({m.name for m in oracles.corpus()}) == 173


def test_step_settles_every_other_member_at_the_brute_force_fixed_point():
    # tick_lfp lists every wire vector: it affords as many as seven bool
    # wires have.  The settle slice is checked in test_engine.py and the
    # corners in test_comb.py; this runs the pair on every other member.
    checked = []
    for m in oracles.corpus():
        c = m.circuit
        assert propagator(c).n_wires == sum(
            len(n.cod) for n in c.nodes if not isinstance(n, UnitDelay)
        ), m.name
        if m.slice in ("settle", "corner"):
            continue
        if prod(len(b.lifted) for b in oracles.wire_layout(c)[1]) > 3**7:
            continue
        checked.append(m.slice)
        oracles.assert_step_settles(m)
    assert {"walk", "delay-free", "netlist"} <= set(checked)


def test_simulate_matches_the_unrolled_stream_semantics():
    # The presheaf component at stage H, for H up to 4, is one least fixed
    # point over H copies of the circuit; by causality and Bekic it must be
    # what simulate emits tick by tick, and cutting stage H to its first
    # H - 1 ticks must give stage H - 1.
    checked, with_vardelays = Counter(), 0
    for m in oracles.corpus():
        c = m.circuit
        if not c.has_delays():
            continue
        with_vardelays += any(isinstance(n, VarDelay) for n in c.nodes)
        for rows in m.traces:
            got = simulate(c, PrefixTrace(c.in_ports, rows[:4])).rows
            stages = [oracles.unrolled_lfp(c, rows[:h]) for h in range(1, 5)]
            for h, stage in enumerate(stages, 1):
                outs = [oracles.tick_outputs(c, rows[k], w) for k, w in enumerate(stage)]
                assert outs == list(got[:h]), (m.name, h)
            for shorter, longer in zip(stages, stages[1:]):
                assert longer[:-1] == shorter, m.name
        checked[m.slice] += 1
    assert checked == {"walk": 37, "settle": 52, "netlist": 6, "corner": 12}
    assert with_vardelays == 58


def _report_or_cap(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except CapError:  # both sides must refuse the same spaces
        return "over budget"


def test_prefix_walk_matches_the_trace_by_trace_checks():
    pool = oracles.corpus()
    verdicts = set()
    for i, m in enumerate(pool):
        for h in range(5):
            for kw in (
                {"max_cases": 1000},
                {"strategy": "random", "samples": 15, "seed": i},
            ):
                got = _report_or_cap(check_totality, m.circuit, h, **kw)
                want = _report_or_cap(oracles.trace_by_trace_totality, m.circuit, h, **kw)
                assert got == want, (m.name, h, kw)
                if got != "over budget":
                    verdicts.add(got.total)
    for a, b in _pairs_by_ports(pool):
        for h in range(5):
            for kw in (
                {"max_cases": 1000},
                {"strategy": "random", "samples": 15, "seed": h},
            ):
                got = _report_or_cap(check_equiv, a.circuit, b.circuit, h, **kw)
                want = _report_or_cap(
                    oracles.trace_by_trace_equiv, a.circuit, b.circuit, h, **kw
                )
                assert got == want, (a.name, b.name, h, kw)
                if got != "over budget":
                    verdicts.add(("equiv", got.equivalent))
    assert verdicts == {True, False, ("equiv", True), ("equiv", False)}
    delays = [
        n
        for m in pool
        if m.slice == "walk"
        for n in m.circuit.nodes
        if isinstance(n, (UnitDelay, VarDelay))
    ]
    assert any(isinstance(n, VarDelay) for n in delays)
    assert any(n.init is BOT for n in delays)


def _pairs_by_ports(pool):
    """Each member with the next one of the same port signatures, cyclically."""
    by_ports: dict = {}
    for m in pool:
        by_ports.setdefault((m.circuit.in_ports, m.circuit.out_ports), []).append(m)
    for ms in by_ports.values():
        yield from zip(ms, ms[1:] + ms[:1])


def test_memoized_walk_matches_the_full_prefix_walk(monkeypatch):
    # Same front end, two walks: the checks' own, which skips a passed
    # (histories, ticks left) pair, and every prefix stepped once.
    def both(check, *args):
        got = _report_or_cap(check, *args, max_cases=4096)
        with monkeypatch.context() as mp:
            mp.setattr(analysis, "_explore", oracles.prefix_walk)
            want = _report_or_cap(check, *args, max_cases=4096)
        assert got == want, args
        return got

    pool = oracles.corpus()
    verdicts = set()
    for m in pool:
        for h in range(9):
            rep = both(check_totality, m.circuit, h)
            if rep != "over budget":
                verdicts.add(("totality", h > 4, rep.total))
    for a, b in _pairs_by_ports(pool):
        for h in range(9):
            rep = both(check_equiv, a.circuit, b.circuit, h)
            if rep != "over budget":
                verdicts.add(("equiv", h > 4, rep.equivalent))
    assert verdicts == {
        (check, deep, ok)
        for check in ("totality", "equiv")
        for deep in (False, True)
        for ok in (False, True)
    }


def test_a_state_passed_with_few_ticks_left_is_walked_again_with_more():
    # y is undefined on three 1s in a row.  The histories (a one tick back,
    # a two ticks back) start at (0, 0) and return there on every 0 row, so
    # the walk meets (0, 0) with 1 tick left before it meets it with 3: a
    # walk that remembered passed states without their ticks left would
    # skip the failing subtree and call the circuit total.
    b = sig(BOOL)
    c = Circuit(
        in_ports=b,
        out_ports=b,
        nodes=(
            UnitDelay(BOOL, 0),
            UnitDelay(BOOL, 0),
            strict_lift(
                "three", sig(BOOL, BOOL, BOOL), b,
                lambda t: (BOT,) if t == (1, 1, 1) else (0,),
            ),
        ),
        node_inputs=((SrcIn(0),), (SrcNode(0, 0),), (SrcIn(0), SrcNode(0, 0), SrcNode(1, 0))),
        outputs=(SrcNode(2, 0),),
    )
    rep = check_totality(c, 4)
    assert not rep.total
    assert rep.witness.inputs.rows == ((0,), (1,), (1,), (1,))
    assert (rep.cases, rep.witness.tick, rep.witness.port) == (8, 3, 0)
    assert rep == oracles.trace_by_trace_totality(c, 4)
    assert check_totality(c, 2).total


def test_denote_matches_topological_evaluation():
    # denote solves for the least fixed point; topo_eval affords only
    # circuits without delays or feedback wires, where one pass suffices.
    checked = []
    for m in oracles.corpus():
        c = m.circuit
        if c.has_delays() or c.loops:
            continue
        f = denote(c)
        for x in c.in_ports.tuples():
            assert f.apply(x) == oracles.topo_eval(c, x), m.name
        checked.append(m.slice)
    assert checked.count("delay-free") >= 10


def test_printing_round_trips_every_member():
    # A member that names its ports comes back as the same IR; one built
    # without names comes back named as printed, with the same text and dump.
    unnamed = 0
    for m in oracles.corpus():
        c = m.circuit
        text = print_netlist(c)
        back = parse_netlist(text)
        assert print_netlist(back) == text, m.name
        assert to_json(back) == to_json(c), m.name
        if c.in_names is None:
            unnamed += 1
            assert back.in_names == in_port_names(c), m.name
        else:
            assert back == c, m.name
    assert unnamed == 21
