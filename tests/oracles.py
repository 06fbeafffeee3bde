"""Slow reference implementations used to cross-check the fast paths, and
the one seeded corpus of circuits they are checked on.

Every reference works by exhaustive scan over a signature's tuples, with
no iteration tricks, so a disagreement points at the optimised code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from pathlib import Path

from causalcirc import BOT, CapError, MonotoneFn, Signature, tuple_leq
from causalcirc.domain import BOOL, sig, trace
from causalcirc.laws import (
    ComboResult,
    Counterexample,
    SweepResult,
    _law,
    _failure,
    _Space,
)
from causalcirc.analysis import EquivReport, TotalityReport, Witness
from causalcirc.circuit import (
    Circuit,
    LoopWire,
    SrcIn,
    SrcLoop,
    SrcNode,
    UnitDelay,
    VarDelay,
)
from causalcirc.engine import (
    PrefixTrace,
    SimState,
    initial_state,
    random_trace,
    simulate,
    step,
)
from causalcirc.gates import not_gate, pand, por
from causalcirc.netlist import NetlistError, parse_netlist
from causalcirc.random_circuits import (
    GenConfig,
    random_circuit,
    random_delay_free_circuit,
)

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


def brute_fixed_points(f: MonotoneFn) -> list[tuple]:
    assert f.dom == f.cod
    return [x for x in f.dom.tuples() if f.fn(x) == x]


def brute_pre_fixed_points(f: MonotoneFn) -> list[tuple]:
    return [x for x in f.dom.tuples() if tuple_leq(f.fn(x), x)]


def least_of(points: list[tuple]) -> tuple | None:
    """The unique element below all others, by pairwise comparison."""
    for x in points:
        if all(tuple_leq(x, y) for y in points):
            return x
    return None


def brute_lfp(f: MonotoneFn) -> tuple | None:
    return least_of(brute_fixed_points(f))


def monotonicity_violation(f: MonotoneFn) -> tuple[tuple, tuple] | None:
    """First pair x <= y with f(x) not <= f(y), both in domain tuple order,
    or None if f is monotone."""
    dom = list(f.dom.tuples())
    for x in dom:
        fx = f.fn(x)
        for y in dom:
            if tuple_leq(x, y) and not tuple_leq(fx, f.fn(y)):
                return (x, y)
    return None


def brute_is_monotone(f: MonotoneFn) -> bool:
    return monotonicity_violation(f) is None


def backtrack_monotone(dom: Signature, cod: Signature):
    """Every monotone function dom -> cod as a table, by backtracking.

    Domain tuples are visited in lexicographic order with bottom first,
    which refines the pointwise order, so a candidate row only needs to
    dominate rows already placed; candidates are tried in ``cod.tuples``
    order, so tables come out in lexicographic order of their rows.
    """
    dom_tuples = list(dom.tuples())
    cod_tuples = list(cod.tuples())
    n = len(dom_tuples)
    below = [
        [j for j in range(i) if tuple_leq(dom_tuples[j], dom_tuples[i])]
        for i in range(n)
    ]
    assign: list = [None] * n

    def fill(i: int):
        if i == n:
            yield dict(zip(dom_tuples, assign))
            return
        for c in cod_tuples:
            if all(tuple_leq(assign[j], c) for j in below[i]):
                assign[i] = c
                yield from fill(i + 1)

    return fill(0)


def all_functions(dom: Signature, cod: Signature):
    """Every function dom -> cod as a table, monotone or not."""
    keys = list(dom.tuples())
    for values in product(list(cod.tuples()), repeat=len(keys)):
        yield dict(zip(keys, values))


def brute_trace(f: MonotoneFn, k: int) -> dict[tuple, tuple]:
    """Close the last k wires of f by scanning for the least fixed point."""
    na = len(f.dom) - k
    ctx = f.dom[:na]
    loop = f.dom[na:]
    out: dict[tuple, tuple] = {}
    for a in ctx.tuples():
        fixed = [
            x for x in loop.tuples() if f.fn(a + x)[len(f.cod) - k:] == x
        ]
        x0 = least_of(fixed)
        assert x0 is not None, "a monotone loop must close"
        out[a] = f.fn(a + x0)[: len(f.cod) - k]
    return out


# -- the law checks as lambda chains through domain.trace -----------------
#
# Each case builds every side of its law as a MonotoneFn whose ``fn`` chains
# the drawn functions with lambdas and closes loops with ``domain.trace``,
# the definition the table checks in ``laws`` unfold.


def _table_str(f: MonotoneFn) -> str:
    return "{" + ", ".join(f"{k!r}: {v!r}" for k, v in f.table.items()) + "}"


def _tables_differ(h1: MonotoneFn, h2: MonotoneFn) -> str | None:
    for t in h1.dom.tuples():
        v1, v2 = h1.fn(t), h2.fn(t)
        if v1 != v2:
            return f"at {t!r}: {v1!r} vs {v2!r}"
    return None


def _fixpoint(cfg, a_sig, x_sig, f):
    muf = cfg.mu(f, len(a_sig))
    for a in a_sig.tuples():
        x = muf.fn(a)
        if f.fn(a + x) != x:
            return (
                f"mu value {x!r} at context {a!r} is not fixed "
                f"for f={_table_str(f)}"
            )
        for x2 in x_sig.tuples():
            if f.fn(a + x2) == x2 and not tuple_leq(x, x2):
                return (
                    f"mu value {x!r} at context {a!r} is not below "
                    f"fixed point {x2!r} for f={_table_str(f)}"
                )
    bad = monotonicity_violation(muf)
    if bad is not None:
        return f"mu(f) is not monotone at {bad!r} for f={_table_str(f)}"
    return None


def _naturality(cfg, a_sig, x_sig, b_sig, f, g):
    nb = len(b_sig)
    reindexed = MonotoneFn(
        b_sig + x_sig, x_sig, lambda t: f.fn(g.fn(t[:nb]) + t[nb:])
    )
    lhs = cfg.mu(reindexed, nb)
    muf = cfg.mu(f, len(a_sig))
    for b in b_sig.tuples():
        left = lhs.fn(b)
        right = muf.fn(g.fn(b))
        if left != right:
            return (
                f"at {b!r}: {left!r} vs {right!r} for "
                f"f={_table_str(f)}, g={_table_str(g)}"
            )
    return None


def _dinaturality(cfg, a_sig, x_sig, y_sig, f, g):
    na = len(a_sig)
    after = MonotoneFn(a_sig + x_sig, x_sig, lambda t: g.fn(f.fn(t)))
    before = MonotoneFn(a_sig + y_sig, y_sig, lambda t: f.fn(t[:na] + g.fn(t[na:])))
    mu_after = cfg.mu(after, na)
    mu_before = cfg.mu(before, na)
    for a in a_sig.tuples():
        left = mu_after.fn(a)
        right = g.fn(mu_before.fn(a))
        if left != right:
            return (
                f"at {a!r}: {left!r} vs {right!r} for "
                f"f={_table_str(f)}, g={_table_str(g)}"
            )
    return None


def _bekic(cfg, a_sig, x_sig, y_sig, f, g):
    na, nx = len(a_sig), len(x_sig)
    both = MonotoneFn(
        a_sig + x_sig + y_sig, x_sig + y_sig, lambda t: f.fn(t) + g.fn(t)
    )
    mu_both = cfg.mu(both, na)
    mu_g = cfg.mu(g, na + nx)
    inner = MonotoneFn(a_sig + x_sig, x_sig, lambda t: f.fn(t + mu_g.fn(t)))
    mu_inner = cfg.mu(inner, na)
    for a in a_sig.tuples():
        x = mu_inner.fn(a)
        y = mu_g.fn(a + x)
        left = mu_both.fn(a)
        if left != x + y:
            return (
                f"at {a!r}: simultaneous {left!r} vs nested "
                f"{(x + y)!r} for f={_table_str(f)}, g={_table_str(g)}"
            )
    return None


def _yanking(cfg, x_sig, swap):
    ident = MonotoneFn(x_sig, x_sig, lambda t: t)
    return _tables_differ(trace(swap, 1, cfg.mu), ident)


def _vanishing_zero(cfg, a_sig, b_sig, f):
    return _tables_differ(trace(f, 0, cfg.mu), f)


def _vanishing_nested(cfg, a_sig, x_sig, y_sig, f):
    both = trace(f, 2, cfg.mu)
    outer = trace(trace(f, 1, cfg.mu), 1, cfg.mu)
    return _tables_differ(both, outer)


def _sliding(cfg, a_sig, b_sig, x_sig, y_sig, f, g):
    na, nb = len(a_sig), len(b_sig)
    post = MonotoneFn(
        a_sig + x_sig,
        b_sig + x_sig,
        lambda t: (lambda o: o[:nb] + g.fn(o[nb:]))(f.fn(t)),
    )
    pre = MonotoneFn(
        a_sig + y_sig, b_sig + y_sig, lambda t: f.fn(t[:na] + g.fn(t[na:]))
    )
    bad = _tables_differ(trace(post, 1, cfg.mu), trace(pre, 1, cfg.mu))
    if bad is not None:
        return f"{bad} for f={_table_str(f)}, g={_table_str(g)}"
    return None


def _superposing(cfg, c_sig, a_sig, b_sig, x_sig, f):
    nc = len(c_sig)
    widened = MonotoneFn(
        c_sig + a_sig + x_sig, c_sig + b_sig + x_sig, lambda t: t[:nc] + f.fn(t[nc:])
    )
    lhs = trace(widened, 1, cfg.mu)
    traced = trace(f, 1, cfg.mu)
    rhs = MonotoneFn(
        c_sig + a_sig, c_sig + b_sig, lambda t: t[:nc] + traced.fn(t[nc:])
    )
    bad = _tables_differ(lhs, rhs)
    if bad is not None:
        return f"{bad} for f={_table_str(f)}"
    return None


def trace_chain_laws(cfg) -> list[SweepResult]:
    """``run_laws`` with every case checked by the chains above.

    Combos, modes and drawn functions come from the package's sweep driver,
    so the results must equal ``run_laws(cfg)`` exactly.
    """

    def chain(check, cfg, spaces, *sigs):
        """A chain check on the sweep's flat tables, read as tabled functions."""
        return lambda *flats: check(
            cfg, *sigs, *[sp.fn(F) for sp, F in zip(spaces, flats)]
        )

    def law(name, *families):
        combos = ()
        for names, spaces, check, *suffix in families:
            make = partial(chain, check)
            combos += _law(name, cfg, names, spaces, make, *suffix).combos
        return SweepResult(name, combos)

    yanking = []
    for x_base in cfg.bases:
        combo, x_sig = f"X={x_base.name}", sig(x_base)
        space = _Space(x_sig + x_sig, x_sig + x_sig)
        swapped = tuple(space.cod.index[(t[1], t[0])] for t in space.dom.points)
        check = chain(_yanking, cfg, [space], x_sig)
        try:
            bad = check(swapped)
        except Exception as e:
            bad = _failure(e, [space], (swapped,))
        cx = None if bad is None else Counterexample("yanking", combo, bad)
        yanking.append(ComboResult(combo, "exhaustive", len(x_base.lifted), cx))
    return [
        law("fixpoint", ("AX", lambda a, x: [(a + x, x)], _fixpoint)),
        law("naturality-param", ("AXB", lambda a, x, b: [(a + x, x), (b, a)], _naturality)),
        law("dinaturality", ("AXY", lambda a, x, y: [(a + x, y), (y, x)], _dinaturality)),
        law("bekic", ("AXY", lambda a, x, y: [(a + x + y, x), (a + x + y, y)], _bekic)),
        SweepResult("yanking", tuple(yanking)),
        law(
            "vanishing",
            ("AB", lambda a, b: [(a, b)], _vanishing_zero, ",k=0"),
            ("AXY", lambda a, x, y: [(a + x + y, a + x + y)], _vanishing_nested, ",nested"),
        ),
        law("sliding", ("ABXY", lambda a, b, x, y: [(a + x, b + y), (y, x)], _sliding)),
        law("superposing", ("CABX", lambda c, a, b, x: [(a + x, b + x)], _superposing)),
    ]


# -- circuits, straight from the wiring -----------------------------------


def topo_eval(c, inputs: tuple) -> tuple:
    """Outputs of a delay-free circuit without feedback wires, in one pass.

    Each node is evaluated once, after the nodes it reads, by following
    ``c.node_inputs`` back from the outputs.
    """
    if c.has_delays():
        raise ValueError("topological evaluation needs a delay-free circuit")
    if c.loops:
        raise ValueError("topological evaluation cannot follow feedback loops")
    done: dict[int, tuple] = {}

    def value(src):
        if isinstance(src, SrcIn):
            return inputs[src.index]
        if src.node not in done:
            args = tuple(value(s) for s in c.node_inputs[src.node])
            done[src.node] = c.nodes[src.node].fn.fn(args)
        return done[src.node][src.port]

    return tuple(value(s) for s in c.outputs)


def wire_layout(c):
    """Position of each node output port, then each feedback wire, in a
    wire vector, and the base type of every position."""
    first, types = [], []
    for node in c.nodes:
        first.append(len(types))
        types.extend(node.cod)
    types.extend(lw.base for lw in c.loops)
    return first, types


def _read(c, first, src, inputs, wires):
    if isinstance(src, SrcIn):
        return inputs[src.index]
    if isinstance(src, SrcNode):
        return wires[first[src.node] + src.port]
    return wires[len(wires) - len(c.loops) + src.index]


def tick_lfp(c, past: list, inputs: tuple) -> tuple:
    """The settled wire vector of one tick, by scanning every wire vector.

    ``past`` holds ``(inputs, wires)`` of every earlier tick, oldest first.
    A unit delay reads its input one tick back (its init at tick 0); a
    variable delay reads d ticks back (its init while the run is younger
    than d), passes its current input at d = 0 and is undefined at an
    undefined d.  Every wire vector the map fixes is listed and the least
    one returned.  A vector whose unit delay wire does not hold the delay's
    value is never fixed, so those are not scanned.
    """
    first, types = wire_layout(c)
    held = {
        first[i]: _read(c, first, ins[0], *past[-1]) if past else node.init
        for i, (node, ins) in enumerate(zip(c.nodes, c.node_inputs))
        if isinstance(node, UnitDelay)
    }

    def wire_map(wires):
        out = []
        for node, ins, at in zip(c.nodes, c.node_inputs, first):
            if isinstance(node, UnitDelay):
                out.append(held[at])
                continue
            args = tuple(_read(c, first, s, inputs, wires) for s in ins)
            if isinstance(node, VarDelay):
                d = args[1]
                if d is BOT:
                    out.append(BOT)
                elif d == 0:
                    out.append(args[0])
                elif d > len(past):
                    out.append(node.init)
                else:
                    out.append(_read(c, first, ins[0], *past[-d]))
            else:
                out.extend(node.fn.fn(args))
        out.extend(_read(c, first, lw.src, inputs, wires) for lw in c.loops)
        return tuple(out)

    scan = [(held[j],) if j in held else b.lifted for j, b in enumerate(types)]
    fixed = [w for w in product(*scan) if wire_map(w) == w]
    least = least_of(fixed)
    assert least is not None, "a monotone tick must have a least fixed point"
    return least


def unrolled_lfp(c, rows) -> list[tuple]:
    """Every wire of the first ``len(rows)`` ticks, as one least fixed point.

    This is the stream semantics at stage H = ``len(rows)``, computed
    directly.  The circuit is unrolled into H copies, tick k's copy reading
    row k: a unit delay reads its input at tick k-1, or its init at tick 0,
    and a variable delay reads its input at tick k-d, or its init before
    tick 0 (its current input at d = 0, bottom at an undefined d).  What is
    left has no delays, and its least fixed point is taken by iterating the
    whole unrolled map from all-bottom: every wire of every tick is
    recomputed from the last iterate until none changes.  No tick is
    settled on its own and no history is committed, so this checks the
    per-tick settle and the delays by another road than ``tick_lfp``.
    """
    first, types = wire_layout(c)
    H = len(rows)

    def read(k, src, x):
        return _read(c, first, src, rows[k], x[k])

    def tick(k, x):
        out = []
        for node, ins in zip(c.nodes, c.node_inputs):
            if isinstance(node, UnitDelay):
                out.append(read(k - 1, ins[0], x) if k else node.init)
            elif isinstance(node, VarDelay):
                d = read(k, ins[1], x)
                if d is BOT:
                    out.append(BOT)
                else:
                    out.append(read(k - d, ins[0], x) if d <= k else node.init)
            else:
                out.extend(node.fn.fn(tuple(read(k, s, x) for s in ins)))
        out.extend(read(k, lw.src, x) for lw in c.loops)
        return tuple(out)

    x = [(BOT,) * len(types)] * H
    for _ in range(H * len(types) + 1):  # each round raises a wire, or stops
        nxt = [tick(k, x) for k in range(H)]
        if nxt == x:
            return x
        x = nxt
    raise AssertionError("the unrolled map has no least fixed point: not monotone")


def tick_outputs(c, inputs: tuple, wires: tuple) -> tuple:
    first, _ = wire_layout(c)
    return tuple(_read(c, first, s, inputs, wires) for s in c.outputs)


def assert_step_settles(m: Member) -> None:
    """``engine.step`` on each of ``m``'s traces emits, at every tick, the
    outputs of the least fixed point ``tick_lfp`` finds by scanning."""
    c = m.circuit
    for rows in m.traces:
        state, past = initial_state(c), []
        for row in rows:
            state, outs = step(state, row)
            settled = tick_lfp(c, past, row)
            assert outs == tick_outputs(c, row, settled), m.name
            past.append((row, settled))


# -- causality: naturality along the prefix restriction maps -------------


def check_causality(
    c: Circuit,
    inputs: PrefixTrace,
    ticks: int | None = None,
    rng: random.Random | None = None,
) -> bool:
    """Outputs at tick n depend only on inputs up to tick n.

    Re-simulates every prefix of the input trace and demands the full run's
    prefix back.  With an rng, additionally lowers random input cells to
    bottom and checks the output trace only moves down pointwise.
    """
    if ticks is None:
        ticks = len(inputs)
    full = simulate(c, inputs, ticks)
    for n in range(ticks + 1):
        if simulate(c, inputs.prefix(n), n).rows != full.rows[:n]:
            return False
    if rng is not None:
        lowered = PrefixTrace(
            inputs.signature,
            tuple(
                tuple(BOT if rng.random() < 0.3 else x for x in row)
                for row in inputs.rows[:ticks]
            ),
        )
        low_out = simulate(c, lowered, ticks)
        for r1, r2 in zip(low_out.rows, full.rows):
            if not tuple_leq(r1, r2):
                return False
    return True


# -- bounded checks, one full trace at a time ----------------------------


def _iter_traces(s: Signature, horizon: int, concrete: bool):
    rows = list(s.concrete_tuples() if concrete else s.tuples())
    for combo in product(rows, repeat=horizon):
        yield PrefixTrace(s, combo)


def _first_bot(trace: PrefixTrace) -> tuple[int, int] | None:
    for t, row in enumerate(trace.rows):
        for p, x in enumerate(row):
            if x is BOT:
                return (t, p)
    return None


def _first_mismatch(a: PrefixTrace, b: PrefixTrace) -> tuple[int, int] | None:
    for t, (r1, r2) in enumerate(zip(a.rows, b.rows)):
        for p, (x, y) in enumerate(zip(r1, r2)):
            if x is not y and x != y:
                return (t, p)
    return None


def _witness(tr: PrefixTrace, bad: tuple[int, int]) -> Witness:
    t, p = bad
    return Witness(tr.prefix(t + 1), t, p)


def trace_by_trace_totality(
    c, horizon, strategy="exhaustive", samples=1000, seed=0, max_cases=200_000
) -> TotalityReport:
    """``check_totality`` by simulating every trace in full from tick 0."""
    if strategy == "exhaustive":
        space = c.in_ports.concrete_count() ** horizon
        if space > max_cases:
            raise CapError(f"{space} input traces exceed the budget of {max_cases}")
        cases = 0
        for tr in _iter_traces(c.in_ports, horizon, concrete=True):
            cases += 1
            bad = _first_bot(simulate(c, tr, horizon))
            if bad is not None:
                return TotalityReport(
                    False, horizon, strategy, cases, _witness(tr, bad)
                )
        return TotalityReport(True, horizon, strategy, cases)
    rng = random.Random(seed)
    for i in range(samples):
        tr = random_trace(rng, c.in_ports, horizon, p_bot=0.0)
        bad = _first_bot(simulate(c, tr, horizon))
        if bad is not None:
            return TotalityReport(False, horizon, strategy, i + 1, _witness(tr, bad))
    return TotalityReport(True, horizon, strategy, samples)


def trace_by_trace_equiv(
    c1,
    c2,
    horizon,
    strategy="exhaustive",
    samples=1000,
    seed=0,
    max_cases=200_000,
) -> EquivReport:
    """``check_equiv`` by simulating both circuits on every trace in full."""
    if strategy == "exhaustive":
        space = c1.in_ports.count() ** horizon
        if space > max_cases:
            raise CapError(f"{space} input traces exceed the budget of {max_cases}")
        it = _iter_traces(c1.in_ports, horizon, concrete=False)
        total = None
    else:
        rng = random.Random(seed)
        it = (
            random_trace(rng, c1.in_ports, horizon, p_bot=0.25)
            for _ in range(samples)
        )
        total = samples
    cases = 0
    for tr in it:
        cases += 1
        o1 = simulate(c1, tr, horizon)
        o2 = simulate(c2, tr, horizon)
        bad = _first_mismatch(o1, o2)
        if bad is not None:
            t, _ = bad
            return EquivReport(
                False,
                horizon,
                strategy,
                cases,
                _witness(tr, bad),
                o1.rows[t],
                o2.rows[t],
            )
    return EquivReport(True, horizon, strategy, cases if total is None else total)


# -- bounded checks, every prefix walked --------------------------------


def prefix_walk(circuits, rows: list, horizon: int, bad_port):
    """``analysis._explore`` without skipping passed subtrees: every prefix
    is stepped once, from the state its parent left, through ``step``
    memoized on (histories, row), so the walk takes b + b² + … + bᴴ steps.
    Returns ``(cases, failure)`` as ``_explore`` does.
    """
    memos = [{} for _ in circuits]

    def advance(k, histories, row):
        key = (histories, row)
        if key not in memos[k]:
            state, outs = step(SimState(circuits[k], histories), row)
            memos[k][key] = (state.histories, outs)
        return memos[k][key]

    start = tuple(initial_state(c).histories for c in circuits)
    b = len(rows)
    if horizon == 0:
        return 1, None
    path: list[int] = []  # row index per tick of the current prefix
    states = [start]  # histories of every circuit after each prefix tick
    i = 0
    while True:
        if i == b:
            if not path:
                return b**horizon, None
            i = path.pop() + 1
            states.pop()
            continue
        row = rows[i]
        stepped = [advance(k, h, row) for k, h in enumerate(states[-1])]
        outs = [o for _, o in stepped]
        port = bad_port(outs)
        if port is not None:
            path.append(i)
            # 1 + the lexicographic index of the prefix's first full trace.
            cases = 1 + sum(j * b ** (horizon - 1 - k) for k, j in enumerate(path))
            return cases, (tuple(rows[j] for j in path), port, outs)
        if len(path) + 1 < horizon:
            path.append(i)
            states.append(tuple(h for h, _ in stepped))
            i = 0
        else:
            i += 1


_PUNCT = set("(){}[],:=")
_DIGITS = set("0123456789")  # not str.isdigit, which also takes '²' and '٣'


def tokenize_by_char(text: str) -> list[tuple[str, str, int, int]]:
    """The netlist tokens of ``text`` as ``(kind, text, line, col)``, read
    one character at a time: the reference for ``netlist.tokenize``."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            toks.append(("->", "->", line, start_col))
            i += 2
            col += 2
            continue
        if ch == ".":
            if i + 1 < n and text[i + 1] == ".":
                toks.append(("..", "..", line, start_col))
                i += 2
                col += 2
                continue
            raise NetlistError([(line, col, "stray '.'")])
        if ch in _DIGITS or (ch == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "BOT" if word == "bot" else "IDENT"
            toks.append((kind, word, line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append((ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise NetlistError([(line, col, f"unexpected character {ch!r}")])
    toks.append(("EOF", "", line, col))
    return toks


# -- rewrites that move delays ---------------------------------------------
#
# A delay is a map like any gate, so it commutes with the gates around it:
# each rewrite gives a circuit whose output traces equal its source's, a
# check that needs no reference output.


def _rewired(c: Circuit, nodes, node_inputs, at=lambda s: s, loops=()) -> Circuit:
    """``c`` with these nodes and inputs, its outputs and feedback wires
    reading ``at`` of what they read, and ``loops`` added after its own."""
    return Circuit(
        c.in_ports, c.out_ports, tuple(nodes), tuple(node_inputs),
        tuple(map(at, c.outputs)),
        tuple(LoopWire(lw.base, at(lw.src)) for lw in c.loops) + tuple(loops),
        c.in_names, c.out_names,
    )


def chain_vardelays(c: Circuit) -> Circuit:
    """``c`` with each vardelay whose amount is fixed at k >= 1 (min = max)
    replaced by k chained unit delays of its init.  The vardelay's node
    becomes the last delay of its chain, the others are appended in chain
    order, and its amount input is left unread."""
    nodes, ins = list(c.nodes), list(c.node_inputs)
    for i, n in enumerate(c.nodes):
        if isinstance(n, VarDelay) and n.d_min == n.d_max >= 1:
            src = ins[i][0]
            for _ in range(n.d_max - 1):
                nodes.append(UnitDelay(n.base, n.init))
                ins.append((src,))
                src = SrcNode(len(nodes) - 1, 0)
            nodes[i], ins[i] = UnitDelay(n.base, n.init), (src,)
    return _rewired(c, nodes, ins)


def retime_forward(c: Circuit, j: int) -> Circuit:
    """``c`` with the unit delays on every input of gate ``j`` moved past it.

    The gate reads what those delays read, and one new unit delay per gate
    output, appended, carries it; its init is the gate's value on their
    inits.  Whatever read the gate reads the new delays instead.  An input
    that reached its delay through feedback wires reads its new source
    through a new feedback wire, so every cycle still passes one."""
    g, n, loops = c.nodes[j], len(c.nodes), []
    moved = {SrcNode(j, p): SrcNode(n + p, 0) for p in range(len(g.cod))}

    def at(s):
        return moved.get(s, s)

    inits, reads = [], []
    for s in c.node_inputs[j]:
        d = s
        while isinstance(d, SrcLoop):
            d = c.loops[d.index].src
        assert isinstance(c.nodes[d.node], UnitDelay), f"input {s} is not delayed"
        inits.append(c.nodes[d.node].init)
        src = at(c.node_inputs[d.node][0])
        if isinstance(s, SrcLoop):
            loops.append(LoopWire(c.nodes[d.node].base, src))
            src = SrcLoop(len(c.loops) + len(loops) - 1)
        reads.append(src)
    ins = [tuple(map(at, row)) for row in c.node_inputs]
    ins[j] = tuple(reads)
    ins += [(SrcNode(j, p),) for p in range(len(g.cod))]
    nodes = c.nodes + tuple(UnitDelay(b, x) for b, x in zip(g.cod, g.fn.fn(tuple(inits))))
    return _rewired(c, nodes, ins, at, loops)


def with_init(c: Circuit, i: int, init) -> Circuit:
    """``c`` with unit delay ``i`` given another init: a mutant of a rewrite."""
    nodes = list(c.nodes)
    nodes[i] = UnitDelay(nodes[i].base, init)
    return _rewired(c, nodes, c.node_inputs)


# -- the seeded cross-check corpus -----------------------------------------
#
# Every fast path is checked against its oracle on these circuits, each
# check on every member its oracle can afford.  A random slice keeps the
# seed, generator config and count it was first drawn with, so its
# circuits never change.


@dataclass(frozen=True)
class Member:
    """One corpus circuit, with the input traces its tick checks run.

    ``slice`` names the draw it belongs to.  The traces were drawn with the
    circuit where its draw drew them, else from a generator seeded by
    ``name``.
    """

    name: str
    slice: str
    circuit: Circuit
    traces: tuple[tuple, ...]


def _member(name: str, slice_: str, c: Circuit) -> Member:
    tr = random_trace(random.Random(name), c.in_ports, 5, p_bot=0.25)
    return Member(name, slice_, c, (tr.rows,))


def _random_slice(name: str, seed: int, make, cfg: GenConfig, count: int):
    rng = random.Random(seed)
    return [_member(f"{name}/{i}", name, make(rng, cfg)) for i in range(count)]


def _settle_slice() -> list[Member]:
    """60 circuits of at most 6 wires, small enough to scan every wire
    vector, each with the 5-tick trace drawn right after it."""
    rng = random.Random(21)
    cfg = GenConfig(max_inputs=2, max_nodes=4, max_loops=2, p_vardelay=0.4)
    out: list[Member] = []
    while len(out) < 60:
        c = random_circuit(rng, cfg)
        if len(wire_layout(c)[1]) <= 6:
            tr = random_trace(rng, c.in_ports, 5, p_bot=0.25)
            out.append(Member(f"settle/{len(out)}", "settle", c, (tr.rows,)))
    return out


def looped(n_in, nodes, node_inputs, outputs, loops) -> Circuit:
    """A bool circuit from its wiring, its ports left unnamed."""
    return Circuit(
        sig(*(BOOL,) * n_in),
        sig(*(BOOL,) * len(outputs)),
        tuple(nodes),
        tuple(tuple(ins) for ins in node_inputs),
        tuple(outputs),
        tuple(LoopWire(BOOL, src) for src in loops),
    )


# Where unit delays and feedback wires read: each corner is built for a
# delay init, and resolving its reads to slots must not change a tick.


def _self_closed(init):
    # w = w: its least value is ⊥, whatever reads it.
    return looped(
        1, [por()], [(SrcIn(0), SrcLoop(0))], (SrcNode(0, 0), SrcLoop(0)),
        [SrcLoop(0)],
    )


def _loop_through_loop(init):
    # w1 = w0 and w0 = por(a, w1): a gate's cycle through two loop wires.
    return looped(
        1, [por()], [(SrcIn(0), SrcLoop(1))], (SrcLoop(1), SrcNode(0, 0)),
        [SrcNode(0, 0), SrcLoop(0)],
    )


def _two_loop_cycle(init):
    # w0 = w1 and w1 = w0 reach only each other.
    return looped(
        1, [pand()], [(SrcLoop(0), SrcIn(0))], (SrcLoop(1), SrcNode(0, 0)),
        [SrcLoop(1), SrcLoop(0)],
    )


def _loop_through_delay(init):
    # A toggle gated by a: w = delay(pand(a, not(w))).
    return looped(
        1,
        [not_gate(), pand(), UnitDelay(BOOL, init)],
        [(SrcLoop(0),), (SrcIn(0), SrcNode(0, 0)), (SrcNode(1, 0),)],
        (SrcLoop(0), SrcNode(1, 0)),
        [SrcNode(2, 0)],
    )


def _shift_register(init):
    return looped(
        1,
        [UnitDelay(BOOL, init), UnitDelay(BOOL, 1), UnitDelay(BOOL, init), por()],
        [(SrcIn(0),), (SrcNode(0, 0),), (SrcNode(1, 0),), (SrcNode(2, 0), SrcIn(0))],
        (SrcNode(0, 0), SrcNode(1, 0), SrcNode(2, 0), SrcNode(3, 0)),
        [],
    )


def _direct_reads(init):
    # Output ports and delay inputs read a unit delay, a loop wire onto a
    # unit delay, a self-closed loop wire and a loop wire onto an input.
    return looped(
        1,
        [UnitDelay(BOOL, init), UnitDelay(BOOL, 0), UnitDelay(BOOL, 1),
         UnitDelay(BOOL, init)],
        [(SrcIn(0),), (SrcLoop(0),), (SrcNode(0, 0),), (SrcLoop(1),)],
        (SrcNode(0, 0), SrcLoop(0), SrcNode(1, 0), SrcNode(2, 0), SrcLoop(1),
         SrcNode(3, 0), SrcLoop(2)),
        [SrcNode(0, 0), SrcLoop(1), SrcIn(0)],
    )


def _delays_only(init):
    return looped(
        2,
        [UnitDelay(BOOL, init), UnitDelay(BOOL, 0)],
        [(SrcIn(1),), (SrcIn(0),)],
        (SrcNode(1, 0), SrcNode(0, 0), SrcNode(1, 0)),
        [],
    )


CORNERS = (
    _self_closed, _loop_through_loop, _two_loop_cycle, _loop_through_delay,
    _shift_register, _direct_reads, _delays_only,
)


def _corner_slice() -> list[Member]:
    """Each corner at the inits ⊥, 0 and 1, with four 5-tick traces each."""
    out = []
    for build in CORNERS:
        rng = random.Random(build.__name__)
        for init in (BOT, 0, 1):
            c = build(init)
            traces = tuple(
                random_trace(rng, c.in_ports, 5, p_bot=0.3).rows for _ in range(4)
            )
            name = f"corner/{build.__name__}@{'bot' if init is BOT else init}"
            out.append(Member(name, "corner", c, traces))
    return out


@cache
def corpus() -> tuple[Member, ...]:
    """The corpus, built once: three seeded random slices, every netlist
    under ``circuits/`` and the corners above."""
    netlists = [
        _member(f"circuits/{p.name}", "netlist", parse_netlist(p.read_text("utf-8")))
        for p in sorted(CIRCUITS.glob("*.net"))
    ]
    return tuple(
        _random_slice(
            "walk", 2024, random_circuit,
            GenConfig(max_inputs=2, max_nodes=6, p_vardelay=0.3), 40,
        )
        + _settle_slice()
        + _random_slice(
            "delay-free", 5, random_delay_free_circuit,
            GenConfig(max_inputs=2, max_nodes=5, max_outputs=2), 40,
        )
        + netlists
        + _corner_slice()
    )
