"""Bounded-horizon checks: totality, observational equivalence, and a static
sufficient condition for totality.

Totality here means: every bottom-free input trace up to the horizon yields
a bottom-free output trace.  Equivalence compares two circuits on every
input trace, undefined cells included.  Both checks run exhaustively when
the trace space fits the budget and seeded-random otherwise.

A circuit's outputs through tick t depend only on its inputs through tick t,
and a tick reads only the committed delay histories and the input row.  So
the exhaustive path never re-runs a trace from tick 0: it walks the tree of
input prefixes depth first, stepping each prefix from the state its parent
left, and it skips a prefix whose histories have already passed a whole
subtree with at least as many ticks left, as the subtree from there passes
again.  A state is marked only once its subtree has no failure, so every
(histories, ticks left) pair is walked at most once: at most
states × b × H steps for b rows per tick at horizon H, where states counts
the distinct histories reached, instead of b + b² + … + bᴴ.  Rows are tried
in ``concrete_tuples``/``tuples`` order, so the walk meets traces in their
lexicographic order, and it stops at the first prefix whose newest output
row is bad (for equivalence, the circuits step in lockstep and a state is
the histories of both).  That prefix is the witness, with its lowest bad
port: the same minimal witness as scanning full traces in order (first
failing trace, then earliest tick, then lowest port).  Ticks after the
failing one are never run, so a trace that would raise later still yields
its witness.

Each check also memoizes one tick of each circuit instance, keyed on the
committed delay histories and the input row, which are all a tick reads.
A tick is the circuit's compiled ``Propagator.tick``: the rows come from
the signature's own enumeration or from ``engine.random_rows``, which draw
only rows that fit it, so no row is checked again per tick.
The random strategy runs every sampled trace through the same memo.  A
memo lives for one check and one circuit instance, never longer, and is
never shared between circuits that merely compare equal.

``cases`` counts full traces in enumeration order up to and including the
first failing one, so a passing exhaustive check reports all bᴴ of them
(1 at horizon 0); a random check counts samples drawn.
"""

from __future__ import annotations

import functools
import random

from .circuit import Circuit, UnitDelay, VarDelay, _value_json, check_valid, is_contractive
from .comb import propagator
from .domain import BOT, CapError, Record, Signature, SignatureError, check_enumerable
from .engine import PrefixTrace, random_rows
from .gates import KIND_WIRING


class Witness(Record):
    """One failing input trace and the first bad cell it produces."""

    inputs: PrefixTrace
    tick: int
    port: int

    def to_json(self) -> dict:
        return {
            "inputs": [list(map(_value_json, row)) for row in self.inputs.rows],
            "tick": self.tick,
            "port": self.port,
        }


def _json_head(rep, check: str, verdict: str) -> dict:
    """The JSON both reports share: the check, its verdict, how, any witness."""
    out = {
        "check": check,
        verdict: getattr(rep, verdict),
        "horizon": rep.horizon,
        "strategy": rep.strategy,
        "cases": rep.cases,
    }
    if rep.witness is not None:
        out["witness"] = rep.witness.to_json()
    return out


class TotalityReport(Record):
    """A bounded totality check's verdict, how it was reached, and any witness."""

    total: bool
    horizon: int
    strategy: str
    cases: int
    witness: Witness | None = None

    def to_json(self) -> dict:
        return _json_head(self, "totality", "total")


class EquivReport(Record):
    """A bounded equivalence check's verdict, how, and any witness with both outputs."""

    equivalent: bool
    horizon: int
    strategy: str
    cases: int
    witness: Witness | None = None
    left: tuple = ()
    right: tuple = ()

    def to_json(self) -> dict:
        out = _json_head(self, "equivalence", "equivalent")
        if self.witness is not None:
            out["left"] = list(map(_value_json, self.left))
            out["right"] = list(map(_value_json, self.right))
        return out


def _stepper(c: Circuit):
    """One tick of ``c`` as ``(histories, row) -> (next histories, outputs)``.

    ``Propagator.tick`` under ``functools.cache``, keyed on ``(histories,
    row)``, exactly what a tick reads.  Each call makes a new cache, which
    belongs to one check and one circuit instance and dies with the function.
    """
    return functools.cache(propagator(c).tick)


def _undefined_port(outs) -> int | None:
    for p, x in enumerate(outs[0]):
        if x is BOT:
            return p
    return None


def _mismatched_port(outs) -> int | None:
    for p, (x, y) in enumerate(zip(*outs)):
        if x is not y and x != y:
            return p
    return None


def _explore(circuits, rows: list, horizon: int, bad_port):
    """Depth-first walk over input prefixes, stepping ``circuits`` in lockstep.

    ``bad_port`` maps the circuits' newest output rows to a failing port or
    None.  Returns ``(cases, failure)``, where failure is None or
    ``(prefix rows, port, newest output rows)`` for the first bad prefix.
    A prefix is not descended into when its histories have already passed
    a subtree with at least as many ticks left.
    """
    # _stepper compiles and so validates each circuit, so an invalid one
    # is refused even at horizon 0.
    steppers = [_stepper(c) for c in circuits]
    b = len(rows)
    if horizon == 0:
        return 1, None
    path: list[int] = []  # row index per tick of the current prefix
    # Histories of every circuit after each prefix tick.
    states = [tuple(propagator(c).init for c in circuits)]
    passed: dict = {}  # histories -> most ticks left from them with no failure
    i = 0
    while True:
        if i == b:
            # The whole subtree passed.  Inside it these histories met only
            # fewer ticks left, so this is the most they have passed with.
            passed[states.pop()] = horizon - len(path)
            if not path:
                return b**horizon, None
            i = path.pop() + 1
            continue
        row = rows[i]
        # Each circuit's (histories, outputs), split into the two tuples.
        after, outs = zip(*[adv(h, row) for adv, h in zip(steppers, states[-1])])
        port = bad_port(outs)
        if port is not None:
            path.append(i)
            # 1 + the lexicographic index of the prefix's first full trace.
            cases = 1 + sum(j * b ** (horizon - 1 - k) for k, j in enumerate(path))
            return cases, (tuple(rows[j] for j in path), port, outs)
        left = horizon - len(path) - 1
        if left and passed.get(after, 0) < left:
            path.append(i)
            states.append(after)
            i = 0
        else:
            i += 1


def _sample(circuits, traces, bad_port):
    """Run each trace tick by tick through one memo per circuit.

    Returns ``(cases, failure)`` like ``_explore``; cases counts the traces
    run, and the failure's prefix is the trace cut at its first bad tick.
    """
    steppers = [_stepper(c) for c in circuits]
    start = [propagator(c).init for c in circuits]
    cases = 0
    for rows in traces:
        cases += 1
        hists = start
        for t, row in enumerate(rows):
            hists, outs = zip(*[adv(h, row) for adv, h in zip(steppers, hists)])
            port = bad_port(outs)
            if port is not None:
                return cases, (rows[: t + 1], port, outs)
    return cases, None


def _bounded(circuits, bad_port, horizon, strategy, samples, seed, max_cases, concrete):
    """Run one bounded check over the first circuit's input signature.

    The exhaustive strategy walks every trace, of concrete rows only when
    ``concrete`` is set, and refuses a space over ``max_cases`` before it
    lists a row.  The random strategy runs ``samples`` seeded traces whose
    cells are undefined with probability 0 when ``concrete`` is set, else
    1/4.  Returns ``(cases, failure)`` as ``_explore`` does.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be at least 0, got {horizon}")
    if strategy == "random" and samples < 1:
        raise ValueError(
            f"the random strategy needs at least 1 sample, got {samples}"
        )
    s = circuits[0].in_ports
    if strategy == "exhaustive":
        space = (s.concrete_count() if concrete else s.count()) ** horizon
        if space > max_cases:
            raise CapError(
                f"{space} input traces exceed the budget of {max_cases}",
                "use the random strategy",
            )
        rows = list(s.concrete_tuples() if concrete else s.tuples())
        return _explore(circuits, rows, horizon, bad_port)
    if strategy == "random":
        rng = random.Random(seed)
        p_bot = 0.0 if concrete else 0.25
        traces = (random_rows(rng, s, horizon, p_bot) for _ in range(samples))
        return _sample(circuits, traces, bad_port)
    raise ValueError(f"unknown strategy {strategy!r}")


def _witness(s: Signature, prefix: tuple, port: int) -> Witness:
    # Outputs through tick t depend only on inputs through tick t, so the
    # reported trace ends at the failing tick.
    return Witness(PrefixTrace(s, prefix), len(prefix) - 1, port)


def check_totality(
    c: Circuit,
    horizon: int,
    strategy: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    max_cases: int = 200_000,
) -> TotalityReport:
    """Do bottom-free input traces stay bottom-free through the circuit?

    A negative horizon, or fewer than one sample for the random strategy,
    raises ValueError.
    """
    cases, bad = _bounded(
        [c], _undefined_port, horizon, strategy, samples, seed, max_cases, concrete=True
    )
    if bad is None:
        return TotalityReport(True, horizon, strategy, cases)
    prefix, port, _ = bad
    witness = _witness(c.in_ports, prefix, port)
    return TotalityReport(False, horizon, strategy, cases, witness)


def check_equiv(
    c1: Circuit,
    c2: Circuit,
    horizon: int,
    strategy: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    max_cases: int = 200_000,
) -> EquivReport:
    """Do two circuits emit identical output traces up to the horizon?

    Inputs range over lifted tuples, so disagreement on partially undefined
    inputs counts; a random trace leaves each cell undefined with
    probability 1/4.  The circuits must share both port signatures.  The
    horizon and sample count are bounded as for ``check_totality``.
    """
    if c1.in_ports != c2.in_ports or c1.out_ports != c2.out_ports:
        raise SignatureError(
            f"circuits have different port signatures: {c1.in_ports!r} -> "
            f"{c1.out_ports!r} vs {c2.in_ports!r} -> {c2.out_ports!r}"
        )
    cases, bad = _bounded(
        [c1, c2], _mismatched_port, horizon, strategy, samples, seed, max_cases,
        concrete=False,
    )
    if bad is None:
        return EquivReport(True, horizon, strategy, cases)
    prefix, port, (left, right) = bad
    witness = _witness(c1.in_ports, prefix, port)
    return EquivReport(False, horizon, strategy, cases, witness, left, right)


def _gate_bot_free_total(gate) -> bool:
    """Concrete inputs can never produce a bottom output.

    Wiring passes values through; a strict gate is trusted only when it is
    marked ``bot_free``, and any other has its concrete rows checked.
    """
    if gate.fn.table is not None:  # before the kind: a bot constant is wiring
        return all(
            any(x is BOT for x in t) or all(y is not BOT for y in out)
            for t, out in gate.fn.table.items()
        )
    if gate.kind == KIND_WIRING or gate.bot_free:
        return True
    try:
        check_enumerable(gate.dom)
    except CapError:
        return False
    return all(
        all(y is not BOT for y in gate.fn.fn(t))
        for t in gate.dom.concrete_tuples()
    )


def totality_guarantee(c: Circuit) -> bool:
    """Static sufficient condition for totality at every horizon.

    Requires every cycle to pass a history-reading delay edge, every delay
    init to be concrete, and every gate to keep concrete inputs concrete.
    When it holds, each tick's cut graph is acyclic over defined values, so
    the fixed point fills in bottom-free outputs by induction over ticks.
    SignatureError if ``c`` is not valid.
    """
    for node in check_valid(c).nodes:
        if isinstance(node, (UnitDelay, VarDelay)):
            if node.init is BOT:
                return False
        elif not _gate_bot_free_total(node):
            return False
    return is_contractive(c)
