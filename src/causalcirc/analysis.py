"""Bounded-horizon checks: totality, observational equivalence, and a static
sufficient condition for totality.

Totality here means: every bottom-free input trace up to the horizon yields
a bottom-free output trace.  Causality makes full-length traces enough to
check; any shorter run is a prefix of one.  Equivalence compares two
circuits on every input trace, undefined cells included.  Both checks run
exhaustively when the trace space fits the budget and seeded-random
otherwise, and both report a minimal witness under the enumeration order
(first failing trace, then earliest tick, then lowest port index).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .circuit import Circuit, UnitDelay, VarDelay, is_contractive
from .domain import BOT, CapError, Signature, SignatureError, check_enumerable
from .engine import PrefixTrace, random_trace, simulate
from .gates import KIND_STRICT, KIND_WIRING


@dataclass(frozen=True)
class Witness:
    """One failing input trace and the first bad cell it produces."""

    inputs: PrefixTrace
    tick: int
    port: int

    def to_json(self) -> dict:
        return {
            "inputs": [
                [None if x is BOT else x for x in row] for row in self.inputs.rows
            ],
            "tick": self.tick,
            "port": self.port,
        }


@dataclass(frozen=True)
class TotalityReport:
    total: bool
    horizon: int
    strategy: str
    cases: int
    witness: Witness | None = None

    def to_json(self) -> dict:
        out = {
            "check": "totality",
            "total": self.total,
            "horizon": self.horizon,
            "strategy": self.strategy,
            "cases": self.cases,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


@dataclass(frozen=True)
class EquivReport:
    equivalent: bool
    horizon: int
    strategy: str
    cases: int
    witness: Witness | None = None
    left: tuple = ()
    right: tuple = ()

    def to_json(self) -> dict:
        out = {
            "check": "equivalence",
            "equivalent": self.equivalent,
            "horizon": self.horizon,
            "strategy": self.strategy,
            "cases": self.cases,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
            out["left"] = [None if x is BOT else x for x in self.left]
            out["right"] = [None if x is BOT else x for x in self.right]
        return out


def _trace_space(s: Signature, horizon: int, concrete: bool) -> int:
    per_row = s.concrete_count() if concrete else s.count()
    return per_row**horizon


def _iter_traces(s: Signature, horizon: int, concrete: bool):
    rows = list(s.concrete_tuples() if concrete else s.tuples())
    for combo in itertools.product(rows, repeat=horizon):
        yield PrefixTrace(s, combo)


def _first_bot(trace: PrefixTrace) -> tuple[int, int] | None:
    for t, row in enumerate(trace.rows):
        for p, x in enumerate(row):
            if x is BOT:
                return (t, p)
    return None


def _witness(tr: PrefixTrace, bad: tuple[int, int]) -> Witness:
    # Outputs through tick t depend only on inputs through tick t, so the
    # reported trace is cut there.
    t, p = bad
    return Witness(tr.prefix(t + 1), t, p)


def check_totality(
    c: Circuit,
    horizon: int,
    strategy: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    max_cases: int = 200_000,
) -> TotalityReport:
    """Do bottom-free input traces stay bottom-free through the circuit?"""
    if strategy == "exhaustive":
        space = _trace_space(c.in_ports, horizon, concrete=True)
        if space > max_cases:
            raise CapError(
                f"{space} input traces exceed the budget of {max_cases}; "
                "use the random strategy"
            )
        cases = 0
        for tr in _iter_traces(c.in_ports, horizon, concrete=True):
            cases += 1
            bad = _first_bot(simulate(c, tr, horizon))
            if bad is not None:
                return TotalityReport(
                    False, horizon, strategy, cases, _witness(tr, bad)
                )
        return TotalityReport(True, horizon, strategy, cases)
    if strategy == "random":
        rng = random.Random(seed)
        for i in range(samples):
            tr = random_trace(rng, c.in_ports, horizon, p_bot=0.0)
            bad = _first_bot(simulate(c, tr, horizon))
            if bad is not None:
                return TotalityReport(
                    False, horizon, strategy, i + 1, _witness(tr, bad)
                )
        return TotalityReport(True, horizon, strategy, samples)
    raise ValueError(f"unknown strategy {strategy!r}")


def _first_mismatch(a: PrefixTrace, b: PrefixTrace) -> tuple[int, int] | None:
    for t, (r1, r2) in enumerate(zip(a.rows, b.rows)):
        for p, (x, y) in enumerate(zip(r1, r2)):
            if x is not y and x != y:
                return (t, p)
    return None


def check_equiv(
    c1: Circuit,
    c2: Circuit,
    horizon: int,
    strategy: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    max_cases: int = 200_000,
    p_bot: float = 0.25,
) -> EquivReport:
    """Do two circuits emit identical output traces up to the horizon?

    Inputs range over lifted tuples, so disagreement on partially undefined
    inputs counts.  The circuits must share both port signatures.
    """
    if c1.in_ports != c2.in_ports or c1.out_ports != c2.out_ports:
        raise SignatureError(
            f"circuits have different port signatures: {c1.in_ports!r} -> "
            f"{c1.out_ports!r} vs {c2.in_ports!r} -> {c2.out_ports!r}"
        )
    if strategy == "exhaustive":
        space = _trace_space(c1.in_ports, horizon, concrete=False)
        if space > max_cases:
            raise CapError(
                f"{space} input traces exceed the budget of {max_cases}; "
                "use the random strategy"
            )
        it = _iter_traces(c1.in_ports, horizon, concrete=False)
        total = None
    elif strategy == "random":
        rng = random.Random(seed)
        it = (
            random_trace(rng, c1.in_ports, horizon, p_bot=p_bot)
            for _ in range(samples)
        )
        total = samples
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    cases = 0
    for tr in it:
        cases += 1
        o1 = simulate(c1, tr, horizon)
        o2 = simulate(c2, tr, horizon)
        bad = _first_mismatch(o1, o2)
        if bad is not None:
            t, p = bad
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


def _gate_bot_free_total(gate) -> bool:
    """Concrete inputs can never produce a bottom output."""
    if gate.kind in (KIND_STRICT, KIND_WIRING):
        return True
    if gate.fn.table is not None:
        return all(
            any(x is BOT for x in t) or all(y is not BOT for y in out)
            for t, out in gate.fn.table.items()
        )
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
    """
    for node in c.nodes:
        if isinstance(node, (UnitDelay, VarDelay)):
            if node.init is BOT:
                return False
        elif not _gate_bot_free_total(node):
            return False
    return is_contractive(c)
