"""Sequential simulation: one least fixed point per tick, history committed after.

A run consumes a prefix trace (one input tuple per tick) and produces the
output trace of the same length.  A tick is one fixed function of the
input row and the committed delay history, which ``comb`` lays out and
settles: a unit delay outputs its committed value, so every combinational
cycle that passes one is broken, and a variable delay asked for 0 ticks of
delay passes its current input through and stays inside the tick's fixed
point.  History is committed only after the tick settles, which is what
makes the semantics causal: the first n output rows depend only on the
first n input rows.
"""

from __future__ import annotations

import random

from .circuit import Circuit
from .comb import propagator
from .domain import (
    BOT,
    LValue,
    Record,
    Signature,
    SignatureError,
    WireTuple,
)


class PrefixTrace(Record):
    """A finite run of wire tuples, one per tick."""

    signature: Signature
    rows: tuple[WireTuple, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for r in self.rows:
            self.signature.check(r)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> WireTuple:
        return self.rows[i]

    def prefix(self, n: int) -> "PrefixTrace":
        if not 0 <= n <= len(self.rows):
            raise SignatureError(
                f"a length-{len(self.rows)} trace has no prefix of length {n}"
            )
        return PrefixTrace(self.signature, self.rows[:n])


def bot_trace(signature: Signature, ticks: int) -> PrefixTrace:
    return PrefixTrace(signature, ((BOT,) * len(signature),) * ticks)


class SimState(Record):
    """Committed delay history after ``t`` ticks.

    ``histories`` is the committed delay history, one flat tuple laid out
    by ``comb``.  A tick is a function of the histories and the input row
    alone; ``t`` only counts ticks.
    """

    circuit: Circuit
    histories: tuple[LValue, ...]
    t: int = 0


def initial_state(c: Circuit) -> SimState:
    return SimState(c, propagator(c).init)


def step(state: SimState, inputs: WireTuple) -> tuple[SimState, WireTuple]:
    """Run one tick: settle the wire vector, emit outputs, commit history."""
    c = state.circuit
    prop = propagator(c)
    c.in_ports.check(inputs)
    histories, outs = prop.tick(state.histories, inputs)
    return SimState(c, histories, state.t + 1), outs


def simulate(c: Circuit, inputs: PrefixTrace, ticks: int | None = None) -> PrefixTrace:
    """Run the circuit over an input trace and collect the output trace."""
    if inputs.signature != c.in_ports:
        raise SignatureError(
            f"input trace over {inputs.signature!r} does not fit {c.in_ports!r}"
        )
    if ticks is None:
        ticks = len(inputs)
    if ticks < 0:
        raise SignatureError(f"ticks must be at least 0, got {ticks}")
    if len(inputs) < ticks:
        raise SignatureError(
            f"input trace has {len(inputs)} ticks, {ticks} requested"
        )
    state = initial_state(c)
    rows = []
    for t in range(ticks):
        state, out = step(state, inputs[t])
        rows.append(out)
    return PrefixTrace(c.out_ports, tuple(rows))


def random_rows(
    rng: random.Random, signature: Signature, ticks: int, p_bot: float = 0.0
) -> tuple[WireTuple, ...]:
    """``ticks`` seeded random rows over ``signature``, each cell undefined
    with probability ``p_bot`` and otherwise one of its wire's values, so
    every row fits the signature as drawn."""
    draw, choice = rng.random, rng.choice
    values = [b.values for b in signature.wires]
    return tuple([
        tuple([BOT if draw() < p_bot else choice(v) for v in values])
        for _ in range(ticks)
    ])


def random_trace(
    rng: random.Random, signature: Signature, ticks: int, p_bot: float = 0.0
) -> PrefixTrace:
    """Seeded random trace of ``random_rows``."""
    return PrefixTrace(signature, random_rows(rng, signature, ticks, p_bot))
