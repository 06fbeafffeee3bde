"""Delay-free evaluation: the whole wire vector is iterated to a fixed point.

The wire vector lists every node output port, then every feedback wire.
Compiling a circuit resolves every source a node input, feedback wire or
output port reads to one slot of the flat tuple ``inputs + vector``.  One
propagation step (a sweep) recomputes all wires simultaneously from the
previous vector, so the step function is monotone and ``domain``'s Kleene
loop reaches the least fixed point within (wire count)+1 sweeps.
"""

from __future__ import annotations

from typing import Callable

from .circuit import (
    Circuit,
    SrcIn,
    SrcNode,
    UnitDelay,
    VarDelay,
    check_valid,
    node_out_sig,
)
from .domain import BOT, MonotoneFn, SignatureError, WireTuple, _kleene


class Propagator:
    """Precompiled wiring of one circuit for repeated propagation.

    Delay nodes are dispatched through a caller-supplied ``delay_out``
    callback so that the sequential engine can close over its history; the
    combinational evaluator passes none and refuses circuits with delays.
    """

    def __init__(self, c: Circuit):
        base = []
        w = len(c.in_ports)
        for node in c.nodes:
            base.append(w)
            w += len(node_out_sig(node))
        loop_base = w

        def slot(src) -> int:
            if isinstance(src, SrcIn):
                return src.index
            if isinstance(src, SrcNode):
                return base[src.node] + src.port
            return loop_base + src.index

        self.n_wires = w - len(c.in_ports) + len(c.loops)
        self.bot = (BOT,) * self.n_wires
        # Per node: (kind tag, argument slots, gate fn or None); per delay
        # node: its index and the slot of its s input.
        self.plan: list[tuple[bool, tuple[int, ...], Callable | None]] = []
        self.delay_slots: list[tuple[int, int]] = []
        for i, (node, ins) in enumerate(zip(c.nodes, c.node_inputs)):
            slots = tuple(slot(s) for s in ins)
            if isinstance(node, (UnitDelay, VarDelay)):
                self.plan.append((True, slots, None))
                self.delay_slots.append((i, slots[0]))
            else:
                self.plan.append((False, slots, node.fn.fn))
        self.loop_slots = tuple(slot(lw.src) for lw in c.loops)
        self.out_slots = tuple(slot(s) for s in c.outputs)

    def sweep(self, t: tuple, delay_out=None) -> tuple:
        """One simultaneous recomputation of the wire vector from ``t``,
        which is the inputs followed by the previous vector."""
        out = []
        for i, (is_delay, slots, fn) in enumerate(self.plan):
            args = tuple([t[j] for j in slots])
            if is_delay:
                out.append(delay_out(i, args))
            else:
                out.extend(fn(args))
        out.extend([t[j] for j in self.loop_slots])
        return tuple(out)

    def solve(self, inputs: WireTuple, delay_out=None) -> tuple:
        """``inputs`` followed by the least fixed point of the wire vector."""
        sweep = self.sweep
        settle = _kleene(
            lambda t: sweep(t, delay_out), self.bot, "a gate in this circuit"
        )
        return inputs + settle(inputs)

    def outputs(self, settled: tuple) -> WireTuple:
        return tuple([settled[j] for j in self.out_slots])


def propagator(c: Circuit) -> Propagator:
    """The validated, compiled wiring of ``c``, built once per instance.

    The plan is stashed on the instance, like ``Circuit._hash``.  A cache
    keyed on equality would hand one circuit's plan to another: gates built
    from Python callables compare equal whatever they compute.
    """
    prop = c.__dict__.get("_plan")
    if prop is None:
        prop = Propagator(check_valid(c))
        object.__setattr__(c, "_plan", prop)
    return prop


def denote(c: Circuit) -> MonotoneFn:
    """The monotone function a delay-free circuit computes."""
    prop = propagator(c)
    if c.has_delays():
        raise SignatureError("circuit contains delay nodes; simulate it instead")

    def fn(t: WireTuple) -> WireTuple:
        return prop.outputs(prop.solve(t))

    return MonotoneFn(c.in_ports, c.out_ports, fn, "denote")


def eval_comb(c: Circuit, inputs: WireTuple) -> WireTuple:
    """Evaluate a delay-free circuit once, with signature checking."""
    return denote(c).apply(inputs)
