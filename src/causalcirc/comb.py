"""Settling one tick: the whole wire vector is iterated to a fixed point.

The wire vector lists every node output port, then every feedback wire.
Compiling a circuit resolves every source a node input, feedback wire or
output port reads to one slot of the flat tuple ``inputs + vector``, and
each node's inputs to one ``operator.itemgetter`` over those slots.  One
propagation step (a sweep) recomputes all wires simultaneously from the
previous vector, applying each node's function for the tick, gate or delay
alike, so the step function is monotone and ``domain``'s Kleene loop
reaches the least fixed point within (wire count)+1 sweeps.

A gate's function for the tick is a lookup in the gate's table, which is
filled on first use (``GateDef.tick``): a gate's function must be pure, as
it is called at most once per argument tuple for the gate's lifetime.  So
evaluating a gate in a sweep is two calls into C, one to gather its
arguments and one to look them up.
"""

from __future__ import annotations

from operator import itemgetter

from .circuit import Circuit, SrcIn, SrcNode, check_valid
from .domain import BOT, MonotoneFn, SignatureError, WireTuple, _kleene
from .gates import TickFn


class Propagator:
    """Precompiled wiring of one circuit for repeated propagation.

    The plan is ``(get, fn)`` per node: the getter that gathers its
    arguments (the bare value of a one-input node, else a tuple), and its
    function for a tick with no history yet.  ``stateful`` lists the nodes
    that keep history and ``s_slots`` where each one's s input sits; the
    engine swaps in their functions for each tick and commits that slot.
    """

    def __init__(self, c: Circuit):
        base = []
        w = len(c.in_ports)
        for node in c.nodes:
            base.append(w)
            w += len(node.cod)
        loop_base = w

        def slot(src) -> int:
            if isinstance(src, SrcIn):
                return src.index
            if isinstance(src, SrcNode):
                return base[src.node] + src.port
            return loop_base + src.index

        self.n_wires = w - len(c.in_ports) + len(c.loops)
        self.bot = (BOT,) * self.n_wires
        slots = [tuple(slot(s) for s in ins) for ins in c.node_inputs]
        self.gets = [itemgetter(*js) if js else _no_args for js in slots]
        self.fns: list[TickFn] = [node.tick(()) for node in c.nodes]
        self.stateful = tuple(i for i, node in enumerate(c.nodes) if node.depth)
        self.s_slots = tuple(slots[i][0] for i in self.stateful)
        self.loop_slots = tuple(slot(lw.src) for lw in c.loops)
        self.out_slots = tuple(slot(s) for s in c.outputs)

    def sweep(self, t: tuple, fns: list[TickFn]) -> tuple:
        """One simultaneous recomputation of the wire vector from ``t``,
        which is the inputs followed by the previous vector."""
        out = []
        for get, fn in zip(self.gets, fns):
            out.extend(fn(get(t)))
        out.extend([t[j] for j in self.loop_slots])
        return tuple(out)

    def solve(self, inputs: WireTuple, fns: list[TickFn] | None = None) -> tuple:
        """``inputs`` followed by the least fixed point of the wire vector,
        with ``fns`` (by default the no-history plan) as the node functions."""
        if fns is None:
            fns = self.fns
        sweep = self.sweep
        settle = _kleene(lambda t: sweep(t, fns), self.bot, "a gate in this circuit")
        return inputs + settle(inputs)

    def outputs(self, settled: tuple) -> WireTuple:
        return tuple([settled[j] for j in self.out_slots])


def _no_args(t: tuple) -> tuple:
    return ()


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
