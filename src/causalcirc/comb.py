"""Settling one tick: the whole wire vector is iterated to a fixed point.

A tick reads one flat tuple: the input row; each stateful node's ``depth``
committed history values, oldest first; and the wire vector, every node
output port and then every feedback wire.  Only this module knows that
layout.  Compiling resolves every source a node input, feedback wire or
output port reads to one slot, and each node's inputs, followed by its
history, to one ``operator.itemgetter``.  One propagation step (a sweep)
recomputes all wires simultaneously from the previous vector, applying each
node's fixed ``tick``, gate or delay alike, so the step function is
monotone and ``domain``'s Kleene loop reaches the least fixed point within
(wire count)+1 sweeps.

A gate's ``tick`` is a lookup in its table, filled on first use
(``GateDef.tick``): a gate's function must be pure, as it is called at most
once per argument tuple for the gate's lifetime.  So evaluating a node in a
sweep is two calls, one to gather its arguments and one to apply it.
"""

from __future__ import annotations

from operator import itemgetter

from .circuit import Circuit, SrcIn, SrcNode, check_valid
from .domain import BOT, MonotoneFn, SignatureError, WireTuple, _kleene


class Propagator:
    """Precompiled wiring of one circuit for repeated propagation.

    The plan is ``(get, tick)`` per node: the getter that gathers its
    arguments (the bare value of a one-input gate, else a tuple) and its
    ``tick``.  ``init`` is the history before the first tick: each node's
    ``init``, ``depth`` times.
    """

    def __init__(self, c: Circuit):
        k = len(c.in_ports)
        w = lo = k + sum(node.depth for node in c.nodes)
        hist, base = [], []  # per node: its history slots, its first output
        for node in c.nodes:
            hist.append(tuple(range(k, k + node.depth)))
            k += node.depth
            base.append(w)
            w += len(node.cod)
        loop_base = w

        def slot(src) -> int:
            if isinstance(src, SrcIn):
                return src.index
            if isinstance(src, SrcNode):
                return base[src.node] + src.port
            return loop_base + src.index

        self.n_wires = w - lo + len(c.loops)
        self.bot = (BOT,) * self.n_wires
        self.init = tuple(n.init for n in c.nodes for _ in range(n.depth))
        slots = [tuple(slot(s) for s in ins) for ins in c.node_inputs]
        self.plan = [
            (itemgetter(*(s + h)) if s + h else lambda t: (), node.tick)
            for s, h, node in zip(slots, hist, c.nodes)
        ]
        # Each node's history drops its oldest value and gains its s input.
        self.commit_slots = tuple(
            j for s, h in zip(slots, hist) if h for j in h[1:] + s[:1]
        )
        self.loop_slots = tuple(slot(lw.src) for lw in c.loops)
        self.out_slots = tuple(slot(s) for s in c.outputs)

    def sweep(self, t: tuple) -> tuple:
        """One simultaneous recomputation of the wire vector from ``t``,
        which is the inputs, the history and the previous vector."""
        out = []
        for get, tick in self.plan:
            out.extend(tick(get(t)))
        out.extend([t[j] for j in self.loop_slots])
        return tuple(out)

    def solve(self, t: tuple) -> tuple:
        """``t`` (the inputs followed by the history) followed by the least
        fixed point of the wire vector."""
        return t + _kleene(self.sweep, self.bot, "a gate in this circuit")(t)

    def commit(self, settled: tuple) -> tuple:
        """The history after the tick ``settled``, as ``solve`` gave it."""
        return tuple([settled[j] for j in self.commit_slots])

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
