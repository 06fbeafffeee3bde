"""Settling one tick: the swept wire vector is iterated to a fixed point.

A tick reads one flat tuple: the input row; each stateful node's ``depth``
committed history values, oldest first; and the wire vector.  The wire
vector holds the output ports of every swept node, that is every node but
the unit delays, in node order, and then, only when some feedback wire
reaches nothing but feedback wires, one slot that is always ⊥.  Only this
module knows that layout.

Compiling resolves every source a node input, history commit or output
port reads to one slot.  A unit delay's output is its one history slot: its
value at a tick is fixed by the tick before, so it is no unknown of this
tick's fixed point.  A feedback wire is the slot of the source that its
chain of feedback wires finally reaches, which by Bekić's lemma leaves the
least fixed point unchanged, or the ⊥ slot when the chain only returns to
feedback wires; the chains are resolved in the order ``circuit``'s walk
leaves the wires.  So neither is recomputed per sweep.  Each swept node's
inputs, followed by its history, are gathered by one
``operator.itemgetter``.  One propagation step (a sweep) recomputes all
swept wires simultaneously from the previous vector, applying each node's
fixed ``tick``, gate or variable delay alike, so the step function is
monotone and ``domain``'s Kleene loop reaches the least fixed point within
(swept wire count)+1 sweeps.

A gate's ``tick`` is a lookup in its table, filled on first use
(``GateDef.tick``): a gate's function must be pure, as it is called at most
once per argument tuple for the gate's lifetime.  So evaluating a node in a
sweep is two calls, one to gather its arguments and one to apply it.

Everything else a tick reuses is built once per compiled circuit too: the
Kleene settle, and the gathers of the histories a tick commits and of its
outputs.  A tick then allocates only its tuples.
"""

from __future__ import annotations

from operator import itemgetter

from .circuit import Circuit, SrcIn, SrcLoop, UnitDelay, _walk, check_valid, stash
from .domain import BOT, MonotoneFn, SignatureError, WireTuple, _kleene


def _gather(slots: tuple):
    """The function from a tuple to the tuple of its values at ``slots``,
    in one C call.  An itemgetter of one index returns the bare value, so
    one slot, or none, is read as a slice."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        return itemgetter(slice(slots[0], slots[0] + 1))
    return itemgetter(slice(0, 0))


class Propagator:
    """Precompiled wiring of one circuit for repeated propagation.

    The plan is ``(get, tick)`` per swept node, every node but the unit
    delays: the getter that gathers its arguments (the bare value of a
    one-input gate, else a tuple) and its ``tick``; when the wire vector
    has the constant-⊥ slot, one last entry yields it.  ``n_wires`` counts
    the swept nodes' output ports, and ``bot``, the vector a solve starts
    from, is that many ⊥ plus the ⊥ slot if any.  ``init`` is the history
    before the first tick: each node's ``init``, ``depth`` times.
    ``commit`` and ``outputs`` gather, from a settled tuple, the histories
    a tick commits and its output row.  All of it, the Kleene settle
    included, is built once here and reused by every tick.
    """

    def __init__(self, c: Circuit):
        k = len(c.in_ports)
        lo = k + sum(node.depth for node in c.nodes)
        # The first source on each feedback wire's chain that is not a
        # feedback wire, or BOT: in leave order, a wire takes what the wire
        # it reads took, or BOT when that wire is still on the walk's path.
        reads = [[lw.src.index] if isinstance(lw.src, SrcLoop) else [] for lw in c.loops]
        reach = [None] * len(c.loops)
        for j in _walk(reads)[0]:
            src = c.loops[j].src
            if isinstance(src, SrcLoop):
                src = reach[src.index]
            reach[j] = BOT if src is None else src
        w = lo
        hist, base = [], []  # per node: its history slots, its first output
        for node in c.nodes:
            hist.append(tuple(range(k, k + node.depth)))
            k += node.depth
            if isinstance(node, UnitDelay):
                base.append(hist[-1][0])  # its output is its committed value
            else:
                base.append(w)
                w += len(node.cod)

        def slot(src) -> int:
            if isinstance(src, SrcLoop):
                src = reach[src.index]
            if src is BOT:
                return w  # the constant-⊥ slot, after the swept outputs
            if isinstance(src, SrcIn):
                return src.index
            return base[src.node] + src.port

        self.n_wires = w - lo
        has_bot = BOT in reach
        self.bot = (BOT,) * (self.n_wires + has_bot)
        self.init = tuple(n.init for n in c.nodes for _ in range(n.depth))
        slots = [tuple(slot(s) for s in ins) for ins in c.node_inputs]
        self.plan = [
            (itemgetter(*(s + h)) if s + h else lambda t: (), node.tick)
            for s, h, node in zip(slots, hist, c.nodes)
            if not isinstance(node, UnitDelay)
        ]
        if has_bot:
            self.plan.append((lambda t: (), lambda _: (BOT,)))
        # Each node's history drops its oldest value and gains its s input.
        self.commit = _gather(
            tuple(j for s, h in zip(slots, hist) if h for j in h[1:] + s[:1])
        )
        self.outputs = _gather(tuple(slot(s) for s in c.outputs))
        # The settle is built here, once; ``solve`` hands it the sweep
        # looked up per call, so a patched ``sweep`` still runs.
        self._settle = _kleene(None, self.bot, "a gate in this circuit")

    def sweep(self, t: tuple) -> tuple:
        """One simultaneous recomputation of the wire vector from ``t``,
        which is the inputs, the history and the previous vector."""
        out = []
        for get, tick in self.plan:
            out.extend(tick(get(t)))
        return tuple(out)

    def solve(self, t: tuple) -> tuple:
        """``t`` (the inputs followed by the history) followed by the least
        fixed point of the wire vector, by the Kleene settle built with the
        plan, iterating ``self.sweep``."""
        return t + self._settle(t, self.sweep)

    def tick(self, histories: tuple, row: WireTuple) -> tuple[tuple, WireTuple]:
        """One tick from the committed ``histories`` on the input ``row``,
        which is not checked: the histories it commits and its outputs.
        It builds no function: the settle and both gathers come with the plan."""
        settled = self.solve(row + histories)
        return self.commit(settled), self.outputs(settled)


def propagator(c: Circuit) -> Propagator:
    """The validated, compiled wiring of ``c``, built once per instance
    and kept by ``circuit.stash``, like ``check_valid``'s verdict."""
    return stash(c, "_plan", lambda c: Propagator(check_valid(c)))


def denote(c: Circuit) -> MonotoneFn:
    """The monotone function a delay-free circuit computes."""
    prop = propagator(c)
    if c.has_delays():
        raise SignatureError("circuit contains delay nodes; simulate it instead")

    def fn(t: WireTuple) -> WireTuple:
        return prop.outputs(prop.solve(t))

    return MonotoneFn(c.in_ports, c.out_ports, fn, "denote")
