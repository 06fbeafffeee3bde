"""Structural circuit IR: gate nodes, delay nodes, and explicit feedback wires.

A circuit is a bipartite wiring: every node input, feedback wire, and output
port names its source, which is either a circuit input, a node output port,
or a feedback wire.  Feedback wires are the only legal way to close a cycle;
``validate`` rejects any cycle in the node graph that is not routed through
one.  A gate or variable delay is one fixed function ``tick`` of its input
values followed by its ``depth`` latest committed history values, oldest
first, and a unit delay outputs its one committed value: a delay's history
is data a tick reads, never the tick number.  ``comb.denote`` refuses
circuits that contain delays.
"""

from __future__ import annotations

import json
from typing import Callable, TypeAlias

from .domain import BOT, BaseType, LValue, Record, Signature, SignatureError, int_range
from .gates import GateDef


class SrcIn(Record):
    """Value of a circuit input port."""

    index: int


class SrcNode(Record):
    """Value of one output port of a node."""

    node: int
    port: int


class SrcLoop(Record):
    """Value of a feedback wire."""

    index: int


Source: TypeAlias = "SrcIn | SrcNode | SrcLoop"


class UnitDelay(Record):
    """One-tick delay: emits ``init`` at tick 0, then last tick's input.

    Like a gate it has ``dom``, ``cod`` and ``name``, and its ``depth`` is
    one committed value.  Its output is that value, so ``comb`` never
    sweeps it: whatever reads its output reads that history slot.
    """

    base: BaseType
    init: LValue = BOT

    name = "delay"
    depth = 1

    def __post_init__(self) -> None:
        self.base.check_member(self.init)

    @property
    def dom(self) -> Signature:
        return Signature((self.base,))

    cod = dom

    def reads_history(self, port: int) -> bool:
        return True


class VarDelay(Record):
    """Data-dependent delay: reads its input stream ``d`` ticks back.

    Input ports are (s, d).  A delay of 0 passes the current value through
    and participates in the tick's fixed point; a delay of k >= 1 reads
    committed history and never feeds a combinational cycle.  ``d_base`` is
    the base type of the d port; its values must be exactly d_min..d_max.
    """

    base: BaseType
    d_min: int
    d_max: int
    init: LValue = BOT
    d_base: BaseType | None = None

    name = "vardelay"

    def __post_init__(self) -> None:
        if not 0 <= self.d_min <= self.d_max:
            raise SignatureError(
                f"bad delay range {self.d_min}..{self.d_max}; need 0 <= min <= max"
            )
        self.base.check_member(self.init)
        if self.d_base is None:
            object.__setattr__(self, "d_base", int_range(self.d_min, self.d_max))
        if self.d_base.values != tuple(range(self.d_min, self.d_max + 1)):
            raise SignatureError(
                f"d port type {self.d_base.name!r} must have values exactly "
                f"{self.d_min}..{self.d_max}"
            )

    @property
    def dom(self) -> Signature:
        return Signature((self.base, self.d_base))

    @property
    def cod(self) -> Signature:
        return Signature((self.base,))

    @property
    def depth(self) -> int:
        return self.d_max

    def reads_history(self, port: int) -> bool:
        # The chosen amount is needed this tick, so the d port never does.
        return port == 0 and self.d_min >= 1

    def tick(self, args: tuple) -> tuple:
        """``args`` is (s, d) followed by the ``d_max`` committed values of s.

        An undefined d yields an undefined output; d = 0 passes s through;
        d = k >= 1 reads k ticks back, which is ``init`` while the run is
        younger, as the history starts as ``init`` repeated."""
        d = args[1]
        if d is BOT:
            return (BOT,)
        if not isinstance(d, int) or not self.d_min <= d <= self.d_max:
            raise SignatureError(
                f"delay amount {d!r} outside {self.d_min}..{self.d_max}"
            )
        return (args[-d] if d else args[0],)


Node: TypeAlias = "GateDef | UnitDelay | VarDelay"


def base_types(c: Circuit):
    """Every base type ``c`` uses, with repeats: ports, feedback wires, then
    each node's inputs and outputs in node order."""
    yield from c.in_ports
    yield from c.out_ports
    for lw in c.loops:
        yield lw.base
    for node in c.nodes:
        yield from node.dom
        yield from node.cod


class LoopWire(Record):
    """A feedback wire: carries ``src`` from this tick's fixed point back around."""

    base: BaseType
    src: Source


class Circuit(Record):
    """Ports, nodes with their input sources, output sources and feedback wires."""

    in_ports: Signature
    out_ports: Signature
    nodes: tuple[Node, ...] = ()
    node_inputs: tuple[tuple[Source, ...], ...] = ()
    outputs: tuple[Source, ...] = ()
    loops: tuple[LoopWire, ...] = ()
    in_names: tuple[str, ...] | None = None
    out_names: tuple[str, ...] | None = None

    def has_delays(self) -> bool:
        return any(isinstance(n, (UnitDelay, VarDelay)) for n in self.nodes)


def in_port_names(c: Circuit) -> tuple[str, ...]:
    if c.in_names is not None:
        return c.in_names
    return tuple(f"a{i}" for i in range(len(c.in_ports)))


def out_port_names(c: Circuit) -> tuple[str, ...]:
    if c.out_names is not None:
        return c.out_names
    return tuple(f"y{i}" for i in range(len(c.out_ports)))


def _source_base(c: Circuit, src: Source) -> BaseType | None:
    """The base type of the wire ``src`` reads, or None if it reads none."""
    if isinstance(src, SrcNode):
        if not 0 <= src.node < len(c.nodes):
            return None
        wires, i = c.nodes[src.node].cod.wires, src.port
    elif isinstance(src, SrcIn):
        wires, i = c.in_ports.wires, src.index
    else:
        if not 0 <= src.index < len(c.loops):
            return None
        return c.loops[src.index].base
    return wires[i] if 0 <= i < len(wires) else None


class Diagnostic(Record):
    """One fault found in a circuit: the part it is in and what is wrong."""

    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


def _check_sink(
    c: Circuit, src: Source, want: BaseType, out: list, where: str, *args
) -> None:
    """Report a fault in wiring ``src`` to a sink of type ``want``.  The
    sink's label, ``where.format(*args)``, is built only for a fault."""
    got = _source_base(c, src)
    if got is None:
        msg = f"source {src!r} does not exist"
    elif got is want or got == want:
        return
    else:
        msg = f"type mismatch: needs {want.name}, wired to {got.name}"
    out.append(Diagnostic(where.format(*args), msg))


def _walk(edges: list[list[int]]) -> tuple[list[int], list[int] | None]:
    """One depth-first walk of a directed graph: its vertices in the order
    it leaves them, and the first cycle it meets as a closed vertex path,
    or None.  Roots in index order, edges in list order; the first edge back
    into the current path closes the cycle, and the walk goes on.  So an
    edge's target is left before its source unless the two share a cycle.
    Iterative, so path length is not bounded by the call stack."""
    color = [0] * len(edges)  # 0 unvisited, 1 on the path, 2 left
    order, cycle = [], None
    for root in range(len(edges)):
        if color[root]:
            continue
        color[root] = 1
        path, todo = [root], [iter(edges[root])]  # per path vertex, its edges left
        while path:
            w = next(todo[-1], None)
            if w is None:
                color[path[-1]] = 2
                order.append(path.pop())
                todo.pop()
            elif color[w] == 0:
                color[w] = 1
                path.append(w)
                todo.append(iter(edges[w]))
            elif color[w] == 1 and cycle is None:
                cycle = path[path.index(w):] + [w]
    return order, cycle


def _wiring_cycle(c: Circuit, cut_history: bool) -> tuple[str, ...] | None:
    """A cycle of the wiring graph, as a tuple of vertex labels, or None.

    Vertices are nodes and feedback wires; edges run from each node input
    and feedback wire to its source.  With ``cut_history`` (contractivity)
    the node inputs that read committed history are cut; without it
    (validation) the feedback wires are.
    """
    n = len(c.nodes)

    def src_vert(src: Source) -> int | None:
        if isinstance(src, SrcNode):
            return src.node
        if isinstance(src, SrcLoop) and cut_history:
            return n + src.index
        return None

    edges: list[list[int]] = [[] for _ in range(n + len(c.loops))]
    for i, (node, ins) in enumerate(zip(c.nodes, c.node_inputs)):
        for p, src in enumerate(ins):
            v = src_vert(src)
            if v is not None and not (cut_history and node.reads_history(p)):
                edges[i].append(v)
    for j, lw in enumerate(c.loops):
        v = src_vert(lw.src)
        if v is not None:
            edges[n + j].append(v)

    def label(v: int) -> str:
        if v < n:
            return f"node {v} ({c.nodes[v].name})"
        return f"feedback wire {v - n}"

    cyc = _walk(edges)[1]
    return None if cyc is None else tuple(map(label, cyc))


def validate(c: Circuit) -> list[Diagnostic]:
    """Structural diagnostics; an empty list means the circuit is well formed."""
    out: list[Diagnostic] = []
    if len(c.node_inputs) != len(c.nodes):
        out.append(
            Diagnostic(
                "circuit",
                f"{len(c.nodes)} nodes but {len(c.node_inputs)} input lists",
            )
        )
        return out
    for i, (node, ins) in enumerate(zip(c.nodes, c.node_inputs)):
        want = node.dom.wires
        if len(ins) != len(want):
            out.append(
                Diagnostic(
                    f"node {i} ({node.name})",
                    f"has {len(ins)} inputs, needs {len(want)}",
                )
            )
            continue
        for p, (src, base) in enumerate(zip(ins, want)):
            _check_sink(c, src, base, out, "node {} ({}) input {}", i, node.name, p)
    if len(c.outputs) != len(c.out_ports):
        out.append(
            Diagnostic(
                "circuit",
                f"{len(c.outputs)} output sources for {len(c.out_ports)} ports",
            )
        )
    else:
        for i, (src, base) in enumerate(zip(c.outputs, c.out_ports.wires)):
            _check_sink(c, src, base, out, "output {}", i)
    for j, lw in enumerate(c.loops):
        _check_sink(c, lw.src, lw.base, out, "feedback wire {}", j)
    if c.in_names is not None and len(c.in_names) != len(c.in_ports):
        out.append(Diagnostic("circuit", "input name list does not match ports"))
    if c.out_names is not None and len(c.out_names) != len(c.out_ports):
        out.append(Diagnostic("circuit", "output name list does not match ports"))
    if not out:
        cyc = _wiring_cycle(c, cut_history=False)
        if cyc is not None:
            out.append(
                Diagnostic(
                    "circuit",
                    "cycle not routed through a feedback wire: " + " -> ".join(cyc),
                )
            )
    return out


_UNSET = object()  # not None: None is a fact too, as a contractive circuit's cycle


def stash(c: Circuit, key: str, make: Callable[[Circuit], object]):
    """``make(c)``, made on first use and kept on the instance as ``key``:
    every fact derived from a frozen circuit is kept here, once.  Keyed on
    the instance, never on equality, as gates built from Python callables
    compare equal whatever they compute; read with ``getattr``, as reading
    ``__dict__`` would slow every later read of the instance's fields."""
    got = getattr(c, key, _UNSET)
    if got is _UNSET:
        got = make(c)
        object.__setattr__(c, key, got)
    return got


def check_valid(c: Circuit) -> Circuit:
    """``c``, or SignatureError if ``validate`` finds fault with it.  The
    verdict is stashed, so a circuit is validated once, on its first
    compile, print or contractivity check, whether parsed or built in Python."""
    diags = stash(c, "_diags", validate)
    if diags:
        raise SignatureError(
            "invalid circuit: " + "; ".join(str(d) for d in diags)
        )
    return c


# ---------------------------------------------------------------------------
# Builders.  Composition and product place the second circuit after the
# first (``_join``), renumbering its nodes and feedback wires; loop closure
# renumbers nothing and turns looped inputs into feedback wires.


def from_gate(g: GateDef) -> Circuit:
    return Circuit(
        in_ports=g.dom,
        out_ports=g.cod,
        nodes=(g,),
        node_inputs=(tuple(SrcIn(i) for i in range(len(g.dom))),),
        outputs=tuple(SrcNode(0, p) for p in range(len(g.cod))),
    )


def identity_circuit(s: Signature) -> Circuit:
    return Circuit(
        in_ports=s,
        out_ports=s,
        outputs=tuple(SrcIn(i) for i in range(len(s))),
    )


def _join(c1: Circuit, c2: Circuit, ins, outs: tuple, **ports) -> Circuit:
    """c1's nodes and feedback wires, then c2's numbered past them, with
    c2's input i read from ``ins(i)`` and ``outs`` before c2's outputs."""
    n1, l1 = len(c1.nodes), len(c1.loops)

    def patch(src: Source) -> Source:
        if isinstance(src, SrcIn):
            return ins(src.index)
        if isinstance(src, SrcNode):
            return SrcNode(src.node + n1, src.port)
        return SrcLoop(src.index + l1)

    return Circuit(
        nodes=c1.nodes + c2.nodes,
        node_inputs=c1.node_inputs
        + tuple(tuple(map(patch, srcs)) for srcs in c2.node_inputs),
        outputs=outs + tuple(map(patch, c2.outputs)),
        loops=c1.loops
        + tuple(LoopWire(lw.base, patch(lw.src)) for lw in c2.loops),
        **ports,
    )


def compose(c1: Circuit, c2: Circuit) -> Circuit:
    """Feed every output of c1 into the matching input of c2."""
    if c1.out_ports != c2.in_ports:
        raise SignatureError(
            f"cannot compose: {c1.out_ports!r} feeds {c2.in_ports!r}"
        )
    return _join(
        c1, c2, c1.outputs.__getitem__, (),
        in_ports=c1.in_ports, out_ports=c2.out_ports,
        in_names=c1.in_names, out_names=c2.out_names,
    )


def tensor(c1: Circuit, c2: Circuit) -> Circuit:
    """Place two circuits side by side, c1's ports first; port names are
    kept only when both circuits name them."""
    i1 = len(c1.in_ports)
    both = lambda a, b: None if a is None or b is None else a + b
    return _join(
        c1, c2, lambda i: SrcIn(i + i1), c1.outputs,
        in_ports=c1.in_ports + c2.in_ports,
        out_ports=c1.out_ports + c2.out_ports,
        in_names=both(c1.in_names, c2.in_names),
        out_names=both(c1.out_names, c2.out_names),
    )


def trace_loop(c: Circuit, k: int) -> Circuit:
    """Close the last k input ports onto the last k output ports as feedback wires."""
    n_in, n_out = len(c.in_ports), len(c.out_ports)
    if not 0 <= k <= min(n_in, n_out):
        raise SignatureError(f"cannot loop {k} wires of a {n_in}-in {n_out}-out circuit")
    keep_in = n_in - k
    keep_out = n_out - k
    if c.in_ports[keep_in:] != c.out_ports[keep_out:]:
        raise SignatureError(
            f"looped ports disagree: {c.in_ports[keep_in:]!r} vs {c.out_ports[keep_out:]!r}"
        )
    l0 = len(c.loops)

    def patch(src: Source) -> Source:
        if isinstance(src, SrcIn) and src.index >= keep_in:
            return SrcLoop(l0 + src.index - keep_in)
        return src

    new_loops = tuple(
        LoopWire(c.in_ports[keep_in + j], patch(c.outputs[keep_out + j]))
        for j in range(k)
    )
    return Circuit(
        in_ports=c.in_ports[:keep_in],
        out_ports=c.out_ports[:keep_out],
        nodes=c.nodes,
        node_inputs=tuple(tuple(patch(s) for s in ins) for ins in c.node_inputs),
        outputs=tuple(patch(s) for s in c.outputs[:keep_out]),
        loops=tuple(LoopWire(lw.base, patch(lw.src)) for lw in c.loops) + new_loops,
        in_names=c.in_names[:keep_in] if c.in_names is not None else None,
        out_names=c.out_names[:keep_out] if c.out_names is not None else None,
    )


# ---------------------------------------------------------------------------
# Contractivity: every cycle must pass a delay input that is guaranteed to
# look only at committed history (``reads_history``).


def delay_free_cycle(c: Circuit) -> tuple[str, ...] | None:
    """The first cycle the walk meets that avoids all history-reading edges,
    as vertex labels, or None; SignatureError if ``c`` is not valid.
    Stashed, so a circuit's contractivity wiring is walked once."""
    return stash(check_valid(c), "_cycle", lambda c: _wiring_cycle(c, cut_history=True))


def is_contractive(c: Circuit) -> bool:
    """True when every cycle passes a delay edge that reads committed history."""
    return delay_free_cycle(c) is None


# ---------------------------------------------------------------------------
# Stable structural dump, for diffing and for showing two circuits distinct.


def _src_json(src: Source):
    if isinstance(src, SrcIn):
        return {"in": src.index}
    if isinstance(src, SrcLoop):
        return {"loop": src.index}
    return {"node": src.node, "port": src.port}


def _value_json(x: LValue):
    return None if x is BOT else x


def _node_json(node: Node) -> dict:
    if isinstance(node, UnitDelay):
        return {"op": "delay", "type": node.base.name, "init": _value_json(node.init)}
    if isinstance(node, VarDelay):
        return {
            "op": "vardelay",
            "type": node.base.name,
            "d_min": node.d_min,
            "d_max": node.d_max,
            "d_type": node.d_base.name,
            "init": _value_json(node.init),
        }
    out: dict = {"op": node.name, "kind": node.kind}
    if node.fn.table is not None:
        out["table"] = sorted(
            (
                [list(map(_value_json, k)), list(map(_value_json, v))]
                for k, v in node.fn.table.items()
            ),
            key=json.dumps,
        )
    if node.concrete_table is not None:
        out["rows"] = sorted(
            ([list(k), list(v)] for k, v in node.concrete_table.items()),
            key=json.dumps,
        )
    return out


def _by_name(what: str, items, check=lambda x: None) -> dict:
    """Each item by its name, SignatureError for two different items that
    share one, as neither a dump nor a print could tell them apart;
    ``check`` refuses an item that would not print, when first met."""
    found: dict = {}
    for x in items:
        old = found.get(x.name)
        if old is None:
            check(x)
            found[x.name] = x
        elif old != x:
            raise SignatureError(f"two {what}s share the name {x.name!r}")
    return found


def to_json(c: Circuit) -> dict:
    """Deterministic structural dump; equal circuits dump equal dicts, and
    SignatureError if two different base types share a name."""
    types = _by_name("base type", base_types(c))
    return {
        "types": {k: list(types[k].values) for k in sorted(types)},
        "in": [
            {"name": nm, "type": b.name}
            for nm, b in zip(in_port_names(c), c.in_ports)
        ],
        "out": [
            {"name": nm, "type": b.name}
            for nm, b in zip(out_port_names(c), c.out_ports)
        ],
        "nodes": [
            dict(_node_json(node), inputs=[_src_json(s) for s in ins])
            for node, ins in zip(c.nodes, c.node_inputs)
        ],
        "loops": [
            {"type": lw.base.name, "src": _src_json(lw.src)} for lw in c.loops
        ],
        "outputs": [_src_json(s) for s in c.outputs],
    }


def dump_json(c: Circuit) -> str:
    return json.dumps(to_json(c), indent=2, sort_keys=False)
