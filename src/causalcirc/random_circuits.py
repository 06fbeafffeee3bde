"""Seeded random circuits for property tests and surveys.

Circuits are built wire-forward: start from the input ports and declared
feedback wires, repeatedly apply a random gate or delay to random available
wires of fitting types, then close every feedback wire from an available
source.  Closing through a unit delay (always done when a contractive
circuit is requested) guarantees every cycle crosses committed history.
Everything is driven by one ``random.Random``, so a seed pins the circuit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .circuit import (
    Circuit,
    LoopWire,
    SrcIn,
    SrcLoop,
    SrcNode,
    UnitDelay,
    VarDelay,
    check_valid,
)
from .domain import BOOL, BOT, BaseType, Signature, int_range
from .gates import (
    and_gate,
    const_gate,
    dup_gate,
    mux_gate,
    not_gate,
    or_gate,
    pand,
    por,
    xor_gate,
)


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the generator; defaults make small boolean circuits."""

    max_inputs: int = 2
    max_nodes: int = 5
    max_loops: int = 2
    max_outputs: int = 2
    p_delay: float = 0.25
    p_vardelay: float = 0.1
    contractive_only: bool = False
    bot_free_inits: bool = False


def _random_init(rng: random.Random, base: BaseType, cfg: GenConfig):
    if cfg.bot_free_inits or rng.random() < 0.5:
        return rng.choice(base.values)
    return BOT


class _Builder:
    def __init__(self, rng: random.Random, cfg: GenConfig):
        self.rng = rng
        self.cfg = cfg
        self.nodes: list = []
        self.node_inputs: list[tuple] = []
        self.avail: list[tuple[object, BaseType]] = []

    def add_node(self, node, srcs) -> SrcNode:
        self.nodes.append(node)
        self.node_inputs.append(tuple(srcs))
        idx = len(self.nodes) - 1
        for p, b in enumerate(node.cod):
            self.avail.append((SrcNode(idx, p), b))
        return SrcNode(idx, 0)

    def pick(self, base: BaseType):
        """A random available source of this type; makes a const if none fits."""
        fits = [sv for sv in self.avail if sv[1] == base]
        if fits and self.rng.random() > 0.1:
            return self.rng.choice(fits)[0]
        value = self.rng.choice(base.values)
        self.add_node(const_gate(base, value), ())
        return self.avail[-1][0]

    def grow(self) -> None:
        rng, cfg = self.rng, self.cfg
        if rng.random() < cfg.p_vardelay:
            d_max = rng.randint(1, 2)
            d_min = rng.randint(1 if cfg.contractive_only else 0, d_max)
            d_base = int_range(d_min, d_max)
            s = self.pick(BOOL)
            d = self.pick(d_base)
            self.add_node(
                VarDelay(BOOL, d_min, d_max, _random_init(rng, BOOL, cfg), d_base),
                (s, d),
            )
            return
        if rng.random() < cfg.p_delay:
            s = self.pick(BOOL)
            self.add_node(UnitDelay(BOOL, _random_init(rng, BOOL, cfg)), (s,))
            return
        gate = rng.choice(
            [
                not_gate(),
                and_gate(),
                or_gate(),
                xor_gate(),
                por(),
                pand(),
                mux_gate(BOOL),
                dup_gate(BOOL),
            ]
        )
        self.add_node(gate, [self.pick(b) for b in gate.dom])


def random_circuit(rng: random.Random, cfg: GenConfig = GenConfig()) -> Circuit:
    """One random boolean circuit; valid by construction."""
    b = _Builder(rng, cfg)
    n_in = rng.randint(0, cfg.max_inputs)
    in_ports = Signature((BOOL,) * n_in)
    for i in range(n_in):
        b.avail.append((SrcIn(i), BOOL))
    n_loops = rng.randint(0, cfg.max_loops)
    for j in range(n_loops):
        b.avail.append((SrcLoop(j), BOOL))
    for _ in range(rng.randint(1, cfg.max_nodes)):
        b.grow()
    loops = []
    delays_allowed = cfg.p_delay > 0 or cfg.p_vardelay > 0
    for j in range(n_loops):
        src = b.pick(BOOL)
        if cfg.contractive_only or (delays_allowed and rng.random() < 0.5):
            src = b.add_node(
                UnitDelay(BOOL, _random_init(rng, BOOL, cfg)), (src,)
            )
        loops.append(LoopWire(BOOL, src))
    n_out = rng.randint(1, cfg.max_outputs)
    outputs = tuple(b.pick(BOOL) for _ in range(n_out))
    c = Circuit(
        in_ports=in_ports,
        out_ports=Signature((BOOL,) * n_out),
        nodes=tuple(b.nodes),
        node_inputs=tuple(b.node_inputs),
        outputs=outputs,
        loops=tuple(loops),
        in_names=tuple(f"a{i}" for i in range(n_in)),
        out_names=tuple(f"y{i}" for i in range(n_out)),
    )
    return check_valid(c)


def random_contractive_circuit(
    rng: random.Random, cfg: GenConfig = GenConfig()
) -> Circuit:
    """A random circuit in which every cycle crosses a history-reading delay."""
    return random_circuit(rng, replace(cfg, contractive_only=True))


def random_delay_free_circuit(
    rng: random.Random, cfg: GenConfig = GenConfig()
) -> Circuit:
    """A random circuit with no delay nodes, for combinational checks."""
    return random_circuit(
        rng, replace(cfg, p_delay=0.0, p_vardelay=0.0, contractive_only=False)
    )
