"""Seeded inputs for the benchmark, as netlist and stream text.

This module imports nothing from the package under test, so the inputs stay
byte-identical however the package changes.  Each workload draws from a pool
of items; item ``i`` is generated from its own seed string, and its reference
outputs are recorded in ``golden.json``.  A run's ``--seed`` only chooses
which pool items make up the corpus and in which order, so every seed is
covered by recorded digests.  Pools are stratified by cost so that corpora
drawn with different seeds carry about the same amount of work.
"""

from __future__ import annotations

import hashlib
import random

# sim-deep: a pool of deep contractive netlists with one input stream each.
SIM_POOL = 12
SIM_PICK = 4
SIM_INPUTS = 4
SIM_STAGE = 140  # gates per delay-free chain; sets the per-tick depth
SIM_REGS = 4
SIM_TICKS = 25

# check-bounded: small random circuits, generated in strata of (input width,
# node count) and drawn in strata of (input width, recorded reference time).
CHK_WIDTHS = (2, 3)
CHK_SIZES = (8, 10, 12, 14, 16)
CHK_PER_STRATUM = 8
CHK_POOL = len(CHK_WIDTHS) * len(CHK_SIZES) * CHK_PER_STRATUM
CHK_STRATUM = 2
REPO_CIRCUITS = (
    "diag_left",
    "diag_right",
    "rearrange_left",
    "rearrange_right",
    "wobble",
)
REPO_PAIRS = (("diag_left", "diag_right"), ("rearrange_left", "rearrange_right"))

_STRICT2 = ("and", "or", "xor", "nand", "nor")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _bits(rng: random.Random, n: int) -> str:
    return ",".join(str(rng.randrange(2)) for _ in range(n))


def sim_item(i: int) -> tuple[str, str]:
    """Netlist and input stream text of sim-deep pool item ``i``.

    Two chains of ``SIM_STAGE`` strict gates each, so one tick has a
    delay-free path of about that depth.  The first chain reads the inputs
    and a feedback wire through a unit delay; unit delays register taps of
    it for the second chain, which also reads a ``vardelay`` with
    ``min=1``.  The second chain's last gate closes the feedback wire.
    Gates are listed in dependency order.  Input cells are all defined: an
    undefined cell would enter the feedback wire and leave the first chain
    undefined, and so shallow, for the rest of the run.
    """
    rng = random.Random(f"sim-deep:{i}")
    ins = [f"a{k}" for k in range(SIM_INPUTS)]
    lines = [
        f"# sim-deep pool item {i}",
        "type d1_2 = int 1..2",
        "circuit main {",
        "  in " + ", ".join(f"{a}: bool" for a in ins),
        "  out y0: bool, y1: bool, y2: bool, y3: bool",
        "  loop w: bool",
        "  r = delay(w, init=0)",
    ]

    def chain(prefix: str, sources: list[str], first: str) -> list[str]:
        # Fixed counts of each gate shape, shuffled: strict gates stop at the
        # first undefined argument, so the share of gates reading the chain
        # first, and of side arguments from outside the chain, sets the cost
        # of a sweep.  Equal counts keep pool items equally expensive.
        n_not = SIM_STAGE // 10
        n_bin = SIM_STAGE - n_not
        shapes = ["not"] * n_not + ["prev"] * (n_bin // 2) + ["side"] * (n_bin - n_bin // 2)
        outside = [True] * (n_bin * 3 // 10)
        outside += [False] * (n_bin - len(outside))
        rng.shuffle(shapes)
        rng.shuffle(outside)
        names: list[str] = []
        prev = first
        for j, shape in enumerate(shapes):
            name = f"{prefix}{j}"
            if shape == "not":
                lines.append(f"  {name} = not({prev})")
            else:
                from_outside = outside.pop()
                side = rng.choice(sources if from_outside or j < 2 else names[:-1])
                a, b = (prev, side) if shape == "prev" else (side, prev)
                lines.append(f"  {name} = {rng.choice(_STRICT2)}({a}, {b})")
            names.append(name)
            prev = name
        return names

    u = chain("u", ins + ["r"], "r")
    regs = []
    for k in range(SIM_REGS):
        tap = u[(k + 1) * SIM_STAGE // (SIM_REGS + 1)]
        lines.append(f"  q{k} = delay({tap}, init={rng.randrange(2)})")
        regs.append(f"q{k}")
    lines.append("  m = mux[d1_2](a1, 1, 2)")
    lines.append(f"  v = vardelay({u[-1]}, m, min=1, max=2, init=0)")
    s = chain("s", ins + regs + ["v"], "v")
    lines += [
        f"  w = {s[-1]}",
        f"  y0 = {u[-1]}",
        f"  y1 = {s[-1]}",
        "  y2 = v",
        f"  y3 = por({u[SIM_STAGE // 2]}, {s[SIM_STAGE // 2]})",
        "}",
    ]
    rows = [",".join(ins)] + [
        _bits(rng, SIM_INPUTS) for _ in range(SIM_TICKS)
    ]
    return "\n".join(lines) + "\n", "\n".join(rows) + "\n"


def chk_stratum(i: int) -> tuple[int, int]:
    """(input width, node count) of check-bounded pool item ``i``."""
    k = i % (len(CHK_WIDTHS) * len(CHK_SIZES))
    return CHK_WIDTHS[k % len(CHK_WIDTHS)], CHK_SIZES[k // len(CHK_WIDTHS)]


def chk_item(i: int) -> str:
    """Netlist text of check-bounded pool item ``i``.

    Bool gates, unit delays (some with an undefined init) and one or two
    feedback wires.  A feedback wire closed without a delay on its cycle
    gives a delay-free cycle, settled through ``por``/``pand`` or left
    undefined by strict gates, so some items are not total.
    """
    rng = random.Random(f"check-bounded:{i}")
    n_in, n_nodes = chk_stratum(i)
    n_loops = 1 + rng.randrange(2)
    ins = [f"a{k}" for k in range(n_in)]
    loops = [f"w{k}" for k in range(n_loops)]
    lines = [
        f"# check-bounded pool item {i}",
        "circuit main {",
        "  in " + ", ".join(f"{a}: bool" for a in ins),
        "  out y0: bool, y1: bool",
    ] + [f"  loop {w}: bool" for w in loops]
    avail = ins + loops
    for j in range(n_nodes):
        name = f"n{j}"
        recent = avail[-4:]

        def arg() -> str:
            return rng.choice(recent if rng.random() < 0.6 else avail)

        r = rng.random()
        if r < 0.2:
            init = rng.choice(("0", "1", "0", "1", "0", "1", "bot"))
            lines.append(f"  {name} = delay({arg()}, init={init})")
        elif r < 0.3:
            lines.append(f"  {name} = not({arg()})")
        elif r < 0.65:
            lines.append(f"  {name} = {rng.choice(('por', 'pand'))}({arg()}, {arg()})")
        else:
            lines.append(f"  {name} = {rng.choice(_STRICT2)}({arg()}, {arg()})")
        avail.append(name)
    nodes = avail[n_in + n_loops :]
    late = nodes[n_nodes // 2 :]
    for k, w in enumerate(loops):
        # Half of the feedback wires are closed through a delay, the rest
        # directly, which leaves a delay-free cycle when the wire is read.
        if rng.random() < 0.5:
            lines.append(f"  c{k} = delay({rng.choice(late)}, init={rng.randrange(2)})")
            lines.append(f"  {w} = c{k}")
        else:
            lines.append(f"  {w} = {rng.choice(late)}")
    lines.append(f"  y0 = {rng.choice(late)}")
    lines.append(f"  y1 = {rng.choice(nodes)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def sim_corpus(seed: int) -> list[int]:
    return random.Random(f"sim-deep/{seed}").sample(range(SIM_POOL), SIM_PICK)


def chk_corpus(seed: int, ref_ms: dict[int, float]) -> list[int]:
    """Pool items for one run: one of each pair of nearest cost, per width.

    ``ref_ms`` is the recorded reference time of each pool item's checks
    (``golden.json``).  Per input width the items are ranked by it and cut
    into strata of ``CHK_STRATUM`` items, and a corpus takes one item from
    each, so every corpus spans the same range of cost and corpora drawn
    with different seeds carry about the same work.
    """
    rng = random.Random(f"check-bounded/{seed}")
    picks = []
    for width in CHK_WIDTHS:
        ranked = sorted(
            (i for i in range(CHK_POOL) if chk_stratum(i)[0] == width),
            key=lambda i: (ref_ms[i], i),
        )
        picks += [rng.choice(ranked[k : k + CHK_STRATUM]) for k in range(0, len(ranked), CHK_STRATUM)]
    rng.shuffle(picks)
    return picks
