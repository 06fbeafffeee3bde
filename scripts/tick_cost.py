"""Per-tick cost of a chain of N ``not`` gates into one delay.

The chain is the deepest delay-free path a tick can have for its size: the
input reaches the delay after N gates, so a tick takes N+1 sweeps of the N
gate outputs to settle (the delay reads its history and is not swept).
For each N, prints the median wall time per tick over a seeded random input
stream; the sweeps per tick, counted in a second, separate run so that
counting does not slow the timed one; the swept wires; and the node
evaluations per tick, sweeps times swept nodes.

    PYTHONPATH=src python3 scripts/tick_cost.py            # N = 10, 50, 200
    PYTHONPATH=src python3 scripts/tick_cost.py --sizes 5 --ticks 20
"""

import argparse
import random
import statistics
import time

from causalcirc.comb import propagator
from causalcirc.engine import initial_state, random_trace, step
from causalcirc.netlist import parse_netlist


def chain_netlist(n: int) -> str:
    lines = ["circuit main {", "  in a: bool", "  out y: bool"]
    prev = "a"
    for i in range(n):
        lines.append(f"  x{i} = not({prev})")
        prev = f"x{i}"
    lines += [f"  y = delay({prev}, init=0)", "}"]
    return "\n".join(lines) + "\n"


def run(c, rows, counted: bool = False) -> tuple[list[float], int]:
    """Per-tick seconds over ``rows`` and, when ``counted``, the sweeps."""
    prop = propagator(c)
    sweeps = 0
    if counted:
        sweep = prop.sweep

        def counting(t):
            nonlocal sweeps
            sweeps += 1
            return sweep(t)

        prop.sweep = counting
    try:
        state, times = initial_state(c), []
        for row in rows:
            t0 = time.perf_counter()
            state, _ = step(state, row)
            times.append(time.perf_counter() - t0)
    finally:
        if counted:
            del prop.sweep
    return times, sweeps


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[10, 50, 200],
                    help="chain lengths N (default: 10 50 200)")
    ap.add_argument("--ticks", type=int, default=100, help="ticks per timed run")
    ap.add_argument("--seed", type=int, default=0, help="seed for the input stream")
    args = ap.parse_args()
    if args.ticks < 1 or min(args.sizes) < 1:
        ap.error("--ticks and every size must be at least 1")

    print(
        f"{'N':>6} {'ms/tick':>10} {'sweeps/tick':>12}"
        f" {'wires':>6} {'evals/tick':>11}"
    )
    for n in args.sizes:
        c = parse_netlist(chain_netlist(n))
        rows = random_trace(random.Random(args.seed), c.in_ports, args.ticks).rows
        times, _ = run(c, rows)
        _, sweeps = run(c, rows, counted=True)
        ms = statistics.median(times) * 1e3
        prop = propagator(c)
        per_tick = sweeps / len(rows)
        print(
            f"{n:>6} {ms:>10.3f} {per_tick:>12.2f} {prop.n_wires:>6}"
            f" {per_tick * len(prop.plan):>11.2f}"
        )


if __name__ == "__main__":
    main()
