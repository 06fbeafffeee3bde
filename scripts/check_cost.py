"""Cost of exhaustive bounded checks at long horizons.

Runs ``wobble.net`` totality and the ``diag_left``/``diag_right``
equivalence at each horizon.  For each, prints the traces the check
covers (``cases``); the steps its walk takes and the ticks those steps
run, counted over every circuit in a second, separate run so that counting
does not slow the timed one; the median wall time per check; and that
time divided by the ticks, which shows the constant cost of a compiled
tick (walk steps and memo lookups included) outside the benchmark.  The
walk steps from each (histories, ticks left) pair once, so steps grow with
the horizon, not with ``cases`` (rows^horizon), and ticks stay at most the
distinct (histories, row) pairs reached.

    PYTHONPATH=src python3 scripts/check_cost.py     # totality 9..17, equiv 4..8
    PYTHONPATH=src python3 scripts/check_cost.py --totality 9 --equiv 4 --repeat 1
"""

import argparse
import statistics
import time
from pathlib import Path

from causalcirc import analysis
from causalcirc.analysis import check_equiv, check_totality
from causalcirc.comb import propagator
from causalcirc.netlist import parse_netlist

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


def load(name: str):
    return parse_netlist((CIRCUITS / f"{name}.net").read_text(encoding="utf-8"))


def count_work(circuits, check) -> tuple[int, int]:
    """Run ``check`` once and count its walk's steps, one per circuit per
    (histories, row) the walk looks up, and the compiled ticks the steps
    ran, which the check's memo runs once per (histories, row)."""
    ticks = steps = 0
    stepper = analysis._stepper

    def counting_stepper(c):
        advance = stepper(c)

        def counted(histories, row):
            nonlocal steps
            steps += 1
            return advance(histories, row)

        return counted

    analysis._stepper = counting_stepper
    props = [propagator(c) for c in circuits]
    for prop in props:
        tick = prop.tick

        def counting(histories, row, tick=tick):
            nonlocal ticks
            ticks += 1
            return tick(histories, row)

        prop.tick = counting
    try:
        check()
    finally:
        analysis._stepper = stepper
        for prop in props:
            del prop.tick
    return steps, ticks


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--totality", type=int, nargs="*", default=list(range(9, 18)),
                    help="wobble.net totality horizons (default: 9..17)")
    ap.add_argument("--equiv", type=int, nargs="*", default=list(range(4, 9)),
                    help="diag_left/diag_right equivalence horizons (default: 4..8)")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per check")
    args = ap.parse_args()
    if args.repeat < 1 or min(args.totality + args.equiv, default=0) < 0:
        ap.error("--repeat must be at least 1 and every horizon at least 0")

    wobble = load("wobble")
    left, right = load("diag_left"), load("diag_right")
    runs = [
        ("totality", h, [wobble], lambda h=h: check_totality(wobble, h))
        for h in args.totality
    ] + [
        ("equiv", h, [left, right], lambda h=h: check_equiv(left, right, h))
        for h in args.equiv
    ]
    print(
        f"{'check':<9} {'horizon':>7} {'cases':>8} {'steps':>6}"
        f" {'ticks':>6} {'ms/check':>9} {'us/tick':>8}"
    )
    for name, h, circuits, check in runs:
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            rep = check()
            times.append(time.perf_counter() - t0)
        steps, ticks = count_work(circuits, check)
        ms = statistics.median(times) * 1e3
        per_tick = f"{ms * 1e3 / ticks:8.2f}" if ticks else f"{'-':>8}"
        print(
            f"{name:<9} {h:>7} {rep.cases:>8} {steps:>6} {ticks:>6} {ms:>9.3f}"
            f" {per_tick}"
        )


if __name__ == "__main__":
    main()
