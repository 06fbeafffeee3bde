"""Survey bounded totality over random circuits.

Generates two pools: contractive circuits with defined delay inits, which
should always check Total, and unconstrained circuits, which may not.  For
each, runs the bounded check and tallies verdicts against the static
guarantee, so the printed table shows the guarantee is sound (no guaranteed
circuit is NotTotal) without being complete.
"""

import argparse
import random
import time

from causalcirc.analysis import check_totality, totality_guarantee
from causalcirc.random_circuits import (
    GenConfig,
    random_circuit,
    random_contractive_circuit,
)


def trace_count(c, horizon: int) -> int:
    # check_totality enumerates bottom-free rows only.
    return c.in_ports.concrete_count() ** horizon


def survey(label, make, count, horizon, samples, trace_cap, rng) -> None:
    t0 = time.perf_counter()
    tally = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    unsound = 0
    for i in range(count):
        c = make(rng)
        if trace_count(c, horizon) <= trace_cap:
            rep = check_totality(c, horizon, strategy="exhaustive")
        else:
            rep = check_totality(
                c, horizon, strategy="random", samples=samples, seed=i
            )
        g = totality_guarantee(c)
        tally[(g, rep.total)] += 1
        if g and not rep.total:
            unsound += 1
    elapsed = time.perf_counter() - t0
    print(f"-- {label}: {count} circuits, horizon {horizon} ({elapsed:.1f}s) --")
    print(f"  guaranteed and Total      {tally[(True, True)]:>4}")
    print(f"  guaranteed but NotTotal   {tally[(True, False)]:>4}   (soundness violations)")
    print(f"  unproven   but Total      {tally[(False, True)]:>4}   (the guarantee is not complete)")
    print(f"  unproven   and NotTotal   {tally[(False, False)]:>4}")
    if unsound:
        print("  SOUNDNESS VIOLATED")
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=60, help="circuits per pool")
    ap.add_argument("--horizon", type=int, default=8)
    ap.add_argument("--samples", type=int, default=500,
                    help="random traces when exhaustion is over the cap")
    ap.add_argument("--trace-cap", type=int, default=2000,
                    help="largest input-trace space to enumerate outright")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    safe_cfg = GenConfig(bot_free_inits=True)
    survey(
        "contractive, defined inits",
        lambda r: random_contractive_circuit(r, safe_cfg),
        args.count, args.horizon, args.samples, args.trace_cap, rng,
    )
    survey(
        "unconstrained",
        lambda r: random_circuit(r),
        args.count, args.horizon, args.samples, args.trace_cap, rng,
    )


if __name__ == "__main__":
    main()
