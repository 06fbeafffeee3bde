"""Time per law sweep, and what running the sweeps on workers gives.

For one sweep configuration (``--cap``, ``--samples``, ``--seed``), runs
each law's sweep in this process and prints the cases it checks (which
are fixed by the configuration), its median wall time and that time per
case in microseconds, then the sum of the times.
Then it times ``run_laws``, which hands the sweeps to one worker per
usable CPU, the caller among them, and prints its median wall time and
the number of workers.  The heaviest sweep bounds what the workers can
reach: with enough of them, ``run_laws`` takes about as long as it.

    PYTHONPATH=src python3 scripts/law_cost.py               # the CLI's defaults
    PYTHONPATH=src python3 scripts/law_cost.py --cap 2000 --seed 11 --repeat 5
"""

import argparse
import statistics
import time

from causalcirc import laws
from causalcirc.laws import LawConfig, run_laws


def median_ms(run, repeat: int) -> tuple[float, object]:
    """The median wall time of ``repeat`` calls of ``run``, in ms, and what
    the last call returned."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        got = run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3, got


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cap", type=int, default=60_000,
                    help="largest function space swept exhaustively (default: 60000)")
    ap.add_argument("--samples", type=int, default=200,
                    help="random draws per larger space (default: 200)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=3, help="timed runs of each")
    args = ap.parse_args()
    if args.repeat < 1 or args.cap < 0 or args.samples < 1:
        ap.error("--repeat and --samples must be at least 1 and --cap at least 0")

    cfg = LawConfig(pair_budget=args.cap, samples=args.samples, seed=args.seed)
    print(f"{'law':<18} {'cases':>8} {'ms':>9} {'us/case':>9}")
    total = 0.0
    for sweep in laws._sweeps():
        ms, result = median_ms(lambda: sweep(cfg), args.repeat)
        total += ms
        us = ms * 1e3 / result.cases
        print(f"{result.law:<18} {result.cases:>8} {ms:>9.3f} {us:>9.2f}")
    print(f"{'sum':<18} {'':>8} {total:>9.3f}")
    ms, _ = median_ms(lambda: run_laws(cfg), args.repeat)
    print(f"{'run_laws':<18} {'':>8} {ms:>9.3f}  on {laws._workers(cfg)} workers")


if __name__ == "__main__":
    main()
