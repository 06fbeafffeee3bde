"""Time per law sweep, the operator work it pins, and what running the
sweeps on workers gives.

For one sweep configuration (``--cap``, ``--samples``, ``--seed``), runs
each law's sweep in this process and prints the cases it checks, the
fixed-point operator calls it makes and the solves it reads from them
(all three fixed by the configuration, and counted in one more run
through an operator that calls ``local_lfp``), its median wall time, and
that time per case and per operator call in microseconds; then the sums.
The operator work is what no bookkeeping cut may change, so the time per
call is the cost that is left to cut around it.
Then it times ``run_laws``, which hands the sweeps to one worker per
usable CPU, the caller among them, and prints its median wall time and
the number of workers.  The heaviest sweep bounds what the workers can
reach: with enough of them, ``run_laws`` takes about as long as it.

    PYTHONPATH=src python3 scripts/law_cost.py               # the CLI's defaults
    PYTHONPATH=src python3 scripts/law_cost.py --cap 2000 --seed 11 --repeat 5
"""

import argparse
import dataclasses
import statistics
import time

from causalcirc import laws
from causalcirc.domain import local_lfp
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


def operator_work(sweep, cfg: LawConfig) -> tuple[int, int]:
    """The operator calls and solves of one run of ``sweep``."""
    seen = [0, 0]

    def counting(f, split):
        seen[0] += 1
        m = local_lfp(f, split)

        def solve(a):
            seen[1] += 1
            return m.fn(a)

        return dataclasses.replace(m, fn=solve)

    sweep(dataclasses.replace(cfg, mu=counting))
    return seen[0], seen[1]


def times(work: list) -> list[str]:
    """The time in ms of (cases, calls, solves, ms), and that time per case
    and per operator call in µs."""
    cases, calls, _, ms = work
    return [f"{ms:.3f}", f"{ms * 1e3 / cases:.2f}", f"{ms * 1e3 / calls:.2f}"]


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
    row = "{:<18} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9}"
    print(row.format("law", "cases", "calls", "solves", "ms", "us/case", "us/call"))
    sums = [0, 0, 0, 0.0]
    for sweep in laws._sweeps():
        ms, result = median_ms(lambda: sweep(cfg), args.repeat)
        calls, solves = operator_work(sweep, cfg)
        work = [result.cases, calls, solves, ms]
        sums = [s + w for s, w in zip(sums, work)]
        print(row.format(result.law, *work[:3], *times(work)))
    print(row.format("sum", *sums[:3], *times(sums)))
    ms, _ = median_ms(lambda: run_laws(cfg), args.repeat)
    print(f"{'run_laws':<18} {'':>8} {'':>8} {'':>8} {ms:>9.3f}  on {laws._workers(cfg)} workers")


if __name__ == "__main__":
    main()
