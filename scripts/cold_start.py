"""Cold-start cost of the package, measured in fresh interpreters.

Each run starts a new interpreter, so nothing is shared between runs but
the operating system's file cache and any bytecode cache on disk.  The
commands run round-robin, so a drift in the machine's speed falls on all
of them alike.  For each, prints the median, first and third quartile of
the wall time over ``--runs`` runs:

* ``python``: ``python -c pass``, the interpreter's own start;
* ``setup``: ``import causalcirc`` and the eight layer modules that the
  benchmark's timed set-up imports (``perfbench/tracer.py`` ``LAYERS``);
* ``sim``: ``causalcirc sim circuits/toggle.net --ticks 4``;
* ``check``: ``causalcirc check circuits/toggle.net``.

Then the median ``-X importtime`` self time of each ``causalcirc`` module
over the same number of set-up imports, largest first.  The first line says
whether bytecode is written and whether the package already has cached
bytecode: with ``PYTHONDONTWRITEBYTECODE=1`` and no cache, as in a fresh
benchmark checkout, every run compiles the package's source.

    PYTHONDONTWRITEBYTECODE=1 python3 scripts/cold_start.py
    python3 scripts/cold_start.py --runs 5 --src other-checkout/src
"""

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import LAYERS  # noqa: E402


def commands() -> dict[str, list[str]]:
    setup = "import causalcirc\n" + "".join(f"import causalcirc.{layer}\n" for layer in LAYERS)
    net = str(ROOT / "circuits" / "toggle.net")
    cli = [sys.executable, "-m", "causalcirc"]
    return {
        "python": [sys.executable, "-c", "pass"],
        "setup": [sys.executable, "-c", setup],
        "sim": [*cli, "sim", net, "--ticks", "4"],
        "check": [*cli, "check", net],
    }


def run(argv: list[str], env: dict) -> tuple[float, str]:
    """Wall seconds of one fresh process, and what it wrote to stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"cold_start: {argv[1:]} failed:\n{proc.stderr}")
    return wall, proc.stderr


def self_times(stderr: str) -> dict[str, int]:
    """Microseconds of self time per ``causalcirc`` module in an
    ``-X importtime`` report."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "causalcirc" in line:
            own, _, name = line[len("import time:"):].split("|")
            out[name.strip()] = int(own)
    return out


def quartiles(ms: list[float]) -> tuple[float, float, float]:
    if len(ms) == 1:
        return ms[0], ms[0], ms[0]
    q1, q2, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return q2, q1, q3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=15, help="fresh interpreters per command")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the causalcirc package (default: this checkout's src)")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    src = args.src.resolve()
    init = src / "causalcirc" / "__init__.py"
    if not init.is_file():
        ap.error(f"no causalcirc package in {src}")
    env = dict(os.environ, PYTHONPATH=str(src))

    cached = os.path.exists(importlib.util.cache_from_source(str(init)))
    print(
        f"bytecode: {'not written' if sys.dont_write_bytecode else 'written'};"
        f" causalcirc {'has' if cached else 'has no'} cached bytecode"
    )
    cmds = commands()
    walls: dict[str, list[float]] = {name: [] for name in cmds}
    imports: list[dict[str, int]] = []
    traced = [sys.executable, "-X", "importtime", *cmds["setup"][1:]]
    for _ in range(args.runs):
        for name, argv in cmds.items():
            walls[name].append(run(argv, env)[0] * 1e3)
        imports.append(self_times(run(traced, env)[1]))

    print(f"{'command':<8} {'ms':>8} {'q1':>8} {'q3':>8}   ({args.runs} runs)")
    for name, ms in walls.items():
        med, q1, q3 = quartiles(ms)
        print(f"{name:<8} {med:>8.1f} {q1:>8.1f} {q3:>8.1f}")
    print(f"{'module':<28} {'self ms':>8}")
    per_module = {m: statistics.median(t.get(m, 0) for t in imports) for m in imports[0]}
    for module, us in sorted(per_module.items(), key=lambda kv: -kv[1]):
        print(f"{module:<28} {us / 1e3:>8.1f}")
    print(f"{'sum':<28} {sum(per_module.values()) / 1e3:>8.1f}")


if __name__ == "__main__":
    main()
