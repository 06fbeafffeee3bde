"""Layered benchmark for causalcirc.

    python3 perfbench/run.py --workload sim-deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` the workload runs in a
closed loop for ``--seconds`` and the end-to-end metrics are reported; with
``--trace 1`` one fixed round of the workload runs with every layer's entry
points wrapped, and the per-layer metrics are reported.  ``--workload all``
runs every workload in turn, each in its own process.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPS = 9
CALIB_PER_SETUP = 5
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def load_package():
    """Import causalcirc from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "causalcirc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {src / 'causalcirc'}; run from a checkout")
    sys.path.insert(0, str(src))
    cc = importlib.import_module("causalcirc")
    if Path(cc.__file__).resolve().parent != (src / "causalcirc").resolve():
        raise SystemExit(f"perfbench: imported causalcirc from {cc.__file__}, not {src}")
    for layer in LAYERS:
        importlib.import_module(f"causalcirc.{layer}")
    return cc


def environment() -> dict:
    git = ROOT / ".git"
    commit = "unknown (not a git checkout)"
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            name = commit[5:]
            if (git / name).is_file():
                commit = (git / name).read_text().strip()
            elif (git / "packed-refs").is_file():
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
    nproc = os.cpu_count()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": nproc,
        "timer": f"time.perf_counter, wall time, on a shared {nproc}-core machine",
    }


def one_round(wl, cc, prepared, golden) -> workloads.Tally:
    tally = workloads.Tally()
    for batch in wl.batches(prepared):
        wl.run_batch(cc, batch, golden, tally)
    return tally


def timed_loop(wl, cc, prepared, golden, seconds: float, clock) -> list[workloads.Tally]:
    """Closed loop over whole rounds of the corpus for about ``seconds``.

    Every run covers each batch of the corpus equally often, so the mix of
    ops does not depend on where the time ran out.  The loop stops after
    the round that ends nearest to ``seconds``; at least one round runs.
    Returns one tally per round.
    """
    batches = list(wl.batches(prepared))
    rounds = []
    start = clock()
    while True:
        rounds.append(workloads.Tally(clock=clock))
        for batch in batches:
            wl.run_batch(cc, batch, golden, rounds[-1])
        elapsed = clock() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds


def scaled_pieces(rounds: list[workloads.Tally], sampler) -> tuple[list[float], list[float]]:
    """Each op's time and each batch remainder's, in ms at nominal core
    speed, as the median over the rounds.

    Every round runs the same ops in the same order, so piece ``j`` of one
    round is piece ``j`` of every other.  Each piece is scaled by the core
    speed of its own moment (``calib``), so it does not matter how much of
    a run fell on a slowed core.
    """
    ops = [
        statistics.median(sampler.scale(s, e, e - s) * 1e3 for s, e in spans)
        for spans in zip(*(r.op_spans for r in rounds))
    ]
    rest = [
        statistics.median(sampler.scale(*piece) * 1e3 for piece in pieces)
        for pieces in zip(*(r.rests for r in rounds))
    ]
    return ops, rest


def child(kind: str, workload: str, seed: int) -> dict:
    """Run ``--child kind`` in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", kind,
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: child {kind} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(kind: str, workload: str, seed: int) -> dict:
    wl = workloads.WORKLOADS[workload]
    inputs = wl.inputs(seed, ROOT)
    if kind == "setup":
        # Import is inside the timed span: every CLI run pays it.  The core
        # speed is sampled just before and just after it.
        samples = [calib.time_kernel() for _ in range(CALIB_PER_SETUP)]
        t0 = perf_counter()
        cc = load_package()
        wl.setup(cc, inputs)
        setup_s = perf_counter() - t0
        samples += [calib.time_kernel() for _ in range(CALIB_PER_SETUP)]
        return {"setup_s": setup_s, "kernel_s": sum(samples) / len(samples)}
    cc = load_package()
    t0 = perf_counter()
    prepared = wl.setup(cc, inputs)
    tally = one_round(wl, cc, prepared, workloads.load_golden())
    return {"wall_s": perf_counter() - t0, "ops": tally.ops, "failed": tally.failed}


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload: str, seed: int, seconds: float):
    """Closed-loop run with tracing off; returns (tally, metrics, notes).

    ``throughput`` and ``op_ms.*`` come from each piece's median time over
    the rounds (``scaled_pieces``); ``setup_s`` is the median of
    ``SETUP_REPS`` fresh interpreters.  Every time is scaled to nominal
    core speed; the notes keep the unscaled loop figures.
    """
    wl = workloads.WORKLOADS[workload]
    setups = [child("setup", workload, seed) for _ in range(SETUP_REPS)]
    cc = load_package()
    golden = workloads.load_golden()
    prepared = wl.setup(cc, wl.inputs(seed, ROOT))
    with calib.Sampler() as sampler:
        rounds = timed_loop(wl, cc, prepared, golden, seconds, sampler.clock)
    tally = workloads.Tally()
    for r in rounds:
        tally.add(r)
    ops, rest = scaled_pieces(rounds, sampler)
    round_s = (sum(ops) + sum(rest)) / 1e3
    ops = ops or [0.0]  # every op crashed; the run is already not correct
    metrics = {
        "setup_s": statistics.median(
            s["setup_s"] * calib.NOMINAL_S / s["kernel_s"] for s in setups
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "throughput": rounds[0].work / round_s if round_s > 0 else 0.0,
        "op_ms.p50": statistics.median(ops),
        "op_ms.p90": p90(ops),
    }
    raw = [t for r in rounds for t in r.op_ms] or [0.0]
    notes = {
        "setup_runs": len(setups),
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "work_unit": wl.work_unit,
        "op": wl.op_name,
        "speed_samples": len(sampler.samples),
        "unscaled": {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "throughput": tally.work / tally.wall_s,
            "op_ms.p50": statistics.median(raw),
            "op_ms.p90": p90(raw),
            "loop_wall_s": tally.wall_s,
        },
    }
    return tally, metrics, notes


def traced(workload: str, seed: int):
    """One fixed round untraced (fresh child) and traced (here); per-layer metrics."""
    untraced = child("untraced", workload, seed)
    cc = load_package()
    tracer = Tracer()
    wl = workloads.WORKLOADS[workload]
    if isinstance(wl, workloads.LawsSweep):
        wl = workloads.LawsSweep(mu=tracer.mu(cc))
    inputs = wl.inputs(seed, ROOT)
    golden = workloads.load_golden()
    tracer.install(cc)
    try:
        t0 = perf_counter()
        prepared = wl.setup(cc, inputs)
        tally = one_round(wl, cc, prepared, golden)
        wall = perf_counter() - t0
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics()
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced["wall_s"]
    metrics["trace.overhead_s"] = wall - untraced["wall_s"]
    tally.failed += untraced["failed"]
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    spans.write_text(json.dumps(tracer.spans_json()), encoding="utf-8")
    notes = {
        "spans": len(tracer.spans),
        "spans_file": str(spans.relative_to(ROOT)),
        "absent": sorted(tracer.absent),
    }
    return tally, metrics, notes


def run_all(args) -> int:
    """Every workload in its own process; one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {name} failed:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "untraced"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.child:
        print(json.dumps(run_child(args.child, args.workload, args.seed)))
        return 0

    env = environment()
    if args.trace:
        tally, metrics, notes = traced(args.workload, args.seed)
        units = {k: layer_unit(k) for k in metrics}
        aliases = {}
    else:
        tally, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
        units = E2E_UNITS
        aliases = workloads.WORKLOADS[args.workload].aliases
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# env: {json.dumps(env)}")
    print(f"# notes: {json.dumps(notes)}")
    print(f"# ops={tally.ops} ops_failed={tally.failed}")
    for msg in tally.errors:
        print(f"# FAILED: {msg}")
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name} = {shown} {units[name]}{alias}")

    result = {
        "correct": tally.failed == 0 and tally.ops > 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "env": env, "notes": notes}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
