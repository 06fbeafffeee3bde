"""Record ``golden.json``: reference digests for every pool item.

    python3 perfbench/record.py

Runs each pool item of every workload once through the same code the
benchmark times, and stores the digest of its output.  The digests pin the
least-fixed-point semantics of the commit they are recorded on; re-record
only when a change of semantics is intended, and say so.
"""

from __future__ import annotations

import json

import gen
import run
import workloads

REF_REPEATS = 5


def _check_digest(cc, chk, batch) -> str:
    tally = workloads.Tally()
    digest = chk.run_batch(cc, batch, {}, tally)
    if tally.failed:
        raise SystemExit(f"check {batch[1]} {batch[0]}: {tally.errors}")
    return digest


def main() -> int:
    cc = run.load_package()
    golden: dict = {"recorded_on": run.environment()["commit"], "sim": {}, "check": {}}

    sim = workloads.SimDeep()
    for i in range(gen.SIM_POOL):
        net, stream = gen.sim_item(i)
        prepared = sim.setup(cc, [(str(i), net, stream)])
        tally = workloads.Tally()
        for batch in sim.batches(prepared):
            out = sim.run_batch(cc, batch, {}, tally)
        if tally.failed:
            raise SystemExit(f"sim item {i}: {tally.errors}")
        golden["sim"][str(i)] = {"netlist": gen.sha(net), "stream": gen.sha(stream), "out": out}

    chk = workloads.CheckBounded()
    pool = {}
    for i in range(gen.CHK_POOL):
        text = gen.chk_item(i)
        entry = golden["check"][str(i)] = {"netlist": gen.sha(text), "ops": {}}
        pool[i] = list(chk.batches(chk.setup(cc, [(str(i), text)])))
        for batch in pool[i]:
            entry["ops"][batch[1]] = _check_digest(cc, chk, batch)
    # Each item's reference time, for drawing corpora of equal work: the best
    # of REF_REPEATS passes over the whole pool, in ms.  Whole passes spread
    # an item's repeats over the run, past any one slowed stretch of the core.
    best = dict.fromkeys(pool, float("inf"))
    for _ in range(REF_REPEATS):
        for i, batches in pool.items():
            tally = workloads.Tally()
            for batch in batches:
                chk.run_batch(cc, batch, {}, tally)
            best[i] = min(best[i], tally.wall_s * 1e3)
    for i, ms in best.items():
        golden["check"][str(i)]["ref_ms"] = round(ms, 3)
    for batch in chk.batches(chk.setup(cc, chk.repo_inputs(run.ROOT))):
        key, kind, text = batch[:3]
        entry = golden["check"].setdefault(
            key, {"netlist": None if text is None else gen.sha(text), "ops": {}}
        )
        entry["ops"][kind] = _check_digest(cc, chk, batch)

    results = cc.laws.run_laws(cc.laws.LawConfig(pair_budget=workloads.LAWS_PAIR_CAP))
    if not all(r.passed for r in results):
        raise SystemExit("a law fails; nothing recorded")
    golden["laws"] = {
        "combos": sorted(f"{r.law}/{cr.combo}" for r in results for cr in r.combos)
    }
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
