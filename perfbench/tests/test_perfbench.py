"""The benchmark's own tests: smoke runs, the output gate, the tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

cc = run.load_package()
GOLDEN = workloads.load_golden()
SEED = 3
# A small sweep: the (law, combo) names do not depend on the caps.
SMALL_LAWS = dict(pair_cap=40, samples=3)


def _round(wl, golden=GOLDEN, seed=SEED) -> workloads.Tally:
    prepared = wl.setup(cc, wl.inputs(seed, run.ROOT))
    return run.one_round(wl, cc, prepared, golden)


def test_smoke_runs_print_every_metric(capsys):
    for name in ("sim-deep", "check-bounded"):
        assert run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(run.E2E_UNITS)
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_laws_sweep_passes_the_gate():
    tally = _round(workloads.LawsSweep(**SMALL_LAWS))
    assert (tally.ops, tally.failed) == (1, 0) and tally.work > 0


def test_gate_fires_on_a_planted_wrong_digest():
    golden = copy.deepcopy(GOLDEN)
    key = workloads.CheckBounded().inputs(SEED, run.ROOT)[0][0]
    golden["check"][key]["ops"]["equiv"] = "0" * 64
    assert _round(workloads.CheckBounded(), golden).failed == 1

    key = str(gen.sim_corpus(SEED)[0])
    golden["sim"][key]["out"] = "0" * 64
    tally = _round(workloads.SimDeep(), golden)
    assert tally.failed == gen.SIM_TICKS and "digest mismatch" in tally.errors[0]


def test_gate_fires_on_a_wrong_mu():
    def one_kleene_step(f, split):
        m = cc.domain.local_lfp(f, split)
        bot = f.cod.bottom()
        return dataclasses.replace(m, fn=lambda a: f.fn(a + bot))

    tally = _round(workloads.LawsSweep(mu=one_kleene_step, **SMALL_LAWS))
    assert tally.failed == 1 and "laws fail" in tally.errors[0]


def test_tracer_counts_repeat_and_patches_are_restored():
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "causalcirc"]
    before = [dict(vars(m)) for m in modules] + [dict(vars(cc.comb.Propagator))]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(cc)
        try:
            _round(workloads.LawsSweep(mu=tracer.mu(cc), **SMALL_LAWS))
        finally:
            tracer.restore()
        m = tracer.layer_metrics()
        counts.append([m[k] for k in ("laws.enum_fns", "laws.enum_abandoned", "domain.mu_solves")])
        assert m["laws.enum_fns"] > 0 and m["laws.samples"] > 0 and not tracer.absent
    assert counts[0] == counts[1]
    after = [dict(vars(m)) for m in modules] + [dict(vars(cc.comb.Propagator))]
    assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(after, before))


def test_each_span_is_scaled_by_the_core_speed_of_its_moment():
    sampler = calib.Sampler()
    sampler.at = [0.0, 1.0, 2.0, 3.0]
    slow = 2 * calib.NOMINAL_S
    sampler.samples = [calib.NOMINAL_S, slow, slow, calib.NOMINAL_S]
    assert sampler.scale(0.9, 2.1, 1.0) == 0.5  # both samples inside are slow
    assert sampler.scale(1.2, 1.3, 1.0) == 0.5  # none inside: the two around it
    assert sampler.scale(2.5, 2.6, 1.0) == 1 / 1.5
    assert sampler.scale(3.5, 4.0, 1.0) == 1.0  # after the last sample
    with calib.Sampler() as live:
        t0 = live.clock()
        while live.clock() - t0 < 0.1:
            pass
    assert len(live.samples) >= 3 and live.at == sorted(live.at)


def test_a_missing_function_is_absent_not_zero():
    tracer = Tracer()
    gone = types.SimpleNamespace(__name__="causalcirc.laws")
    tracer.patch_function(gone, "enumerate_monotone", "laws.enumerate_monotone")
    m = tracer.layer_metrics()
    assert m["laws.enum_fns"] is None and m["laws.enum_kept_ratio"] is None
    assert m["laws.samples"] == 0


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer = Tracer().layer_metrics()
    layer.update({k: 0 for k in ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.layer_unit(k) for k in layer
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laws-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
