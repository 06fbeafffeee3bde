"""The three workloads: inputs, set-up, batches of ops, and the output gate.

Every workload drives the package's public API in-process, one caller in a
closed loop: the next op starts when the previous one has returned.  Calls
go through module attributes (``cc.engine.step``), never through names bound
at import, so that the tracer's patches take effect.

An op is one tick (``sim-deep``), one check (``check-bounded``) or one
``run_laws`` sweep (``laws-sweep``).  A batch is the smallest stretch of ops
whose output can be checked: one netlist's whole input stream, one check,
one sweep.  An op fails when it raises or when its batch's output does not
match the digest recorded in ``golden.json``; the only reference is the
least-fixed-point semantics of the commit the digests were recorded on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import gen

# (totality horizon, equivalence horizon) by input width: 27 to 81 traces per
# exhaustive check whatever the width.  Short checks keep a round of the
# corpus to a few seconds, so that a run repeats every check many times.
# Equivalence at width 3 is exhaustive for one tick only; the random check
# covers that width to CHECK_RANDOM_HORIZON ticks.
CHECK_HORIZONS = {1: (6, 4), 2: (3, 2), 3: (2, 1)}
CHECK_PAIR_HORIZON = 4
CHECK_RANDOM_HORIZON = 3
CHECK_RANDOM_SAMPLES = 50
CHECK_RANDOM_SEED = 0
LAWS_PAIR_CAP = 2_000

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@dataclass
class Tally:
    """What a stretch of batches did; ``work`` is in the workload's work unit.

    Every span is timed with ``clock`` (``calib.Sampler.clock`` while the
    core's speed is being sampled).  ``op_spans`` holds every op's (start,
    end) and ``rests`` every batch's (start, end, time outside its ops), in
    order, so that the same round run twice gives lists that line up piece
    by piece.
    """

    clock: Callable[[], float] = perf_counter
    ops: int = 0
    failed: int = 0
    work: float = 0.0
    wall_s: float = 0.0
    op_spans: list[tuple[float, float]] = field(default_factory=list)
    rests: list[tuple[float, float, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    _ops_seen: int = 0

    @property
    def op_ms(self) -> list[float]:
        return [(end - start) * 1e3 for start, end in self.op_spans]

    def end_op(self, t0: float) -> None:
        self.op_spans.append((t0, self.clock()))

    def end_batch(self, t0: float, ops: int, work: float) -> None:
        end = self.clock()
        in_ops = sum(e - s for s, e in self.op_spans[self._ops_seen :])
        self.rests.append((t0, end, end - t0 - in_ops))
        self._ops_seen = len(self.op_spans)
        self.wall_s += end - t0
        self.ops += ops
        self.work += work

    def add(self, other: "Tally") -> None:
        self.ops += other.ops
        self.failed += other.failed
        self.work += other.work
        self.wall_s += other.wall_s
        self.errors += other.errors[: max(0, 20 - len(self.errors))]

    def fail(self, n: int, msg: str) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(msg)


def _digest(obj) -> str:
    return gen.sha(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _crashed(tally: Tally, t0: float, n_ops: int, what: str, e: Exception) -> None:
    tally.end_batch(t0, n_ops, 0)
    tally.fail(n_ops, f"{what}: {type(e).__name__}: {e}")


# ---------------------------------------------------------------------------
# sim-deep


class SimDeep:
    name = "sim-deep"
    work_unit = "node-ticks"
    op_name = "tick"
    aliases = {
        "throughput": "sim.node_ticks_per_s",
        "op_ms.p50": "sim.tick_ms.p50",
        "op_ms.p90": "sim.tick_ms.p90",
    }

    def inputs(self, seed: int, root: Path) -> list[tuple[str, str, str]]:
        return [(str(i), *gen.sim_item(i)) for i in gen.sim_corpus(seed)]

    def setup(self, cc, inputs) -> list[tuple]:
        """Parse, read the input stream, compile (the first initial_state)."""
        prepared = []
        for key, net_text, stream_text in inputs:
            c = cc.netlist.parse_netlist(net_text)
            trace = cc.streams.read_stream(
                stream_text, c.in_ports, cc.circuit.in_port_names(c)
            )
            cc.engine.initial_state(c)
            prepared.append((key, net_text, stream_text, c, trace))
        return prepared

    def batches(self, prepared):
        return iter(prepared)

    def run_batch(self, cc, batch, golden: dict, tally: Tally) -> str | None:
        """Run one netlist over its whole input stream and write the outputs."""
        key, net_text, stream_text, c, trace = batch
        ticks = len(trace)
        t0 = tally.clock()
        try:
            state = cc.engine.initial_state(c)
            rows = []
            for row in trace.rows:
                a = tally.clock()
                state, out = cc.engine.step(state, row)
                tally.end_op(a)
                rows.append(out)
            text = cc.streams.write_stream(
                cc.engine.PrefixTrace(c.out_ports, tuple(rows)),
                cc.circuit.out_port_names(c),
            )
        except Exception as e:  # a failing op is counted, the run goes on
            _crashed(tally, t0, ticks, f"sim item {key}", e)
            return None
        out_sha = gen.sha(text)
        tally.end_batch(t0, ticks, ticks * len(c.nodes))
        want = golden.get("sim", {}).get(key)
        if want is not None:
            if want["netlist"] != gen.sha(net_text) or want["stream"] != gen.sha(stream_text):
                tally.fail(ticks, f"sim item {key}: generated input differs from golden.json")
            elif want["out"] != out_sha:
                tally.fail(ticks, f"sim item {key}: output stream digest mismatch")
        return out_sha


# ---------------------------------------------------------------------------
# check-bounded


class CheckBounded:
    name = "check-bounded"
    work_unit = "traces"
    op_name = "check"
    aliases = {
        "throughput": "check.traces_per_s",
        "op_ms.p50": "check.check_ms.p50",
        "op_ms.p90": "check.check_ms.p90",
    }

    def inputs(self, seed: int, root: Path) -> list[tuple[str, str]]:
        ref_ms = {int(k): v["ref_ms"] for k, v in load_golden()["check"].items() if k.isdigit()}
        items = [(str(i), gen.chk_item(i)) for i in gen.chk_corpus(seed, ref_ms)]
        return items + self.repo_inputs(root)

    @staticmethod
    def repo_inputs(root: Path) -> list[tuple[str, str]]:
        """The repository's example circuits named in ``gen.REPO_CIRCUITS``."""
        return [
            (f"repo:{name}", (root / "circuits" / f"{name}.net").read_text(encoding="utf-8"))
            for name in gen.REPO_CIRCUITS
        ]

    def setup(self, cc, inputs) -> list[tuple]:
        """Parse, round-trip through print_netlist, compile both."""
        prepared = []
        for key, text in inputs:
            c = cc.netlist.parse_netlist(text)
            rt = cc.netlist.parse_netlist(cc.netlist.print_netlist(c))
            cc.engine.initial_state(c)
            cc.engine.initial_state(rt)
            prepared.append((key, text, c, rt))
        return prepared

    def batches(self, prepared):
        """One batch is one check.  A circuit gets totality, round-trip
        equivalence and, at the widest input signature, a random check."""
        by_key = {}
        for key, text, c, rt in prepared:
            by_key[key] = c
            yield key, "totality", text, c, None
            yield key, "equiv", text, c, rt
            if len(c.in_ports) == max(CHECK_HORIZONS):
                yield key, "random", text, c, rt
        for a, b in gen.REPO_PAIRS:
            ka, kb = f"repo:{a}", f"repo:{b}"
            if ka in by_key and kb in by_key:
                yield f"pair:{a}:{b}", "pair", None, by_key[ka], by_key[kb]

    def _check(self, cc, kind: str, c, other) -> tuple[int, dict]:
        an = cc.analysis
        tot_h, eq_h = CHECK_HORIZONS[len(c.in_ports)]
        if kind == "totality":
            rep = an.check_totality(c, tot_h, strategy="exhaustive")
            verdict = {"total": rep.total, "guaranteed": an.totality_guarantee(c)}
        else:
            if kind == "random":
                rep = an.check_equiv(
                    c,
                    other,
                    CHECK_RANDOM_HORIZON,
                    strategy="random",
                    samples=CHECK_RANDOM_SAMPLES,
                    seed=CHECK_RANDOM_SEED,
                )
            else:
                horizon = CHECK_PAIR_HORIZON if kind == "pair" else eq_h
                rep = an.check_equiv(c, other, horizon, strategy="exhaustive")
            verdict = {"equivalent": rep.equivalent}
            if rep.witness is not None:
                verdict["left"] = [None if x is cc.domain.BOT else x for x in rep.left]
                verdict["right"] = [None if x is cc.domain.BOT else x for x in rep.right]
        verdict["cases"] = rep.cases
        verdict["witness"] = None if rep.witness is None else rep.witness.to_json()
        return rep.cases, verdict

    def run_batch(self, cc, batch, golden: dict, tally: Tally) -> str | None:
        key, kind, text, c, other = batch
        t0 = tally.clock()
        try:
            cases, verdict = self._check(cc, kind, c, other)
        except Exception as e:  # a failing op is counted, the run goes on
            _crashed(tally, t0, 1, f"{kind} {key}", e)
            return None
        tally.end_op(t0)
        tally.end_batch(t0, 1, cases)
        digest = _digest(verdict)
        want = golden.get("check", {}).get(key)
        if want is not None:
            if text is not None and want["netlist"] != gen.sha(text):
                tally.fail(1, f"{kind} {key}: input netlist differs from golden.json")
            elif want["ops"].get(kind) != digest:
                tally.fail(1, f"{kind} {key}: verdict digest mismatch")
        if verdict.get("guaranteed") and not verdict["total"]:
            tally.fail(1, f"{kind} {key}: guaranteed total but the check says NotTotal")
        return digest


# ---------------------------------------------------------------------------
# laws-sweep


class LawsSweep:
    name = "laws-sweep"
    work_unit = "law cases"
    op_name = "sweep"
    aliases = {
        "throughput": "laws.cases_per_s",
        "op_ms.p50": "laws.wall_ms.p50",
        "op_ms.p90": "laws.wall_ms.p90",
    }

    def __init__(self, mu=None, pair_cap: int = LAWS_PAIR_CAP, samples: int | None = None):
        self.mu = mu
        self.pair_cap = pair_cap
        self.samples = samples

    def inputs(self, seed: int, root: Path) -> int:
        return seed

    def setup(self, cc, seed: int):
        kw = {"pair_budget": self.pair_cap, "seed": seed}
        if self.mu is not None:
            kw["mu"] = self.mu
        if self.samples is not None:
            kw["samples"] = self.samples
        return cc.laws.LawConfig(**kw)

    def batches(self, cfg):
        yield cfg

    def run_batch(self, cc, cfg, golden: dict, tally: Tally) -> str | None:
        t0 = tally.clock()
        try:
            results = cc.laws.run_laws(cfg)
        except Exception as e:  # a failing op is counted, the run goes on
            _crashed(tally, t0, 1, "run_laws", e)
            return None
        tally.end_op(t0)
        tally.end_batch(t0, 1, sum(r.cases for r in results))
        names = sorted(f"{r.law}/{cr.combo}" for r in results for cr in r.combos)
        bad = [str(r.first_counterexample()) for r in results if not r.passed]
        if bad:
            tally.fail(1, f"run_laws: {len(bad)} laws fail, first: {bad[0][:200]}")
        elif "laws" in golden and names != golden["laws"]["combos"]:
            tally.fail(1, "run_laws: the set of (law, combo) names changed")
        return _digest(names)


WORKLOADS = {w.name: w for w in (SimDeep(), CheckBounded(), LawsSweep())}
