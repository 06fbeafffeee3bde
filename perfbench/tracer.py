"""Per-layer tracing by wrapping the package's public entry points.

The tracer patches functions from outside the package: callers import by
name (``analysis`` calls its own binding of ``simulate``, ``laws`` its own
``enumerate_monotone``), so every module attribute bound to a target is
replaced, and restored by ``restore``.  A target that no longer exists is
recorded as absent, and every metric derived from it is reported as absent
rather than as 0.

Each wrapped call pushes a frame; on exit its duration is added to its
parent's child time, which gives self time per call.  Coarse calls are also
kept as spans (id, parent id, name, start, end) in memory and written out
at the end of the run.  Calls made millions of times (a sweep, one solve of
the fixed-point operator, one step of an enumeration) are counted and timed
but kept out of the span list.
"""

from __future__ import annotations

import dataclasses
import sys
from time import perf_counter

LAYERS = ("netlist", "circuit", "comb", "engine", "streams", "analysis", "laws", "domain")

# The law functions ``run_laws`` calls, with the law names they report.
LAW_FUNCS = (
    ("check_local_fixpoint", "fixpoint"),
    ("check_naturality_param", "naturality-param"),
    ("check_dinaturality", "dinaturality"),
    ("check_bekic", "bekic"),
    ("check_yanking", "yanking"),
    ("check_vanishing", "vanishing"),
    ("check_sliding", "sliding"),
    ("check_superposing", "superposing"),
)

MAX_SPANS = 300_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.dropped_spans = 0
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}  # outermost calls only, no overlap
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.absent: set[str] = set()
        self._depth: dict[str, int] = {}
        self._stack: list[list] = []  # [span id or None, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- timing -----------------------------------------------------------

    def enter(self, name: str, span: bool) -> tuple:
        sid = None
        if span:
            sid = self._next_id
            self._next_id += 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        self._depth[name] = self._depth.get(name, 0) + 1
        return (name, span, frame, perf_counter())

    def exit(self, token: tuple) -> None:
        end = perf_counter()
        name, span, frame, start = token
        self._stack.pop()
        dur = end - start
        self._depth[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
        if self._depth[name] == 0:
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][1] += dur
        if span:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[0], self._parent_id(), name, start, end))
            else:
                self.dropped_spans += 1

    def _parent_id(self) -> int | None:
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn, span: bool = True, on_result=None):
        def wrapper(*args, **kwargs):
            token = self.enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(token)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        had = attr in vars(obj)
        self._patches.append((obj, attr, had, vars(obj).get(attr)))
        setattr(obj, attr, value)

    def patch_function(self, home, attr: str, name: str, wrapper=None, span=True) -> None:
        """Wrap ``home.attr`` in every package module that binds it."""
        orig = getattr(home, attr, None)
        if orig is None:
            self.absent.add(name)
            return
        new = wrapper(orig) if wrapper else self.timed(name, orig, span)
        package = home.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, new)

    def patch_method(self, cls_home, cls_attr: str, meth: str, name: str, span=True) -> None:
        cls = getattr(cls_home, cls_attr, None)
        orig = vars(cls).get(meth) if cls is not None else None
        if orig is None:
            self.absent.add(name)
            return
        self._set(cls, meth, self.timed(name, orig, span))

    def restore(self) -> None:
        for obj, attr, had, value in reversed(self._patches):
            if had:
                setattr(obj, attr, value)
            else:
                delattr(obj, attr)
        self._patches.clear()

    # -- the package's entry points --------------------------------------

    def install(self, cc) -> None:
        """Wrap the public entry points of every layer of package ``cc``."""
        pf, pm = self.patch_function, self.patch_method
        pf(cc.netlist, "parse_netlist", "netlist.parse_netlist")
        pf(cc.netlist, "print_netlist", "netlist.print_netlist")
        pf(cc.circuit, "validate", "circuit.validate")
        pf(cc.circuit, "is_contractive", "circuit.is_contractive")
        pm(cc.comb, "Propagator", "__init__", "comb.compile")
        pm(cc.comb, "Propagator", "solve", "comb.solve")
        pm(cc.comb, "Propagator", "sweep", "comb.sweep", span=False)
        pf(cc.engine, "initial_state", "engine.initial_state")
        pf(cc.engine, "step", "engine.step")
        pf(cc.engine, "simulate", "engine.simulate")
        pf(cc.streams, "read_stream", "streams.read_stream")
        pf(cc.streams, "write_stream", "streams.write_stream")

        def count_cases(report) -> None:
            self.count("analysis.traces", report.cases)

        for attr in ("check_totality", "check_equiv"):
            pf(
                cc.analysis,
                attr,
                f"analysis.{attr}",
                lambda f, n=f"analysis.{attr}": self.timed(n, f, on_result=count_cases),
            )
        pf(cc.analysis, "totality_guarantee", "analysis.totality_guarantee")
        pf(cc.laws, "run_laws", "laws.run_laws")
        for attr, law in LAW_FUNCS:
            pf(cc.laws, attr, f"laws.{law}")
        pf(cc.laws, "random_monotone", "laws.random_monotone")
        pf(cc.laws, "enumerate_monotone", "laws.enumerate_monotone", self._wrap_enum)
        if getattr(cc.domain, "local_lfp", None) is None:
            self.absent.add("domain.mu_solve")

    def _wrap_enum(self, orig):
        """Time each step of an enumeration; count spaces, functions, abandons."""
        name = "laws.enumerate_monotone"

        def wrapper(*args, **kwargs):
            self.count("laws.enum_spaces")
            it = orig(*args, **kwargs)
            n = 0
            finished = False
            try:
                while True:
                    token = self.enter(name, False)
                    try:
                        f = next(it)
                    except StopIteration:
                        finished = True
                        return
                    finally:
                        self.exit(token)
                    n += 1
                    yield f
            finally:
                it.close()
                self.count("laws.enum_fns", n)
                if finished:
                    self.count("laws.enum_kept_fns", n)
                else:
                    self.count("laws.enum_abandoned")

        return wrapper

    def mu(self, cc):
        """A fixed-point operator for ``LawConfig(mu=...)`` that times each solve.

        None, so that the default operator runs, when ``local_lfp`` is gone.
        """
        local_lfp = getattr(cc.domain, "local_lfp", None)
        if local_lfp is None:
            return None

        def traced_mu(f, split):
            m = local_lfp(f, split)
            solve = self.timed("domain.mu_solve", m.fn, span=False)
            return dataclasses.replace(m, fn=solve)

        return traced_mu

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float | None]:
        """Every per-layer metric; None marks one whose function is absent."""
        calls, tot, selfs, cnt = self.calls, self.total_s, self.self_s, self.counts

        def need(*names):
            return not any(n in self.absent for n in names)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        ticks = calls.get("engine.step", 0)
        traces = cnt.get("analysis.traces", 0)
        law_s = sum(tot.get(f"laws.{law}", 0.0) for _, law in LAW_FUNCS)
        enum_s = tot.get("laws.enumerate_monotone", 0.0)
        sample_s = tot.get("laws.random_monotone", 0.0)
        enum_fns = cnt.get("laws.enum_fns", 0)
        law_names = [f"laws.{law}" for _, law in LAW_FUNCS]
        m: dict[str, tuple[float, tuple[str, ...]]] = {
            "netlist.parse_s": (tot.get("netlist.parse_netlist", 0.0), ("netlist.parse_netlist",)),
            "netlist.parse_calls": (calls.get("netlist.parse_netlist", 0), ("netlist.parse_netlist",)),
            "netlist.print_s": (tot.get("netlist.print_netlist", 0.0), ("netlist.print_netlist",)),
            "circuit.validate_s": (tot.get("circuit.validate", 0.0), ("circuit.validate",)),
            "circuit.contractive_s": (tot.get("circuit.is_contractive", 0.0), ("circuit.is_contractive",)),
            "comb.compile_s": (tot.get("comb.compile", 0.0), ("comb.compile",)),
            "comb.solve_s": (tot.get("comb.solve", 0.0), ("comb.solve",)),
            "comb.sweeps_per_tick": (ratio(calls.get("comb.sweep", 0), ticks), ("comb.sweep", "engine.step")),
            "engine.step_self_s": (selfs.get("engine.step", 0.0), ("engine.step",)),
            "engine.ticks": (ticks, ("engine.step",)),
            "engine.ticks_per_trace": (
                ratio(ticks, traces),
                ("engine.step", "analysis.check_totality", "analysis.check_equiv"),
            ),
            "streams.read_s": (tot.get("streams.read_stream", 0.0), ("streams.read_stream",)),
            "streams.write_s": (tot.get("streams.write_stream", 0.0), ("streams.write_stream",)),
            "analysis.totality_self_s": (selfs.get("analysis.check_totality", 0.0), ("analysis.check_totality",)),
            "analysis.equiv_self_s": (selfs.get("analysis.check_equiv", 0.0), ("analysis.check_equiv",)),
            "analysis.traces": (traces, ("analysis.check_totality", "analysis.check_equiv")),
        }
        for _, law in LAW_FUNCS:
            m[f"laws.{law}.s"] = (tot.get(f"laws.{law}", 0.0), (f"laws.{law}",))
        enum = ("laws.enumerate_monotone",)
        m.update(
            {
                "laws.enum_s": (enum_s, enum),
                "laws.enum_fns": (enum_fns, enum),
                "laws.enum_spaces": (cnt.get("laws.enum_spaces", 0), enum),
                "laws.enum_abandoned": (cnt.get("laws.enum_abandoned", 0), enum),
                "laws.enum_kept_ratio": (ratio(cnt.get("laws.enum_kept_fns", 0), enum_fns), enum),
                "laws.sample_s": (sample_s, ("laws.random_monotone",)),
                "laws.samples": (calls.get("laws.random_monotone", 0), ("laws.random_monotone",)),
                "laws.check_s": (
                    law_s - enum_s - sample_s,
                    (*law_names, "laws.enumerate_monotone", "laws.random_monotone"),
                ),
                "domain.mu_solves": (calls.get("domain.mu_solve", 0), ("domain.mu_solve",)),
                "domain.mu_s": (tot.get("domain.mu_solve", 0.0), ("domain.mu_solve",)),
            }
        )
        for layer in LAYERS:
            names = [n for n in selfs if n.split(".")[0] == layer]
            m[f"{layer}.self_s"] = (sum(selfs[n] for n in names), ())
        return {k: (v if need(*deps) else None) for k, (v, deps) in m.items()}

    def spans_json(self) -> dict:
        return {
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "dropped": self.dropped_spans,
            "absent": sorted(self.absent),
        }
