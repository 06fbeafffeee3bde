import dataclasses
import itertools
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from causalcirc.domain import (
    BOOL,
    BOT,
    CapError,
    MonotoneFn,
    UNIT,
    lfp,
    local_lfp,
    sig,
    trace,
    tuple_leq,
)
from causalcirc import laws
from causalcirc.laws import (
    LawConfig,
    check_bekic,
    check_dinaturality,
    check_local_fixpoint,
    check_naturality_param,
    check_sliding,
    check_superposing,
    check_vanishing,
    check_yanking,
    count_monotone,
    enumerate_monotone,
    random_monotone,
    run_laws,
    _Budget,
    _join,
    _poset,
    _shape,
    _upsets,
)

import oracles

B = sig(BOOL)
U = sig(UNIT)
BB = sig(BOOL, BOOL)

SMALL = LawConfig(pair_budget=400, samples=25, seed=3)


# -- enumeration ----------------------------------------------------------


def test_known_monotone_counts():
    # Counting monotone maps between small lifted products is a classic
    # lattice exercise; these values pin the enumerator.
    assert count_monotone(U, U) == 3
    assert count_monotone(B, B) == 11
    assert count_monotone(sig(UNIT, UNIT), U) == 6
    assert count_monotone(BB, B) == 197
    assert count_monotone(sig(BOOL, BOOL, BOOL), B) == 129615


def test_a_count_never_lists_the_codomain(monkeypatch):
    # A count reads the domain's shape and each codomain wire's atoms only:
    # the 3**30 points of thirty bool wires are never listed.
    wide = sig(*[BOOL] * 30)
    listed = laws._indexed

    def guarded(s):
        assert s != wide, "the codomain's points were listed"
        return listed(s)

    monkeypatch.setattr(laws, "_indexed", guarded)
    assert count_monotone(U, wide) == 5**30
    assert count_monotone(B, wide) == 11**30


SMALL_SIGS = [sig(*ws) for k in range(3) for ws in itertools.product((UNIT, BOOL), repeat=k)]


def _rows(table: dict) -> tuple:
    return tuple(table.values())


@pytest.mark.parametrize("dom", SMALL_SIGS, ids=repr)
def test_enumeration_and_count_agree_with_the_backtracking_oracle(dom):
    for cod in SMALL_SIGS:
        want = [_rows(t) for t in oracles.backtrack_monotone(dom, cod)]
        got = [_rows(f.table) for f in enumerate_monotone(dom, cod)]
        assert count_monotone(dom, cod) == len(want) == len(got)
        if len(cod) == 1:
            assert got == want  # single-wire spaces keep the oracle's order
        else:
            assert sorted(got, key=repr) == sorted(want, key=repr)


def test_enumeration_agrees_with_the_brute_filter():
    listed = {
        tuple(sorted(f.table.items(), key=repr))
        for f in enumerate_monotone(B, B)
    }
    brute = set()
    for table in oracles.all_functions(B, B):
        f = MonotoneFn(B, B, table.__getitem__, table=table)
        if oracles.brute_is_monotone(f):
            brute.add(tuple(sorted(table.items(), key=repr)))
    assert listed == brute


def test_enumeration_yields_monotone_functions_in_a_stable_order():
    first = [f.table for f in enumerate_monotone(B, B)]
    second = [f.table for f in enumerate_monotone(B, B)]
    assert first == second
    for f in enumerate_monotone(BB, B):
        pass  # the generator must not blow past its budget silently


def test_enumeration_budget_guard():
    big = sig(*[BOOL] * 3)
    with pytest.raises(CapError):
        for _ in enumerate_monotone(big, big, budget=2000):
            pass


def _logged(i: int, values, log: list, fail: bool = False):
    """Factor i of a product, logging each value as it is pulled."""
    for x in values:
        log.append((i, x))
        yield x
    if fail:
        raise CapError(f"factor {i} ran out")


def _nested(factors, log: list, i: int = 0, row: tuple = ()) -> None:
    """Nested for-loops over the factors, logging each value where a loop
    first reaches it and each row as it is made."""
    if i == len(factors):
        log.append(("row", row))
        return
    for x in factors[i]:
        if (i, x) not in log:
            log.append((i, x))
        _nested(factors, log, i + 1, row + (x,))


@pytest.mark.parametrize(
    "sizes", [(), (0,), (3,), (2, 0), (0, 2), (2, 3), (2, 0, 3), (3, 1, 2), (2, 2, 2, 2)]
)
def test_product_pulls_its_factors_as_nested_loops_would(sizes):
    # _product records each factor after the first on its first pass and
    # replays it after: its rows are itertools.product's, and each value is
    # pulled just before the first row nested loops would reach it in.
    factors = [[f"{i}.{j}" for j in range(n)] for i, n in enumerate(sizes)]
    log, want = [], []
    for row in laws._product([_logged(i, f, log) for i, f in enumerate(factors)]):
        log.append(("row", row))
    _nested(factors, want)
    assert log == want
    assert [r for tag, r in log if tag == "row"] == list(itertools.product(*factors))


@pytest.mark.parametrize("k", range(3))
def test_a_product_factor_that_raises_stops_at_the_row_nested_loops_would(k):
    # Factor k raises once its first pass is done: nested loops get there
    # after the rows whose earlier factors still hold their first values.
    factors = [[f"{i}.{j}" for j in range(2)] for i in range(3)]
    cols = [_logged(i, f, [], fail=i == k) for i, f in enumerate(factors)]
    rows = []
    with pytest.raises(CapError, match=f"^factor {k} ran out$"):
        for row in laws._product(cols):
            rows.append(row)
    first = tuple(f[0] for f in factors[:k])
    assert rows == [r for r in itertools.product(*factors) if r[:k] == first]


def test_a_counting_budget_holds_after_the_shape_was_listed():
    # Up-sets are listed once per shape and process; a later count spends
    # the steps that listing took, so a budget ends as it would first.
    assert count_monotone(BB, B) == 197
    for cod in B, BB:
        with pytest.raises(CapError) as e:
            count_monotone(BB, cod, budget=10)
        assert str(e.value) == f"budget of 10 steps exceeded building {BB!r} -> {cod!r}"
    small = dict(pair_budget=400, samples=5)
    assert check_bekic(LawConfig(**small)).passed
    with pytest.raises(CapError, match=r"^budget of 50000 steps exceeded "
                       r"building sig\(bool, bool, bool\) -> sig\(bool\)$"):
        check_bekic(LawConfig(budget=50_000, **small))


def test_a_sampled_sweep_lists_up_sets_under_the_sweeps_budget(monkeypatch):
    # A sweep counts each space under its own budget and then samples it;
    # the draws reuse what the count listed, so the default budget of
    # random_monotone plays no part.
    monkeypatch.setattr(laws, "_BUDGET", 0)
    res = check_local_fixpoint(LawConfig(budget=10**6, pair_budget=0, samples=1))
    assert res.passed
    assert {cr.mode for cr in res.combos} == {"sampled"}


@given(st.integers(0, 2**32 - 1))
def test_random_monotone_samples_are_monotone(seed):
    rng = random.Random(seed)
    dom = rng.choice([U, B, BB])
    cod = rng.choice([U, B])
    f = random_monotone(dom, cod, rng)
    assert oracles.brute_is_monotone(f)
    assert set(f.table) == set(dom.tuples())


def test_random_monotone_is_uniform_on_a_small_space():
    # 11,000 draws over the 11 maps B -> B: each map is expected 1,000
    # times with a standard deviation of about 30; allow 5 of those.
    rng = random.Random(5)
    tally = Counter(
        _rows(random_monotone(B, B, rng).table) for _ in range(11_000)
    )
    assert set(tally) == {_rows(f.table) for f in enumerate_monotone(B, B)}
    assert all(abs(n - 1000) <= 150 for n in tally.values()), tally


def _rejoin(shape, u: int) -> tuple:
    above = _poset(shape).above
    comps: tuple = ()
    for i in range(len(above) - 1, -1, -1):
        if u >> i & 1:
            comps = _join(comps, i, above[i])
    return comps


@pytest.mark.parametrize("dom, sample", [(BB, None), (sig(BOOL, BOOL, BOOL), 400)])
def test_stored_components_match_a_rejoin(dom, sample):
    # Sampling reads each up-set's components from the arrays _upsets
    # fills; they must be what joining its points from the top gives.
    shape = _shape(dom)
    groups = _upsets(shape, _Budget(10**6, dom, U))
    for k, (ups, comps) in enumerate(groups):
        assert len(comps) == k * len(ups)
    slots = [(k, i) for k, (ups, _) in enumerate(groups) for i in range(len(ups))]
    if sample is not None:
        slots = random.Random(1).sample(slots, sample)
    for k, i in slots:
        ups, comps = groups[k]
        assert tuple(comps[i * k : i * k + k]) == _rejoin(shape, ups[i])


def test_random_monotone_draws_once_per_codomain_wire():
    # A draw costs one randrange per codomain wire and never restarts, so a
    # second generator that only makes those calls stays in step.
    b3 = sig(BOOL, BOOL, BOOL)
    rng, shadow = random.Random(9), random.Random(9)
    for _ in range(50):
        f = random_monotone(b3, b3, rng)
        assert oracles.brute_is_monotone(f)
        for _ in range(3):
            shadow.randrange(129615)
    assert rng.random() == shadow.random()


# -- the healthy sweep ----------------------------------------------------


def test_all_laws_hold_on_a_small_budget():
    results = run_laws(SMALL)
    assert [r.law for r in results] == [
        "fixpoint",
        "naturality-param",
        "dinaturality",
        "bekic",
        "yanking",
        "vanishing",
        "sliding",
        "superposing",
    ]
    for res in results:
        assert res.passed, res.first_counterexample()
        assert res.cases > 0


def test_sweeps_record_their_mode():
    res = check_bekic(SMALL)
    modes = {cr.mode for cr in res.combos}
    assert "exhaustive" in modes  # the all-unit combo fits the budget
    assert "sampled" in modes  # the all-bool combo does not


def test_config_needs_at_least_one_sample():
    for n in (0, -1):
        with pytest.raises(ValueError, match="samples"):
            LawConfig(samples=n)


def test_config_rejects_negative_budgets():
    for field in ("budget", "pair_budget"):
        with pytest.raises(ValueError, match=f"^{field} must not be negative"):
            LawConfig(**{field: -1})
        LawConfig(**{field: 0})


def test_sweep_is_deterministic_for_a_seed():
    a = check_dinaturality(SMALL)
    b = check_dinaturality(SMALL)
    assert a == b


# -- mutation: a non-least fixed point ------------------------------------


def mu_greatest(f: MonotoneFn, split: int) -> MonotoneFn:
    """A deliberately wrong mu: the last fixed point in enumeration order."""
    ctx, loop = f.dom[:split], f.dom[split:]

    def solve(a):
        for x in reversed(list(loop.tuples())):
            if f.fn(a + x) == x:
                return x
        raise AssertionError("a monotone loop must have a fixed point")

    return MonotoneFn(ctx, f.cod, solve)


def test_non_least_mu_is_caught_by_the_fixpoint_law():
    res = check_local_fixpoint(LawConfig(mu=mu_greatest, pair_budget=400))
    assert not res.passed
    cx = res.first_counterexample()
    assert cx is not None
    assert cx.combo == "A=unit,X=unit"


def test_non_least_mu_counterexample_is_minimal_in_enumeration_order():
    # Reproduce the sweep by hand: the reported function must be the first
    # one in enumeration order whose fixed points are not unique.
    dom = sig(UNIT, UNIT)
    first_bad = None
    for f in enumerate_monotone(dom, U):
        mg = mu_greatest(f, 1)
        ml = local_lfp(f, 1)
        if any(mg.fn(a) != ml.fn(a) for a in U.tuples()):
            first_bad = f
            break
    assert first_bad is not None
    res = check_local_fixpoint(LawConfig(mu=mu_greatest, pair_budget=400))
    cx = res.first_counterexample()
    assert str(dict(first_bad.table)) in cx.detail


def mu_crashing(f: MonotoneFn, split: int) -> MonotoneFn:
    raise RuntimeError("no fixed point here")


def test_an_operator_that_raises_fails_the_case_not_the_sweep():
    res = check_bekic(LawConfig(mu=mu_crashing, pair_budget=400, samples=5))
    assert [cr.cases for cr in res.combos] == [1] * len(res.combos)
    cx = res.first_counterexample()
    assert "raised RuntimeError: no fixed point here for f={" in cx.detail
    assert ", g={" in cx.detail
    # Every law, yanking included, reports the raise instead of ending the run.
    results = run_laws(LawConfig(mu=mu_crashing, pair_budget=400, samples=5))
    for res in results:
        cx = res.first_counterexample()
        assert cx is not None, res.law
        assert "raised RuntimeError: no fixed point here" in cx.detail, res.law


def mu_one_step(f: MonotoneFn, split: int) -> MonotoneFn:
    """Another wrong mu: a single Kleene step from bottom, never iterated."""
    ctx, loop = f.dom[:split], f.dom[split:]
    return MonotoneFn(ctx, f.cod, lambda a: f.fn(a + loop.bottom()))


def test_one_step_mu_slips_past_single_wire_loops():
    # On one lifted flat wire a single step already lands on the least
    # fixed point, so the basic law cannot see this mutant ...
    res = check_local_fixpoint(LawConfig(mu=mu_one_step, pair_budget=400))
    assert res.passed


def test_one_step_mu_is_caught_by_bekic():
    # ... but the simultaneous fixed point in the product domain needs a
    # second step, and the pairing law notices.
    res = check_bekic(LawConfig(mu=mu_one_step, pair_budget=400, samples=25))
    assert not res.passed


def mu_bottom(f: MonotoneFn, split: int) -> MonotoneFn:
    """A wrong mu: the bottom tuple at every context, fixed or not."""
    loop = f.dom[split:]
    return MonotoneFn(f.dom[:split], f.cod, lambda a: loop.bottom())


def test_a_bottom_mu_is_caught_as_not_fixed():
    res = check_local_fixpoint(LawConfig(mu=mu_bottom, pair_budget=400))
    assert res.first_counterexample().detail.startswith(
        "mu value (_,) at context (0,) is not fixed for "
        "f={(_, _): (_,), (_, 0): (_,), (0, _): (0,), (0, 0): (0,)}"
    )


def mu_greatest_past_one_wire(f: MonotoneFn, split: int) -> MonotoneFn:
    """A wrong mu: least for a context of at most one wire, greatest beyond."""
    return (local_lfp if split <= 1 else mu_greatest)(f, split)


def test_a_mu_that_changes_with_the_context_width_fails_superposing():
    # Superposing solves the same loop under contexts C + A and A; the two
    # solutions differ, and f's output tells them apart.
    res = check_superposing(LawConfig(mu=mu_greatest_past_one_wire, pair_budget=400))
    cx = res.first_counterexample()
    assert cx.combo == "C=unit,A=unit,B=unit,X=unit"
    assert cx.detail.startswith(
        "at (_, 0): (_, 0) vs (_, _) for "
        "f={(_, _): (_, _), (_, 0): (_, _), (0, _): (_, _), (0, 0): (0, 0)}"
    )


# -- operators whose values lie outside the loop signature --------------


def mu_outside(f: MonotoneFn, split: int) -> MonotoneFn:
    """A wrong mu whose every value is 2 on every loop wire."""
    n = len(f.dom) - split
    return MonotoneFn(f.dom[:split], f.cod, lambda a: (2,) * n)


def mu_one_wire_too_long(f: MonotoneFn, split: int) -> MonotoneFn:
    """A wrong mu whose values carry one bottom wire more than the loop."""
    m = local_lfp(f, split)
    return MonotoneFn(m.dom, m.cod, lambda a: m.fn(a) + (BOT,))


# Per law, the value, context and loop signature its first case reports.
OFF_LOOP = {
    mu_outside: {
        "fixpoint": ("(2,)", "(_,)", "sig(unit)"),
        "dinaturality": ("(2,)", "(_,)", "sig(unit)"),
        "bekic": ("(2,)", "(_, _)", "sig(unit)"),
        "yanking": ("(2,)", "(_,)", "sig(unit)"),
        "vanishing": ("(2, 2)", "(_,)", "sig(unit, unit)"),
        "sliding": ("(2,)", "(_,)", "sig(unit)"),
        "superposing": ("(2,)", "(_, _)", "sig(unit)"),
    },
    mu_one_wire_too_long: {
        "fixpoint": ("(_, _)", "(_,)", "sig(unit)"),
        "dinaturality": ("(_, _)", "(_,)", "sig(unit)"),
        "bekic": ("(_, _)", "(_, _)", "sig(unit)"),
        "yanking": ("(_, _)", "(_,)", "sig(unit)"),
        "vanishing": ("(_,)", "(_,)", "sig()"),
        "sliding": ("(_, _)", "(_,)", "sig(unit)"),
        "superposing": ("(_, _)", "(_, _)", "sig(unit)"),
    },
}


@pytest.mark.parametrize("mu", list(OFF_LOOP), ids=lambda mu: mu.__name__)
def test_values_outside_the_loop_signature_are_never_taken_for_points(mu):
    # Numbering such a value by its atoms would alias it to a real point of
    # the loop; every law that feeds mu back into a table must fail with
    # the value it got instead.  Naturality compares mu with mu and cannot
    # tell.
    results = run_laws(LawConfig(mu=mu, pair_budget=2000, seed=11))
    failing = [res.law for res in results if not res.passed]
    assert failing == [res.law for res in results if res.law != "naturality-param"]
    assert failing == list(OFF_LOOP[mu])
    for res in results:
        cx = res.first_counterexample()
        if cx is not None:
            value, ctx, loop = OFF_LOOP[mu][res.law]
            want = f"mu value {value} at context {ctx} is not a value of {loop}"
            assert cx.detail.startswith(want + " for f={"), (res.law, cx.detail)


# -- the work of a sweep -----------------------------------------------------

# Per law: the wire names of its combos, their suffix, and per combo in
# sweep order its mode (e: exhaustive, s: sampled) and cases.
PINNED_WORK = {
    "fixpoint": [("AX", "", "e6 e35 e14 e197")],
    "naturality-param": [("AXB", "", "e18 e30 e105 e175 e70 e154 e985 s200")],
    "dinaturality": [("AXY", "", "e18 e55 e70 e385 e42 e175 e240 s200")],
    "bekic": [("AXY", "", "e400 s200 s200 s200 s200 s200 s200 s200")],
    "yanking": [("X", "", "e2 e3")],
    "vanishing": [
        ("AB", ",k=0", "e3 e5 e5 e11"),
        ("AXY", ",nested", "s200 s200 s200 s200 s200 s200 s200 s200"),
    ],
    "sliding": [
        (
            "ABXY",
            "",
            "e108 e330 e980 s200 e198 e605 s200 s200 "
            "e588 s200 s200 s200 e1470 s200 s200 s200",
        )
    ],
    "superposing": [
        (
            "CABX",
            "",
            "e36 e490 e66 e1225 e196 s200 e490 s200 "
            "e36 e490 e66 e1225 e196 s200 e490 s200",
        )
    ],
}


def test_a_sweep_does_pinned_work(monkeypatch):
    # Any speed-up of the sweep must come from bookkeeping: the operator is
    # called and solves as often as ever, and the same functions are drawn.
    seen = Counter()

    def counting_mu(f, split):
        seen["mu"] += 1
        m = local_lfp(f, split)

        def solve(a):
            seen["solves"] += 1
            return m.fn(a)

        return dataclasses.replace(m, fn=solve)

    def counting_sampler(*args, **kwargs):
        seen["samples"] += 1
        return random_monotone(*args, **kwargs)

    def counting_enumeration(*args, **kwargs):
        seen["spaces"] += 1
        for f in enumerate_monotone(*args, **kwargs):
            seen["enumerated"] += 1
            yield f

    monkeypatch.setattr(laws, "random_monotone", counting_sampler)
    monkeypatch.setattr(laws, "enumerate_monotone", counting_enumeration)
    results = run_laws(LawConfig(pair_budget=2000, seed=11, mu=counting_mu))
    assert dict(seen) == {
        "mu": 40_092,
        "solves": 131_580,
        "samples": 9_600,
        "spaces": 64,
        "enumerated": 7_064,
    }
    got = {r.law: [(cr.combo, cr.mode, cr.cases) for cr in r.combos] for r in results}
    want = {}
    for law, families in PINNED_WORK.items():
        rows = want.setdefault(law, [])
        for names, suffix, work in families:
            combos = itertools.product(("unit", "bool"), repeat=len(names))
            for bases, w in zip(combos, work.split(), strict=True):
                combo = ",".join(f"{n}={b}" for n, b in zip(names, bases)) + suffix
                mode = {"e": "exhaustive", "s": "sampled"}[w[0]]
                rows.append((combo, mode, int(w[1:])))
    assert got == want
    assert sum(map(len, got.values())) == 74
    assert sum(r.cases for r in results) == 18_488
    assert all(r.passed for r in results)


# The default config's combos as PINNED_WORK gives them; every one holds.
DEFAULT_WORK = {
    "fixpoint": "e6 e35 e14 e197",
    "naturality-param": "e18 e30 e105 e175 e70 e154 e985 e2167",
    "dinaturality": "e18 e55 e70 e385 e42 e175 e240 e2167",
    "bekic": "e400 e18228 e18228 s200 e7056 s200 s200 s200",
    "yanking": "e2 e3",
    "vanishing": "e3 e5 e5 e11 e8000 s200 s200 s200 s200 s200 s200 s200",
    "sliding": "e108 e330 e980 e5390 e198 e605 e2450 e13475 "
    "e588 e2450 e11520 s200 e1470 e6125 e47280 s200",
    "superposing": "e36 e490 e66 e1225 e196 e9456 e490 e38809 "
    "e36 e490 e66 e1225 e196 e9456 e490 e38809",
}


def unit_sweep_then_default(mu: str) -> list[str]:
    """In a fresh process, a unit-only sweep and then the default one, both
    with the operator named by ``mu``: each default combo, as a line."""
    script = (
        "from causalcirc.domain import UNIT, local_lfp\n"
        "from causalcirc.laws import LawConfig, run_laws\n"
        f"run_laws(LawConfig(bases=(UNIT,), mu={mu}))\n"
        f"for r in run_laws(LawConfig(mu={mu})):\n"
        "    for cr in r.combos:\n"
        "        print(r.law, cr.mode[0] + str(cr.cases), cr.counterexample)\n"
    )
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


DEFAULT_LINES = [f"{law} {w} None" for law, work in DEFAULT_WORK.items() for w in work.split()]


def test_a_unit_sweep_first_leaves_the_default_sweep_unchanged():
    # Loop splits are kept per signature, and point numberings and up-sets
    # per equal signature or shape, for the life of the process.  In a fresh
    # one, a unit-only sweep fills them first; the default sweep after it
    # must still find exactly its pinned combos.
    assert unit_sweep_then_default("local_lfp") == DEFAULT_LINES


def test_a_unit_sweep_first_leaves_the_in_process_sweep_unchanged():
    # Caches a forked worker fills go with it, so on workers the test above
    # covers only the laws the caller runs.  An injected operator keeps
    # every sweep in the caller, where each law meets what every earlier
    # sweep left in the caches.
    assert unit_sweep_then_default("lambda f, s: local_lfp(f, s)") == DEFAULT_LINES


# -- the sweeps on workers ---------------------------------------------------


needs_workers = pytest.mark.skipif(
    laws._workers(LawConfig()) < 2, reason="needs os.fork and 2 usable CPUs"
)


def in_process(cfg: LawConfig) -> LawConfig:
    """``cfg`` with an injected operator that only calls ``local_lfp``: its
    sweeps all run in the caller."""
    return dataclasses.replace(cfg, mu=lambda f, split: local_lfp(f, split))


def count_forks(monkeypatch) -> list[int]:
    """The pids of the children forked from here on, as they are forked."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def patch_every_sweep(monkeypatch, sweep):
    for law in laws._sweeps():
        monkeypatch.setattr(laws, law.__name__, sweep)


def test_the_tickets_name_every_sweep_once():
    assert sorted(laws._HEAVIEST_FIRST) == list(range(len(laws._sweeps())))


@needs_workers
@pytest.mark.parametrize(
    "cfg",
    [
        LawConfig(bases=(UNIT,)),
        SMALL,
        LawConfig(pair_budget=2000, seed=11),
        LawConfig(pair_budget=2000, seed=424242),
    ],
    ids=["unit", "small", "cap2000-seed11", "cap2000-seed424242"],
)
def test_workers_give_what_one_process_gives(cfg, monkeypatch):
    forks = count_forks(monkeypatch)
    got = run_laws(cfg)
    assert len(forks) == laws._workers(cfg) - 1
    assert_no_child_left()
    want = run_laws(in_process(cfg))
    assert len(forks) == laws._workers(cfg) - 1  # none for an injected operator
    assert got == want


@needs_workers
def test_workers_raise_the_error_a_serial_run_raises(monkeypatch):
    # Bekic runs out of budget first in law order; vanishing, later in law
    # order, runs out too, with another text, and may end first.
    cfg = LawConfig(budget=2000, pair_budget=400, samples=5)
    forks = count_forks(monkeypatch)
    with pytest.raises(CapError) as on_workers:
        run_laws(cfg)
    assert forks
    assert_no_child_left()
    with pytest.raises(CapError) as in_caller:
        run_laws(in_process(cfg))
    want = "budget of 2000 steps exceeded building sig(unit, bool, bool) -> sig(bool)"
    assert str(on_workers.value) == str(in_caller.value) == want
    with pytest.raises(CapError, match=r"-> sig\(unit, bool, bool\)$"):
        check_vanishing(cfg)


@needs_workers
def test_a_failed_fork_leaves_the_sweeps_to_the_caller(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_laws(SMALL) == run_laws(in_process(SMALL))


def test_the_caller_runs_alone_while_other_threads_run(monkeypatch):
    forks = count_forks(monkeypatch)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert laws._workers(LawConfig()) == 1
        run_laws(LawConfig(bases=(UNIT,)))
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive() and not forks


@needs_workers
def test_a_worker_that_leaves_without_a_result_fails_the_run(monkeypatch):
    caller = os.getpid()

    def sweep(cfg):
        if os.getpid() != caller:
            os._exit(3)  # a worker dies holding a ticket
        # Hold this ticket until a worker has died, leaving it unreaped.
        deadline = time.monotonic() + 60
        while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        return check_yanking(cfg)

    patch_every_sweep(monkeypatch, sweep)
    with pytest.raises(RuntimeError, match="exited without a result"):
        run_laws(LawConfig(bases=(UNIT,)))
    assert_no_child_left()


@needs_workers
def test_an_interrupted_run_stops_and_reaps_its_workers(monkeypatch):
    caller = os.getpid()

    def sweep(cfg):
        if os.getpid() != caller:
            time.sleep(60)
        raise KeyboardInterrupt

    patch_every_sweep(monkeypatch, sweep)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_laws(LawConfig(bases=(UNIT,)))
    assert time.monotonic() - t0 < 30
    assert_no_child_left()


# -- the table checks against the lambda chains through trace ------------


@pytest.mark.parametrize(
    "mu",
    [local_lfp, mu_greatest, mu_one_step, mu_crashing],
    ids=lambda mu: mu.__name__,
)
def test_table_checks_agree_with_the_trace_chains(mu):
    cfg = dataclasses.replace(SMALL, mu=mu)
    assert run_laws(cfg) == oracles.trace_chain_laws(cfg)


# -- mutation: trace wired to the wrong projection ------------------------


def bad_trace_first(f: MonotoneFn, k: int):
    """Trace variant that loops the first k outputs instead of the last."""
    na = len(f.dom) - k
    n_out = len(f.cod) - k
    proj = MonotoneFn(f.dom, f.dom[na:], lambda t: f.fn(t)[:k])
    m = local_lfp(proj, na)
    return MonotoneFn(
        f.dom[:na], f.cod[:n_out], lambda a: f.fn(a + m.fn(a))[:n_out]
    )


def test_wrong_projection_breaks_yanking():
    swap = MonotoneFn(BB, BB, lambda t: (t[1], t[0]))
    good = trace(swap, 1, local_lfp)
    assert all(good.fn(x) == x for x in B.tuples())
    bad = bad_trace_first(swap, 1)
    assert any(bad.fn(x) != x for x in B.tuples())


# -- the trace laws against the scan oracle -------------------------------


@given(st.integers(0, 2**32 - 1))
def test_trace_mu_equals_the_scan_oracle(seed):
    rng = random.Random(seed)
    f = random_monotone(BB, BB, rng)
    got = trace(f, 1, local_lfp)
    want = oracles.brute_trace(f, 1)
    for a in B.tuples():
        assert got.fn(a) == want[a]


def test_individual_law_checks_pass_alone():
    for check in (
        check_naturality_param,
        check_yanking,
        check_vanishing,
        check_sliding,
        check_superposing,
    ):
        res = check(SMALL)
        assert res.passed, (res.law, res.first_counterexample())
