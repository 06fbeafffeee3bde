"""End-to-end checks of the package's headline guarantees.

Each test exercises one guarantee at full scale, prints a single PASS or
FAIL line naming it, and asserts.  Run with ``pytest -s`` to see the lines.
Tolerances and corpus sizes are pinned as constants next to each test.
"""

import glob
import random
import time
from functools import lru_cache
from pathlib import Path

from test_laws import mu_greatest

from causalcirc import laws
from causalcirc.analysis import check_equiv, check_totality
from causalcirc.circuit import dump_json, trace_loop
from causalcirc.comb import denote
from causalcirc.domain import (
    BOOL,
    BOT,
    CapError,
    kleene_bound,
    kleene_steps,
    lfp,
    local_lfp,
    product_height_bound,
    sig,
    trace,
)
from causalcirc.engine import (
    bot_trace,
    random_trace,
    simulate,
)
from causalcirc.gates import por
from causalcirc.laws import enumerate_monotone, random_monotone, run_laws
from causalcirc.netlist import parse_netlist, print_netlist
from causalcirc.random_circuits import (
    GenConfig,
    random_circuit,
    random_contractive_circuit,
    random_delay_free_circuit,
)
from oracles import (
    brute_fixed_points,
    brute_pre_fixed_points,
    check_causality,
    least_of,
)

ROOT = Path(__file__).resolve().parent.parent
CIRCUITS = ROOT / "circuits"


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(("PASS: " if ok else "FAIL: ") + name)
    assert ok, detail or name


def _load(name: str):
    with open(CIRCUITS / name, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def test_por_feedback_settles_to_one():
    TICKS, BUDGET_S = 16, 1e-3
    c = _load("por_loop.net")
    empty = bot_trace(sig(), TICKS)
    out = simulate(c, empty)
    settled = out.rows == ((1,),) * TICKS
    simulate(c, empty)  # warm the propagator cache before timing
    best = min(
        (lambda t0: (simulate(c, empty), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(5)
    )
    _report(
        "por with its output fed back outputs 1 at all 16 ticks, under 1 ms",
        settled and best < BUDGET_S,
        f"rows={out.rows[:4]}..., best of 5 = {best * 1e3:.3f} ms",
    )


def test_por_truth_table_gate_and_netlist():
    expected = {
        (BOT, BOT): BOT, (BOT, 0): BOT, (BOT, 1): 1,
        (0, BOT): BOT, (0, 0): 0, (0, 1): 1,
        (1, BOT): 1, (1, 0): 1, (1, 1): 1,
    }
    g = por()
    table = {t: g.fn(t) for t in g.dom.tuples()}
    gate_ok = len(table) == 9 and all(
        table[t] == (v,) for t, v in expected.items()
    )
    c = _load("por_gate.net")
    order = tuple(expected)
    from causalcirc.engine import PrefixTrace

    out = simulate(c, PrefixTrace(c.in_ports, order))
    net_ok = tuple(r[0] for r in out.rows) == tuple(expected[t] for t in order)
    _report(
        "por truth table: all 9 entries, by the gate and by a netlist",
        gate_ok and net_ok,
        f"gate_ok={gate_ok} net rows={out.rows}",
    )


@lru_cache(maxsize=1)
def _endofunction_universe():
    """Monotone endofunctions on 1..3 boolean wires.

    One and two wires are exhaustive (11 and 38,809 functions).  The
    three-wire space has 129,615^3 ~ 2.2e15 members, past any exhaustive
    sweep on any hardware, so that tier is the deterministic head of the
    enumeration plus seeded random draws.
    """
    tiers = []
    for k in (1, 2):
        s = sig(*(BOOL,) * k)
        tiers.append((s, list(enumerate_monotone(s, s)), "exhaustive"))
    s3 = sig(BOOL, BOOL, BOOL)
    fns = []
    try:
        for f in enumerate_monotone(s3, s3, budget=10**7):
            fns.append(f)
            if len(fns) >= 3000:
                break
    except CapError:
        pass
    rng = random.Random(3)
    fns.extend(random_monotone(s3, s3, rng) for _ in range(500))
    tiers.append((s3, fns, "sliced+sampled"))
    return tiers


def test_lfp_matches_brute_force():
    BUDGET_S = 60.0
    t0 = time.perf_counter()
    checked, bad = 0, []
    for s, fns, _ in _endofunction_universe():
        for f in fns:
            x = lfp(f)
            if x != least_of(brute_fixed_points(f)) or x != least_of(
                brute_pre_fixed_points(f)
            ):
                bad.append((s, f))
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "iterated lfp equals the least fixed point and least pre-fixed "
        "point by brute force (exhaustive to 2 wires, sliced+sampled at 3)",
        not bad and elapsed < BUDGET_S,
        f"{len(bad)} mismatches of {checked} in {elapsed:.1f}s",
    )


def test_kleene_stabilizes_within_both_bounds():
    violations, checked, seen = [], 0, {}
    for s, fns, _ in _endofunction_universe():
        b1, b2 = kleene_bound(s), product_height_bound(s)
        for f in fns:
            st = kleene_steps(f)
            seen[len(s)] = max(seen.get(len(s), 0), st)
            if st > b1 or st > b2:
                violations.append((s, st, b1, b2))
            checked += 1
    _report(
        "Kleene iteration stabilizes within wires+1 and within 2^wires",
        not violations,
        f"{len(violations)} of {checked} over bounds; worst per tier {seen}",
    )


def test_loop_closure_commutes_with_denotation():
    CORPUS, BUDGET_S = 120, 60.0
    t0 = time.perf_counter()
    rng = random.Random(5)
    bad = 0
    for _ in range(CORPUS):
        c = random_delay_free_circuit(rng)
        k = rng.randint(0, min(len(c.in_ports), len(c.out_ports)))
        lhs = denote(trace_loop(c, k))
        rhs = trace(denote(c), k, local_lfp)
        if any(lhs.fn(t) != rhs.fn(t) for t in lhs.dom.tuples()):
            bad += 1
    elapsed = time.perf_counter() - t0
    _report(
        "closing loops on the circuit equals tracing its denotation "
        "(120 random delay-free circuits, exact tables)",
        bad == 0 and elapsed < BUDGET_S,
        f"{bad} disagreements in {elapsed:.1f}s",
    )


def test_equational_laws_hold_and_expose_a_wrong_mu():
    BUDGET_S = 300.0
    t0 = time.perf_counter()
    results = run_laws(laws.LawConfig())
    by = {r.law: r for r in results}
    core = ("naturality-param", "dinaturality", "bekic", "yanking")
    all_pass = all(r.passed for r in results)
    core_exhaustive = all(
        any(cr.mode == "exhaustive" for cr in by[n].combos) for n in core
    )
    mutant = run_laws(
        laws.LawConfig(mu=mu_greatest, pair_budget=2000, samples=40, seed=1)
    )
    caught = [r.law for r in mutant if not r.passed]
    elapsed = time.perf_counter() - t0
    modes = [cr.mode for r in results for cr in r.combos]
    split = (
        f"{modes.count('exhaustive')} exhaustive / "
        f"{modes.count('sampled')} sampled combos"
    )
    _report(
        "both naturality laws, the pairing law, and yanking hold "
        f"exhaustively ({split}); a non-least mu is caught",
        all_pass and core_exhaustive and caught and elapsed < BUDGET_S,
        f"all_pass={all_pass} core_exhaustive={core_exhaustive} "
        f"{split} caught_by={caught} in {elapsed:.1f}s",
    )


def test_outputs_depend_only_on_past_inputs():
    PAIRS, TICKS = 1000, 6
    rng = random.Random(7)
    violations = 0
    for _ in range(PAIRS):
        c = random_circuit(rng)
        tr = random_trace(rng, c.in_ports, TICKS, p_bot=0.3)
        if not check_causality(c, tr):
            violations += 1
    _report(
        "every prefix re-simulation matches the truncated run "
        "(1000 random circuit/trace pairs)",
        violations == 0,
        f"{violations} violations",
    )


def test_pinned_vardelay_matches_unit_delay():
    RUNS, TICKS = 100, 32
    cv, cu = _load("vardelay_pinned.net"), _load("unit_delay.net")
    rng = random.Random(8)
    mismatches = 0
    for _ in range(RUNS):
        tr = random_trace(rng, cv.in_ports, TICKS, p_bot=0.25)
        if simulate(cv, tr).rows != simulate(cu, tr).rows:
            mismatches += 1
    _report(
        "a variable delay pinned to 1 equals the unit delay trace-for-trace "
        "(100 random inputs, 32 ticks)",
        mismatches == 0,
        f"{mismatches} differing traces",
    )


def test_contractive_total_circuits_check_total():
    CORPUS, HORIZON, SAMPLES = 100, 8, 1000
    rng = random.Random(9)
    cfg = GenConfig(bot_free_inits=True)
    not_total = 0
    for i in range(CORPUS):
        c = random_contractive_circuit(rng, cfg)
        if len(c.in_ports) == 0:
            rep = check_totality(c, HORIZON, strategy="exhaustive")
        else:
            rep = check_totality(
                c, HORIZON, strategy="random", samples=SAMPLES, seed=i
            )
        if not rep.total:
            not_total += 1
    _report(
        "contractive circuits with total gates and defined inits always "
        "check Total (100 circuits, horizon 8)",
        not_total == 0,
        f"{not_total} NotTotal verdicts",
    )


def test_equivalent_netlists_and_structural_distinction():
    HORIZON = 4
    d1, d2 = _load("diag_left.net"), _load("diag_right.net")
    r1, r2 = _load("rearrange_left.net"), _load("rearrange_right.net")
    diag = check_equiv(d1, d2, HORIZON, strategy="exhaustive")
    rear = check_equiv(r1, r2, HORIZON, strategy="exhaustive")
    distinct = dump_json(r1) != dump_json(r2)
    _report(
        "the two diagonal compositions agree, and the rearranged-not pair "
        "agrees semantically while dumping different structure",
        diag.equivalent and rear.equivalent and distinct,
        f"diag={diag.equivalent} rear={rear.equivalent} distinct={distinct}",
    )


def test_netlist_round_trip_identity():
    RANDOMS = 100
    ok = True
    for path in sorted(glob.glob(str(CIRCUITS / "*.net"))):
        with open(path, "r", encoding="utf-8") as fh:
            c = parse_netlist(fh.read())
        text = print_netlist(c)
        c2 = parse_netlist(text)
        ok = ok and c2 == c and print_netlist(c2) == text
    rng = random.Random(11)
    for _ in range(RANDOMS):
        c = random_circuit(rng)
        text = print_netlist(c)
        c2 = parse_netlist(text)
        ok = ok and c2 == c and print_netlist(c2) == text
    _report(
        "parse then print then parse is the identity on the whole corpus, "
        "and printing is byte-stable",
        ok,
    )
