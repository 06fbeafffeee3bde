import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from causalcirc.domain import (
    BOOL,
    BOT,
    BaseType,
    CapError,
    DivergenceError,
    MonotoneFn,
    Signature,
    SignatureError,
    UNIT,
    check_enumerable,
    int_range,
    is_int_range,
    kleene_bound,
    kleene_steps,
    lfp,
    local_lfp,
    product_height_bound,
    sig,
    trace,
    tuple_leq,
)
from causalcirc.analysis import Witness
from causalcirc.circuit import UnitDelay, compose, from_gate, tensor
from causalcirc.comb import denote
from causalcirc.engine import PrefixTrace
from causalcirc.gates import not_gate, por, table_gate
from causalcirc.laws import enumerate_monotone, random_monotone
from causalcirc.netlist import NetlistError, parse_netlist

import oracles

B = sig(BOOL)
BB = sig(BOOL, BOOL)


# -- bottom and the order ------------------------------------------------


def test_bot_is_a_singleton():
    assert copy.copy(BOT) is BOT
    assert copy.deepcopy(BOT) is BOT
    assert repr(BOT) == "_"


def test_bot_survives_pickling():
    # Pickled by reference, so what holds a bottom cell still equals itself
    # after a trip through a law worker's pipe.
    trace = PrefixTrace(B, ((0,), (BOT,)))
    for x in (BOT, trace, UnitDelay(BOOL), Witness(trace, 1, 0)):
        back = pickle.loads(pickle.dumps(x))
        assert back == x and repr(back) == repr(x)
    assert pickle.loads(pickle.dumps(BOT)) is BOT
    assert pickle.loads(pickle.dumps(trace)).rows[1][0] is BOT


def test_leq_on_lifted_bool():
    assert tuple_leq((BOT,), (BOT,))
    assert tuple_leq((BOT,), (0,)) and tuple_leq((BOT,), (1,))
    assert tuple_leq((0,), (0,)) and tuple_leq((1,), (1,))
    assert not tuple_leq((0,), (1,))
    assert not tuple_leq((1,), (0,))
    assert not tuple_leq((0,), (BOT,))


def test_tuple_leq_is_pointwise():
    assert tuple_leq((), ())
    assert tuple_leq((BOT, BOT), (BOT, 1))
    assert tuple_leq((BOT, 1), (0, 1))
    assert not tuple_leq((1, BOT), (BOT, 1))
    assert not tuple_leq((0, 1), (BOT, 1))
    assert not tuple_leq((0, 1), (0, 0))
    with pytest.raises(SignatureError):
        tuple_leq((0,), (0, 1))


def test_atoms_are_pairwise_incomparable():
    five = int_range(0, 4)
    for x in five.values:
        for y in five.values:
            assert tuple_leq((x,), (y,)) == (x == y)


# -- base types and signatures -------------------------------------------


def test_base_type_rejects_degenerate_value_sets():
    with pytest.raises(SignatureError):
        BaseType("empty", ())
    with pytest.raises(SignatureError):
        BaseType("dup", (0, 0))
    with pytest.raises(SignatureError):
        BaseType("holey", (0, BOT))


def test_wire_values_are_atoms_only():
    # True and 1.0 equal 1, and a gate's table would take them for it.
    for v in (True, False, 1.0, 0.0):
        assert not BOOL.is_member(v)
        assert not BB.conforms((v, 0))
        with pytest.raises(SignatureError):
            BOOL.check_member(v)
    for values in ((True, 2), (0, 1.5), (0, b"a")):
        with pytest.raises(SignatureError, match="atoms are ints or names"):
            BaseType("b", values)
    assert BOOL.is_member(1) and BaseType("e", ("a", "b")).is_member("a")


def test_membership_in_a_wide_type_is_one_exact_lookup():
    wide = int_range(0, 65535)
    enum = BaseType("temp", ("lo", "mid", "hi"))
    for t, out_of_range in ((wide, 65536), (enum, 0)):
        assert all(t.is_member(v) for v in t.values) and t.is_member(BOT)
        for v in (True, 1.0, out_of_range, -1, "0"):
            assert not t.is_member(v)
        assert t.members is t.members  # built once per type
    assert wide.is_member(0) and not wide.is_member(False)


def test_lifted_puts_bottom_first():
    assert BOOL.lifted == (BOT, 0, 1)
    assert UNIT.lifted == (BOT, 0)


def test_int_range():
    t = int_range(2, 5)
    assert t.name == "i2_5"
    assert t.values == (2, 3, 4, 5)
    assert is_int_range(t)
    # The check is on the value shape, so bool's {0, 1} qualifies too.
    assert is_int_range(BOOL)
    assert not is_int_range(BaseType("t3", ("lo", "mid", "hi")))
    assert not is_int_range(BaseType("gap", (0, 2)))
    with pytest.raises(SignatureError):
        int_range(3, 2)


def test_signature_tuple_order_starts_at_bottom():
    ts = list(BB.tuples())
    assert ts[0] == (BOT, BOT)
    assert len(ts) == BB.count() == 9
    assert set(BB.concrete_tuples()) == {
        (a, b) for a in (0, 1) for b in (0, 1)
    }
    assert BB.concrete_count() == 4


def test_signature_slicing_and_concat():
    s = sig(BOOL, UNIT, BOOL)
    assert s[1:] == sig(UNIT, BOOL)
    assert s[:1] + s[1:] == s
    assert s.bottom() == (BOT, BOT, BOT)


def test_signature_conformance():
    assert BB.conforms((0, BOT))
    assert not BB.conforms((0,))
    assert not BB.conforms((0, 2))
    with pytest.raises(SignatureError):
        BB.check((2, 0))


def test_enum_cap_guards_blowups():
    wide = sig(*([BOOL] * 6))
    with pytest.raises(CapError):
        check_enumerable(wide)


# -- monotone functions ---------------------------------------------------


def test_from_table_requires_full_coverage():
    rows = {t: (0,) for t in B.tuples()}
    del rows[(1,)]
    with pytest.raises(SignatureError):
        MonotoneFn.from_table(B, B, rows)


def test_from_table_refuses_rows_outside_its_domain():
    rows = {t: (0,) for t in B.tuples()}
    rows[(2,)] = (0,)
    with pytest.raises(SignatureError) as exc:
        MonotoneFn.from_table(B, B, rows, "f")
    assert str(exc.value) == "table 'f' has rows outside its domain"


def test_from_table_rejects_non_monotone_rows():
    rows = {(BOT,): (1,), (0,): (0,), (1,): (1,)}
    with pytest.raises(SignatureError) as exc:
        MonotoneFn.from_table(B, B, rows, "f")
    assert str(exc.value) == "table 'f' is not monotone: (_,) <= (0,) but (1,) !<= (0,)"
    # A table is already enumerated, so the enumeration cap does not apply.
    wide = sig(int_range(0, 9))
    f = MonotoneFn.from_table(wide, wide, {t: t for t in wide.tuples()})
    assert oracles.brute_is_monotone(f)


# Three rows of this table sit below a row whose output is not above
# theirs: (_, 0) and (1, _) below (1, 0), and (0, _) below (0, 0).
STEPPED = {
    (BOT, BOT): (BOT,), (BOT, 0): (1,), (BOT, 1): (BOT,),
    (0, BOT): (0,), (0, 0): (1,), (0, 1): (0,),
    (1, BOT): (1,), (1, 0): (0,), (1, 1): (1,),
}


def _stepped_net(rows) -> str:
    def cells(t):
        return ", ".join("bot" if x is BOT else str(x) for x in t)

    body = "".join(f"  ({cells(t)}) -> ({cells(out)})\n" for t, out in rows)
    return (
        f"gate g(p: bool, q: bool) -> (bool) {{\n{body}}}\n"
        "circuit main { in a: bool  out y: bool  y = not(a) }\n"
    )


@pytest.mark.parametrize(
    "order, pair",
    [
        (1, "(_, 0) <= (1, 0) but (1,) !<= (0,)"),
        (-1, "(1, _) <= (1, 0) but (1,) !<= (0,)"),
    ],
    ids=["domain_order", "reversed"],
)
def test_a_table_reports_its_first_bad_row_against_its_first_bad_tuple_above(
    order, pair
):
    # Rows are tried in the table's own order, and each against the tuples
    # above it in domain order, so (0, 0) above (_, 0) is passed over.
    rows = list(STEPPED.items())[::order]
    want = f"table 'g' is not monotone: {pair}"
    with pytest.raises(SignatureError) as exc:
        table_gate("g", BB, B, dict(rows))
    assert str(exc.value) == want
    with pytest.raises(NetlistError) as exc:
        parse_netlist(_stepped_net(rows))
    assert [msg for _, _, msg in exc.value.diagnostics] == [want]


def test_find_monotonicity_violation_reports_a_pair():
    bad = MonotoneFn(B, B, lambda t: (1,) if t[0] is BOT else (t[0],))
    assert oracles.monotonicity_violation(bad) == ((BOT,), (0,))
    assert not oracles.brute_is_monotone(bad)
    assert oracles.brute_is_monotone(por().fn)


def test_apply_checks_both_ends():
    f = por().fn
    with pytest.raises(SignatureError):
        f.apply((0,))
    assert f.apply((1, BOT)) == (1,)


def test_then_and_par_compose_tables():
    # Sequential and parallel composition, through the circuits that
    # denote them.
    notc = from_gate(not_gate())
    both = denote(tensor(notc, notc))
    assert both.apply((0, 1)) == (1, 0)
    assert both.apply((BOT, 1)) == (BOT, 0)
    twice = denote(compose(notc, notc))
    for x in B.tuples():
        assert twice.apply(x) == x
    ident = MonotoneFn(BB, BB, lambda t: t)
    assert ident.apply((1, BOT)) == (1, BOT)
    with pytest.raises(SignatureError):
        compose(notc, tensor(notc, notc))


# -- the iterated fixed point ---------------------------------------------


def test_lfp_hand_cases():
    ident = MonotoneFn(B, B, lambda t: t)
    assert lfp(ident) == (BOT,)
    one = MonotoneFn(B, B, lambda t: (1,))
    assert lfp(one) == (1,)
    recover = MonotoneFn(B, B, lambda t: por().fn((1, t[0])))
    assert lfp(recover) == (1,)
    stuck = MonotoneFn(B, B, lambda t: por().fn((0, t[0])))
    assert lfp(stuck) == (BOT,)


def test_lfp_diverges_loudly_on_non_monotone_maps():
    flip = {(BOT,): (0,), (0,): (1,), (1,): (0,)}
    f = MonotoneFn(B, B, lambda t: flip[t])
    with pytest.raises(DivergenceError):
        lfp(f)


def test_kleene_steps_counts_the_stabilisation_index():
    assert kleene_steps(MonotoneFn(B, B, lambda t: t)) == 0
    assert kleene_steps(MonotoneFn(B, B, lambda t: (1,))) == 1
    # A two-wire staircase: bottom -> (0, bottom) -> (0, 0).
    stair = MonotoneFn(
        BB, BB, lambda t: (0, 0 if t[0] == 0 else BOT)
    )
    assert kleene_steps(stair) == 2


def test_fixed_point_operators_pin_their_signature_errors():
    # lfp and kleene_steps take an endofunction only; trace takes 0 <= k up
    # to either side's width, and looped wires that agree.
    f = MonotoneFn(BB, B, lambda t: t[1:], "f")
    for op in lfp, kleene_steps:
        with pytest.raises(SignatureError) as exc:
            op(f)
        assert str(exc.value) == (
            f"{op.__name__} needs dom = cod, got sig(bool, bool) -> sig(bool)"
        )
    for k in -1, 2:
        with pytest.raises(SignatureError) as exc:
            trace(f, k, local_lfp)
        assert str(exc.value) == f"cannot trace {k} wires of sig(bool, bool) -> sig(bool)"
    g = MonotoneFn(sig(BOOL, UNIT), BB, lambda t: t[:1] * 2, "g")
    with pytest.raises(SignatureError) as exc:
        trace(g, 1, local_lfp)
    assert str(exc.value) == "looped wires disagree: sig(unit) vs sig(bool)"


def test_bounds():
    assert kleene_bound(sig()) == 1
    assert kleene_bound(BB) == 3
    assert product_height_bound(sig()) == 1
    assert product_height_bound(BB) == 4
    assert product_height_bound(sig(*[BOOL] * 3)) == 8


def test_lfp_matches_brute_force_on_all_one_wire_endofunctions():
    for f in enumerate_monotone(B, B):
        x = lfp(f)
        assert x == oracles.brute_lfp(f)
        assert x == oracles.least_of(oracles.brute_pre_fixed_points(f))
        assert kleene_steps(f) <= kleene_bound(B)


@given(st.integers(0, 2**32 - 1))
def test_lfp_matches_brute_force_on_random_two_wire_endofunctions(seed):
    f = random_monotone(BB, BB, random.Random(seed))
    assert lfp(f) == oracles.brute_lfp(f)
    assert kleene_steps(f) <= kleene_bound(BB) <= product_height_bound(BB)


# -- the local form -------------------------------------------------------


def test_local_lfp_of_por():
    mu = local_lfp(por().fn, 1)
    assert mu.dom == B and mu.cod == B
    assert mu.apply((BOT,)) == (BOT,)
    assert mu.apply((0,)) == (BOT,)
    assert mu.apply((1,)) == (1,)


def test_local_lfp_validates_the_split():
    with pytest.raises(SignatureError):
        local_lfp(por().fn, 0)  # loop part bool*bool, cod bool
    f = MonotoneFn(BB, B, lambda t: (t[1],))
    local_lfp(f, 1)
    with pytest.raises(SignatureError):
        local_lfp(MonotoneFn(B, BB, lambda t: (t[0], t[0])), 0)


def test_a_checked_split_never_answers_for_another_loop():
    # local_lfp checks a split once per signature and split, and keeps the
    # loop wires to compare with each codomain: a valid call must not let a
    # later bad one through, on the same signature or an equal one.
    local_lfp(MonotoneFn(BB, B, lambda t: t[1:]), 1)
    twin = Signature((BOOL, BOOL))
    assert twin == BB and twin is not BB
    for s in (BB, twin):
        with pytest.raises(SignatureError) as e:
            local_lfp(MonotoneFn(s, BB, lambda t: t), 1)
        assert str(e.value) == "loop part sig(bool) does not match codomain sig(bool, bool)"
        for k in (3, -1):
            with pytest.raises(SignatureError) as e:
                local_lfp(MonotoneFn(s, B, lambda t: t[1:]), k)
            assert str(e.value) == f"split index {k} out of range for sig(bool, bool)"
        assert local_lfp(MonotoneFn(s, B, lambda t: t[:1]), 1).fn((1,)) == (1,)


def test_a_non_monotone_loop_still_diverges_after_a_checked_split():
    flip = lambda t: ((0, 1, 0)[(BOT, 0, 1).index(t[-1])],)
    local_lfp(MonotoneFn(BB, B, lambda t: t[1:]), 1)
    for s in (BB, Signature((BOOL, BOOL))):
        mu = local_lfp(MonotoneFn(s, B, flip, "flip"), 1)
        assert mu.name == "mu(flip)"
        with pytest.raises(DivergenceError) as e:
            mu.fn((1,))
        assert str(e.value) == (
            "no fixed point within 2 iterations at context (1,); flip is not monotone"
        )
    with pytest.raises(DivergenceError) as e:
        local_lfp(MonotoneFn(B, B, flip), 0).fn(())
    assert str(e.value) == "no fixed point within 2 iterations; the function is not monotone"


def test_local_lfp_is_monotone_in_the_parameter():
    rng = random.Random(11)
    for _ in range(20):
        f = random_monotone(BB, B, rng)
        mu = local_lfp(f, 1)
        assert oracles.brute_is_monotone(mu)


# -- trace ----------------------------------------------------------------


def test_trace_yanking_gives_the_identity():
    swap = MonotoneFn(BB, BB, lambda t: (t[1], t[0]))
    yanked = trace(swap, 1, local_lfp)
    for x in B.tuples():
        assert yanked.apply(x) == x


def test_trace_of_zero_wires_is_the_same_function():
    f = por().fn
    t0 = trace(f, 0, local_lfp)
    for x in BB.tuples():
        assert t0.apply(x) == f.apply(x)


def test_trace_feeds_the_loop_value_back():
    # f(a, x) = (por(a, x), por(a, x)); closing x gives por's local lfp.
    f = MonotoneFn(
        BB, BB, lambda t: por().fn(t) + por().fn(t)
    )
    tr = trace(f, 1, local_lfp)
    assert tr.apply((1,)) == (1,)
    assert tr.apply((0,)) == (BOT,)
    assert tr.apply((BOT,)) == (BOT,)


@given(st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_trace_matches_the_scan_oracle(seed, k):
    rng = random.Random(seed)
    dom = sig(*[BOOL] * (1 + k))
    cod = sig(*[BOOL] * (1 + k))
    f = random_monotone(dom, cod, rng)
    got = trace(f, k, local_lfp)
    want = oracles.brute_trace(f, k)
    for a in sig(BOOL).tuples():
        assert got.apply(a) == want[a]


# -- structure of monotone maps on lifted domains -------------------------


def test_non_strict_implies_constant_on_one_wire():
    for f in enumerate_monotone(B, B):
        if f.fn((BOT,)) != (BOT,):
            outs = {f.fn(x) for x in B.tuples()}
            assert len(outs) == 1
