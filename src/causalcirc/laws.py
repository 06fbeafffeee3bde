"""Equational checks for the parameterized fixed point and the trace it induces.

Each law is swept over every combination of single-wire signatures drawn
from a configurable base list.  A function space is swept exhaustively when
its exact size (for pairs, the product of the two sizes) is at most
``pair_budget``, and by ``samples`` uniform random draws otherwise.  The
fixed-point operator itself is injectable so the suite can demonstrate
that a broken operator is caught; all laws are checked through whatever
operator the config carries.

Each law is a factory, run once per combo, that lists the points of the
signatures involved and splits each point into its context and loop
parts.  It returns the check of one case, which builds every side of the
law as a table straight from the drawn functions' tables and compares the
sides point by point.  Every fixed point still comes from ``cfg.mu``,
called on a ``MonotoneFn`` that reads such a table, so a wrong operator
is caught as before; ``domain.trace`` is the definition the tables unfold,
and the tests check the two against each other.

Laws covered:

* local fixed point: mu(f)(a) is a fixed point, the least one, and monotone in a;
* naturality in the parameter: reindexing the context commutes with mu;
* dinaturality: a post-map on the looped wire can be slid around the loop;
* simultaneous vs nested fixed points of a pair (Bekic);
* trace axioms derived from mu: yanking, vanishing, sliding, superposing.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .domain import (
    BOOL,
    BOT,
    BaseType,
    CapError,
    MonotoneFn,
    Mu,
    Signature,
    UNIT,
    local_lfp,
    sig,
    tuple_leq,
    up_set,
)

_BUDGET = 10**6  # default steps for building one function space

# -- function spaces ---------------------------------------------------------
#
# The order on a product of lifted wires is pointwise, so
# Mon(D, C1 x ... x Ck) is the product of the single-wire spaces Mon(D, Ci).
# A monotone map from D into one lifted flat wire is an up-set U of D (the
# points it sends above bottom) plus one atom for each connected component
# of U, since comparable points of U must agree.  Points of D are numbered
# in ``Signature.tuples`` order and sets of points are bitmasks; that order
# refines the pointwise one, so every point lies above lower-numbered points
# only.  What is memoized depends only on the number of atoms of each wire.


@dataclass(frozen=True)
class _Poset:
    """The pointwise order of a lifted domain: bit j of ``below[i]`` is set
    when point j lies strictly below point i, and likewise for ``above``."""

    below: tuple[int, ...]
    above: tuple[int, ...]


def _shape(s: Signature) -> tuple[int, ...]:
    return tuple(len(b.values) for b in s.wires)


@lru_cache(maxsize=None)
def _poset(shape: tuple[int, ...]) -> _Poset:
    points = list(itertools.product(*[range(k + 1) for k in shape]))
    below = [0] * len(points)
    above = [0] * len(points)
    for i, hi in enumerate(points):
        for j in range(i):
            if all(x == 0 or x == y for x, y in zip(points[j], hi)):
                below[i] |= 1 << j
                above[j] |= 1 << i
    return _Poset(tuple(below), tuple(above))


@lru_cache(maxsize=None)
def _points(s: Signature) -> tuple:
    return tuple(s.tuples())


class _Budget:
    """Steps left for building one function space; running out raises CapError."""

    __slots__ = ("left", "budget", "dom", "cod")

    def __init__(self, budget: int, dom: Signature, cod: Signature) -> None:
        self.left = self.budget = budget
        self.dom, self.cod = dom, cod

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise CapError(
                f"budget of {self.budget} steps exceeded building "
                f"{self.dom!r} -> {self.cod!r}"
            )


def _join(comps: tuple[int, ...], i: int, up: int) -> tuple[int, ...]:
    """Components after point i joins an up-set holding every point above it."""
    merged = 1 << i
    rest = []
    for c in comps:
        if c & up:
            merged |= c
        else:
            rest.append(c)
    rest.append(merged)
    return tuple(rest)


# Up-sets of each domain shape with their components, by component count.
_UPSETS: dict[tuple[int, ...], tuple] = {}
# Size of Mon(D, one lifted wire), by (domain shape, atoms of the wire).
_WIRE_COUNTS: dict[tuple[tuple[int, ...], int], int] = {}


def _upsets(shape: tuple[int, ...], budget: _Budget) -> tuple:
    """Every up-set of the domain and its components, by component count.

    Entry k is a pair of flat arrays: the up-sets with k components, as
    bitmasks, and their components, k slots per up-set, so that up-set u
    owns slots ``u*k`` to ``u*k + k - 1``.  Points are decided from the top
    down, so a point may join only when all points above it already have;
    every branch then ends in an up-set.
    """
    got = _UPSETS.get(shape)
    if got is not None:
        return got
    above = _poset(shape).above
    groups: list[list[int]] = []
    parts: list[list[int]] = []
    stack = [(len(above) - 1, 0, ())]
    while stack:
        i, u, comps = stack.pop()
        if i < 0:
            k = len(comps)
            while len(groups) <= k:
                groups.append([])
                parts.append([])
            groups[k].append(u)
            parts[k].extend(comps)
            continue
        budget.spend()
        stack.append((i - 1, u, comps))
        up = above[i]
        if u & up == up:
            stack.append((i - 1, u | 1 << i, _join(comps, i, up)))
    code = "I" if len(above) <= 32 else "Q" if len(above) <= 64 else None
    got = tuple(
        (array(code, g), array(code, p)) if code else (tuple(g), tuple(p))
        for g, p in zip(groups, parts)
    )
    _UPSETS[shape] = got
    return got


def _wire_count(shape: tuple[int, ...], atoms: int, budget: _Budget) -> int:
    """|Mon(D, C)| for one lifted wire C: the sum over up-sets U of atoms^components(U)."""
    key = (shape, atoms)
    n = _WIRE_COUNTS.get(key)
    if n is None:
        groups = _upsets(shape, budget)
        n = _WIRE_COUNTS[key] = sum(
            len(ups) * atoms**k for k, (ups, _) in enumerate(groups)
        )
    return n


def count_monotone(dom: Signature, cod: Signature, budget: int = _BUDGET) -> int:
    """Exact size of Mon(dom, cod), as a product of single-wire counts.

    ``budget`` caps the steps spent listing the up-sets of ``dom`` the first
    time that domain shape is counted; past it a CapError names the space.
    """
    b = _Budget(budget, dom, cod)
    shape = _shape(dom)
    n = 1
    for base in cod:
        n *= _wire_count(shape, len(base.values), b)
    return n


def _wire_maps(shape: tuple[int, ...], base: BaseType, budget: _Budget) -> Iterator[tuple]:
    """Every monotone map from the domain into one lifted wire, as a value tuple.

    Rows are filled in point order, each with bottom or an atom; a row lying
    above a row that holds an atom must hold the same atom.  Maps come out in
    lexicographic order of their rows, bottom before the atoms.
    """
    below = _poset(shape).below
    n = len(below)
    lifted = base.lifted
    atoms = range(1, len(lifted))
    free = tuple(range(len(lifted)))
    holders = [0] * len(lifted)  # rows holding each atom, as a bitmask
    val = [0] * n
    opts = [free] * n
    pos = [0] * n
    i = 0
    while i >= 0:
        if i == n:
            yield tuple([lifted[v] for v in val])
            i -= 1
            continue
        v = val[i]
        if v:
            holders[v] ^= 1 << i
            val[i] = 0
        k = pos[i]
        if k == len(opts[i]):
            i -= 1
            continue
        budget.spend()
        v = val[i] = opts[i][k]
        pos[i] = k + 1
        if v:
            holders[v] |= 1 << i
        i += 1
        if i < n:
            bel = below[i]
            forced = [a for a in atoms if holders[a] & bel]
            # two atoms below the row leave it no value: a dead end
            opts[i] = free if not forced else (forced[0],) if len(forced) == 1 else ()
            pos[i] = 0


def _product(cols: list[Iterator[tuple]]) -> Iterator[tuple]:
    """itertools.product, but each factor is pulled only as far as needed.

    The last factor varies fastest; inner factors are kept from their first
    walk and replayed after it.
    """
    seen: list[list] = [[] for _ in cols]
    done = [False] * len(cols)

    def walk(d: int) -> Iterator[tuple]:
        if done[d]:
            yield from seen[d]
            return
        for x in cols[d]:
            if d:
                seen[d].append(x)
            yield x
        done[d] = True

    def rows(d: int, prefix: tuple) -> Iterator[tuple]:
        if d == len(cols):
            yield prefix
            return
        for x in walk(d):
            yield from rows(d + 1, prefix + (x,))

    return rows(0, ())


def _from_columns(dom: Signature, cod: Signature, cols) -> MonotoneFn:
    points = _points(dom)
    rows = zip(*cols) if cols else itertools.repeat((), len(points))
    table = dict(zip(points, rows))
    return MonotoneFn(dom, cod, table.__getitem__, "", table)


def enumerate_monotone(
    dom: Signature, cod: Signature, budget: int = _BUDGET
) -> Iterator[MonotoneFn]:
    """All monotone functions dom -> cod, lazily, one codomain wire at a time.

    The space is the product of the single-wire spaces, with the last wire
    varying fastest; a single-wire space lists its maps in lexicographic
    order of their rows.  Nothing is built ahead of what is consumed.
    ``budget`` caps the work: one step per row value placed while listing a
    wire's maps and one per function assembled; past it a CapError names
    the space.
    """
    b = _Budget(budget, dom, cod)
    shape = _shape(dom)
    for cols in _product([_wire_maps(shape, base, b) for base in cod]):
        b.spend()
        yield _from_columns(dom, cod, cols)


def _draw_wire(shape: tuple[int, ...], base: BaseType, r: int, budget: _Budget) -> list:
    """The r-th map into one lifted wire, ranked by up-set, then by atoms.

    Up-sets with k components carry atoms^k maps each; the rank picks the
    up-set and, in base ``atoms`` digits, one atom per component.
    """
    m = len(base.values)
    for k, (ups, comps) in enumerate(_upsets(shape, budget)):
        w = len(ups) * m**k
        if r < w:
            break
        r -= w
    u, digits = divmod(r, m**k)
    col = [BOT] * len(_poset(shape).above)
    for c in comps[u * k : u * k + k]:
        digits, a = divmod(digits, m)
        while c:
            low = c & -c
            col[low.bit_length() - 1] = base.values[a]
            c ^= low
    return col


def random_monotone(dom: Signature, cod: Signature, rng: random.Random) -> MonotoneFn:
    """A uniformly random monotone function dom -> cod, seeded by ``rng``.

    Each codomain wire is one uniform draw from its single-wire space: an
    up-set chosen with weight atoms^components, then one atom per component.
    """
    b = _Budget(_BUDGET, dom, cod)
    shape = _shape(dom)
    cols = []
    for base in cod:
        r = rng.randrange(_wire_count(shape, len(base.values), b))
        cols.append(_draw_wire(shape, base, r, b))
    return _from_columns(dom, cod, cols)


@dataclass(frozen=True)
class LawConfig:
    """Sweep parameters; ``mu`` is the fixed-point operator under test.

    ``budget`` caps the steps spent building any one function space (see
    ``count_monotone`` and ``enumerate_monotone``); a sweep that runs out
    raises CapError.  ``pair_budget`` is the largest space, or product of
    two spaces for laws over pairs, that is swept exhaustively; larger
    ones are sampled ``samples`` times, which must be at least 1.  Neither
    budget may be negative.
    """

    bases: tuple = (UNIT, BOOL)
    budget: int = _BUDGET
    pair_budget: int = 60_000
    samples: int = 200
    seed: int = 0
    mu: Mu = local_lfp

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        if self.budget < 0:
            raise ValueError(f"budget must not be negative, got {self.budget}")
        if self.pair_budget < 0:
            raise ValueError(
                f"pair_budget must not be negative, got {self.pair_budget}"
            )


@dataclass(frozen=True)
class Counterexample:
    law: str
    combo: str
    detail: str

    def __str__(self) -> str:
        return f"{self.law} fails at {self.combo}: {self.detail}"


@dataclass(frozen=True)
class ComboResult:
    combo: str
    mode: str
    cases: int
    counterexample: Counterexample | None = None


@dataclass(frozen=True)
class SweepResult:
    law: str
    combos: tuple[ComboResult, ...]

    @property
    def passed(self) -> bool:
        return all(cr.counterexample is None for cr in self.combos)

    @property
    def cases(self) -> int:
        return sum(cr.cases for cr in self.combos)

    def first_counterexample(self) -> Counterexample | None:
        for cr in self.combos:
            if cr.counterexample is not None:
                return cr.counterexample
        return None


def _rng_for(cfg: LawConfig, law: str, combo: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{law}:{combo}")


def _table_str(f: MonotoneFn) -> str:
    rows = f.table if f.table is not None else f.tabulate()
    return "{" + ", ".join(f"{k!r}: {v!r}" for k, v in rows.items()) + "}"


def _tables(*fns: MonotoneFn) -> str:
    """The drawn functions of a case, as a counterexample names them."""
    return ", ".join(f"{n}={_table_str(h)}" for n, h in zip("fg", fns))


def _run_case(check: Callable[..., str | None], *fns: MonotoneFn) -> str | None:
    """One case of a law; an exception raised in it, typically by the
    operator under test, fails the case instead of ending the sweep."""
    try:
        return check(*fns)
    except Exception as e:
        return f"raised {type(e).__name__}: {e} for {_tables(*fns)}"


def _sweep(
    law: str,
    combo: str,
    spaces: list[tuple[Signature, Signature]],
    cfg: LawConfig,
    check: Callable[..., str | None],
) -> ComboResult:
    """Apply a check across one function space, or pairs drawn from two.

    The spaces are swept exhaustively, the first varying slowest, when the
    product of their sizes is at most ``pair_budget``; otherwise each of
    ``samples`` cases draws one function per space, in order.  ``cases``
    counts the cases run, up to and including the first counterexample.
    """
    n = 1
    for dom, cod in spaces:
        n *= count_monotone(dom, cod, cfg.budget)
    if n <= cfg.pair_budget:
        mode = "exhaustive"
        draws = _product([enumerate_monotone(d, c, cfg.budget) for d, c in spaces])
    else:
        mode, rng = "sampled", _rng_for(cfg, law, combo)
        draws = (
            [random_monotone(d, c, rng) for d, c in spaces] for _ in range(cfg.samples)
        )
    cases = 0
    for fns in draws:
        cases += 1
        detail = _run_case(check, *fns)
        if detail is not None:
            return ComboResult(combo, mode, cases, Counterexample(law, combo, detail))
    return ComboResult(combo, mode, cases)


def _combos(
    law: str,
    cfg: LawConfig,
    names: str,
    spaces: Callable[..., list[tuple[Signature, Signature]]],
    make: Callable[..., Callable[..., str | None]],
    suffix: str = "",
) -> tuple[ComboResult, ...]:
    """Sweep a law once per choice of a base for each named wire.

    Combos are named ``A=...,X=...`` plus ``suffix``, the first name varying
    slowest.  ``spaces`` gets one signature per name; ``make`` gets ``cfg``
    and the same signatures, once per combo, and returns the law's check of
    one case, which takes the drawn functions.
    """
    out = []
    for bases in itertools.product(cfg.bases, repeat=len(names)):
        combo = ",".join(f"{n}={b.name}" for n, b in zip(names, bases)) + suffix
        sigs = [sig(b) for b in bases]
        out.append(_sweep(law, combo, spaces(*sigs), cfg, make(cfg, *sigs)))
    return tuple(out)


# -- the laws: one factory per law, run once per combo -------------------------


def _fn(dom: Signature, cod: Signature, table: dict) -> MonotoneFn:
    return MonotoneFn(dom, cod, table.__getitem__, "", table)


def _fixpoint(cfg: LawConfig, a_sig, x_sig):
    na = len(a_sig)
    a_pts = _points(a_sig)
    rows = [(a, [(a + x, x) for x in _points(x_sig)]) for a in a_pts]
    index = {a: i for i, a in enumerate(a_pts)}
    # every pair of contexts lo < hi, as indices, in the order
    # find_monotonicity_violation visits them
    pairs = [
        (i, index[hi])
        for i, a in enumerate(a_pts)
        for hi in up_set(a, a_sig)
        if hi != a
    ]

    def case(f: MonotoneFn) -> str | None:
        tbl = f.table
        muf = cfg.mu(f, na).fn
        vals = []
        for a, row in rows:
            x = muf(a)
            if tbl[a + x] != x:
                return f"mu value {x!r} at context {a!r} is not fixed for {_tables(f)}"
            for key, x2 in row:
                if tbl[key] == x2 and not tuple_leq(x, x2):
                    return (
                        f"mu value {x!r} at context {a!r} is not below "
                        f"fixed point {x2!r} for {_tables(f)}"
                    )
            vals.append(x)
        for i, j in pairs:
            if not tuple_leq(vals[i], vals[j]):
                bad = (a_pts[i], a_pts[j])
                return f"mu(f) is not monotone at {bad!r} for {_tables(f)}"
        return None

    return case


def check_local_fixpoint(cfg: LawConfig = LawConfig()) -> SweepResult:
    """mu(f)(a) is a fixed point of f(a, -), below every other one, and monotone."""
    law = "fixpoint"
    combos = _combos(law, cfg, "AX", lambda a, x: [(a + x, x)], _fixpoint)
    return SweepResult(law, combos)


def _naturality(cfg: LawConfig, a_sig, x_sig, b_sig):
    na, nb = len(a_sig), len(b_sig)
    bx = b_sig + x_sig
    keys = [(t, t[:nb], t[nb:]) for t in _points(bx)]
    b_pts = _points(b_sig)

    def case(f: MonotoneFn, g: MonotoneFn) -> str | None:
        ft, gt = f.table, g.table
        reindexed = {t: ft[gt[b] + x] for t, b, x in keys}
        lhs = cfg.mu(_fn(bx, x_sig, reindexed), nb).fn
        muf = cfg.mu(f, na).fn
        for b in b_pts:
            left = lhs(b)
            right = muf(gt[b])
            if left != right:
                return f"at {b!r}: {left!r} vs {right!r} for {_tables(f, g)}"
        return None

    return case


def check_naturality_param(cfg: LawConfig = LawConfig()) -> SweepResult:
    """Reindexing the context first equals taking mu first: mu(f . (g x id)) = mu(f) . g."""
    law = "naturality-param"
    spaces = lambda a, x, b: [(a + x, x), (b, a)]
    combos = _combos(law, cfg, "AXB", spaces, _naturality)
    return SweepResult(law, combos)


def _dinaturality(cfg: LawConfig, a_sig, x_sig, y_sig):
    na = len(a_sig)
    ax, ay = a_sig + x_sig, a_sig + y_sig
    ax_pts = _points(ax)
    ay_keys = [(t, t[:na], t[na:]) for t in _points(ay)]
    a_pts = _points(a_sig)

    def case(f: MonotoneFn, g: MonotoneFn) -> str | None:
        ft, gt = f.table, g.table
        after = {t: gt[ft[t]] for t in ax_pts}
        before = {t: ft[a + gt[y]] for t, a, y in ay_keys}
        mu_after = cfg.mu(_fn(ax, x_sig, after), na).fn
        mu_before = cfg.mu(_fn(ay, y_sig, before), na).fn
        for a in a_pts:
            left = mu_after(a)
            right = gt[mu_before(a)]
            if left != right:
                return f"at {a!r}: {left!r} vs {right!r} for {_tables(f, g)}"
        return None

    return case


def check_dinaturality(cfg: LawConfig = LawConfig()) -> SweepResult:
    """mu of g . f equals g applied to mu of f . (id x g)."""
    law = "dinaturality"
    spaces = lambda a, x, y: [(a + x, y), (y, x)]
    combos = _combos(law, cfg, "AXY", spaces, _dinaturality)
    return SweepResult(law, combos)


def _bekic(cfg: LawConfig, a_sig, x_sig, y_sig):
    na, nx = len(a_sig), len(x_sig)
    ax, axy, xy = a_sig + x_sig, a_sig + x_sig + y_sig, x_sig + y_sig
    ax_pts, axy_pts, a_pts = _points(ax), _points(axy), _points(a_sig)

    def case(f: MonotoneFn, g: MonotoneFn) -> str | None:
        ft, gt = f.table, g.table
        both = {t: ft[t] + gt[t] for t in axy_pts}
        mu_both = cfg.mu(_fn(axy, xy, both), na).fn
        mu_g = cfg.mu(g, na + nx).fn
        mg = {t: mu_g(t) for t in ax_pts}
        inner = {t: ft[t + y] for t, y in mg.items()}
        mu_inner = cfg.mu(_fn(ax, x_sig, inner), na).fn
        for a in a_pts:
            x = mu_inner(a)
            y = mg[a + x]
            left = mu_both(a)
            if left != x + y:
                return (
                    f"at {a!r}: simultaneous {left!r} vs nested {(x + y)!r} "
                    f"for {_tables(f, g)}"
                )
        return None

    return case


def check_bekic(cfg: LawConfig = LawConfig()) -> SweepResult:
    """A simultaneous fixed point of a pair equals the nested one."""
    law = "bekic"
    spaces = lambda a, x, y: [(a + x + y, x), (a + x + y, y)]
    combos = _combos(law, cfg, "AXY", spaces, _bekic)
    return SweepResult(law, combos)


def _yanking(cfg: LawConfig, x_sig):
    xx = x_sig + x_sig
    loop = {t: t[:1] for t in _points(xx)}  # the looped output of the swap
    x_pts = _points(x_sig)

    def case(swap: MonotoneFn) -> str | None:
        tbl = swap.table
        m = cfg.mu(_fn(xx, x_sig, loop), 1).fn
        for a in x_pts:
            out = tbl[a + m(a)][:1]
            if out != a:
                return f"at {a!r}: {out!r} vs {a!r}"
        return None

    return case


def check_yanking(cfg: LawConfig = LawConfig()) -> SweepResult:
    """Tracing a bare swap is the identity; a combo counts the points it checks."""
    law = "yanking"
    combos = []
    for x_base in cfg.bases:
        combo = f"X={x_base.name}"
        x_sig = sig(x_base)
        xx = x_sig + x_sig
        swap = _fn(xx, xx, {t: (t[1], t[0]) for t in _points(xx)})
        bad = _run_case(_yanking(cfg, x_sig), swap)
        cx = None if bad is None else Counterexample(law, combo, bad)
        combos.append(ComboResult(combo, "exhaustive", len(x_base.lifted), cx))
    return SweepResult(law, tuple(combos))


def _vanishing_zero(cfg: LawConfig, a_sig, b_sig):
    na, nb = len(a_sig), len(b_sig)
    a_pts = _points(a_sig)
    loop = {a: () for a in a_pts}  # no wire is looped

    def case(f: MonotoneFn) -> str | None:
        tbl = f.table
        m = cfg.mu(_fn(a_sig, sig(), loop), na).fn
        for a in a_pts:
            traced, plain = tbl[a + m(a)][:nb], tbl[a]
            if traced != plain:
                return f"at {a!r}: {traced!r} vs {plain!r}"
        return None

    return case


def _vanishing_nested(cfg: LawConfig, a_sig, x_sig, y_sig):
    na, nax = len(a_sig), len(a_sig) + len(x_sig)
    ax, axy, xy = a_sig + x_sig, a_sig + x_sig + y_sig, x_sig + y_sig
    ax_pts, axy_pts, a_pts = _points(ax), _points(axy), _points(a_sig)

    def case(f: MonotoneFn) -> str | None:
        tbl = f.table
        m_both = cfg.mu(_fn(axy, xy, {t: tbl[t][na:] for t in axy_pts}), na).fn
        m_y = cfg.mu(_fn(axy, y_sig, {t: tbl[t][nax:] for t in axy_pts}), nax).fn
        inner = {t: tbl[t + m_y(t)][:nax] for t in ax_pts}  # f with Y traced
        m_x = cfg.mu(_fn(ax, x_sig, {t: o[na:] for t, o in inner.items()}), na).fn
        for a in a_pts:
            both = tbl[a + m_both(a)][:na]
            outer = inner[a + m_x(a)][:na]
            if both != outer:
                return f"at {a!r}: {both!r} vs {outer!r}"
        return None

    return case


def check_vanishing(cfg: LawConfig = LawConfig()) -> SweepResult:
    """Tracing zero wires changes nothing; tracing two equals tracing one twice."""
    law = "vanishing"
    zero = _combos(law, cfg, "AB", lambda a, b: [(a, b)], _vanishing_zero, ",k=0")
    spaces = lambda a, x, y: [(a + x + y, a + x + y)]
    nested = _combos(law, cfg, "AXY", spaces, _vanishing_nested, ",nested")
    return SweepResult(law, zero + nested)


def _sliding(cfg: LawConfig, a_sig, b_sig, x_sig, y_sig):
    na, nb = len(a_sig), len(b_sig)
    ax, ay = a_sig + x_sig, a_sig + y_sig
    ax_pts = _points(ax)
    ay_keys = [(t, t[:na], t[na:]) for t in _points(ay)]
    a_pts = _points(a_sig)

    def case(f: MonotoneFn, g: MonotoneFn) -> str | None:
        ft, gt = f.table, g.table
        # the loop parts of g after f, and of f after g on the looped input
        post = {t: gt[ft[t][nb:]] for t in ax_pts}
        pre = {t: ft[a + gt[y]][nb:] for t, a, y in ay_keys}
        m_post = cfg.mu(_fn(ax, x_sig, post), na).fn
        m_pre = cfg.mu(_fn(ay, y_sig, pre), na).fn
        for a in a_pts:
            left = ft[a + m_post(a)][:nb]
            right = ft[a + gt[m_pre(a)]][:nb]
            if left != right:
                return f"at {a!r}: {left!r} vs {right!r} for {_tables(f, g)}"
        return None

    return case


def check_sliding(cfg: LawConfig = LawConfig()) -> SweepResult:
    """A map on the looped wire slides around the loop: post-g equals pre-g."""
    law = "sliding"
    spaces = lambda a, b, x, y: [(a + x, b + y), (y, x)]
    combos = _combos(law, cfg, "ABXY", spaces, _sliding)
    return SweepResult(law, combos)


def _superposing(cfg: LawConfig, c_sig, a_sig, b_sig, x_sig):
    nc, na, nb = len(c_sig), len(a_sig), len(b_sig)
    ax, cax = a_sig + x_sig, c_sig + a_sig + x_sig
    ax_pts = _points(ax)
    cax_keys = [(t, t[nc:]) for t in _points(cax)]
    ca_keys = [(t, t[:nc], t[nc:]) for t in _points(c_sig + a_sig)]
    a_pts = _points(a_sig)

    def case(f: MonotoneFn) -> str | None:
        tbl = f.table
        loop = {t: tbl[t][nb:] for t in ax_pts}
        widened = {t: loop[t_ax] for t, t_ax in cax_keys}  # C passes by
        m_wide = cfg.mu(_fn(cax, x_sig, widened), nc + na).fn
        m = cfg.mu(_fn(ax, x_sig, loop), na).fn
        traced = {a: tbl[a + m(a)][:nb] for a in a_pts}
        for t, c, a in ca_keys:
            left = c + tbl[a + m_wide(t)][:nb]
            right = c + traced[a]
            if left != right:
                return f"at {t!r}: {left!r} vs {right!r} for {_tables(f)}"
        return None

    return case


def check_superposing(cfg: LawConfig = LawConfig()) -> SweepResult:
    """An untouched side wire commutes with tracing."""
    law = "superposing"
    spaces = lambda c, a, b, x: [(a + x, b + x)]
    combos = _combos(law, cfg, "CABX", spaces, _superposing)
    return SweepResult(law, combos)


def check_trace_axioms(cfg: LawConfig = LawConfig()) -> list[SweepResult]:
    """The four axioms a loop construct inherits from the fixed point."""
    return [
        check_yanking(cfg),
        check_vanishing(cfg),
        check_sliding(cfg),
        check_superposing(cfg),
    ]


def run_laws(cfg: LawConfig = LawConfig()) -> list[SweepResult]:
    """Every law sweep, in a fixed order."""
    return [
        check_local_fixpoint(cfg),
        check_naturality_param(cfg),
        check_dinaturality(cfg),
        check_bekic(cfg),
        *check_trace_axioms(cfg),
    ]
