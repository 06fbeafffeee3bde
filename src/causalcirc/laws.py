"""Equational checks for the parameterized fixed point and the trace it induces.

Each law is swept over every combination of single-wire signatures drawn
from a configurable base list.  A function space is swept exhaustively when
its exact size (for pairs, the product of the two sizes) is at most
``pair_budget``, and by ``samples`` uniform random draws otherwise.  The
fixed-point operator itself is injectable so the suite can demonstrate
that a broken operator is caught; all laws are checked through whatever
operator the config carries.

Each law is a factory, run once per combo, that numbers the points of the
signatures involved and prepares each function space once.  Drawn and
enumerated functions come out as flat tables: tuples of codomain point
numbers, one per domain point, numbered by mixed radix with the last wire
fastest, as ``Signature.tuples`` lists them.  The factory returns the check
of one case, which builds both sides of the law as flat tuples by index
arithmetic on those tables and compares them with ``==``; only a mismatch
is turned back into wire tuples for the counterexample.  Every fixed point
still comes from ``cfg.mu``, called on a ``MonotoneFn`` over wire tuples
built from a flat table, so a wrong operator is caught as before and does
the same work; ``domain.trace`` is the definition the tables unfold, and
the tests check the two against each other.  Each factory binds the
operator once per combo to each loop a case solves, named by two
signatures, the context's and the loop's; the binding works out the
domain, the split and the points from them.  A case hands the bound
solver a flat table, and where the law feeds the operator's values back
into a table (``_solver``) they are numbered among the loop's points, so
that a value that is not one of them fails the case with the value, its
context and the loop's signature; where it only compares them
(``_operator``), they stay as the operator gives them.  An exhaustive
sweep of a pair runs each outer function against every inner one in turn,
so what depends on the outer function alone is worked out once for it.

Laws covered:

* local fixed point: mu(f)(a) is a fixed point, the least one, and so
  monotone in a (see ``check_local_fixpoint``);
* naturality in the parameter: reindexing the context commutes with mu;
* dinaturality: a post-map on the looped wire can be slid around the loop;
* simultaneous vs nested fixed points of a pair (Bekic);
* trace axioms derived from mu: yanking, vanishing, sliding, superposing.

``run_laws`` runs the sweeps on every usable CPU, the caller among them.
Each combo seeds its own draws and no budget charge depends on a cache,
so results and errors are a serial run's, in law order, and the output
is byte-identical.  An injected operator runs in the caller, which then,
as with one usable CPU, runs every sweep itself and forks nothing.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import random
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import itemgetter
from typing import Callable, Iterator

from .domain import (
    BOOL,
    CapError,
    MonotoneFn,
    Mu,
    Record,
    Signature,
    UNIT,
    local_lfp,
    sig,
)

_BUDGET = 10**6  # default steps for building one function space
# several wires' flat parts, point by point, into one table
_add_wires = partial(reduce, partial(map, operator.add))

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


def _shape(s: Signature) -> tuple[int, ...]:
    return tuple(len(b.values) for b in s.wires)


@lru_cache(maxsize=None)
def _poset(shape: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pointwise order of a lifted domain, as ``(below, above)``: bit j
    of ``below[i]`` is set when point j lies strictly below point i, and
    likewise for ``above``."""
    points = list(itertools.product(*[range(k + 1) for k in shape]))
    below = [0] * len(points)
    above = [0] * len(points)
    for i, hi in enumerate(points):
        for j in range(i):
            if all(x == 0 or x == y for x, y in zip(points[j], hi)):
                below[i] |= 1 << j
                above[j] |= 1 << i
    return tuple(below), tuple(above)


class _Points:
    """The points of a signature, numbered in ``Signature.tuples`` order."""

    __slots__ = ("sig", "points", "index")

    def __init__(self, s: Signature) -> None:
        self.sig = s
        self.points = tuple(s.tuples())
        self.index = {p: i for i, p in enumerate(self.points)}


_indexed = lru_cache(maxsize=None)(_Points)  # one numbering per signature


class _Budget:
    """Steps left for building one function space; running out raises CapError."""

    __slots__ = ("left", "budget", "dom", "cod")

    def __init__(self, budget: int, dom: Signature, cod: Signature) -> None:
        self.left = self.budget = budget
        self.dom, self.cod = dom, cod

    def spend(self, steps: int = 1) -> None:
        self.left -= steps
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


# Up-sets of each domain shape by component count, and the listing's steps.
_UPSETS: dict[tuple[int, ...], tuple] = {}
_POINTS: dict[int, tuple[int, ...]] = {}  # each drawn component's points, by bitmask


def _upsets(shape: tuple[int, ...], budget: _Budget) -> tuple:
    """Every up-set of the domain and its components, by component count.

    Entry k is a pair of flat arrays: the up-sets with k components, as
    bitmasks, and their components, k slots per up-set, so that up-set u
    owns slots ``u*k`` to ``u*k + k - 1``.  Points are decided from the top
    down, so a point may join only when all points above it already have;
    every branch then ends in an up-set.  A shape is listed once per
    process, but each call spends the steps its listing took, so a budget
    has the same outcome whether the shape was listed before or not.
    """
    got = _UPSETS.get(shape)
    if got is not None:
        budget.spend(got[1])
        return got[0]
    left = budget.left
    above = _poset(shape)[1]
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
    _UPSETS[shape] = (got, left - budget.left)
    return got


def _ranks(atoms: int, upsets: tuple) -> tuple:
    """|Mon(D, C)| for one lifted wire C, and how its maps are ranked.

    The count is the sum over up-sets U of atoms^components(U).  Maps are
    ranked by up-set, then by atoms: the up-sets with k components carry
    atoms^k maps each, so each k that has up-sets comes as a group
    (atoms^k, k, its components from ``upsets``, the domain's ``_upsets``),
    after the tuple of the first rank of each group.  Built each time a
    space is counted: a loop over at most a dozen groups.
    """
    starts, groups, n = [], [], 0
    for k, (ups, comps) in enumerate(upsets):
        if ups:
            starts.append(n)
            groups.append((atoms**k, k, comps))
            n += len(ups) * atoms**k
    return (n, tuple(starts), tuple(groups))


def _wire_ranks(dom: Signature, cod: Signature, budget: int) -> list[tuple]:
    """``_ranks`` of each codomain wire.  Only the domain's shape and each
    wire's atom count are read: the codomain's points are never listed."""
    ups = _upsets(_shape(dom), _Budget(budget, dom, cod)) if cod.wires else ()
    return [_ranks(len(base.values), ups) for base in cod.wires]


def count_monotone(dom: Signature, cod: Signature, budget: int = _BUDGET) -> int:
    """Exact size of Mon(dom, cod), as a product of single-wire counts.

    ``budget`` caps the steps spent listing the up-sets of ``dom``, which
    are charged once per call (listed once per process) unless ``cod`` has
    no wires; past it a CapError names the space.
    """
    return math.prod(r[0] for r in _wire_ranks(dom, cod, budget))


def _wire_maps(
    shape: tuple[int, ...], atoms: int, stride: int, budget: _Budget
) -> Iterator[tuple[int, ...]]:
    """Every monotone map from the domain into one lifted wire, as a flat part.

    Rows are filled in point order, each with bottom or an atom; a row lying
    above a row that holds an atom must hold the same atom.  Maps come out in
    lexicographic order of their rows, bottom before the atoms.  Each row is
    its value's position in the lifted wire (bottom is 0) times ``stride``.
    """
    below = _poset(shape)[0]
    n = len(below)
    free = tuple(range(atoms + 1))
    atom_ids = free[1:]
    scale = tuple(v * stride for v in free)
    holders = [0] * (atoms + 1)  # rows holding each atom, as a bitmask
    val = [0] * n
    opts = [free] * n
    pos = [0] * n
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(map(scale.__getitem__, val))
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
            forced = [a for a in atom_ids if holders[a] & bel]
            # two atoms below the row leave it no value: a dead end
            opts[i] = free if not forced else (forced[0],) if len(forced) == 1 else ()
            pos[i] = 0


def _product(cols: list[Iterator]) -> Iterator[tuple]:
    """itertools.product, but each factor is pulled only as far as needed.

    One generator per factor, nested as loops would be, so the last factor
    varies fastest.  A factor after the first is recorded on its first pass
    and replayed after it, so each factor is pulled, and one that raises
    raises, at the same row as in nested loops.
    """
    fresh = [iter(c) for c in cols]  # None once a factor's first pass began
    seen: list[list] = [[] for _ in cols]
    last = len(cols) - 1

    def walk(i: int, row: tuple) -> Iterator[tuple]:
        it, fresh[i] = fresh[i], None
        for x in seen[i] if it is None else it:
            if i and it is not None:
                seen[i].append(x)
            if i == last:
                yield row + (x,)
            else:
                yield from walk(i + 1, row + (x,))

    return walk(0, ()) if cols else iter([()])


class _Space:
    """The function space dom -> cod, prepared once for many functions.

    A function in it is a flat table: the tuple of the numbers of its
    values among the points of ``cod``, one per point of ``dom`` in number
    order.  A codomain wire's value adds its position in the lifted wire
    times the wire's stride, the product of the sizes of the wires after
    it.  ``wires`` holds (atoms, stride) per codomain wire, and ``ranks``
    each wire's ``_ranks`` followed by them once the space has been counted.
    """

    __slots__ = ("dom", "cod", "shape", "wires", "ranks")

    def __init__(self, dom: Signature, cod: Signature) -> None:
        self.dom, self.cod = _indexed(dom), _indexed(cod)
        self.shape = _shape(dom)
        wires, stride = [], 1
        for base in reversed(cod.wires):
            wires.append((len(base.values), stride))
            stride *= len(base.lifted)
        self.wires = wires[::-1]
        self.ranks = None

    def count(self, budget: int) -> int:
        """|Mon(dom, cod)|, setting ``ranks``; see ``count_monotone``."""
        ranks = _wire_ranks(self.dom.sig, self.cod.sig, budget)
        self.ranks = [r + w for r, w in zip(ranks, self.wires)]
        return math.prod(r[0] for r in ranks)

    def fn(self, flat: tuple[int, ...]) -> MonotoneFn:
        """The function with this flat table, with its graph as ``table``."""
        table = dict(zip(self.dom.points, map(self.cod.points.__getitem__, flat)))
        return MonotoneFn(self.dom.sig, self.cod.sig, table.__getitem__, "", table)


def enumerate_monotone(
    dom: Signature, cod: Signature, budget: int = _BUDGET, space: _Space | None = None
) -> Iterator:
    """All monotone functions dom -> cod, lazily, one codomain wire at a time.

    The space is the product of the single-wire spaces, with the last wire
    varying fastest; a single-wire space lists its maps in lexicographic
    order of their rows.  Nothing is built ahead of what is consumed.
    ``budget`` caps the work: one step per row value placed while listing a
    wire's maps and one per function assembled; past it a CapError names
    the space.  Given ``space``, the prepared space of dom -> cod, each
    function comes out as its flat table; otherwise as a MonotoneFn.
    """
    sp = space or _Space(dom, cod)
    b = _Budget(budget, dom, cod)
    cols = [_wire_maps(sp.shape, m, stride, b) for m, stride in sp.wires]
    if len(cols) > 1:
        flats = map(tuple, map(_add_wires, _product(cols)))
    elif cols:
        flats = cols[0]
    else:  # with no codomain wire, the one function sends every point to the one point
        flats = [(0,) * len(sp.dom.points)]
    for flat in flats:
        b.spend()
        yield flat if space is not None else sp.fn(flat)


def random_monotone(
    dom: Signature, cod: Signature, rng: random.Random, space: _Space | None = None
):
    """A uniformly random monotone function dom -> cod, seeded by ``rng``.

    Each codomain wire is one uniform draw from its single-wire space: a
    rank below the wire's count, drawn as ``randrange`` draws it (``bits``
    random bits, the count's bit length, again while they are past it), so
    a seed picks the same functions; its group, found by bisection, picks
    an up-set (weighted atoms^components) and one atom per component, each
    added to the flat table at the wire's stride at the points of the
    component (``_POINTS``).  A space not yet counted is
    counted under the default budget; a sweep counts it under its own.
    Given ``space``, the prepared space of dom -> cod, the function comes
    out as its flat table; otherwise as a MonotoneFn.
    """
    sp = space or _Space(dom, cod)
    if sp.ranks is None:
        sp.count(_BUDGET)
    flat = [0] * len(sp.dom.points)
    draw = rng.getrandbits
    for count, starts, groups, m, stride in sp.ranks:
        bits = count.bit_length()
        r = draw(bits)
        while r >= count:
            r = draw(bits)
        g = bisect_right(starts, r) - 1
        mk, k, comps = groups[g]
        u, digits = divmod(r - starts[g], mk)
        for c in comps[u * k : u * k + k]:
            v = (digits % m + 1) * stride
            digits //= m
            at = _POINTS.get(c)
            if at is None:
                at = _POINTS[c] = tuple(i for i in range(c.bit_length()) if c >> i & 1)
            for i in at:
                flat[i] += v
    return tuple(flat) if space is not None else sp.fn(flat)


@dataclass(frozen=True)
class LawConfig:
    """Sweep parameters; ``mu`` is the fixed-point operator under test.

    ``budget`` caps the steps spent building any one function space (see
    ``count_monotone`` and ``enumerate_monotone``); a sweep that runs out
    raises CapError.  ``pair_budget`` is the largest space, or product of
    two spaces for laws over pairs, that is swept exhaustively; larger
    ones are sampled ``samples`` times, which must be at least 1.  Neither
    budget may be negative.  ``bases`` must hold at least one base type and
    no base name twice, since combos are named by base names.
    """

    bases: tuple = (UNIT, BOOL)
    budget: int = _BUDGET
    pair_budget: int = 60_000
    samples: int = 200
    seed: int = 0
    mu: Mu = local_lfp

    def __post_init__(self) -> None:
        if not self.bases:
            raise ValueError("bases must hold at least one base type")
        names = [b.name for b in self.bases]
        twice = {n: None for n in names if names.count(n) > 1}
        if twice:
            raise ValueError(f"bases repeat {', '.join(map(repr, twice))}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        for name in ("budget", "pair_budget"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")


class Counterexample(Record):
    """A case a law fails: the law, its combo, and what went wrong there."""

    law: str
    combo: str
    detail: str

    def __str__(self) -> str:
        return f"{self.law} fails at {self.combo}: {self.detail}"


class ComboResult(Record):
    """One combo of a law's sweep: how it was swept, its cases, any failure."""

    combo: str
    mode: str
    cases: int
    counterexample: Counterexample | None = None

    def to_json(self) -> dict:
        cx = self.counterexample
        return {**vars(self), "counterexample": None if cx is None else str(cx)}


class SweepResult(Record):
    """A law's sweep: the result of each of its combos, in order."""

    law: str
    combos: tuple[ComboResult, ...]

    @property
    def passed(self) -> bool:
        return all(cr.counterexample is None for cr in self.combos)

    @property
    def cases(self) -> int:
        return sum(cr.cases for cr in self.combos)

    def first_counterexample(self) -> Counterexample | None:
        return next((cr.counterexample for cr in self.combos if cr.counterexample), None)

    def to_json(self) -> dict:
        head = {"law": self.law, "passed": self.passed, "cases": self.cases}
        return {**head, "combos": [cr.to_json() for cr in self.combos]}


def _tables(spaces: list[_Space], fns) -> str:
    """The drawn functions of a case, as a counterexample names them."""
    return ", ".join(
        f"{n}={sp.fn(F).table!r}" for n, sp, F in zip("fg", spaces, fns)
    )


class _OffLoop(Exception):
    """A value of the operator under test that is not a point of its loop."""


def _failure(e: Exception, spaces: list[_Space], fns) -> str:
    """What a case whose check raised ``e`` reports: it fails, the sweep goes on."""
    said = str(e) if isinstance(e, _OffLoop) else f"raised {type(e).__name__}: {e}"
    return f"{said} for {_tables(spaces, fns)}"


def _sweep(
    law: str,
    combo: str,
    spaces: list[_Space],
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
    for sp in spaces:
        n *= sp.count(cfg.budget)
    if n <= cfg.pair_budget:
        mode = "exhaustive"
        draws = _product(
            [enumerate_monotone(sp.dom.sig, sp.cod.sig, cfg.budget, sp) for sp in spaces]
        )
    else:
        mode, rng = "sampled", random.Random(f"{cfg.seed}:{law}:{combo}")
        n, k = cfg.samples, itertools.repeat  # a case draws from each space in turn
        draws = zip(*[
            map(random_monotone, k(sp.dom.sig, n), k(sp.cod.sig, n), k(rng, n), k(sp, n))
            for sp in spaces
        ])
    cases = 0
    for cases, fns in enumerate(draws, 1):
        try:
            detail = check(*fns)
        except Exception as e:
            detail = _failure(e, spaces, fns)
        if detail is not None:
            return ComboResult(combo, mode, cases, Counterexample(law, combo, detail))
    return ComboResult(combo, mode, cases)


def _law(
    law: str,
    cfg: LawConfig,
    names: str,
    spaces: Callable[..., list[tuple[Signature, Signature]]],
    make: Callable[..., Callable[..., str | None]],
    suffix: str = "",
) -> SweepResult:
    """Sweep a law once per choice of a base for each named wire.

    Combos are named ``A=...,X=...`` plus ``suffix``, the first name varying
    slowest.  ``spaces`` gets one signature per name; ``make`` gets ``cfg``,
    the prepared spaces and the same signatures, once per combo, and
    returns the law's check of one case, which takes the drawn functions'
    flat tables.
    """
    out = []
    for bases in itertools.product(cfg.bases, repeat=len(names)):
        combo = ",".join(f"{n}={b.name}" for n, b in zip(names, bases)) + suffix
        sigs = [sig(b) for b in bases]
        sps = [_Space(d, c) for d, c in spaces(*sigs)]
        out.append(_sweep(law, combo, sps, cfg, make(cfg, sps, *sigs)))
    return SweepResult(law, tuple(out))


# -- the laws: one factory per law, run once per combo -------------------------
#
# The point (a, x) of A + X is numbered ia * |X| + ix, so a value j in
# B + X has output part j // |X| and loop part j % |X|, composing two
# functions is indexing one table by the other, and a context wire that
# passes by repeats a table.  A factory tabulates, per combo, what each
# number stands for on the wires it needs (see the module docstring).  A
# gather (``itemgetter``) always picks two entries or more, since every
# wire has bottom and an atom, and so always returns a tuple.


def _operator(mu: Mu, ctx: Signature, loop: Signature):
    """The operator ``mu`` bound to the loop of ctx + loop -> loop: given a
    flat table, it calls ``mu`` on that function over wire tuples, each
    numbered by the domain's point index and sent to the point of ``loop``
    the table numbers there, and returns the solve.  No dict is built: the
    law sweeps hand the operator tens of thousands of these, each called
    only a few times; ``_solver`` builds its calls here too."""
    dom, split, lp = _indexed(ctx + loop), len(ctx), _indexed(loop)
    dsig, lsig, index, points = dom.sig, lp.sig, dom.index, lp.points
    return lambda flat: mu(
        MonotoneFn(dsig, lsig, lambda t: points[flat[index[t]]]), split
    ).fn


def _solver(mu: Mu, ctx: Signature, loop: Signature):
    """``_operator``'s solve, read at each point of ``ctx``, with each value
    numbered among ``loop``'s points.  A value that is not one of them
    fails the case; it is solved again to be reported."""
    op, lp, at = _operator(mu, ctx, loop), _indexed(loop), _indexed(ctx).points
    num = lp.index.get

    def solve(flat) -> list[int]:
        fn = op(flat)
        nums = list(map(num, map(fn, at)))
        if None in nums:
            a = at[nums.index(None)]
            raise _OffLoop(f"mu value {fn(a)!r} at context {a!r} is not a value of {lp.sig!r}")
        return nums

    return solve


def _differ(where, left: list, right: list, show=None, said=("", ""), drawn=None):
    """None when the two sides of a law agree at every point of ``where``;
    else the first point where they differ and each side's value there,
    after its label in ``said``.  ``show(point, value)`` gives the wire
    tuple a side's value stands for, by default the value itself; with
    ``drawn``, the (spaces, tables) of the case, the functions are named."""
    if left == right:
        return None
    i = next(i for i, (l, r) in enumerate(zip(left, right)) if l != r)
    t, l, r = where[i], left[i], right[i]
    if show is not None:
        l, r = show(t, l), show(t, r)
    out = f"at {t!r}: {said[0]}{l!r} vs {said[1]}{r!r}"
    return out if drawn is None else f"{out} for {_tables(*drawn)}"


def _loop_parts(whole: _Points, loop: _Points) -> tuple:
    """The loop part of each point of ``whole``, which ends in the loop's
    wires, as its number among the points of ``loop``."""
    n = len(loop.points)
    return tuple(j % n for j in range(len(whole.points)))


def _fixpoint(cfg: LawConfig, spaces, a_sig, x_sig):
    a_pts, x_pts = _indexed(a_sig).points, _indexed(x_sig).points
    nx = len(x_pts)
    up = [m | 1 << i for i, m in enumerate(_poset(_shape(x_sig))[1])]
    solve = _solver(cfg.mu, a_sig, x_sig)

    def case(F) -> str | None:
        vals = solve(F)
        for ia, x in enumerate(vals):
            row = F[ia * nx : ia * nx + nx]
            if row[x] != x:
                return (
                    f"mu value {x_pts[x]!r} at context {a_pts[ia]!r} "
                    f"is not fixed for {_tables(spaces, (F,))}"
                )
            for x2, y in enumerate(row):
                if y == x2 and not up[x] >> x2 & 1:
                    return (
                        f"mu value {x_pts[x]!r} at context {a_pts[ia]!r} "
                        f"is not below fixed point {x_pts[x2]!r} "
                        f"for {_tables(spaces, (F,))}"
                    )
        return None

    return case


def check_local_fixpoint(cfg: LawConfig = LawConfig()) -> SweepResult:
    """mu(f)(a) is a fixed point of f(a, -), below every other one.

    Being least makes mu(f) monotone in a, so that is not checked: for
    a <= a', f(a, x') <= f(a', x') = x' where x' = mu(f)(a'), as f is
    monotone, and the least fixed point of f(a, -), the limit of its
    iterates from bottom, lies below every such x'.
    """
    return _law("fixpoint", cfg, "AX", lambda a, x: [(a + x, x)], _fixpoint)


def _naturality(cfg: LawConfig, spaces, a_sig, x_sig, b_sig):
    a_pts, b_pts = _indexed(a_sig).points, _indexed(b_sig).points
    nx = len(_indexed(x_sig).points)
    xs = range(nx)
    mu_bx, mu_ax = _operator(cfg.mu, b_sig, x_sig), _operator(cfg.mu, a_sig, x_sig)
    # by g: where f . (g x id) reads f, and the points g sends B to
    at_g = lru_cache(maxsize=None)(
        lambda G: (itemgetter(*[g * nx + x for g in G for x in xs]), itemgetter(*G)(a_pts))
    )

    def case(F, G) -> str | None:
        reads, g_pts = at_g(G)
        lhs = mu_bx(reads(F))  # f . (g x id)
        muf = mu_ax(F)
        # mu against mu: both sides stay as the operator gives them
        left = list(map(lhs, b_pts))
        right = list(map(muf, g_pts))
        return _differ(b_pts, left, right, drawn=(spaces, (F, G)))

    return case


def check_naturality_param(cfg: LawConfig = LawConfig()) -> SweepResult:
    """Reindexing the context first equals taking mu first: mu(f . (g x id)) = mu(f) . g."""
    spaces = lambda a, x, b: [(a + x, x), (b, a)]
    return _law("naturality-param", cfg, "AXB", spaces, _naturality)


def _dinaturality(cfg: LawConfig, spaces, a_sig, x_sig, y_sig):
    a_pts, x_pts = _indexed(a_sig).points, _indexed(x_sig).points
    nx = len(x_pts)
    rows = range(0, len(a_pts) * nx, nx)
    mu_ax, solve_y = _operator(cfg.mu, a_sig, x_sig), _solver(cfg.mu, a_sig, y_sig)
    # by g: where f . (id x g) reads f
    before = lru_cache(maxsize=None)(lambda G: itemgetter(*[r + x for r in rows for x in G]))
    last = after = None  # the last f, and g . f as a gather from g

    def case(F, G) -> str | None:
        nonlocal last, after
        if F is not last:  # an exhaustive sweep pairs one f with every g
            last, after = F, itemgetter(*F)
        left = list(map(mu_ax(after(G)), a_pts))  # g . f
        ys = solve_y(before(G)(F))  # f . (id x g)
        right = list(map(x_pts.__getitem__, map(G.__getitem__, ys)))
        return _differ(a_pts, left, right, drawn=(spaces, (F, G)))

    return case


def check_dinaturality(cfg: LawConfig = LawConfig()) -> SweepResult:
    """mu of g . f equals g applied to mu of f . (id x g)."""
    spaces = lambda a, x, y: [(a + x, y), (y, x)]
    return _law("dinaturality", cfg, "AXY", spaces, _dinaturality)


def _bekic(cfg: LawConfig, spaces, a_sig, x_sig, y_sig):
    a_pts, xy_pts = _indexed(a_sig).points, _indexed(x_sig + y_sig).points
    nx, ny = len(_indexed(x_sig).points), len(_indexed(y_sig).points)
    rows = range(0, len(a_pts) * nx, nx)
    said = ("simultaneous ", "nested ")
    mu_xy = _operator(cfg.mu, a_sig, x_sig + y_sig)
    solve_g, solve_x = _solver(cfg.mu, a_sig + x_sig, y_sig), _solver(cfg.mu, a_sig, x_sig)
    xy_rows, axy_rows = range(0, nx * ny, ny), range(0, len(a_pts) * nx * ny, ny)
    last = fx = None  # the last f, and the rows of X + Y its values start

    def case(F, G) -> str | None:
        nonlocal last, fx
        if F is not last:  # an exhaustive sweep pairs one f with every g
            last, fx = F, itemgetter(*F)(xy_rows)
        mu_both = mu_xy(list(map(operator.add, fx, G)))
        mg = solve_g(G)
        inner = itemgetter(*map(operator.add, axy_rows, mg))(F)  # f after mu of g
        xs = solve_x(inner)
        nested = [xy_pts[x * ny + mg[r + x]] for r, x in zip(rows, xs)]
        left = list(map(mu_both, a_pts))
        return _differ(a_pts, left, nested, said=said, drawn=(spaces, (F, G)))

    return case


def check_bekic(cfg: LawConfig = LawConfig()) -> SweepResult:
    """A simultaneous fixed point of a pair equals the nested one."""
    spaces = lambda a, x, y: [(a + x + y, x), (a + x + y, y)]
    return _law("bekic", cfg, "AXY", spaces, _bekic)


def _yanking(cfg: LawConfig, x_sig):
    x_pts = _indexed(x_sig).points
    nx = len(x_pts)
    loop = [j // nx for j in range(nx * nx)]  # the looped output of the swap
    ids = list(range(nx))
    show = lambda t, v: x_pts[v]
    solve = _solver(cfg.mu, x_sig, x_sig)

    def case(swap) -> str | None:
        xs = solve(loop)
        out = [swap[a * nx + x] // nx for a, x in zip(ids, xs)]
        return _differ(x_pts, out, ids, show)

    return case


def check_yanking(cfg: LawConfig = LawConfig()) -> SweepResult:
    """Tracing a bare swap is the identity; a combo counts the points it checks."""
    law = "yanking"
    combos = []
    for x_base in cfg.bases:
        combo = f"X={x_base.name}"
        x_sig = sig(x_base)
        n = len(x_base.lifted)
        space = _Space(x_sig + x_sig, x_sig + x_sig)
        swap = tuple(x * n + a for a in range(n) for x in range(n))
        try:
            bad = _yanking(cfg, x_sig)(swap)
        except Exception as e:
            bad = _failure(e, [space], (swap,))
        cx = None if bad is None else Counterexample(law, combo, bad)
        combos.append(ComboResult(combo, "exhaustive", n, cx))
    return SweepResult(law, tuple(combos))


def _vanishing_zero(cfg: LawConfig, spaces, a_sig, b_sig):
    (sp,) = spaces
    a_pts, b_pts = sp.dom.points, sp.cod.points
    loop = [0] * len(a_pts)  # no wire is looped
    show = lambda t, v: b_pts[v]
    solve = _solver(cfg.mu, a_sig, sig())

    def case(F) -> str | None:
        zs = solve(loop)
        traced = [F[a + z] for a, z in enumerate(zs)]  # A + Z is numbered as A
        return _differ(a_pts, traced, list(F), show)

    return case


def _vanishing_nested(cfg: LawConfig, spaces, a_sig, x_sig, y_sig):
    (sp,) = spaces
    A, X, Y = _indexed(a_sig), _indexed(x_sig), _indexed(y_sig)
    AX, XY = _indexed(a_sig + x_sig), _indexed(x_sig + y_sig)
    nx, ny = len(X.points), len(Y.points)
    nxy = nx * ny
    xy_num, y_num = _loop_parts(sp.cod, XY), _loop_parts(sp.cod, Y)
    x_part = _loop_parts(AX, X).__getitem__
    a_pts = A.points
    show = lambda t, v: a_pts[v]
    solve_xy = _solver(cfg.mu, a_sig, x_sig + y_sig)
    solve_y = _solver(cfg.mu, a_sig + x_sig, y_sig)
    solve_x = _solver(cfg.mu, a_sig, x_sig)

    def case(F) -> str | None:
        loop_parts = itemgetter(*F)
        xys = solve_xy(loop_parts(xy_num))
        ys = solve_y(loop_parts(y_num))
        # f with Y traced, on A + X, its values numbered in A + X
        inner = [F[t * ny + y] // ny for t, y in enumerate(ys)]
        xs = solve_x(list(map(x_part, inner)))
        both = [F[a * nxy + v] // nxy for a, v in enumerate(xys)]
        outer = [inner[a * nx + x] // nx for a, x in enumerate(xs)]
        return _differ(a_pts, both, outer, show)

    return case


def check_vanishing(cfg: LawConfig = LawConfig()) -> SweepResult:
    """Tracing zero wires changes nothing; tracing two equals tracing one twice."""
    law = "vanishing"
    zero = _law(law, cfg, "AB", lambda a, b: [(a, b)], _vanishing_zero, ",k=0")
    spaces = lambda a, x, y: [(a + x + y, a + x + y)]
    nested = _law(law, cfg, "AXY", spaces, _vanishing_nested, ",nested")
    return SweepResult(law, zero.combos + nested.combos)


def _sliding(cfg: LawConfig, spaces, a_sig, b_sig, x_sig, y_sig):
    f_sp, _ = spaces
    A, B, X, Y = _indexed(a_sig), _indexed(b_sig), _indexed(x_sig), _indexed(y_sig)
    nx, ny = len(X.points), len(Y.points)
    rows = range(0, len(A.points) * nx, nx)
    y_num = _loop_parts(f_sp.cod, Y)  # the loop part of f's values
    a_pts, b_pts = A.points, B.points
    show = lambda t, v: b_pts[v]
    solve_x, solve_y = _solver(cfg.mu, a_sig, x_sig), _solver(cfg.mu, a_sig, y_sig)
    # by g: where f after g on the looped input reads f's loop parts
    pre = lru_cache(maxsize=None)(lambda G: itemgetter(*[r + x for r in rows for x in G]))
    last = fy = post = None  # the last f, the loop parts of its values, g after them

    def case(F, G) -> str | None:
        nonlocal last, fy, post
        if F is not last:  # an exhaustive sweep pairs one f with every g
            last, fy = F, itemgetter(*F)(y_num)
            post = itemgetter(*fy)
        xs = solve_x(post(G))
        ys = solve_y(pre(G)(fy))
        if xs == list(map(G.__getitem__, ys)):
            return None  # f reads the same loop values on both sides
        # both sides as f's values, whose output parts must agree
        left = [F[r + x] // ny for r, x in zip(rows, xs)]
        right = [F[r + G[y]] // ny for r, y in zip(rows, ys)]
        return _differ(a_pts, left, right, show, drawn=(spaces, (F, G)))

    return case


def check_sliding(cfg: LawConfig = LawConfig()) -> SweepResult:
    """A map on the looped wire slides around the loop: post-g equals pre-g."""
    spaces = lambda a, b, x, y: [(a + x, b + y), (y, x)]
    return _law("sliding", cfg, "ABXY", spaces, _sliding)


def _superposing(cfg: LawConfig, spaces, c_sig, a_sig, b_sig, x_sig):
    (sp,) = spaces
    A, B, X, CA = _indexed(a_sig), _indexed(b_sig), _indexed(x_sig), _indexed(c_sig + a_sig)
    nc, nx = len(c_sig), len(X.points)
    n_c = len(_indexed(c_sig).points)
    rows = range(0, len(A.points) * nx, nx)
    wide_rows = list(rows) * n_c  # the row of f each point of C + A reads
    x_num = _loop_parts(sp.cod, X)
    b_pts, ca_pts = B.points, CA.points
    show = lambda t, v: t[:nc] + b_pts[v]  # C passes by
    solve_wide = _solver(cfg.mu, c_sig + a_sig, x_sig)
    solve_x = _solver(cfg.mu, a_sig, x_sig)

    def case(F) -> str | None:
        loop = itemgetter(*F)(x_num)
        wide = solve_wide(loop * n_c)
        xs = solve_x(loop)
        if wide == xs * n_c:
            return None  # f reads the same loop values on both sides
        traced = [F[r + x] // nx for r, x in zip(rows, xs)]
        left = [F[r + x] // nx for r, x in zip(wide_rows, wide)]
        return _differ(ca_pts, left, traced * n_c, show, drawn=(spaces, (F,)))

    return case


def check_superposing(cfg: LawConfig = LawConfig()) -> SweepResult:
    """An untouched side wire commutes with tracing."""
    spaces = lambda c, a, b, x: [(a + x, b + x)]
    return _law("superposing", cfg, "CABX", spaces, _superposing)


def _sweeps() -> list[Callable[[LawConfig], SweepResult]]:
    """The law sweeps in law order: fixed-point laws, then trace axioms.
    They are looked up at each call, so one wrapped from outside runs."""
    return [
        check_local_fixpoint,
        check_naturality_param,
        check_dinaturality,
        check_bekic,
        check_yanking,
        check_vanishing,
        check_sliding,
        check_superposing,
    ]


# The positions of the sweeps by falling cost (scripts/law_cost.py):
# superposing, then sliding (at the CLI's defaults and at --cap 2000 alike),
# bekic, vanishing, then the light ones.  Handed out first, the heaviest do
# not end last, alone on one worker.
_HEAVIEST_FIRST = bytes((7, 6, 3, 5, 1, 2, 0, 4))


def _workers(cfg: LawConfig) -> int:
    """How many workers ``run_laws`` uses, the caller among them: one per
    usable CPU, at most one per law.  The caller is the only one for an
    injected operator, without ``os.fork``, or while other threads run: a
    child forked then could wait forever on a lock one of them held."""
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    if cfg.mu is not local_lfp or not forkable:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, len(_sweeps()))


def _take(tickets: int, sweeps: list, cfg: LawConfig, out: dict) -> None:
    """Run the sweep of each ticket drawn from the pipe ``tickets`` until it
    is empty; what came of it, its result or the exception it raised, goes
    into ``out`` under the sweep's position."""
    while ticket := os.read(tickets, 1):
        i = ticket[0]
        try:
            out[i] = sweeps[i](cfg)
        except Exception as e:
            out[i] = e


def run_laws(cfg: LawConfig = LawConfig()) -> list[SweepResult]:
    """Every law sweep, in law order (see ``_sweeps``).

    The sweeps run on ``_workers(cfg)`` workers: the caller and forked
    children.  The tickets, one byte per sweep, wait in a pipe heaviest
    first (``_HEAVIEST_FIRST``), and each worker takes the next one left,
    so with one worker the caller runs every sweep itself, heaviest first,
    and nothing is forked.  That is so for an injected operator
    (``cfg.mu`` other than ``local_lfp``), code under test whose side
    effects belong to the caller, and for one usable CPU, a platform
    without ``os.fork`` or other running threads.  Results come back in
    law order and equal a serial run's, and when sweeps raise, the error
    of the first in law order is raised, as a serial run raises it.

    A child sends what came of its sweeps pickled through a pipe of its
    own and leaves by ``os._exit``, so the caller's buffers are not flushed
    twice.  A child that leaves without a result makes this raise
    RuntimeError; one that cannot be forked leaves its share to the others.
    Every child is stopped and reaped before this returns, whether it
    returns or raises.  The caller's caches stay warm from call to call; a
    child's go with it.
    """
    # Imported here, not with the package, whose import every CLI run pays;
    # and before forking, so that no child imports them again.
    import pickle
    import signal

    sweeps = _sweeps()
    tickets, w = os.pipe()
    try:
        os.write(w, _HEAVIEST_FIRST)
    finally:
        os.close(w)
    out: dict = {}
    children: list[tuple[int, int]] = []  # (pid, read end of its result pipe)
    try:
        for _ in range(_workers(cfg) - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: fewer workers do it all
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    mine: dict = {}
                    _take(tickets, sweeps, cfg, mine)
                    with open(w, "wb") as f:
                        f.write(pickle.dumps(mine))
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, r))
        _take(tickets, sweeps, cfg, out)
        for pid, r in children:
            with open(r, "rb", closefd=False) as f:
                data = f.read()
            if not data:
                raise RuntimeError(f"law worker {pid} exited without a result")
            out.update(pickle.loads(data))
    finally:
        os.close(tickets)
        for pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)  # a no-op on one that already left
            os.waitpid(pid, 0)
    got = [out[i] for i in range(len(sweeps))]
    for x in got:
        if isinstance(x, Exception):
            raise x
    return got
