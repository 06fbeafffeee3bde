"""Lifted flat domains, monotone functions, and bounded fixed-point operators.

A wire value is either a concrete atom (int or str) or the shared ``BOT``
sentinel meaning "no well-defined value".  Tuples of such values, ordered
pointwise with ``BOT`` below everything, form the domains every circuit
denotes a monotone function between.  Feedback is resolved by Kleene
iteration from the all-bottom tuple; on a product of k lifted flat wires
the iteration is certified to stabilize within k+1 steps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, TypeAlias


class _Bottom:
    """The undefined wire value. Use the single shared instance ``BOT``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "_"

    def __copy__(self) -> "_Bottom":
        return self

    def __deepcopy__(self, memo) -> "_Bottom":
        return self


BOT = _Bottom()

Atom: TypeAlias = "int | str"
LValue: TypeAlias = "Atom | _Bottom"
WireTuple: TypeAlias = "tuple[LValue, ...]"


class SignatureError(ValueError):
    """A value, tuple, or function does not fit the expected signature."""


class CapError(RuntimeError):
    """An exhaustive check was requested on a space the cap does not allow."""


class DivergenceError(RuntimeError):
    """Kleene iteration did not stabilize within its certified bound.

    This can only happen when the iterated function is not monotone (or the
    bound bookkeeping is broken); it is reported instead of looping.
    """


@dataclass(frozen=True)
class BaseType:
    """A finite, ordered universe of concrete values a wire may carry."""

    name: str
    values: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise SignatureError(f"base type {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise SignatureError(f"base type {self.name!r} repeats a value")
        for v in self.values:
            if not isinstance(v, (int, str)):
                raise SignatureError(
                    f"base type {self.name!r} holds {v!r}; atoms are ints or names"
                )

    @cached_property
    def lifted(self) -> tuple[LValue, ...]:
        """All values of the lifted domain, bottom first."""
        return (BOT,) + self.values

    def is_member(self, x: LValue) -> bool:
        return x is BOT or x in self.values

    def check_member(self, x: LValue) -> None:
        if not self.is_member(x):
            raise SignatureError(f"{x!r} is not a value of base type {self.name!r}")

    def __repr__(self) -> str:
        return f"BaseType({self.name!r})"


BOOL = BaseType("bool", (0, 1))
UNIT = BaseType("unit", (0,))


def int_range(lo: int, hi: int, name: str | None = None) -> BaseType:
    """Base type of the consecutive integers lo..hi inclusive."""
    if lo > hi:
        raise SignatureError(f"empty integer range {lo}..{hi}")
    return BaseType(name or f"i{lo}_{hi}", tuple(range(lo, hi + 1)))


def is_int_range(base: BaseType) -> bool:
    v = base.values
    return all(isinstance(a, int) for a in v) and v == tuple(range(v[0], v[-1] + 1))


@dataclass(frozen=True)
class Signature:
    """An ordered list of wire base types; the shape of a value tuple."""

    wires: tuple[BaseType, ...] = ()

    def __len__(self) -> int:
        return len(self.wires)

    def __iter__(self) -> Iterator[BaseType]:
        return iter(self.wires)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Signature(self.wires[i])
        return self.wires[i]

    def __add__(self, other: "Signature") -> "Signature":
        return Signature(self.wires + other.wires)

    def bottom(self) -> WireTuple:
        return (BOT,) * len(self.wires)

    def conforms(self, t: WireTuple) -> bool:
        return len(t) == len(self.wires) and all(
            b.is_member(x) for b, x in zip(self.wires, t)
        )

    def check(self, t: WireTuple) -> None:
        if len(t) != len(self.wires):
            raise SignatureError(
                f"tuple has {len(t)} coordinates, signature has {len(self.wires)}"
            )
        for b, x in zip(self.wires, t):
            b.check_member(x)

    def tuples(self) -> Iterator[WireTuple]:
        """All lifted tuples, lexicographic with bottom first per wire."""
        return itertools.product(*[b.lifted for b in self.wires])

    def concrete_tuples(self) -> Iterator[WireTuple]:
        """All bottom-free tuples."""
        return itertools.product(*[b.values for b in self.wires])

    def count(self) -> int:
        n = 1
        for b in self.wires:
            n *= len(b.values) + 1
        return n

    def concrete_count(self) -> int:
        n = 1
        for b in self.wires:
            n *= len(b.values)
        return n

    def __repr__(self) -> str:
        return "sig(" + ", ".join(b.name for b in self.wires) + ")"


def sig(*bases: BaseType) -> Signature:
    return Signature(tuple(bases))


@dataclass(frozen=True)
class EnumCap:
    """Limits under which exhaustive enumeration is considered feasible."""

    max_values: int = 8
    max_wires: int = 4


DEFAULT_CAP = EnumCap()


def check_enumerable(s: Signature, cap: EnumCap = DEFAULT_CAP) -> None:
    if len(s) > cap.max_wires:
        raise CapError(f"{s!r} has {len(s)} wires, cap is {cap.max_wires}")
    for b in s.wires:
        if len(b.values) > cap.max_values:
            raise CapError(
                f"base type {b.name!r} has {len(b.values)} values, cap is {cap.max_values}"
            )


def leq(x: LValue, y: LValue, base: BaseType | None = None) -> bool:
    """Order of a lifted flat domain: bottom below everything, atoms only below themselves."""
    if base is not None:
        base.check_member(x)
        base.check_member(y)
    return x is BOT or x == y


def tuple_leq(t1: WireTuple, t2: WireTuple) -> bool:
    """Pointwise order on value tuples."""
    if len(t1) != len(t2):
        raise SignatureError(f"tuple lengths differ: {len(t1)} vs {len(t2)}")
    return all(x is BOT or x == y for x, y in zip(t1, t2))


@dataclass(eq=False)
class MonotoneFn:
    """A total function between products of lifted flat domains.

    ``fn`` must be total on dom-conforming tuples and order-preserving.
    Monotonicity is checkable exhaustively when the domain is small enough
    to enumerate; ``table`` holds the explicit graph when the function was
    built from one.
    """

    dom: Signature
    cod: Signature
    fn: Callable[[WireTuple], WireTuple]
    name: str = ""
    table: dict[WireTuple, WireTuple] | None = field(default=None, repr=False)

    def __call__(self, t: WireTuple) -> WireTuple:
        return self.fn(t)

    def apply(self, t: WireTuple) -> WireTuple:
        """Evaluate with signature checking on both ends."""
        self.dom.check(t)
        out = self.fn(t)
        self.cod.check(out)
        return out

    @classmethod
    def from_table(
        cls,
        dom: Signature,
        cod: Signature,
        table: dict[WireTuple, WireTuple],
        name: str = "",
    ) -> "MonotoneFn":
        """Build from an explicit graph; the table must cover every dom tuple."""
        table = dict(table)
        for t in dom.tuples():
            if t not in table:
                raise SignatureError(f"table {name!r} is missing a row for {t!r}")
        if len(table) != dom.count():
            raise SignatureError(f"table {name!r} has rows outside its domain")
        for t, out in table.items():
            cod.check(out)
        for t, out in table.items():
            for hi in up_set(t, dom):
                if not tuple_leq(out, table[hi]):
                    raise SignatureError(
                        f"table {name!r} is not monotone: {t!r} <= {hi!r} "
                        f"but {out!r} !<= {table[hi]!r}"
                    )
        return cls(dom, cod, table.__getitem__, name, table)

    def tabulate(self, cap: EnumCap = DEFAULT_CAP) -> dict[WireTuple, WireTuple]:
        if self.table is not None:
            return self.table
        check_enumerable(self.dom, cap)
        return {t: self.fn(t) for t in self.dom.tuples()}

    def then(self, other: "MonotoneFn") -> "MonotoneFn":
        """Diagrammatic composition: self first, then other."""
        if self.cod != other.dom:
            raise SignatureError(
                f"cannot compose {self.cod!r} output into {other.dom!r} input"
            )
        f, g = self.fn, other.fn
        return MonotoneFn(
            self.dom, other.cod, lambda t: g(f(t)), f"{self.name};{other.name}"
        )

    def par(self, other: "MonotoneFn") -> "MonotoneFn":
        """Side-by-side product of two functions."""
        n = len(self.dom)
        f, g = self.fn, other.fn
        return MonotoneFn(
            self.dom + other.dom,
            self.cod + other.cod,
            lambda t: f(t[:n]) + g(t[n:]),
            f"{self.name}|{other.name}",
        )

    @staticmethod
    def identity(s: Signature) -> "MonotoneFn":
        return MonotoneFn(s, s, lambda t: t, "id")


def up_set(t: WireTuple, s: Signature) -> Iterator[WireTuple]:
    """All tuples pointwise above t."""
    return itertools.product(
        *[b.lifted if x is BOT else (x,) for b, x in zip(s.wires, t)]
    )


def find_monotonicity_violation(
    f: MonotoneFn, cap: EnumCap = DEFAULT_CAP
) -> tuple[WireTuple, WireTuple] | None:
    """First pair t1 <= t2 with f(t1) not <= f(t2), or None if monotone."""
    check_enumerable(f.dom, cap)
    for t1 in f.dom.tuples():
        out1 = f.fn(t1)
        for t2 in up_set(t1, f.dom):
            if not tuple_leq(out1, f.fn(t2)):
                return (t1, t2)
    return None


def is_monotone(f: MonotoneFn, cap: EnumCap = DEFAULT_CAP) -> bool:
    """Exhaustive monotonicity check; raises CapError beyond the cap."""
    return find_monotonicity_violation(f, cap) is None


def kleene_bound(s: Signature) -> int:
    """Certified stabilization cap for Kleene iteration: one step per wire, plus one.

    Each strictly increasing step raises at least one coordinate from bottom
    to an atom, and a coordinate can rise only once.
    """
    return len(s) + 1


def product_height_bound(s: Signature) -> int:
    """Height bound obtained by multiplying the per-wire bound of 2.

    Looser than ``kleene_bound`` for two or more wires; kept as a cross-check.
    """
    return 2 ** len(s)


def lfp(f: MonotoneFn) -> WireTuple:
    """Least fixed point of an endofunction, by iteration from all-bottom."""
    if f.dom != f.cod:
        raise SignatureError(f"lfp needs dom = cod, got {f.dom!r} -> {f.cod!r}")
    t = f.dom.bottom()
    for _ in range(len(f.dom) + 1):
        nxt = f.fn(t)
        if nxt == t:
            return t
        t = nxt
    raise DivergenceError(
        f"no fixed point within {len(f.dom) + 1} iterations; "
        f"{f.name or 'the function'} is not monotone"
    )


def kleene_steps(f: MonotoneFn) -> int:
    """Index of the first repeated Kleene iterate (0 when bottom is already fixed)."""
    if f.dom != f.cod:
        raise SignatureError(f"kleene_steps needs dom = cod, got {f.dom!r} -> {f.cod!r}")
    t = f.dom.bottom()
    for i in range(len(f.dom) + 1):
        nxt = f.fn(t)
        if nxt == t:
            return i
        t = nxt
    raise DivergenceError("iteration did not stabilize within its certified bound")


def local_lfp(f: MonotoneFn, split: int) -> MonotoneFn:
    """Parameterized least fixed point.

    ``f`` maps a context part (the first ``split`` dom wires) plus a loop part
    to the loop part.  The result maps the context to the least fixed point of
    the loop part, and is itself monotone.
    """
    if not 0 <= split <= len(f.dom):
        raise SignatureError(f"split index {split} out of range for {f.dom!r}")
    ctx = f.dom[:split]
    loop = f.dom[split:]
    if loop != f.cod:
        raise SignatureError(
            f"loop part {loop!r} does not match codomain {f.cod!r}"
        )
    bound = len(loop) + 1
    bot = loop.bottom()
    fn = f.fn

    def solve(a: WireTuple) -> WireTuple:
        x = bot
        for _ in range(bound):
            nxt = fn(a + x)
            if nxt == x:
                return x
            x = nxt
        raise DivergenceError(
            f"no fixed point within {bound} iterations at context {a!r}; "
            f"{f.name or 'the function'} is not monotone"
        )

    return MonotoneFn(ctx, f.cod, solve, f"mu({f.name})")


def trace(f: MonotoneFn, k: int) -> MonotoneFn:
    """Close the last k wires of f into a feedback loop.

    ``f`` maps passthrough+loop wires to output+loop wires; the loop wires are
    solved to their least fixed point per input, and the result maps the
    passthrough wires to the output wires.
    """
    if not 0 <= k <= min(len(f.dom), len(f.cod)):
        raise SignatureError(f"cannot trace {k} wires of {f.dom!r} -> {f.cod!r}")
    n_in = len(f.dom) - k
    n_out = len(f.cod) - k
    if f.dom[n_in:] != f.cod[n_out:]:
        raise SignatureError(
            f"looped wires disagree: {f.dom[n_in:]!r} vs {f.cod[n_out:]!r}"
        )
    loop = f.dom[n_in:]
    bound = len(loop) + 1
    bot = loop.bottom()
    fn = f.fn

    def traced(a: WireTuple) -> WireTuple:
        x = bot
        for _ in range(bound):
            out = fn(a + x)
            nxt = out[n_out:]
            if nxt == x:
                return out[:n_out]
            x = nxt
        raise DivergenceError(
            f"loop did not settle within {bound} iterations at input {a!r}; "
            f"{f.name or 'the function'} is not monotone"
        )

    return MonotoneFn(f.dom[:n_in], f.cod[:n_out], traced, f"trace({f.name},{k})")
