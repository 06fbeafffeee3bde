"""Lifted flat domains, monotone functions, and bounded fixed-point operators.

A wire value is either a concrete atom (an int or a str, never a bool or
any other subclass) or the shared ``BOT`` sentinel meaning "no well-defined
value".  Tuples of such values, ordered pointwise with ``BOT`` below
everything, form the domains every circuit denotes a monotone function
between.  Feedback is resolved by Kleene iteration from the all-bottom
tuple; on a product of k lifted flat wires the iteration is certified to
stabilize within k+1 steps.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterator, TypeAlias


class _Bottom:
    """The undefined wire value. Use the single shared instance ``BOT``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "_"

    def __reduce__(self) -> str:
        # By reference: pickle, copy and deepcopy all hand back ``BOT``.
        return "BOT"


BOT = _Bottom()

Atom: TypeAlias = "int | str"
LValue: TypeAlias = "Atom | _Bottom"
WireTuple: TypeAlias = "tuple[LValue, ...]"


class SignatureError(ValueError):
    """A value, tuple, or function does not fit the expected signature."""


class CapError(RuntimeError):
    """An exhaustive check was requested on a space the cap does not allow.
    Arguments after the first are hints that a front end may replace."""

    def __str__(self) -> str:
        return "; ".join(self.args)


class DivergenceError(RuntimeError):
    """Kleene iteration did not stabilize within its certified bound.

    This can only happen when the iterated function is not monotone (or the
    bound bookkeeping is broken); it is reported instead of looping.
    """


class Record:
    """A frozen record that behaves as a frozen dataclass, built without
    generating code for each class.

    A subclass's fields are its parent record's, then its own annotated
    class attributes in order; a field's class attribute, if it has one,
    is its default.  The ``__init__`` binds arguments as a dataclass's
    does, stores them in order and then runs ``__post_init__``.  A
    record's ``__dict__`` holds its fields and whatever
    ``cached_property`` or ``object.__setattr__`` stash there later, so
    ``vars``, pickle and copy see what they saw of a dataclass.  Records
    are equal when they are of one class with equal fields, and hash and
    print as a frozen dataclass does; assigning or deleting an attribute
    raises FrozenInstanceError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # From Python 3.10 on, a class's ``__annotations__`` are its own.
        own = tuple(cls.__annotations__)
        if not own:
            if not cls._fields:
                raise TypeError(f"record {cls.__name__} declares no fields")
            return
        cls._fields += own
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        # A 1-field record's key is the field itself, not a 1-tuple.
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for f, value in zip(self._fields, args):
            # Not into ``self.__dict__``: that turns the instance's inline
            # values into a dict, on which every attribute read is slower.
            object.__setattr__(self, f, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from the arguments and defaults."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, {len(args)} given")
        values = list(args)
        for f in fields[len(args):]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in cls._defaults:
                values.append(cls._defaults[f])
            else:
                raise TypeError(f"{name}() missing argument {f!r}")
        if kwargs:
            f = next(iter(kwargs))
            why = "multiple values for" if f in fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {why} argument {f!r}")
        return values

    def __post_init__(self) -> None:
        """The checks a record runs once its fields are stored; none by default."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        # A dataclass hashes the tuple of its fields, a 1-tuple too.
        key = self._key(self)
        return hash(key if len(self._fields) > 1 else (key,))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# The exact types of atoms; a subclass such as bool is not one.
_ATOM_TYPES = (int, str)


class BaseType(Record):
    """A finite, ordered universe of concrete values a wire may carry."""

    name: str
    values: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise SignatureError(f"base type {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise SignatureError(f"base type {self.name!r} repeats a value")
        for v in self.values:
            if type(v) not in _ATOM_TYPES:
                raise SignatureError(
                    f"base type {self.name!r} holds {v!r}; atoms are ints or names"
                )

    @cached_property
    def lifted(self) -> tuple[LValue, ...]:
        """All values of the lifted domain, bottom first."""
        return (BOT,) + self.values

    @cached_property
    def members(self) -> frozenset[Atom]:
        """The values as a set: membership is one lookup at any width."""
        return frozenset(self.values)

    def is_member(self, x: LValue) -> bool:
        # By type first: True and 1.0 equal 1 but are not atoms, and a gate's
        # table (``GateDef.tick``) would take them for it.
        return x is BOT or (type(x) in _ATOM_TYPES and x in self.members)

    def check_member(self, x: LValue) -> None:
        if not self.is_member(x):
            raise SignatureError(f"{x!r} is not a value of base type {self.name!r}")

    def __repr__(self) -> str:
        return f"BaseType({self.name!r})"


BOOL = BaseType("bool", (0, 1))
UNIT = BaseType("unit", (0,))


def int_range(lo: int, hi: int) -> BaseType:
    """Base type ``i{lo}_{hi}`` of the consecutive integers lo..hi inclusive."""
    if lo > hi:
        raise SignatureError(f"empty integer range {lo}..{hi}")
    return BaseType(f"i{lo}_{hi}", tuple(range(lo, hi + 1)))


def is_int_range(base: BaseType) -> bool:
    v = base.values
    return all(isinstance(a, int) for a in v) and v == tuple(range(v[0], v[-1] + 1))


class Signature(Record):
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

    def split(self, k: int) -> tuple["Signature", tuple[BaseType, ...], WireTuple, range]:
        """The first k wires, the wires after them, their bottom tuple and
        Kleene steps; checked and built once per k, as ``local_lfp`` splits
        the same signature at the same place over and over.  Each signature
        keeps its own splits, so two equal signatures check theirs apart."""
        got = self._splits.get(k)
        if got is None:
            if not 0 <= k <= len(self.wires):
                raise SignatureError(f"split index {k} out of range for {self!r}")
            loop, n = self.wires[k:], len(self.wires) - k
            got = (Signature(self.wires[:k]), loop, (BOT,) * n, range(n + 1))
            self._splits[k] = got
        return got

    @cached_property
    def _splits(self) -> dict[int, tuple]:
        return {}

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


# Limits under which exhaustive enumeration is considered feasible.
MAX_ENUM_VALUES = 8
MAX_ENUM_WIRES = 4


def check_enumerable(s: Signature) -> None:
    if len(s) > MAX_ENUM_WIRES:
        raise CapError(f"{s!r} has {len(s)} wires, cap is {MAX_ENUM_WIRES}")
    for b in s.wires:
        if len(b.values) > MAX_ENUM_VALUES:
            raise CapError(
                f"base type {b.name!r} has {len(b.values)} values, cap is {MAX_ENUM_VALUES}"
            )


def tuple_leq(t1: WireTuple, t2: WireTuple) -> bool:
    """Pointwise order on value tuples."""
    if len(t1) != len(t2):
        raise SignatureError(f"tuple lengths differ: {len(t1)} vs {len(t2)}")
    return all(x is BOT or x == y for x, y in zip(t1, t2))


@dataclass(eq=False, slots=True)
class MonotoneFn:
    """A total function between products of lifted flat domains.

    ``fn`` must be total on dom-conforming tuples and order-preserving;
    ``from_table`` checks that of a table, and ``table`` holds the explicit
    graph when the function was built from one.
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
        for out in table.values():
            cod.check(out)
        # Each row in table order, against every tuple pointwise above it.
        for t, out in table.items():
            for hi in itertools.product(
                *[b.lifted if x is BOT else (x,) for b, x in zip(dom.wires, t)]
            ):
                if not tuple_leq(out, table[hi]):
                    raise SignatureError(
                        f"table {name!r} is not monotone: {t!r} <= {hi!r} "
                        f"but {out!r} !<= {table[hi]!r}"
                    )
        return cls(dom, cod, table.__getitem__, name, table)


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


def _kleene(
    fn: Callable[[WireTuple], WireTuple] | None, bot: WireTuple, name: str, steps=None
):
    """The least fixed point of ``x -> fn(a + x)`` as a function of ``a``.

    This is the package's one Kleene loop: ``lfp``, ``kleene_steps``,
    ``local_lfp``, ``trace`` and the circuit solver in ``comb`` all run it.
    Iteration starts from ``bot`` and stops at the first repeated iterate;
    ``len(bot) + 1`` steps always suffice for a monotone ``fn`` (see
    ``kleene_bound``), so running out raises DivergenceError.  ``fn`` is
    called directly, never through a wrapper per step, and ``steps`` comes
    from ``Signature.split`` or is built here: the law sweeps build one
    closure per operator call and run over two million solves by default.  A
    solver built once and run many times passes ``fn`` on each call
    instead: ``comb`` builds one settle per compiled circuit and hands it
    the sweep it looks up per tick.
    """
    steps = steps or range(len(bot) + 1)

    def solve(a: WireTuple, fn=fn) -> WireTuple:
        x = bot
        for _ in steps:
            nxt = fn(a + x)
            if nxt == x:
                return x
            x = nxt
        at = f" at context {a!r}" if a else ""
        raise DivergenceError(
            f"no fixed point within {len(steps)} iterations{at}; {name} is not monotone"
        )

    return solve


def lfp(f: MonotoneFn) -> WireTuple:
    """Least fixed point of an endofunction, by iteration from all-bottom."""
    if f.dom != f.cod:
        raise SignatureError(f"lfp needs dom = cod, got {f.dom!r} -> {f.cod!r}")
    return _kleene(f.fn, f.dom.bottom(), f.name or "the function")(())


def kleene_steps(f: MonotoneFn) -> int:
    """Index of the first repeated Kleene iterate (0 when bottom is already fixed)."""
    if f.dom != f.cod:
        raise SignatureError(f"kleene_steps needs dom = cod, got {f.dom!r} -> {f.cod!r}")
    steps = 0

    def counted(t: WireTuple) -> WireTuple:
        nonlocal steps
        steps += 1
        return f.fn(t)

    _kleene(counted, f.dom.bottom(), f.name or "the function")(())
    return steps - 1


def local_lfp(f: MonotoneFn, split: int) -> MonotoneFn:
    """Parameterized least fixed point.

    ``f`` maps a context part (the first ``split`` dom wires) plus a loop part
    to the loop part.  The result maps the context to the least fixed point of
    the loop part, and is itself monotone.  The split is checked once per
    signature and split (``Signature.split``); a call then compares the loop
    wires with ``f.cod`` and wraps a ``_kleene`` solve, as the law sweeps
    call this tens of thousands of times on a few unnamed functions.
    """
    dom, cod, name = f.dom, f.cod, f.name or "the function"
    ctx, loop, bot, steps = dom._splits.get(split) or dom.split(split)
    if loop != cod.wires:
        raise SignatureError(
            f"loop part {dom[split:]!r} does not match codomain {cod!r}"
        )
    solve = _kleene(f.fn, bot, name, steps)
    return MonotoneFn(ctx, cod, solve, f"mu({f.name})" if f.name else "mu()")


Mu: TypeAlias = Callable[[MonotoneFn, int], MonotoneFn]


def trace(f: MonotoneFn, k: int, mu: Mu) -> MonotoneFn:
    """Close the last k wires of f into a feedback loop, solved by ``mu``.

    ``f`` maps passthrough+loop wires to output+loop wires.  The loop wires
    settle at ``mu`` of the loop projection of ``f``, and one more
    application of ``f`` gives the outputs.  With ``mu = local_lfp`` that is
    the least fixed point per input; the law sweeps pass the operator under
    test instead.
    """
    n_in, n_out = len(f.dom) - k, len(f.cod) - k
    if k < 0 or n_in < 0 or n_out < 0:
        raise SignatureError(f"cannot trace {k} wires of {f.dom!r} -> {f.cod!r}")
    loop = f.dom[n_in:]
    if loop.wires != f.cod.wires[n_out:]:
        raise SignatureError(
            f"looped wires disagree: {loop!r} vs {f.cod[n_out:]!r}"
        )
    fn = f.fn
    m = mu(MonotoneFn(f.dom, loop, lambda t: fn(t)[n_out:], f.name), n_in).fn
    # Left unnamed, so that building a trace formats no string; a
    # DivergenceError then calls it "the function".
    return MonotoneFn(f.dom[:n_in], f.cod[:n_out], lambda a: fn(a + m(a))[:n_out])
