"""Gate catalog: strict lifts of concrete functions, parallel operators, wiring.

A gate is a named monotone function with a little metadata describing how it
was built.  Strict gates return bottom as soon as any input is bottom and are
total on concrete inputs; the parallel operators ``por`` and ``pand`` can
produce a concrete output from a partially bottom input, which is exactly
what lets a feedback loop through them settle on a non-bottom value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

from .domain import (
    BOOL,
    BOT,
    BaseType,
    LValue,
    MonotoneFn,
    Signature,
    SignatureError,
    WireTuple,
    is_int_range,
    sig,
)

# A node's function in the tick, applied to its arguments as ``comb``
# gathers them: the bare value of a one-input gate, else the tuple of its
# input values followed by its committed history.  A gate's is a lookup in
# its table.
TickFn = Callable[[object], WireTuple]


class _Table(dict):
    """A gate's graph, filled on first use: a missing key is computed by
    ``call`` once and stored.  A call that raises stores nothing.

    A value is stored only if it fits ``cod``: a table outlives the
    circuit that filled it, and a bool (which equals an int) or a value
    off the signature would be handed to every later circuit that looks
    up an equal key.
    """

    __slots__ = ("call", "name", "cod")

    def __init__(self, call: Callable, name: str, cod: Signature) -> None:
        super().__init__()
        self.call, self.name, self.cod = call, name, cod

    def __missing__(self, key) -> WireTuple:
        out = self.call(key)
        if not self.cod.conforms(out):
            raise SignatureError(
                f"gate {self.name!r} gave {out!r} for {key!r}, "
                f"not a value of {self.cod!r}"
            )
        self[key] = out
        return out


# How the gate's function was obtained; printing and equality depend on it.
KIND_STRICT = "strict-lift"
KIND_TABLE = "primitive-table"
KIND_WIRING = "wiring"


@dataclass(eq=False)
class GateDef:
    """A named, reusable monotone function with printing metadata.

    ``concrete_table`` is the bottom-free graph for strict gates built from
    rows.  ``bot_free`` marks a strict gate whose function never gives a
    bottom on concrete inputs: the builtins, and gates built from rows
    (``strict_lift_table`` refuses a bottom row).  Equality compares name,
    kind, signatures and tables; a gate with neither table is only equal
    to one wrapping the very same callable.
    Builtin constructors are memoized so that equal requests (a netlist
    round trip, say) get the same gate back.  A gate is a netlist builtin
    only when it equals what the netlist's builtin of its name builds for
    its argument types; the printer declares any other gate from its table.
    """

    name: str
    fn: MonotoneFn
    kind: str
    concrete_table: dict[WireTuple, WireTuple] | None = field(default=None, repr=False)
    bot_free: bool = field(default=False, repr=False)

    @property
    def dom(self) -> Signature:
        return self.fn.dom

    @property
    def cod(self) -> Signature:
        return self.fn.cod

    # A gate keeps no history and reads none: every tick it is its function.
    depth = 0

    def reads_history(self, port: int) -> bool:
        return False

    @cached_property
    def tick(self) -> TickFn:
        """The gate's function for every tick: ``__getitem__`` of its table.

        A gate's function must be pure: the tick calls ``fn.fn`` at most
        once per argument tuple for the gate's lifetime, and looks every
        later use up; a value off the codomain raises SignatureError and is
        not stored.  The table grows to at most one entry per point of the
        lifted domain.  It lives on this instance, so two gates never
        share one, and a builtin gate, which its constructor memoizes,
        keeps one for every circuit that uses it.  A one-input gate's table
        is keyed on the bare value, any other gate's on the tuple of its
        values (``()`` for a gate of no inputs); a gate built from a full
        table is looked up in that table.
        """
        f, fn = self.fn, self.fn.fn
        if len(f.dom) == 1:
            return _Table(lambda x: fn((x,)), self.name, f.cod).__getitem__
        if f.table is not None:
            return f.table.__getitem__
        return _Table(fn, self.name, f.cod).__getitem__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GateDef):
            return NotImplemented
        return self is other or (
            self.name == other.name
            and self.kind == other.kind
            and self.dom == other.dom
            and self.cod == other.cod
            and self.fn.table == other.fn.table
            and self.concrete_table == other.concrete_table
            and (
                self.fn.table is not None
                or self.concrete_table is not None
                or self.fn.fn is other.fn.fn
            )
        )

    def __hash__(self) -> int:
        return hash((self.name, self.kind, self.dom, self.cod))

    def __repr__(self) -> str:
        return f"GateDef({self.name!r}, {self.dom!r} -> {self.cod!r})"


def strict_lift(
    name: str,
    dom: Signature,
    cod: Signature,
    g: Callable[[WireTuple], WireTuple],
) -> GateDef:
    """Lift a function on concrete tuples to the lifted domain, strictly.

    The result is bottom on every coordinate whenever any input coordinate is
    bottom, and agrees with ``g`` on concrete tuples.  Strictness makes the
    lift monotone for an arbitrary total ``g``.  ``g`` must be pure: a tick
    calls the lift at most once per argument tuple for the gate's lifetime
    and keeps the result in the gate's table (``GateDef.tick``).
    """
    bot_out = cod.bottom()

    def lifted(t: WireTuple) -> WireTuple:
        if any(x is BOT for x in t):
            return bot_out
        return g(t)

    return GateDef(name, MonotoneFn(dom, cod, lifted, name), KIND_STRICT)


def strict_lift_table(
    name: str,
    dom: Signature,
    cod: Signature,
    rows: dict[WireTuple, WireTuple],
) -> GateDef:
    """Strict lift of an explicit concrete table; rows must cover every concrete tuple."""
    rows = dict(rows)
    for t in dom.concrete_tuples():
        if t not in rows:
            raise SignatureError(f"gate {name!r} is missing a row for {t!r}")
    if len(rows) != dom.concrete_count():
        raise SignatureError(f"gate {name!r} has rows outside its domain")
    for t, out in rows.items():
        dom.check(t)
        cod.check(out)
        if any(x is BOT for x in t) or any(y is BOT for y in out):
            raise SignatureError(f"gate {name!r} has a bottom in concrete row {t!r}")
    g = strict_lift(name, dom, cod, rows.__getitem__)
    g.concrete_table = rows
    g.bot_free = True
    return g


def table_gate(
    name: str,
    dom: Signature,
    cod: Signature,
    rows: dict[WireTuple, WireTuple],
) -> GateDef:
    """Gate from a full lifted table; from_table rejects non-monotone rows."""
    f = MonotoneFn.from_table(dom, cod, rows, name)
    return GateDef(name, f, KIND_TABLE)


def _bot_free_lift(name: str, dom: Signature, cod: Signature, g: Callable) -> GateDef:
    """``strict_lift`` of a ``g`` that never gives a bottom, as a builtin's."""
    gate = strict_lift(name, dom, cod, g)
    gate.bot_free = True
    return gate


def _por(x: LValue, y: LValue) -> LValue:
    # Concrete 1 wins over an undefined other input; 0 needs both sides.
    if x == 1 or y == 1:
        return 1
    if x == 0 and y == 0:
        return 0
    return BOT


def _pand(x: LValue, y: LValue) -> LValue:
    if x == 0 or y == 0:
        return 0
    if x == 1 and y == 1:
        return 1
    return BOT


@cache
def por() -> GateDef:
    """Parallel or: non-strict in either input."""
    f = MonotoneFn(sig(BOOL, BOOL), sig(BOOL), lambda t: (_por(t[0], t[1]),), "por")
    return GateDef("por", f, KIND_TABLE)


@cache
def pand() -> GateDef:
    """Parallel and: non-strict dual of por."""
    f = MonotoneFn(sig(BOOL, BOOL), sig(BOOL), lambda t: (_pand(t[0], t[1]),), "pand")
    return GateDef("pand", f, KIND_TABLE)


@cache
def not_gate() -> GateDef:
    return _bot_free_lift("not", sig(BOOL), sig(BOOL), lambda t: (1 - t[0],))


@cache
def and_gate() -> GateDef:
    return _bot_free_lift("and", sig(BOOL, BOOL), sig(BOOL), lambda t: (t[0] & t[1],))


@cache
def or_gate() -> GateDef:
    return _bot_free_lift("or", sig(BOOL, BOOL), sig(BOOL), lambda t: (t[0] | t[1],))


@cache
def xor_gate() -> GateDef:
    return _bot_free_lift("xor", sig(BOOL, BOOL), sig(BOOL), lambda t: (t[0] ^ t[1],))


@cache
def nand_gate() -> GateDef:
    return _bot_free_lift("nand", sig(BOOL, BOOL), sig(BOOL), lambda t: (1 - (t[0] & t[1]),))


@cache
def nor_gate() -> GateDef:
    return _bot_free_lift("nor", sig(BOOL, BOOL), sig(BOOL), lambda t: (1 - (t[0] | t[1]),))


def mux_gate(base: BaseType = BOOL) -> GateDef:
    """Strict select: (sel, a, b) -> a when sel is 1, b when sel is 0."""
    return _mux_gate(base)


@cache
def _mux_gate(base: BaseType, /) -> GateDef:
    return _bot_free_lift(
        "mux",
        sig(BOOL, base, base),
        sig(base),
        lambda t: (t[1] if t[0] == 1 else t[2],),
    )


@cache
def add_gate(base: BaseType, /) -> GateDef:
    """Wrapping addition on an integer-range base type."""
    if not is_int_range(base):
        raise SignatureError(f"add needs an integer range, got {base.name!r}")
    lo = base.values[0]
    n = len(base.values)
    return _bot_free_lift(
        "add",
        sig(base, base),
        sig(base),
        lambda t: ((t[0] + t[1] - lo) % n + lo,),
    )


@cache
def eq_gate(base: BaseType, /) -> GateDef:
    """Strict equality test, boolean output."""
    return _bot_free_lift(
        "eq", sig(base, base), sig(BOOL), lambda t: (1 if t[0] == t[1] else 0,)
    )


@cache
def lt_gate(base: BaseType, /) -> GateDef:
    if not all(isinstance(a, int) for a in base.values):
        raise SignatureError(f"lt needs integer values, got {base.name!r}")
    return _bot_free_lift(
        "lt", sig(base, base), sig(BOOL), lambda t: (1 if t[0] < t[1] else 0,)
    )


@cache
def identity_gate(base: BaseType, /) -> GateDef:
    return GateDef(
        "id", MonotoneFn(sig(base), sig(base), lambda t: t, "id"), KIND_WIRING
    )


@cache
def dup_gate(base: BaseType, /) -> GateDef:
    """Fanout: one wire in, the same value on two wires out."""
    return GateDef(
        "dup",
        MonotoneFn(sig(base), sig(base, base), lambda t: (t[0], t[0]), "dup"),
        KIND_WIRING,
    )


@cache
def sink_gate(base: BaseType, /) -> GateDef:
    """Discard: one wire in, nothing out."""
    return GateDef(
        "sink", MonotoneFn(sig(base), sig(), lambda t: (), "sink"), KIND_WIRING
    )


@cache
def swap_gate(b1: BaseType, b2: BaseType, /) -> GateDef:
    return GateDef(
        "swap",
        MonotoneFn(sig(b1, b2), sig(b2, b1), lambda t: (t[1], t[0]), "swap"),
        KIND_WIRING,
    )


def const_gate(base: BaseType, value: LValue) -> GateDef:
    """Nullary source of a fixed value; ``value`` may be BOT."""
    if value is not BOT:
        base.check_member(value)  # before the memo, where True would hit 1
    return _const_gate(base, value)


@cache
def _const_gate(base: BaseType, value: LValue, /) -> GateDef:
    label = "bot" if value is BOT else value
    f = MonotoneFn(sig(), sig(base), lambda t: (value,), f"const:{label}")
    f.table = {(): (value,)}
    return GateDef("const", f, KIND_WIRING)
