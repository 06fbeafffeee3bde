"""The package's frozen records behave as the frozen dataclasses they were.

Each record is pinned against a ``@dataclass(frozen=True)`` twin declared
here with the same name, fields and defaults: equality within and across
classes, hash, repr, the errors on assignment, deletion and bad arguments,
keyword construction and defaults.  The records are reached through their
modules, so the twins' names do not shadow them.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from pathlib import Path

import pytest

from causalcirc import analysis, circuit, domain, engine, gates, laws
from causalcirc.domain import BOOL, BOT, UNIT, SignatureError, int_range, sig

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class BaseType:
    name: str
    values: tuple

    __repr__ = domain.BaseType.__repr__


@dataclass(frozen=True)
class Signature:
    wires: tuple = ()

    __repr__ = domain.Signature.__repr__


@dataclass(frozen=True)
class SrcIn:
    index: int


@dataclass(frozen=True)
class SrcNode:
    node: int
    port: int


@dataclass(frozen=True)
class SrcLoop:
    index: int


@dataclass(frozen=True)
class UnitDelay:
    base: object
    init: object = BOT


@dataclass(frozen=True)
class VarDelay:
    base: object
    d_min: int
    d_max: int
    init: object = BOT
    d_base: object = None

    def __post_init__(self):
        if self.d_base is None:
            object.__setattr__(self, "d_base", int_range(self.d_min, self.d_max))


@dataclass(frozen=True)
class LoopWire:
    base: object
    src: object


@dataclass(frozen=True)
class Circuit:
    in_ports: object
    out_ports: object
    nodes: tuple = ()
    node_inputs: tuple = ()
    outputs: tuple = ()
    loops: tuple = ()
    in_names: object = None
    out_names: object = None


@dataclass(frozen=True)
class GateDef:
    name: str
    fn: object
    kind: str
    concrete_table: object = None
    bot_free: bool = False

    # A gate's own equality, hash and print, which read its signatures.
    dom, cod = gates.GateDef.dom, gates.GateDef.cod
    __eq__ = gates.GateDef.__eq__
    __hash__ = gates.GateDef.__hash__
    __repr__ = gates.GateDef.__repr__


@dataclass(frozen=True)
class Diagnostic:
    where: str
    message: str


@dataclass(frozen=True)
class PrefixTrace:
    signature: object
    rows: tuple


@dataclass(frozen=True)
class SimState:
    circuit: object
    histories: tuple
    t: int = 0


@dataclass(frozen=True)
class Witness:
    inputs: object
    tick: int
    port: int


@dataclass(frozen=True)
class TotalityReport:
    total: bool
    horizon: int
    strategy: str
    cases: int
    witness: object = None


@dataclass(frozen=True)
class EquivReport:
    equivalent: bool
    horizon: int
    strategy: str
    cases: int
    witness: object = None
    left: tuple = ()
    right: tuple = ()


@dataclass(frozen=True)
class Counterexample:
    law: str
    combo: str
    detail: str


@dataclass(frozen=True)
class ComboResult:
    combo: str
    mode: str
    cases: int
    counterexample: object = None


@dataclass(frozen=True)
class SweepResult:
    law: str
    combos: tuple


_C = circuit.Circuit(sig(BOOL), sig(BOOL), outputs=(circuit.SrcIn(0),))
_TRACE = engine.PrefixTrace(sig(BOOL), ((1,), (BOT,)))
_W = analysis.Witness(_TRACE, 1, 0)
_CX = laws.Counterexample("bekic", "bool", "differs at _")
# Gates whose functions are table lookups, so that they pickle.
_B = sig(BOOL)
_NOT = domain.MonotoneFn.from_table(_B, _B, {(BOT,): (BOT,), (0,): (1,), (1,): (0,)}, "not")
_ID = domain.MonotoneFn.from_table(_B, _B, {(BOT,): (BOT,), (0,): (0,), (1,): (1,)}, "id")

# Each record with the arguments of two unequal instances of it.
CASES = {
    domain.BaseType: [("bool", (0, 1)), ("e", ("lo", "hi"))],
    domain.Signature: [((BOOL,),), ((BOOL, UNIT),)],
    circuit.SrcIn: [(0,), (1,)],
    circuit.SrcNode: [(0, 1), (1, 0)],
    circuit.SrcLoop: [(0,), (1,)],
    circuit.UnitDelay: [(BOOL, BOT), (BOOL, 1)],
    circuit.VarDelay: [(BOOL, 1, 2, BOT, int_range(1, 2)), (BOOL, 0, 1, 0, BOOL)],
    circuit.LoopWire: [(BOOL, circuit.SrcNode(0, 0)), (UNIT, circuit.SrcIn(0))],
    circuit.Circuit: [
        (sig(BOOL), sig(BOOL), (), (), (circuit.SrcIn(0),), (), None, None),
        (sig(BOOL), sig(), (), (), (), (), ("a",), ()),
    ],
    circuit.Diagnostic: [("node 0", "bad"), ("output 1", "worse")],
    gates.GateDef: [
        ("not", _NOT, gates.KIND_STRICT, {(0,): (1,), (1,): (0,)}, True),
        ("id", _ID, gates.KIND_TABLE, None, False),
    ],
    engine.PrefixTrace: [(sig(BOOL), ((1,), (BOT,))), (sig(BOOL), ())],
    engine.SimState: [(_C, (0, 1), 0), (_C, (), 3)],
    analysis.Witness: [(_TRACE, 1, 0), (_TRACE, 0, 0)],
    analysis.TotalityReport: [(True, 3, "walk", 8, None), (False, 2, "walk", 4, _W)],
    analysis.EquivReport: [
        (True, 1, "walk", 2, None, (), ()),
        (False, 2, "walk", 4, _W, (0,), (1,)),
    ],
    laws.Counterexample: [("fixpoint", "unit", "x"), ("bekic", "bool", "differs at _")],
    laws.ComboResult: [("bool", "exhaustive", 4, None), ("unit", "sampled", 2, _CX)],
    laws.SweepResult: [
        ("fixpoint", ()),
        ("bekic", (laws.ComboResult("bool", "exhaustive", 4, None),)),
    ],
}
TWINS = {cls: globals()[cls.__name__] for cls in CASES}


def pairs():
    """Every instance of every record, each with its twin: two equal ones
    of each case, so equal records that are not one object are compared."""
    return [
        (cls(*args), TWINS[cls](*args))
        for cls, cases in CASES.items()
        for args in cases + cases
    ]


ids = [cls.__name__ for cls in CASES]


def test_every_frozen_record_has_a_twin():
    assert sorted(cls.__name__ for cls in domain.Record.__subclasses__()) == sorted(ids)


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_a_record_compares_hashes_and_prints_as_its_dataclass(cls):
    everyone = pairs()
    for args in CASES[cls]:
        r, t = cls(*args), TWINS[cls](*args)
        assert tuple(vars(r)) == tuple(f.name for f in fields(t))
        assert vars(r) == vars(t)
        assert hash(r) == hash(t)
        assert repr(r) == repr(t)
        for other, other_twin in everyone:
            assert (r == other) == (t == other_twin), (r, other)
            assert (r != other) == (t != other_twin), (r, other)
        assert r != t and not r == t


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_a_record_is_frozen_as_its_dataclass(cls):
    r, t = cls(*CASES[cls][0]), TWINS[cls](*CASES[cls][0])
    for name in (fields(t)[0].name, "not_a_field"):
        for act in (lambda x: setattr(x, name, 1), lambda x: delattr(x, name)):
            with pytest.raises(FrozenInstanceError) as want:
                act(t)
            with pytest.raises(FrozenInstanceError) as got:
                act(r)
            assert str(got.value) == str(want.value)
    assert vars(r) == vars(t)


def held(r) -> dict:
    """``vars(r)`` with a function read as what it holds: a ``MonotoneFn``
    equals only itself, so a copy of one is compared by its parts."""
    def part(v):
        if isinstance(v, domain.MonotoneFn):
            return v.dom, v.cod, v.name, v.table
        return v
    return {k: part(v) for k, v in vars(r).items()}


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_a_record_survives_pickle_and_copy(cls):
    for args in CASES[cls]:
        r = cls(*args)
        for back in (
            pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)
        ):
            assert type(back) is cls and back == r and hash(back) == hash(r)
            assert held(back) == held(r) and repr(back) == repr(r)


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_a_record_binds_its_arguments_as_its_dataclass(cls):
    twin = TWINS[cls]
    names = [f.name for f in fields(twin)]
    required = sum(f.default is MISSING for f in fields(twin))
    for args in CASES[cls]:
        by_name = dict(zip(names, args))
        assert vars(cls(**by_name)) == vars(twin(**by_name))
        assert list(vars(cls(**dict(reversed(by_name.items()))))) == names
        half = len(args) // 2
        assert cls(*args[:half], **dict(list(by_name.items())[half:])) == cls(*args)
        # The defaults: only the fields without one.
        assert vars(cls(*args[:required])) == vars(twin(*args[:required]))
    args = CASES[cls][0]
    bad = [
        ((*args, 0), {}),  # one too many
        (args, {names[0]: args[0]}),  # repeated
        (args, {"not_a_field": 0}),  # unknown
    ]
    if required:
        bad.append((args[: required - 1], {}))  # one missing
    for a, kw in bad:
        with pytest.raises(TypeError):
            twin(*a, **kw)
        with pytest.raises(TypeError):
            cls(*a, **kw)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: domain.BaseType("x", (0, 0)), "repeats a value"),
        (lambda: domain.BaseType("x", ()), "has no values"),
        (lambda: domain.BaseType("x", (True,)), "atoms are ints or names"),
        (lambda: circuit.UnitDelay(BOOL, 2), "not a value of base type"),
        (lambda: circuit.VarDelay(BOOL, 2, 1), "bad delay range 2..1"),
        (lambda: circuit.VarDelay(BOOL, 1, 2, init=3), "not a value of base type"),
        (lambda: circuit.VarDelay(BOOL, 1, 2, d_base=BOOL), "must have values exactly 1..2"),
        (lambda: engine.PrefixTrace(sig(BOOL), [(0,), (2,)]), "not a value of base type"),
    ],
    ids=["repeat", "empty", "bool-atom", "unit-init", "range", "var-init", "d-base", "trace-row"],
)
def test_a_record_keeps_its_checks(make, message):
    with pytest.raises(SignatureError, match=message):
        make()


def test_a_record_fills_in_what_its_checks_derive():
    assert circuit.VarDelay(BOOL, 1, 3).d_base == int_range(1, 3)
    trace = engine.PrefixTrace(sig(BOOL), [[0], [BOT]])
    assert trace.rows == ((0,), (BOT,)) and type(trace.rows[0]) is tuple


def run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter on this checkout; its stdout."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_the_records_that_need_a_dataclass_are_dataclasses():
    # In a fresh interpreter: the classes ``import causalcirc`` loads.  A
    # decorator put back on a record shows here; ``dataclasses.replace`` is
    # called on these two.  ``test_hygiene`` checks every module statically.
    script = (
        "import dataclasses, json, sys\n"
        "import causalcirc\n"
        "found = sorted(\n"
        "    c.__name__ for m in list(sys.modules.values())\n"
        "    if m.__name__.startswith('causalcirc') for c in vars(m).values()\n"
        "    if isinstance(c, type) and c.__module__ == m.__name__\n"
        "    and dataclasses.is_dataclass(c)\n"
        ")\n"
        "print(json.dumps(found))\n"
    )
    assert json.loads(run_fresh(script)) == ["LawConfig", "MonotoneFn"]


def test_a_record_subclass_inherits_and_extends_its_parents_fields():
    # In a fresh interpreter, so no record made here joins
    # ``Record.__subclasses__``.
    script = (
        "from causalcirc import circuit, domain\n"
        "class Named(circuit.SrcIn):\n"
        "    '''No fields of its own: those of SrcIn.'''\n"
        "class Tagged(circuit.SrcIn):\n"
        "    tag: str = 'x'\n"
        "assert Named(3).index == 3 and Named(3) != circuit.SrcIn(3)\n"
        "assert repr(Named(3)) == 'Named(index=3)'\n"
        "t = Tagged(1)\n"
        "assert (t.index, t.tag) == (1, 'x') and Tagged(1, tag='y') != t\n"
        "try:\n"
        "    class Empty(domain.Record):\n"
        "        pass\n"
        "except TypeError as e:\n"
        "    assert 'declares no fields' in str(e), e\n"
        "else:\n"
        "    raise AssertionError('a record without fields was made')\n"
    )
    run_fresh(script)
