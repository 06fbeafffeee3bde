"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "causalcirc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions again.

    A name counts as used when it is read anywhere in the module, or when
    it appears as a word inside a string, as in a ``TypeAlias`` string.
    The package's ``__init__`` re-exports what it imports and is not
    checked.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"\w+", node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_unused_import_finder_sees_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import random as rng\n"
        "from typing import Iterator, TypeAlias\n"
        "from .domain import BOT, tuple_leq\n"
        'Rows: TypeAlias = "Iterator[int]"\n'
        "x = os.path.join(BOT)\n"
    )
    assert unused_imports(source) == ["rng (line 3)", "tuple_leq (line 5)"]


@pytest.mark.parametrize(
    "path",
    MODULES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}",
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dict_reads(source: str) -> list[str]:
    """Every ``.__dict__`` attribute a module reads, by line.

    Reading an instance's ``__dict__`` turns its inline attribute values
    into a dict, on which every later attribute read is slower; a stash is
    read with ``getattr(obj, name, None)`` instead.  The scan cannot tell an
    instance from a class, so a class's ``__dict__`` is reported too.
    """
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
    ]


def test_the_dict_read_finder_sees_a_stash_read():
    source = (
        '"""A docstring may name c.__dict__."""\n'
        "def plan(c):\n"
        "    # and so may a comment: c.__dict__\n"
        "    p = getattr(c, '_plan', None)\n"
        "    return c.__dict__.get('_plan', p)\n"
    )
    assert dict_reads(source) == ["line 5"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_an_instance_dict(path):
    assert dict_reads(path.read_text(encoding="utf-8")) == []


def dataclasses_declared(source: str) -> list[str]:
    """Every class a module decorates with ``@dataclass``, called or not,
    by name or through the ``dataclasses`` module."""
    def is_dataclass(d) -> bool:
        d = d.func if isinstance(d, ast.Call) else d
        return (isinstance(d, ast.Name) and d.id == "dataclass") or (
            isinstance(d, ast.Attribute) and d.attr == "dataclass"
        )

    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
    ]


def test_the_dataclass_finder_sees_every_spelling():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Bare: x: int\n"
        "@dataclass(frozen=True)\n"
        "class Called: x: int\n"
        "@dataclasses.dataclass(slots=True)\n"
        "class Dotted: x: int\n"
        "def f():\n"
        "    @dataclass\n"
        "    class Inner: x: int\n"
        "class Plain: x: int\n"
    )
    assert sorted(dataclasses_declared(source)) == ["Bare", "Called", "Dotted", "Inner"]


# Each of these has ``dataclasses.replace`` callers: ``MonotoneFn`` in the
# benchmark's tracer and scripts/law_cost.py, ``LawConfig`` in
# tests/test_laws.py and scripts/law_cost.py, ``GenConfig`` in its own
# module.  Every other record is a frozen ``domain.Record``.
DATACLASSES = ["GenConfig", "LawConfig", "MonotoneFn"]


def test_only_the_allowed_classes_are_dataclasses():
    found = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name in dataclasses_declared(path.read_text(encoding="utf-8"))
    ]
    assert sorted(found) == DATACLASSES


def test_the_readme_layout_names_every_module_and_script():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Layout", 1)[1].split("```")[1]
    named = set(re.findall(r"[\w.]+\.py\b", layout))
    files = [p for p in MODULES if p.name != "__main__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    assert [p.name for p in files if p.name not in named] == []


def test_the_package_loads_random_circuits_on_first_use():
    script = (
        "import sys\n"
        "import causalcirc\n"
        "assert 'causalcirc.random_circuits' not in sys.modules\n"
        "from causalcirc import GenConfig, random_circuit\n"
        "import causalcirc.random_circuits as rc\n"
        "assert random_circuit is rc.random_circuit and GenConfig is rc.GenConfig\n"
        "assert causalcirc.random_delay_free_circuit is rc.random_delay_free_circuit\n"
        "assert {'random_circuit', 'random_contractive_circuit'} <= set(dir(causalcirc))\n"
        "try:\n"
        "    causalcirc.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'causalcirc' has no attribute 'no_such_name'\n"
