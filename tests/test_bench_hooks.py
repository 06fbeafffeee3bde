"""The benchmark's tracer still finds every entry point it wraps.

``perfbench/tracer.py`` patches functions and methods by name and reports a
metric as absent when its target is gone, so a rename would silently drop
a per-layer metric.  This installs the tracer on the package and restores
it, which takes well under a second.
"""

import importlib.util
from pathlib import Path

import causalcirc

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_entry_point():
    before = causalcirc.engine.step, causalcirc.comb.Propagator.sweep
    tracer = load_tracer().Tracer()
    tracer.install(causalcirc)
    try:
        assert tracer.absent == set()
        assert causalcirc.engine.step is not before[0]
        assert tracer.mu(causalcirc) is not None
    finally:
        tracer.restore()
    assert (causalcirc.engine.step, causalcirc.comb.Propagator.sweep) == before
