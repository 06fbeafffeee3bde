"""Circuits over lifted flat value domains, with explicit feedback.

The package splits into a small stack:

* ``domain``: wire values with an undefined bottom, signatures, monotone
  functions, and the bounded Kleene fixed point with its local and traced
  forms;
* ``gates``: strict lifts, the parallel or/and pair, wiring gates;
* ``circuit``: the structural IR, builders, validation, contractivity, and
  the delay nodes, each a fixed function of its inputs and its history;
* ``comb``: compiled wiring that settles one tick by whole-vector
  iteration over the wires the tick computes (a unit delay reads its
  history, a feedback wire its source), and delay-free evaluation;
* ``engine``: tick-by-tick simulation that commits the delay history;
* ``analysis``: bounded totality and equivalence checks;
* ``laws``: equational sweeps for the fixed-point operator;
* ``netlist`` and ``streams``: the text formats;
* ``random_circuits``: seeded generators for property tests, loaded on
  first use of one of its names, as only tests and scripts draw circuits.
"""

from .domain import (
    BOOL,
    BOT,
    BaseType,
    CapError,
    DivergenceError,
    MonotoneFn,
    Signature,
    SignatureError,
    UNIT,
    int_range,
    kleene_bound,
    kleene_steps,
    lfp,
    local_lfp,
    product_height_bound,
    sig,
    trace,
    tuple_leq,
)
from .gates import (
    GateDef,
    add_gate,
    and_gate,
    const_gate,
    dup_gate,
    eq_gate,
    identity_gate,
    lt_gate,
    mux_gate,
    nand_gate,
    nor_gate,
    not_gate,
    or_gate,
    pand,
    por,
    sink_gate,
    strict_lift,
    strict_lift_table,
    swap_gate,
    table_gate,
    xor_gate,
)
from .circuit import (
    Circuit,
    LoopWire,
    SrcIn,
    SrcLoop,
    SrcNode,
    UnitDelay,
    VarDelay,
    compose,
    delay_free_cycle,
    dump_json,
    from_gate,
    identity_circuit,
    is_contractive,
    check_valid,
    tensor,
    to_json,
    trace_loop,
    validate,
)
from .comb import Propagator, denote
from .engine import (
    PrefixTrace,
    SimState,
    bot_trace,
    initial_state,
    random_trace,
    simulate,
    step,
)
from .analysis import (
    EquivReport,
    TotalityReport,
    check_equiv,
    check_totality,
    totality_guarantee,
)
from .laws import (
    LawConfig,
    count_monotone,
    enumerate_monotone,
    random_monotone,
    run_laws,
)
from .netlist import NetlistError, parse_netlist, print_netlist
from .streams import StreamFormatError, read_stream, write_stream

__version__ = "0.1.0"

_LAZY = (
    "GenConfig",
    "random_circuit",
    "random_contractive_circuit",
    "random_delay_free_circuit",
)


def __getattr__(name: str):
    """The names of ``random_circuits``, imported on first use (PEP 562)."""
    if name in _LAZY:
        from . import random_circuits

        return getattr(random_circuits, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
