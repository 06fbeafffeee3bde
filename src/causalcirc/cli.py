"""Command line front end.

Subcommands: check (parse and validate), sim (run a netlist over a stream),
laws (equational sweeps), equiv (compare two netlists), totality (bounded
totality check).  Exit codes: 0 success, 1 a checked property failed and a
witness was printed, 2 usage, parse, format, or file errors, 141 stdout was
closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, laws
from .circuit import (
    UnitDelay,
    VarDelay,
    delay_free_cycle,
    dump_json,
    in_port_names,
    is_contractive,
    out_port_names,
)
from .domain import BOT, CapError, DivergenceError, SignatureError
from .engine import PrefixTrace, simulate
from .netlist import NetlistError, parse_netlist, print_netlist
from .streams import StreamFormatError, read_stream, write_stream


class _Usage(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _Usage(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise _Usage(f"cannot read {path}: not UTF-8 text ({e.reason} "
                     f"at byte {e.start})") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise _Usage(f"cannot write {path}: {e.strerror or e}") from None


def _load_circuit(path: str):
    text = _read_text(path)
    try:
        return parse_netlist(text)
    except NetlistError as e:
        raise _Usage(f"{path}:\n{e}") from None


def _read_input_trace(args, c) -> PrefixTrace:
    """The --in stream, read and checked whatever the circuit's inputs, or
    none for a circuit without inputs, padded with undefined rows up to
    --ticks when --pad-bot allows it."""
    ticks, n, rows = args.ticks, len(c.in_ports), ()
    if n and args.input is None and not args.pad_bot:
        raise _Usage(
            "the circuit has input ports; provide --in FILE or --pad-bot"
        )
    if args.input is not None:
        text = _read_text(args.input)
        try:
            rows = read_stream(text, c.in_ports, in_port_names(c)).rows
        except StreamFormatError as e:
            raise _Usage(f"{args.input}: {e}") from None
        if len(rows) < ticks and not args.pad_bot:
            raise _Usage(
                f"stream has {len(rows)} ticks, {ticks} requested; "
                "use --pad-bot to extend with undefined rows"
            )
    return PrefixTrace(c.in_ports, rows + ((BOT,) * n,) * (ticks - len(rows)))


def cmd_check(args) -> int:
    c = _load_circuit(args.file)
    if args.json:
        print(dump_json(c))
        return 0
    n_delays = sum(1 for n in c.nodes if isinstance(n, (UnitDelay, VarDelay)))
    print(f"ok: {len(c.in_ports)} in, {len(c.out_ports)} out, "
          f"{len(c.nodes)} nodes ({n_delays} delays), {len(c.loops)} feedback wires")
    cyc = delay_free_cycle(c)
    if cyc is None:
        print("contractive: every cycle crosses a history-reading delay")
    else:
        print("not contractive: " + " -> ".join(cyc))
    if analysis.totality_guarantee(c):
        print("totality guaranteed: concrete inputs stay concrete")
    return 0


def cmd_sim(args) -> int:
    c = _load_circuit(args.file)
    tr = _read_input_trace(args, c)
    try:
        out = simulate(c, tr, args.ticks)
    except DivergenceError as e:
        raise _Usage(str(e)) from None
    text = write_stream(out, out_port_names(c))
    if args.out is not None:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_canon(args) -> int:
    c = _load_circuit(args.file)
    sys.stdout.write(print_netlist(c))
    return 0


def cmd_laws(args) -> int:
    try:
        cfg = laws.LawConfig(
            budget=args.budget,
            pair_budget=args.cap,
            samples=args.samples,
            seed=args.seed,
        )
    except ValueError as e:
        raise _Usage(str(e)) from None
    try:
        results = laws.run_laws(cfg)
    except CapError as e:
        raise _Usage(f"{e}; pass a larger --budget") from None
    except RuntimeError as e:  # a law worker that died, say
        raise _Usage(str(e)) from None
    failed = next((r for r in results if not r.passed), None)
    if args.json:
        print(json.dumps([r.to_json() for r in results], indent=2))
        return 0 if failed is None else 1
    for res in results:
        mark = "ok" if res.passed else "FAIL"
        modes = sorted({cr.mode for cr in res.combos})
        print(
            f"{res.law:<18} {len(res.combos):>3} combos "
            f"{res.cases:>8} cases  [{', '.join(modes)}]  {mark}"
        )
    if failed is not None:
        print(f"counterexample: {failed.first_counterexample()}")
        return 1
    print("all laws hold")
    return 0


def _bounded_check(args, check, *circuits):
    """Run ``check`` on ``circuits``, random with ``--samples N``, else
    exhaustive; a space over the cap or a bad bound is a usage error."""
    strategy = ({"strategy": "exhaustive"} if args.samples is None
                else {"strategy": "random", "samples": args.samples})
    try:
        return check(*circuits, args.horizon, seed=args.seed, **strategy)
    except CapError as e:
        raise _Usage(f"{e.args[0]}; pass --samples N") from None
    except ValueError as e:
        raise _Usage(str(e)) from None


def _print_input_trace(c, w) -> None:
    """The input trace of witness ``w`` of ``c``, if ``c`` has inputs."""
    if len(c.in_ports):
        print("input trace:")
        sys.stdout.write(write_stream(w.inputs, in_port_names(c)))


def cmd_equiv(args) -> int:
    c1 = _load_circuit(args.file1)
    c2 = _load_circuit(args.file2)
    rep = _bounded_check(args, analysis.check_equiv, c1, c2)
    if args.json:
        print(json.dumps(rep.to_json(), indent=2))
        return 0 if rep.equivalent else 1
    if rep.equivalent:
        print(
            f"Equivalent up to horizon {rep.horizon} "
            f"({rep.cases} traces, {rep.strategy})"
        )
        return 0
    w = rep.witness
    print(f"NotEquivalent: outputs differ at tick {w.tick}, port {w.port}:")
    print(f"  left  {rep.left}")
    print(f"  right {rep.right}")
    _print_input_trace(c1, w)
    return 1


def cmd_totality(args) -> int:
    c = _load_circuit(args.file)
    rep = _bounded_check(args, analysis.check_totality, c)
    if args.json:
        out = rep.to_json()
        out["guaranteed"] = analysis.totality_guarantee(c)
        print(json.dumps(out, indent=2))
        return 0 if rep.total else 1
    if rep.total:
        print(
            f"Total up to horizon {rep.horizon} "
            f"({rep.cases} traces, {rep.strategy})"
        )
        if analysis.totality_guarantee(c):
            print("also guaranteed statically")
        return 0
    w = rep.witness
    print(f"NotTotal: undefined output at tick {w.tick}, port {w.port}")
    _print_input_trace(c, w)
    if not is_contractive(c):
        print("note: the circuit is not contractive")
    return 1


def _bounded_options(p: argparse.ArgumentParser) -> None:
    """The options of equiv and totality, read by ``_bounded_check``."""
    p.add_argument("--horizon", type=int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exhaustive", action="store_true",
                   help="enumerate every input trace (the default)")
    g.add_argument("--samples", type=int, help="random strategy with N traces")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="causalcirc",
        description="Simulate and check circuits with explicit feedback.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse, validate, and describe a netlist")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="print the IR dump")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("sim", help="simulate a netlist over a stream file")
    p.add_argument("file")
    p.add_argument("--ticks", type=int, required=True)
    p.add_argument("--in", dest="input", metavar="FILE", help="input stream")
    p.add_argument("--out", metavar="FILE", help="write outputs here")
    p.add_argument(
        "--pad-bot",
        action="store_true",
        help="extend missing input rows with undefined cells",
    )
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("canon", help="print a netlist in canonical form")
    p.add_argument("file")
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("laws", help="sweep the fixed-point and trace laws")
    cfg = laws.LawConfig  # its field defaults are the flags' defaults
    p.add_argument("--budget", type=int, default=cfg.budget,
                   help="steps allowed for building one function space")
    p.add_argument("--cap", type=int, default=cfg.pair_budget,
                   help="largest space (or product of two) swept exhaustively; "
                   "larger combos are sampled uniformly")
    p.add_argument("--samples", type=int, default=cfg.samples)
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("equiv", help="compare two netlists over all traces")
    p.add_argument("file1")
    p.add_argument("file2")
    _bounded_options(p)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("totality", help="check bottom-free inputs stay bottom-free")
    p.add_argument("file")
    _bounded_options(p)
    p.set_defaults(fn=cmd_totality)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (_Usage, SignatureError, StreamFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away, as in `causalcirc laws --json | head`.
        # Output still buffered goes to devnull, so that the flush at exit
        # does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, what a shell reports for a closed pipe
    sys.exit(code)
