"""Netlist text format: tokenizer, parser, and canonical printer.

A file declares base types and table gates, then a single circuit block.
Wires are named values: inputs and outputs are declared ports, internal
wires are bound by assignment, and a wire must be defined before it is read
with one exception: a declared ``loop`` wire may be read anywhere and closed
by a later assignment.  That makes every feedback path explicit in the
source text, mirroring the IR.

``print_netlist`` emits a canonical form: sorted type and gate declarations,
one flat statement per node in index order, generated names for nodes and
feedback wires.  Parsing a printed circuit reproduces the IR exactly, and
printing is byte-deterministic.

Syntax errors abort at the first offense; semantic errors inside statements
are collected so one parse reports several, each with a line and column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    Circuit,
    LoopWire,
    SrcIn,
    SrcNode,
    SrcLoop,
    UnitDelay,
    VarDelay,
    check_valid,
    in_port_names,
    node_out_sig,
    out_port_names,
    validate,
)
from .domain import (
    BOOL,
    BOT,
    BaseType,
    LValue,
    Signature,
    SignatureError,
    int_range,
    is_int_range,
    sig,
)
from .gates import (
    GateDef,
    KIND_STRICT,
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
    strict_lift_table,
    swap_gate,
    table_gate,
    xor_gate,
)


class NetlistError(Exception):
    """Parse or build failure, with one or more positioned diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__(
            "\n".join(f"line {l}, col {c}: {m}" for l, c, m in self.diagnostics)
        )


class _Sem(Exception):
    """Internal: a semantic error tied to one token."""

    def __init__(self, tok, msg):
        self.pos = (tok.line, tok.col, msg)
        super().__init__(msg)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = set("(){}[],:=")

KEYWORDS = {
    "type", "gate", "circuit", "strict", "in", "out", "loop", "int",
    "delay", "vardelay", "init", "min", "max", "bot",
}

BUILTIN_GATES = {
    "not", "and", "or", "xor", "nand", "nor", "mux", "por", "pand",
    "add", "eq", "lt", "id", "dup", "sink", "swap", "const",
}

RESERVED = KEYWORDS | BUILTIN_GATES


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            toks.append(Token("->", "->", line, start_col))
            i += 2
            col += 2
            continue
        if ch == ".":
            if i + 1 < n and text[i + 1] == ".":
                toks.append(Token("..", "..", line, start_col))
                i += 2
                col += 2
                continue
            raise NetlistError([(line, col, "stray '.'")])
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "BOT" if word == "bot" else "IDENT"
            toks.append(Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise NetlistError([(line, col, f"unexpected character {ch!r}")])
    toks.append(Token("EOF", "", line, col))
    return toks


def _run(step):
    """Drive a build generator and every step it yields.

    The open steps are kept on an explicit stack, so nesting depth is
    limited by memory only; the steps run in the order recursion would run
    them.  An exception leaves the remaining steps unfinished.
    """
    stack = [step]
    value = None
    while stack:
        try:
            nested = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(nested)
            value = None
    return value


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.types: dict[str, BaseType] = {"bool": BOOL}
        self.gates: dict[str, GateDef] = {}
        self.errors: list[tuple[int, int, str]] = []
        # Circuit under construction.
        self.in_ports: list[BaseType] = []
        self.in_names: list[str] = []
        self.out_ports: list[BaseType] = []
        self.out_names: list[str] = []
        self.out_srcs: dict[int, object] = {}
        self.loops: list[BaseType] = []
        self.loop_names: dict[str, int] = {}
        self.loop_srcs: dict[int, object] = {}
        self.loop_toks: list[Token] = []
        self.nodes: list = []
        self.node_inputs: list[tuple] = []
        self.env: dict[str, tuple[object, BaseType]] = {}

    # -- token plumbing --------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = repr(tok.text) if tok.kind != "EOF" else "end of file"
            raise NetlistError(
                [(tok.line, tok.col, f"expected {what or kind}, found {shown}")]
            )
        return self.advance()

    def keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise NetlistError(
                [(tok.line, tok.col, f"expected {word!r}, found {tok.text!r}")]
            )
        return self.advance()

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    # -- names and types -------------------------------------------------

    def fresh_name(self, tok: Token, what: str) -> str:
        name = tok.text
        if name in RESERVED:
            raise _Sem(tok, f"{name!r} is reserved and cannot name a {what}")
        if name in self.env or name in self.loop_names or name in self.out_names:
            raise _Sem(tok, f"{name!r} is already in use")
        return name

    def typeref(self) -> BaseType:
        tok = self.expect("IDENT", "a type name")
        base = self.types.get(tok.text)
        if base is None:
            raise _Sem(tok, f"unknown type {tok.text!r}")
        return base

    def cell_value(self, base: BaseType, allow_bot: bool) -> LValue:
        """A literal cell: an integer, an enum atom, or `bot`."""
        tok = self.peek()
        if tok.kind == "BOT":
            self.advance()
            if not allow_bot:
                raise _Sem(tok, "'bot' is not allowed here")
            return BOT
        if tok.kind == "INT":
            self.advance()
            v = int(tok.text)
            if v not in base.values:
                raise _Sem(tok, f"{v} is not a value of type {base.name!r}")
            return v
        if tok.kind == "IDENT":
            self.advance()
            if tok.text not in base.values:
                raise _Sem(tok, f"{tok.text!r} is not a value of type {base.name!r}")
            return tok.text
        raise NetlistError(
            [(tok.line, tok.col, f"expected a value, found {tok.text!r}")]
        )

    # -- top level -------------------------------------------------------

    def parse_file(self) -> Circuit:
        circuit = None
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if self.at_word("type"):
                self.type_decl()
            elif self.at_word("gate"):
                self.gate_decl()
            elif self.at_word("circuit"):
                if circuit is not None:
                    raise NetlistError(
                        [(tok.line, tok.col, "only one circuit per file")]
                    )
                circuit = self.circuit_decl()
            else:
                raise NetlistError(
                    [
                        (
                            tok.line,
                            tok.col,
                            f"expected type, gate, or circuit, found {tok.text!r}",
                        )
                    ]
                )
        if self.errors:
            raise NetlistError(self.errors)
        if circuit is None:
            last = self.peek()
            raise NetlistError([(last.line, last.col, "no circuit block in file")])
        return circuit

    def type_decl(self) -> None:
        self.keyword("type")
        name_tok = self.expect("IDENT", "a type name")
        self.expect("=")
        try:
            name = name_tok.text
            if name in RESERVED or name == "bool":
                raise _Sem(name_tok, f"cannot redeclare type {name!r}")
            if name in self.types:
                raise _Sem(name_tok, f"type {name!r} is already declared")
            if self.at_word("int"):
                self.advance()
                lo_tok = self.expect("INT", "a lower bound")
                self.expect("..")
                hi_tok = self.expect("INT", "an upper bound")
                lo, hi = int(lo_tok.text), int(hi_tok.text)
                if lo > hi:
                    raise _Sem(lo_tok, f"empty range {lo}..{hi}")
                self.types[name] = BaseType(name, tuple(range(lo, hi + 1)))
                return
            self.expect("{", "'int' or '{'")
            atoms: list = []
            while True:
                tok = self.peek()
                if tok.kind == "INT":
                    self.advance()
                    atoms.append(int(tok.text))
                elif tok.kind == "IDENT":
                    self.advance()
                    atoms.append(tok.text)
                else:
                    raise NetlistError(
                        [(tok.line, tok.col, f"expected a value, found {tok.text!r}")]
                    )
                if self.peek().kind == ",":
                    self.advance()
                    continue
                break
            self.expect("}")
            if len(set(atoms)) != len(atoms):
                raise _Sem(name_tok, f"type {name!r} repeats a value")
            self.types[name] = BaseType(name, tuple(atoms))
        except _Sem as e:
            self.errors.append(e.pos)

    def gate_decl(self) -> None:
        self.keyword("gate")
        name_tok = self.expect("IDENT", "a gate name")
        self.expect("(")
        params: list[tuple[Token, BaseType | None]] = []
        if self.peek().kind != ")":
            while True:
                p_tok = self.expect("IDENT", "a parameter name")
                self.expect(":")
                try:
                    base = self.typeref()
                except _Sem as e:
                    self.errors.append(e.pos)
                    base = None
                params.append((p_tok, base))
                if self.peek().kind == ",":
                    self.advance()
                    continue
                break
        self.expect(")")
        self.expect("->")
        self.expect("(")
        outs: list[BaseType | None] = []
        if self.peek().kind != ")":
            while True:
                try:
                    outs.append(self.typeref())
                except _Sem as e:
                    self.errors.append(e.pos)
                    outs.append(None)
                if self.peek().kind == ",":
                    self.advance()
                    continue
                break
        self.expect(")")
        strict = False
        if self.at_word("strict"):
            self.advance()
            strict = True
        self.expect("{")
        dom_ok = all(b is not None for _, b in params) and all(
            b is not None for b in outs
        )
        dom = Signature(tuple(b for _, b in params)) if dom_ok else None
        cod = Signature(tuple(outs)) if dom_ok else None
        rows: dict = {}
        row_errors = False
        while self.peek().kind == "(":
            row_tok = self.advance()
            try:
                ins = self.row_cells(dom, ")", allow_bot=not strict)
                self.expect(")")
                self.expect("->")
                self.expect("(")
                outs_row = self.row_cells(cod, ")", allow_bot=not strict)
                self.expect(")")
                if dom_ok:
                    if ins in rows:
                        raise _Sem(row_tok, "row repeated")
                    rows[ins] = outs_row
            except _Sem as e:
                self.errors.append(e.pos)
                row_errors = True
                self.skip_to_row_end()
        self.expect("}")
        try:
            name = self.fresh_gate_name(name_tok)
            if not dom_ok or row_errors:
                return
            seen = set()
            for p_tok, _ in params:
                if p_tok.text in seen:
                    raise _Sem(p_tok, f"parameter {p_tok.text!r} repeated")
                seen.add(p_tok.text)
            builder = strict_lift_table if strict else table_gate
            try:
                self.gates[name] = builder(name, dom, cod, rows)
            except SignatureError as e:
                raise _Sem(name_tok, str(e)) from None
        except _Sem as e:
            self.errors.append(e.pos)

    def fresh_gate_name(self, tok: Token) -> str:
        name = tok.text
        if name in RESERVED:
            raise _Sem(tok, f"{name!r} is a builtin name")
        if name in self.gates:
            raise _Sem(tok, f"gate {name!r} is already declared")
        return name

    def row_cells(self, s: Signature | None, closer: str, allow_bot: bool):
        cells = []
        if self.peek().kind != closer:
            while True:
                if s is not None and len(cells) < len(s):
                    cells.append(self.cell_value(s[len(cells)], allow_bot))
                else:
                    tok = self.advance()  # skip; arity error reported below
                    cells.append(None)
                if self.peek().kind == ",":
                    self.advance()
                    continue
                break
        if s is not None and len(cells) != len(s):
            tok = self.peek()
            raise _Sem(tok, f"row has {len(cells)} cells, gate needs {len(s)}")
        return tuple(cells)

    def skip_to_row_end(self) -> None:
        # Recover after a bad row: drop tokens to the closing paren of the
        # output tuple or the end of the gate body.
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "EOF" or (depth == 0 and tok.kind == "}"):
                return
            if tok.kind == "(":
                depth += 1
            elif tok.kind == ")":
                if depth == 0:
                    return
                depth -= 1
            self.advance()
            if depth == 0 and tok.kind == ")" and self.peek().kind != "->":
                return

    # -- circuit body ----------------------------------------------------

    def circuit_decl(self) -> Circuit:
        self.keyword("circuit")
        name_tok = self.expect("IDENT", "a circuit name")
        self.expect("{")
        while self.peek().kind != "}":
            tok = self.peek()
            if tok.kind == "EOF":
                self.expect("}")
            try:
                self.statement()
            except _Sem as e:
                self.errors.append(e.pos)
        self.expect("}")
        for j, t in enumerate(self.loop_toks):
            if j not in self.loop_srcs:
                self.errors.append(
                    (t.line, t.col, f"feedback wire {t.text!r} is never closed")
                )
        for i, name in enumerate(self.out_names):
            if i not in self.out_srcs:
                self.errors.append(
                    (
                        name_tok.line,
                        name_tok.col,
                        f"output {name!r} is never assigned",
                    )
                )
        if self.errors:
            raise NetlistError(self.errors)
        c = Circuit(
            in_ports=Signature(tuple(self.in_ports)),
            out_ports=Signature(tuple(self.out_ports)),
            nodes=tuple(self.nodes),
            node_inputs=tuple(self.node_inputs),
            outputs=tuple(self.out_srcs[i] for i in range(len(self.out_ports))),
            loops=tuple(
                LoopWire(b, self.loop_srcs[j]) for j, b in enumerate(self.loops)
            ),
            in_names=tuple(self.in_names),
            out_names=tuple(self.out_names),
        )
        diags = validate(c)
        if diags:
            raise NetlistError(
                [(name_tok.line, name_tok.col, str(d)) for d in diags]
            )
        return c

    def statement(self) -> None:
        if self.at_word("in") and self.peek(1).kind == "IDENT" and self.peek(2).kind == ":":
            self.advance()
            for name_tok, base in self.port_list():
                name = self.fresh_name(name_tok, "port")
                self.env[name] = (SrcIn(len(self.in_ports)), base)
                self.in_ports.append(base)
                self.in_names.append(name)
            return
        if self.at_word("out") and self.peek(1).kind == "IDENT" and self.peek(2).kind == ":":
            self.advance()
            for name_tok, base in self.port_list():
                name = self.fresh_name(name_tok, "port")
                self.out_ports.append(base)
                self.out_names.append(name)
            return
        if self.at_word("loop") and self.peek(1).kind == "IDENT" and self.peek(2).kind == ":":
            self.advance()
            name_tok = self.expect("IDENT", "a wire name")
            self.expect(":")
            base = self.typeref()
            name = self.fresh_name(name_tok, "feedback wire")
            self.loop_names[name] = len(self.loops)
            self.loops.append(base)
            self.loop_toks.append(name_tok)
            return
        tok = self.peek()
        if tok.kind == "(":
            self.tuple_assignment()
            return
        if tok.kind == "IDENT":
            if self.peek(1).kind == "=":
                self.assignment()
                return
            if self.peek(1).kind in ("(", "["):
                ast = self.expr_ast()
                _run(self.build_call(ast))
                return
        raise NetlistError(
            [(tok.line, tok.col, f"expected a statement, found {tok.text!r}")]
        )

    def port_list(self) -> list[tuple[Token, BaseType]]:
        out = []
        while True:
            name_tok = self.expect("IDENT", "a port name")
            self.expect(":")
            base = self.typeref()
            out.append((name_tok, base))
            if self.peek().kind == "," :
                self.advance()
                continue
            break
        return out

    def assignment(self) -> None:
        name_tok = self.advance()
        self.expect("=")
        ast = self.expr_ast()
        self.bind(name_tok, ast)

    def tuple_assignment(self) -> None:
        self.expect("(")
        name_toks = [self.expect("IDENT", "a wire name")]
        while self.peek().kind == ",":
            self.advance()
            name_toks.append(self.expect("IDENT", "a wire name"))
        self.expect(")")
        self.expect("=")
        ast = self.expr_ast()
        if ast[0] != "call":
            tok = name_toks[0]
            raise _Sem(tok, "tuple assignment needs a gate call on the right")
        idx, out_sig = _run(self.build_call(ast))
        if len(out_sig) != len(name_toks):
            raise _Sem(
                name_toks[0],
                f"{len(name_toks)} names for {len(out_sig)} outputs",
            )
        for p, tok in enumerate(name_toks):
            self.bind_source(tok, SrcNode(idx, p), out_sig[p])

    def bind(self, name_tok: Token, ast) -> None:
        name = name_tok.text
        if name in self.loop_names:
            j = self.loop_names[name]
            if j in self.loop_srcs:
                raise _Sem(name_tok, f"feedback wire {name!r} is closed twice")
            src, base = _run(self.build_expr(ast, self.loops[j]))
            if base != self.loops[j]:
                raise _Sem(
                    name_tok,
                    f"feedback wire {name!r} is {self.loops[j].name}, "
                    f"got {base.name}",
                )
            self.loop_srcs[j] = src
            return
        if name in self.out_names:
            i = self.out_names.index(name)
            if i in self.out_srcs:
                raise _Sem(name_tok, f"output {name!r} is assigned twice")
            src, base = _run(self.build_expr(ast, self.out_ports[i]))
            if base != self.out_ports[i]:
                raise _Sem(
                    name_tok,
                    f"output {name!r} is {self.out_ports[i].name}, got {base.name}",
                )
            self.out_srcs[i] = src
            self.env[name] = (src, base)
            return
        fresh = self.fresh_name(name_tok, "wire")
        self.env[fresh] = _run(self.build_expr(ast, None))

    def bind_source(self, name_tok: Token, src, base: BaseType) -> None:
        name = name_tok.text
        if name in self.loop_names:
            j = self.loop_names[name]
            if j in self.loop_srcs:
                raise _Sem(name_tok, f"feedback wire {name!r} is closed twice")
            if base != self.loops[j]:
                raise _Sem(name_tok, f"feedback wire {name!r} type mismatch")
            self.loop_srcs[j] = src
            return
        if name in self.out_names:
            i = self.out_names.index(name)
            if i in self.out_srcs:
                raise _Sem(name_tok, f"output {name!r} is assigned twice")
            if base != self.out_ports[i]:
                raise _Sem(name_tok, f"output {name!r} type mismatch")
            self.out_srcs[i] = src
            self.env[name] = (src, base)
            return
        fresh = self.fresh_name(name_tok, "wire")
        self.env[fresh] = (src, base)

    # -- expressions -----------------------------------------------------
    # AST shapes: ("call", name_tok, ann_tok | None, [arg asts], {kw: tok-or-ast})
    #             ("ref", tok)   wire or enum atom, decided at build time
    #             ("lit", tok)   INT or bot
    #
    # Expressions nest without bound, so parsing and building them must not
    # recurse in Python.  expr_ast keeps its open calls on a stack.
    # build_expr, build_call, build_delay and build_vardelay are generators
    # that yield each nested expression to be built, and ``_run`` sends
    # back its source; one expression's own steps chain by ``yield from``.
    # Leaves, the bulk of every netlist, are built by plain calls.

    def expr_ast(self):
        """One expression.  Calls whose arguments are still being read wait
        on an explicit stack, innermost last."""
        open_calls: list[tuple] = []
        while True:
            if self.peek().kind == "IDENT" and self.peek(1).kind in ("(", "["):
                call = self.call_head()
                if self.call_args(call[4], first=True):
                    open_calls.append(call)
                    continue
                ast = call
            else:
                ast = self.leaf_ast()
            # ast is complete: it is the next argument of the innermost open call
            while open_calls:
                call = open_calls[-1]
                call[3].append(ast)
                if self.call_args(call[4], first=False):
                    break
                ast = open_calls.pop()
            else:
                return ast

    def leaf_ast(self):
        tok = self.peek()
        if tok.kind in ("INT", "BOT"):
            self.advance()
            return ("lit", tok)
        if tok.kind == "IDENT":
            self.advance()
            return ("ref", tok)
        raise NetlistError(
            [(tok.line, tok.col, f"expected an expression, found {tok.text!r}")]
        )

    def call_head(self):
        """A call up to its "(", with its argument list and keywords empty."""
        name_tok = self.advance()
        ann_tok = None
        if self.peek().kind == "[":
            self.advance()
            ann_tok = self.expect("IDENT", "a type name")
            self.expect("]")
        self.expect("(")
        return ("call", name_tok, ann_tok, [], {})

    def call_args(self, kwargs: dict, first: bool) -> bool:
        """Read a call's arguments up to its next positional one.

        ``first`` is set at the start of the list, and clear after an
        argument.  Keyword arguments met on the way go into ``kwargs``.
        True when a positional argument follows; False once the closing
        parenthesis is read.
        """
        if first and self.peek().kind == ")":
            self.advance()
            return False
        while True:
            if not first:
                if self.peek().kind != ",":
                    self.expect(")")
                    return False
                self.advance()
            first = False
            if self.peek().kind != "IDENT" or self.peek(1).kind != "=":
                return True
            kw_tok = self.advance()
            self.advance()
            val_tok = self.peek()
            if val_tok.kind not in ("INT", "BOT", "IDENT"):
                raise NetlistError(
                    [
                        (
                            val_tok.line,
                            val_tok.col,
                            f"expected a value, found {val_tok.text!r}",
                        )
                    ]
                )
            self.advance()
            if kw_tok.text in kwargs:
                raise _Sem(kw_tok, f"argument {kw_tok.text!r} repeated")
            kwargs[kw_tok.text] = val_tok

    def build_expr(self, ast, expected: BaseType | None):
        if ast[0] == "call":
            idx, out_sig = yield from self.build_call(ast)
            if len(out_sig) != 1:
                raise _Sem(
                    ast[1],
                    f"{ast[1].text!r} has {len(out_sig)} outputs; "
                    "use tuple assignment",
                )
            return (SrcNode(idx, 0), out_sig[0])
        return self.build_leaf(ast, expected)

    def build_leaf(self, ast, expected: BaseType | None):
        if ast[0] == "ref":
            tok = ast[1]
            hit = self.lookup(tok.text)
            if hit is not None:
                return hit
            if expected is not None and tok.text in expected.values:
                return self.literal_source(tok.text, expected)
            raise _Sem(
                tok,
                f"unknown wire {tok.text!r} (forward references need a loop wire)",
            )
        tok = ast[1]
        if expected is None:
            raise _Sem(
                tok, "cannot infer the type of a bare literal; use const[type](...)"
            )
        if tok.kind == "BOT":
            return self.literal_source(BOT, expected)
        v = int(tok.text)
        if v not in expected.values:
            raise _Sem(tok, f"{v} is not a value of type {expected.name!r}")
        return self.literal_source(v, expected)

    def lookup(self, name: str):
        if name in self.env:
            return self.env[name]
        if name in self.loop_names:
            j = self.loop_names[name]
            return (SrcLoop(j), self.loops[j])
        return None

    def literal_source(self, value, base: BaseType):
        self.nodes.append(const_gate(base, value))
        self.node_inputs.append(())
        return (SrcNode(len(self.nodes) - 1, 0), base)

    # -- calls -----------------------------------------------------------

    def build_call(self, ast):
        _, name_tok, ann_tok, args, kwargs = ast
        name = name_tok.text
        ann = None
        if ann_tok is not None:
            ann = self.types.get(ann_tok.text)
            if ann is None:
                raise _Sem(ann_tok, f"unknown type {ann_tok.text!r}")
        if name == "delay":
            return (yield from self.build_delay(name_tok, args, kwargs))
        if name == "vardelay":
            return (yield from self.build_vardelay(name_tok, args, kwargs))
        if name == "const":
            return self.build_const(name_tok, ann, args, kwargs)
        if kwargs:
            kw = next(iter(kwargs))
            raise _Sem(name_tok, f"{name!r} takes no {kw!r} argument")
        # Build wire arguments now, left to right; literals wait for the
        # gate's signature.
        built: list = []
        for a in args:
            if a[0] == "call":
                built.append((yield self.build_expr(a, None)))
            else:  # None for a literal or an atom
                built.append(self.lookup(a[1].text) if a[0] == "ref" else None)
        gate = self.resolve_gate(name_tok, ann, args, built)
        if len(args) != len(gate.dom):
            raise _Sem(
                name_tok,
                f"{name!r} takes {len(gate.dom)} arguments, got {len(args)}",
            )
        srcs = []
        for i, (a, b) in enumerate(zip(args, built)):
            want = gate.dom[i]
            if b is None:
                srcs.append(self.build_leaf(a, want)[0])
            else:
                src, got = b
                if got != want:
                    raise _Sem(
                        name_tok,
                        f"argument {i} of {name!r} needs {want.name}, "
                        f"got {got.name}",
                    )
                srcs.append(src)
        self.nodes.append(gate)
        self.node_inputs.append(tuple(srcs))
        return (len(self.nodes) - 1, gate.cod)

    def resolve_gate(self, name_tok: Token, ann, args, built) -> GateDef:
        name = name_tok.text
        if name in self.gates:
            return self.gates[name]

        def arg_type(i: int) -> BaseType | None:
            if 0 <= i < len(built) and built[i] is not None:
                return built[i][1]
            return None

        def infer(*slots: int) -> BaseType:
            for i in slots:
                t = arg_type(i)
                if t is not None:
                    return t
            if ann is not None:
                return ann
            raise _Sem(
                name_tok,
                f"cannot infer the type of {name!r}; annotate as {name}[type](...)",
            )

        fixed = {
            "not": not_gate, "and": and_gate, "or": or_gate, "xor": xor_gate,
            "nand": nand_gate, "nor": nor_gate, "por": por, "pand": pand,
        }
        if name in fixed:
            return fixed[name]()
        if name == "mux":
            return mux_gate(infer(1, 2))
        if name == "add":
            base = infer(0, 1)
            try:
                return add_gate(base)
            except SignatureError as e:
                raise _Sem(name_tok, str(e)) from None
        if name == "eq":
            return eq_gate(infer(0, 1))
        if name == "lt":
            base = infer(0, 1)
            try:
                return lt_gate(base)
            except SignatureError as e:
                raise _Sem(name_tok, str(e)) from None
        if name == "id":
            return identity_gate(infer(0))
        if name == "dup":
            return dup_gate(infer(0))
        if name == "sink":
            return sink_gate(infer(0))
        if name == "swap":
            t1 = arg_type(0) or ann
            t2 = arg_type(1) or ann
            if t1 is None or t2 is None:
                raise _Sem(name_tok, "cannot infer the types of 'swap'")
            return swap_gate(t1, t2)
        raise _Sem(name_tok, f"unknown gate {name!r}")

    def build_const(self, name_tok: Token, ann, args, kwargs):
        if kwargs:
            kw = next(iter(kwargs))
            raise _Sem(name_tok, f"const takes no {kw!r} argument")
        if ann is None:
            raise _Sem(name_tok, "const needs a type: const[type](value)")
        if len(args) != 1 or args[0][0] == "call":
            raise _Sem(name_tok, "const takes exactly one literal value")
        tok = args[0][1]
        if tok.kind == "INT":
            v: LValue = int(tok.text)
        elif tok.kind == "BOT":
            v = BOT
        else:
            v = tok.text
        if v is not BOT and v not in ann.values:
            raise _Sem(tok, f"{v!r} is not a value of type {ann.name!r}")
        gate = const_gate(ann, v)
        self.nodes.append(gate)
        self.node_inputs.append(())
        return (len(self.nodes) - 1, gate.cod)

    def kw_value(self, kwargs, key: str, base: BaseType, default: LValue):
        tok = kwargs.get(key)
        if tok is None:
            return default
        if tok.kind == "BOT":
            return BOT
        if tok.kind == "INT":
            v = int(tok.text)
        else:
            v = tok.text
        if v not in base.values:
            raise _Sem(tok, f"{v!r} is not a value of type {base.name!r}")
        return v

    def kw_int(self, name_tok: Token, kwargs, key: str) -> int:
        tok = kwargs.get(key)
        if tok is None:
            raise _Sem(name_tok, f"vardelay needs {key}=...")
        if tok.kind != "INT":
            raise _Sem(tok, f"{key} must be an integer")
        return int(tok.text)

    def build_delay(self, name_tok: Token, args, kwargs):
        extra = set(kwargs) - {"init"}
        if extra:
            raise _Sem(name_tok, f"delay takes no {sorted(extra)[0]!r} argument")
        if len(args) != 1:
            raise _Sem(name_tok, "delay takes one wire argument")
        src, base = yield self.build_expr(args[0], None)
        init = self.kw_value(kwargs, "init", base, BOT)
        self.nodes.append(UnitDelay(base, init))
        self.node_inputs.append((src,))
        return (len(self.nodes) - 1, sig(base))

    def build_vardelay(self, name_tok: Token, args, kwargs):
        extra = set(kwargs) - {"init", "min", "max"}
        if extra:
            raise _Sem(name_tok, f"vardelay takes no {sorted(extra)[0]!r} argument")
        if len(args) != 2:
            raise _Sem(name_tok, "vardelay takes a data wire and a delay wire")
        d_min = self.kw_int(name_tok, kwargs, "min")
        d_max = self.kw_int(name_tok, kwargs, "max")
        if not 0 <= d_min <= d_max:
            raise _Sem(name_tok, f"bad delay range {d_min}..{d_max}")
        src_s, base = yield self.build_expr(args[0], None)
        src_d, d_base = yield self.build_expr(args[1], int_range(d_min, d_max))
        if d_base.values != tuple(range(d_min, d_max + 1)):
            raise _Sem(
                name_tok,
                f"the delay wire has type {d_base.name!r}; its values must be "
                f"exactly {d_min}..{d_max}",
            )
        init = self.kw_value(kwargs, "init", base, BOT)
        self.nodes.append(VarDelay(base, d_min, d_max, init, d_base))
        self.node_inputs.append((src_s, src_d))
        return (len(self.nodes) - 1, sig(base))


def parse_netlist(text: str) -> Circuit:
    """Parse one netlist file into a validated circuit."""
    p = _Parser(text)
    try:
        return p.parse_file()
    except NetlistError as e:
        extra = [d for d in p.errors if d not in e.diagnostics]
        if extra:
            raise NetlistError(extra + list(e.diagnostics)) from None
        raise


# ---------------------------------------------------------------------------
# Canonical printing.  Node and feedback wire names are regenerated (n0,
# n1_0, w0, ...); port names come from the IR.  Printing is a pure function
# of the IR, so printing, reparsing, and printing again is byte-identical.


def _cell_text(v: LValue) -> str:
    if v is BOT:
        return "bot"
    return str(v)


def _type_decl(base: BaseType) -> str:
    if is_int_range(base):
        return f"type {base.name} = int {base.values[0]}..{base.values[-1]}"
    return (
        f"type {base.name} = {{ "
        + ", ".join(str(v) for v in base.values)
        + " }"
    )


def _gate_decl(gate: GateDef) -> list[str]:
    params = ", ".join(
        f"p{i}: {b.name}" for i, b in enumerate(gate.dom.wires)
    )
    outs = ", ".join(b.name for b in gate.cod.wires)
    strict = gate.kind == KIND_STRICT
    head = f"gate {gate.name}({params}) -> ({outs})" + (" strict {" if strict else " {")
    lines = [head]
    if strict:
        rows = gate.concrete_table
        keys = list(gate.dom.concrete_tuples())
    else:
        rows = gate.fn.table
        keys = list(gate.dom.tuples())
    if rows is None:
        raise SignatureError(
            f"gate {gate.name!r} has no table and cannot be printed"
        )
    for k in keys:
        ins = ", ".join(_cell_text(v) for v in k)
        outs_row = ", ".join(_cell_text(v) for v in rows[k])
        lines.append(f"  ({ins}) -> ({outs_row})")
    lines.append("}")
    return lines


def _collect_types(c: Circuit) -> dict[str, BaseType]:
    found: dict[str, BaseType] = {}

    def add(b: BaseType) -> None:
        old = found.get(b.name)
        if old is not None and old != b:
            raise SignatureError(
                f"two base types share the name {b.name!r}; cannot print"
            )
        found[b.name] = b

    for b in c.in_ports:
        add(b)
    for b in c.out_ports:
        add(b)
    for lw in c.loops:
        add(lw.base)
    for node in c.nodes:
        if isinstance(node, UnitDelay):
            add(node.base)
        elif isinstance(node, VarDelay):
            add(node.base)
            add(node.d_base)
        else:
            for b in node.dom:
                add(b)
            for b in node.cod:
                add(b)
    return found


def _collect_user_gates(c: Circuit) -> dict[str, GateDef]:
    found: dict[str, GateDef] = {}
    for node in c.nodes:
        if isinstance(node, (UnitDelay, VarDelay)) or node.builtin:
            continue
        old = found.get(node.name)
        if old is not None and old != node:
            raise SignatureError(
                f"two gates share the name {node.name!r}; cannot print"
            )
        if node.name in RESERVED:
            raise SignatureError(
                f"gate name {node.name!r} collides with a builtin; cannot print"
            )
        found[node.name] = node
    return found


def print_netlist(c: Circuit) -> str:
    """Render a circuit in canonical netlist form."""
    check_valid(c)
    types = _collect_types(c)
    user_gates = _collect_user_gates(c)

    taken = set(in_port_names(c)) | set(out_port_names(c))

    def unique(name: str) -> str:
        while name in taken:
            name = "_" + name
        return name

    node_names: list[tuple[str, ...]] = []
    for i, node in enumerate(c.nodes):
        outs = node_out_sig(node)
        if len(outs) == 1:
            node_names.append((unique(f"n{i}"),))
        else:
            node_names.append(
                tuple(unique(f"n{i}_{p}") for p in range(len(outs)))
            )
    loop_names = [unique(f"w{j}") for j in range(len(c.loops))]

    def src_text(src) -> str:
        if isinstance(src, SrcIn):
            return in_port_names(c)[src.index]
        if isinstance(src, SrcLoop):
            return loop_names[src.index]
        return node_names[src.node][src.port]

    lines: list[str] = []
    for name in sorted(types):
        if types[name] == BOOL:
            continue
        lines.append(_type_decl(types[name]))
    if lines:
        lines.append("")
    for name in sorted(user_gates):
        lines.extend(_gate_decl(user_gates[name]))
        lines.append("")
    lines.append("circuit main {")
    if len(c.in_ports):
        ports = ", ".join(
            f"{nm}: {b.name}" for nm, b in zip(in_port_names(c), c.in_ports)
        )
        lines.append(f"  in {ports}")
    if len(c.out_ports):
        ports = ", ".join(
            f"{nm}: {b.name}" for nm, b in zip(out_port_names(c), c.out_ports)
        )
        lines.append(f"  out {ports}")
    for j, lw in enumerate(c.loops):
        lines.append(f"  loop {loop_names[j]}: {lw.base.name}")
    for i, (node, ins) in enumerate(zip(c.nodes, c.node_inputs)):
        args = ", ".join(src_text(s) for s in ins)
        if isinstance(node, UnitDelay):
            call = f"delay({args}, init={_cell_text(node.init)})"
        elif isinstance(node, VarDelay):
            call = (
                f"vardelay({args}, min={node.d_min}, max={node.d_max}, "
                f"init={_cell_text(node.init)})"
            )
        elif node.name == "const":
            base = node.cod[0]
            call = f"const[{base.name}]({_cell_text(node.fn.table[()][0])})"
        else:
            call = f"{node.name}({args})"
        outs = node_names[i]
        if len(outs) == 0:
            lines.append(f"  {call}")
        elif len(outs) == 1:
            lines.append(f"  {outs[0]} = {call}")
        else:
            lines.append(f"  ({', '.join(outs)}) = {call}")
    for j, lw in enumerate(c.loops):
        lines.append(f"  {loop_names[j]} = {src_text(lw.src)}")
    for slot, src in enumerate(c.outputs):
        lines.append(f"  {out_port_names(c)[slot]} = {src_text(src)}")
    lines.append("}")
    return "\n".join(lines) + "\n"
