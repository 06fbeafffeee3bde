"""Netlist text format: tokenizer, parser, and canonical printer.

A file declares base types and table gates, then a single circuit block.
Wires are named values: inputs and outputs are declared ports, internal
wires are bound by assignment, and a wire must be defined before it is read
with one exception: a declared ``loop`` wire may be read anywhere after its
declaration, even before the one assignment that closes it (before its
declaration it is an unknown wire).  That makes every feedback path
explicit in the source text, mirroring the IR.

``print_netlist`` emits a canonical form: sorted type and gate declarations,
one flat statement per node in index order, generated names for nodes and
feedback wires.  Printing is byte-deterministic, and parsing the printed
text reproduces the IR exactly when the circuit names its ports; one built
without names comes back named ``a0…``/``y0…``, with the same printed text
and ``to_json`` dump.  A circuit built in Python that holds a name, an atom
or a gate no netlist text reads back is refused with SignatureError instead.

Syntax errors abort at the first offense; semantic errors inside statements
are collected so one parse reports several, each with a line and column.
"""

from __future__ import annotations

import re
from typing import TypeAlias

from .circuit import (
    Circuit,
    LoopWire,
    SrcIn,
    SrcNode,
    SrcLoop,
    UnitDelay,
    VarDelay,
    _by_name,
    base_types,
    check_valid,
    in_port_names,
    out_port_names,
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
    """Internal: a semantic error tied to one token; without a token, the
    follow-on of an error already reported where it arose."""

    def __init__(self, tok=None, msg=""):
        self.pos = None if tok is None else (*tok[2:], msg)
        super().__init__(msg)


# A token is a plain tuple, the cheapest record to build and to read:
# (kind, text, line, col).  The kind is "IDENT", "INT", "BOT", "EOF" or the
# punctuation itself.
Token: TypeAlias = tuple[str, str, int, int]


# What a name is bound to when the statement that binds it calls a gate
# whose declaration was refused (see ``_Parser.refuse``).
_REFUSED = object()


def _at(tok: Token, msg: str) -> NetlistError:
    """A syntax error at ``tok``; it ends the parse."""
    return NetlistError([(*tok[2:], msg)])


KEYWORDS = {
    "type", "gate", "circuit", "strict", "in", "out", "loop", "int",
    "delay", "vardelay", "init", "min", "max", "bot",
}

# Builtin gates by name: the constructor, and for each base type it takes
# the argument positions whose wire type is used, in order, before the
# ``name[type]`` annotation.  ``const``, ``delay`` and ``vardelay`` read
# literals and keywords and are built apart.
_BUILTINS = {
    "not": (not_gate, ()), "and": (and_gate, ()), "or": (or_gate, ()),
    "xor": (xor_gate, ()), "nand": (nand_gate, ()), "nor": (nor_gate, ()),
    "por": (por, ()), "pand": (pand, ()),
    "mux": (mux_gate, ((1, 2),)),
    "add": (add_gate, ((0, 1),)),
    "eq": (eq_gate, ((0, 1),)),
    "lt": (lt_gate, ((0, 1),)),
    "id": (identity_gate, ((0,),)),
    "dup": (dup_gate, ((0,),)),
    "sink": (sink_gate, ((0,),)),
    "swap": (swap_gate, ((0,), (1,))),
}

BUILTIN_GATES = {*_BUILTINS, "const"}

RESERVED = KEYWORDS | BUILTIN_GATES

# One token of a line per match, after any blanks; the group that matched
# gives its kind.  ``\w`` is exactly ``str.isalnum()`` or "_".  A name
# starts with a letter or "_": an ASCII one in group 1, any other \w that
# is no decimal digit in group 5, whose first character must then pass
# ``str.isalpha()`` ('²' does not).  An INT is ASCII digits only, not the
# other scripts' digits that ``\w`` and ``str.isdigit`` take.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"([A-Za-z_]\w*)"  # 1 name
    r"|(->|\.\.|[(){}\[\],:=])"  # 2 punctuation, its own kind
    r"|(-?[0-9]+)"  # 3 INT
    r"|(#.*)"  # 4 comment, to the end of the line
    r"|([^\W\d]\w*)"  # 5 name, if its first character is a letter
    r"|([^ \t\r])"  # 6 no token starts here
    r")"
)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with one EOF; a character that starts
    no token is a NetlistError at its line and column."""
    toks: list[Token] = []
    append = toks.append
    for line, row in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(row):
            k = m.lastindex
            word = m[k]
            if k == 1:
                kind = "BOT" if word == "bot" else "IDENT"
            elif k == 2:
                kind = word
            elif k == 3:
                kind = "INT"
            elif k == 5 and word[0].isalpha():
                kind = "IDENT"
            elif k == 4:
                continue
            else:
                ch = word[0]
                msg = "stray '.'" if ch == "." else f"unexpected character {ch!r}"
                raise NetlistError([(line, m.start(k) + 1, msg)])
            append((kind, word, line, m.start(k) + 1))
    # a comment does not move the column that end of file is reported at
    append(("EOF", "", line, len(row.partition("#")[0]) + 1))
    return toks


def _reads_back(v) -> bool:
    """Whether the printed ``v`` is one token that reads back as ``v``: an
    int as an INT, a string as a name, so never ``bot``, a string of
    digits, or text with a space or a ``-``."""
    text = str(v)
    m = _TOKEN.fullmatch(text)
    if m is None or m[m.lastindex] != text:  # not one token, or blanks
        return False
    k = m.lastindex
    if type(v) is int:
        return k == 3
    return (k == 1 or k == 5 and text[0].isalpha()) and text != "bot"


def _literal(tok: Token, base: BaseType | None) -> LValue:
    """The value a literal token names: an integer, a name or ``bot``.

    With ``base`` the value must be one of base's.  Without, the token lists
    an atom of a type being declared, so ``bot`` is not a value there.
    """
    if tok[0] == "BOT" and base is not None:
        return BOT
    if tok[0] == "INT":
        v: LValue = int(tok[1])
    elif tok[0] == "IDENT":
        v = tok[1]
    else:
        raise _at(tok, f"expected a value, found {tok[1]!r}")
    if base is not None and v not in base.members:
        raise _Sem(tok, f"{v!r} is not a value of type {base.name!r}")
    return v


def _run(step):
    """Drive a parse or build generator and every step it yields.

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
        self.toks += self.toks[-1:] * 2  # EOF for every lookahead of peek
        self.pos = 0
        self.types: dict[str, BaseType | None] = {"bool": BOOL}  # None: broken
        self.gates: dict[str, GateDef | None] = {}  # None: a broken declaration
        self.errors: list[tuple[int, int, str]] = []
        # Circuit under construction.  Each output and feedback wire, in
        # declaration order, is one record [label, type, declaring token,
        # source or None]; ``env`` holds what each readable name reads: an
        # input, a wire, a feedback wire from its declaration on, and an
        # output once it is assigned.  An input or feedback wire of a broken
        # type has type None and reads ``_REFUSED``.
        self.ins: dict[str, BaseType | None] = {}
        self.outs: dict[str, list] = {}
        self.loops: dict[str, list] = {}
        self.env: dict[str, tuple[object, BaseType]] = {}
        self.nodes: list = []
        self.node_inputs: list[tuple] = []
        self.repeated: _Sem | None = None  # the first repeated keyword, see read_expr

    # -- token plumbing --------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.pos + k]  # k <= 2; advance stops at EOF

    def kind(self, k: int = 0) -> str:
        return self.toks[self.pos + k][0]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok[0] != kind:
            shown = repr(tok[1]) if tok[0] != "EOF" else "end of file"
            raise _at(tok, f"expected {what or kind}, found {shown}")
        return self.advance()

    def at_word(self, word: str) -> bool:
        return self.peek()[:2] == ("IDENT", word)

    def comma_list(self, item, closer: str | None = None) -> list:
        """``item()``, repeated while a comma follows.  With ``closer``, the
        list is empty when that token comes first; it is left unread."""
        items = []
        if self.kind() != closer:
            items.append(item())
            while self.kind() == ",":
                self.advance()
                items.append(item())
        return items

    # -- names and types -------------------------------------------------

    def fresh_name(self, tok: Token, what: str) -> str:
        name = tok[1]
        if name in RESERVED:
            raise _Sem(tok, f"{name!r} is reserved and cannot name a {what}")
        if name in self.env or name in self.outs:
            raise _Sem(tok, f"{name!r} is already in use")
        return name

    def typeref(self) -> BaseType | None:
        """A type name; an unknown one is recorded and read as None, and a
        broken one is read as None silently."""
        tok = self.expect("IDENT", "a type name")
        if tok[1] not in self.types:
            self.errors.append((*tok[2:], f"unknown type {tok[1]!r}"))
        return self.types.get(tok[1])

    def typed_name(self, what: str) -> tuple[Token, BaseType | None]:
        """``name: type``; the type is None when unknown or broken."""
        name_tok = self.expect("IDENT", what)
        self.expect(":")
        return name_tok, self.typeref()

    # -- top level -------------------------------------------------------

    def parse_file(self) -> Circuit:
        circuit = None
        while True:
            tok = self.peek()
            if tok[0] == "EOF":
                break
            if self.at_word("type"):
                self.type_decl()
            elif self.at_word("gate"):
                self.gate_decl()
            elif self.at_word("circuit"):
                if circuit is not None:
                    raise _at(tok, "only one circuit per file")
                circuit = self.circuit_decl()
            else:
                raise _at(tok, f"expected type, gate, or circuit, found {tok[1]!r}")
        if self.errors:
            raise NetlistError(self.errors)
        if circuit is None:
            raise _at(self.peek(), "no circuit block in file")
        return circuit

    def type_decl(self) -> None:
        self.advance()
        name_tok = self.expect("IDENT", "a type name")
        self.expect("=")
        name = name_tok[1]
        # The body is read before the name is judged, so parsing goes on
        # after a refused declaration; a fault in the name is the one shown.
        if self.at_word("int"):
            self.advance()
            lo_tok = self.expect("INT", "a lower bound")
            self.expect("..")
            hi_tok = self.expect("INT", "an upper bound")
            lo, hi = int(lo_tok[1]), int(hi_tok[1])
            values = range(lo, hi + 1)
            fault = None if values else (lo_tok, f"empty range {lo}..{hi}")
        else:
            self.expect("{", "'int' or '{'")
            values = self.comma_list(lambda: _literal(self.advance(), None))
            self.expect("}")
            repeats = len(set(values)) != len(values)
            fault = (name_tok, f"type {name!r} repeats a value") if repeats else None
        if name in RESERVED or name == "bool":
            fault = (name_tok, f"cannot redeclare type {name!r}")
        elif name in self.types:
            fault = (name_tok, f"type {name!r} is already declared")
        if fault is None:
            self.types[name] = BaseType(name, tuple(values))
        else:
            # declared, but broken, as a refused gate is (``bool`` stays)
            self.types.setdefault(name, None)
            self.errors.append((*fault[0][2:], fault[1]))

    def gate_decl(self) -> None:
        self.advance()
        name_tok = self.expect("IDENT", "a gate name")
        self.expect("(")
        params = self.comma_list(lambda: self.typed_name("a parameter name"), ")")
        self.expect(")")
        self.expect("->")
        self.expect("(")
        outs = self.comma_list(self.typeref, ")")
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
        while self.kind() == "(":
            row_tok = self.advance()
            try:
                ins = self.row_cells(dom, allow_bot=not strict)
                self.expect(")")
                self.expect("->")
                self.expect("(")
                outs_row = self.row_cells(cod, allow_bot=not strict)
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
            # declared, but broken until its table builds: a failed
            # declaration is reported here and nowhere it is used
            self.gates[name] = None
            if not dom_ok or row_errors:
                return
            seen = set()
            for p_tok, _ in params:
                if p_tok[1] in seen:
                    raise _Sem(p_tok, f"parameter {p_tok[1]!r} repeated")
                seen.add(p_tok[1])
            builder = strict_lift_table if strict else table_gate
            try:
                self.gates[name] = builder(name, dom, cod, rows)
            except SignatureError as e:
                raise _Sem(name_tok, str(e)) from None
        except _Sem as e:
            self.errors.append(e.pos)

    def fresh_gate_name(self, tok: Token) -> str:
        name = tok[1]
        if name in RESERVED:
            raise _Sem(tok, f"{name!r} is a builtin name")
        if name in self.gates:
            raise _Sem(tok, f"gate {name!r} is already declared")
        return name

    def row_cells(self, s: Signature | None, allow_bot: bool):
        """One side of a table row, up to its ")"."""
        bases = iter(s.wires if s is not None else ())

        def cell():
            base = next(bases, None)
            tok = self.advance()
            if base is None:
                return None  # skipped; the arity error is reported below
            if tok[0] == "BOT" and not allow_bot:
                raise _Sem(tok, "'bot' is not allowed here")
            return _literal(tok, base)

        cells = self.comma_list(cell, ")")
        if s is not None and len(cells) != len(s):
            tok = self.peek()
            raise _Sem(tok, f"row has {len(cells)} cells, gate needs {len(s)}")
        return tuple(cells)

    def skip_to_row_end(self) -> None:
        # Recover after a bad row: drop tokens through the closing paren of
        # the output tuple, or up to the end of the gate body.  The error
        # may leave the reader inside either tuple, so a ")" never takes
        # the depth below 0.
        depth = 0
        while True:
            tok = self.peek()
            if tok[0] == "EOF" or (depth == 0 and tok[0] == "}"):
                return
            self.advance()
            if tok[0] == "(":
                depth += 1
            elif tok[0] == ")":
                depth = max(depth - 1, 0)
                if depth == 0 and self.kind() != "->":
                    return

    # -- circuit body ----------------------------------------------------

    def circuit_decl(self) -> Circuit:
        self.advance()
        name_tok = self.expect("IDENT", "a circuit name")
        self.expect("{")
        while self.kind() != "}":
            if self.kind() == "EOF":
                self.expect("}")
            try:
                self.statement()
            except _Sem as e:
                if e.pos is not None:
                    self.errors.append(e.pos)
        self.expect("}")
        for label, base, tok, src in self.loops.values():
            if src is None and base is not None:
                self.errors.append((*tok[2:], f"{label} is never closed"))
        for label, _, _, src in self.outs.values():
            if src is None:
                self.errors.append((*name_tok[2:], f"{label} is never assigned"))
        if self.errors:
            raise NetlistError(self.errors)
        outs = self.outs.values()
        return Circuit(
            in_ports=Signature(tuple(self.ins.values())),
            out_ports=Signature(tuple(base for _, base, _, _ in outs)),
            nodes=tuple(self.nodes),
            node_inputs=tuple(self.node_inputs),
            outputs=tuple(src for *_, src in outs),
            loops=tuple(LoopWire(base, src) for _, base, _, src in self.loops.values()),
            in_names=tuple(self.ins),
            out_names=tuple(self.outs),
        )

    def statement(self) -> None:
        tok, after = self.peek(), self.kind(1)
        if after == "IDENT" and self.kind(2) == ":" and tok[1] in ("in", "out", "loop"):
            kind = self.advance()[1]
            if kind == "loop":
                self.declare(kind)
            else:
                self.comma_list(lambda: self.declare(kind))
            return
        if tok[0] == "(":
            self.tuple_assignment()
            return
        if tok[0] == "IDENT":
            if after == "=":
                name_tok = self.advance()
                self.advance()
                ast = self.read_expr()
                try:
                    self.bind(
                        name_tok,
                        lambda want: _run(self.build_expr(ast, want)),
                        "is {}, got {}",
                    )
                except _Sem as e:
                    self.refuse(e, [name_tok])
                    raise
                return
            if self.at_call():
                _run(self.build_call(self.read_expr()))
                return
        raise _at(tok, f"expected a statement, found {tok[1]!r}")

    def declare(self, kind: str) -> None:
        """One ``name: type`` of an ``in``, ``out`` or ``loop`` statement.
        The name is judged before its type is read, and a refused name
        skips only itself.  An input or feedback wire of an unknown or
        broken type is declared broken, so reading it fails silently."""
        port = kind != "loop"
        name_tok = self.expect("IDENT", "a port name" if port else "a wire name")
        self.expect(":")
        try:
            name = self.fresh_name(name_tok, "port" if port else "feedback wire")
        except _Sem as e:
            self.errors.append(e.pos)
            name = None
        base = self.typeref()
        if name is None:
            return
        if kind == "out":
            if base is not None:
                self.outs[name] = [f"output {name!r}", base, name_tok, None]
            return
        if kind == "in":
            src, self.ins[name] = SrcIn(len(self.ins)), base
        else:
            src = SrcLoop(len(self.loops))
            self.loops[name] = [f"feedback wire {name!r}", base, name_tok, None]
        self.env[name] = _REFUSED if base is None else (src, base)

    def tuple_assignment(self) -> None:
        self.expect("(")
        name_toks = self.comma_list(lambda: self.expect("IDENT", "a wire name"))
        self.expect(")")
        self.expect("=")
        ast = self.read_expr()
        if ast[0] != "call":
            tok = name_toks[0]
            raise _Sem(tok, "tuple assignment needs a gate call on the right")
        try:
            idx, out_sig = _run(self.build_call(ast))
        except _Sem as e:
            self.refuse(e, name_toks)
            raise
        if len(out_sig) != len(name_toks):
            raise _Sem(
                name_toks[0],
                f"{len(name_toks)} names for {len(out_sig)} outputs",
            )
        for p, tok in enumerate(name_toks):
            src = (SrcNode(idx, p), out_sig[p])
            self.bind(tok, lambda want: src, "type mismatch")

    def refuse(self, e: _Sem, name_toks: list[Token]) -> None:
        """After ``e`` ended building the source of ``name_toks``.

        When ``e`` follows a gate whose declaration was refused (it has no
        position), each name not yet bound is bound to ``_REFUSED``: an
        output or a feedback wire counts as given, and a wire read later
        raises the same, so the refusal is reported once, where the gate
        was declared.
        """
        if e.pos is not None:
            return
        for _, name, *_ in name_toks:
            sink = self.loops.get(name) or self.outs.get(name)
            if sink is not None and sink[3] is None:
                sink[3] = _REFUSED
            self.env.setdefault(name, _REFUSED)  # a feedback wire keeps its own

    def bind(self, name_tok: Token, build, mismatch: str) -> None:
        """Give a name its source: close a feedback wire, assign an output
        or define a fresh wire.

        ``build(want)`` returns ``(source, base)`` and runs only once the
        name is free; ``want`` is the type the name needs, None for a fresh
        wire.  ``mismatch`` phrases a wrong type, formatted with the needed
        and the given type names.
        """
        name = name_tok[1]
        sink = self.loops.get(name) or self.outs.get(name)
        if sink is None:
            name = self.fresh_name(name_tok, "wire")
            self.env[name] = build(None)
            return
        label, want, _, src = sink
        if src is not None:
            again = "closed twice" if name in self.loops else "assigned twice"
            raise _Sem(name_tok, f"{label} is {again}")
        if want is None:  # a feedback wire of a broken type: check, then drop
            sink[3] = _REFUSED
            build(None)
            return
        src, base = build(want)
        if base != want:
            raise _Sem(name_tok, f"{label} " + mismatch.format(want.name, base.name))
        sink[3] = src
        if name in self.outs:
            self.env[name] = (src, base)

    # -- expressions -----------------------------------------------------
    # AST shapes: ("call", name_tok, ann_tok | None, [arg asts], {kw: tok})
    #             ("ref", tok)   wire or enum atom, decided at build time
    #             ("lit", tok)   INT or bot
    #
    # Expressions nest without bound, so parsing and building them must not
    # recurse in Python.  expr_ast, build_expr, build_call, build_delay and
    # build_vardelay are generators that yield each nested call to be read
    # or built, and ``_run``, the one explicit stack, sends back its AST or
    # source; one expression's own steps chain by ``yield from``.  Leaves,
    # the bulk of every netlist, are read and built by plain calls.

    def at_call(self) -> bool:
        return self.kind() == "IDENT" and self.kind(1) in ("(", "[")

    def read_expr(self):
        """One whole expression's AST.  A keyword argument repeated inside
        it is raised only once the expression is read, so that the parse
        goes on with the next statement."""
        self.repeated = None
        ast = _run(self.expr_ast())
        if self.repeated is not None:
            raise self.repeated
        return ast

    def expr_ast(self):
        """One expression; each argument that is a call is yielded."""
        if not self.at_call():
            return self.leaf_ast()
        name_tok = self.advance()
        ann_tok = None
        if self.kind() == "[":
            self.advance()
            ann_tok = self.expect("IDENT", "a type name")
            self.expect("]")
        self.expect("(")
        args: list = []
        kwargs: dict = {}
        if self.kind() == ")":
            self.advance()
            return ("call", name_tok, ann_tok, args, kwargs)
        while True:
            if self.kind() == "IDENT" and self.kind(1) == "=":
                kw_tok = self.advance()
                self.advance()
                val_tok = self.advance()
                if val_tok[0] != "BOT":
                    _literal(val_tok, None)  # any literal; typed when built
                if kw_tok[1] not in kwargs:
                    kwargs[kw_tok[1]] = val_tok
                elif self.repeated is None:
                    self.repeated = _Sem(kw_tok, f"argument {kw_tok[1]!r} repeated")
            elif self.at_call():
                args.append((yield self.expr_ast()))
            else:
                args.append(self.leaf_ast())
            if self.kind() != ",":
                self.expect(")")
                return ("call", name_tok, ann_tok, args, kwargs)
            self.advance()

    def leaf_ast(self):
        tok = self.peek()
        if tok[0] in ("INT", "BOT"):
            self.advance()
            return ("lit", tok)
        if tok[0] == "IDENT":
            self.advance()
            return ("ref", tok)
        raise _at(tok, f"expected an expression, found {tok[1]!r}")

    def build_expr(self, ast, expected: BaseType | None):
        if ast[0] == "call":
            idx, out_sig = yield from self.build_call(ast)
            outs = out_sig.wires
            if len(outs) != 1:
                raise _Sem(
                    ast[1],
                    f"{ast[1][1]!r} has {len(outs)} outputs; use tuple assignment",
                )
            return (SrcNode(idx, 0), outs[0])
        return self.build_leaf(ast, expected)

    def build_leaf(self, ast, expected: BaseType | None):
        tok = ast[1]
        if ast[0] == "ref":
            hit = self.lookup(tok[1])
            if hit is not None:
                return hit
            if expected is not None and tok[1] in expected.members:
                return self.literal_source(tok[1], expected)
            raise _Sem(
                tok,
                f"unknown wire {tok[1]!r} (forward references need a loop wire)",
            )
        if expected is None:
            raise _Sem(
                tok, "cannot infer the type of a bare literal; use const[type](...)"
            )
        return self.literal_source(_literal(tok, expected), expected)

    def lookup(self, name: str):
        hit = self.env.get(name)
        if hit is _REFUSED:
            raise _Sem()
        return hit

    def add_node(self, node, srcs: tuple) -> int:
        self.nodes.append(node)
        self.node_inputs.append(srcs)
        return len(self.nodes) - 1

    def literal_source(self, value, base: BaseType):
        return (SrcNode(self.add_node(const_gate(base, value), ()), 0), base)

    # -- calls -----------------------------------------------------------

    def build_call(self, ast):
        _, name_tok, ann_tok, args, kwargs = ast
        name = name_tok[1]
        ann = None
        if ann_tok is not None:
            if ann_tok[1] not in self.types:
                raise _Sem(ann_tok, f"unknown type {ann_tok[1]!r}")
            ann = self.types[ann_tok[1]]
            if ann is None:
                raise _Sem()  # a broken type, reported where it was declared
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
                built.append(self.lookup(a[1][1]) if a[0] == "ref" else None)
        gate = self.resolve_gate(name_tok, ann, built)
        dom = gate.dom.wires
        if len(args) != len(dom):
            raise _Sem(
                name_tok,
                f"{name!r} takes {len(dom)} arguments, got {len(args)}",
            )
        srcs = []
        for i, (a, b, want) in enumerate(zip(args, built, dom)):
            if b is None:
                srcs.append(self.build_leaf(a, want)[0])
            else:
                src, got = b
                if got is not want and got != want:
                    raise _Sem(
                        name_tok,
                        f"argument {i} of {name!r} needs {want.name}, "
                        f"got {got.name}",
                    )
                srcs.append(src)
        return (self.add_node(gate, tuple(srcs)), gate.cod)

    def resolve_gate(self, name_tok: Token, ann, built) -> GateDef:
        name = name_tok[1]
        if name in self.gates:
            gate = self.gates[name]
            if gate is None:
                raise _Sem()
            return gate
        if name not in _BUILTINS:
            raise _Sem(name_tok, f"unknown gate {name!r}")
        make, params = _BUILTINS[name]
        types = []
        for slots in params:
            found = (
                built[i][1] for i in slots if i < len(built) and built[i] is not None
            )
            base = next(found, ann)
            if base is None:
                if len(params) > 1:
                    raise _Sem(name_tok, f"cannot infer the types of {name!r}")
                raise _Sem(
                    name_tok,
                    f"cannot infer the type of {name!r}; annotate as {name}[type](...)",
                )
            types.append(base)
        try:
            return make(*types)
        except SignatureError as e:
            raise _Sem(name_tok, str(e)) from None

    def build_const(self, name_tok: Token, ann, args, kwargs):
        if kwargs:
            kw = next(iter(kwargs))
            raise _Sem(name_tok, f"const takes no {kw!r} argument")
        if ann is None:
            raise _Sem(name_tok, "const needs a type: const[type](value)")
        if len(args) != 1 or args[0][0] == "call":
            raise _Sem(name_tok, "const takes exactly one literal value")
        gate = const_gate(ann, _literal(args[0][1], ann))
        return (self.add_node(gate, ()), gate.cod)

    def kw_int(self, name_tok: Token, kwargs, key: str) -> int:
        tok = kwargs.get(key)
        if tok is None:
            raise _Sem(name_tok, f"vardelay needs {key}=...")
        if tok[0] != "INT":
            raise _Sem(tok, f"{key} must be an integer")
        return int(tok[1])

    def build_delay(self, name_tok: Token, args, kwargs):
        extra = set(kwargs) - {"init"}
        if extra:
            raise _Sem(name_tok, f"delay takes no {sorted(extra)[0]!r} argument")
        if len(args) != 1:
            raise _Sem(name_tok, "delay takes one wire argument")
        src, base = yield self.build_expr(args[0], None)
        init = _literal(kwargs["init"], base) if "init" in kwargs else BOT
        return (self.add_node(UnitDelay(base, init), (src,)), sig(base))

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
        init = _literal(kwargs["init"], base) if "init" in kwargs else BOT
        node = VarDelay(base, d_min, d_max, init, d_base)
        return (self.add_node(node, (src_s, src_d)), sig(base))


def parse_netlist(text: str) -> Circuit:
    """Parse one netlist file into a circuit, valid by construction, as the
    parser refuses all that ``validate`` would; it is validated on first use."""
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


def _check_name(what: str, name: str, reserved=RESERVED) -> None:
    """Refuse a name the parser would not read back as a free name."""
    if name in reserved or not _reads_back(name):
        raise SignatureError(f"{what} name {name!r} is not a free name; cannot print")


def _check_type(b: BaseType) -> None:
    """Refuse a declared type whose name or atoms would not read back."""
    if b != BOOL:
        _check_name("type", b.name, RESERVED | {"bool"})
    for v in b.values:
        if not _reads_back(v):
            raise SignatureError(
                f"value {v!r} of type {b.name!r} does not read back; cannot print"
            )


def _is_builtin(gate: GateDef) -> bool:
    """Whether ``gate`` prints as a builtin call: it equals what the
    builtin of its name builds for its argument types (``const``: for its
    type and value), as the parser builds a call on wires of those types."""
    try:
        if gate.name == "const":
            return gate == const_gate(gate.cod[0], gate.fn.table[()][0])
        make, params = _BUILTINS[gate.name]
        return gate == make(*[gate.dom[slots[0]] for slots in params])
    except (KeyError, IndexError, TypeError, SignatureError):
        return False  # no builtin of this name takes these types


def print_netlist(c: Circuit) -> str:
    """Render a circuit in canonical netlist form."""
    check_valid(c)
    types = _by_name("base type", base_types(c), _check_type)
    user_gates = _by_name(
        "gate",
        (n for n in c.nodes
         if not isinstance(n, (UnitDelay, VarDelay)) and not _is_builtin(n)),
        lambda g: _check_name("gate", g.name),
    )

    taken: set[str] = set()
    for name in in_port_names(c) + out_port_names(c):
        _check_name("port", name)
        if name in taken:
            raise SignatureError(f"two ports share the name {name!r}; cannot print")
        taken.add(name)

    def unique(name: str) -> str:
        while name in taken:
            name = "_" + name
        return name

    node_names: list[tuple[str, ...]] = []
    for i, node in enumerate(c.nodes):
        outs = node.cod
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
    for kw, names, ports in (("in", in_port_names(c), c.in_ports),
                             ("out", out_port_names(c), c.out_ports)):
        if len(ports):
            decls = ", ".join(f"{nm}: {b.name}" for nm, b in zip(names, ports))
            lines.append(f"  {kw} {decls}")
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
