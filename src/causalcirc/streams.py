"""Tabular stream files: a header of port names, then one row per tick.

Cells are separated by commas; an underscore marks an undefined cell.
Whitespace around cells is ignored and blank lines are skipped, so files
can be straight CSV or padded by hand; in a stream over no wires the
header and every row are blank lines, so there each line counts.  A cell
is read against the wire type, and only as the text a value is written
as: ``1`` for an integer atom, never ``01`` or ``+1``, a bare word for a
named atom.
"""

from __future__ import annotations

from functools import cache

from .domain import BOT, BaseType, LValue, Signature, SignatureError
from .engine import PrefixTrace


class StreamFormatError(ValueError):
    """A stream file does not fit the expected ports or value types."""


def format_cell(v: LValue) -> str:
    return "_" if v is BOT else str(v)


def _unfit(text: str) -> bool:
    """Whether ``text`` would not read back from a comma-separated row: it
    is empty, holds a comma or a line break, or has surrounding whitespace."""
    return "," in text or text.strip().splitlines() != [text]


@cache
def _cells(base: BaseType) -> dict[str, LValue]:
    """The value each cell text of ``base`` stands for: the one table that
    reading and writing both go through.  An atom whose text would not read
    back as itself is refused with SignatureError: one text for two atoms,
    ``_``, or an ``_unfit`` text."""
    cells: dict[str, LValue] = {"_": BOT}
    for v in base.values:
        text = format_cell(v)
        if text in cells:
            was = "the undefined cell" if text == "_" else f"atom {cells[text]!r}"
            raise SignatureError(
                f"type {base.name!r}: atom {v!r} is written {text!r}, as {was} is"
            )
        if _unfit(text):
            raise SignatureError(
                f"type {base.name!r}: atom {v!r} is written {text!r}, "
                "which a stream cell cannot hold"
            )
        cells[text] = v
    return cells


def parse_cell(text: str, base: BaseType, where: str) -> LValue:
    """The value of ``base`` whose text (``format_cell``) is ``text``, but
    for surrounding whitespace: ``0_1``, ``+1`` or ``01`` name no value."""
    text = text.strip()
    if text == "":
        raise StreamFormatError(f"{where}: empty cell")
    cells = _cells(base)
    if text not in cells:
        raise StreamFormatError(
            f"{where}: {text!r} is not a value of type {base.name!r}"
        )
    return cells[text]


def write_stream(trace: PrefixTrace, names: tuple[str, ...]) -> str:
    """Render a trace with the given column names, each of which must read
    back from the header (not ``_unfit``)."""
    if len(names) != len(trace.signature):
        raise SignatureError(
            f"{len(names)} column names for {len(trace.signature)} wires"
        )
    for name in names:
        if _unfit(name):
            raise SignatureError(f"column name {name!r} would not read back")
    for base in trace.signature:
        _cells(base)
    lines = [",".join(names)]
    for row in trace.rows:
        lines.append(",".join(format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _split(line: str) -> list[str]:
    """The cells of one line, stripped: none on a blank line."""
    return [cell.strip() for cell in line.split(",")] if line.strip() else []


def read_stream(
    text: str, signature: Signature, names: tuple[str, ...]
) -> PrefixTrace:
    """Parse a stream file; the header must name exactly these columns in order."""
    for base in signature:
        _cells(base)
    lines = list(enumerate(text.splitlines(), 1))
    if signature:
        # blank lines are skipped, but errors cite the file's own line numbers
        lines = [(k, ln) for k, ln in lines if ln.strip()]
    # else a blank line is the header or a row of no cells, as written
    if not lines:
        raise StreamFormatError("stream file is empty; a header row is required")
    header = tuple(_split(lines[0][1]))
    if header != tuple(names):
        raise StreamFormatError(
            f"header names {', '.join(header) or '(none)'} do not match "
            f"ports {', '.join(names) or '(none)'}"
        )
    rows = []
    for k, ln in lines[1:]:
        cells = _split(ln)
        if len(cells) != len(signature):
            raise StreamFormatError(
                f"line {k}: {len(cells)} cells for {len(signature)} ports"
            )
        rows.append(
            tuple(
                parse_cell(cell, base, f"line {k}, column {names[i]}")
                for i, (cell, base) in enumerate(zip(cells, signature.wires))
            )
        )
    return PrefixTrace(signature, tuple(rows))
