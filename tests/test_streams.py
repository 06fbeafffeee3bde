from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from causalcirc.circuit import in_port_names, out_port_names

from causalcirc.domain import BOOL, BOT, BaseType, SignatureError, int_range, sig
from causalcirc.engine import PrefixTrace
from causalcirc.netlist import parse_netlist
from causalcirc.streams import (
    StreamFormatError,
    format_cell,
    parse_cell,
    read_stream,
    write_stream,
)

TEMP = sig(BOOL, int_range(0, 3))


def test_cells_round_trip():
    assert format_cell(BOT) == "_"
    assert format_cell(0) == "0"
    assert parse_cell("_", BOOL, "here") is BOT
    assert parse_cell(" 1 ", BOOL, "here") == 1


def test_named_atoms_parse_as_words():
    from causalcirc.domain import BaseType

    temp = BaseType("temp", ("lo", "mid", "hi"))
    assert parse_cell("mid", temp, "here") == "mid"
    with pytest.raises(StreamFormatError, match="'2'"):
        parse_cell("2", temp, "here")


def test_a_cell_is_read_only_as_the_text_of_a_value():
    # int() reads the first five as integers; the netlist reader takes none.
    ints = int_range(-1, 3)
    for text in ("0_1", "+1", "01", "-0", "\u0661", "1.0", "True"):
        with pytest.raises(StreamFormatError, match="not a value"):
            parse_cell(text, ints, "here")
    for v in ints.values:
        assert parse_cell(f" {format_cell(v)}\t", ints, "here") == v


def test_read_a_padded_file():
    text = "a , k\n\n 1 , 3 \n _,0\n\n"
    tr = read_stream(text, TEMP, ("a", "k"))
    assert tr.rows == ((1, 3), (BOT, 0))


def test_header_must_match_ports_exactly():
    with pytest.raises(StreamFormatError, match="do not match"):
        read_stream("a,b\n1,1\n", TEMP, ("a", "k"))
    with pytest.raises(StreamFormatError, match="do not match"):
        read_stream("k,a\n1,1\n", TEMP, ("a", "k"))


def test_row_width_is_checked_with_line_numbers():
    with pytest.raises(StreamFormatError, match="line 3"):
        read_stream("a,k\n1,1\n0\n", TEMP, ("a", "k"))
    with pytest.raises(StreamFormatError, match="line 2: 1 cells for 0 ports"):
        read_stream("\n_\n", sig(), ())


def test_errors_cite_the_file_line_past_blank_lines():
    with pytest.raises(StreamFormatError, match=r"^line 6, column a: '2' "):
        read_stream("a\n\n\n0\n\n2\n", sig(BOOL), ("a",))
    with pytest.raises(StreamFormatError, match=r"^line 5: 1 cells for 2 ports"):
        read_stream("\n a,k\n1,1\n\n0\n", TEMP, ("a", "k"))


def test_bad_cell_names_the_column():
    with pytest.raises(StreamFormatError, match="column k"):
        read_stream("a,k\n1,9\n", TEMP, ("a", "k"))
    with pytest.raises(StreamFormatError, match="empty cell"):
        read_stream("a,k\n1,\n", TEMP, ("a", "k"))


def test_empty_file_is_an_error():
    with pytest.raises(StreamFormatError, match="empty"):
        read_stream("\n  \n", TEMP, ("a", "k"))


def test_header_only_means_zero_ticks():
    tr = read_stream("a,k\n", TEMP, ("a", "k"))
    assert tr.rows == ()


def test_write_checks_column_count():
    tr = PrefixTrace(TEMP, ((1, 0),))
    with pytest.raises(SignatureError):
        write_stream(tr, ("a",))


@given(
    st.lists(
        st.tuples(
            st.sampled_from([BOT, 0, 1]), st.sampled_from([BOT, 0, 1, 2, 3])
        ),
        max_size=8,
    )
)
def test_write_read_round_trip(rows):
    tr = PrefixTrace(TEMP, tuple(rows))
    text = write_stream(tr, ("a", "k"))
    assert read_stream(text, TEMP, ("a", "k")) == tr


@pytest.mark.parametrize(
    "atoms, why",
    [
        ((1, "1"), "as atom 1 is"),
        ((0, "_"), "as the undefined cell is"),
        ((0, ""), "cannot hold"),
        ((0, "a,b"), "cannot hold"),
        ((0, "a\nb"), "cannot hold"),
        ((0, "a\rb"), "cannot hold"),
        ((0, " a"), "cannot hold"),
        ((0, "a\t"), "cannot hold"),
        ((0, "a\n"), "cannot hold"),
    ],
    ids=["int-and-name", "underscore", "empty", "comma", "newline", "return", "space", "tab",
         "trailing-newline"],
)
def test_atoms_whose_cells_would_not_read_back_are_refused(atoms, why):
    # Written, each would read back as another value, as no value, or as a
    # different number of cells or rows; reading and writing refuse alike.
    t = BaseType("t", atoms)
    bad = atoms[-1]
    with pytest.raises(SignatureError) as wrote:
        write_stream(PrefixTrace(sig(t), ((bad,), (atoms[0],))), ("p",))
    assert str(wrote.value).startswith(f"type 't': atom {bad!r} is written {bad!r}, ")
    assert why in str(wrote.value)
    with pytest.raises(SignatureError) as read:
        read_stream("p\n0\n", sig(t), ("p",))
    assert str(read.value) == str(wrote.value)


def test_named_atoms_with_inner_spaces_round_trip():
    t = sig(BaseType("t", ("lo", "a b", -2)), BOOL)
    tr = PrefixTrace(t, (("a b", 0), (-2, BOT), ("lo", 1)))
    assert read_stream(write_stream(tr, ("p", "q")), t, ("p", "q")) == tr


@pytest.mark.parametrize(
    "name", ["", "a,b", "a\nb", "a\n", "a\rb", " a", "a\t"],
    ids=["empty", "comma", "newline", "trailing-newline", "return", "space", "tab"],
)
def test_column_names_that_would_not_read_back_are_refused(name):
    # ("a,b", "c") would write the header a,b,c, which names three columns.
    tr = PrefixTrace(sig(BOOL, BOOL), ((0, 1),))
    for names in (name, "c"), ("c", name):
        with pytest.raises(SignatureError) as e:
            write_stream(tr, names)
        assert str(e.value) == f"column name {name!r} would not read back"


def test_every_netlist_port_name_writes_and_reads_back():
    for path in sorted(Path("circuits").glob("*.net")):
        c = parse_netlist(path.read_text())
        for s, names in (c.in_ports, in_port_names(c)), (c.out_ports, out_port_names(c)):
            tr = PrefixTrace(s, ((BOT,) * len(s),))
            text = write_stream(tr, names)
            assert read_stream(text, s, names) == tr, path


@pytest.mark.parametrize("ticks", [0, 1, 3])
def test_a_stream_over_no_wires_reads_back(ticks):
    # Its header and each row are blank lines, so none of them is skipped.
    tr = PrefixTrace(sig(), ((),) * ticks)
    text = write_stream(tr, ())
    assert text == "\n" * (ticks + 1)
    assert read_stream(text, sig(), ()) == tr
