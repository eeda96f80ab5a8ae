"""CSV serialization: convergence reports and the table writer."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rieszkit.reports import (
    CONVERGENCE_HEADER,
    ConvergenceReport,
    ConvergenceRow,
    convergence_rows,
    fmt,
    fmt_column,
    read_convergence_csv,
    text_table,
    write_csv,
)

from naive_reference import naive_write_csv

# the CSV metacharacters, the lone carriage return included, plus ASCII
_text = st.text(st.one_of(st.sampled_from(',"\r\n '),
                          st.characters(max_codepoint=127)), max_size=6)
_optional = st.one_of(st.none(), st.floats())
_row = st.builds(ConvergenceRow, h=st.floats(), tau=_optional,
                 error=st.floats(), temporal_order=_optional,
                 spatial_order=_optional)
_fields = st.tuples(_text, _text, st.floats(), _text,
                    st.lists(_row, min_size=1, max_size=3).map(tuple))


def _csv_bytes(reports, path):
    rows = [row for rep in reports for row in rep.csv_rows()]
    columns = list(zip(*rows)) or [[]] * len(CONVERGENCE_HEADER)
    write_csv(path, CONVERGENCE_HEADER, columns)
    return path.read_bytes()


def _special(text):
    return any(c in text for c in ',"\r\n')


@given(st.lists(_fields, max_size=4,
                unique_by=lambda f: (f[0], f[1], fmt(f[2]), f[3])))
def test_csv_round_trip_is_byte_exact(fields):
    reports = [ConvergenceReport(*f) for f in fields]
    with tempfile.TemporaryDirectory() as tmp:
        if any(_special(text) for f in fields for text in (f[0], f[1], f[3])):
            # fields are never quoted, so write_csv refuses the table
            with pytest.raises(ValueError, match="never quoted"):
                _csv_bytes(reports, Path(tmp) / "a.csv")
            assert not (Path(tmp) / "a.csv").exists()
            return
        first = _csv_bytes(reports, Path(tmp) / "a.csv")
        again = _csv_bytes(read_convergence_csv(Path(tmp) / "a.csv"),
                           Path(tmp) / "b.csv")
    assert again == first


_HEAD = ",".join(CONVERGENCE_HEADER) + "\n"
_ROW = "riesz-p2,x^2(1-x)^2,5e-01,abs,0.5,,1e-3,,\n"


@pytest.mark.parametrize("text, line", [
    (_HEAD + "riesz-p2,x,5e-01,abs\n", 2),
    (_HEAD + _ROW + _ROW[:-1] + ",1\n", 3),
    (_HEAD + '"riesz,p2",x,5e-01,abs,0.5,,1e-3,,\n', 2),
    (_HEAD + _ROW[:-1] + "\r\n", 2),
    (_HEAD[:-1] + "\r\n" + _ROW, 1),
    (",".join(CONVERGENCE_HEADER[:-1]) + "\n" + _ROW, 1),
    ("", 1),
], ids=["short-row", "long-row", "quoted-field", "crlf-row", "crlf-file",
        "wrong-header", "empty-file"])
def test_read_convergence_csv_refuses_malformed_lines(tmp_path, text, line):
    # every malformed line is refused by its number, never an IndexError
    # or a quoted field read through another dialect
    (tmp_path / "c.csv").write_bytes(text.encode())
    with pytest.raises(ValueError, match=f"^line {line}: "):
        read_convergence_csv(tmp_path / "c.csv")


# Tables of plain fields, which write_csv writes as csv.writer does, and the
# same with one field that would need quoting: a CSV metacharacter (the
# lone '\r' included), or any field of a one-column table.  A column is a
# list of texts or a str, which repeats its value on every row.
_plain = st.text(st.characters(max_codepoint=127, blacklist_characters=',"\r\n'),
                 max_size=6)
_metachar = st.one_of(st.sampled_from([",", '"', "\r", "\n", "\r\n"]),
                      _text.filter(_special))


@st.composite
def _table(draw):
    width = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    header = draw(st.lists(_plain, min_size=width, max_size=width))
    columns = [draw(_plain) if draw(st.booleans())
               else draw(st.lists(_plain, min_size=n, max_size=n))
               for _ in range(width)]
    if draw(st.booleans()):
        j = draw(st.integers(0, width - 1))
        if draw(st.booleans()):
            header[j] = draw(_metachar)
        elif isinstance(columns[j], str) or not columns[j] or draw(st.booleans()):
            columns[j] = draw(_metachar)
        else:
            columns[j][draw(st.integers(0, n - 1))] = draw(_metachar)
    if all(isinstance(c, str) for c in columns):
        n = 0
    return header, columns, n


def _rows(columns, n):
    return [[c if isinstance(c, str) else c[i] for c in columns] for i in range(n)]


@given(_table())
@example((["a", "b"], [["1", ""], ["2", "x"]], 2))
@example((["", ""], [["", ""], ["", ""]], 2))
@example(([""], [["1", "2"]], 2))
@example((["a"], [["x", ""]], 2))
@example((["a", "b"], [",", ["1", "2"]], 2))
@example((["a", "b"], [["x", 'y"'], ["1", "2"]], 2))
@example((["a", "b"], [["x", "y\r"], ["1", "2"]], 2))
@example((["a", "b\n"], [["x", "y"], ["1", "2"]], 2))
@example((["a", "b"], ["x", "y"], 0))
def test_write_csv_matches_csv_writer(table):
    header, columns, n = table
    with tempfile.TemporaryDirectory() as tmp:
        fast, naive = Path(tmp) / "fast.csv", Path(tmp) / "naive.csv"
        written = header + [f for row in _rows(columns, n) for f in row]
        if len(header) < 2 or any(map(_special, written)):
            with pytest.raises(ValueError):
                write_csv(fast, header, columns)
            assert not fast.exists()
            return
        write_csv(fast, header, columns)
        naive_write_csv(naive, header, _rows(columns, n))
        assert fast.read_bytes() == naive.read_bytes()


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [["1", "2"], ["3"]]),
    (["a", "b", "c"], ["x", ["1"], ["2", "3"]]),
    (["a", "b"], [["1"]]),
    (["a"], [["1"], ["2"]]),
    ([], [["1"]]),
], ids=["unequal", "unequal-after-str", "too-few", "too-many", "no-header"])
def test_write_csv_rejects_ragged_columns(tmp_path, header, columns):
    with pytest.raises(ValueError, match="columns"):
        write_csv(tmp_path / "t.csv", header, columns)
    assert not (tmp_path / "t.csv").exists()
    # the text table takes the same columns, and refuses them alike
    with pytest.raises(ValueError, match="columns"):
        text_table("t", header, columns)


def test_fmt_column_matches_fmt():
    values = [0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan,
              np.float64(1) / 3, 0.1]
    assert fmt_column(values) == [fmt(v) for v in values]
    assert fmt_column(np.array(values)) == [fmt(v) for v in values]



def test_convergence_rows_observed_orders():
    rows = convergence_rows([(0.5, 0.25, 4e-3), (0.25, 0.0625, 1e-3)])
    assert rows[0] == ConvergenceRow(0.5, 0.25, 4e-3, None, None)
    assert rows[1] == ConvergenceRow(0.25, 0.0625, 1e-3,
                                     math.log(4e-3 / 1e-3) / math.log(0.25 / 0.0625),
                                     math.log(4e-3 / 1e-3) / math.log(0.5 / 0.25))
    assert (rows[1].temporal_order, rows[1].spatial_order) == (1.0, 2.0)
    assert convergence_rows([]) == ()


@pytest.mark.parametrize("e0, e", [(0.0, 1.0), (1.0, 0.0), (-1.0, 0.5), (math.nan, 0.5)])
def test_convergence_rows_need_positive_errors(e0, e):
    rows = convergence_rows([(0.5, 0.5, e0), (0.25, 0.25, e)])
    assert (rows[1].temporal_order, rows[1].spatial_order) == (None, None)


def test_convergence_rows_unchanged_step_has_no_order():
    # tau None in both rungs is the operator studies' case
    for tau0, tau in ((None, None), (0.1, 0.1)):
        rows = convergence_rows([(0.5, tau0, 4e-3), (0.25, tau, 1e-3)])
        assert rows[1].temporal_order is None
        assert rows[1].spatial_order == 2.0
    rows = convergence_rows([(0.5, 0.2, 4e-3), (0.5, 0.1, 2e-3)])
    assert (rows[1].temporal_order, rows[1].spatial_order) == (1.0, None)
