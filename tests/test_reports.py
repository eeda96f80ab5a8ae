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
    fmt,
    fmt_column,
    read_convergence_csv,
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
    write_csv(path, CONVERGENCE_HEADER,
              [row for rep in reports for row in rep.csv_rows()])
    return path.read_bytes()


@given(st.lists(_fields, max_size=4,
                unique_by=lambda f: (f[0], f[1], fmt(f[2]), f[3])))
def test_csv_round_trip_is_byte_exact(fields):
    if any("\r" in text for f in fields for text in (f[0], f[1], f[3])):
        with pytest.raises(ValueError, match="carriage return"):
            [ConvergenceReport(*f) for f in fields]
        return
    reports = [ConvergenceReport(*f) for f in fields]
    with tempfile.TemporaryDirectory() as tmp:
        first = _csv_bytes(reports, Path(tmp) / "a.csv")
        again = _csv_bytes(read_convergence_csv(Path(tmp) / "a.csv"),
                           Path(tmp) / "b.csv")
    assert again == first


# Tables of plain fields, which write_csv joins directly, and the same with
# one field or one row that csv.writer treats apart: a field holding a CSV
# metacharacter (the lone '\r' included), or a row of one field or none.
_plain = st.text(st.characters(max_codepoint=127, blacklist_characters=',"\r\n'),
                 max_size=6)
_special = st.one_of(st.sampled_from(["", ",", '"', "\r", "\n", "\r\n"]), _text)


@st.composite
def _table(draw):
    rows = draw(st.lists(st.lists(_plain, min_size=2, max_size=4),
                         min_size=1, max_size=6))
    kind = draw(st.sampled_from(["plain", "field", "row"]))
    if kind == "field":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(_special)
    elif kind == "row":
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.lists(_special | _plain, max_size=1)))
    return rows[0], rows[1:]


@given(_table())
@example((["a", "b"], [["1", "2"], [""]]))
@example(([""], [["1", "2"]]))
@example((["a", "b"], [[], ["x"]]))
def test_write_csv_matches_csv_writer(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(Path(tmp) / "fast.csv", header, rows)
        naive_write_csv(Path(tmp) / "naive.csv", header, rows)
        assert ((Path(tmp) / "fast.csv").read_bytes()
                == (Path(tmp) / "naive.csv").read_bytes())


def test_fmt_column_matches_fmt():
    values = [0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan,
              np.float64(1) / 3, 0.1]
    assert fmt_column(values) == [fmt(v) for v in values]
    assert fmt_column(np.array(values)) == [fmt(v) for v in values]

