"""CSV serialization of convergence reports."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieszkit.reports import (
    CONVERGENCE_HEADER,
    ConvergenceReport,
    ConvergenceRow,
    fmt,
    read_convergence_csv,
    write_csv,
)

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

