"""Convergence reports and deterministic CSV/text serialization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def fmt(x: float | None) -> str:
    """17-significant-digit scientific notation; exact float round-trip."""
    return "" if x is None else f"{x:.16e}"


def fmt_column(values, spec: str = ".16e") -> list[str]:
    """Every value of a float array or sequence in the format ``spec``, by
    default that of :func:`fmt`.

    Python floats format to the same text as ``np.float64`` scalars, in
    about a third of the time, so the column is converted once up front.
    """
    return [f"{v:{spec}}" for v in np.asarray(values, dtype=float).tolist()]


def parse(field: str) -> float | None:
    return None if field == "" else float(field)


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    tau: float | None
    error: float
    temporal_order: float | None
    spatial_order: float | None


def _order(e0: float, e: float, x0, x) -> float | None:
    if x0 == x or not (e > 0.0 and e0 > 0.0):
        return None
    return math.log(e0 / e) / math.log(x0 / x)


def convergence_rows(rungs) -> tuple[ConvergenceRow, ...]:
    """Rows of (h, tau, error) rungs, each with the orders observed against
    the rung before it: log(e0 / e) / log(tau0 / tau) and the same with h.

    An order is None on the first rung, where its step did not change (tau
    None in both rungs) and where either error is not positive.
    """
    rows: list[ConvergenceRow] = []
    for h, tau, e in rungs:
        # the first rung compares with itself, where neither step changed
        r = rows[-1] if rows else ConvergenceRow(h, tau, e, None, None)
        rows.append(ConvergenceRow(h, tau, e, _order(r.error, e, r.tau, tau),
                                   _order(r.error, e, r.h, h)))
    return tuple(rows)


@dataclass(frozen=True)
class ConvergenceReport:
    study: str
    problem: str
    alpha: float
    norm: str
    rows: tuple[ConvergenceRow, ...]

    def csv_rows(self) -> list[list[str]]:
        out = []
        for r in self.rows:
            out.append([self.study, self.problem, fmt(self.alpha), self.norm,
                        fmt(r.h), fmt(r.tau), fmt(r.error),
                        fmt(r.temporal_order), fmt(r.spatial_order)])
        return out


CONVERGENCE_HEADER = ["study", "problem", "alpha", "norm",
                      "h", "tau", "error", "temporal_order", "spatial_order"]


def _table(header: list[str], columns) -> tuple[int, list]:
    """Row count and columns of a table that both writers take: one entry
    per header field, a sequence of texts, all of one length, or a str,
    which comes back as that value on every row (no rows if every column
    is a str).  ValueError: unequal lengths or a count other than
    ``len(header)``."""
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header fields")
    lengths = {len(c) for c in columns if not isinstance(c, str)}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    return n, [[c] * n if isinstance(c, str) else c for c in columns]


def write_csv(path, header: list[str], columns) -> None:
    r"""Header and columns of text as CSV with "\n" line ends and no quoted
    field.

    ``columns`` are as :func:`_table` takes them.  The lines are joined in
    one pass; zip reuses its tuple, so no object per row outlives the join.

    ValueError, raised before the file is opened: the column errors of
    :func:`_table`, fewer than two columns (where an empty field would
    need quoting) or a ',', '"', '\r' or '\n' inside a field, found by
    comparing the joined text's character counts with the field and row
    counts.
    """
    n, columns = _table(header, columns)
    if len(header) < 2:
        raise ValueError(f"a CSV table needs two columns or more, got {len(header)}")
    text = "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"
    if (text.count(",") != (len(header) - 1) * (n + 1)
            or text.count("\n") != n + 1 or '"' in text or "\r" in text):
        raise ValueError("a CSV field holds ',', '\"', '\\r' or '\\n'; "
                         "fields are never quoted")
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _fields(number: int, line: str) -> list[str]:
    if '"' in line or "\r" in line:
        raise ValueError(f"line {number}: a '\"' or '\\r'; fields are never "
                         "quoted and lines end in '\\n'")
    return line.removesuffix("\n").split(",")


def read_convergence_csv(path) -> list[ConvergenceReport]:
    r"""Rebuild reports from a CSV written by the CLI; exact round-trip.

    Each line is split on ','.  A line holding '"' or '\r' (a CRLF file
    included), a header other than CONVERGENCE_HEADER and a row of another
    field count raise ValueError naming the line number.
    """
    groups: dict[tuple, list[ConvergenceRow]] = {}
    with open(path, newline="") as fh:
        header = _fields(1, fh.readline())
        if header != CONVERGENCE_HEADER:
            raise ValueError(f"line 1: unexpected CSV header: {header}")
        for number, line in enumerate(fh, 2):
            fields = _fields(number, line)
            if len(fields) != len(header):
                raise ValueError(f"line {number}: {len(fields)} fields, "
                                 f"expected {len(header)}")
            groups.setdefault(tuple(fields[:4]), []).append(
                ConvergenceRow(*map(parse, fields[4:])))
    return [ConvergenceReport(study=k[0], problem=k[1], alpha=float(k[2]),
                              norm=k[3], rows=tuple(rows))
            for k, rows in groups.items()]


def text_table(title: str, header: list[str], columns) -> str:
    """Fixed-width table for eyeball comparison against published layouts;
    ``columns`` are as :func:`write_csv` takes them."""
    _, columns = _table(header, columns)
    widths = [max(len(h), max(map(len, c), default=0))
              for h, c in zip(header, columns)]
    line = "  ".join(f"{{:<{w}}}" for w in widths).format
    lines = [title, line(*header), "  ".join("-" * w for w in widths),
             *map(line, *columns)]
    return "\n".join(lines) + "\n"


def _step_text(x: float) -> str:
    """1/n for the reciprocal of an integer n, else %g."""
    if x and abs(1 / x - round(1 / x)) < 1e-9:
        return f"1/{round(1 / x)}"
    return f"{x:g}"


def _order_text(order: float | None) -> str:
    return "---" if order is None else f"{order:.4f}"


def convergence_text(reports: list[ConvergenceReport]) -> str:
    chunks = []
    for rep in reports:
        title = (f"{rep.study} | problem {rep.problem} | alpha = {rep.alpha:g} "
                 f"| norm = {rep.norm}")
        chunks.append(text_table(
            title, ["h", "tau", "error", "temporal order", "spatial order"],
            [[_step_text(r.h) for r in rep.rows],
             ["" if r.tau is None else _step_text(r.tau) for r in rep.rows],
             [f"{r.error:.6e}" for r in rep.rows],
             [_order_text(r.temporal_order) for r in rep.rows],
             [_order_text(r.spatial_order) for r in rep.rows]]))
    return "\n".join(chunks)
