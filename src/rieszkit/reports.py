"""Convergence reports and deterministic CSV/text serialization."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np


def fmt(x: float | None) -> str:
    """17-significant-digit scientific notation; exact float round-trip."""
    return "" if x is None else f"{x:.16e}"


def fmt_column(values) -> list[str]:
    """:func:`fmt` of every value of a float array or sequence.

    Python floats format to the same text as ``np.float64`` scalars, in
    about a third of the time, so the column is converted once up front.
    """
    return [f"{v:.16e}" for v in np.asarray(values, dtype=float).tolist()]


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

    def __post_init__(self):
        # write_csv leaves a bare "\r" unquoted; it would read back as a row end
        if any("\r" in text for text in (self.study, self.problem, self.norm)):
            raise ValueError("carriage return in a report text field")

    def csv_rows(self) -> list[list[str]]:
        out = []
        for r in self.rows:
            out.append([self.study, self.problem, fmt(self.alpha), self.norm,
                        fmt(r.h), fmt(r.tau), fmt(r.error),
                        fmt(r.temporal_order), fmt(r.spatial_order)])
        return out


CONVERGENCE_HEADER = ["study", "problem", "alpha", "norm",
                      "h", "tau", "error", "temporal_order", "spatial_order"]


def write_csv(path, header: list[str], rows: list[list[str]]) -> None:
    r"""Header and rows as CSV with "\n" line ends, quoted as the csv
    module's minimal quoting does.

    A table with no ',', '"', '\r' or '\n' inside a field, and no row of
    fewer than two fields, needs no quoting, so its rows are joined
    directly.  Comparing character counts of the joined text with the
    field and row counts finds every other table, and csv.writer writes
    it.  A '\r' goes that way too, so how csv quotes it is csv's choice.
    """
    table = [header, *rows]
    text = "\n".join([",".join(row) for row in table]) + "\n"
    if (min(map(len, table)) < 2
            or text.count(",") != sum(map(len, table)) - len(table)
            or text.count("\n") != len(table) or '"' in text or "\r" in text):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        text = buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(text)


def read_convergence_csv(path) -> list[ConvergenceReport]:
    """Rebuild reports from a CSV written by the CLI; exact round-trip."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CONVERGENCE_HEADER:
            raise ValueError(f"unexpected CSV header: {header}")
        groups: dict[tuple, list[ConvergenceRow]] = {}
        order: list[tuple] = []
        for rec in reader:
            key = (rec[0], rec[1], rec[2], rec[3])
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(ConvergenceRow(
                h=parse(rec[4]), tau=parse(rec[5]), error=parse(rec[6]),
                temporal_order=parse(rec[7]), spatial_order=parse(rec[8])))
    return [ConvergenceReport(study=k[0], problem=k[1], alpha=float(k[2]),
                              norm=k[3], rows=tuple(groups[k]))
            for k in order]


def text_table(title: str, header: list[str], rows: list[list[str]]) -> str:
    """Fixed-width table for eyeball comparison against published layouts."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    line = "  ".join(f"{{:<{w}}}" for w in widths).format
    lines = [title, line(*header), "  ".join("-" * w for w in widths)]
    lines += [line(*row) for row in rows]
    return "\n".join(lines) + "\n"


def convergence_text(reports: list[ConvergenceReport]) -> str:
    chunks = []
    for rep in reports:
        head = ["h", "tau", "error", "temporal order", "spatial order"]
        rows = []
        for r in rep.rows:
            rows.append([
                f"1/{round(1 / r.h)}" if r.h and abs(1 / r.h - round(1 / r.h)) < 1e-9 else f"{r.h:g}",
                "" if r.tau is None else (
                    f"1/{round(1 / r.tau)}" if abs(1 / r.tau - round(1 / r.tau)) < 1e-9 else f"{r.tau:g}"),
                f"{r.error:.6e}",
                "---" if r.temporal_order is None else f"{r.temporal_order:.4f}",
                "---" if r.spatial_order is None else f"{r.spatial_order:.4f}",
            ])
        title = (f"{rep.study} | problem {rep.problem} | alpha = {rep.alpha:g} "
                 f"| norm = {rep.norm}")
        chunks.append(text_table(title, head, rows))
    return "\n".join(chunks)
