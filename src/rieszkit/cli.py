"""Benchmark command line: deterministic CSV and text reports.

    rieszkit <subcommand> --config <path> [--out <dir>]

Subcommands: coeffs, symbol, bounds, monotonicity, riesz, solve,
convergence, stability.  Exit codes: 0 success, 1 usage or configuration
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    evaluate_bounds,
    monotonicity_scan,
    symbol_scan,
    symbol_values,
)
from .coefficients import MAX_GRID, check_count, expand_generating_function
from .config import (
    UsageError,
    load_config,
    parse_float,
    parse_float_list,
    parse_int,
    parse_ladder,
    section,
)
from .reports import (
    CONVERGENCE_HEADER,
    convergence_text,
    fmt,
    fmt_column,
    text_table,
    write_csv,
)
from .riesz import operator_convergence
from .solver import SolverError, builtin_problem, convergence_study, solve
from .stability import stability_scan


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _rows(*columns):
    """CSV rows from columns of text; a str column is one value repeated."""
    return zip(*(repeat(c) if isinstance(c, str) else c for c in columns))


def _write_outputs(out: Path, name: str, header, csv_rows, text: str,
                   params: list[str]) -> None:
    """Write <name>.csv, <name>.txt and manifest.txt, which opens with the
    version and the command and goes on with one line per parameter."""
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / f"{name}.csv", header, csv_rows)
    (out / f"{name}.txt").write_text(text)
    manifest = [f"rieszkit {__version__}", f"command = {name}", *params]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n")
    print(f"wrote {out / f'{name}.csv'}")
    print(f"wrote {out / f'{name}.txt'}")


def _convergence_outputs(reports, params):
    rows = [row for rep in reports for row in rep.csv_rows()]
    return CONVERGENCE_HEADER, rows, convergence_text(reports), params


def _cmd_coeffs(sec):
    p = parse_int(sec.get("p", ""), "p")
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    length = parse_int(sec.get("length", "200"), "length")
    rows, text_rows = [], []
    for a in alphas:
        table = expand_generating_function(p, a, length)
        rows.extend(_rows(str(p), fmt(a), map(str, range(len(table.values))),
                          fmt_column(table.values)))
        text_rows.append([str(p), f"{a:g}", str(length), f"{table.values[-1]:.6e}"])
    text = text_table(f"weights p={p}", ["p", "alpha", "length", "last value"],
                      text_rows)
    return (["p", "alpha", "ell", "value"], rows, text,
            [f"p = {p}", f"alpha = {alphas}", f"length = {length}"])


def _cmd_symbol(sec):
    p = parse_int(sec.get("p", ""), "p")
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    grid = parse_int(sec.get("theta_grid", "4096"), "theta_grid")
    check_count("theta_grid", grid, 1024, MAX_GRID)
    thetas = np.linspace(-math.pi, math.pi, grid)
    theta_text = fmt_column(thetas)
    rows, summary = [], []
    for a in alphas:
        vals = symbol_values(p, a, thetas)
        rows.extend(_rows(str(p), fmt(a), theta_text, fmt_column(vals)))
        scan = symbol_scan(p, a, thetas, vals)
        summary.append([str(p), f"{a:g}", f"{scan.min_value:.6e}",
                        f"{scan.theta_at_min:.6f}",
                        "yes" if scan.nonnegative else "no"])
    text = text_table(f"symbol minima p={p}",
                      ["p", "alpha", "min value", "theta at min", "nonnegative"],
                      summary)
    return (["p", "alpha", "theta", "value"], rows, text,
            [f"p = {p}", f"alpha = {alphas}", f"theta_grid = {grid}"])


def _cmd_bounds(sec):
    family = sec.get("family", "").strip()
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    ell_min = parse_int(sec.get("ell_min", "3"), "ell_min")
    ell_max = parse_int(sec.get("ell_max", "100"), "ell_max")
    records, rows = [], []
    for a in alphas:
        recs = evaluate_bounds(family, a, ell_min, ell_max)
        records.extend(recs)
        rows.extend(_rows(family, fmt(a), [str(r.ell) for r in recs],
                          fmt_column([r.lower for r in recs]),
                          fmt_column([r.observed for r in recs]),
                          fmt_column([r.upper for r in recs]),
                          ["1" if r.holds else "0" for r in recs]))
    fails = [r for r in records if not r.holds]
    text = text_table(
        f"bound family {family}: {len(records) - len(fails)}/{len(records)} hold",
        ["alpha", "ell", "lower", "observed", "upper", "holds"],
        [[f"{r.alpha:g}", str(r.ell), f"{r.lower:.6e}", f"{r.observed:.6e}",
          f"{r.upper:.6e}", "yes" if r.holds else "NO"] for r in records])
    return (["family", "alpha", "ell", "lower", "observed", "upper", "holds"],
            rows, text, [f"family = {family}", f"alpha = {alphas}",
                         f"ell = {ell_min}..{ell_max}"])


def _cmd_monotonicity(sec):
    p = parse_int(sec.get("p", ""), "p")
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    length = parse_int(sec.get("length", "500"), "length")
    rows, text_rows = [], []
    for a in alphas:
        start = monotonicity_scan(p, a, length)
        rows.append([str(p), fmt(a), str(length),
                     "" if start is None else str(start)])
        text_rows.append([str(p), f"{a:g}", str(length),
                          "none" if start is None else str(start)])
    text = text_table(f"monotone tail start p={p}",
                      ["p", "alpha", "scan length", "tail start"], text_rows)
    return (["p", "alpha", "length", "tail_start"], rows, text,
            [f"p = {p}", f"alpha = {alphas}", f"length = {length}"])


def _cmd_riesz(sec):
    p = parse_int(sec.get("p", ""), "p")
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    hs = parse_float_list(sec.get("h", ""), "h")
    metric = sec.get("metric", "midpoint").strip()
    return _convergence_outputs(
        [operator_convergence(p, a, hs, metric=metric) for a in alphas],
        [f"p = {p}", f"alpha = {alphas}", f"h = {hs}", f"metric = {metric}"])


def _cmd_solve(sec):
    scheme = sec.get("scheme", "").strip()
    problem = sec.get("problem", "").strip()
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    M = parse_int(sec.get("m", ""), "M")
    N = parse_int(sec.get("n", ""), "N")
    specs = [builtin_problem(problem, a) for a in alphas]  # all before any solve
    rows, text_rows = [], []
    for a, spec in zip(alphas, specs):
        grid = solve(scheme, spec, M, N)
        x = spec.a + grid.h * np.arange(M + 1)
        ue = spec.exact(x, spec.T)
        rows.extend(_rows(scheme, problem, fmt(a), str(M), str(N), fmt_column(x),
                          fmt_column(grid.final), fmt_column(ue)))
        text_rows.append([scheme, problem, f"{a:g}", str(M), str(N),
                          f"{grid.max_error:.6e}", f"{grid.final_error:.6e}"])
    text = text_table("final-time solution errors",
                      ["scheme", "problem", "alpha", "M", "N",
                       "max error (all levels)", "final-time error"], text_rows)
    return (["scheme", "problem", "alpha", "M", "N", "x", "u", "u_exact"],
            rows, text, [f"scheme = {scheme}", f"problem = {problem}",
                         f"alpha = {alphas}", f"M = {M}", f"N = {N}"])


def _cmd_convergence(sec):
    scheme = sec.get("scheme", "").strip()
    problem = sec.get("problem", "").strip()
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    ladder = parse_ladder(sec.get("ladder", ""))
    specs = [builtin_problem(problem, a) for a in alphas]  # all before any study
    return _convergence_outputs(
        [convergence_study(scheme, problem, s.alpha, ladder) for s in specs],
        [f"scheme = {scheme}", f"problem = {problem}", f"alpha = {alphas}",
         f"ladder = {ladder}"])


def _cmd_stability(sec):
    scheme = sec.get("scheme", "").strip()
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    hs = parse_float_list(sec.get("h", "0.001, 0.01, 0.1, 1"), "h")
    taus = parse_float_list(sec.get("tau", "0.001, 0.01, 0.1, 1"), "tau")
    d1 = parse_float(sec.get("d1", "1"), "d1")
    d2 = parse_float(sec.get("d2", "1"), "d2")
    d_alpha = parse_float(sec.get("d_alpha", "1"), "d_alpha")
    grid = parse_int(sec.get("theta_grid", "4096"), "theta_grid")
    scans, rows = [], []
    for a in alphas:
        part = stability_scan(scheme, a, hs, taus, d1, d2, d_alpha, grid)
        scans.extend(part)
        rows.extend(_rows(scheme, fmt(a), fmt_column([s.h for s in part]),
                          fmt_column([s.tau for s in part]),
                          fmt_column([s.max_abs for s in part]),
                          fmt_column([s.theta_at_max for s in part]),
                          ["1" if s.passed else "0" for s in part]))
    text = text_table(
        f"stability scan {scheme}: {sum(s.passed for s in scans)}/{len(scans)} pass",
        ["alpha", "h", "tau", "max |xi|", "theta at max", "pass"],
        [[f"{s.alpha:g}", f"{s.h:g}", f"{s.tau:g}", f"{s.max_abs:.15f}",
          f"{s.theta_at_max:.6f}", "yes" if s.passed else "NO"] for s in scans])
    return (["scheme", "alpha", "h", "tau", "max_abs_xi", "theta_at_max", "pass"],
            rows, text, [f"scheme = {scheme}", f"alpha = {alphas}",
                         f"h = {hs}", f"tau = {taus}",
                         f"d = ({d1}, {d2}, {d_alpha})", f"theta_grid = {grid}"])


# Each command parses its config section and returns the CSV header, the
# CSV rows, the text table and the manifest's parameter lines.
_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "symbol": _cmd_symbol,
    "bounds": _cmd_bounds,
    "monotonicity": _cmd_monotonicity,
    "riesz": _cmd_riesz,
    "solve": _cmd_solve,
    "convergence": _cmd_convergence,
    "stability": _cmd_stability,
}


def main(argv=None) -> int:
    parser = _Parser(prog="rieszkit", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv)
        sec = section(load_config(args.config), args.command)
        out = sec.get("out") if args.out is None else args.out
        outputs = _COMMANDS[args.command](sec)
        _write_outputs(Path(out or "rieszkit-out"), args.command, *outputs)
    except (SolverError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # counts are bounded before work: this is an allocation within the
        # bounds, such as a dense solve at a large M, on a small machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (UsageError, configparser.Error, ValueError, OSError) as exc:
        # configparser raises interpolation errors ('%' in a value) on
        # reading a key, after the file has loaded; an OSError is an output
        # path that cannot be written: --out naming a file, or a directory
        # below one
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
