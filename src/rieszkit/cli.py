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
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    bound_families,
    check_symbol_nonnegativity,
    evaluate_bounds,
    monotonicity_scan,
    symbol_values,
)
from .coefficients import expand_generating_function
from .config import (
    UsageError,
    load_config,
    parse_float,
    parse_float_list,
    parse_int,
    parse_ladder,
    require_alpha_open_unit,
    section,
)
from .reports import (
    CONVERGENCE_HEADER,
    convergence_text,
    fmt,
    text_table,
    write_csv,
)
from .riesz import operator_convergence
from .solver import SolverError, builtin_problem, convergence_study, solve
from .stability import stability_scan


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_outputs(out: Path, name: str, header, csv_rows, text: str,
                   manifest: list[str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / f"{name}.csv", header, csv_rows)
    (out / f"{name}.txt").write_text(text)
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n")
    print(f"wrote {out / f'{name}.csv'}")
    print(f"wrote {out / f'{name}.txt'}")


def _cmd_coeffs(cfg, out: Path) -> None:
    sec = section(cfg, "coeffs")
    p = parse_int(sec.get("p", ""), "p")
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    length = parse_int(sec.get("length", "200"), "length")
    rows, text_rows = [], []
    for a in alphas:
        table = expand_generating_function(p, a, length)
        for ell, v in enumerate(table.values):
            rows.append([str(p), fmt(a), str(ell), fmt(v)])
        text_rows.append([str(p), f"{a:g}", str(length), f"{table.values[-1]:.6e}"])
    text = text_table(f"weights p={p}", ["p", "alpha", "length", "last value"],
                      text_rows)
    _write_outputs(out, "coeffs", ["p", "alpha", "ell", "value"], rows, text,
                   [f"rieszkit {__version__}", "command = coeffs",
                    f"p = {p}", f"alpha = {alphas}", f"length = {length}"])


def _cmd_symbol(cfg, out: Path) -> None:
    sec = section(cfg, "symbol")
    p = parse_int(sec.get("p", ""), "p")
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    grid = parse_int(sec.get("theta_grid", "4096"), "theta_grid")
    thetas = np.linspace(-math.pi, math.pi, grid)
    rows, summary = [], []
    for a in alphas:
        vals = symbol_values(p, a, thetas)
        rows.extend([str(p), fmt(a), fmt(t), fmt(v)]
                    for t, v in zip(thetas, vals))
        scan = check_symbol_nonnegativity(p, a, grid)
        summary.append([str(p), f"{a:g}", f"{scan.min_value:.6e}",
                        f"{scan.theta_at_min:.6f}",
                        "yes" if scan.nonnegative else "no"])
    text = text_table(f"symbol minima p={p}",
                      ["p", "alpha", "min value", "theta at min", "nonnegative"],
                      summary)
    _write_outputs(out, "symbol", ["p", "alpha", "theta", "value"], rows, text,
                   [f"rieszkit {__version__}", "command = symbol",
                    f"p = {p}", f"alpha = {alphas}", f"theta_grid = {grid}"])


def _cmd_bounds(cfg, out: Path) -> None:
    sec = section(cfg, "bounds")
    family = sec.get("family", "").strip()
    if family not in bound_families():
        raise UsageError(
            f"unknown bound family {family!r}; choose from {bound_families()}")
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    ell_min = parse_int(sec.get("ell_min", "3"), "ell_min")
    ell_max = parse_int(sec.get("ell_max", "100"), "ell_max")
    records = [r for a in alphas
               for r in evaluate_bounds(family, a, ell_min, ell_max)]
    rows = [[r.family, fmt(r.alpha), str(r.ell), fmt(r.lower), fmt(r.observed),
             fmt(r.upper), "1" if r.holds else "0"] for r in records]
    fails = [r for r in records if not r.holds]
    text = text_table(
        f"bound family {family}: {len(records) - len(fails)}/{len(records)} hold",
        ["alpha", "ell", "lower", "observed", "upper", "holds"],
        [[f"{r.alpha:g}", str(r.ell), f"{r.lower:.6e}", f"{r.observed:.6e}",
          f"{r.upper:.6e}", "yes" if r.holds else "NO"] for r in records])
    _write_outputs(out, "bounds",
                   ["family", "alpha", "ell", "lower", "observed", "upper", "holds"],
                   rows, text,
                   [f"rieszkit {__version__}", "command = bounds",
                    f"family = {family}", f"alpha = {alphas}",
                    f"ell = {ell_min}..{ell_max}"])


def _cmd_monotonicity(cfg, out: Path) -> None:
    sec = section(cfg, "monotonicity")
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
    _write_outputs(out, "monotonicity", ["p", "alpha", "length", "tail_start"],
                   rows, text,
                   [f"rieszkit {__version__}", "command = monotonicity",
                    f"p = {p}", f"alpha = {alphas}", f"length = {length}"])


def _cmd_riesz(cfg, out: Path) -> None:
    sec = section(cfg, "riesz")
    p = parse_int(sec.get("p", ""), "p")
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    hs = parse_float_list(sec.get("h", ""), "h")
    metric = sec.get("metric", "midpoint").strip()
    reports = [operator_convergence(p, a, hs, metric=metric) for a in alphas]
    rows = [row for rep in reports for row in rep.csv_rows()]
    _write_outputs(out, "riesz", CONVERGENCE_HEADER, rows,
                   convergence_text(reports),
                   [f"rieszkit {__version__}", "command = riesz", f"p = {p}",
                    f"alpha = {alphas}", f"h = {hs}", f"metric = {metric}"])


def _cmd_solve(cfg, out: Path) -> None:
    sec = section(cfg, "solve")
    scheme = sec.get("scheme", "").strip()
    problem = sec.get("problem", "").strip()
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    require_alpha_open_unit(alphas)
    M = parse_int(sec.get("m", ""), "M")
    N = parse_int(sec.get("n", ""), "N")
    rows, text_rows = [], []
    for a in alphas:
        spec = builtin_problem(problem, a)
        grid = solve(scheme, spec, M, N)
        x = spec.a + grid.h * np.arange(M + 1)
        ue = spec.exact(x, spec.T)
        for j in range(M + 1):
            rows.append([scheme, problem, fmt(a), str(M), str(N), fmt(x[j]),
                         fmt(grid.values[N, j]), fmt(ue[j])])
        text_rows.append([scheme, problem, f"{a:g}", str(M), str(N),
                          f"{grid.max_error:.6e}", f"{grid.final_error:.6e}"])
    text = text_table("final-time solution errors",
                      ["scheme", "problem", "alpha", "M", "N",
                       "max error (all levels)", "final-time error"], text_rows)
    _write_outputs(out, "solve",
                   ["scheme", "problem", "alpha", "M", "N", "x", "u", "u_exact"],
                   rows, text,
                   [f"rieszkit {__version__}", "command = solve",
                    f"scheme = {scheme}", f"problem = {problem}",
                    f"alpha = {alphas}", f"M = {M}", f"N = {N}"])


def _cmd_convergence(cfg, out: Path) -> None:
    sec = section(cfg, "convergence")
    scheme = sec.get("scheme", "").strip()
    problem = sec.get("problem", "").strip()
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    require_alpha_open_unit(alphas)
    ladder = parse_ladder(sec.get("ladder", ""))
    reports = [convergence_study(scheme, problem, a, ladder) for a in alphas]
    rows = [row for rep in reports for row in rep.csv_rows()]
    _write_outputs(out, "convergence", CONVERGENCE_HEADER, rows,
                   convergence_text(reports),
                   [f"rieszkit {__version__}", "command = convergence",
                    f"scheme = {scheme}", f"problem = {problem}",
                    f"alpha = {alphas}", f"ladder = {ladder}"])


def _cmd_stability(cfg, out: Path) -> None:
    sec = section(cfg, "stability")
    scheme = sec.get("scheme", "").strip()
    alphas = parse_float_list(sec.get("alpha", ""), "alpha")
    require_alpha_open_unit(alphas)
    hs = parse_float_list(sec.get("h", "0.001, 0.01, 0.1, 1"), "h")
    taus = parse_float_list(sec.get("tau", "0.001, 0.01, 0.1, 1"), "tau")
    d1 = parse_float(sec.get("d1", "1"), "d1")
    d2 = parse_float(sec.get("d2", "1"), "d2")
    d_alpha = parse_float(sec.get("d_alpha", "1"), "d_alpha")
    grid = parse_int(sec.get("theta_grid", "4096"), "theta_grid")
    scans = [s for a in alphas
             for s in stability_scan(scheme, a, hs, taus, d1, d2, d_alpha, grid)]
    rows = [[s.scheme, fmt(s.alpha), fmt(s.h), fmt(s.tau), fmt(s.max_abs),
             fmt(s.theta_at_max), "1" if s.passed else "0"] for s in scans]
    text = text_table(
        f"stability scan {scheme}: {sum(s.passed for s in scans)}/{len(scans)} pass",
        ["alpha", "h", "tau", "max |xi|", "theta at max", "pass"],
        [[f"{s.alpha:g}", f"{s.h:g}", f"{s.tau:g}", f"{s.max_abs:.15f}",
          f"{s.theta_at_max:.6f}", "yes" if s.passed else "NO"] for s in scans])
    _write_outputs(out, "stability",
                   ["scheme", "alpha", "h", "tau", "max_abs_xi", "theta_at_max",
                    "pass"],
                   rows, text,
                   [f"rieszkit {__version__}", "command = stability",
                    f"scheme = {scheme}", f"alpha = {alphas}",
                    f"h = {hs}", f"tau = {taus}",
                    f"d = ({d1}, {d2}, {d_alpha})", f"theta_grid = {grid}"])


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
        cfg = load_config(args.config)
        sec_name = args.command
        out_dir = args.out
        if out_dir is None and cfg.has_section(sec_name):
            out_dir = cfg[sec_name].get("out", None)
        out = Path(out_dir) if out_dir else Path("rieszkit-out")
        _COMMANDS[args.command](cfg, out)
    except (UsageError, configparser.Error) as exc:
        # configparser raises interpolation errors ('%' in a value) on
        # reading a key, after the file has loaded
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a huge length or grid size fails its allocation (NumPy raises a
        # MemoryError subclass naming the shape)
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
