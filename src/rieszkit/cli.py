"""Benchmark command line: deterministic CSV and text reports.

    rieszkit <subcommand> --config <path> [--out <dir>]

Subcommands: coeffs, symbol, bounds, monotonicity, riesz, solve,
convergence, stability.  Exit codes: 0 success, 1 usage or configuration
error, 2 numerical failure.

The config is flat `key = value` text under [section] headers, one
section per subcommand.  `_COMMANDS` declares each subcommand's keys;
`main` alone reads the section, refuses any other key but `out`, and
calls the command with the parsed values.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import evaluate_bounds, monotonicity_scan, symbol_scan, symbol_values
from .coefficients import (MAX_GRID, MAX_SERIES_LENGTH, check_count,
                           expand_generating_function)
from .reports import (CONVERGENCE_HEADER, convergence_text, fmt, fmt_column,
                      text_table, write_csv)
from .riesz import operator_convergence
from .solver import (MAX_WORK, SolverError, builtin_problem, check_solve,
                     convergence_study, solve)
from .stability import stability_scan


class UsageError(Exception):
    """Invalid command line, configuration or parameter combination."""


def load_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except OSError as exc:  # a directory, or a file that cannot be read
        raise UsageError(f"cannot read config file {path}: {exc.strerror}")
    except configparser.Error as exc:
        raise UsageError(f"config parse error: {exc}")
    return cp


def parse_word(text: str, key: str) -> str:
    return text.strip()


def parse_float(text: str, key: str) -> float:
    try:
        return float(Fraction(text.strip())) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"invalid number for '{key}': {text!r}")


def parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"invalid integer for '{key}': {text!r}")


# Largest number of values one 'a:b:step' range may expand to.
_MAX_RANGE_VALUES = 100_000


def parse_float_list(text: str, key: str) -> list[float]:
    """Comma list of numbers; 'a:b:step' expands to an inclusive range of
    at most _MAX_RANGE_VALUES values."""
    items: list[float] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.count(":") == 2:
            lo, hi, st = (parse_float(part, key) for part in chunk.split(":"))
            span = (hi - lo) / st if st > 0 else math.nan
            if not (lo <= hi and 0.0 <= span < _MAX_RANGE_VALUES):
                raise UsageError(
                    f"invalid range for '{key}': {chunk!r} (finite bounds, "
                    f"positive step, at most {_MAX_RANGE_VALUES} values)")
            n = int(round(span))
            items.extend(lo + i * st for i in range(n + 1))
        else:
            items.append(parse_float(chunk, key))
    if not items:
        raise UsageError(f"'{key}' must contain at least one value")
    return items


def parse_ladder(text: str, key: str) -> list[tuple[int, int]]:
    """Comma list of M:N pairs, strictly refining in both directions."""
    pairs: list[tuple[int, int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise UsageError(f"invalid ladder entry for '{key}': {chunk!r}")
        pairs.append((parse_int(parts[0], key), parse_int(parts[1], key)))
    if not pairs:
        raise UsageError(f"'{key}' must contain at least one M:N pair")
    for (m0, n0), (m1, n1) in zip(pairs, pairs[1:]):
        if m1 <= m0 or n1 <= n0:
            raise UsageError(f"'{key}' must be strictly refining, got {pairs}")
    return pairs


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Most rows of a coeffs, symbol, bounds or solve table, all alphas
# together.  A first-order bounds row, with a record and a text line each,
# takes 1.4 KB: 0.7 GB and 7 to 15 s at the bound (README "Counts").
_MAX_TABLE_ROWS = 5 * 10**5


def _check_rows(alphas, rows_per_alpha: int) -> None:
    check_count(f"table rows (alphas x rows per alpha = {len(alphas)} x "
                f"{rows_per_alpha})", len(alphas) * rows_per_alpha, 0,
                _MAX_TABLE_ROWS)


def _check_work(scheme, alphas, ladder) -> None:
    """Check each (M, N) pair as solve does, then bound the work of every
    solve of a run together, each alpha's sum of N (M - 1)**2 over its
    pairs, by solve's own bound."""
    for M, N in ladder:
        check_solve(scheme, M, N)
    work = sum(N * (M - 1) ** 2 for M, N in ladder)
    check_count(f"solve work (alphas x work per alpha = {len(alphas)} x {work})",
                len(alphas) * work, 0, MAX_WORK)


def _write_outputs(out: Path, name: str, header, columns, text: str,
                   params: list[str]) -> None:
    """Write <name>.csv, <name>.txt and manifest.txt, which opens with the
    version and the command and goes on with one line per parameter."""
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / f"{name}.csv", header, columns)
    (out / f"{name}.txt").write_text(text)
    manifest = [f"rieszkit {__version__}", f"command = {name}", *params]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n")
    print(f"wrote {out / f'{name}.csv'}")
    print(f"wrote {out / f'{name}.txt'}")


def _convergence_outputs(reports, params):
    rows = [row for rep in reports for row in rep.csv_rows()]
    return CONVERGENCE_HEADER, list(zip(*rows)), convergence_text(reports), params


def _cmd_coeffs(p, alphas, length):
    check_count("length", length, 0, MAX_SERIES_LENGTH)
    _check_rows(alphas, length + 1)
    alpha_col, values, text_rows = [], [], []
    for a in alphas:
        table = expand_generating_function(p, a, length)
        alpha_col += [fmt(a)] * (length + 1)
        values += fmt_column(table.values)
        text_rows.append([str(p), f"{a:g}", str(length), f"{table.values[-1]:.6e}"])
    text = text_table(f"weights p={p}", ["p", "alpha", "length", "last value"],
                      text_rows)
    ells = list(map(str, range(length + 1))) * len(alphas)
    return (["p", "alpha", "ell", "value"], [str(p), alpha_col, ells, values], text,
            [f"p = {p}", f"alpha = {alphas}", f"length = {length}"])


def _cmd_symbol(p, alphas, grid):
    check_count("theta_grid", grid, 1024, MAX_GRID)
    _check_rows(alphas, grid)
    thetas = np.linspace(-math.pi, math.pi, grid)
    alpha_col, values, summary = [], [], []
    for a in alphas:
        vals = symbol_values(p, a, thetas)
        alpha_col += [fmt(a)] * grid
        values += fmt_column(vals)
        scan = symbol_scan(p, a, thetas, vals)
        summary.append([str(p), f"{a:g}", f"{scan.min_value:.6e}",
                        f"{scan.theta_at_min:.6f}",
                        "yes" if scan.nonnegative else "no"])
    text = text_table(f"symbol minima p={p}",
                      ["p", "alpha", "min value", "theta at min", "nonnegative"],
                      summary)
    columns = [str(p), alpha_col, fmt_column(thetas) * len(alphas), values]
    return (["p", "alpha", "theta", "value"], columns, text,
            [f"p = {p}", f"alpha = {alphas}", f"theta_grid = {grid}"])


def _cmd_bounds(family, alphas, ell_min, ell_max):
    _check_rows(alphas, max(ell_max - ell_min + 1, 0))
    records, alpha_col = [], []
    for a in alphas:
        recs = evaluate_bounds(family, a, ell_min, ell_max)
        records += recs
        alpha_col += [fmt(a)] * len(recs)
    columns = [family, alpha_col, [str(r.ell) for r in records],
               fmt_column([r.lower for r in records]),
               fmt_column([r.observed for r in records]),
               fmt_column([r.upper for r in records]),
               ["1" if r.holds else "0" for r in records]]
    fails = [r for r in records if not r.holds]
    text = text_table(
        f"bound family {family}: {len(records) - len(fails)}/{len(records)} hold",
        ["alpha", "ell", "lower", "observed", "upper", "holds"],
        [[f"{r.alpha:g}", str(r.ell), f"{r.lower:.6e}", f"{r.observed:.6e}",
          f"{r.upper:.6e}", "yes" if r.holds else "NO"] for r in records])
    return (["family", "alpha", "ell", "lower", "observed", "upper", "holds"],
            columns, text, [f"family = {family}", f"alpha = {alphas}",
                         f"ell = {ell_min}..{ell_max}"])


def _cmd_monotonicity(p, alphas, length):
    starts = [monotonicity_scan(p, a, length) for a in alphas]
    text = text_table(f"monotone tail start p={p}",
                      ["p", "alpha", "scan length", "tail start"],
                      [[str(p), f"{a:g}", str(length),
                        "none" if start is None else str(start)]
                       for a, start in zip(alphas, starts)])
    columns = [str(p), [fmt(a) for a in alphas], str(length),
               ["" if start is None else str(start) for start in starts]]
    return (["p", "alpha", "length", "tail_start"], columns, text,
            [f"p = {p}", f"alpha = {alphas}", f"length = {length}"])


def _cmd_riesz(p, alphas, hs, metric):
    return _convergence_outputs(
        [operator_convergence(p, a, hs, metric=metric) for a in alphas],
        [f"p = {p}", f"alpha = {alphas}", f"h = {hs}", f"metric = {metric}"])


def _cmd_solve(scheme, problem, alphas, M, N):
    _check_rows(alphas, max(M + 1, 0))
    specs = [builtin_problem(problem, a) for a in alphas]  # all before any solve
    _check_work(scheme, alphas, [(M, N)])
    alpha_col, xs, us, exact, text_rows = [], [], [], [], []
    for a, spec in zip(alphas, specs):
        grid = solve(scheme, spec, M, N)
        x = spec.a + grid.h * np.arange(M + 1)
        alpha_col += [fmt(a)] * (M + 1)
        xs += fmt_column(x)
        us += fmt_column(grid.final)
        exact += fmt_column(spec.exact(x, spec.T))
        text_rows.append([scheme, problem, f"{a:g}", str(M), str(N),
                          f"{grid.max_error:.6e}", f"{grid.final_error:.6e}"])
    text = text_table("final-time solution errors",
                      ["scheme", "problem", "alpha", "M", "N",
                       "max error (all levels)", "final-time error"], text_rows)
    columns = [scheme, problem, alpha_col, str(M), str(N), xs, us, exact]
    return (["scheme", "problem", "alpha", "M", "N", "x", "u", "u_exact"],
            columns, text, [f"scheme = {scheme}", f"problem = {problem}",
                         f"alpha = {alphas}", f"M = {M}", f"N = {N}"])


def _cmd_convergence(scheme, problem, alphas, ladder):
    specs = [builtin_problem(problem, a) for a in alphas]  # all before any study
    _check_work(scheme, alphas, ladder)
    return _convergence_outputs(
        [convergence_study(scheme, problem, s.alpha, ladder) for s in specs],
        [f"scheme = {scheme}", f"problem = {problem}", f"alpha = {alphas}",
         f"ladder = {ladder}"])


def _cmd_stability(scheme, alphas, hs, taus, d1, d2, d_alpha, grid):
    scans = stability_scan(scheme, alphas, hs, taus, d1, d2, d_alpha, grid)
    columns = [scheme, fmt_column([s.alpha for s in scans]),
               fmt_column([s.h for s in scans]),
               fmt_column([s.tau for s in scans]),
               fmt_column([s.max_abs for s in scans]),
               fmt_column([s.theta_at_max for s in scans]),
               ["1" if s.passed else "0" for s in scans]]
    text = text_table(
        f"stability scan {scheme}: {sum(s.passed for s in scans)}/{len(scans)} pass",
        ["alpha", "h", "tau", "max |xi|", "theta at max", "pass"],
        [[f"{s.alpha:g}", f"{s.h:g}", f"{s.tau:g}", f"{s.max_abs:.15f}",
          f"{s.theta_at_max:.6f}", "yes" if s.passed else "NO"] for s in scans])
    return (["scheme", "alpha", "h", "tau", "max_abs_xi", "theta_at_max", "pass"],
            columns, text, [f"scheme = {scheme}", f"alpha = {alphas}",
                            f"h = {hs}", f"tau = {taus}",
                            f"d = ({d1}, {d2}, {d_alpha})",
                            f"theta_grid = {grid}"])


# Each subcommand's function and its config keys in parse order, each as
# (key, parser, default); the function takes the parsed values in that
# order and returns the CSV header, the CSV columns, the text table and
# the manifest's parameter lines.  An empty default makes the key required.
_STEPS = "0.001, 0.01, 0.1, 1"
_COMMANDS = {
    "coeffs": (_cmd_coeffs, [
        ("p", parse_int, ""),
        ("alpha", parse_float_list, ""),
        ("length", parse_int, "200")]),
    "symbol": (_cmd_symbol, [
        ("p", parse_int, ""),
        ("alpha", parse_float_list, ""),
        ("theta_grid", parse_int, "4096")]),
    "bounds": (_cmd_bounds, [
        ("family", parse_word, ""),
        ("alpha", parse_float_list, ""),
        ("ell_min", parse_int, "3"),
        ("ell_max", parse_int, "100")]),
    "monotonicity": (_cmd_monotonicity, [
        ("p", parse_int, ""),
        ("alpha", parse_float_list, ""),
        ("length", parse_int, "500")]),
    "riesz": (_cmd_riesz, [
        ("p", parse_int, ""),
        ("alpha", parse_float_list, ""),
        ("h", parse_float_list, ""),
        ("metric", parse_word, "midpoint")]),
    "solve": (_cmd_solve, [
        ("scheme", parse_word, ""),
        ("problem", parse_word, ""),
        ("alpha", parse_float_list, ""),
        ("M", parse_int, ""),
        ("N", parse_int, "")]),
    "convergence": (_cmd_convergence, [
        ("scheme", parse_word, ""),
        ("problem", parse_word, ""),
        ("alpha", parse_float_list, ""),
        ("ladder", parse_ladder, "")]),
    "stability": (_cmd_stability, [
        ("scheme", parse_word, ""),
        ("alpha", parse_float_list, ""),
        ("h", parse_float_list, _STEPS),
        ("tau", parse_float_list, _STEPS),
        ("d1", parse_float, "1"),
        ("d2", parse_float, "1"),
        ("d_alpha", parse_float, "1"),
        ("theta_grid", parse_int, "4096")]),
}


def main(argv=None) -> int:
    parser = _Parser(prog="rieszkit", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv)
        command, keys = _COMMANDS[args.command]
        cp = load_config(args.config)
        if not cp.has_section(args.command):
            raise UsageError(f"missing [{args.command}] section in config")
        sec = cp[args.command]
        names = [key for key, _, _ in keys] + ["out"]
        # configparser keeps keys lower case, and a section holds the keys
        # of [DEFAULT] too: one rule for both
        for key in sec:
            if key not in map(str.lower, names):
                raise UsageError(f"unknown key '{key}' in [{args.command}], "
                                 f"which takes {', '.join(names)}")
        out = sec.get("out") if args.out is None else args.out
        outputs = command(*[parse(sec.get(key, default), key)
                            for key, parse, default in keys])
        _write_outputs(Path(out or "rieszkit-out"), args.command, *outputs)
    except (SolverError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # counts are bounded before work: this is an allocation within the
        # bounds, such as a dense solve at a large M, on a small machine.
        # Python's own allocations raise it with no message.
        print(f"error: out of memory: {exc}" if str(exc)
              else f"error: out of memory in {args.command}", file=sys.stderr)
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
