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
from .analysis import check_symbol_nonnegativity, evaluate_bounds, monotonicity_scan
from .coefficients import (MAX_SERIES_LENGTH, check_count, expand_generating_function,
                           theta_grid)
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
# together.  A first-order bounds row, with its CSV and text fields, takes
# about 0.9 KB: 0.47 GB and 3 to 12 s at the bound (README "Counts").
_MAX_TABLE_ROWS = 5 * 10**5

# Most exact-weight work of a second-order bounds table, len(alphas) x
# ell_max**3: the nested sums of one alpha take 3.0 to 5.2 ns x
# ell_max**3, so a table at the bound takes about 10 s.
_MAX_EXACT_WORK = 2 * 10**9


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
    values, last = [], []
    for a in alphas:
        w = expand_generating_function(p, a, length).values
        values += fmt_column(w)
        last.append(f"{w[-1]:.6e}")
    text = text_table(f"weights p={p}", ["p", "alpha", "length", "last value"],
                      [str(p), [f"{a:g}" for a in alphas], str(length), last])
    ells = list(map(str, range(length + 1))) * len(alphas)
    columns = [str(p), [s for a in alphas for s in [fmt(a)] * (length + 1)],
               ells, values]
    return (["p", "alpha", "ell", "value"], columns, text,
            [f"p = {p}", f"alpha = {alphas}", f"length = {length}"])


def _cmd_symbol(p, alphas, grid):
    thetas = theta_grid(grid, "theta_grid")
    _check_rows(alphas, grid)
    scans = [check_symbol_nonnegativity(p, a, grid) for a in alphas]
    text = text_table(f"symbol minima p={p}",
                      ["p", "alpha", "min value", "theta at min", "nonnegative"],
                      [str(p), [f"{a:g}" for a in alphas],
                       [f"{s.min_value:.6e}" for s in scans],
                       [f"{s.theta_at_min:.6f}" for s in scans],
                       ["yes" if s.nonnegative else "no" for s in scans]])
    columns = [str(p), [s for a in alphas for s in [fmt(a)] * grid],
               fmt_column(thetas) * len(alphas),
               [v for scan in scans for v in fmt_column(scan.values)]]
    return (["p", "alpha", "theta", "value"], columns, text,
            [f"p = {p}", f"alpha = {alphas}", f"theta_grid = {grid}"])


def _cmd_bounds(family, alphas, ell_min, ell_max):
    _check_rows(alphas, max(ell_max - ell_min + 1, 0))
    if family.startswith("second-"):  # the exact weights, once per alpha
        check_count(f"exact-weight work (alphas x ell_max**3 = {len(alphas)} "
                    f"x {ell_max}**3)", len(alphas) * max(ell_max, 0) ** 3, 0,
                    _MAX_EXACT_WORK)
    tables = [evaluate_bounds(family, a, ell_min, ell_max) for a in alphas]
    lower, observed, upper, holds = (np.concatenate(c) for c in zip(
        *[(t.lower, t.observed, t.upper, t.holds) for t in tables]))
    holds, n = holds.tolist(), len(tables[0].ell)
    ells = list(map(str, tables[0].ell.tolist())) * len(alphas)
    columns = [family, [s for a in alphas for s in [fmt(a)] * n], ells,
               fmt_column(lower), fmt_column(observed), fmt_column(upper),
               ["1" if h else "0" for h in holds]]
    text = text_table(
        f"bound family {family}: {sum(holds)}/{len(holds)} hold",
        ["alpha", "ell", "lower", "observed", "upper", "holds"],
        [[s for a in alphas for s in [f"{a:g}"] * n], ells,
         fmt_column(lower, ".6e"), fmt_column(observed, ".6e"),
         fmt_column(upper, ".6e"), ["yes" if h else "NO" for h in holds]])
    return (["family", "alpha", "ell", "lower", "observed", "upper", "holds"],
            columns, text, [f"family = {family}", f"alpha = {alphas}",
                         f"ell = {ell_min}..{ell_max}"])


def _cmd_monotonicity(p, alphas, length):
    starts = [monotonicity_scan(p, a, length) for a in alphas]
    text = text_table(f"monotone tail start p={p}",
                      ["p", "alpha", "scan length", "tail start"],
                      [str(p), [f"{a:g}" for a in alphas], str(length),
                       ["none" if start is None else str(start)
                        for start in starts]])
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
    xs, us, exact, max_errors, final_errors = [], [], [], [], []
    for spec in specs:
        grid = solve(scheme, spec, M, N)
        x = spec.a + grid.h * np.arange(M + 1)
        xs += fmt_column(x)
        us += fmt_column(grid.final)
        exact += fmt_column(spec.exact(x, spec.T))
        max_errors.append(f"{grid.max_error:.6e}")
        final_errors.append(f"{grid.final_error:.6e}")
    text = text_table("final-time solution errors",
                      ["scheme", "problem", "alpha", "M", "N",
                       "max error (all levels)", "final-time error"],
                      [scheme, problem, [f"{a:g}" for a in alphas], str(M),
                       str(N), max_errors, final_errors])
    columns = [scheme, problem, [s for a in alphas for s in [fmt(a)] * (M + 1)],
               str(M), str(N), xs, us, exact]
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
    scan = stability_scan(scheme, alphas, hs, taus, d1, d2, d_alpha, grid)
    passed = scan.passed.tolist()
    columns = [scheme, fmt_column(scan.alpha), fmt_column(scan.h),
               fmt_column(scan.tau), fmt_column(scan.max_abs),
               fmt_column(scan.theta_at_max), ["1" if p else "0" for p in passed]]
    text = text_table(
        f"stability scan {scheme}: {sum(passed)}/{len(passed)} pass",
        ["alpha", "h", "tau", "max |xi|", "theta at max", "pass"],
        [fmt_column(scan.alpha, "g"), fmt_column(scan.h, "g"),
         fmt_column(scan.tau, "g"), fmt_column(scan.max_abs, ".15f"),
         fmt_column(scan.theta_at_max, ".6f"),
         ["yes" if p else "NO" for p in passed]])
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
