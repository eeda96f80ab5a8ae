"""The four benchmark workloads: seeded inputs, timed operations, checks.

``make_plan`` turns a workload name and a seed into plain data: CLI config
texts and library-call arguments.  The seed picks alpha values (two
decimals, in fixed ranges) and never changes the amount of work.

``build_ops`` turns a plan into operations.  Each operation has a timed
``run`` step and an untimed ``check`` step that tests the output against a
route that does not use the code the operation timed.  The check returns
the problems it found (any problem fails the operation) and a small record
of known-red findings that are reported but not counted, such as order6
cells above the proven stability range or negative p = 6 symbols.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import binom

WORKLOADS = ("march", "assemble-large", "exact-weights", "sweeps")

LADDER_ORDER6 = "8:8, 16:64, 32:512, 64:4096"
LADDER_ORDER4 = "4:4, 8:16, 16:64, 32:256"
# Finest-rung error limits, about ten times the worst error seen for alpha
# in (0.1, 0.75) at the parent commit of the benchmark.
FINEST_ERROR = {"order6": 1e-10, "order4": 1e-6}
LARGE_M, LARGE_N = 384, 16
SOLVE_ERROR = {"order6": 1e-7, "order4": 1e-5, "order2": 1e-5}
WEIGHTS_LENGTH = 32
ROUTE_GAP = 1e-10
STABILITY_GRID = "0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1"
RIESZ_STEPS = "1/20, 1/40, 1/80, 1/160, 1/320"


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict]]


def _hundredths(rng: random.Random, lo: int, hi: int, k: int,
                dyadic: bool | None = None) -> list[float]:
    """k distinct values c/100 with lo < c < hi, sorted.

    dyadic=True keeps multiples of 0.25 (short exact fractions), False
    excludes them, None allows both.
    """
    pool = [c for c in range(lo + 1, hi)
            if dyadic is None or (c % 25 == 0) == dyadic]
    return sorted(c / 100 for c in rng.sample(pool, k))


def _alpha_list(alphas) -> str:
    return ", ".join(f"{a:g}" for a in alphas)


def _cli(name: str, command: str, **keys) -> dict:
    return {"kind": "cli", "name": name, "command": command,
            "keys": {k: str(v) for k, v in keys.items()}}


def make_plan(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "march":
        alphas = _alpha_list(_hundredths(rng, 10, 75, 2))
        ops = [_cli("convergence-order6", "convergence", scheme="order6",
                    problem="example3", alpha=alphas, ladder=LADDER_ORDER6),
               _cli("convergence-order4", "convergence", scheme="order4",
                    problem="example2", alpha=alphas, ladder=LADDER_ORDER4)]
    elif workload == "assemble-large":
        ops = [_cli(f"solve-{scheme}", "solve", scheme=scheme, problem=problem,
                    alpha=_alpha_list(_hundredths(rng, 10, 75, 1)),
                    M=LARGE_M, N=LARGE_N)
               for scheme, problem in (("order6", "example3"),
                                       ("order4", "example2"),
                                       ("order2", "example2"))]
    elif workload == "exact-weights":
        # Per order: two alphas in (0, 1) and two in (1, 2), exactly one of
        # the four a short dyadic.  One bound sweep takes a non-dyadic alpha,
        # the other a dyadic one, so 6 of the 22 exact tables are dyadic.
        ops = []
        for p in range(2, 7):
            dyadic_low = rng.random() < 0.5
            alphas = (_hundredths(rng, 0, 100, 1, True if dyadic_low else False)
                      + _hundredths(rng, 0, 100, 1, False)
                      + _hundredths(rng, 100, 200, 1, False if dyadic_low else True)
                      + _hundredths(rng, 100, 200, 1, False))
            ops += [{"kind": "weights", "name": f"weights-p{p}-{a:g}", "p": p,
                     "alpha": a, "length": WEIGHTS_LENGTH} for a in alphas]
        for family, dyadic in (("second-pointwise", False),
                               ("second-shifted-pointwise", True)):
            ops.append(_cli(f"bounds-{family}", "bounds", family=family,
                            alpha=_alpha_list(_hundredths(rng, 0, 100, 1, dyadic)),
                            ell_min=4, ell_max=100))
    elif workload == "sweeps":
        ops = [_cli(f"stability-{scheme}", "stability", scheme=scheme,
                    alpha=_alpha_list(_hundredths(rng, 0, 100, 5)),
                    h=STABILITY_GRID, tau=STABILITY_GRID, theta_grid=4096)
               for scheme in ("order6", "order2")]
        ops += [_cli("symbol-p6", "symbol", p=6,
                     alpha=_alpha_list(_hundredths(rng, 0, 100, 5)),
                     theta_grid=4096),
                _cli("bounds-first-tail", "bounds", family="first-tail",
                     alpha=_alpha_list(_hundredths(rng, 0, 100, 2)),
                     ell_min=3, ell_max=700),
                _cli("monotonicity-p2", "monotonicity", p=2,
                     alpha=_alpha_list(_hundredths(rng, 0, 100, 2)
                                       + _hundredths(rng, 100, 200, 2)),
                     length=500),
                _cli("riesz-p4", "riesz", p=4,
                     alpha=_alpha_list(_hundredths(rng, 0, 100, 2)),
                     h=RIESZ_STEPS)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return {"workload": workload, "seed": seed, "ops": ops}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def build_ops(plan: dict, workdir: Path) -> list[Op]:
    """Operations of a plan; CLI configs are written to workdir first."""
    import rieszkit
    import rieszkit.cli

    ops = []
    for spec in plan["ops"]:
        if spec["kind"] == "weights":
            ops.append(_weights_op(rieszkit, spec))
            continue
        cfg = workdir / f"{spec['name']}.cfg"
        cfg.write_text(f"[{spec['command']}]\n" + "".join(
            f"{k} = {v}\n" for k, v in spec["keys"].items()))
        out = workdir / spec["name"]
        argv = [spec["command"], "--config", str(cfg), "--out", str(out)]

        def run(argv=argv):
            return rieszkit.cli.main(argv)

        ops.append(Op(spec["name"], run,
                      _cli_check(spec["command"], spec["keys"], out)))
    return ops


def _weights_op(rieszkit, spec: dict) -> Op:
    p, alpha, length = spec["p"], spec["alpha"], spec["length"]

    def run():
        series = rieszkit.expand_generating_function(p, alpha, length).values
        return series, rieszkit.closed_form_table(p, alpha, length)

    def check(result):
        series, closed = (np.asarray(r, dtype=float) for r in result)
        if series.shape != (length + 1,) or closed.shape != (length + 1,):
            return [f"p={p} a={alpha}: expected {length + 1} weights"], {}
        gap = float(np.max(np.abs(series - closed)))
        if not gap < ROUTE_GAP:
            return [f"p={p} a={alpha}: series vs nested sums differ by {gap:.3e}"], {}
        return [], {"route_gap": gap}

    return Op(spec["name"], run, check)


def _cli_check(command: str, cfg: dict[str, str], out: Path):
    checker = _CHECKS[command]

    def check(code):
        if code != 0:
            return [f"exit code {code}"], {}
        try:
            return checker(cfg, out)
        except (OSError, ValueError, KeyError, IndexError, csv.Error) as exc:
            return [f"unreadable output: {exc!r}"], {}

    return check


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    return records[0], records[1:]


def _floats(text: str) -> list[float]:
    return [float(item) for item in text.split(",")]


# ---------------------------------------------------------------------------
# Checks, one per CLI command
# ---------------------------------------------------------------------------

def _check_convergence(cfg, out):
    from rieszkit.reports import CONVERGENCE_HEADER, read_convergence_csv

    path = out / "convergence.csv"
    reports = read_convergence_csv(path)
    alphas = _floats(cfg["alpha"])
    rungs = len(cfg["ladder"].split(","))
    problems = []
    if [r.alpha for r in reports] != alphas:
        problems.append(f"alphas {[r.alpha for r in reports]} != {alphas}")
    for rep in reports:
        errors = [row.error for row in rep.rows]
        if len(errors) != rungs:
            problems.append(f"a={rep.alpha}: {len(errors)} rungs, expected {rungs}")
        elif not all(e1 < e0 for e0, e1 in zip(errors, errors[1:])):
            problems.append(f"a={rep.alpha}: errors do not decrease: {errors}")
        elif not errors[-1] <= FINEST_ERROR[cfg["scheme"]]:
            problems.append(f"a={rep.alpha}: finest error {errors[-1]:.3e}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CONVERGENCE_HEADER)
    for rep in reports:
        writer.writerows(rep.csv_rows())
    if buf.getvalue() != path.read_text():
        problems.append("CSV does not round-trip through read_convergence_csv")
    return problems, {}


def _manufactured(problem: str, x: np.ndarray, t: float) -> np.ndarray:
    if problem == "example2":
        return math.exp(t) * x ** 6 * (1.0 - x) ** 6
    return math.sin(t) * x ** 8 * (1.0 - x) ** 8


def _check_solve(cfg, out):
    header, rows = _rows(out / "solve.csv")
    M = int(cfg["M"])
    if header[5:] != ["x", "u", "u_exact"] or len(rows) != M + 1:
        return [f"expected {M + 1} rows of x,u,u_exact, got {len(rows)}"], {}
    x = np.array([float(r[5]) for r in rows])
    u = np.array([float(r[6]) for r in rows])
    exact = _manufactured(cfg["problem"], np.arange(M + 1) / M, 1.0)
    error = float(np.max(np.abs(u - exact)))
    problems = []
    if not np.allclose(x, np.arange(M + 1) / M, rtol=0.0, atol=1e-15):
        problems.append("grid nodes are not j/M")
    if not error <= SOLVE_ERROR[cfg["scheme"]]:
        problems.append(f"max |u - exact| = {error:.3e}")
    return problems, {"max_error": error}


def _check_bounds(cfg, out):
    import rieszkit

    header, rows = _rows(out / "bounds.csv")
    family = cfg["family"]
    alphas = _floats(cfg["alpha"])
    ells = range(int(cfg["ell_min"]), int(cfg["ell_max"]) + 1)
    if len(rows) != len(alphas) * len(ells):
        return [f"{len(rows)} rows, expected {len(alphas) * len(ells)}"], {}
    problems = []
    for alpha in alphas:
        block = [r for r in rows if float(r[1]) == alpha]
        observed = np.array([float(r[4]) for r in block])
        if family.startswith("second"):
            # nested-sum weights against the series route
            order = 1.0 + alpha if "shifted" in family else alpha
            w = rieszkit.expand_generating_function(2, order, ells[-1]).values
            reference = np.abs(w[ells[0]:])
            bad = np.abs(observed - reference) >= ROUTE_GAP
        else:
            # first-order tail sum_{k>=ell}|w_k| = sum_{k<ell} w_k for 0<a<1
            k = np.arange(ells[-1])
            partial = np.cumsum((-1.0) ** k * binom(alpha, k))
            reference = partial[ells[0] - 1:]
            bad = np.abs(observed - reference) > 1e-9 * np.abs(reference)
            bad |= np.array([r[6] != "1" for r in block])
        if bad.any():
            ell = ells[int(np.argmax(bad))]
            problems.append(f"{family} a={alpha}: {int(bad.sum())} rows wrong, "
                            f"first at ell={ell}")
    held = sum(r[6] == "1" for r in rows)
    return problems, {"bounds_holding": f"{held}/{len(rows)}"}


def _check_stability(cfg, out):
    from rieszkit import alpha_limit_order4

    header, rows = _rows(out / "stability.csv")
    alphas = _floats(cfg["alpha"])
    grid = len(_floats(cfg["h"])) * len(_floats(cfg["tau"]))
    if len(rows) != len(alphas) * grid:
        return [f"{len(rows)} cells, expected {len(alphas) * grid}"], {}
    problems, red = [], 0
    for scheme, alpha, h, tau, _, _, passed in rows:
        proven = scheme == "order2" or (
            scheme == "order4" and float(alpha) <= alpha_limit_order4())
        if passed == "1":
            continue
        if proven:
            problems.append(f"{scheme} a={alpha} h={h} tau={tau} fails")
        else:
            red += 1
    return problems, {"unproven_cells_failing": red}


def _generator_from_definition(p: int) -> np.ndarray:
    """Coefficients (ascending) of sum_{k=1..p} (1 - z)^k / k."""
    acc = np.zeros(p + 1)
    for k in range(1, p + 1):
        acc[:k + 1] += np.polynomial.polynomial.polypow([1.0, -1.0], k) / k
    return acc


def _check_symbol(cfg, out):
    header, rows = _rows(out / "symbol.csv")
    p, grid = int(cfg["p"]), int(cfg["theta_grid"])
    alphas = _floats(cfg["alpha"])
    if len(rows) != len(alphas) * grid:
        return [f"{len(rows)} rows, expected {len(alphas) * grid}"], {}
    theta = np.array([float(r[2]) for r in rows[:grid]])
    base = np.polynomial.polynomial.polyval(np.exp(1j * theta),
                                            _generator_from_definition(p))
    problems, negative = [], 0
    for i, alpha in enumerate(alphas):
        values = np.array([float(r[3]) for r in rows[i * grid:(i + 1) * grid]])
        reference = np.where(theta == 0.0, 0.0, np.real(base ** alpha))
        gap = float(np.max(np.abs(values - reference)))
        if not gap < 1e-10:
            problems.append(f"p={p} a={alpha}: symbol off by {gap:.3e}")
        negative += bool(values.min() < -1e-12)
    return problems, {"alphas_with_negative_symbol": negative}


def _second_order_series(alpha: float, length: int) -> np.ndarray:
    """W_2^a = (3/2)^a (1 - z)^a (1 - z/3)^a, from binomial series."""
    k = np.arange(length + 1)
    first = (-1.0) ** k * binom(alpha, k)
    return 1.5 ** alpha * np.convolve(first, first / 3.0 ** k)[:length + 1]


def _check_monotonicity(cfg, out):
    header, rows = _rows(out / "monotonicity.csv")
    length = int(cfg["length"])
    problems = []
    for _, alpha_s, _, start_s in rows:
        alpha = float(alpha_s)
        diffs = np.diff(_second_order_series(alpha, length))
        bad = np.nonzero(~(diffs >= 0.0) if alpha < 1.0 else ~(diffs <= 0.0))[0]
        expected = 0 if len(bad) == 0 else int(bad[-1]) + 1
        got = int(start_s) if start_s else None
        if got != (expected if expected < length else None):
            problems.append(f"a={alpha}: tail start {got}, expected {expected}")
    if len(rows) != len(_floats(cfg["alpha"])):
        problems.append(f"{len(rows)} rows for {cfg['alpha']}")
    return problems, {}


def _check_riesz(cfg, out):
    from rieszkit.reports import read_convergence_csv

    p = int(cfg["p"])
    problems = []
    for rep in read_convergence_csv(out / "riesz.csv"):
        errors = [row.error for row in rep.rows]
        order = rep.rows[-1].spatial_order
        if not all(e1 < e0 for e0, e1 in zip(errors, errors[1:])):
            problems.append(f"a={rep.alpha}: errors do not decrease: {errors}")
        elif order is None or order < p - 0.5:
            problems.append(f"a={rep.alpha}: finest observed order {order}")
    return problems, {}


_CHECKS = {
    "convergence": _check_convergence,
    "solve": _check_solve,
    "bounds": _check_bounds,
    "stability": _check_stability,
    "symbol": _check_symbol,
    "monotonicity": _check_monotonicity,
    "riesz": _check_riesz,
}
