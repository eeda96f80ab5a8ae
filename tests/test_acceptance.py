"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Reference errors and orders are the
published benchmark values and their tolerances are never loosened, so a
genuine deviation shows up red here.  Where a blanket claim about the
weights is false, the criterion asserts the verified boundary of the claim
instead, with the evidence from an independent route next to it:

* criterion 08: two monotone-tail onsets lie later than claimed; the
  exact nested-sum route shows the offending difference;
* criterion 09: the p = 5 and p = 6 symbols are nonnegative only up to
  alpha*_p = (pi/2) / (pi - theta_p), theta_p the A(theta) angle of BDF-p;
  above it the negative minimum is confirmed by the truncated series;
* criterion 10: the schemes must be stable where their symbol is
  nonnegative, and every scan must agree with the sign of its real group.

Criterion 07 still fails at the coarse rungs (8, 8) and (16, 64), where
the published values depend on a ghost-node convention that the abstract
does not state; see README.md.
"""

import math
import time

import numpy as np
import pytest

from naive_reference import NAIVE_STEPS, naive_scheme
from rieszkit import (
    BoundCheckRecord,
    alpha_limit_order4,
    assemble,
    builtin_problem,
    check_symbol_nonnegativity,
    closed_form_table,
    convergence_study,
    evaluate_bounds,
    expand_generating_function,
    monotonicity_scan,
    operator_convergence,
    stability_scan,
    step,
)
from rieszkit.analysis import (
    bound_families,
    pointwise_lower_crossing,
    symbol_nonnegativity_threshold,
    truncated_symbol,
)

# --- operator benchmarks: absolute error at x = 1/2, order columns -------

REF_OPERATOR = {
    2: {
        "meshes": [20, 40, 80, 160, 320],
        0.2: ([2.381267e-4, 5.900964e-5, 1.460639e-5, 3.628491e-6, 9.039358e-7],
              [2.0127, 2.0144, 2.0092, 2.0051]),
        0.4: ([7.097814e-4, 1.696639e-4, 4.123703e-5, 1.014980e-5, 2.516782e-6],
              [2.0647, 2.0407, 2.0225, 2.0118]),
        0.6: ([1.638369e-3, 3.728453e-4, 8.824023e-5, 2.141683e-5, 5.272483e-6],
              [2.1356, 2.0791, 2.0427, 2.0222]),
        0.8: ([3.782418e-3, 7.826735e-4, 1.747182e-4, 4.102708e-5, 9.923174e-6],
              [2.2728, 2.1634, 2.0904, 2.0477]),
    },
    3: {
        "meshes": [40, 60, 80, 100, 120],
        0.2: ([3.146678e-7, 1.576085e-7, 7.991483e-8, 4.501080e-8, 2.761993e-8],
              [1.7052, 2.3608, 2.5726, 2.6786]),
        0.4: ([4.349687e-6, 1.491902e-6, 6.709309e-7, 3.560502e-7, 2.108270e-7],
              [2.6391, 2.7779, 2.8394, 2.8742]),
        0.6: ([2.194879e-5, 6.996810e-6, 3.050074e-6, 1.590859e-6, 9.316704e-7],
              [2.8196, 2.8861, 2.9169, 2.9347]),
        0.8: ([1.067572e-4, 3.282279e-5, 1.407258e-5, 7.270149e-6, 4.231299e-6],
              [2.9088, 2.9439, 2.9598, 2.9688]),
    },
    4: {
        "meshes": [20, 25, 30, 35, 40],
        0.2: ([3.254967e-6, 1.421712e-6, 7.061638e-7, 3.863551e-7, 2.279637e-7],
              [3.7121, 3.8381, 3.9123, 3.9509]),
        0.4: ([1.307893e-5, 5.433994e-6, 2.610192e-6, 1.395202e-6, 8.089264e-7],
              [3.9362, 4.0217, 4.0635, 4.0821]),
        0.6: ([4.165885e-5, 1.647646e-5, 7.642179e-6, 3.980841e-6, 2.261840e-6],
              [4.1569, 4.2137, 4.2309, 4.2336]),
        0.8: ([1.466022e-4, 5.460563e-5, 2.420431e-5, 1.216174e-5, 6.707129e-6],
              [4.4258, 4.4625, 4.4647, 4.4568]),
    },
    5: {
        "meshes": [80, 100, 120, 140, 160],
        0.4: ([8.731739e-10, 3.348011e-10, 1.473288e-10, 7.232096e-11, 3.867341e-11],
              [4.2959, 4.5023, 4.6160, 4.6877]),
        0.6: ([5.385482e-9, 1.900398e-9, 7.985621e-10, 3.806168e-10, 1.994064e-10],
              [4.6680, 4.7554, 4.8071, 4.8412]),
        0.8: ([3.005433e-8, 1.023908e-8, 4.211445e-9, 1.978515e-9, 1.025811e-9],
              [4.8256, 4.8727, 4.9008, 4.9192]),
    },
    6: {
        "meshes": [20, 40, 80, 160, 320],
        0.2: ([3.783855e-8, 2.310553e-9, 4.258651e-11, 6.690552e-13, 1.035841e-14],
              [4.0335, 5.7617, 5.9921, 6.0133]),
        0.4: ([3.116503e-7, 1.031745e-8, 1.651582e-10, 2.418476e-12, 3.582209e-14],
              [4.9168, 5.9651, 6.0936, 6.0771]),
        0.6: ([1.564617e-6, 3.647148e-8, 5.062291e-10, 6.799919e-12, 9.539537e-14],
              [5.4229, 6.1708, 6.2181, 6.1555]),
        0.8: ([8.311643e-6, 1.432632e-7, 1.663072e-9, 1.942938e-11, 2.433601e-13],
              [5.8584, 6.4287, 6.4195, 6.3190]),
    },
}

# --- diffusion benchmarks: max error over nodes and time levels ----------

LADDER_ORDER2 = [(10, 10), (20, 20), (40, 40), (80, 80)]
REF_ORDER2 = {
    0.2: ([2.581219e-5, 6.217660e-6, 1.536085e-6, 3.844480e-7],
          [2.0536, 2.0171, 1.9984]),
    0.3: ([2.514418e-5, 6.061411e-6, 1.498825e-6, 3.755193e-7],
          [2.0525, 2.0158, 1.9969]),
    0.4: ([2.416676e-5, 5.842791e-6, 1.448271e-6, 3.636282e-7],
          [2.0483, 2.0123, 1.9938]),
    0.5: ([2.270557e-5, 5.532646e-6, 1.379247e-6, 3.477777e-7],
          [2.0370, 2.0041, 1.9876]),
    0.6: ([2.043415e-5, 5.079755e-6, 1.283408e-6, 3.264917e-7],
          [2.0082, 1.9848, 1.9749]),
    0.7: ([1.664449e-5, 4.378341e-6, 1.145019e-6, 2.972789e-7],
          [1.9266, 1.9350, 1.9455]),
}

LADDER_ORDER4 = [(4, 4), (8, 16), (16, 64), (32, 256)]
REF_ORDER4 = {
    0.2: ([1.151043e-4, 4.361384e-6, 2.346706e-7, 2.036847e-8],
          [2.3610, 2.1081, 1.7631]),
    0.3: ([1.128702e-4, 4.362181e-6, 2.461975e-7, 2.396154e-8],
          [2.3468, 2.0736, 1.6805]),
    0.4: ([1.088961e-4, 4.433621e-6, 2.870612e-7, 2.910816e-8],
          [2.3091, 1.9746, 1.6509]),
    0.5: ([1.018053e-4, 4.654112e-6, 3.607253e-7, 3.674011e-8],
          [2.2256, 1.8447, 1.6478]),
    0.6: ([8.897936e-5, 5.201584e-6, 4.980729e-7, 4.862623e-8],
          [2.0482, 1.6923, 1.6783]),
    0.7: ([6.521192e-5, 6.540139e-6, 7.724068e-7, 6.867979e-8],
          [1.6588, 1.5410, 1.7457]),
}

LADDER_ORDER6 = [(8, 8), (16, 64), (32, 512), (64, 4096)]
REF_ORDER6 = {
    0.2: ([1.360207e-7, 2.071201e-9, 3.348089e-11, 5.235085e-13],
          [2.0124, 1.9837, 1.9997]),
    0.3: ([1.356431e-7, 2.092867e-9, 3.254863e-11, 4.855887e-13],
          [2.0061, 2.0022, 2.0222]),
    0.4: ([1.348600e-7, 2.146379e-9, 2.972961e-11, 3.852828e-13],
          [1.9911, 2.0580, 2.0899]),
    0.5: ([1.335205e-7, 2.246228e-9, 2.200601e-11, 2.816274e-13],
          [1.9645, 2.2245, 2.0960]),
    0.6: ([1.322258e-7, 2.372915e-9, 1.827817e-11, 4.506292e-13],
          [1.9334, 2.3401, 1.7807]),
    0.7: ([1.357968e-7, 3.805230e-9, 6.671019e-11, 1.819328e-12],
          [1.7191, 1.9446, 1.7321]),
}

ALPHA_GRID_19 = [round(0.05 * k, 2) for k in range(1, 20)]
ALPHA_GRID_18 = [round(0.1 * k, 1) for k in range(1, 10)] + \
                [round(1.0 + 0.1 * k, 1) for k in range(1, 10)]

# A(theta) angles of BDF-p in degrees (Hairer & Wanner, Solving ODEs II,
# sec. V.2).  The symbol |W_p|**alpha cos(alpha phi) is nonnegative exactly
# when alpha |phi| <= pi/2, and the most negative argument phi of W_p on the
# unit circle is -(pi - theta_p), so the claim holds up to
# alpha*_p = (pi/2) / (pi - theta_p).
BDF_ANGLE = {2: 90.0, 3: 86.03, 4: 73.35, 5: 51.84, 6: 17.84}
SYMBOL_LIMIT = {p: (math.pi / 2) / (math.pi - math.radians(theta))
                for p, theta in BDF_ANGLE.items()}


def _report(num: int, label: str, violations: list[str],
            extra: str = "") -> None:
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    print(f"ACCEPTANCE {num:02d} [{status}] {label} {extra}".rstrip())
    for v in violations[:12]:
        print(f"    - {v}")
    if len(violations) > 12:
        print(f"    ... and {len(violations) - 12} more")
    assert not violations, f"criterion {num}: {violations[:4]}"


def _check_operator_block(p: int, rel_tol: float, order_tol: float,
                          alphas=None) -> list[str]:
    data = REF_OPERATOR[p]
    meshes = data["meshes"]
    bad = []
    for alpha, payload in data.items():
        if alpha == "meshes" or (alphas is not None and alpha not in alphas):
            continue
        ref_err, ref_ord = payload
        rep = operator_convergence(p, alpha, [1.0 / m for m in meshes])
        for m, row, ref in zip(meshes, rep.rows, ref_err):
            if abs(row.error - ref) > rel_tol * ref:
                bad.append(f"p={p} a={alpha} 1/{m}: {row.error:.6e} vs {ref:.6e}")
        for m, row, ref in zip(meshes[1:], rep.rows[1:], ref_ord):
            if abs(row.spatial_order - ref) > order_tol:
                bad.append(f"p={p} a={alpha} 1/{m} order: "
                           f"{row.spatial_order:.4f} vs {ref:.4f}")
    return bad


def test_criterion_01_operator_second_order():
    t0 = time.perf_counter()
    bad = _check_operator_block(2, rel_tol=0.02, order_tol=0.02)
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        bad.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "second-order derivative benchmark (2% / 0.02)", bad,
            f"[{elapsed:.2f}s]")


def test_criterion_02_operator_third_and_fourth_order():
    t0 = time.perf_counter()
    bad = _check_operator_block(3, rel_tol=0.02, order_tol=0.02)
    bad += _check_operator_block(4, rel_tol=0.02, order_tol=0.02)
    elapsed = time.perf_counter() - t0
    if elapsed >= 2.0:
        bad.append(f"runtime {elapsed:.2f}s >= 2s")
    _report(2, "third/fourth-order derivative benchmarks (2% / 0.02)", bad,
            f"[{elapsed:.2f}s]")


def test_criterion_03_operator_fifth_order():
    bad = _check_operator_block(5, rel_tol=0.05, order_tol=math.inf)
    # the a = 0.2 block of the source tables duplicates the fourth-order
    # data; assert the order trend on the interior-max metric instead,
    # where the values sit above the rounding floor
    rep = operator_convergence(5, 0.2, [1 / 80, 1 / 100, 1 / 120, 1 / 140, 1 / 160],
                               metric="max-interior")
    final_order = rep.rows[-1].spatial_order
    if abs(final_order - 5.0) > 0.35:
        bad.append(f"a=0.2 trend order {final_order:.4f} not within 0.35 of 5")
    _report(3, "fifth-order derivative benchmark (5%; a=0.2 trend only)", bad,
            f"[trend order {final_order:.3f}]")


def test_criterion_04_operator_sixth_order():
    data = REF_OPERATOR[6]
    meshes = data["meshes"]
    bad = []
    for alpha, payload in data.items():
        if alpha == "meshes":
            continue
        ref_err, ref_ord = payload
        rep = operator_convergence(6, alpha, [1.0 / m for m in meshes])
        errs = [r.error for r in rep.rows]
        for m, got, ref in zip(meshes, errs, ref_err):
            if ref >= 1e-11:
                ok = abs(got - ref) <= 0.05 * ref
            else:
                ok = got <= 10.0 * ref and ref <= 10.0 * got
            if not ok:
                bad.append(f"p=6 a={alpha} 1/{m}: {got:.6e} vs {ref:.6e}")
        for i, (row, ref) in enumerate(zip(rep.rows[1:], ref_ord), start=1):
            if errs[i - 1] > 1e-12 and errs[i] > 1e-12:
                if abs(row.spatial_order - ref) > 0.1:
                    bad.append(f"p=6 a={alpha} rung {i} order: "
                               f"{row.spatial_order:.4f} vs {ref:.4f}")
    _report(4, "sixth-order derivative benchmark (5% / 10x floor / 0.1)", bad)


def _check_diffusion(scheme, ladder, refs, rel_tol, order_tol,
                     floor=None) -> list[str]:
    bad = []
    for alpha, (ref_err, ref_ord) in refs.items():
        rep = convergence_study(scheme, "example2" if scheme != "order6"
                                else "example3", alpha, ladder)
        errs = [r.error for r in rep.rows]
        for (M, N), got, ref in zip(ladder, errs, ref_err):
            if floor is not None and ref < floor:
                ok = got <= 10.0 * ref and ref <= 10.0 * got
            else:
                ok = abs(got - ref) <= rel_tol * ref
            if not ok:
                bad.append(f"{scheme} a={alpha} ({M},{N}): "
                           f"{got:.6e} vs {ref:.6e}")
        for i, (row, ref) in enumerate(zip(rep.rows[1:], ref_ord), start=1):
            for tag, got_o in (("temporal", row.temporal_order),
                               ("spatial", row.spatial_order)):
                ref_o = ref if tag == "temporal" else None
                if ref_o is None:
                    continue
                if abs(got_o - ref_o) > order_tol:
                    bad.append(f"{scheme} a={alpha} rung {i} {tag} order: "
                               f"{got_o:.4f} vs {ref_o:.4f}")
    return bad


def test_criterion_05_diffusion_second_order():
    t0 = time.perf_counter()
    bad = _check_diffusion("order2", LADDER_ORDER2, REF_ORDER2,
                           rel_tol=0.02, order_tol=0.02)
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        bad.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(5, "second-order diffusion benchmark (2% / 0.02)", bad,
            f"[{elapsed:.2f}s]")


def test_criterion_06_diffusion_fourth_order():
    t0 = time.perf_counter()
    bad = _check_diffusion("order4", LADDER_ORDER4, REF_ORDER4,
                           rel_tol=0.05, order_tol=0.05)
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        bad.append(f"runtime {elapsed:.2f}s >= 10s")
    _report(6, "fourth-order diffusion benchmark (5% / 0.05)", bad,
            f"[{elapsed:.2f}s]")


def test_criterion_07_diffusion_sixth_order():
    t0 = time.perf_counter()
    bad = []
    for alpha, (ref_err, ref_ord) in REF_ORDER6.items():
        rep = convergence_study("order6", "example3", alpha, LADDER_ORDER6)
        errs = [r.error for r in rep.rows]
        for (M, N), got, ref in zip(LADDER_ORDER6, errs, ref_err):
            if ref >= 1e-12:
                ok = abs(got - ref) <= 0.05 * ref
            else:
                ok = got <= 10.0 * ref and ref <= 10.0 * got
            if not ok:
                bad.append(f"a={alpha} ({M},{N}): {got:.6e} vs {ref:.6e}")
        for i, (row, ref) in enumerate(zip(rep.rows[1:], ref_ord), start=1):
            if abs(row.temporal_order - ref) > 0.1:
                bad.append(f"a={alpha} rung {i} temporal order: "
                           f"{row.temporal_order:.4f} vs {ref:.4f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        bad.append(f"runtime {elapsed:.2f}s >= 60s")
    _report(7, "sixth-order diffusion benchmark (5% / 10x floor / 0.1)", bad,
            f"[{elapsed:.2f}s]")


def test_criterion_08_weight_properties():
    bad = []
    # route equivalence at 1e-10 absolute
    for p in (2, 3, 4, 5, 6):
        for alpha in ALPHA_GRID_18:
            series = expand_generating_function(p, alpha, 60).values
            closed = closed_form_table(p, alpha, 60)
            gap = float(np.max(np.abs(series - closed)))
            if gap >= 1e-10:
                bad.append(f"routes p={p} a={alpha}: |diff|={gap:.2e}")
    # zero-sum partial decay; the plain 2000-term sum scales like
    # L**(-alpha), so the bound is decay-aware (see reviewer notes)
    for p in (1, 2, 3, 4, 5, 6):
        for alpha in ALPHA_GRID_18:
            w = expand_generating_function(p, alpha, 2000).values
            partial = np.cumsum(w)
            mags = np.abs(partial[np.array([100, 200, 500, 1000, 2000])])
            if not np.all(np.diff(mags) < 0.0):
                bad.append(f"zero-sum decay p={p} a={alpha} not monotone")
            if mags[-1] >= 2.5 * 2000.0 ** (-alpha):
                bad.append(f"zero-sum p={p} a={alpha}: |S|={mags[-1]:.2e}")
    # sign and monotonicity of the second-order weights
    for alpha in (0.2, 0.5, 0.8):
        w = expand_generating_function(2, alpha, 300).values
        if not (np.all(w[4:] < 0) and np.all(np.diff(w[4:]) > 0)):
            bad.append(f"signs p=2 a={alpha}")
    for alpha in (1.2, 1.5, 1.8):
        w = expand_generating_function(2, alpha, 300).values
        if not (np.all(w[5:] > 0) and np.all(np.diff(w[5:]) < 0)):
            bad.append(f"signs p=2 a={alpha}")
    # monotone-tail onsets no later than the claimed indices, except where
    # the claim fails (p=4 for alpha in about (0.797, 0.97), p=5 above about
    # 1.7935): there the onset is pinned and the difference w[s] - w[s-1]
    # just before it must break monotonicity in the exact nested-sum route,
    # far above rounding
    claims = {2: (4, 5), 3: (4, 7), 4: (7, 12), 5: (12, 16)}
    later_onsets = {(4, 0.8): 8, (5, 1.8): 19}
    for p, (below, above) in claims.items():
        for alpha in (0.2, 0.4, 0.6, 0.8, 1.2, 1.4, 1.6, 1.8):
            claim = below if alpha < 1.0 else above
            got = monotonicity_scan(p, alpha, 500)
            onset = later_onsets.get((p, alpha))
            if onset is None:
                if got is None or got > claim:
                    bad.append(f"tail p={p} a={alpha}: start {got} > {claim}")
                continue
            exact = closed_form_table(p, alpha, onset + 1)
            gap = float(exact[onset] - exact[onset - 1])
            breaks = gap < -1e-9 if alpha < 1.0 else gap > 1e-9
            if got != onset or not breaks:
                bad.append(f"tail p={p} a={alpha}: start {got}, exact "
                           f"w[{onset}]-w[{onset - 1}]={gap:.3e}, "
                           f"expected onset {onset}")
    _report(8, "weight properties: dual routes, zero sum, signs, tails", bad)


def test_criterion_09_symbols_and_bounds():
    bad = []
    limit = alpha_limit_order4()
    if abs(limit - 0.8439) > 1e-4:
        bad.append(f"fourth-order threshold {limit} vs 0.8439")
    for p, ref in ((3, 0.9578), (4, 0.8439), (5, 0.7022), (6, 0.5550)):
        for tag, got in (("BDF angle", SYMBOL_LIMIT[p]),
                         ("empirical", symbol_nonnegativity_threshold(p))):
            if abs(got - ref) > 1e-4:
                bad.append(f"symbol limit p={p} ({tag}) {got:.5f} vs {ref}")
    # nonnegative up to the limit; above it a negative minimum that the
    # truncated cosine series (2000 terms) reproduces at the same angle
    for p in (2, 3, 4, 5, 6):
        for alpha in ALPHA_GRID_19:
            scan = check_symbol_nonnegativity(p, alpha, 4096)
            if alpha <= SYMBOL_LIMIT[p]:
                if not scan.nonnegative:
                    bad.append(f"symbol p={p} a={alpha} negative below limit")
                continue
            series = truncated_symbol(p, alpha, scan.theta_at_min, 2000)
            if scan.nonnegative or not (
                    series < 0.0
                    and abs(series - scan.min_value) <= 1e-4 * abs(scan.min_value)):
                bad.append(f"symbol p={p} a={alpha} above limit: min "
                           f"{scan.min_value:.6e}, series {series:.6e}")
    for family in bound_families():
        ell_min = 4 if ("shifted" in family or family.startswith("second")) else 3
        for alpha in ALPHA_GRID_19:
            for rec in evaluate_bounds(family, alpha, ell_min, 100):
                if not rec.holds:
                    bad.append(f"{family} a={alpha} ell={rec.ell}: "
                               f"{rec.lower:.3e} !< {rec.observed:.3e} "
                               f"!< {rec.upper:.3e}")
    for ell, ref in ((3, 0.0267), (4, 0.7551)):
        got = pointwise_lower_crossing(ell)
        if abs(got - ref) > 1e-3:
            bad.append(f"crossing ell={ell}: {got:.4f} vs {ref}")
    _report(9, "symbol nonnegativity and bound sandwiches", bad)


def test_criterion_09_names_a_failing_bound(monkeypatch, capsys):
    # the gate's own failure path: one broken sandwich used to end in an
    # UnboundLocalError on `ell` instead of a report of the violation
    def evaluate_one_failing(family, alpha, ell_min, ell_max):
        holds = not (family == "first-tail" and alpha == 0.5)
        return [BoundCheckRecord(family, alpha, 7, 1.0, 2.0, 3.0, holds)]

    monkeypatch.setitem(globals(), "evaluate_bounds", evaluate_one_failing)
    with pytest.raises(AssertionError, match=r"first-tail a=0\.5 ell=7: "):
        test_criterion_09_symbols_and_bounds()
    assert "ACCEPTANCE 09 [FAIL (1 violations)]" in capsys.readouterr().out


def test_criterion_10_stability():
    # stability is required where the scheme's symbol is nonnegative; on
    # every cell the scan must agree with the sign of its real group
    bad = []
    grid = [1e-3, 1e-2, 1e-1, 1.0]
    alphas = [round(0.1 * k, 1) for k in range(1, 9)]
    limits = {"order2": math.inf, "order4": alpha_limit_order4(),
              "order6": SYMBOL_LIMIT[6]}
    for scheme in ("order2", "order4", "order6"):
        for alpha in alphas:
            for rep in stability_scan(scheme, [alpha], grid, grid, 1.0, 1.0,
                                      1.0, 4096):
                h, tau = rep.h, rep.tau
                if rep.passed != (rep.min_real_group >= 0.0):
                    bad.append(f"{scheme} a={alpha} h={h} tau={tau}: "
                               f"passed={rep.passed} but real group "
                               f"min {rep.min_real_group:.3e}")
                if alpha <= limits[scheme] and not rep.passed:
                    bad.append(f"{scheme} a={alpha} h={h} tau={tau}: "
                               f"max|xi|={rep.max_abs:.6f}")
        from rieszkit import AmplificationQuery, amplification_factor
        q = AmplificationQuery(scheme, 0.5, 0.1, 0.1, 1.0, 1.0, 1.0, 0.0)
        if amplification_factor(q) != 1.0 + 0.0j:
            bad.append(f"{scheme}: growth factor at zero angle not exactly 1")
    _report(10, "von Neumann scans over the (alpha, h, tau) grid", bad)


def test_criterion_11_oracle_equivalence():
    bad = []
    cases = [("order2", "example2", 12), ("order4", "example2", 12),
             ("order6", "example3", 12)]
    rng = np.random.default_rng(3)
    for scheme, problem, M in cases:
        spec = builtin_problem(problem, 0.4)
        tau = 0.05
        u0 = rng.standard_normal(M - 1)
        for reflect in (True, False):
            name = naive_scheme(scheme, reflect)
            mats = assemble(name, spec, M, tau)
            got = step(mats, u0, spec.source(mats.source_x, tau / 2))
            ref = NAIVE_STEPS[name](spec, M, tau, u0, tau / 2)
            gap = float(np.max(np.abs(got - ref)))
            if gap >= 1e-13:
                bad.append(f"{name}: one-step gap {gap:.2e}")

    def residual(scheme, problem, alpha, M, tau):
        spec = builtin_problem(problem, alpha)
        mats = assemble(naive_scheme(scheme, False), spec, M, tau)
        x = spec.a + mats.h * np.arange(M + 1)
        u0 = spec.exact(x, 0.25)
        u1 = spec.exact(x, 0.25 + tau)
        r = (mats.A @ u1[1:M] - mats.B @ u0[1:M]
             - mats.source_matrix @ spec.source(mats.source_x, 0.25 + tau / 2))
        return float(np.max(np.abs(r[1:-1]))), float(np.max(np.abs(r[[0, -1]])))

    ladders = [("order2", "example2", (16, 32, 64), lambda M: 1.0 / M, 4.0),
               ("order4", "example2", (32, 64, 128), lambda M: 1.0 / M ** 2, 16.0),
               ("order6", "example3", (32, 64, 128), lambda M: 1.0 / M ** 3, 64.0)]
    for scheme, problem, meshes, tau_of, factor in ladders:
        res = [residual(scheme, problem, 0.4, M, tau_of(M)) for M in meshes]
        for (r0, b0), (r1, b1) in zip(res, res[1:]):
            if abs(r0 / r1 - factor) > 0.2 * factor:
                bad.append(f"{scheme} residual ratio {r0 / r1:.2f} vs {factor}")
            # order6 rows 1 and M-1 reach the ghost nodes a - h and b + h
            if scheme == "order6" and b0 / b1 < 16.0:
                bad.append(f"{scheme} boundary-row residual ratio "
                           f"{b0 / b1:.2f} < 16")
    _report(11, "independent one-step oracle and residual refinement", bad)
