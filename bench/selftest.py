"""Tests of the benchmark itself: checks catch wrong outputs, failures are
counted, the tracer's books balance, and plans depend only on the seed.

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SELFTEST_DIR = HERE / "out" / "selftest"


@pytest.fixture
def outdir(request):
    path = SELFTEST_DIR / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _ops(workload, seed, workdir, names):
    plan = workloads.make_plan(workload, seed)
    plan["ops"] = [op for op in plan["ops"] if op["name"] in names]
    return workloads.build_ops(plan, workdir)


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    edit(records)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(records)


def test_plans_depend_only_on_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_plan(name, 7) == workloads.make_plan(name, 7)
        a, b = workloads.make_plan(name, 7), workloads.make_plan(name, 8)
        assert [op["name"] for op in a["ops"]] != [] and a != b
        assert len(a["ops"]) == len(b["ops"])


def test_exact_weights_dyadic_share_is_fixed():
    for seed in range(20):
        ops = workloads.make_plan("exact-weights", seed)["ops"]
        alphas = [op["alpha"] for op in ops if op["kind"] == "weights"]
        assert len(alphas) == 20
        assert sum(tracer.is_short_dyadic(a) for a in alphas) == 5
        assert sum(a < 1 for a in alphas) == 10


def test_wrong_weights_fail_the_route_check(outdir):
    (op,) = _ops("exact-weights", 3, outdir, {"weights-p2-" + str(
        workloads.make_plan("exact-weights", 3)["ops"][0]["alpha"])})
    series, closed = op.run()
    assert op.check((series, closed))[0] == []
    assert op.check((series, closed + 1e-8))[0]


def test_wrong_cli_outputs_fail_their_checks(outdir):
    ops = _ops("sweeps", 3, outdir, {"monotonicity-p2", "bounds-first-tail",
                                      "riesz-p4", "stability-order2"})
    ops += _ops("march", 3, outdir, {"convergence-order4"})
    codes = {op.name: op.run() for op in ops}
    for op in ops:
        assert op.check(codes[op.name])[0] == [], op.name
    assert ops[0].check(1)[0] == ["exit code 1"]

    def shift_tail(records):
        records[1][3] = str(int(records[1][3]) + 1)

    def bump_observed(records):
        records[10][4] = repr(float(records[10][4]) * (1 + 1e-6))

    def flip_pass(records):
        records[5][6] = "0"

    def swap_errors(records):
        records[1][6], records[2][6] = records[2][6], records[1][6]

    edits = {"monotonicity-p2": ("monotonicity.csv", shift_tail),
             "bounds-first-tail": ("bounds.csv", bump_observed),
             "riesz-p4": ("riesz.csv", swap_errors),
             "stability-order2": ("stability.csv", flip_pass),
             "convergence-order4": ("convergence.csv", swap_errors)}
    for op in ops:
        filename, edit = edits[op.name]
        _rewrite_csv(outdir / op.name / filename, edit)
        assert op.check(codes[op.name])[0], op.name


def test_failures_are_counted():
    good = {"ops": [{"ok": True}, {"ok": True}]}
    bad = {"ops": [{"ok": True}, {"ok": False}]}
    crashed = {"error": "exit 1"}
    assert run._count([good, bad, crashed], 2) == (6, 3)


def test_tracer_books_balance_and_restore(outdir):
    import rieszkit
    import rieszkit.cli
    import rieszkit.solver

    original = rieszkit.solver.step
    ops = _ops("march", 5, outdir, {"convergence-order4"})
    t = tracer.Tracer()
    t.install()
    assert rieszkit.solver.step is not original
    assert rieszkit.cli.solve is rieszkit.solver.solve is rieszkit.solve
    start = time.perf_counter()
    assert ops[0].run() == 0
    wall = time.perf_counter() - start
    t.uninstall()
    assert rieszkit.solver.step is original
    m = t.metrics(wall)
    self_total = sum(m[f"{name}.self_s"] for name in tracer.SPAN_NAMES)
    assert self_total + m["unaccounted_s"] == pytest.approx(wall, abs=1e-9)
    assert m["solver.step.calls"] == m["solver.source.calls"] == 2 * (4 + 16 + 64 + 256)
    assert m["solver.lu_solve.calls"] == m["solver.step.calls"]
    assert m["cli.main.calls"] == m["reports.write_csv.calls"] == 1
    assert m["coefficients.closed_form_table.calls"] == 0


def test_tracer_reports_zero_for_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + ("solver.gone",))
    monkeypatch.setattr(tracer, "SPAN_NAMES", tracer.SPAN_NAMES + ("solver.gone",))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.metrics(1.0)["solver.gone.calls"] == 0


def test_wrong_program_is_counted_as_failed(outdir):
    """A checkout whose symbol evaluation is off reports failed operations."""
    shutil.copytree(ROOT / "src", outdir / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, outdir / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", outdir)
    analysis = outdir / "src" / "rieszkit" / "analysis.py"
    text = analysis.read_text()
    assert "    out = np.real(np.power(w, alpha))\n" in text
    analysis.write_text(text.replace(
        "    out = np.real(np.power(w, alpha))\n",
        "    out = np.real(np.power(w, alpha)) * (1.0 + 1e-6)\n"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=outdir, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "FAILED symbol-p6" in proc.stdout


def test_missing_sources_exit_without_result(outdir):
    shutil.copytree(HERE, outdir / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", outdir)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "march", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=outdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_symbol_reference_route_matches_generator():
    from rieszkit import generator_polynomial

    for p in range(1, 7):
        np.testing.assert_allclose(workloads._generator_from_definition(p),
                                   generator_polynomial(p).as_floats(),
                                   rtol=0, atol=1e-14)
