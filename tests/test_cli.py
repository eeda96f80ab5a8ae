"""Command-line front end: outputs, determinism, exit codes."""

import contextlib
import filecmp
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszkit
from rieszkit.cli import main
from rieszkit.reports import read_convergence_csv


def _write(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


def _run(args):
    return main(args)


class TestSubcommands:
    def test_coeffs(self, tmp_path):
        cfg = _write(tmp_path, "[coeffs]\np = 3\nalpha = 0.4\nlength = 50\n")
        out = tmp_path / "out"
        assert _run(["coeffs", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "coeffs.csv").read_text().splitlines()
        assert lines[0] == "p,alpha,ell,value"
        assert len(lines) == 52

    def test_symbol(self, tmp_path):
        cfg = _write(tmp_path,
                     "[symbol]\np = 2\nalpha = 0.5\ntheta_grid = 1024\n")
        out = tmp_path / "out"
        assert _run(["symbol", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "symbol.txt").read_text()
        assert "yes" in text

    def test_bounds(self, tmp_path):
        cfg = _write(tmp_path,
                     "[bounds]\nfamily = first-pointwise\n"
                     "alpha = 0.25, 0.5\nell_min = 3\nell_max = 10\n")
        out = tmp_path / "out"
        assert _run(["bounds", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "bounds.csv").read_text().splitlines()[1:]
        assert len(rows) == 16
        assert all(r.endswith(",1") for r in rows)

    def test_monotonicity(self, tmp_path):
        cfg = _write(tmp_path,
                     "[monotonicity]\np = 3\nalpha = 0.4\nlength = 300\n")
        out = tmp_path / "out"
        assert _run(["monotonicity", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "monotonicity.csv").read_text().splitlines()[1:]
        assert int(rows[0].split(",")[-1]) <= 4

    def test_riesz_and_roundtrip(self, tmp_path):
        cfg = _write(tmp_path,
                     "[riesz]\np = 2\nalpha = 0.2\nh = 1/20, 1/40\n")
        out = tmp_path / "out"
        assert _run(["riesz", "--config", cfg, "--out", str(out)]) == 0
        reports = read_convergence_csv(out / "riesz.csv")
        assert len(reports) == 1
        assert abs(reports[0].rows[0].error - 2.381267e-4) / 2.381267e-4 < 1e-5

    def test_solve(self, tmp_path):
        cfg = _write(tmp_path,
                     "[solve]\nscheme = order2\nproblem = example2\n"
                     "alpha = 0.5\nM = 10\nN = 10\n")
        out = tmp_path / "out"
        assert _run(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "solve.csv").read_text().splitlines()[1:]
        assert len(rows) == 11

    @pytest.mark.parametrize("scheme,problem,ladder,floor", [
        ("order4-consistent", "example2", "16:64, 32:256, 64:1024, 128:4096", 3.9),
        ("order6-consistent", "example3", "16:64, 32:512, 64:4096", 5.8),
    ])
    def test_consistent_schemes_keep_their_order(self, tmp_path, scheme,
                                                 problem, ladder, floor):
        # d1 != 0 in both problems; at alpha = 0.7 the mirrored order4 and
        # order6 reach only 3.49, 2.47, 1.84 and 5.79, 5.20 on these ladders,
        # the consistent schemes 4.00, 4.19, 4.16 and 6.08, 6.03
        cfg = _write(tmp_path, f"[convergence]\nscheme = {scheme}\n"
                               f"problem = {problem}\nalpha = 0.7\nladder = {ladder}\n")
        out = tmp_path / "out"
        assert _run(["convergence", "--config", cfg, "--out", str(out)]) == 0
        [report] = read_convergence_csv(out / "convergence.csv")
        assert report.study == scheme
        assert all(row.error > 1e-13 for row in report.rows)
        orders = [row.spatial_order for row in report.rows[1:]]
        assert all(order >= floor for order in orders), orders

    def test_convergence_roundtrip_exact(self, tmp_path):
        cfg = _write(tmp_path,
                     "[convergence]\nscheme = order2\nproblem = example2\n"
                     "alpha = 0.5\nladder = 10:10, 20:20\n")
        out = tmp_path / "out"
        assert _run(["convergence", "--config", cfg, "--out", str(out)]) == 0
        reports = read_convergence_csv(out / "convergence.csv")
        assert len(reports) == 1
        rep = reports[0]
        from rieszkit import convergence_study
        ref = convergence_study("order2", "example2", 0.5, [(10, 10), (20, 20)])
        assert rep.rows == ref.rows
        assert rep.alpha == ref.alpha and rep.norm == ref.norm

    def test_stability(self, tmp_path):
        cfg = _write(tmp_path,
                     "[stability]\nscheme = order2\nalpha = 0.5\n"
                     "h = 0.1\ntau = 0.1\ntheta_grid = 1024\n")
        out = tmp_path / "out"
        assert _run(["stability", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "stability.csv").read_text().splitlines()[1:]
        assert rows[0].endswith(",1")

    def test_stability_without_fractional_term(self, tmp_path):
        # d_alpha = 0 is the plain advection-diffusion scheme, which solve
        # also accepts
        cfg = _write(tmp_path,
                     "[stability]\nscheme = order6\nalpha = 0.5\n"
                     "h = 0.1\ntau = 0.1\nd_alpha = 0\ntheta_grid = 1024\n")
        out = tmp_path / "out"
        assert _run(["stability", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "stability.csv").read_text().splitlines()[1:]
        assert len(rows) == 1 and rows[0].endswith(",1")

    def test_stability_scans_every_alpha_in_one_call(self, tmp_path,
                                                     monkeypatch):
        # the theta grid, the Fourier basis and W_p are built once per scan,
        # so a run scans all of its alphas in one call
        import rieszkit.cli as cli

        calls, scan = [], cli.stability_scan

        def counting(*args, **kw):
            calls.append(args)
            return scan(*args, **kw)

        monkeypatch.setattr(cli, "stability_scan", counting)
        cfg = _write(tmp_path,
                     "[stability]\nscheme = order4\nalpha = 0.2, 0.5, 0.8\n"
                     "h = 0.1, 1\ntau = 0.1\ntheta_grid = 1024\n")
        out = tmp_path / "out"
        assert _run(["stability", "--config", cfg, "--out", str(out)]) == 0
        assert [args[1] for args in calls] == [[0.2, 0.5, 0.8]]
        rows = (out / "stability.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1:3] for r in rows] == [
            [f"{a:.16e}", f"{h:.16e}"] for a in (0.2, 0.5, 0.8) for h in (0.1, 1)]

    def test_symbol_table_leaves_no_object_per_row(self, tmp_path, monkeypatch,
                                                   capsys):
        # write_csv joins the lines straight from the columns: a row tuple
        # kept per CSV line (12 317 objects here) set off a full collection
        import rieszkit.cli as cli

        live, rows = self._live_objects(
            tmp_path, monkeypatch, "symbol",
            lambda: cli._cmd_symbol(6, [0.2, 0.5, 0.8], 4096))
        assert rows == 3 * 4096
        assert live < 0.01 * rows

    @staticmethod
    def _live_objects(tmp_path, monkeypatch, name, command):
        """Most GC-tracked objects alive, net of those before, when the
        command calls text_table (its tables and columns are alive then)
        and after its outputs are written; and the CSV rows.  The objects
        are counted, not allocations, which free lists blur."""
        import gc

        import rieszkit.cli as cli

        seen, text_table = [], cli.text_table

        def sampling(*args):
            seen.append(len(gc.get_objects()) - before)
            return text_table(*args)

        monkeypatch.setattr(cli, "text_table", sampling)
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            cli._write_outputs(tmp_path / "out", name, *command())
            seen.append(len(gc.get_objects()) - before)
        finally:
            if enabled:
                gc.enable()
        rows = (tmp_path / "out" / f"{name}.csv").read_text().count("\n") - 1
        return max(seen), rows

    def test_bounds_table_leaves_no_object_per_row(self, tmp_path, monkeypatch,
                                                   capsys):
        # a bound table is arrays per alpha, formatted by column: a record
        # and a text row per index were alive at the text table
        import rieszkit.cli as cli

        live, rows = self._live_objects(
            tmp_path, monkeypatch, "bounds",
            lambda: cli._cmd_bounds("first-pointwise", [0.2, 0.5, 0.8], 3, 4098))
        assert rows == 3 * 4096
        assert live < 0.01 * rows

    def test_stability_table_leaves_no_object_per_row(self, tmp_path,
                                                      monkeypatch, capsys):
        # a scan is one report of arrays over its cells: a report and a
        # text row per cell were alive at the text table
        import rieszkit.cli as cli

        steps = [0.001 * k for k in range(1, 51)]
        live, rows = self._live_objects(
            tmp_path, monkeypatch, "stability",
            lambda: cli._cmd_stability("order6", [0.3, 0.9], steps, steps,
                                       1.0, 1.0, 1.0, 1024))
        assert rows == 2 * 50 * 50
        assert live < 0.01 * rows

    @pytest.mark.parametrize("args, key, expected", [
        (["--out", "D"], "out = E\n", "D"),
        ([], "out = E\n", "E"),
        ([], "", "rieszkit-out"),
        (["--out", ""], "out = E\n", "rieszkit-out"),
    ], ids=["option-over-key", "key", "default", "empty-option"])
    def test_output_directory(self, tmp_path, monkeypatch, args, key, expected):
        # --out if given, else the section's out key, else rieszkit-out; an
        # empty value falls through to rieszkit-out
        monkeypatch.chdir(tmp_path)
        _write(tmp_path, f"[coeffs]\np = 2\nalpha = 0.5\nlength = 20\n{key}")
        assert _run(["coeffs", "--config", "run.cfg", *args]) == 0
        written = {f.relative_to(tmp_path).as_posix()
                   for f in tmp_path.rglob("*") if f.is_file()}
        assert written == {"run.cfg", f"{expected}/coeffs.csv",
                           f"{expected}/coeffs.txt",
                           f"{expected}/manifest.txt"}


DETERMINISM_CONFIGS = {
    "convergence": "[convergence]\nscheme = order2\nproblem = example2\n"
                   "alpha = 0.3, 0.5\nladder = 10:10, 20:20\n",
    "stability": "[stability]\nscheme = order4\nalpha = 0.2, 0.4\n"
                 "h = 0.1, 1\ntau = 0.1, 0.01\nd1 = 0.5\nd_alpha = 2\n"
                 "theta_grid = 1024\n",
    "bounds": "[bounds]\nfamily = second-pointwise\nalpha = 0.3, 0.55\n"
              "ell_min = 4\nell_max = 40\n",
}


class TestDeterminism:
    @pytest.mark.parametrize("command", sorted(DETERMINISM_CONFIGS))
    def test_repeated_runs_byte_identical(self, tmp_path, command):
        cfg = _write(tmp_path, DETERMINISM_CONFIGS[command])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _run([command, "--config", cfg, "--out", str(out1)]) == 0
        assert _run([command, "--config", cfg, "--out", str(out2)]) == 0
        for name in (f"{command}.csv", f"{command}.txt", "manifest.txt"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False)


class TestErrors:
    def test_empty_alpha_list_is_usage_error(self, tmp_path):
        cfg = _write(tmp_path,
                     "[convergence]\nscheme = order2\nproblem = example2\n"
                     "alpha =\nladder = 10:10\n")
        assert _run(["convergence", "--config", cfg]) == 1

    def test_alpha_outside_unit_interval(self, tmp_path):
        cfg = _write(tmp_path,
                     "[convergence]\nscheme = order2\nproblem = example2\n"
                     "alpha = 1.4\nladder = 10:10\n")
        assert _run(["convergence", "--config", cfg]) == 1

    def test_non_refining_ladder(self, tmp_path):
        cfg = _write(tmp_path,
                     "[convergence]\nscheme = order2\nproblem = example2\n"
                     "alpha = 0.4\nladder = 20:20, 10:10\n")
        assert _run(["convergence", "--config", cfg]) == 1

    def test_missing_config_file(self, tmp_path):
        assert _run(["coeffs", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_malformed_config_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[coeffs]\np = 3\nalpha 0.4\n")
        assert _run(["coeffs", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "3" in err

    def test_stability_zero_step_is_usage_error(self, tmp_path, capsys):
        cfg = _write(tmp_path,
                     "[stability]\nscheme = order2\nalpha = 0.5\n"
                     "h = 0, 0.1\ntau = 0.1\ntheta_grid = 1024\n")
        assert _run(["stability", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "positive" in capsys.readouterr().err

    def test_stability_infinite_coefficient_is_usage_error(self, tmp_path,
                                                           capsys):
        cfg = _write(tmp_path,
                     "[stability]\nscheme = order2\nalpha = 0.5\n"
                     "h = 0.1\ntau = 0.1\nd1 = inf\ntheta_grid = 1024\n")
        assert _run(["stability", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("steps", ["0", "1/20, 0.0"])
    def test_riesz_zero_step_is_usage_error(self, tmp_path, capsys, steps):
        cfg = _write(tmp_path, f"[riesz]\np = 2\nalpha = 0.4\nh = {steps}\n")
        assert _run(["riesz", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: step 0.0 ")

    def test_unknown_bound_family(self, tmp_path):
        cfg = _write(tmp_path,
                     "[bounds]\nfamily = nope\nalpha = 0.5\n")
        assert _run(["bounds", "--config", cfg]) == 1

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        from rieszkit import SolverError
        import rieszkit.cli as cli

        def boom(*args, **kwargs):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "solve", boom)
        cfg = _write(tmp_path,
                     "[solve]\nscheme = order2\nproblem = example2\n"
                     "alpha = 0.5\nM = 10\nN = 10\n")
        assert _run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, target, keys, exc, err", [
        ("coeffs", "expand_generating_function",
         "p = 2\nalpha = 0.5\nlength = 400000\n",
         MemoryError("Unable to allocate 7.28 TiB"),
         "error: out of memory: Unable to allocate 7.28 TiB\n"),
        ("solve", "solve",
         "scheme = order2\nproblem = example2\nalpha = 0.5\nM = 4096\nN = 10\n",
         MemoryError("Unable to allocate 7.28 TiB"),
         "error: out of memory: Unable to allocate 7.28 TiB\n"),
        # Python's own allocations, such as a list growing, raise it with no
        # message, and the line names the command instead
        ("symbol", "check_symbol_nonnegativity", "p = 2\nalpha = 0.5\n", MemoryError(),
         "error: out of memory in symbol\n"),
    ], ids=["coeffs", "solve", "bare"])
    def test_out_of_memory_is_error(self, tmp_path, monkeypatch, capsys,
                                    command, target, keys, exc, err):
        # the failing allocation is simulated: the checks refuse a count or
        # table too large first, and what they let through fails only on a
        # small machine
        import rieszkit.cli as cli

        def alloc(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, target, alloc)
        cfg = _write(tmp_path, f"[{command}]\n{keys}")
        assert _run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, key", [
        ("[symbol]\np = 2\nalpha = 0.5\ntheta_gird = 8192\n", "theta_gird"),
        ("[symbol]\np = 2\nalpha = 0.5\nlength = 300\n", "length"),
        ("[DEFAULT]\nscheme = order2\n[symbol]\np = 2\nalpha = 0.5\n", "scheme"),
    ], ids=["misspelled", "other-subcommand", "from-default"])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, text, key):
        # a misspelled theta_gird was dropped, and the run went on at the
        # default theta_grid = 4096 and exited 0
        cfg = _write(tmp_path, text)
        assert _run(["symbol", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown key '{key}' in [symbol], which takes p, alpha, "
            "theta_grid, out\n")
        assert not (tmp_path / "o").exists()

    def test_out_key_from_default_is_taken(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path, "[DEFAULT]\nout = E\n[coeffs]\np = 2\nalpha = 0.5\n")
        assert _run(["coeffs", "--config", "run.cfg"]) == 0
        assert (tmp_path / "E" / "coeffs.csv").is_file()

    @pytest.mark.parametrize("out", ["file", "file/below"])
    def test_out_path_through_a_file_is_error(self, tmp_path, capsys, out):
        cfg = _write(tmp_path, "[coeffs]\np = 3\nalpha = 0.4\nlength = 50\n")
        (tmp_path / "file").write_text("")
        assert _run(["coeffs", "--config", cfg,
                     "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert (tmp_path / "file").read_text() == ""

    def test_config_naming_a_directory_is_error(self, tmp_path, capsys):
        assert _run(["coeffs", "--config", str(tmp_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read config file")
        assert not (tmp_path / "o").exists()

    def test_usage_error_from_argparse(self):
        assert _run(["frobnicate", "--config", "x"]) == 1

    def test_threads_option_is_gone(self, tmp_path):
        cfg = _write(tmp_path,
                     "[stability]\nscheme = order2\nalpha = 0.5\n"
                     "h = 0.1\ntau = 0.1\ntheta_grid = 1024\n")
        assert _run(["stability", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--threads", "2"]) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("steps", ["h = 1e-200\ntau = 0.1",
                                       "h = 0.1\ntau = 1e-310"])
    def test_stability_overflow_is_usage_error(self, tmp_path, capsys, steps):
        cfg = _write(tmp_path,
                     "[stability]\nscheme = order4\nalpha = 0.5\n"
                     f"{steps}\ntheta_grid = 1024\n")
        assert _run(["stability", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "out of double range" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("chunk", ["0:1:1e-200", "0:1:1e-310", "0:inf:1",
                                       "nan:1:0.5", "0:1:0"])
    def test_range_without_finite_count_is_usage_error(self, tmp_path, capsys,
                                                       chunk):
        cfg = _write(tmp_path, f"[symbol]\np = 2\nalpha = {chunk}\n")
        assert _run(["symbol", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "invalid range for 'alpha'" in capsys.readouterr().err

    def test_riesz_step_with_infinite_reciprocal(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[riesz]\np = 2\nalpha = 0.4\nh = 1e-310\n")
        assert _run(["riesz", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "reciprocal" in capsys.readouterr().err

    def test_symbol_rejects_nan_alpha(self, tmp_path):
        cfg = _write(tmp_path, "[symbol]\np = 3\nalpha = nan\n")
        assert _run(["symbol", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_percent_in_value_is_usage_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[coeffs]\np = 3\nalpha = 0.4%\n")
        assert _run(["coeffs", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "'%'" in capsys.readouterr().err

    def test_empty_bound_range_is_error(self, tmp_path):
        cfg = _write(tmp_path,
                     "[bounds]\nfamily = first-tail\nalpha = 0.5\n"
                     "ell_min = 10\nell_max = 9\n")
        assert _run(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("command, target, keys", [
        ("solve", "solve", "scheme = order2\nproblem = example2\nM = 8\nN = 8\n"),
        ("convergence", "convergence_study",
         "scheme = order2\nproblem = example2\nladder = 4:4, 8:8\n"),
    ], ids=["solve", "convergence"])
    def test_every_alpha_checked_before_any_work(self, tmp_path, monkeypatch,
                                                 capsys, command, target, keys):
        import rieszkit.cli as cli

        calls = []
        monkeypatch.setattr(cli, target, lambda *args, **kw: calls.append(args))
        cfg = _write(tmp_path, f"[{command}]\nalpha = 0.3, 1.4\n{keys}")
        assert _run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert calls == []
        assert not (tmp_path / "o").exists()
        assert "alpha" in capsys.readouterr().err

    def test_stability_alpha_outside_unit_interval(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[stability]\nscheme = order2\nalpha = 1.4\n"
                               "h = 0.1\ntau = 0.1\ntheta_grid = 1024\n")
        assert _run(["stability", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "alpha must lie in (0, 1), got 1.4" in capsys.readouterr().err

    def test_unknown_bound_family_lists_the_families(self, tmp_path, capsys):
        from rieszkit import bound_families

        cfg = _write(tmp_path, "[bounds]\nfamily = nope\nalpha = 0.5\n")
        assert _run(["bounds", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "unknown bound family 'nope'" in err
        assert len(bound_families()) == 8
        assert all(repr(family) in err for family in bound_families())


# Config fuzzer.  Each example starts from a working config of one
# subcommand, replaces or deletes a few of its keys and may add sections
# (DEFAULT, other subcommands, junk names).  Numbers come from an alphabet
# of ordinary, tiny, huge and non-finite values.  Size keys, the ladder's
# M:N pairs and the riesz step h (whose reciprocal is the mesh size) come
# from bounded ranges instead, so no example allocates more than a few
# megabytes; huge sizes are not fuzzed.
_BASE = {
    "bounds": {"family": "first-tail", "alpha": "0.4", "ell_min": "3",
               "ell_max": "40"},
    "coeffs": {"p": "4", "alpha": "0.4, 1.3", "length": "60"},
    "convergence": {"scheme": "order4", "problem": "example2", "alpha": "0.4",
                    "ladder": "4:4, 8:16"},
    "monotonicity": {"p": "3", "alpha": "0.4", "length": "200"},
    "riesz": {"p": "2", "alpha": "0.4", "h": "1/8, 1/16", "metric": "midpoint"},
    "solve": {"scheme": "order6", "problem": "example3", "alpha": "0.4",
              "m": "8", "n": "8"},
    "stability": {"scheme": "order4", "alpha": "0.4", "h": "0.1", "tau": "0.1",
                  "d1": "1", "d2": "1", "d_alpha": "1", "theta_grid": "1024"},
    "symbol": {"p": "3", "alpha": "0.4", "theta_grid": "1024"},
}
_NUMBERS = [["1e-200", "1e-310", "5e-324", "1e200", "1e308", "1e309"],
            ["inf", "nan", "-inf"],
            ["0:1:1e-200", "0:1:1e-310", "0:inf:1", "nan:1:0.5", "0:1:0",
             "0.6:0.2:0.1", "0.2:0.6:0.2", "1:2"],
            ["0.37", "1.5", "1/3", "0", "-1", "1/0"]]
_JUNK = st.text(alphabet=" ,:/#%=eE.-+0123456789xyz[]", max_size=10)
_NON_INTEGERS = ["", "x", "1.5", "1e3", "-", "inf", "nan", "1/2"]


def _bounded_int(lo, hi):
    return st.integers(lo, hi).map(str) | st.sampled_from(_NON_INTEGERS)


def _words(*words):
    return st.sampled_from(list(words) + ["", "x"]) | _JUNK


# one class of number (tiny or huge, non-finite, range, ordinary) or junk
# text per value or list chunk; hypothesis favours the first entries
_FLOAT = st.one_of(*map(st.sampled_from, _NUMBERS), _JUNK)
_FLOATS = st.lists(_FLOAT, min_size=1, max_size=2).map(", ".join)
_VALUES = {
    "m": _bounded_int(-2, 40),
    "n": _bounded_int(-2, 64),
    "length": _bounded_int(-2, 400),
    "ell_max": _bounded_int(-2, 200),
    "theta_grid": _bounded_int(-2, 5000),
    "ell_min": st.integers(-10 ** 6, 10 ** 6).map(str) | st.sampled_from(_NON_INTEGERS),
    "ladder": st.lists(
        st.tuples(st.integers(-1, 40), st.integers(-1, 64)).map("{0[0]}:{0[1]}".format)
        | st.sampled_from(["8", "8:8:8", "x:1", ":", "1e3:4"]),
        min_size=1, max_size=3).map(", ".join),
    "p": st.integers(-2, 9).map(str) | _FLOATS,
    "alpha": _FLOATS,
    "tau": _FLOATS,
    "d1": _FLOAT,
    "d2": _FLOAT,
    "d_alpha": _FLOAT,
    "scheme": _words("order2", "order4", "order6", "order8",
                     "order4-consistent", "order6-consistent"),
    "problem": _words("example2", "example3", "custom"),
    "family": _words("first-pointwise", "first-tail", "first-tail-damped",
                     "second-pointwise", "second-shifted-pointwise"),
    "metric": _words("midpoint", "maximum"),
    "seed": _JUNK,
}
# h is a plain float for stability but a mesh size for riesz
_RIESZ_STEPS = st.lists(
    st.one_of(st.sampled_from(["1e-310", "1e308", "inf", "nan", "1/0"]),
              st.sampled_from(["0", "-1", "1.5"]),
              st.sampled_from(["1/8", "1/20", "0.05", "0.3", "1/2"]), _JUNK),
    min_size=1, max_size=2).map(", ".join)
_KEYS = sorted(set(_VALUES) | {"h"})


@st.composite
def _config(draw, command):
    sections = {command: dict(_BASE[command])}
    for name in draw(st.lists(st.sampled_from(sorted(_BASE)
                                              + ["DEFAULT", "extra", ""]),
                              max_size=2, unique=True)):
        sections.setdefault(name, {})
    for name, keys in sections.items():
        # mostly the section's own keys, so a single bad value reaches the
        # code behind an otherwise working config
        own = st.lists(st.sampled_from(sorted(keys) or _KEYS),
                       min_size=name == command, max_size=3)
        chosen = draw(own) + draw(st.lists(st.sampled_from(_KEYS), max_size=1))
        for key in chosen:
            if draw(st.integers(0, 7)) == 7:
                keys.pop(key, None)
            elif key == "h":
                keys[key] = draw(_FLOATS if name == "stability" else _RIESZ_STEPS)
            else:
                keys[key] = draw(_VALUES[key])
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


class TestOversizedCounts:
    """A huge count must be refused before any work.  Each case runs in a
    child whose address space is capped at 1.5 GB, under a timeout, so a
    missing check fails the test instead of exhausting the machine (before
    the checks, coeffs ran 29 s under such a cap and a bounds call grew a
    list until it was killed; before the table bounds, the stability case
    below ran past 20 s, the symbol case ended in "out of memory" after
    8 s, and the solve case marched all 999 alphas, 20 of them in 3.8 s;
    before the bound on a run's solve work, the work cases marched every
    solve, and two solves at M = 4096, N = 238 took 12.3 s; before the
    bound on a bounds table's exact-weight work, 50 second-order alphas at
    ell_max = 500 took 28.5 s)."""

    @staticmethod
    def _capped(code, cwd):
        cap = 3 << 29
        prelude = ("import resource, sys, time\n"
                   f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(rieszkit.__file__).parents[1])}
        return subprocess.run([sys.executable, "-c", prelude + code], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=60)

    def _cli_capped(self, tmp_path, command, keys):
        """Run the command in a capped child; its stdout is the seconds that
        main took."""
        _write(tmp_path, f"[{command}]\n{keys}")
        return self._capped(
            "from rieszkit.cli import main\n"
            "t0 = time.perf_counter()\n"
            f"code = main(['{command}', '--config', 'run.cfg', '--out', 'o'])\n"
            "print(time.perf_counter() - t0)\n"
            "sys.exit(code)\n", tmp_path)

    def test_coeffs_length_refused_at_once(self, tmp_path):
        run = self._cli_capped(tmp_path, "coeffs",
                               "p = 2\nalpha = 0.5\nlength = 1000000000\n")
        assert run.returncode == 1, run.stderr
        assert float(run.stdout) < 1.0
        assert run.stderr.startswith("error: length must be an integer in 0..")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, keys, message", [
        ("stability", "scheme = order6\nalpha = 0.5\n"
                      "h = 0.00001:1:0.00001\ntau = 0.00001:1:0.00001\n",
         "error: scan points (alphas x hs x taus x grid_size = "
         "1 x 100000 x 100000 x 4096) must be an integer in 0.."),
        ("symbol", "p = 6\nalpha = 0.001:0.999:0.001\ntheta_grid = 1000000\n",
         "error: table rows (alphas x rows per alpha = 999 x 1000000) "
         "must be an integer in 0.."),
        ("solve", "scheme = order2\nproblem = example2\n"
                  "alpha = 0.001:0.999:0.001\nM = 2048\nN = 1\n",
         "error: table rows (alphas x rows per alpha = 999 x 2049) "
         "must be an integer in 0.."),
        # the solve work of a run: each solve alone is within solve's bound
        ("solve", "scheme = order2\nproblem = example2\n"
                  "alpha = 0.1:0.9:0.1\nM = 4096\nN = 238\n",
         "error: solve work (alphas x work per alpha = 9 x 3991027950) "
         "must be an integer in 0..4000000000, got 35919251550\n"),
        ("convergence", "scheme = order2\nproblem = example2\nalpha = 0.5\n"
                        "ladder = 2048:200, 4096:238\n",
         "error: solve work (alphas x work per alpha = 1 x 4829069750) "
         "must be an integer in 0..4000000000, got 4829069750\n"),
        # an M out of range is named before the run's work is summed
        ("solve", "scheme = order2\nproblem = example2\nalpha = 0.5\n"
                  "M = 70000\nN = 1\n",
         "error: M must be an integer in 4..4096, got 70000\n"),
        ("convergence", "scheme = order2\nproblem = example2\nalpha = 0.5\n"
                        "ladder = 64:10, 100000:20\n",
         "error: M must be an integer in 4..4096, got 100000\n"),
        # the exact weights of a second-order bounds table, once per alpha
        ("bounds", "family = second-pointwise\nalpha = 0.01:0.5:0.01\n"
                   "ell_min = 4\nell_max = 500\n",
         "error: exact-weight work (alphas x ell_max**3 = 50 x 500**3) "
         "must be an integer in 0..2000000000, got 6250000000\n"),
    ], ids=["stability-cells", "symbol-rows", "solve-rows", "solve-work",
            "convergence-work", "solve-mesh", "convergence-mesh",
            "bounds-exact-work"])
    def test_table_refused_at_once(self, tmp_path, command, keys, message):
        run = self._cli_capped(tmp_path, command, keys)
        assert run.returncode == 1, run.stderr
        assert float(run.stdout) < 1.0
        assert run.stderr.startswith(message)
        assert not (tmp_path / "o").exists()

    def test_bound_index_refused_at_once(self, tmp_path):
        run = self._capped(
            "from rieszkit.analysis import evaluate_bounds\n"
            "try:\n"
            "    evaluate_bounds('first-pointwise', 0.5, 3, 10**400)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n", tmp_path)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("ell_max must be an integer in 3..")


class TestConfigFuzz:
    """Every config ends in exit code 0, 1 or 2, never a traceback, and a
    run that succeeds writes no nan."""

    @pytest.mark.parametrize("command", sorted(_BASE))
    @given(data=st.data())
    @settings(max_examples=100)
    def test_every_config_ends_in_an_exit_code(self, command, data):
        text = data.draw(_config(command), label="config")
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(text)
            out = Path(tmp) / "out"
            code = main([command, "--config", str(cfg), "--out", str(out)])
            csv_text = (out / f"{command}.csv").read_text() if code == 0 else ""
        assert code in (0, 1, 2)
        assert "nan" not in csv_text
