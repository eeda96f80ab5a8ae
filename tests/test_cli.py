"""Command-line front end: outputs, determinism, exit codes."""

import filecmp

import pytest

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

    def test_usage_error_from_argparse(self):
        assert _run(["frobnicate", "--config", "x"]) == 1

    def test_threads_option_is_gone(self, tmp_path):
        cfg = _write(tmp_path,
                     "[stability]\nscheme = order2\nalpha = 0.5\n"
                     "h = 0.1\ntau = 0.1\ntheta_grid = 1024\n")
        assert _run(["stability", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--threads", "2"]) == 1
        assert not (tmp_path / "o").exists()

    def test_empty_bound_range_is_error(self, tmp_path):
        cfg = _write(tmp_path,
                     "[bounds]\nfamily = first-tail\nalpha = 0.5\n"
                     "ell_min = 10\nell_max = 9\n")
        assert _run(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
