import json
import math
import subprocess
import sys

import pytest

from raygrowth import cli
from raygrowth.cli import main, parse_angle
from raygrowth.errors import ParseError
from raygrowth.kernels import ProblemParams
from raygrowth.mellin import QuadratureSpec


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


class TestAngleParsing:
    def test_radians_default(self):
        assert parse_angle("1.25") == 1.25

    def test_explicit_units(self):
        assert parse_angle("90deg") == pytest.approx(math.pi / 2)
        assert parse_angle("1.5rad") == 1.5

    def test_root_token(self):
        beta = parse_angle("root", ProblemParams(3, 0.5))
        assert 129.0 <= math.degrees(beta) <= 131.0
        assert parse_angle("root0", ProblemParams(3, 0.5)) == beta

    def test_bad_tokens(self):
        with pytest.raises(ParseError):
            parse_angle("ninety")
        for token in ("root7", "rootx", "root-1"):
            with pytest.raises(ParseError):
                parse_angle(token, ProblemParams(3, 0.5))

    def test_bad_root_index_exit_code(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "indicator", "--theta", "rootx")
        assert code == 4
        assert "rootx" in capsys.readouterr().err


class TestIndicatorCommand:
    def test_exit_zero_and_values(self, tmp_path):
        code, text = run_cli(tmp_path, "indicator", "--n", "3", "--rho", "0.5",
                             "--theta", "0.0,90deg")
        assert code == 0
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        row0 = dict(zip(header, lines[1].split(",")))
        assert float(row0["H_closed"]) == pytest.approx(4.7123890, abs=1e-6)
        assert float(row0["H_integral"]) == pytest.approx(4.7123890, abs=1e-6)

    def test_zero_type_constant_rows(self, tmp_path):
        code, text = run_cli(tmp_path, "indicator", "--n", "3", "--rho", "0.5",
                             "--delta", "0.0", "--theta", "0.5,1.5")
        assert code == 0
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("theta"):
                continue
            fields = line.split(",")
            assert float(fields[2]) == 0.0

    def test_root_angle_row_small(self, tmp_path):
        code, text = run_cli(tmp_path, "indicator", "--n", "3", "--rho", "0.5",
                             "--theta", "root")
        assert code == 0
        data_line = [l for l in text.splitlines() if not l.startswith(("#", "theta"))][0]
        assert abs(float(data_line.split(",")[2])) < 1e-6

    def test_tolerance_failure_exit_code(self, tmp_path, monkeypatch):
        # an integral that misses the closed form by 1e-6 relative fails a
        # tolerance of 1e-8 and passes one of 1e-4
        exact = cli.indicator_integral

        def skewed(params, theta1, quad=None, full_output=False):
            value, res = exact(params, theta1, quad, full_output=True)
            return value * (1.0 + 1e-6), res

        monkeypatch.setattr(cli, "indicator_integral", skewed)
        argv = ("indicator", "--n", "3", "--rho", "0.5", "--theta", "0.7")
        code, text = run_cli(tmp_path, *argv, "--tol", "1e-8")
        assert code == 2
        assert "H_integral" in text
        code, _ = run_cli(tmp_path, *argv, "--tol", "1e-4")
        assert code == 0

    def test_quadrature_flag_exit_code(self, tmp_path, monkeypatch, capsys):
        # two refinement levels cannot reach 1e-10: the flag alone fails the run
        monkeypatch.setattr(cli, "_quad_from", lambda tol: QuadratureSpec(max_level=2))
        code, text = run_cli(tmp_path, "indicator", "--n", "3", "--rho", "0.5", "--theta", "1.0")
        assert code == 2
        assert "quadrature flagged" in capsys.readouterr().err
        assert "H_integral" in text

    def test_provenance_header(self, tmp_path):
        _, text = run_cli(tmp_path, "indicator", "--theta", "0.3")
        assert text.splitlines()[0].startswith("# raygrowth ")
        assert any(l.startswith("# command=indicator") for l in text.splitlines())


class TestZerosCommand:
    def test_single_root(self, tmp_path):
        code, text = run_cli(tmp_path, "zeros", "--n", "3", "--rho", "0.5")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith(("#", "n,"))]
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert 129.0 <= float(fields[3]) <= 131.0
        assert float(fields[5]) < 1e-10  # residual

    def test_n5(self, tmp_path):
        code, text = run_cli(tmp_path, "zeros", "--n", "5", "--rho", "0.5")
        rows = [l for l in text.splitlines() if not l.startswith(("#", "n,"))]
        assert code == 0 and len(rows) == 1
        assert 114.0 <= float(rows[0].split(",")[3]) <= 116.0

    def test_three_roots(self, tmp_path):
        code, text = run_cli(tmp_path, "zeros", "--n", "3", "--rho", "2.5")
        rows = [l for l in text.splitlines() if not l.startswith(("#", "n,"))]
        assert code == 0 and len(rows) == 3
        for row in rows:
            assert float(row.split(",")[5]) < 1e-10

    def test_gamma_overflow_exit_code(self, tmp_path, capsys):
        # Gamma((n-1)/2) = Gamma(199.5) overflows: a domain error, no traceback
        code, _ = run_cli(tmp_path, "zeros", "--n", "400")
        assert code == 3
        assert "overflows" in capsys.readouterr().err


class TestMellinVerifyCommand:
    def test_default_grid_passes(self, tmp_path):
        code, text = run_cli(tmp_path, "mellin-verify")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith(("#", "lam"))]
        assert len(rows) == 4 * 3 * 5
        assert all(float(r.split(",")[-1]) <= 1e-8 for r in rows)

    def test_seeded_samples_deterministic(self, tmp_path):
        _, a = run_cli(tmp_path, "mellin-verify", "--samples", "3", "--seed", "42")
        _, b = run_cli(tmp_path, "mellin-verify", "--samples", "3", "--seed", "42")
        assert a == b
        _, c = run_cli(tmp_path, "mellin-verify", "--samples", "3", "--seed", "43")
        assert a != c


class TestSimulateCommand:
    def test_power_law_sweep(self, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text("powerlaw delta=1.0 rho=0.5\n")
        code, text = run_cli(tmp_path, "simulate", "--model", str(model),
                             "--n", "3", "--rho", "0.5", "--theta", "90deg",
                             "--grid", "1e2:1e6:9")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith(("#", "theta"))]
        last = rows[-1].split(",")
        header = [l for l in text.splitlines() if l.startswith("theta")][0].split(",")
        rel = float(dict(zip(header, last))["rel_err_vs_indicator"])
        assert rel <= 0.01

    def test_single_atom_row(self, tmp_path):
        model = tmp_path / "atom.txt"
        model.write_text("atom t=2.0 mass=1.0\n")
        code, text = run_cli(tmp_path, "simulate", "--model", str(model),
                             "--n", "3", "--rho", "0.5", "--theta", "90deg",
                             "--grid", "1:16:5")
        assert code == 0
        header = [l for l in text.splitlines() if l.startswith("theta")][0].split(",")
        first = [l for l in text.splitlines() if not l.startswith(("#", "theta"))][0]
        row = dict(zip(header, first.split(",")))
        assert float(row["u"]) == pytest.approx(0.5 * (1 - 1.25 ** -0.5), rel=1e-10)

    def test_quadrature_flag_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_quad_from", lambda tol: QuadratureSpec(max_level=2))
        model = tmp_path / "model.txt"
        model.write_text("perturbed delta=1.0 rho=0.5 eps=inv_log\n")
        code, text = run_cli(tmp_path, "simulate", "--model", str(model),
                             "--n", "3", "--rho", "0.5", "--theta", "1.0",
                             "--grid", "1e2:1e4:5")
        assert code == 2
        assert "quadrature flags" in capsys.readouterr().err
        assert "extrapolated" in text

    def test_parse_error_exit(self, tmp_path):
        model = tmp_path / "bad.txt"
        model.write_text("powerlaw delta=oops\n")
        code, _ = run_cli(tmp_path, "simulate", "--model", str(model))
        assert code == 4

    def test_missing_model_file(self, tmp_path):
        code, _ = run_cli(tmp_path, "simulate", "--model", str(tmp_path / "nope.txt"))
        assert code == 4


class TestSolveOrderCommand:
    def test_recovers_half(self, tmp_path):
        code, text = run_cli(tmp_path, "solve-order", "--n", "3",
                             "--delta-bar", str(math.pi / 4))
        assert code == 0
        row = [l for l in text.splitlines() if not l.startswith(("#", "n,"))][0]
        assert float(row.split(",")[2]) == pytest.approx(0.5, abs=1e-6)

    def test_out_of_range_exit_and_interval(self, tmp_path, capsys):
        code = main(["solve-order", "--n", "3", "--delta-bar", "1e6"])
        assert code == 3
        err = capsys.readouterr().err
        assert "admissible interval" in err

    def test_gamma_overflow_exit_code(self, tmp_path, capsys):
        # Gamma(n-1-rho) overflows at n = 200: a domain error, no traceback
        code, _ = run_cli(tmp_path, "solve-order", "--n", "200", "--delta-bar", "0.5")
        assert code == 3
        assert "overflows" in capsys.readouterr().err

    def test_n4_forward_inverse(self, tmp_path):
        from raygrowth.indicator import order_equation_rhs

        code, text = run_cli(tmp_path, "solve-order", "--n", "4",
                             "--delta-bar", str(order_equation_rhs(4, 0.3)))
        row = [l for l in text.splitlines() if not l.startswith(("#", "n,"))][0]
        assert code == 0
        assert float(row.split(",")[2]) == pytest.approx(0.3, abs=1e-6)

    def test_n4_admissible_interval(self, tmp_path):
        # the infimum 1/(n-2) = 1/2 is approached at rho = 1 - 1e-9
        code, text = run_cli(tmp_path, "solve-order", "--n", "4", "--delta-bar", "0.7")
        assert code == 0
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["admissible_lo"]) == pytest.approx(0.5, abs=1e-12)
        assert float(row["admissible_hi"]) == pytest.approx(1.0, abs=1e-8)


class TestCounterexampleCommand:
    def test_axis_oscillation_summary(self, tmp_path):
        code, text = run_cli(tmp_path, "counterexample", "--rho", "0.5", "--theta", "0.0")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith(("#", "theta"))]
        rng = float(rows[0].split(",")[-1])
        assert rng >= 1.9

    def test_root_angle_frozen(self, tmp_path):
        code, text = run_cli(tmp_path, "counterexample", "--rho", "0.5", "--theta", "root")
        rows = [l for l in text.splitlines() if not l.startswith(("#", "theta"))]
        assert code == 0
        assert float(rows[0].split(",")[-1]) <= 1e-12


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        args = ("indicator", "--n", "4", "--rho", "1.5", "--theta", "0.4,1.9")
        _, a = run_cli(tmp_path, *args)
        _, b = run_cli(tmp_path, *args)
        assert a == b

    def test_config_file_roundtrip(self, tmp_path):
        _, text = run_cli(tmp_path, "zeros", "--n", "5", "--rho", "2.7")
        cfg_lines = [l[2:] for l in text.splitlines() if l.startswith("# ") and "=" in l]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(cfg_lines) + "\n")
        _, again = run_cli(tmp_path, "zeros", "--config", str(cfg))
        assert again == text

    def test_config_file_overridden_by_cli(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho=2.7\nn=5\n")
        code, text = run_cli(tmp_path, "zeros", "--config", str(cfg), "--rho", "0.5")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith(("#", "n,"))]
        assert len(rows) == 1  # rho=0.5 has one root, rho=2.7 would have three

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        code, _ = run_cli(tmp_path, "zeros", "--config", str(cfg))
        assert code == 4

    def test_json_format_valid_and_mirrored(self, tmp_path):
        _, text = run_cli(tmp_path, "zeros", "--n", "3", "--rho", "0.5",
                          "--format", "json")
        doc = json.loads(text)
        assert doc["config"]["command"] == "zeros"
        assert len(doc["rows"]) == 1
        assert 129.0 <= doc["rows"][0]["beta_deg"] <= 131.0


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "raygrowth.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "raygrowth" in proc.stdout
