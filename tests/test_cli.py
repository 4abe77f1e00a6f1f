import argparse
import functools
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from raygrowth import cli, indicator
from raygrowth.cli import main, parse_angle
from raygrowth.errors import CountMismatchError, ParseError
from raygrowth.indicator import indicator_closed, zero_set
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
        beta = parse_angle("root", zero_set(ProblemParams(3, 0.5)))
        assert 129.0 <= math.degrees(beta) <= 131.0
        assert parse_angle("root0", zero_set(ProblemParams(3, 0.5))) == beta

    def test_bad_tokens(self):
        with pytest.raises(ParseError):
            parse_angle("ninety")
        with pytest.raises(ParseError, match="root angles need n and rho"):
            parse_angle("root")
        for token in ("root7", "rootx", "root-1"):
            with pytest.raises(ParseError):
                parse_angle(token, zero_set(ProblemParams(3, 0.5)))

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

    def test_tolerance_failure_names_each_row(self, tmp_path, monkeypatch, capsys):
        # the run above, at two angles: one stderr line per failing row
        exact = cli.indicator_integral

        def skewed(params, theta1, quad=None, full_output=False):
            value, res = exact(params, theta1, quad, full_output=True)
            return value * (1.0 + 1e-6), res

        monkeypatch.setattr(cli, "indicator_integral", skewed)
        code, text = run_cli(tmp_path, "indicator", "--n", "3", "--rho", "0.5",
                             "--theta", "0.7,1.2", "--tol", "1e-8")
        assert code == 2
        assert len([l for l in text.splitlines() if not l.startswith(("#", "theta"))]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line, theta in zip(lines, ("0.69999999999999996", "1.2")):
            assert line.startswith(f"raygrowth: closed and integral forms differ at theta1={theta}: "
                                   f"abs_diff=")
            assert "> tol=1e-08 times max(1, |H_closed|) = " in line

    def test_quadrature_flag_exit_code(self, tmp_path, monkeypatch, capsys):
        # two refinement levels cannot reach 1e-10: the flag alone fails the run
        monkeypatch.setattr(cli, "_quad_from", lambda tol: QuadratureSpec(max_level=2))
        code, text = run_cli(tmp_path, "indicator", "--n", "3", "--rho", "0.5", "--theta", "1.0")
        assert code == 2
        assert "quadrature flagged" in capsys.readouterr().err
        assert "H_integral" in text

    @pytest.mark.parametrize("max_level", [2, 10])
    def test_angles_table_equals_one_angle_runs(self, tmp_path, monkeypatch, capsys, max_level):
        # the oracle runs once for every angle; each row, each flag line and
        # the exit code are those of the angle's own run
        monkeypatch.setattr(cli, "_quad_from", lambda tol: QuadratureSpec(max_level=max_level))
        argv = ("indicator", "--n", "5", "--rho", "1.5")
        angles = ("0.3", "root1", "180deg", "2.0", "3.1")

        def data_rows(text):
            return [l for l in text.splitlines() if not l.startswith(("#", "theta"))]

        code, text = run_cli(tmp_path, *argv, "--theta", ",".join(angles))
        err = capsys.readouterr().err
        rows, errs, codes = [], [], []
        for angle in angles:
            one_code, one_text = run_cli(tmp_path, *argv, "--theta", angle)
            rows += data_rows(one_text)
            errs.append(capsys.readouterr().err)
            codes.append(one_code)
        assert data_rows(text) == rows and len(rows) == len(angles)
        assert err == "".join(errs)
        assert code == max(codes)
        # two levels flag every angle but pi, one of them in one piece only
        assert err.count("quadrature flagged") == (4 if max_level == 2 else 0)

    def test_closed_forms_table_equals_one_angle_runs(self, tmp_path):
        # both columns are computed in one call for all angles; each row is
        # still the angle's own run
        argv = ("indicator", "--n", "4", "--rho", "5.58")
        angles = ("0.26", "0.43", "2.85")

        def data_rows(text):
            return [l for l in text.splitlines() if not l.startswith(("#", "theta"))]

        _, text = run_cli(tmp_path, *argv, "--theta", ",".join(angles))
        rows = [row for angle in angles for row in data_rows(run_cli(tmp_path, *argv, "--theta", angle)[1])]
        assert data_rows(text) == rows and len(rows) == len(angles)

    @pytest.mark.parametrize("tol,spec", [
        (1e-3, QuadratureSpec()), (1e-6, QuadratureSpec()), (1e-10, QuadratureSpec()),
        (1e-12, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)),
    ])
    def test_tol_only_tightens_quadrature(self, tol, spec):
        # the default tol 1e-6, given or not, runs the default quadrature
        assert cli._quad_from(tol) == spec

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_theta_pi_row(self, tmp_path, fmt):
        # the closed form is -inf at theta1 = pi; the integral is not run
        # there.  With pi the only angle, the closed forms are called on no
        # angle at all; at n = 4 (rho = 1/2) their series terminates
        for n in ("3", "4"):
            code, text = run_cli(tmp_path, "indicator", "--n", n, "--theta", "180deg",
                                 "--format", fmt)
            assert code == 0
            if fmt == "csv":
                row = [l for l in text.splitlines() if not l.startswith(("#", "theta"))][0]
                assert row.split(",")[2:] == ["-inf", "nan", "-inf", "nan"]
            else:
                (row,) = json.loads(text)["rows"]
                assert row["theta1_deg"] == 180.0
                assert [row[c] for c in ("H_closed", "H_integral", "H_asymptotic", "abs_diff")] \
                    == ["-inf", "nan", "-inf", "nan"]

    def test_angle_next_to_pi_exit_code(self, capsys):
        code, err = _failed_run(capsys, "indicator", "--theta", "3.14159264")
        assert code == 3
        assert err.startswith("raygrowth: theta=3.14159263")
        assert "sin^2(theta/2) rounds to 1" in err

    def test_summed_pieces_flag_says_why(self, tmp_path, capsys):
        # each piece converges, but their summed error estimate misses the
        # bound of the transform
        code, _ = run_cli(tmp_path, "indicator", "--n", "7", "--rho", "5.707735808323018",
                          "--theta", "2.6333509316477186")
        assert code == 2
        assert re.search(r"^raygrowth: quadrature flagged at theta1=2\.6333509316477186: summed "
                         r"error estimate \S+ exceeds the bound \S+, 10 times the tolerance$",
                         capsys.readouterr().err)

    def test_root_tokens_share_one_zero_set(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "zero_set", lambda params: calls.append(params) or zero_set(params))
        code, text = run_cli(tmp_path, "indicator", "--n", "5", "--rho", "2.7",
                             "--theta", "root0,root1,root2,1.0")
        assert code == 0 and len(calls) == 1
        rows = [l.split(",") for l in text.splitlines() if not l.startswith(("#", "theta"))]
        assert [float(r[0]) for r in rows] == [*zero_set(calls[0]).roots, 1.0]

    def test_series_failure_exit_code(self, capsys):
        # at n = 172 and genus 1 the tail series of h stops at its term cap: a
        # tolerance failure, not a domain error
        code, err = _failed_run(capsys, "indicator", "--n", "172", "--rho", "1.5", "--theta", "0.1")
        assert code == 2
        assert err.startswith("raygrowth: tolerance not reached: h tail series did not converge")

    def test_closed_form_finite_at_large_dimension(self, tmp_path, capsys):
        # H(0.1) at n = 130, rho = 1/2 is 5135.77058370969 (mpmath, 40 digits);
        # both sides hold it, so the run exits 0
        code, text = run_cli(tmp_path, "indicator", "--n", "130", "--theta", "0.1")
        assert code == 0 and capsys.readouterr().err == ""
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["H_closed"]) == pytest.approx(5135.770583709690, rel=1e-13, abs=0)
        assert float(row["H_integral"]) == pytest.approx(5135.770583709690, rel=1e-12, abs=0)

    def test_large_delta_in_range(self, tmp_path, capsys):
        # the coefficient times delta overflows, H at 2.0 does not; the last
        # digits pin the angular factor's loss at large rho (about 1.35e-8
        # off the true -7.4195440033e306), not the true value
        code, text = run_cli(tmp_path, "indicator", "--n", "20", "--rho", "30.5",
                             "--delta", "1e300", "--theta", "2.0")
        assert code == 0 and capsys.readouterr().err == ""
        assert text.splitlines()[-1].split(",")[2] == "-7.4195439031643285e+306"

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

    @pytest.mark.parametrize("n,rho", [(5, 2.7), (6, 12.7)])
    def test_residual_column_is_S_at_the_roots(self, tmp_path, monkeypatch, n, rho):
        # the column is |S| at each root as the refinement left it: bit for
        # bit a fresh call of S at the roots, and no call of S past zero_set's
        calls = []
        weighted = indicator.legendre_weighted  # every call of S goes through it
        monkeypatch.setattr(indicator, "legendre_weighted", lambda *a: calls.append(1) or weighted(*a))
        zset = zero_set(ProblemParams(n, rho))
        alone = len(calls)
        code, text = run_cli(tmp_path, "zeros", "--n", str(n), "--rho", str(rho))
        assert code == 0 and len(calls) == 2 * alone
        rows = [l.split(",") for l in text.splitlines() if not l.startswith(("#", "n,"))]
        fresh = np.abs(indicator.angular_shape(n, rho, np.array(zset.roots))).tolist()
        assert [row[5] for row in rows] == [cli._fmt(v) for v in fresh]

    def test_count_mismatch_exit_code(self, tmp_path, monkeypatch, capsys):
        def mismatch(params):
            raise CountMismatchError("found 2 angular roots, expected 1")

        monkeypatch.setattr(cli, "zero_set", mismatch)
        code, text = run_cli(tmp_path, "zeros", "--n", "3", "--rho", "0.5")
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err == "raygrowth: verification failed: found 2 angular roots, expected 1\n"

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

    def test_quadrature_flag_exit_code(self, tmp_path, monkeypatch, capsys):
        # two refinement levels cannot reach 1e-10: the flag alone fails the run
        monkeypatch.setattr(cli, "_MELLIN_VERIFY_QUAD", QuadratureSpec(max_level=2))
        code, text = run_cli(tmp_path, "mellin-verify", "--tol", "1.0")
        assert code == 2
        assert "quadrature flagged" in capsys.readouterr().err
        assert "rel_err" in text

    def test_tolerance_failure_exit_code(self, tmp_path, capsys):
        # no transform agrees with its closed form to 1e-300: the table is
        # written, and the run fails with no quadrature flag, but with one
        # line for each row whose rel_err is not 0, naming the row
        code, text = run_cli(tmp_path, "mellin-verify", "--tol", "1e-300")
        assert code == 2
        rows = [l.split(",") for l in text.splitlines() if not l.startswith(("#", "lam"))]
        failing = [r for r in rows if float(r[-1]) > 0.0]
        lines = capsys.readouterr().err.splitlines()
        assert len(rows) == 60 and len(lines) == len(failing) > 50
        for line, (lam, q, s, xi, _, _, rel) in zip(lines, failing):
            assert line == (f"raygrowth: numeric and closed transforms differ at lam={lam} q={q} "
                            f"s={s} xi={xi}: rel_err={rel} > tol=1e-300")


# a perturbed model whose rho and delta differ from the options' defaults,
# and a sweep of it
SEED_103_RHO, SEED_103_DELTA = "0.424854216098004", "1.4530764280038793"
SEED_103_MODEL = f"perturbed delta={SEED_103_DELTA} rho={SEED_103_RHO} eps=inv_log\n"
SEED_103_SWEEP = ("--n", "3", "--theta", "1.3863826787568958", "--grid", "1e2:1e6:5")


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

    def test_grid_past_the_square_root_of_the_double_range(self, tmp_path, capsys):
        # h's Riesz term at u above ~1.3e154 overflowed 1 + u^2 with a numpy
        # warning, although its value, 0 to double precision, was right
        model = tmp_path / "model.txt"
        model.write_text("powerlaw delta=1.0 rho=0.5\n")
        code, text = run_cli(tmp_path, "simulate", "--model", str(model), "--grid", "1e2:1e300:5")
        assert code == 0
        assert len([l for l in text.splitlines() if not l.startswith(("#", "theta"))]) == 5
        assert capsys.readouterr().err == ""

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
        # simulate sweeps with the default spec; a coarse one makes it flag
        monkeypatch.setattr(cli, "scaled_limit",
                            functools.partial(cli.scaled_limit, quad=QuadratureSpec(max_level=2)))
        model = tmp_path / "model.txt"
        model.write_text("perturbed delta=1.0 rho=0.5 eps=inv_log\n")
        code, text = run_cli(tmp_path, "simulate", "--model", str(model),
                             "--n", "3", "--rho", "0.5", "--theta", "1.0",
                             "--grid", "1e2:1e4:5")
        assert code == 2
        assert "quadrature flags" in capsys.readouterr().err
        assert "extrapolated" in text

    @pytest.mark.parametrize("grid", ["0:1e6:9", "1e2:1e6:-9"])
    def test_out_of_range_grid_exit_code(self, tmp_path, capsys, grid):
        model = tmp_path / "model.txt"
        model.write_text("powerlaw delta=1.0 rho=0.5\n")
        code, _ = run_cli(tmp_path, "simulate", "--model", str(model), "--grid", grid)
        assert code == 3
        assert "radial grid" in capsys.readouterr().err

    def test_negative_counting_function_exit_code(self, tmp_path, capsys):
        # sin(log log r) turns negative past r = e^(e^pi), about 1.1e10
        model = tmp_path / "model.txt"
        model.write_text("slowlyvarying rho=0.5 psi=sin_loglog\n")
        code, text = run_cli(tmp_path, "simulate", "--model", str(model), "--n", "3",
                             "--rho", "0.5", "--theta", "1.0", "--grid", "1e2:1e11:5")
        assert code == 3
        assert text == ""
        assert "counting function is negative at r=1e+11" in capsys.readouterr().err

    def test_non_finite_model_exit_code(self, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text("powerlaw delta=1 rho=0.5 t0=nan\n")
        code, text = run_cli(tmp_path, "simulate", "--model", str(model))
        assert code == 4
        assert text == ""

    def test_parse_error_exit(self, tmp_path):
        model = tmp_path / "bad.txt"
        model.write_text("powerlaw delta=oops\n")
        code, _ = run_cli(tmp_path, "simulate", "--model", str(model))
        assert code == 4

    @pytest.mark.parametrize("text", [
        "powerlaw delta=1 rho=0.5 T0=5",
        "slowlyvarying rho=0.5 psi1=inv_log",
        "perturbed delta=1 rho=0.5 psi=loglog",
        "atom t=2 mass=1 t0=7",
        "powerlaw delta=1 rho=0.5 delta=3",
    ])
    def test_unknown_or_repeated_key_exit_code(self, tmp_path, capsys, text):
        model = tmp_path / "model.txt"
        model.write_text(text + "\n")
        code, err = _failed_run(capsys, "simulate", "--model", str(model))
        assert code == 4
        assert err.startswith("raygrowth: parse error: line 1: ")

    def test_missing_model_file(self, tmp_path):
        code, _ = run_cli(tmp_path, "simulate", "--model", str(tmp_path / "nope.txt"))
        assert code == 4

    def test_density_model_supplies_order_and_type(self, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text(SEED_103_MODEL)
        argv = ("simulate", "--model", str(model), *SEED_103_SWEEP)
        code, text = run_cli(tmp_path, *argv)
        assert code == 0
        assert f"# rho={SEED_103_RHO}\n" in text and f"# delta={SEED_103_DELTA}\n" in text
        _, repeated = run_cli(tmp_path, *argv, "--rho", SEED_103_RHO, "--delta", SEED_103_DELTA)
        assert repeated == text
        # at the model's own order the 1/log perturbation leaves about 5%; a
        # sweep scaled by r^-0.5 instead missed the indicator by 97%
        header = [l for l in text.splitlines() if l.startswith("theta")][0].split(",")
        last = dict(zip(header, text.splitlines()[-1].split(",")))
        assert float(last["rel_err_vs_indicator"]) < 0.1

    @pytest.mark.parametrize("option,value,declared", [
        ("--rho", "0.5", f"rho={SEED_103_RHO}"),
        ("--delta", "1", f"delta={SEED_103_DELTA}"),
    ])
    def test_option_differing_from_model_exit_code(self, tmp_path, capsys, option, value,
                                                   declared):
        model = tmp_path / "model.txt"
        model.write_text(SEED_103_MODEL)
        code, text = run_cli(tmp_path, "simulate", "--model", str(model), *SEED_103_SWEEP,
                             option, value)
        assert code == 4
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"raygrowth: parse error: {option} {value} differs")
        assert declared in err

    def test_slowly_varying_takes_delta(self, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text("slowlyvarying rho=0.5 psi=log\n")
        code, text = run_cli(tmp_path, "simulate", "--model", str(model), "--delta", "2",
                             "--theta", "0.3", "--grid", "1e2:1e4:5")
        assert code == 0
        assert "# delta=2\n" in text and "# rho=0.5\n" in text
        header = [l for l in text.splitlines() if l.startswith("theta")][0].split(",")
        row = dict(zip(header, text.splitlines()[-1].split(",")))
        assert float(row["indicator"]) == pytest.approx(
            2.0 * indicator_closed(ProblemParams(3, 0.5), 0.3), rel=1e-15)

    def test_integer_model_order_exit_code(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("powerlaw delta=1.0 rho=2.0\n")
        code, text = run_cli(tmp_path, "simulate", "--model", str(model), "--grid", "1e2:1e4:5")
        assert code == 3
        assert text == ""
        assert "order rho must be non-integer, got 2.0" in capsys.readouterr().err


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


def _failed_run(capsys, *argv):
    """Exit status and the single stderr line of a run that must fail before
    writing a table."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    return code, err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("zeros", "--n", "abc"),
        ("zeros", "--tol", "1"),
        ("zeros", "--seed", "1"),
        ("zeros", "--delta", "1"),
        ("indicator", "--seed", "1"),
        ("solve-order", "--tol", "1", "--delta-bar", "0.7"),
        ("counterexample", "--points", "0"),
        ("counterexample", "--points", "-1"),
        ("mellin-verify", "--samples", "-2"),
        ("mellin-verify", "--samples", "1", "--seed", "-1"),
        ("simulate", "--model", "m.txt", "--ratios", "2"),
        ("simulate", "--model", "m.txt", "--tol", "nan"),
        ("simulate", "--model", "m.txt", "--tol", "-1"),
        # the grid is read before the model file, which does not exist here
        ("simulate", "--model", "m.txt", "--grid", "1e2:1e6"),
        ("simulate", "--model", "m.txt", "--grid", "1e2:1e6:nine"),
        ("mellin-verify", "--tol", "nan"),
        ("indicator", "--tol", "0"),
        ("solve-order",),
        (),
    ], ids=lambda argv: " ".join(argv) or "no command")
    def test_exit_code(self, capsys, argv):
        code, err = _failed_run(capsys, *argv)
        assert code == 4
        assert err.startswith("raygrowth: parse error: ")

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=abc\n")
        code, err = _failed_run(capsys, "zeros", "--config", str(cfg))
        assert code == 4
        assert "'abc'" in err

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n 5\n")
        code, err = _failed_run(capsys, "zeros", "--config", str(cfg))
        assert code == 4
        assert "line 1" in err


# runs outside the (n, theta) envelope and the one stderr line each gives;
# (n-2)! overflows from n = 173 on, and unchecked, the first two runs end in
# an OverflowError traceback
DOMAIN_ERRORS = [
    (("indicator", "--n", "180", "--theta", "0.1"), "n = 180 overflows"),
    (("simulate", "--model", "MODEL", "--n", "200", "--theta", "0.1"), "n = 200 overflows"),
    (("zeros", "--n", "173"), "n = 173 overflows"),
    (("indicator", "--theta", "nan"), "theta must lie in [0, pi), got nan"),
    (("counterexample", "--theta=-1e-12"), "theta1 must lie in [0, pi), got -1e-12"),
    # a negative value in exponent form is a value, not an option
    (("counterexample", "--theta", "-1e-12"), "theta1 must lie in [0, pi), got -1e-12"),
    (("indicator", "--rho", "-2e-1"), "order rho must be positive and finite, got -0.2"),
    # H past the double range: inf and inf, or -inf against a finite oracle
    (("indicator", "--delta", "1e308", "--theta", "1.0"),
     "the indicator at theta1=1 overflows the double range"),
    (("indicator", "--n", "20", "--rho", "30.5", "--delta", "1e300", "--theta", "1.0,2.0"),
     "the indicator at theta1=1 overflows the double range"),
    (("solve-order", "--delta-bar", "-1e-3"), "delta_bar=-0.001 is outside the attainable range"),
    # r^1.5 passes the double range from r = 10^225.5 on: refused before the sweep
    (("simulate", "--model", "MODEL_RHO_1.5", "--n", "4", "--theta", "0.3",
      "--grid", "1e2:1e300:5"),
     "the counting function overflows the double range at r=3.16228e+225: n(r) = inf"),
    # finite atoms, but u grows like r^q (q = 2) and passes the double range
    (("simulate", "--model", "MODEL_TWO_ATOMS", "--n", "4", "--rho", "2.5", "--theta", "0.3",
      "--grid", "1e2:1e300:5"), "the potential overflows the double range at r=3.16228e+225"),
    # the same atoms on a grid where u stays finite: u/n grows like r^(q+n-2) and passes
    # the double range first, where r^-rho u has not yet underflowed to 0
    (("simulate", "--model", "MODEL_TWO_ATOMS", "--n", "4", "--rho", "2.5", "--theta", "0.3",
      "--grid", "1e2:1e151:5"), "the ratio u/n overflows the double range at r=5.62341e+113"),
    # H = 0 at a root of S: no error relative to it is defined
    (("simulate", "--model", "MODEL_RHO_1.5", "--n", "4", "--theta", "root1",
      "--grid", "1e2:1e6:5"),
     "theta1=2.5132741228718345 is within 1e-06 rad of an exceptional angle"),
    # within 1e-6 rad of that root on either side; the angle in 17 digits
    (("simulate", "--model", "MODEL_RHO_1.5", "--n", "4", "--theta", "2.5132736",
      "--grid", "1e2:1e6:5"),
     "theta1=2.5132736000000002 is within 1e-06 rad of an exceptional angle"),
    (("simulate", "--model", "MODEL_RHO_1.5", "--n", "4", "--theta", "2.5132751",
      "--grid", "1e2:1e6:5"),
     "theta1=2.5132751 is within 1e-06 rad of an exceptional angle"),
    # delta = 0: H = 0 at every angle, and u/n, u/N of a massless model are 0/0
    (("simulate", "--model", "MODEL_MASSLESS", "--n", "4", "--theta", "0.3", "--grid", "1e2:1e6:5"),
     "simulate needs delta > 0, got delta=0"),
    (("simulate", "--model", "MODEL_ATOMS", "--n", "4", "--delta", "0", "--theta", "0.3",
      "--grid", "1e2:1e4:5"), "simulate needs delta > 0, got delta=0"),
]

# the mass-model files the runs above name
MODELS = {"MODEL": "powerlaw delta=1.0 rho=0.5\n", "MODEL_RHO_1.5": "powerlaw delta=1.0 rho=1.5\n",
          "MODEL_MASSLESS": "powerlaw delta=0 rho=0.5\n", "MODEL_ATOMS": "atom t=2.0 mass=1.0\n",
          "MODEL_TWO_ATOMS": "atom t=2.0 mass=1.0\natom t=5.5 mass=0.25\n"}


class TestDomainErrors:
    @pytest.mark.parametrize("argv,message", DOMAIN_ERRORS,
                             ids=[" ".join(argv) for argv, _ in DOMAIN_ERRORS])
    def test_exit_code(self, tmp_path, capsys, argv, message):
        for name, text in MODELS.items():
            (tmp_path / name).write_text(text)
        code, err = _failed_run(capsys, *(str(tmp_path / a) if a in MODELS else a for a in argv))
        assert code == 3
        assert message in err


# one run per subcommand; the model file, if any, is written by the test
ROUND_TRIPS = {
    "indicator": ["--n", "4", "--rho", "1.5", "--theta", "0.4,100deg,root", "--tol", "1e-7"],
    "zeros": ["--n", "5", "--rho", "2.7"],
    "mellin-verify": ["--samples", "2", "--seed", "7"],
    "simulate": ["--theta", "90deg", "--grid", "1e2:1e4:5", "--ratios"],
    "solve-order": ["--n", "4", "--delta-bar", "0.7"],
    "counterexample": ["--rho", "0.5", "--theta", "0.0,root", "--points", "9"],
}


class TestReproducibility:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(ROUND_TRIPS))
    def test_config_file_roundtrip(self, tmp_path, capsys, command, fmt):
        argv = [command, *ROUND_TRIPS[command], "--format", fmt]
        if command == "simulate":
            model = tmp_path / "m#1.txt"  # a '#' in an echoed value is not a comment
            model.write_text("powerlaw delta=1.0 rho=0.5\n")
            argv += ["--model", str(model)]
        assert main(argv) == 0
        text = capsys.readouterr().out
        if fmt == "csv":
            cfg_lines = [l[2:] for l in text.splitlines()[1:] if l.startswith("# ")]
        else:
            cfg_lines = [f"{k}={v}" for k, v in json.loads(text)["config"].items()]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(cfg_lines) + "\n")
        assert main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == text

    def test_unset_indicator_tol_not_echoed(self, tmp_path):
        # a table made without --tol keeps a header without it
        _, text = run_cli(tmp_path, "indicator", "--theta", "0.3")
        assert not any(l.startswith("# tol=") for l in text.splitlines())

    @pytest.mark.parametrize("option", ["--rho", "--rh"])
    def test_config_file_overridden_by_cli(self, tmp_path, option):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho=2.7\nn=5\n")
        code, text = run_cli(tmp_path, "zeros", "--config", str(cfg), option, "0.5")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith(("#", "n,"))]
        assert len(rows) == 1  # rho=0.5 has one root, rho=2.7 would have three

    def test_byte_identical_reruns(self, tmp_path):
        args = ("indicator", "--n", "4", "--rho", "1.5", "--theta", "0.4,1.9")
        _, a = run_cli(tmp_path, *args)
        _, b = run_cli(tmp_path, *args)
        assert a == b

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


def _subparsers(parser):
    """The subparser of each command that parser declares."""
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestOneCommandParser:
    """A call that names a command builds that command's parser alone, the
    parser the full one holds for it, and parses once with it."""

    @pytest.mark.parametrize("command", sorted(ROUND_TRIPS))
    def test_same_help(self, command):
        alone = cli.build_parser([command])
        assert not any(isinstance(a, argparse._SubParsersAction) for a in alone._actions)
        assert alone.format_help() == _subparsers(cli.build_parser())[command].format_help()

    @pytest.mark.parametrize("command", sorted(ROUND_TRIPS))
    def test_same_namespace(self, command):
        argv = [command, *ROUND_TRIPS[command]]
        if command == "simulate":
            argv += ["--model", "m.txt"]
        assert cli.build_parser(argv).parse_args(argv[1:]) == cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv,code,subparsers", [
        (["zeros", "--n", "5", "--rho", "2.7"], 0, 0),
        (["--help"], None, 6),
        (["nosuch"], 4, 6),
    ], ids=["zeros", "help", "unknown command"])
    def test_subparsers_declared(self, monkeypatch, argv, code, subparsers):
        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        if code is None:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
        else:
            assert main(argv) == code
        assert len(calls) == subparsers

    @pytest.mark.parametrize("command", sorted(ROUND_TRIPS))
    def test_one_parser_one_parse(self, tmp_path, monkeypatch, command):
        # no token can name a config file: the command's parser is the only
        # one built, and argv is parsed once
        built, parsed = [], []
        init, parse = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_known_args

        def counted_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        def counted_parse(self, *args, **kwargs):
            parsed.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted_parse)
        argv = [command, *ROUND_TRIPS[command]]
        if command == "simulate":
            model = tmp_path / "m.txt"
            model.write_text("powerlaw delta=1.0 rho=0.5\n")
            argv += ["--model", str(model)]
        assert main(argv + ["--out", str(tmp_path / "out.txt")]) == 0
        assert built == parsed == [f"raygrowth {command}"]

    @pytest.mark.parametrize("spelling", [
        ["--config", "CFG"], ["--config=CFG"], ["--con", "CFG"], ["--c=CFG"], ["--conf=CFG"],
        ["--c", "CFG"],
    ], ids=" ".join)
    def test_config_spellings(self, tmp_path, spelling):
        # every token argparse reads as --config names the file: n=5 and
        # rho=2.7 give three roots where the defaults give one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=5\nrho=2.7\n")
        argv = ["zeros", *(str(cfg) if tok == "CFG" else tok.replace("CFG", str(cfg))
                           for tok in spelling)]
        code, text = run_cli(tmp_path, *argv)
        assert code == 0
        assert sum(not line.startswith(("#", "n,")) for line in text.splitlines()) == 3


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "raygrowth.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "raygrowth" in proc.stdout
