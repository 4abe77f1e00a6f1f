"""The tanh-sinh rule behind ``mellin.integrate``, held against scipy's.

``scipy.integrate.tanhsinh`` runs the same rule, so at the same tolerances
and levels both must find the same status, the same values to a few ulp and
the same error estimates to a factor of 2.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import tanhsinh

import raygrowth
from raygrowth.errors import DomainError
from raygrowth.mellin import QuadratureSpec, _level_nodes, _nodes_through, integrate

INF = np.inf

CASES = {
    "exp": (np.exp, 0.0, 1.0),
    "inverse_sqrt": (lambda x: x ** -0.5, 0.0, 1.0),
    "log": (np.log, 0.0, 1.0),
    "mixed_limits": (lambda x: np.exp(-x * x),
                     np.array([0.0, -3.0, 1.0, -2.0, 2.0, -1.0]),
                     np.array([1.0, 0.0, 4.0, 2.0, 5.0, 3.0])),
    # rows converge at different levels and leave the loop one by one
    "rows_leave_at_different_levels": (np.cos, np.zeros(4), np.array([1.0, 10.0, 40.0, 1e3])),
    "nan_near_limit": (lambda x: np.where(x > 1.0 - 1e-9, np.nan, np.sqrt(1.0 - x)), 0.0, 1.0),
    "nan_in_tails": (lambda x: np.where(np.abs(x) > 30.0, np.nan, np.exp(-x * x)), -40.0, 40.0),
    # complex integrands give complex values, as in scipy
    "complex_exp": (lambda x: np.exp(1j * x), 0.0, 1.0),
    "complex_mixed_limits": (lambda x: np.exp((-1.0 + 2.0j) * x * x),
                             np.array([0.0, -3.0, 1.0, -2.0, 2.0, -1.0]),
                             np.array([1.0, 0.0, 4.0, 2.0, 5.0, 3.0])),
}


def reference(f, a, b, quad):
    with np.errstate(all="ignore"):
        return tanhsinh(f, a, b, atol=quad.abs_tol, rtol=quad.rel_tol,
                        minlevel=min(4, quad.max_level), maxlevel=quad.max_level)


def assert_same_as_scipy(f, a, b, quad):
    res = integrate(f, a, b, quad)
    ref = reference(f, a, b, quad)
    value, error = np.asarray(res.value), np.asarray(res.error)
    assert value.shape == np.shape(ref.integral)
    assert np.all((np.abs(value - ref.integral) <= 4 * np.spacing(np.abs(ref.integral)))
                  | (np.isnan(value) & np.isnan(ref.integral)))
    both_zero = (error == 0.0) & (ref.error == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = error / ref.error
    assert np.all(both_zero | ((ratio >= 0.5) & (ratio <= 2.0))
                  | (np.isnan(error) & np.isnan(ref.error)))
    # every row is an integral of its own, with its own flag and message
    for status, converged, message in zip(np.ravel(ref.status), np.ravel(res.converged),
                                          np.ravel(res.message)):
        assert converged == (status == 0)
        assert ("maximum level reached" in message) == (status == -2)
        assert ("non-finite" in message) == (status == -3)
    return res, ref


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_scipy(name):
    f, a, b = CASES[name]
    res, _ = assert_same_as_scipy(f, a, b, QuadratureSpec())
    assert np.all(res.converged)


@pytest.mark.parametrize("a,b", [(0.0, INF), (-INF, 0.0), (-INF, INF), (0.0, np.nan),
                                 (1.0, 0.0), (1.0, 1.0), (np.zeros(2), np.array([1.0, 0.0]))])
def test_refuses_limits_other_than_finite_a_below_b(a, b):
    # half-lines go through a substitution onto a finite interval first, as
    # in mellin_numeric
    with pytest.raises(DomainError, match=r"^integrate needs finite limits a < b, got a = "):
        integrate(np.exp, a, b, QuadratureSpec())


def test_power_substitution_needs_lower_limit_zero():
    with pytest.raises(DomainError, match="^a power substitution needs the lower limit 0$"):
        integrate(np.exp, 0.5, 1.0, QuadratureSpec(), power=2.0)


def test_no_rows_no_evaluations():
    res = integrate(np.exp, np.zeros(0), np.ones(0), QuadratureSpec())
    assert res.value.shape == res.converged.shape == (0,) and res.evaluations == 0


def test_max_level_flag_matches_scipy():
    # two levels cannot resolve 25 periods
    quad = QuadratureSpec(max_level=2)
    res, ref = assert_same_as_scipy(lambda x: np.cos(50.0 * x), 0.0, 1.0, quad)
    assert ref.status == -2
    assert not res.converged
    assert "maximum level reached" in res.message


def test_non_finite_flag_matches_scipy():
    res, ref = assert_same_as_scipy(lambda x: np.full(x.shape, np.nan), 0.0, 1.0, QuadratureSpec())
    assert ref.status == -3
    assert not res.converged


def test_levels_nest():
    for k in range(1, 8):
        coarse, fine = _nodes_through(k - 1)[0], _nodes_through(k)[0]
        assert set(coarse) <= set(fine)
        assert set(_level_nodes(k)[0]).isdisjoint(coarse)


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_node_count_per_level(level):
    # a divergent integral runs every level up to the cap
    res = integrate(lambda x: 1.0 / x, 0.0, 1.0, QuadratureSpec(max_level=level))
    assert not res.converged
    assert res.evaluations == 16 * 2 ** level + 2
    assert _nodes_through(level)[0].size == 8 * 2 ** level + 1


def test_evaluations_add_over_rows():
    one = integrate(np.exp, 0.0, 1.0, QuadratureSpec())
    three = integrate(np.exp, np.zeros(3), np.ones(3), QuadratureSpec())
    assert one.evaluations > 0
    assert three.evaluations == 3 * one.evaluations


def test_cli_import_does_not_load_scipy_integrate():
    # nor any other part of scipy, also once both root problems have run
    src = os.path.dirname(os.path.dirname(os.path.abspath(raygrowth.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import os, sys, raygrowth.cli as cli; "
            "assert cli.main(['zeros', '--n', '6', '--rho', '12.5', '--out', os.devnull]) == 0; "
            "assert cli.main(['solve-order', '--n', '4', '--delta-bar', '0.7', "
            "'--out', os.devnull]) == 0; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# integrands with an argument c, one integral per value of c: (f, a, b,
# power), over finite and power-substituted ranges; the e^-x cases are cut
# at 40, where e^-x is below 5e-18
ARGS_CASES = {
    "finite": (lambda x, c: np.cos(c * x), 0.0, 2.0, 1.0),
    "half_line": (lambda x, c: np.cos(c * x) * np.exp(-x), 0.0, 40.0, 1.0),
    "power_substitution": (lambda u, c: u ** -0.7 * np.cos(c * u), 0.0, 1.0, 4.0),
    "complex": (lambda x, c: np.exp(1j * c * x) * np.exp(-x), 0.0, 40.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(ARGS_CASES))
def test_rows_of_args_equal_one_row_calls(name):
    # rows that differ only in their argument leave at different levels,
    # and each is the integral its own call gives, to the last bit
    f, a, b, power = ARGS_CASES[name]
    c = np.array([0.5, 3.0, 40.0])
    quad = QuadratureSpec()
    rows = integrate(f, a, b, quad, power=power, args=(c,))
    assert rows.value.shape == rows.error.shape == rows.converged.shape == rows.message.shape
    ones = [integrate(f, a, b, quad, power=power, args=(ck,)) for ck in c.tolist()]
    for k, (ck, one) in enumerate(zip(c.tolist(), ones)):
        closure = integrate(lambda x: f(x, ck), a, b, quad, power=power)
        assert repr(one) == repr(closure)
        assert repr(rows.value[k]) == repr(np.asarray(one.value)[()])
        assert repr(rows.error[k]) == repr(np.float64(one.error))
        assert rows.converged[k] == one.converged is True
        assert rows.message[k] == one.message == ""
    assert rows.evaluations == sum(one.evaluations for one in ones)
    assert len({one.evaluations for one in ones}) > 1


def test_args_broadcast_against_limits():
    # a (2, 1) argument against limits of shape (3,): six integrals
    c = np.array([[1.0], [2.0]])
    b = np.array([0.5, 1.0, 2.0])
    res = integrate(lambda x, c: c * x, 0.0, b, QuadratureSpec(), args=(c,))
    assert res.value.shape == res.converged.shape == (2, 3)
    assert np.allclose(res.value, c * b ** 2 / 2, rtol=1e-14)


def test_unconverged_row_flags_only_itself():
    # 1/x diverges at 0; two levels settle the polynomial rows
    quad = QuadratureSpec(max_level=2)
    res = integrate(lambda x, k: x ** k, 0.0, 1.0, quad, args=(np.array([2.0, -1.0, 1.0]),))
    assert res.converged.tolist() == [True, False, True]
    assert res.message.tolist() == ["", "tanh-sinh: maximum level reached (max_level 2)", ""]
    assert np.allclose(res.value[[0, 2]], [1 / 3, 1 / 2], rtol=1e-14)
    # without args, rows of limits are integrals of their own just the same
    rows = integrate(lambda x: x ** np.array([[2.0], [-1.0], [1.0]]), 0.0, np.ones(3), quad)
    assert rows.converged.tolist() == res.converged.tolist()
    assert rows.message.tolist() == res.message.tolist()
