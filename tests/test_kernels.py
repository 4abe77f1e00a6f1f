import math

import numpy as np
import pytest
from scipy import integrate

from raygrowth.errors import DomainError
from raygrowth.kernels import (
    ProblemParams,
    h_n,
    h_value,
    log_kernel,
    log_kernel_signed_ln,
    poisson_Pn,
    riesz_k,
    weierstrass_K,
)
from raygrowth.specfun import gegenbauer


class TestProblemParams:
    def test_derived_fields(self):
        p = ProblemParams(5, 2.4)
        assert p.q == 2
        assert p.lam == 1.5
        assert p.delta == 1.0

    @pytest.mark.parametrize("n,rho", [(2, 0.5), (3, 1.0), (3, -0.5), (3, 0.0), (4, 3.0)])
    def test_rejects_bad_params(self, n, rho):
        with pytest.raises(DomainError):
            ProblemParams(n, rho)


class TestRieszKernel:
    def test_direct_substitution(self):
        assert riesz_k(1.0, 1.0, 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_t_zero(self):
        assert riesz_k(0.5, 0.0, 0.3) == 1.0

    def test_gegenbauer_series_oracle(self):
        lam, t, xi = 1.5, 0.2, 0.4
        series = sum((-t) ** j * gegenbauer(lam, j, xi) for j in range(31))
        assert riesz_k(lam, t, xi) == pytest.approx(series, abs=1e-10)

    def test_singular_point(self):
        with pytest.raises(DomainError):
            riesz_k(1.0, 1.0, -1.0)


class TestSubtractedKernel:
    def test_argument_validation(self):
        with pytest.raises(DomainError):
            h_value(0.0, 0, 1.0, 0.5)
        with pytest.raises(DomainError):
            h_value(1.0, 0, -1.0, 0.5)
        with pytest.raises(DomainError):
            h_value(1.0, 0, 1.0, -1.0)
        for xi in (-3.0, 1.5, math.nan):
            with pytest.raises(DomainError):
                h_value(1.0, 1, 0.3, xi)

    def test_zero_at_origin(self):
        for lam in (0.5, 1.0, 2.5):
            for q in (0, 1, 3):
                for xi in (-0.9, 0.0, 1.0):
                    assert h_value(lam, q, 0.0, xi) == 0.0

    def test_direct_substitution(self):
        want = 1.0 - 1.0 / math.sqrt(2.0)
        assert h_value(0.5, 0, 1.0, 0.0) == pytest.approx(want, rel=1e-14)

    def test_small_u_taylor_bound(self):
        # |h| <= C u^{q+1} for u < 1, with C fitted from the first few tail
        # coefficients (the leading one alone can vanish, e.g. G^1_2(1/2)=0)
        lam, q, xi = 1.0, 1, 0.5
        C = 1.0 + sum(abs(gegenbauer(lam, j, xi)) for j in range(q + 1, q + 7))
        for u in (0.01, 0.003, 0.001):
            assert abs(h_value(lam, q, u, xi)) <= C * u ** (q + 1)

    def test_tail_and_direct_branches_agree(self):
        # below u = 0.5 the implementation switches to the cancellation-free
        # tail series; it must match the direct difference at the same point
        for lam in (0.5, 1.0, 2.5):
            for q in (0, 1, 2):
                for xi in (-0.8, 0.0, 0.7):
                    u = 0.4999
                    direct = -(1.0 + u * u + 2.0 * u * xi) ** (-lam) + sum(
                        (-u) ** j * gegenbauer(lam, j, xi) for j in range(q + 1)
                    )
                    assert h_value(lam, q, u, xi) == pytest.approx(direct, rel=1e-10, abs=1e-13)

    def test_vectorized(self):
        u = np.logspace(-4, 2, 25)
        vec = h_value(1.5, 1, u, -0.3)
        for i, ui in enumerate(u):
            assert vec[i] == pytest.approx(h_value(1.5, 1, float(ui), -0.3), rel=1e-13)

    def test_bound_empirical_sup_finite(self):
        # sup over u of |h| / min(u^q, u^{q+1}) stays bounded over the angle range
        for n, q in ((3, 0), (4, 1), (5, 2)):
            lam = (n - 2) / 2.0
            sup = 0.0
            u = np.logspace(-3, 3, 200)
            for th in np.linspace(0.0, math.pi - 0.1, 25):
                vals = np.abs(h_value(lam, q, u, math.cos(th)))
                sup = max(sup, float(np.max(vals / np.minimum(u**q, u ** (q + 1)))))
            assert np.isfinite(sup)
            assert sup < 1e4


class TestDimensionalKernel:
    def test_reduces_to_general_kernel(self):
        p = ProblemParams(3, 0.5)
        want = 1.0 - 1.0 / math.sqrt(2.0)
        assert h_n(p, 1.0, math.pi / 2) == pytest.approx(want, rel=1e-14)

    def test_axis_value(self):
        # xi = 1 gives (1+u)^{-2 lam}: h = 1 - 1/9 at n=4, u=2
        p = ProblemParams(4, 0.5)
        assert h_n(p, 2.0, 0.0) == pytest.approx(8.0 / 9.0, rel=1e-14)

    def test_definitional_identity(self):
        p = ProblemParams(5, 2.4)
        u, th = 0.7, 2.0
        assert h_n(p, u, th) == h_value(1.5, 2, u, math.cos(th))

    def test_angle_domain(self):
        p = ProblemParams(3, 0.5)
        with pytest.raises(DomainError):
            h_n(p, 1.0, math.pi)


class TestCanonicalKernel:
    def test_zero_at_origin(self):
        p = ProblemParams(3, 0.5)
        assert weierstrass_K(p, 0.0, 2.0, 1.0) == 0.0

    def test_direct_substitution(self):
        p = ProblemParams(3, 0.5)
        want = 0.5 * (1.0 - 1.25 ** (-0.5))
        assert weierstrass_K(p, 1.0, 2.0, math.pi / 2) == pytest.approx(want, rel=1e-13)

    def test_reduction_identity(self):
        # K_q(x, (t, pi)) = t^{2-n} h_n(r/t, theta1, q); the two sides are
        # computed through different formulas (law of cosines vs radial ratio)
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            rho = float(rng.uniform(0.1, 3.9))
            if rho == int(rho):
                continue
            p = ProblemParams(n, rho)
            r = float(rng.uniform(0.0, 10.0))
            t = float(rng.uniform(0.5, 10.0))
            th = float(rng.uniform(0.0, math.pi - 0.05))
            lhs = weierstrass_K(p, r, t, th)
            rhs = t ** (2 - n) * h_n(p, r / t, th)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_cross_check_example(self):
        p = ProblemParams(4, 1.5)
        lhs = weierstrass_K(p, 3.0, 5.0, 1.0)
        rhs = 5.0 ** (-2) * h_n(p, 0.6, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPoissonKernel:
    def test_axis(self):
        assert poisson_Pn(3, 1.0, 1.0, 0.0) == pytest.approx(8.0, rel=1e-14)

    def test_equator(self):
        assert poisson_Pn(3, 1.0, 1.0, math.pi / 2) == pytest.approx(3.0, rel=1e-14)

    def test_polynomial_expansion_oracle(self):
        # expand the trinomial independently, Horner in c = cos(theta)
        n, r, t, th = 4, 2.0, 1.0, math.pi / 3
        c = math.cos(th)
        tri = ((n - 1) * (r * r + t * t)) * c + r * t * n + r * t * (n - 2) * c * c
        want = r * t ** (n - 2) * tri
        assert poisson_Pn(n, r, t, th) == pytest.approx(want, rel=1e-14)
        assert poisson_Pn(n, r, t, th) > 0.0

    def test_positive_on_front_hemisphere(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            r, t = rng.uniform(0.01, 10, size=2)
            th = rng.uniform(0.0, math.pi / 2)
            assert poisson_Pn(n, float(r), float(t), float(th)) > 0.0


class TestLogKernel:
    def test_value_at_origin(self):
        assert log_kernel(3, 0.0, 0.0) == pytest.approx(0.25, rel=1e-14)

    def test_axis_closed_form(self):
        for n in (3, 5):
            for t in (-3.0, -0.5, 0.0, 1.2, 4.0):
                want = (n - 1) * math.exp((n - 1) * t) * (1.0 + math.exp(t)) ** (-n)
                assert log_kernel(n, 0.0, t) == pytest.approx(want, rel=1e-12)

    def test_unit_mass(self):
        # (n-1) B(n-1, 1) = 1: the kernel integrates to one over the line
        for n in (3, 4, 6):
            val, _ = integrate.quad(lambda t: log_kernel(n, 0.0, t), -40, 40, limit=200)
            assert val == pytest.approx(1.0, rel=1e-9)

    def test_positive_at_boundary_angle(self):
        assert log_kernel(5, math.pi / 2, 1.3) >= 0.0

    def test_nonnegative_up_to_half_pi(self):
        ts = np.linspace(-30, 30, 601)
        for n in (3, 5):
            for th in np.linspace(0.0, math.pi / 2, 7):
                assert np.all(log_kernel(n, float(th), ts) >= 0.0)

    def test_negative_beyond_half_pi(self):
        ts = np.linspace(-30, 30, 601)
        for n in (3, 5):
            vals = log_kernel(n, math.pi / 2 + 0.3, ts)
            assert np.min(vals) < 0.0

    def test_log_form_is_overflow_safe(self):
        sign, ln_abs = log_kernel_signed_ln(4, 0.3, 700.0)
        assert np.isfinite(ln_abs) and sign != 0
        sign, ln_abs = log_kernel_signed_ln(4, 0.3, -700.0)
        assert np.isfinite(ln_abs)


def test_bound_sup_stable_under_refinement():
    # the empirical constant in |h_n| <= C min(u^q, u^{q+1}) settles as the
    # sampling grid is refined; the base grid must already resolve the sharp
    # near-diagonal peak at u ~ -cos(theta), width ~ sin(theta) in log u
    for n, q in ((3, 0), (5, 2)):
        lam = (n - 2) / 2.0
        sups = []
        for factor in (1, 4):
            u = np.logspace(-3, 3, 400 * factor)
            sup = 0.0
            for th in np.linspace(0.0, math.pi - 0.1, 60 * factor):
                vals = np.abs(h_value(lam, q, u, math.cos(th)))
                sup = max(sup, float(np.max(vals / np.minimum(u**q, u ** (q + 1)))))
            sups.append(sup)
        assert abs(sups[1] - sups[0]) <= 0.05 * sups[1]
