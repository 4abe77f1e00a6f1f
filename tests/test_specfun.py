import math

import numpy as np
import pytest

from raygrowth.errors import ConvergenceError, DomainError, PoleError
from raygrowth.specfun import (
    EULER_GAMMA,
    SERIES_CHECK_STRIDE,
    digamma,
    gamma,
    gegenbauer,
    hyp2f1,
    legendre_p_cut,
    series_converged,
)

SQRT_PI = math.sqrt(math.pi)


class TestGamma:
    def test_factorial_base_case(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_double_argument_identity_n5(self):
        # sqrt(pi) (n-3)! = 2^{n-3} Gamma((n-1)/2) Gamma((n-2)/2) at n=5:
        # both sides equal 2 sqrt(pi)
        n = 5
        lhs = SQRT_PI * math.factorial(n - 3)
        rhs = 2.0 ** (n - 3) * gamma((n - 1) / 2.0) * gamma((n - 2) / 2.0)
        assert lhs == pytest.approx(2.0 * SQRT_PI, rel=1e-14)
        assert rhs == pytest.approx(2.0 * SQRT_PI, rel=1e-13)

    def test_duplication_identity_on_grid(self):
        for z in np.linspace(0.1, 5.0, 61):
            lhs = gamma(2.0 * z)
            rhs = 2.0 ** (2.0 * z - 1.0) / SQRT_PI * gamma(float(z)) * gamma(z + 0.5)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_reflection_negative_axis(self):
        z = -0.5
        assert gamma(z) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)

    def test_complex_against_scipy(self):
        from scipy.special import gamma as sp_gamma

        rng = np.random.default_rng(7)
        for _ in range(50):
            z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if abs(z.imag) < 1e-2 and z.real <= 0.5:
                continue
            ours = gamma(z)
            ref = complex(sp_gamma(z))
            assert abs(ours - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("z", [0.0, -1.0, -5.0, -3])
    def test_pole_error(self, z):
        with pytest.raises(PoleError):
            gamma(z)

    def test_lanczos_overflow_is_domain_error(self):
        # the Lanczos power t^(z-1/2) overflows from about z = 143 on
        with pytest.raises(DomainError, match="overflows"):
            gamma(171.5)
        assert gamma(140.0) == pytest.approx(math.gamma(140.0), rel=1e-13)


class TestSeriesStoppingRule:
    def test_checked_on_stride_only(self):
        tiny, total = np.array([1e-20]), np.array([1.0])
        assert series_converged(SERIES_CHECK_STRIDE, tiny, tiny, total, 1e-13)
        for k in range(1, SERIES_CHECK_STRIDE):
            assert not series_converged(k, tiny, tiny, total, 1e-13)

    def test_needs_both_terms_small_at_every_point(self):
        total = np.array([1.0, 2.0])
        small, mixed = np.array([1e-20, 1e-20]), np.array([1e-20, 1e-3])
        k = 2 * SERIES_CHECK_STRIDE
        assert series_converged(k, small, small, total, 1e-13)
        assert not series_converged(k, mixed, small, total, 1e-13)
        assert not series_converged(k, small, mixed, total, 1e-13)


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)

    def test_at_two_via_recurrence(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-14)

    def test_negative_half_by_recurrence(self):
        # psi(0.5) = psi(-0.5) - 1/(-0.5) with psi(0.5) = -gamma_E - 2 ln 2
        psi_half = -EULER_GAMMA - 2.0 * math.log(2.0)
        assert digamma(0.5) == pytest.approx(psi_half, rel=1e-14)
        assert digamma(-0.5) == pytest.approx(psi_half - 1.0 / (-0.5), rel=1e-13)

    def test_pole_error(self):
        with pytest.raises(PoleError):
            digamma(-2.0)

    def test_matches_scipy_on_grid(self):
        from scipy.special import digamma as sp_digamma

        for x in np.linspace(0.05, 12.0, 97):
            assert digamma(float(x)) == pytest.approx(float(sp_digamma(x)), rel=1e-12)


class TestGegenbauer:
    def test_constant_term(self):
        assert gegenbauer(0.5, 0, 0.7) == 1.0

    def test_linear_term(self):
        assert gegenbauer(0.5, 1, 0.7) == pytest.approx(0.7, rel=1e-15)

    def test_generating_function_oracle(self):
        # partial sums of sum_j G^lam_j(xi) t^j against the closed form,
        # carried far enough that the geometric tail is below 1e-10
        lam, xi, t = 1.5, 0.3, 0.2
        closed = (1.0 - 2.0 * t * xi + t * t) ** (-lam)
        partial = sum(gegenbauer(lam, j, xi) * t**j for j in range(19))
        assert partial == pytest.approx(closed, abs=1e-10)
        # the value at j=4 is what the truncated oracle pins down
        assert gegenbauer(lam, 4, xi) == pytest.approx(-0.1685625, rel=1e-12)

    def test_partial_sums_geometric_tail(self):
        lam, xi = 2.5, -0.6
        for t in (0.25, 0.5):
            closed = (1.0 - 2.0 * t * xi + t * t) ** (-lam)
            errs = []
            total = 0.0
            for j in range(40):
                total += gegenbauer(lam, j, xi) * t**j
                errs.append(abs(total - closed))
            # tail shrinks at least geometrically once j is moderate
            assert errs[30] < errs[15] * (0.7**15)

    def test_vectorized_matches_scalar(self):
        xi = np.linspace(-0.9, 0.9, 7)
        vec = gegenbauer(1.5, 5, xi)
        for i, x in enumerate(xi):
            assert vec[i] == pytest.approx(gegenbauer(1.5, 5, float(x)), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            gegenbauer(0.0, 2, 0.5)
        with pytest.raises(DomainError):
            gegenbauer(1.0, -1, 0.5)


class TestHyp2F1:
    def test_at_zero(self):
        assert hyp2f1(1.7, -2.3, 0.4, 0.0) == 1.0

    def test_log_closed_form(self):
        # 2F1(1, 1; 2; x) = -ln(1-x)/x
        assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(1.3862943611198906, rel=1e-13)

    def test_series_oracle(self):
        # high-precision series value, frozen from a 40-digit summation
        assert hyp2f1(-0.5, 1.5, 1.0, 0.3) == pytest.approx(0.74919749974701998, rel=1e-12)

    def test_parameter_pole(self):
        with pytest.raises(PoleError):
            hyp2f1(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(PoleError):
            hyp2f1(1.0, 1.0, -3.0, 0.3)

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.0)

    def test_branches_agree_across_overlap(self):
        # the direct series remains valid past both switch points; evaluate
        # on straddling pairs and compare against mpmath
        mp = pytest.importorskip("mpmath")
        for a, b, c in [(-1.3, 2.7, 1.9), (0.4, 0.9, 2.3), (1.2, -0.4, 0.7)]:
            for x in (0.7499, 0.7501, 0.95, -0.4999, -0.5001, -0.95):
                ref = complex(mp.hyp2f1(a, b, c, x)).real
                assert hyp2f1(a, b, c, x) == pytest.approx(ref, rel=5e-12)

    def test_integer_gap_log_case(self):
        mp = pytest.importorskip("mpmath")
        for m in (0, 1, 2):
            a, b = 0.7, -1.4
            c = a + b + m
            if c <= 0 and abs(c - round(c)) < 1e-9:
                continue
            for x in (0.8, 0.99, 0.9999):
                ref = complex(mp.hyp2f1(a, b, c, x)).real
                assert hyp2f1(a, b, c, x) == pytest.approx(ref, rel=1e-11)

    def test_complex_parameters(self):
        mp = pytest.importorskip("mpmath")
        a = 0.4 + 0.3j
        val = hyp2f1(a, -a, 1.3, 0.62)
        ref = complex(mp.hyp2f1(a, -a, 1.3, 0.62))
        assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_array_argument(self):
        xs = np.array([-0.9, -0.3, 0.2, 0.74, 0.9, 0.999])
        vec = hyp2f1(0.3, 1.1, 2.2, xs)
        for i, x in enumerate(xs):
            assert vec[i] == pytest.approx(hyp2f1(0.3, 1.1, 2.2, float(x)), rel=1e-13)


class TestLegendreCut:
    def test_normalization_near_one(self):
        # P_nu(1) = 1; probed just inside the cut
        for nu in (0.5, 1.7, 3.2):
            assert legendre_p_cut(nu, 0.0, 1.0 - 1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_half_integer_order_reduction(self):
        # P^{1/2}_{-rho-1/2}(cos a) = sqrt(2/(pi sin a)) cos(rho a)
        rho, alpha = 0.7, 1.1
        want = math.sqrt(2.0 / (math.pi * math.sin(alpha))) * math.cos(rho * alpha)
        got = legendre_p_cut(-rho - 0.5, 0.5, math.cos(alpha))
        assert got == pytest.approx(want, rel=1e-12)

    def test_degree_symmetry_complex(self):
        nu = 0.4 + 0.3j
        a = legendre_p_cut(nu, -0.5, 0.2)
        b = legendre_p_cut(-nu - 1.0, -0.5, 0.2)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_log_blowup_toward_minus_one(self):
        # P_rho(x) ~ (sin(pi rho)/pi) ln((1+x)/2) as x -> -1: the ratio
        # approaches 1, and gets closer as x does
        rho = 0.5
        ratios = []
        for eps in (1e-6, 1e-9, 1e-12):
            x = -1.0 + eps
            lead = math.sin(math.pi * rho) / math.pi * math.log((1.0 + x) / 2.0)
            ratios.append(legendre_p_cut(rho, 0.0, x) / lead)
        assert abs(ratios[-1] - 1.0) < 0.1
        assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)

    def test_degree_symmetry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            nu = rng.uniform(-4.0, 4.0)
            mu = rng.uniform(-2.5, 0.9)
            xi = rng.uniform(-0.99, 0.99)
            a = legendre_p_cut(nu, mu, xi)
            b = legendre_p_cut(-nu - 1.0, mu, xi)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_order_recurrence(self):
        # (nu-mu+1) P^mu_{nu+1} - (nu+mu+1) xi P^mu_nu = sqrt(1-xi^2) P^{mu+1}_nu
        rng = np.random.default_rng(3)
        for _ in range(300):
            nu = rng.uniform(-3.0, 4.0)
            mu = rng.uniform(-2.0, 0.8)
            xi = rng.uniform(-0.95, 0.95)
            lhs = (nu - mu + 1.0) * legendre_p_cut(nu + 1.0, mu, xi) \
                - (nu + mu + 1.0) * xi * legendre_p_cut(nu, mu, xi)
            rhs = math.sqrt(1.0 - xi * xi) * legendre_p_cut(nu, mu + 1.0, xi)
            scale = abs(lhs) + abs(rhs) + 1.0
            assert abs(lhs - rhs) <= 1e-9 * scale

    def test_positive_integer_order_via_recurrence(self):
        mp = pytest.importorskip("mpmath")
        for mu in (1.0, 2.0):
            for nu in (0.7, 2.3):
                got = legendre_p_cut(nu, mu, 0.4)
                ref = float(mp.legenp(nu, mu, 0.4, type=2))
                assert got == pytest.approx(ref, rel=1e-10)

    def test_zero_free_for_complex_degree(self):
        # sampling probe: no value anywhere near zero once Im(nu) >= 0.1
        for im in (0.1, 0.5, 2.0):
            for re in (-1.5, 0.3, 2.0):
                for mu in (-1.0, -0.5, 0.0):
                    for xi in np.linspace(-0.9, 0.9, 13):
                        val = legendre_p_cut(complex(re, im), mu, float(xi))
                        assert abs(val) > 1e-12

    def test_cut_endpoints_rejected(self):
        with pytest.raises(DomainError):
            legendre_p_cut(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            legendre_p_cut(0.5, 0.0, -1.0)

    def test_half_degree_at_zero(self):
        assert legendre_p_cut(0.5, 0.0, 0.0) == pytest.approx(0.53935260118837936, rel=1e-12)

    def test_nonfinite_rejected(self):
        for nu, mu in ((complex(np.inf, 0.0), 0.0), (math.nan, 0.0), (0.5, math.inf),
                       (complex(0.5, math.nan), 0.0)):
            with pytest.raises(DomainError):
                legendre_p_cut(nu, mu, 0.5)

    def test_convergence_cap_near_minus_one(self):
        # extremely close to the cut edge the series machinery must either
        # deliver a finite value or raise the explicit failure, never hang
        val = legendre_p_cut(0.5, 0.0, -1.0 + 1e-14)
        assert np.isfinite(val)


def test_no_nan_escapes():
    rng = np.random.default_rng(23)
    for _ in range(200):
        nu = rng.uniform(-5, 5)
        mu = rng.uniform(-3, 0.9)
        xi = rng.uniform(-0.9999, 0.9999)
        try:
            val = legendre_p_cut(nu, mu, xi)
        except (PoleError, ConvergenceError, DomainError):
            continue
        assert np.isfinite(val)
