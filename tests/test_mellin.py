import math

import numpy as np
import pytest

from raygrowth.errors import DomainError, PoleError, StripViolationError
from raygrowth.indicator import indicator_closed
from raygrowth.kernels import MAX_DIMENSION, ProblemParams, h_value
from raygrowth.mellin import (
    MellinResult,
    MellinStrip,
    QuadratureSpec,
    mellin_h_closed,
    mellin_hn_at_order,
    mellin_ibp_numeric,
    mellin_numeric,
    tauberian_symbol,
)
from raygrowth.specfun import gamma, legendre_weighted

QUAD = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13, max_level=12)


def mellin_k_closed(lam, s, xi):
    """Closed-form Mellin transform of the Riesz kernel (1 + t^2 + 2 t xi)^(-lam)
    on 0 < Re s < 2 lam.

    The classical table identity in its raw gamma-quotient shape, with order
    mu = 1/2 - lam and degree nu = s - lam - 1/2 as given (mellin_h_closed
    takes a real degree below -1/2 at its mirror), so agreement with the
    quadrature exercises gamma and legendre_weighted at the unmirrored degree.
    """
    MellinStrip(0.0, 2.0 * lam).check(s)
    mu, nu = 0.5 - lam, s - lam - 0.5
    coef = gamma(1.0 - mu) * gamma(nu - mu + 1.0) * gamma(-mu - nu) / (
        2.0 ** mu * gamma(1.0 - 2.0 * mu)
    )
    return coef * legendre_weighted(nu, mu, (1.0 - xi) / 2.0)


def h_integrand(lam, q, xi):
    return lambda u: h_value(lam, q, u, xi)


class TestQuadratureSpec:
    def test_defaults(self):
        q = QuadratureSpec()
        assert q.max_level == 10

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_level=1)


class TestStrips:
    def test_principal_strip(self):
        s = MellinStrip.principal_for_h(2)
        assert (s.lower, s.upper) == (-3.0, -2.0)
        assert s.contains(-2.5)
        assert not s.contains(-2.0)

    def test_extended_strip(self):
        s = MellinStrip.extended_for_h(1, 1.5)
        assert (s.lower, s.upper) == (-2.0, 3.0)

    def test_empty_strip_rejected(self):
        with pytest.raises(DomainError):
            MellinStrip(1.0, 1.0)


class TestMellinNumeric:
    def test_gamma_by_definition(self):
        res = mellin_numeric(lambda u: np.exp(-u), 3.0, QUAD, MellinStrip(0.0, 50.0))
        assert res.converged
        assert complex(res.value).real == pytest.approx(2.0, rel=1e-10)

    def test_beta_collapse_at_xi_one(self):
        # xi = 1 collapses h to 1 - (1+u)^{-2 lam}; the transform at
        # s = -1/2, lam = 1 is -Gamma(-1/2)Gamma(5/2)/Gamma(2) = 3 pi / 2
        res = mellin_numeric(h_integrand(1.0, 0, 1.0), -0.5, QUAD, MellinStrip.principal_for_h(0))
        assert complex(res.value).real == pytest.approx(1.5 * math.pi, rel=1e-10)

    def test_matches_closed_form(self):
        res = mellin_numeric(h_integrand(0.5, 0, 0.0), -0.5, QUAD, MellinStrip.principal_for_h(0))
        closed = mellin_h_closed(0.5, 0, -0.5, 0.0)
        assert complex(res.value).real == pytest.approx(closed, rel=1e-8)

    def test_strip_violation_raises_never_silent(self):
        with pytest.raises(StripViolationError):
            mellin_numeric(h_integrand(1.0, 0, 0.5), -1.5, QUAD, MellinStrip.principal_for_h(0))
        with pytest.raises(StripViolationError):
            mellin_numeric(h_integrand(1.0, 0, 0.5), 0.2, QUAD, MellinStrip.principal_for_h(0))

    def test_complex_s(self):
        # int_0^inf e^{-u} u^{s-1} du = Gamma(s) at complex s
        from raygrowth.specfun import gamma

        s = 2.0 + 0.7j
        res = mellin_numeric(lambda u: np.exp(-u), s, QUAD, MellinStrip(0.0, 50.0))
        assert abs(res.value - gamma(s)) <= 1e-9 * abs(gamma(s))

    @pytest.mark.parametrize("s", [0.3 + 0.7j, 0.05 - 2.0j, 49.5 + 0.3j])
    def test_complex_s_next_to_strip_edge(self, s):
        # a power substitution on a complex integrand: Gamma(s) near both
        # edges of the strip (0, 50)
        from raygrowth.specfun import gamma

        res = mellin_numeric(lambda u: np.exp(-u), s, QUAD, MellinStrip(0.0, 50.0))
        assert res.converged
        assert abs(res.value - gamma(s)) <= 1e-11 * abs(gamma(s))

    def test_evaluations_sum_over_pieces(self):
        # a complex s takes two complex integrals, as a real s takes two real
        # ones, each at least its first pass of 16 * 2^4 + 2 nodes; the count
        # reaches the caller
        res = mellin_numeric(lambda u: np.exp(-u), 2.0 + 0.7j, QUAD, MellinStrip(0.0, 50.0))
        real = mellin_numeric(lambda u: np.exp(-u), 2.0, QUAD, MellinStrip(0.0, 50.0))
        assert res.evaluations == real.evaluations == 2 * 258

    def test_tolerance_flag_reported(self):
        # a hostile oscillatory integrand with a tiny refinement budget must
        # come back flagged, not silently wrong
        tight = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_level=2)
        res = mellin_numeric(lambda u: np.sin(50.0 * u) * np.exp(-u), 2.0, tight,
                             MellinStrip(0.0, 50.0))
        assert not res.converged
        assert res.message == "; ".join(["tanh-sinh: maximum level reached (max_level 2)"] * 2)

    def test_held_to_names_the_bound(self):
        # 10 * max(1e-12, 1e-10 * 2) = 2e-9 at the default tolerances: the
        # first row's 3e-9 is over it, the second row's 1e-9 within it, and
        # the third row was flagged before
        quad = QuadratureSpec()
        res = MellinResult(value=np.array([2.0, 2.0, 2.0]), error=np.array([3e-9, 1e-9, 3e-9]),
                           converged=np.array([True, True, False]),
                           message=np.array(["", "", "tanh-sinh: earlier"], dtype=object))
        held = res.held_to(quad)
        assert held.converged.tolist() == [False, True, False]
        assert held.message.tolist() == [
            "summed error estimate 3e-09 exceeds the bound 2e-09, 10 times the tolerance",
            "", "tanh-sinh: earlier"]
        one = MellinResult(value=2.0, error=3e-9, converged=True).held_to(quad)
        assert one.converged is False and one.message == held.message[0]
        # a result within the bound comes back as it is
        within = MellinResult(value=2.0, error=1e-9, converged=True)
        assert within.held_to(quad) is within


class TestClosedForms:
    def test_h_closed_example_at_origin(self):
        # -Gamma(-1/2) Gamma(3/2) P_{-3/2}(0) = pi P_{1/2}(0)
        want = math.pi * legendre_weighted(0.5, 0.0, 0.5)
        assert mellin_h_closed(0.5, 0, -0.5, 0.0) == pytest.approx(want, rel=1e-12)

    def test_h_closed_endpoint_degeneration(self):
        # xi -> 1 approaches the beta closed form
        beta_form = mellin_h_closed(1.0, 0, -0.5, 1.0)
        assert beta_form == pytest.approx(1.5 * math.pi, rel=1e-13)
        near = mellin_h_closed(1.0, 0, -0.5, 1.0 - 1e-9)
        assert near == pytest.approx(beta_form, rel=1e-4)

    def test_h_closed_vs_quadrature(self):
        for lam, q, s, xi in [(1.5, 1, -1.5, -0.3), (2.5, 2, -2.5, 0.4)]:
            res = mellin_numeric(h_integrand(lam, q, xi), s, QUAD, MellinStrip.principal_for_h(q))
            assert complex(res.value).real == pytest.approx(
                mellin_h_closed(lam, q, s, xi), rel=1e-8
            )

    def test_h_closed_pole_error(self):
        with pytest.raises(PoleError):
            mellin_h_closed(1.5, 1, 0.0, 0.3)
        with pytest.raises(PoleError):
            mellin_h_closed(1.5, 1, -1.0 + 1e-9, 0.3)
        # gamma(2 lam - s) at s = 2 lam
        with pytest.raises(PoleError, match="gamma\\(2 lam - s\\)"):
            mellin_h_closed(1.0, 0, 2.0, 0.3)

    def test_k_closed_classical_integral(self):
        # int_0^inf dt/(1+t^2) = pi/2
        assert mellin_k_closed(1.0, 1.0, 0.0) == pytest.approx(math.pi / 2, rel=1e-12)

    @pytest.mark.parametrize("lam,s,xi", [(1.0, 1.0, 0.5), (0.75, 0.6, -0.4)])
    def test_k_closed_vs_quadrature(self, lam, s, xi):
        res = mellin_numeric(lambda t: (1.0 + t * t + 2.0 * t * xi) ** (-lam), s, QUAD,
                             MellinStrip(0.0, 2.0 * lam))
        assert complex(res.value).real == pytest.approx(mellin_k_closed(lam, s, xi), rel=1e-9)

    @pytest.mark.parametrize("lam,s", [(0.5, 0.3), (1.0, 1.0), (1.5, 2.2), (2.5, 0.7 + 0.4j)])
    def test_k_closed_axis_is_beta(self, lam, s):
        # at xi = 1 the kernel is (1+t)^(-2 lam), whose transform is
        # Gamma(s) Gamma(2 lam - s) / Gamma(2 lam)
        from scipy.special import gamma as sp_gamma

        want = sp_gamma(s) * sp_gamma(2.0 * lam - s) / sp_gamma(2.0 * lam)
        assert abs(mellin_k_closed(lam, s, 1.0) - want) <= 1e-13 * abs(want)

    def test_k_closed_strip_violation(self):
        with pytest.raises(StripViolationError):
            mellin_k_closed(1.0, 2.5, 0.0)
        with pytest.raises(StripViolationError):
            mellin_k_closed(1.0, -0.1, 0.0)

    def test_continuation_continuity(self):
        # closed form is continuous along an s-path that crosses no pole
        path = [-0.5 + 1j * v for v in np.linspace(0.0, 1.0, 10)]
        vals = [mellin_h_closed(1.0, 0, s, 0.3) for s in path]
        steps = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
        scale = max(abs(v) for v in vals)
        assert all(st <= 0.5 * scale for st in steps)


class TestOrderPointForms:
    def test_two_printed_forms_agree(self):
        p = ProblemParams(4, 0.5)
        forms = mellin_hn_at_order(p, 0.2)
        assert forms.gamma_form == pytest.approx(forms.factorial_form, rel=1e-12)

    def test_n3_symmetry_value(self):
        # degree symmetry P_{-3/2} = P_{1/2} turns the closed form into
        # pi P_{1/2}(0) / sin(pi/2)
        p = ProblemParams(3, 0.5)
        forms = mellin_hn_at_order(p, 0.0)
        want = math.pi * legendre_weighted(0.5, 0.0, 0.5)
        assert forms.factorial_form == pytest.approx(want, rel=1e-12)
        assert forms.gamma_form == pytest.approx(
            mellin_h_closed(p.lam, p.q, -p.rho, 0.0), rel=1e-12
        )

    def test_against_quadrature_n5(self):
        p = ProblemParams(5, 1.3)
        forms = mellin_hn_at_order(p, -0.5)
        res = mellin_numeric(h_integrand(p.lam, p.q, -0.5), -p.rho, QUAD,
                             MellinStrip.principal_for_h(p.q))
        assert complex(res.value).real == pytest.approx(forms.factorial_form, rel=1e-8)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_axis_limit(self, n):
        # the weighted Legendre factor is continuous into xi = 1, where it
        # equals 2^((3-n)/2) / Gamma((n-1)/2); both printed shapes follow
        p = ProblemParams(n, 1.4)
        axis = mellin_hn_at_order(p, 1.0)
        near = mellin_hn_at_order(p, 1.0 - 1e-9)
        assert axis.gamma_form == pytest.approx(axis.factorial_form, rel=1e-12)
        assert near.factorial_form == pytest.approx(axis.factorial_form, rel=1e-7)
        want = -math.gamma(-p.rho) * math.gamma(2.0 * p.lam + p.rho) / math.gamma(2.0 * p.lam)
        assert axis.factorial_form == pytest.approx(want, rel=1e-12)

    def test_sign_on_axis(self):
        # for 0 < rho < 1 the axis integrand 1 - (1+u)^{-2 lam} is positive,
        # so the order-point transform must be too: pins the corrected
        # overall sign of the printed forms
        for n in (3, 4, 5):
            forms = mellin_hn_at_order(ProblemParams(n, 0.5), 1.0)
            assert forms.factorial_form > 0.0
        # for rho > 1 the sign follows the continued beta form
        from raygrowth.specfun import gamma

        p = ProblemParams(5, 1.3)
        want = -gamma(-p.rho) * gamma(2.0 * p.lam + p.rho) / gamma(2.0 * p.lam)
        forms = mellin_hn_at_order(p, 1.0)
        assert forms.factorial_form == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("n,rho,theta", [(8, 15.5, 2.8), (10, 20.3, 1.5), (6, 12.7, 1.5)])
    def test_high_order_against_indicator(self, n, rho, theta):
        # the degree -rho-(n-1)/2 was summed as one cancelling series:
        # 7.1e-2, 2.4e-3 and 2.6e-9 off the indicator at these points
        p = ProblemParams(n, rho)
        xi = math.cos(theta)
        want = indicator_closed(p, theta) / (rho + n - 2.0)
        forms = mellin_hn_at_order(p, xi)
        for got in (mellin_h_closed(p.lam, p.q, -rho, xi), forms.gamma_form, forms.factorial_form):
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("rho", [0.05, 0.5, 1.5, 3.7, 12.3])
    def test_axis_value_up_to_max_dimension(self, rho):
        # on the axis both shapes equal pi (rho+1)_{n-3} / ((n-3)! sin(pi rho));
        # the factorial form used to overflow from n = 125 at rho = 0.5
        mp = pytest.importorskip("mpmath")
        r = mp.mpf(rho)
        for n in range(3, MAX_DIMENSION + 1):
            forms = mellin_hn_at_order(ProblemParams(n, rho), 1.0)
            want = float(mp.pi * mp.rf(r + 1, n - 3) / (mp.factorial(n - 3) * mp.sin(mp.pi * r)))
            assert forms.gamma_form == pytest.approx(want, rel=1e-13, abs=0), n
            assert forms.factorial_form == pytest.approx(want, rel=1e-13, abs=0), n


class TestTauberianSymbol:
    def test_reduces_to_order_point_at_v0(self):
        # at rho >= 3 both sides take the degree at its mirror, s = -rho - 0j too
        for n, rho, phi in [(3, 0.5, math.pi / 2), (8, 15.5, 2.8), (10, 20.3, 1.5)]:
            p = ProblemParams(n, rho)
            sym = tauberian_symbol(p, phi, 0.0)
            forms = mellin_hn_at_order(p, math.cos(phi))
            assert abs(sym - forms.factorial_form) <= 1e-12 * abs(sym), (n, rho)

    def test_vanishes_on_exceptional_angle(self):
        from raygrowth.indicator import zero_set

        p = ProblemParams(3, 0.5)
        beta = zero_set(p).roots[0]
        assert abs(tauberian_symbol(p, beta, 0.0)) < 1e-8

    def test_nonzero_for_nonreal_degree(self):
        p = ProblemParams(3, 0.5)
        assert abs(tauberian_symbol(p, math.pi / 2, 1.7)) > 1e-8

    def test_zero_d_shift_gives_a_python_complex(self):
        # the shift is read through its checked value, so a 0-d array gives
        # the float call's value, as a Python complex
        p = ProblemParams(4, 1.5)
        for v in (2.0, 0.0):
            got = tauberian_symbol(p, 0.3, np.array(v))
            assert type(got) is complex
            assert repr(got) == repr(tauberian_symbol(p, 0.3, v))

    def test_axis_direction_allowed(self):
        p = ProblemParams(4, 0.5)
        val = tauberian_symbol(p, 0.0, 0.3)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_no_zero_off_the_real_degree(self):
        # the docstring's claim, on 60 seeded (n, rho, phi) with v = 0 and six
        # v in [0, 30], where the symbol at -v is the conjugate: values within
        # 1e-10 of mpmath, and for v != 0 a modulus that, normalised by its
        # growth e^{(phi - pi)|v|} (1 + |v|)^2, stays above 1e-3.  phi <= 2
        # keeps x = sin^2(phi/2) <= 0.71 on the central 2F1 series; past
        # x = 0.75 complex degrees lose digits (ROADMAP item 13), so larger
        # phi is left to that item
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(13)
        cases = 0
        while cases < 60:
            n, rho, phi = int(rng.integers(3, 11)), rng.uniform(0.05, 5.95), rng.uniform(0.0, 2.0)
            if abs(rho - round(rho)) < 0.05:
                continue
            cases += 1
            p = ProblemParams(n, rho)
            for v in [0.0] + rng.uniform(0.0, 30.0, 6).tolist():
                with mp.workdps(40):
                    lam, s, x = mp.mpf(n - 2) / 2, -mp.mpf(rho) - 1j * mp.mpf(v), mp.mpf(phi)
                    m = (-mp.sqrt(mp.pi) * mp.gamma(s) * mp.gamma(2 * lam - s)
                         / (2 ** (lam - 0.5) * mp.gamma(lam)) * mp.sin(x) ** ((1 - 2 * lam) / 2)
                         * mp.legenp(s - lam - 0.5, 0.5 - lam, mp.cos(x), type=2))
                    want = complex((1 - 1j * mp.mpf(v)) * m)
                got = tauberian_symbol(p, phi, v)
                assert abs(got - want) <= 1e-10 * abs(want), (n, rho, phi, v)
                if v:
                    margin = abs(want) * math.exp((math.pi - phi) * v) / (1.0 + v) ** 2
                    assert margin >= 1e-3, (n, rho, phi, v)


class TestIntegrationByParts:
    @pytest.mark.parametrize("lam,q,xi", [(1.0, 0, 0.5), (1.5, 1, -0.3), (2.5, 2, 0.4)])
    def test_agrees_with_direct_inside_principal_strip(self, lam, q, xi):
        s = -q - 0.5
        direct = mellin_numeric(h_integrand(lam, q, xi), s, QUAD, MellinStrip.principal_for_h(q))
        ibp = mellin_ibp_numeric(lam, q, s, xi, QUAD)
        assert complex(ibp.value).real == pytest.approx(
            complex(direct.value).real, rel=1e-8
        )

    def test_continues_beyond_principal_strip(self):
        # on the extension the direct integral diverges but the integrated-
        # by-parts form still matches the closed formula
        val = mellin_ibp_numeric(1.5, 1, 0.5, -0.3, QUAD)
        assert complex(val.value).real == pytest.approx(
            mellin_h_closed(1.5, 1, 0.5, -0.3), rel=1e-9
        )

    def test_continues_at_complex_s(self):
        # a complex s takes the same two integrals as a real one, on complex
        # integrands
        s = 0.5 + 0.4j
        val = mellin_ibp_numeric(1.5, 1, s, -0.3, QUAD)
        want = mellin_h_closed(1.5, 1, s, -0.3)
        assert abs(val.value - want) <= 1e-12 * abs(want)
        assert val.evaluations == 2 * 258

    def test_strip_and_pole_errors(self):
        with pytest.raises(StripViolationError):
            mellin_ibp_numeric(1.0, 0, 2.5, 0.3, QUAD)
        with pytest.raises(PoleError):
            mellin_ibp_numeric(1.5, 1, -1.0, 0.3, QUAD)
