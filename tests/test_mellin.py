import math

import numpy as np
import pytest

from raygrowth.errors import DomainError, PoleError, StripViolationError
from raygrowth.kernels import ProblemParams, h_value
from raygrowth.mellin import (
    MellinStrip,
    QuadratureSpec,
    mellin_h_closed,
    mellin_hn_at_order,
    mellin_ibp_numeric,
    mellin_k_closed,
    mellin_numeric,
    tauberian_symbol,
)
from raygrowth.specfun import legendre_p_cut

QUAD = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13, max_level=12)


def h_integrand(lam, q, xi):
    return lambda u: h_value(lam, q, u, xi)


class TestQuadratureSpec:
    def test_defaults(self):
        q = QuadratureSpec()
        assert q.split_point == 1.0
        assert q.max_level == 10

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(split_point=-1.0)
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

    def test_tolerance_flag_reported(self):
        # a hostile oscillatory integrand with a tiny refinement budget must
        # come back flagged, not silently wrong
        tight = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_level=2)
        res = mellin_numeric(lambda u: np.sin(50.0 * u) * np.exp(-u), 2.0, tight,
                             MellinStrip(0.0, 50.0))
        assert not res.converged
        with pytest.raises(ArithmeticError):
            res.require()


class TestClosedForms:
    def test_h_closed_example_at_origin(self):
        # -Gamma(-1/2) Gamma(3/2) P_{-3/2}(0) = pi P_{1/2}(0)
        want = math.pi * legendre_p_cut(0.5, 0.0, 0.0)
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

    def test_k_closed_classical_integral(self):
        # int_0^inf dt/(1+t^2) = pi/2
        assert mellin_k_closed(1.0, 1.0, 0.0) == pytest.approx(math.pi / 2, rel=1e-12)

    @pytest.mark.parametrize("lam,s,xi", [(1.0, 1.0, 0.5), (0.75, 0.6, -0.4)])
    def test_k_closed_vs_quadrature(self, lam, s, xi):
        res = mellin_numeric(lambda t: (1.0 + t * t + 2.0 * t * xi) ** (-lam), s, QUAD,
                             MellinStrip(0.0, 2.0 * lam))
        assert complex(res.value).real == pytest.approx(mellin_k_closed(lam, s, xi), rel=1e-9)

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
        want = math.pi * legendre_p_cut(0.5, 0.0, 0.0)
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


class TestTauberianSymbol:
    def test_reduces_to_order_point_at_v0(self):
        p = ProblemParams(3, 0.5)
        sym = tauberian_symbol(p, math.pi / 2, 0.0)
        forms = mellin_hn_at_order(p, 0.0)
        assert abs(sym - forms.factorial_form) <= 1e-12 * abs(sym)

    def test_vanishes_on_exceptional_angle(self):
        from raygrowth.indicator import zero_set

        p = ProblemParams(3, 0.5)
        beta = zero_set(p).roots[0]
        assert abs(tauberian_symbol(p, beta, 0.0)) < 1e-8

    def test_nonzero_for_nonreal_degree(self):
        p = ProblemParams(3, 0.5)
        assert abs(tauberian_symbol(p, math.pi / 2, 1.7)) > 1e-8

    def test_axis_direction_allowed(self):
        p = ProblemParams(4, 0.5)
        val = tauberian_symbol(p, 0.0, 0.3)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


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

    def test_strip_and_pole_errors(self):
        with pytest.raises(StripViolationError):
            mellin_ibp_numeric(1.0, 0, 2.5, 0.3, QUAD)
        with pytest.raises(PoleError):
            mellin_ibp_numeric(1.5, 1, -1.0, 0.3, QUAD)
