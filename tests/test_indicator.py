import math
from dataclasses import replace

import numpy as np
import pytest

from raygrowth.errors import (
    DomainError,
    ExceptionalAngleError,
    OutOfRangeError,
    StripViolationError,
)
from raygrowth.indicator import (
    NEG_INFINITY,
    IndicatorValue,
    angular_shape,
    indicator_closed,
    indicator_integral,
    indicator_near_pi,
    indicator_value,
    laplace_log_kernel,
    laplace_strip,
    order_equation_range,
    order_equation_rhs,
    ratio_limits,
    solve_order,
    tauberian_audit,
    tauberian_constant,
    transfer_indicator,
    zero_set,
)
from raygrowth.kernels import ProblemParams
from raygrowth.mellin import QuadratureSpec
from raygrowth.specfun import gamma

P35 = ProblemParams(3, 0.5)
TIGHT = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_level=12)


class TestIndicatorClosed:
    def test_axis_anchor(self):
        # the kernel integral at theta=0 reduces to (rho+1) B(1-rho, rho),
        # i.e. (rho+1) pi / sin(pi rho) = 3 pi/2 here
        assert indicator_closed(P35, 0.0) == pytest.approx(1.5 * math.pi, rel=1e-14)

    def test_vanishes_on_root(self):
        beta = zero_set(P35).roots[0]
        assert abs(indicator_closed(P35, beta)) < 1e-10

    def test_zero_type_constant(self):
        p = ProblemParams(3, 0.5, delta=0.0)
        for th in (0.0, 1.0, 2.5):
            assert indicator_closed(p, th) == 0.0

    def test_linear_in_delta(self):
        p2 = ProblemParams(3, 0.5, delta=2.0)
        assert indicator_closed(p2, 1.0) == pytest.approx(2.0 * indicator_closed(P35, 1.0),
                                                          rel=1e-14)

    def test_array_angles(self):
        th = np.array([0.0, 0.7, 2.0])
        vec = indicator_closed(P35, th)
        for i, t in enumerate(th):
            assert vec[i] == pytest.approx(indicator_closed(P35, float(t)), rel=1e-14)

    def test_angle_domain(self):
        with pytest.raises(DomainError):
            indicator_closed(P35, math.pi)


class TestIndicatorIntegral:
    def test_axis_beta_reduction(self):
        assert indicator_integral(P35, 0.0, TIGHT) == pytest.approx(1.5 * math.pi, rel=1e-9)

    def test_cross_oracle_equator(self):
        hc = indicator_closed(P35, math.pi / 2)
        hi = indicator_integral(P35, math.pi / 2, TIGHT)
        assert hi == pytest.approx(hc, rel=1e-6)

    def test_cross_oracle_high_dimension(self):
        p = ProblemParams(5, 2.4)
        hc = indicator_closed(p, 1.0)
        hi = indicator_integral(p, 1.0, TIGHT)
        assert hi == pytest.approx(hc, rel=1e-6)

    def test_full_output_flag(self):
        val, res = indicator_integral(P35, 1.0, TIGHT, full_output=True)
        assert res.converged
        assert val == res.value

    def test_formerly_flagged_angle(self):
        # QUADPACK called this angle "probably divergent" although its value
        # was right to 15 digits
        p = ProblemParams(5, 0.6339010361591668)
        th = 1.6930914226326501
        val, res = indicator_integral(p, th, full_output=True)
        assert res.converged
        assert val == pytest.approx(indicator_closed(p, th), rel=1e-12)

    @pytest.mark.parametrize("q", range(5))
    def test_orders_next_to_integers(self, q):
        # Re s = -rho sits 0.02 from an edge of the strip: a millionth of
        # the integral lies at u below 1e-300 or above 1e300
        n = 3 + q
        for rho in (q + 0.02, q + 0.98):
            p = ProblemParams(n, rho)
            for th in (0.3, 1.3, 2.3):
                val, res = indicator_integral(p, th, full_output=True)
                assert res.converged
                assert val == pytest.approx(indicator_closed(p, th), rel=1e-10)


class TestNearPiAsymptotics:
    def test_monotone_divergence_n4(self):
        p = ProblemParams(4, 0.5)
        vals = [indicator_near_pi(p, math.pi - eps) for eps in (0.3, 0.1, 0.03, 0.01)]
        assert all(v < 0 for v in vals)
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))

    def test_n3_structure_at_half(self):
        # at rho = 1/2 the cotangent term drops; what is left tracks
        # 2 (rho+1) ln cos(theta/2) plus a constant
        from raygrowth.specfun import EULER_GAMMA, digamma

        th = math.pi - 0.01
        got = indicator_near_pi(P35, th)
        const = 1.5 * (2.0 * EULER_GAMMA + 2.0 * digamma(-0.5))
        assert got == pytest.approx(1.5 * 2.0 * math.log(math.cos(th / 2)) + const, rel=1e-12)

    def test_close_to_closed_form(self):
        p = ProblemParams(3, 0.3)
        th = math.pi - 1e-3
        hc = indicator_closed(p, th)
        ha = indicator_near_pi(p, th)
        assert abs(hc - ha) / abs(hc) <= 0.02

    def test_window_enforced(self):
        with pytest.raises(DomainError):
            indicator_near_pi(P35, 1.0)


class TestIndicatorValue:
    def test_sentinel_at_pi(self):
        v = indicator_value(P35, math.pi)
        assert v.value == NEG_INFINITY
        assert v.source == "asymptotic"

    def test_sources_cross_check(self):
        vc = indicator_value(P35, 1.0, source="closed_form")
        vi = indicator_value(P35, 1.0, TIGHT, source="integral_form")
        assert vc.value == pytest.approx(vi.value, rel=1e-8)
        assert isinstance(vc, IndicatorValue)


class TestZeroSet:
    def test_single_root_n3(self):
        z = zero_set(P35)
        assert len(z.roots) == 1
        assert 129.0 <= math.degrees(z.roots[0]) <= 131.0

    def test_single_root_n5(self):
        z = zero_set(ProblemParams(5, 0.5))
        assert len(z.roots) == 1
        assert 114.0 <= math.degrees(z.roots[0]) <= 116.0

    def test_three_roots_against_finer_scan(self):
        p = ProblemParams(3, 2.5)
        z = zero_set(p)
        assert len(z.roots) == 3
        fine = zero_set(p, resolution=1e-4)
        for a, b in zip(z.roots, fine.roots):
            assert a == pytest.approx(b, abs=1e-9)

    def test_residuals_tiny(self):
        z = zero_set(ProblemParams(3, 2.5))
        for b in z.roots:
            assert abs(angular_shape(3, 2.5, b)) < 1e-10

    def test_sign_flips_exactly_at_roots(self):
        p = ProblemParams(4, 2.7)
        z = zero_set(p)
        probes = [1e-3] + [b for b in z.roots] + [math.pi - 1e-3]
        mids = [0.5 * (probes[i] + probes[i + 1]) for i in range(len(probes) - 1)]
        signs = [np.sign(angular_shape(4, 2.7, m)) for m in mids]
        for i in range(len(signs) - 1):
            assert signs[i] == -signs[i + 1]

    @pytest.mark.parametrize("n,rho", [(10, 7.3), (4, 9.5), (7, 11.4), (6, 12.7)])
    def test_roots_against_mpmath_at_high_order(self, n, rho):
        # every root brackets a sign change of S in 30-digit arithmetic and
        # sits within 1e-7 relative of the root refined there
        mp = pytest.importorskip("mpmath")
        z = zero_set(ProblemParams(n, rho))
        assert len(z.roots) == math.floor(rho) + 1
        with mp.workdps(30):
            mu = mp.mpf(3 - n) / 2
            nu = mp.mpf(rho) + mp.mpf(n - 3) / 2

            def shape(theta):
                x = mp.sin(theta / 2) ** 2
                return (1 + mp.cos(theta)) ** mu * mp.hyp2f1(-nu, nu + 1, 1 - mu, x,
                                                             zeroprec=4 * mp.mp.prec)

            for beta in z.roots:
                # Illinois rule on [beta - 1e-6, beta + 1e-6]
                a, b = mp.mpf(beta) - mp.mpf("1e-6"), mp.mpf(beta) + mp.mpf("1e-6")
                fa, fb = shape(a), shape(b)
                assert fa * fb < 0
                for _ in range(100):
                    c = b - fb * (b - a) / (fb - fa)
                    fc = shape(c)
                    if fc == 0 or abs(c - b) < mp.mpf("1e-25") * abs(c):
                        break
                    if fc * fb < 0:
                        a, fa = b, fb
                    else:
                        fa /= 2
                    b, fb = c, fc
                assert abs(beta - c) <= 1e-7 * abs(c)

    def test_gamma_overflow_is_domain_error(self):
        # S carries 1/Gamma((n-1)/2), and Gamma(199.5) overflows
        with pytest.raises(DomainError, match="overflows"):
            zero_set(ProblemParams(400, 0.5))


class TestTauberianConstant:
    def test_axis_value(self):
        # empty product, P(1) = 1: Gamma(1/2) / pi^{3/2} = 1/pi
        assert tauberian_constant(P35, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_exceptional_angle_rejected(self):
        beta = zero_set(P35).roots[0]
        with pytest.raises(ExceptionalAngleError):
            tauberian_constant(P35, beta)
        # a wider guard band catches the nearby quoted angle too
        with pytest.raises(ExceptionalAngleError):
            tauberian_constant(P35, math.radians(130.0), bracket_width=0.05)

    def test_audit_product_reports_offset_factor(self):
        # printed constant times printed indicator / delta = rho + n - 2,
        # constant across directions
        for p in (P35, ProblemParams(4, 0.5), ProblemParams(5, 1.3)):
            vals = [tauberian_audit(p, phi) for phi in (0.0, 0.7, math.pi / 2, 2.0)]
            for v in vals:
                assert v == pytest.approx(p.rho + p.n - 2.0, rel=1e-12)
            assert max(vals) - min(vals) <= 1e-9


class TestTransfer:
    def test_identity(self):
        H = indicator_closed(P35, 0.9)
        assert transfer_indicator(P35, 0.9, H, 0.9) == pytest.approx(H, rel=1e-14)

    def test_plane_case_reduction(self):
        # in the plane the latitude factor is proportional to cos(rho theta),
        # so the transfer ratio must reduce to cos(rho t)/cos(rho f)
        rho = 0.7
        for f, t in ((0.3, 1.2), (0.8, 2.0)):
            ratio = angular_shape(2, rho, t) / angular_shape(2, rho, f)
            assert ratio == pytest.approx(math.cos(rho * t) / math.cos(rho * f), rel=1e-10)

    def test_cross_oracle(self):
        H_phi = indicator_closed(P35, math.pi / 4)
        got = transfer_indicator(P35, math.pi / 4, H_phi, math.pi / 2)
        assert got == pytest.approx(indicator_closed(P35, math.pi / 2), rel=1e-10)

    def test_random_pairs_consistent(self):
        rng = np.random.default_rng(17)
        p = ProblemParams(4, 1.5)
        roots = zero_set(p).roots
        count = 0
        while count < 100:
            phi, th = rng.uniform(0.0, math.pi - 0.05, size=2)
            if min(abs(phi - b) for b in roots) < 0.05:
                continue
            count += 1
            got = transfer_indicator(p, float(phi), indicator_closed(p, float(phi)), float(th))
            assert got == pytest.approx(indicator_closed(p, float(th)), rel=1e-10, abs=1e-12)

    def test_exceptional_source_rejected(self):
        beta = zero_set(P35).roots[0]
        with pytest.raises(ExceptionalAngleError):
            transfer_indicator(P35, beta, 1.0, 0.5)


class TestRatioLimits:
    def test_axis_values(self):
        un, uN = ratio_limits(P35, 0.0)
        assert un == pytest.approx(1.5 * math.pi, rel=1e-13)
        assert uN == pytest.approx(0.75 * math.pi, rel=1e-13)

    def test_quotient_law(self):
        for n in (3, 4, 5, 6):
            for rho in (0.3, 1.5, 2.7):
                p = ProblemParams(n, rho)
                for th in (0.0, 0.9, 2.2):
                    un, uN = ratio_limits(p, th)
                    if un == 0.0:
                        continue
                    assert uN / un == pytest.approx(rho / (n - 2.0), rel=1e-10)

    def test_vanish_on_root(self):
        beta = zero_set(P35).roots[0]
        un, uN = ratio_limits(P35, beta)
        assert abs(un) < 1e-10 and abs(uN) < 1e-10


class TestOrderEquation:
    def test_printed_and_gamma_product_forms_agree(self):
        for n in (3, 4, 5, 6):
            for rho in np.linspace(0.05, 0.95, 10):
                printed = (gamma(n - 1.0 - rho) / (math.factorial(n - 2) * gamma(1.0 - rho))
                           * math.pi * rho / math.sin(math.pi * rho))
                assert order_equation_rhs(n, float(rho)) == pytest.approx(printed, rel=1e-12)

    def test_full_precision_next_to_one(self):
        # Gamma(n-2) Gamma(2) / (n-2)! = 1/(n-2) at rho = 1; the printed
        # sin(pi rho) form keeps only ~7 digits this close to it
        assert order_equation_rhs(4, 1.0 - 1e-9) == pytest.approx(0.5, abs=1e-12)

    def test_known_point(self):
        assert order_equation_rhs(3, 0.5) == pytest.approx(math.pi / 4, rel=1e-14)

    def test_solve_recovers_half(self):
        assert solve_order(3, math.pi / 4) == pytest.approx(0.5, abs=1e-6)

    def test_solve_forward_inverse_n4(self):
        assert solve_order(4, order_equation_rhs(4, 0.3)) == pytest.approx(0.3, abs=1e-6)

    def test_roundtrip_monotone_cases(self):
        # n = 3 is symmetric about 1/2 (two preimages above the minimum), so
        # the identity roundtrip is asserted on its decreasing branch only
        for rho in (0.1, 0.2, 0.3, 0.4, 0.5):
            assert solve_order(3, order_equation_rhs(3, rho)) == pytest.approx(rho, abs=1e-12)
        for n in (4, 5, 6):
            for rho in np.arange(0.1, 0.95, 0.1):
                got = solve_order(n, order_equation_rhs(n, float(rho)))
                assert got == pytest.approx(float(rho), abs=1e-12)

    def test_n3_mirror_branch_still_solves(self):
        # above the minimum the smaller preimage is returned; it still
        # satisfies the equation to the residual tolerance
        for rho in (0.6, 0.75, 0.9):
            target = order_equation_rhs(3, rho)
            got = solve_order(3, target)
            assert got == pytest.approx(1.0 - rho, abs=1e-6)
            assert order_equation_rhs(3, got) == pytest.approx(target, abs=1e-10)

    def test_boundary_out_of_range(self):
        # delta_bar = 1 is the unattained supremum as rho -> 0+
        with pytest.raises(OutOfRangeError):
            solve_order(3, 1.0)

    def test_out_of_range_reports_interval(self):
        for target in (1.0, 1e6):
            with pytest.raises(OutOfRangeError) as exc:
                solve_order(3, target)
            assert exc.value.lo == pytest.approx(math.pi / 4, abs=1e-12)
            assert exc.value.hi < 1.0

    def test_n3_tangency_accepted(self):
        assert solve_order(3, math.pi / 4 - 5e-10) == 0.5
        with pytest.raises(OutOfRangeError):
            solve_order(3, math.pi / 4 - 2e-9)

    def test_gamma_overflow_is_domain_error(self):
        # the right side carries Gamma(n-1-rho), which overflows at n = 200
        with pytest.raises(DomainError, match="overflows"):
            solve_order(200, 0.5)

    def test_interval_ends_exact(self):
        # at rho = 1 - eps the right side is Gamma(n-2+eps) Gamma(2-eps) / (n-2)!
        #   = (1 + eps (psi(n-2) - psi(2))) / (n-2) + O(eps^2),
        # with psi(n-2) - psi(2) = 1/2 + ... + 1/(n-3)
        eps = 1.0 - (1.0 - 1e-9)
        for n in range(4, 11):
            lo, hi = order_equation_range(n)
            want = (1.0 + eps * sum(1.0 / k for k in range(2, n - 2))) / (n - 2)
            assert lo == pytest.approx(want, rel=1e-12)
            assert hi == pytest.approx(1.0, rel=1e-8)
            with pytest.raises(OutOfRangeError) as exc:
                solve_order(n, 0.5 * lo)
            assert (exc.value.lo, exc.value.hi) == (lo, hi)


class TestLaplaceLogKernel:
    def test_axis_closed_form(self):
        for n in (3, 4, 5, 6):
            for s in (-0.5, 0.0, 0.3, 0.7):
                want = gamma(n - 1.0 - s) * gamma(1.0 + s) / math.factorial(n - 2)
                assert laplace_log_kernel(n, 0.0, s) == pytest.approx(want, rel=1e-8)

    def test_unit_value_at_zero(self):
        assert laplace_log_kernel(3, 0.0, 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_quarter_pi_value(self):
        # Gamma(3/2)^2 = pi/4 at n=3, s=1/2
        assert laplace_log_kernel(3, 0.0, 0.5) == pytest.approx(math.pi / 4, rel=1e-8)

    def test_strip_endpoints_measured(self):
        for n in (3, 5):
            strip = laplace_strip(n, 0.0)
            assert strip.lower == pytest.approx(-1.0, abs=1e-6)
            assert strip.upper == pytest.approx(n - 1.0, abs=1e-6)
        # at theta = pi/2 the slope measurement is limited by the float
        # roundoff of cos(pi/2), so the tolerance is looser there
        wide = laplace_strip(4, math.pi / 2)
        assert wide.lower == pytest.approx(-2.0, abs=1e-5)
        assert wide.upper == pytest.approx(4.0, abs=1e-5)

    def test_strip_violation(self):
        with pytest.raises(StripViolationError):
            laplace_log_kernel(3, 0.0, 2.5)
        with pytest.raises(StripViolationError):
            laplace_log_kernel(3, 0.0, -1.0)

    def test_positive_and_monotone_off_axis(self):
        vals = [laplace_log_kernel(5, math.pi / 4, s) for s in np.linspace(-0.5, 1.0, 7)]
        assert all(v > 0 for v in vals)
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))

    def test_full_output(self):
        val, res = laplace_log_kernel(4, 0.2, 0.4, full_output=True)
        assert res.converged and res.value == val
