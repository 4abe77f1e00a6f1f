import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import elementwise

from raygrowth import indicator
from raygrowth.errors import (
    ConvergenceError,
    CountMismatchError,
    DomainError,
    ExceptionalAngleError,
    OutOfRangeError,
    StripViolationError,
)
from raygrowth.indicator import (
    ROOT_BRACKET_WIDTH,
    _refine_roots,
    angular_shape,
    guarded_indicator,
    indicator_closed,
    indicator_integral,
    indicator_near_pi,
    laplace_log_kernel,
    laplace_strip,
    order_equation_range,
    order_equation_rhs,
    ratio_limits,
    solve_order,
    tauberian_audit,
    tauberian_constant,
    zero_set,
)
from raygrowth.kernels import MAX_DIMENSION, ProblemParams
from raygrowth.mellin import MellinStrip, QuadratureSpec
from raygrowth.specfun import gamma

P35 = ProblemParams(3, 0.5)
TIGHT = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_level=12)

# orders of the closed forms checked over every dimension up to MAX_DIMENSION
LARGE_N_ORDERS = (0.05, 0.5, 1.5, 3.7, 12.3)


def transfer(p, phi, H_phi, theta):
    """H(theta) = S(theta) / S(phi) H(phi): an indicator value carried from
    the direction phi to the direction theta through the angular factor."""
    return H_phi * angular_shape(p.n, p.rho, theta) / angular_shape(p.n, p.rho, phi)


def axis_indicator_mpmath(mp, n, rho):
    """H(0) = pi (n-2) (rho+1)_{n-2} / ((n-2)! sin(pi rho)) in mpmath."""
    r = mp.mpf(rho)
    return mp.pi * (n - 2) * mp.rf(r + 1, n - 2) / (mp.factorial(n - 2) * mp.sin(mp.pi * r))


class TestIndicatorClosed:
    @pytest.mark.parametrize("theta", [3.14159264, [0.3, math.pi - 1e-8]], ids=["scalar", "array"])
    def test_angle_next_to_pi_names_theta(self, theta):
        # within about 2.1e-8 of pi, sin^2(theta/2) rounds to 1
        with pytest.raises(DomainError, match=r"^theta=3\.141592\d+ lies within about 2\.1e-8 of pi"):
            angular_shape(3, 0.5, theta)

    def test_angle_next_to_pi_names_the_callers_argument(self):
        p = ProblemParams(3, 0.5)
        with pytest.raises(DomainError, match=r"^phi=3\.141592\d+ lies within about 2\.1e-8 of pi"):
            tauberian_constant(p, math.pi - 1e-8)
        with pytest.raises(DomainError, match=r"^theta1=3\.141592\d+ lies within"):
            guarded_indicator(p, math.pi - 1e-8)

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

    @pytest.mark.parametrize("params,theta,bad", [
        (ProblemParams(3, 0.5, 1e308), 1.0, "1"),
        (ProblemParams(5, 0.5, 1e300), [0.3, 3.1415], "3.1415000000000002"),
    ])
    def test_overflow_is_domain_error(self, params, theta, bad):
        # a large delta carries H past the double range, to inf (the
        # coefficient alone, at n = 3) or -inf (S, large next to pi, at n = 5)
        message = f"the indicator at theta1={bad} overflows the double range"
        with pytest.raises(DomainError, match=message):
            indicator_closed(params, theta)
        with pytest.raises(DomainError, match=message):
            guarded_indicator(params, np.ravel(theta)[-1])

    def test_large_delta_goes_in_last(self):
        # the coefficient times delta = 1e300 is inf at (20, 30.5), but S
        # scales H back into the double range, where the quadrature has it
        p = ProblemParams(20, 30.5, 1e300)
        h = indicator_closed(p, 2.0)
        assert h == pytest.approx(-7.41954400329825e306, rel=1e-7)
        assert h == pytest.approx(1e300 * indicator_closed(ProblemParams(20, 30.5), 2.0), rel=1e-15)
        assert guarded_indicator(p, 2.0) == h

    @pytest.mark.parametrize("rho", LARGE_N_ORDERS)
    def test_axis_value_up_to_max_dimension(self, rho):
        # the prefactor's rising product used to overflow before its
        # division, from n = 125 at rho = 0.5
        mp = pytest.importorskip("mpmath")
        for n in range(3, MAX_DIMENSION + 1):
            got = indicator_closed(ProblemParams(n, rho), 0.0)
            want = float(axis_indicator_mpmath(mp, n, rho))
            assert got == pytest.approx(want, rel=1e-13, abs=0), n


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

    def test_genus_zero_up_to_max_dimension(self):
        # seeded (n, rho, theta) over n = 3..MAX_DIMENSION and rho < 1, each
        # angle at least 0.05 from a root of S.  The reference is taken at
        # the angle whose cosine is the double xi the integral sees: next to
        # pi at large n, the rounding of cos(theta) alone moves H by up to
        # 1.2e-12 on these draws
        rng = np.random.default_rng(34)
        checked = 0
        while checked < 60:
            n, rho = int(rng.integers(3, MAX_DIMENSION + 1)), float(rng.uniform(0.05, 0.95))
            theta = float(rng.uniform(0.0, 3.1))
            with mpmath.workdps(40):
                r = mpmath.mpf(rho)
                coef = (mpmath.pi * mpmath.mpf(2) ** (mpmath.mpf(n - 3) / 2)
                        * mpmath.gamma(mpmath.mpf(n - 1) / 2) * mpmath.rf(r + 1, n - 2)
                        / (mpmath.factorial(n - 3) * mpmath.sinpi(r)))
                s = [shape_mpmath(n, rho, theta + d) for d in (-0.05, 0.0, 0.05)]
                if s[0] * s[1] <= 0 or s[1] * s[2] <= 0:
                    continue
                want = float(coef * shape_mpmath(n, rho, mpmath.acos(math.cos(theta))))
            val, res = indicator_integral(ProblemParams(n, rho), theta, full_output=True)
            assert res.converged
            assert val == pytest.approx(want, rel=1e-12, abs=0)
            checked += 1

    def test_scalar_angle_gives_scalars(self):
        val, res = indicator_integral(P35, np.float64(1.0), full_output=True)
        assert type(val) is float and val == res.value
        assert type(res.error) is float
        assert type(res.converged) is bool and type(res.message) is str

    def test_array_of_angles_equals_one_angle_calls(self):
        # the angles of `indicator --n 5 --rho 1.5 --theta 0.3,root1,2.0`
        p = ProblemParams(5, 1.5)
        thetas = [0.3, zero_set(p).roots[1], 2.0]
        vals, res = indicator_integral(p, thetas, full_output=True)
        for k, th in enumerate(thetas):
            val, one = indicator_integral(p, th, full_output=True)
            assert repr(float(vals[k])) == repr(val)
            assert repr(float(res.error[k])) == repr(one.error)
            assert res.converged[k] == one.converged

    def test_array_of_angles_matches_one_angle_calls(self):
        # on random draws, with flagged angles among them
        rng = np.random.default_rng(7)
        quads = (QuadratureSpec(), TIGHT, QuadratureSpec(max_level=3))
        flags = set()
        for i in range(12):
            p = ProblemParams(int(rng.integers(3, 12)), float(rng.uniform(0.1, 6.0)))
            thetas = rng.uniform(0.0, math.pi, (2, 3))
            quad = quads[i % 3]
            vals, res = indicator_integral(p, thetas, quad, full_output=True)
            assert vals.shape == res.error.shape == res.converged.shape == res.message.shape == (2, 3)
            evaluations = 0
            for k in np.ndindex(thetas.shape):
                val, one = indicator_integral(p, thetas[k], quad, full_output=True)
                assert repr(float(vals[k])) == repr(val)
                assert repr(float(res.error[k])) == repr(one.error)
                assert (res.converged[k], res.message[k]) == (one.converged, one.message)
                flags.add(one.converged)
                evaluations += one.evaluations
            assert res.evaluations == evaluations
        assert flags == {True, False}


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


class TestZeroSet:
    def test_single_root_n3(self):
        z = zero_set(P35)
        assert len(z.roots) == 1
        assert 129.0 <= math.degrees(z.roots[0]) <= 131.0

    def test_single_root_n5(self):
        z = zero_set(ProblemParams(5, 0.5))
        assert len(z.roots) == 1
        assert 114.0 <= math.degrees(z.roots[0]) <= 116.0

    def test_three_roots_against_finer_scan(self, monkeypatch):
        p = ProblemParams(3, 2.5)
        z = zero_set(p)
        assert len(z.roots) == 3
        monkeypatch.setattr(indicator, "ROOT_SCAN_RESOLUTION", 1e-4)
        fine = zero_set(p)
        assert len(fine.roots) == 3
        for a, b in zip(z.roots, fine.roots):
            assert a == pytest.approx(b, abs=1e-9)

    def test_residuals_tiny(self):
        z = zero_set(ProblemParams(3, 2.5))
        for b in z.roots:
            assert abs(angular_shape(3, 2.5, b)) < 1e-10

    @pytest.mark.parametrize("n,rho", [(3, 0.5), (3, 2.5), (5, 2.7), (6, 12.7), (10, 7.3)])
    def test_residuals_are_S_at_the_roots(self, n, rho):
        # the values the refinement ended on, bit for bit those of a fresh
        # call of S at the roots, one angle at a time or in one array
        z = zero_set(ProblemParams(n, rho))
        assert z.residuals == tuple(np.abs(angular_shape(n, rho, np.array(z.roots))).tolist())
        assert z.residuals == tuple(abs(float(angular_shape(n, rho, b))) for b in z.roots)

    def test_exact_zero_on_a_scan_node_has_residual_zero(self, monkeypatch):
        # S exactly 0 at a scan node, and no sign change between two nodes
        node = np.linspace(1e-3, math.pi - 1e-3, 3141)[1000]
        monkeypatch.setattr(indicator, "angular_shape",
                            lambda n, rho, theta: (np.asarray(theta) - node) ** 2)
        z = zero_set(P35)
        assert z.roots == (node,) and z.residuals == (0.0,)

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

    def test_count_mismatch_raises(self, monkeypatch):
        # a scan that finds two roots where floor(rho)+1 = 1 is surfaced
        monkeypatch.setattr(indicator, "_refine_roots",
                            lambda f, a, b, ends, full_output: (np.array([1.0, 2.0]), np.zeros(2)))
        with pytest.raises(CountMismatchError, match="found 2 angular roots for n=3, rho=0.5"):
            zero_set(P35)


def shape_mpmath(n, rho, theta):
    """S(theta) = (1 + cos theta)^mu / Gamma(1-mu) 2F1(-nu, nu+1; 1-mu;
    sin^2(theta/2)) by mpmath's own 2F1, at 40 digits."""
    with mpmath.workdps(40):
        mu = mpmath.mpf(3 - n) / 2
        nu = mpmath.mpf(rho) + mpmath.mpf(n - 3) / 2
        th = mpmath.mpf(theta)
        return ((1 + mpmath.cos(th)) ** mu * mpmath.rgamma(1 - mu)
                * mpmath.hyp2f1(-nu, nu + 1, 1 - mu, mpmath.sin(th / 2) ** 2))


class TestDegreeRecurrence:
    """From rho = 3 on, S is raised from its two lowest degrees by the
    three-term recurrence in the degree, and summed directly next to pi;
    an integer degree is summed in 1 - x next to pi."""

    def test_array_equals_one_angle_calls(self):
        # odd and even n, integer degrees (the Jacobi start) and angles next
        # to pi, where the factor is summed at its own degree
        rng = np.random.default_rng(37)
        for n, rho in [(5, 3.0), (6, 4.5), (10, 25.5), (3, 7.0)] + [
                (int(rng.integers(3, 13)), float(rng.uniform(2.0, 40.0))) for _ in range(30)]:
            theta = np.concatenate([[0.0], rng.uniform(0.0, 3.1, 8), [3.0, 3.1, 3.14]])
            whole = angular_shape(n, rho, theta)
            assert [repr(v) for v in whole.tolist()] == [repr(angular_shape(n, rho, t))
                                                         for t in theta.tolist()]

    def test_refinement_calls(self, monkeypatch):
        # while S was one series at degree nu, it cancelled at the far
        # roots, whose signs were rounding noise: 25 calls after the scan
        calls = []
        real = indicator.angular_shape

        def counted(n, rho, theta):
            calls.append(np.size(theta))
            return real(n, rho, theta)

        monkeypatch.setattr(indicator, "angular_shape", counted)
        zset = zero_set(ProblemParams(6, 12.587281517922548))
        assert len(zset.roots) == 13
        assert calls[0] == 3141 and len(calls) - 1 <= 10

    @pytest.mark.parametrize("n", range(3, 11))
    def test_against_mpmath(self, n):
        theta = np.linspace(0.05, 3.0, 25)
        for rho in (2.0, 3.3, 4.5, 5.0, 9.5, 12.587, 15.5, 21.0, 25.5, 33.3, 40.5):
            got = angular_shape(n, rho, theta)
            want = np.array([float(shape_mpmath(n, rho, t)) for t in theta.tolist()])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), rho

    @pytest.mark.parametrize("n", [8, 10])
    def test_integer_degree_below_rho_two(self, n):
        # nu = 1.5 + (n-3)/2 is an integer; summed in x next to pi, its
        # polynomial cancelled there: 2.1e-13 and 1.5e-11 of the largest |S|
        theta = np.linspace(0.05, 3.0, 25)
        got = angular_shape(n, 1.5, theta)
        want = np.array([float(shape_mpmath(n, 1.5, t)) for t in theta.tolist()])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,rho", [(7, 20.37), (12, 30.7), (4, 40.3), (8, 40.3), (3, 60.5),
                                       (10, 3.0549855703552233), (10, 4.584992614011126)])
    def test_zeros_against_mpmath(self, n, rho):
        # the first five exited 2 with CountMismatchError while S was one
        # series; the last two had roots off by 1.3e-12 and 6.6e-12.  S
        # in 40 digits changes sign within 1e-12 of every root found, and
        # the count is complete, so every root lies within 1e-12
        roots = zero_set(ProblemParams(n, rho)).roots
        assert len(roots) == math.floor(rho) + 1
        with mpmath.workdps(40):
            for beta in roots:
                below = shape_mpmath(n, rho, mpmath.mpf(beta) - mpmath.mpf("1e-12"))
                above = shape_mpmath(n, rho, mpmath.mpf(beta) + mpmath.mpf("1e-12"))
                assert below * above < 0, beta


def _scipy_refine(f, a, b, ends, full_output=False):
    # find_root evaluates f at the bracket ends itself: ends goes unused
    res = elementwise.find_root(f, (a, b), tolerances=indicator._ROOT_TOLERANCES)
    assert np.all(res.success)
    return (res.x, res.f_x) if full_output else res.x


class TestRefineRoots:
    """The in-house Chandrupatla loop, held against scipy's ``find_root``,
    which runs the same method at the same tolerances."""

    @pytest.mark.parametrize("n,rho", [(3, 0.5), (3, 12.9), (4, 2.7), (4, 12.9), (5, 7.3),
                                       (6, 12.5), (7, 11.5), (8, 12.9), (9, 10.1), (10, 12.2)])
    def test_zero_sets_match_scipy(self, monkeypatch, n, rho):
        zset = zero_set(ProblemParams(n, rho))
        monkeypatch.setattr(indicator, "_refine_roots", _scipy_refine)
        assert zset == zero_set(ProblemParams(n, rho))  # roots and residuals
        assert len(zset.roots) == math.floor(rho) + 1

    @pytest.mark.parametrize("n", range(3, 11))
    def test_solve_order_matches_scipy(self, monkeypatch, n):
        targets = np.linspace(*order_equation_range(n), 9).tolist()
        got = [solve_order(n, t) for t in targets]
        monkeypatch.setattr(indicator, "_refine_roots", _scipy_refine)
        assert got == [solve_order(n, t) for t in targets]

    @pytest.mark.parametrize("n,rho", [(3, 0.5), (4, 2.7), (6, 12.5)])
    def test_refinement_starts_from_the_scan_values(self, monkeypatch, n, rho):
        # the bracket ends are scan nodes, whose values the scan already
        # has: no call of S after the scan evaluates one of them again
        calls = []
        real = indicator.angular_shape

        def recorded(n, rho, theta):
            calls.append(np.atleast_1d(theta).copy())
            return real(n, rho, theta)

        monkeypatch.setattr(indicator, "angular_shape", recorded)
        assert len(zero_set(ProblemParams(n, rho)).roots) == math.floor(rho) + 1
        scan, refinement = calls[0], calls[1:]
        assert scan.size == 3141 and refinement
        for theta in refinement:
            assert not np.isin(theta, scan).any()

    def test_no_sign_change_raises(self):
        with pytest.raises(ConvergenceError, match="-1"):
            _refine_roots(lambda x: x * x + 1.0, np.array([-1.0, 0.0]), np.array([0.0, 1.0]),
                          (np.array([2.0, 1.0]), np.array([1.0, 2.0])))

    def test_nan_raises(self):
        with pytest.raises(ConvergenceError, match="-3"):
            _refine_roots(lambda x: np.full_like(x, np.nan), 0.0, 1.0, (np.nan, np.nan))

    def test_exact_zero_at_bracket_end(self):
        f = lambda x: x - 1.0
        a, b = np.array([1.0, 0.0]), np.array([2.0, 1.0])
        roots = _refine_roots(f, a, b, (f(a), f(b)))
        assert roots.tolist() == [1.0, 1.0]
        assert np.array_equal(roots, _scipy_refine(f, a, b, None))

    def test_scalar_bracket_gives_0d_result(self):
        ends = (math.cos(1.0), math.cos(2.0))
        root = _refine_roots(np.cos, 1.0, 2.0, ends)
        assert np.ndim(root) == 0
        assert root == _scipy_refine(np.cos, 1.0, 2.0, None)
        assert root == pytest.approx(math.pi / 2, abs=1e-15)
        assert _refine_roots(np.cos, np.array([1.0]), 2.0, ends).shape == (1,)

    def test_no_brackets(self):
        empty = np.array([])
        assert _refine_roots(np.cos, empty, empty, (empty, empty)).shape == (0,)


class TestTauberianConstant:
    def test_axis_value(self):
        # empty product, P(1) = 1: Gamma(1/2) / pi^{3/2} = 1/pi
        assert tauberian_constant(P35, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_exceptional_angle_rejected(self):
        beta = zero_set(P35).roots[0]
        with pytest.raises(ExceptionalAngleError):
            tauberian_constant(P35, beta)

    @pytest.mark.parametrize("p", [P35, ProblemParams(4, 1.5), ProblemParams(7, 20.37),
                                   ProblemParams(6, 12.587281517922548)])
    def test_fixed_guard_band(self, p):
        # angles within ROOT_BRACKET_WIDTH = 1e-6 of a root are refused,
        # angles 1e-3 away are ordinary
        for beta in zero_set(p).roots:
            for off in (-5e-7, 5e-7):
                with pytest.raises(ExceptionalAngleError):
                    tauberian_constant(p, beta + off)
            for off in (-1e-3, 1e-3):
                assert np.isfinite(tauberian_constant(p, beta + off))

    @pytest.mark.parametrize("n,rho,phi", [(3, 0.05, 1.0), (3, 1.03, 0.5)])
    def test_far_from_roots_where_the_scan_miscounts(self, n, rho, phi):
        # the 3141-node scan miscounts the roots here, and the guard raised
        # CountMismatchError while it judged phi by the whole zero set
        p = ProblemParams(n, rho)
        assert tauberian_audit(p, phi) == pytest.approx(rho + n - 2.0, rel=1e-12)
        H_phi = guarded_indicator(p, phi)
        assert transfer(p, phi, H_phi, 1.3) == pytest.approx(indicator_closed(p, 1.3), rel=1e-12)

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
        assert transfer(P35, 0.9, H, 0.9) == pytest.approx(H, rel=1e-14)

    def test_plane_case_reduction(self):
        # in the plane the latitude factor is proportional to cos(rho theta),
        # so the transfer ratio must reduce to cos(rho t)/cos(rho f)
        rho = 0.7
        for f, t in ((0.3, 1.2), (0.8, 2.0)):
            ratio = angular_shape(2, rho, t) / angular_shape(2, rho, f)
            assert ratio == pytest.approx(math.cos(rho * t) / math.cos(rho * f), rel=1e-10)

    def test_cross_oracle(self):
        H_phi = indicator_closed(P35, math.pi / 4)
        got = transfer(P35, math.pi / 4, H_phi, math.pi / 2)
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
            got = transfer(p, float(phi), indicator_closed(p, float(phi)), float(th))
            assert got == pytest.approx(indicator_closed(p, float(th)), rel=1e-10, abs=1e-12)

    def test_exceptional_source_rejected(self):
        # the guard that a transfer from phi goes through refuses a root
        beta = zero_set(P35).roots[0]
        with pytest.raises(ExceptionalAngleError):
            guarded_indicator(P35, beta)


class TestGuard:
    """The one test of the package for an angle on a root of S: a zero at
    the angle or a sign change of S within ROOT_BRACKET_WIDTH of it."""

    def test_refuses_exactly_within_the_band_of_a_root(self):
        rng = np.random.default_rng(41)
        draws = 0
        while draws < 12:
            n, rho = int(rng.integers(3, 11)), float(rng.uniform(0.1, 12.9))
            if abs(rho - round(rho)) < 0.05:
                continue
            draws += 1
            p = ProblemParams(n, rho)
            roots = zero_set(p).roots
            angles = [b + sign * off for b in roots for sign in (-1, 1)
                      for off in (0.0, 5e-7, 0.99e-6, 1.01e-6, 1e-3)]
            for a in angles + rng.uniform(0.0, math.pi, 10).tolist():
                near = min(abs(a - b) for b in roots) <= ROOT_BRACKET_WIDTH
                try:
                    value = guarded_indicator(p, a)
                except ExceptionalAngleError:
                    assert near, (n, rho, a)
                else:
                    assert not near, (n, rho, a)
                    assert value == indicator_closed(p, a)

    @pytest.mark.parametrize("theta1", [0.0, 5e-7, math.pi - 5e-7, math.pi - 1e-7])
    def test_ends_of_the_interval(self, theta1):
        # the band is clipped to [0, pi): S is not taken at pi
        assert guarded_indicator(P35, theta1) == indicator_closed(P35, theta1)

    def test_message_names_the_angle(self):
        beta = zero_set(P35).roots[0]
        with pytest.raises(ExceptionalAngleError, match=(
                rf"^phi={beta:.17g} is within 1e-06 rad of an exceptional angle, "
                "where the indicator is 0$")):
            tauberian_constant(P35, beta)

    def test_zero_delta_is_still_guarded(self):
        # the test is on S, not on H, which is 0 at every angle here
        p = ProblemParams(3, 0.5, 0.0)
        assert guarded_indicator(p, 0.3) == 0.0
        with pytest.raises(ExceptionalAngleError, match="^theta1="):
            guarded_indicator(p, zero_set(p).roots[0])


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

    @pytest.mark.parametrize("rho", LARGE_N_ORDERS)
    def test_axis_values_up_to_max_dimension(self, rho):
        # lim u/n = H(0) and lim u/N = H(0) rho / (n-2) at unit type constant
        mp = pytest.importorskip("mpmath")
        for n in range(3, MAX_DIMENSION + 1):
            un, uN = ratio_limits(ProblemParams(n, rho), 0.0)
            want = axis_indicator_mpmath(mp, n, rho)
            assert un == pytest.approx(float(want), rel=1e-13, abs=0), n
            assert uN == pytest.approx(float(want * mp.mpf(rho) / (n - 2)), rel=1e-13, abs=0), n


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

    @pytest.mark.parametrize("n,delta_bar,calls", [
        (4, 0.7, 9), (3, 0.9, 9), (10, 0.3, 10), (172, 0.05, 11),
        # out of range: the two ends of the range only
        (4, 5.0, 2), (3, 0.7853981628974482, 2),
    ])
    def test_bracket_ends_evaluated_once(self, monkeypatch, n, delta_bar, calls):
        seen = []
        rhs = indicator.order_equation_rhs

        def counted(n, rho):
            seen.append(rho)
            return rhs(n, rho)

        monkeypatch.setattr(indicator, "order_equation_rhs", counted)
        try:
            solve_order(n, delta_bar)
        except OutOfRangeError:
            pass
        assert len(seen) == calls

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

    def test_against_mpmath_up_to_max_dimension(self):
        # the printed Gamma form in 40 digits; the two scalar gamma calls
        # this replaced missed it by up to 7e-14
        mp = pytest.importorskip("mpmath")
        rhos = [1e-9, 1e-6, 1e-3, *np.linspace(0.01, 0.99, 99).tolist(), 1 - 1e-3, 1 - 1e-6,
                1 - 1e-9]
        with mp.workdps(40):
            for n in [*range(3, 13), 40, 100, MAX_DIMENSION]:
                for rho in rhos:
                    r = mp.mpf(rho)
                    want = (mp.gamma(n - 1 - r) / (mp.factorial(n - 2) * mp.gamma(1 - r))
                            * mp.pi * r / mp.sin(mp.pi * r))
                    got = order_equation_rhs(n, rho)
                    assert got == pytest.approx(float(want), rel=1e-14, abs=0), (n, rho)

    def test_array_equals_scalar_calls(self):
        rho = np.array([1e-9, 0.1, 0.5, 0.73, 1 - 1e-9])
        for n in (3, 4, 10, MAX_DIMENSION):
            each = [order_equation_rhs(n, float(r)) for r in rho]
            assert order_equation_rhs(n, rho).tobytes() == np.array(each).tobytes()
        assert order_equation_rhs(4, rho.reshape(5, 1)).shape == (5, 1)
        assert type(order_equation_rhs(4, 0.5)) is float

    def test_array_domain_error_names_first_bad_value(self):
        with pytest.raises(DomainError, match=r"got 1\.5$"):
            order_equation_rhs(4, np.array([0.5, 1.5, -2.0]))
        with pytest.raises(DomainError, match="got nan"):
            order_equation_rhs(4, np.array([np.nan, 0.5]))
        with pytest.raises(DomainError, match="got 0.0"):
            order_equation_rhs(4, 0.0)

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

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_axis_near_the_strip_edges(self, n):
        # s 0.02 inside (-1, n-1): the Mellin transform's power substitution
        # keeps 12 digits there
        for s in (-1.0 + 0.02, n - 1.0 - 0.02):
            val, res = laplace_log_kernel(n, 0.0, s, full_output=True)
            s_mp = mpmath.mpf(s)
            want = mpmath.gamma(n - 1 - s_mp) * mpmath.gamma(1 + s_mp) / mpmath.factorial(n - 2)
            assert res.converged
            assert abs(val - want) <= 1e-12 * want

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
        # at theta = pi/2 the kernel takes cos(theta1) = 0 exactly, not the
        # rounded cos(pi/2) = 6e-17
        wide = laplace_strip(4, math.pi / 2)
        assert wide.lower == pytest.approx(-2.0, abs=1e-6)
        assert wide.upper == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_strip_next_to_half_pi(self, n):
        # k decays like its cosine term at every angle below pi/2, however
        # small the cosine
        for d in (1e-15, 1e-13, 1e-10, 1e-6, 1e-2):
            strip = laplace_strip(n, math.pi / 2 - d)
            assert (strip.lower, strip.upper) == (-1.0, n - 1.0)
        with pytest.raises(StripViolationError):
            laplace_log_kernel(5, math.pi / 2 - 1e-10, -1.2826)

    def test_strip_exact_up_to_max_dimension(self):
        # the strip comes from k's exponents, so it is exact at every n
        wrong = [(n, theta1) for n in range(3, MAX_DIMENSION + 1)
                 for theta1 in np.linspace(0.0, 1.0, 21).tolist()
                 if laplace_strip(n, theta1) != MellinStrip(-1.0, n - 1.0)]
        assert wrong == []

    def test_strip_violation(self):
        with pytest.raises(StripViolationError):
            laplace_log_kernel(3, 0.0, 2.5)
        with pytest.raises(StripViolationError):
            laplace_log_kernel(3, 0.0, -1.0)

    def test_positive_and_monotone_off_axis(self):
        vals = [laplace_log_kernel(5, math.pi / 4, s) for s in np.linspace(-0.5, 1.0, 7)]
        assert all(v > 0 for v in vals)
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))

    @pytest.mark.parametrize("n,s", [(5, 4.087), (3, -1.5)])
    def test_half_pi_takes_cos_zero(self, n, s):
        # with cos = 0, k(t) = n e^{nt} (1 + e^{2t})^{-n/2-1}, whose transform
        # is (n/2) B((n-s)/2, 1+s/2) on (-2, n); the rounded cos(pi/2) once
        # gave 1e302 here
        want = n / 2 * mpmath.beta((n - mpmath.mpf(s)) / 2, 1 + mpmath.mpf(s) / 2)
        val, res = laplace_log_kernel(n, math.pi / 2, s, full_output=True)
        assert res.converged
        assert abs(val - want) <= 1e-12 * want

    def test_full_output(self):
        val, res = laplace_log_kernel(4, 0.2, 0.4, full_output=True)
        assert res.converged and res.value == val
