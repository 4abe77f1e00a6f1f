import math

import numpy as np
import pytest

from raygrowth.errors import DomainError, ParseError
from raygrowth.indicator import indicator_closed, ratio_limits, zero_set
from raygrowth.kernels import ProblemParams
from raygrowth.mellin import QuadratureSpec
from raygrowth.potential import (
    Atomic,
    Perturbed,
    PowerLaw,
    SlowlyVarying,
    average_N,
    counterexample_u0,
    counting_n,
    format_mass_model,
    laplacian_u0,
    parse_mass_model,
    ratio_probe,
    scaled_limit,
    u_canonical,
    u_poisson,
)

P35 = ProblemParams(3, 0.5)
PW = PowerLaw(delta=1.0, rho=0.5)


def discretize_power_law(model, n, t_max, count):
    """Independent discretization of the power-law mass into point masses."""
    edges = np.geomspace(model.t0, t_max, count + 1)
    mids = np.sqrt(edges[:-1] * edges[1:])
    cum = model.delta * edges**model.rho * edges ** (n - 2)  # raw mass within radius
    masses = np.diff(cum)
    atoms = [(float(mids[0]), float(masses[0] + cum[0]))]  # fold in the edge atom
    atoms += [(float(t), float(m)) for t, m in zip(mids[1:], masses[1:])]
    return Atomic(atoms=tuple(atoms))


class TestCountingFunctions:
    def test_unit_ball_mass_free(self):
        assert counting_n(PW, 3, 0.5) == 0.0
        assert counting_n(PW, 3, 1.0) == 0.0

    def test_power_law_profile(self):
        assert counting_n(PW, 3, 4.0) == pytest.approx(2.0, rel=1e-14)

    def test_atomic_normalization(self):
        at = Atomic(atoms=((2.0, 3.0),))
        assert counting_n(at, 3, 5.0) == pytest.approx(0.6, rel=1e-14)
        assert counting_n(at, 3, 1.5) == 0.0

    def test_atomic_prefix_sum_matches_direct_sum(self):
        # radii below the first atom, on atoms, between atoms, above the
        # last atom and 0, unsorted; an atom at radius t_i counts from t_i on
        at = Atomic(atoms=((7.5, 0.25), (2.0, 3.0), (3.25, 1.5), (40.0, 2.75), (3.5, 0.125)))
        radii = np.array([1.5, 2.0, 2.5, 3.25, 3.4, 3.5, 7.5, 10.0, 40.0, 1e3, 0.0, 1.99])
        for n in (3, 4, 7):
            got = counting_n(at, n, radii)
            for r, g in zip(radii, got):
                raw = sum(m for t, m in at.atoms if t <= r)
                want = raw / r ** (n - 2) if r > 0 else 0.0
                assert g == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_atomic_scalar_radius_gives_float(self):
        at = Atomic(atoms=((2.0, 3.0), (5.0, 1.0)))
        value = counting_n(at, 4, 5.0)
        assert type(value) is float
        assert value == pytest.approx(4.0 / 25.0, rel=1e-14)

    def test_average_power_law_closed_form(self):
        # (n-2) delta (r^rho - 1)/rho: includes the truncation correction
        # -(n-2) delta / rho from the mass-free unit ball
        for n in (3, 4, 5):
            for r in (1.5, 4.0, 100.0):
                want = (n - 2) * (r**0.5 - 1.0) / 0.5
                assert average_N(PW, n, r) == pytest.approx(want, rel=1e-13)

    def test_average_atomic_exact(self):
        at = Atomic(atoms=((2.0, 3.0),))
        assert average_N(at, 3, 2.0) == 0.0
        assert average_N(at, 3, 4.0) == pytest.approx(0.75, rel=1e-14)

    def test_average_numeric_matches_closed_for_perturbed(self):
        # spot-check the quadrature path against an exact antiderivative:
        # psi = log has N(r) = (n-2)(r^rho (rho ln r - 1) + t0^rho)/rho^2
        sv = SlowlyVarying(rho=0.5, psi1="log", t0=1.0)
        r, n, rho = 50.0, 3, 0.5
        want = (n - 2) * (r**rho * (rho * math.log(r) - 1.0) + 1.0) / rho**2
        assert average_N(sv, n, r) == pytest.approx(want, rel=1e-10)

    def test_average_array_matches_scalar(self):
        # one call on an array of radii gives the scalar calls' values;
        # radii inside the support edge give 0
        sv = SlowlyVarying(rho=0.5, psi1="log", t0=1.0)
        radii = np.array([0.5, 50.0, 3.0, 1e4, 3.0])
        vals, err, ok = average_N(sv, 4, radii, full_output=True)
        assert ok and vals.shape == radii.shape and np.all(err >= 0)
        for r, v in zip(radii, vals):
            assert v == pytest.approx(average_N(sv, 4, float(r)), rel=1e-12)
        assert isinstance(average_N(sv, 4, 50.0), float)

    def test_model_validation(self):
        with pytest.raises(DomainError):
            PowerLaw(delta=-1.0, rho=0.5)
        with pytest.raises(DomainError):
            Atomic(atoms=((0.5, 1.0),))
        with pytest.raises(DomainError):
            Atomic(atoms=())
        with pytest.raises(DomainError):
            Perturbed(delta=1.0, rho=0.5, eps="nope")


class TestCanonicalPotential:
    def test_zero_radius(self):
        assert u_canonical(PW, P35, 0.0, 1.0) == 0.0

    def test_single_atom_matches_kernel(self):
        at = Atomic(atoms=((2.0, 1.0),))
        want = 0.5 * (1.0 - 1.25 ** (-0.5))
        assert u_canonical(at, P35, 1.0, math.pi / 2) == pytest.approx(want, rel=1e-13)

    def test_scaled_approaches_indicator(self):
        for th in (0.0, math.pi / 4, math.pi / 2):
            u = u_canonical(PW, P35, 1e6, th)
            assert u * 1e-3 == pytest.approx(indicator_closed(P35, th), rel=1e-2)

    def test_homogeneity_in_delta(self):
        pw2 = PowerLaw(delta=2.0, rho=0.5)
        for r in (3.0, 50.0):
            assert u_canonical(pw2, P35, r, 1.0) == pytest.approx(
                2.0 * u_canonical(PW, P35, r, 1.0), rel=1e-11
            )

    def test_angle_domain(self):
        with pytest.raises(DomainError):
            u_canonical(PW, P35, 1.0, math.pi)


class TestPoissonRepresentation:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2])
    @pytest.mark.parametrize("r", [100.0, 1000.0])
    def test_representation_equivalence(self, n, theta, r):
        p = ProblemParams(n, 0.5)
        uc = u_canonical(PW, p, r, theta)
        up = u_poisson(PW, n, r, theta)
        assert abs(uc - up) <= 1e-4 * abs(up)

    def test_full_output(self):
        pert = Perturbed(delta=1.0, rho=0.5, eps="inv_log")
        p = ProblemParams(3, 0.5)
        up, err, ok = u_poisson(pert, 3, 200.0, 0.6, full_output=True)
        assert ok and 0.0 < err <= 1e-8 * abs(up)
        assert up == pytest.approx(u_canonical(pert, p, 200.0, 0.6), rel=1e-8)

    def test_zero_model(self):
        z = PowerLaw(delta=0.0, rho=0.5)
        assert u_poisson(z, 3, 100.0, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_mass(self):
        pw2 = PowerLaw(delta=2.0, rho=0.5)
        a = u_poisson(PW, 3, 50.0, 0.3)
        b = u_poisson(pw2, 3, 50.0, 0.3)
        assert b == pytest.approx(2.0 * a, rel=1e-10)

    def test_order_restriction(self):
        heavy = PowerLaw(delta=1.0, rho=1.5)
        with pytest.raises(DomainError):
            u_poisson(heavy, 3, 10.0, 0.1)

    def test_atomic_allowed(self):
        at = Atomic(atoms=((2.0, 1.0),))
        p = ProblemParams(3, 0.5)
        uc = u_canonical(at, p, 100.0, 0.4)
        up = u_poisson(at, 3, 100.0, 0.4)
        assert abs(uc - up) <= 1e-6 * abs(up)


class TestSweeps:
    def test_power_law_extrapolates_to_indicator(self):
        res = scaled_limit(PW, P35, math.pi / 2, (1e2, 1e6, 9))
        want = indicator_closed(P35, math.pi / 2)
        assert abs(res.extrapolated_limit - want) <= 0.01 * abs(want)
        assert res.convergence_flag

    def test_perturbed_same_limit_slower(self):
        pert = Perturbed(delta=1.0, rho=0.5, eps="inv_log")
        res = scaled_limit(pert, P35, math.pi / 2, (1e2, 1e6, 9))
        want = indicator_closed(P35, math.pi / 2)
        assert abs(res.extrapolated_limit - want) <= 0.10 * abs(want)
        assert res.convergence_flag
        # slower: the plain power law lands much closer at the same radii
        base = scaled_limit(PW, P35, math.pi / 2, (1e2, 1e6, 9))
        assert abs(base.extrapolated_limit - want) < abs(res.extrapolated_limit - want)

    def test_zero_model_zero_limit(self):
        z = PowerLaw(delta=0.0, rho=0.5)
        res = scaled_limit(z, P35, 0.3, (1e2, 1e6, 6))
        assert res.extrapolated_limit == 0.0
        assert res.convergence_flag

    def test_samples_strictly_increasing_and_tagged(self):
        res = scaled_limit(PW, P35, 0.3, (1e2, 1e5, 7))
        rs = [s.r for s in res.samples]
        assert all(b > a for a, b in zip(rs, rs[1:]))
        assert all(s.theta1 == 0.3 for s in res.samples)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            scaled_limit(PW, P35, 0.3, (1e2, 1e6, 3))
        with pytest.raises(DomainError):
            scaled_limit(PW, P35, 0.3, np.array([1.0, 1.0, 2.0, 3.0, 4.0]))


class TestRatioProbe:
    def test_power_law_ratios(self):
        res = ratio_probe(PW, P35, 0.0, (1e2, 1e6, 9))
        assert abs(res.extrapolated_un - 1.5 * math.pi) <= 0.01 * 1.5 * math.pi
        assert abs(res.extrapolated_uN - 0.75 * math.pi) <= 0.01 * 0.75 * math.pi

    def test_delta_independence(self):
        res1 = ratio_probe(PW, P35, 0.0, (1e2, 1e4, 5))
        res2 = ratio_probe(PowerLaw(delta=2.0, rho=0.5), P35, 0.0, (1e2, 1e4, 5))
        assert res1.extrapolated_un == pytest.approx(res2.extrapolated_un, rel=1e-10)
        assert res1.extrapolated_uN == pytest.approx(res2.extrapolated_uN, rel=1e-10)

    def test_slowly_varying_approaches_corollary_constant(self):
        # psi1 = ln gives u/N -> the corollary constant, but only at a 1/ln r
        # pace; fit v = A + B/ln r on the tail and compare the intercept
        sv = SlowlyVarying(rho=0.5, psi1="log", t0=1.0)
        res = ratio_probe(sv, P35, 0.0, (1e4, 1e10, 7))
        xs = np.array([1.0 / math.log(s.r) for s in res.samples])
        ys = np.array([s.u_over_N for s in res.samples])
        slope, intercept = np.polyfit(xs, ys, 1)
        want = ratio_limits(P35, 0.0)[1]
        assert abs(intercept - want) <= 0.05 * want

    def test_sandwich_contains_limit(self):
        # ratios of the perturbed model straddle the closed-form limit
        pert = Perturbed(delta=1.0, rho=0.5, eps="inv_log")
        res = ratio_probe(pert, P35, 0.0, (1e2, 1e8, 9))
        want = ratio_limits(P35, 0.0)[0]
        lo = min(s.u_over_n for s in res.samples)
        hi = max(s.u_over_n for s in res.samples)
        assert lo <= want * 1.05 and hi >= want * 0.95

    def test_requires_mass_on_grid(self):
        with pytest.raises(DomainError):
            ratio_probe(PW, P35, 0.0, (0.1, 10.0, 6))


class TestAtomicDiscretization:
    def test_matches_density_within_one_percent(self):
        # the truncation tail of the atom cloud scales like r (T)^{-1/2}, so
        # covering (1, 1e8) keeps it under 0.2% at r = 1e3; 1e4 geometric
        # atoms then resolve each decade with step ~1.002
        atoms = discretize_power_law(PW, 3, 1e8, 10_000)
        for r in (1e2, 1e3):
            dense = u_canonical(PW, P35, r, math.pi / 4)
            discrete = u_canonical(atoms, P35, r, math.pi / 4)
            assert abs(discrete - dense) <= 0.01 * abs(dense)


class TestCounterexample:
    def test_closed_form_point(self):
        r = math.exp(math.exp(math.pi / 2))
        assert counterexample_u0(0.5, r, 0.0) == pytest.approx(2.0 * r**0.5, rel=1e-12)

    def test_axis_oscillation(self):
        ts = np.linspace(0.0, 2.0 * math.pi, 65)
        rs = np.exp(np.exp(ts))
        scaled = counterexample_u0(0.5, rs, 0.0) * rs ** (-0.5)
        assert scaled.max() - scaled.min() >= 1.9

    def test_frozen_on_exceptional_angle(self):
        beta = zero_set(P35).roots[0]
        ts = np.linspace(0.0, 2.0 * math.pi, 65)
        rs = np.exp(np.exp(ts))
        scaled = counterexample_u0(0.5, rs, beta) * rs ** (-0.5)
        assert scaled.max() - scaled.min() <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            counterexample_u0(0.5, 2.0, 0.0)
        with pytest.raises(DomainError):
            counterexample_u0(1.5, 100.0, 0.0)

    def test_laplacian_positive_at_scale(self):
        for th in (0.0, math.pi / 2, 2.0, math.pi - 0.01):
            for r in (1e6, 1e8):
                assert laplacian_u0(0.5, r, th) > 0.0

    def test_laplacian_tracks_leading_terms(self):
        # analytic leading terms rho(rho+1) r^{rho-2} etc dominate at 1e8
        from raygrowth.indicator import angular_shape

        rho, r, th = 0.5, 1e8, 1.0
        lead = r ** (rho - 2.0) * (
            rho * (rho + 1.0)
            + (2.0 * rho + 1.0) * math.cos(math.log(math.log(r))) / math.log(r)
            * angular_shape(3, rho, th)
        )
        assert laplacian_u0(rho, r, th) == pytest.approx(lead, rel=0.02)


class TestSerialization:
    def test_power_law_roundtrip(self):
        m = parse_mass_model("powerlaw delta=1.0 rho=0.5\n")
        assert isinstance(m, PowerLaw)
        again = parse_mass_model(format_mass_model(m))
        assert again == m

    def test_atoms_roundtrip(self):
        m = parse_mass_model("atom t=2.0 mass=3.0\natom t=5 mass=1\n")
        assert isinstance(m, Atomic)
        assert parse_mass_model(format_mass_model(m)) == m

    def test_comments_and_blanks(self):
        m = parse_mass_model("# comment\n\nperturbed delta=1 rho=0.5 eps=inv_log\n")
        assert isinstance(m, Perturbed)
        assert m.t0 == math.e

    def test_parse_errors_carry_line(self):
        with pytest.raises(ParseError) as exc:
            parse_mass_model("powerlaw delta=1.0\n")
        assert "line 1" in str(exc.value)
        with pytest.raises(ParseError):
            parse_mass_model("atom t=2 mass=1\npowerlaw delta=1 rho=0.5\n")
        with pytest.raises(ParseError):
            parse_mass_model("")
        with pytest.raises(ParseError):
            parse_mass_model("blob a=1\n")
        with pytest.raises(ParseError):
            parse_mass_model("powerlaw delta=x rho=0.5\n")
