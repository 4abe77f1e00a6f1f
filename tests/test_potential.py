import math
import re
from dataclasses import fields

import mpmath
import numpy as np
import pytest

from raygrowth import potential
from raygrowth.errors import DomainError, ParseError
from raygrowth.indicator import angular_shape, indicator_closed, ratio_limits, zero_set
from raygrowth.kernels import ProblemParams
from raygrowth.mellin import QuadratureSpec
from raygrowth.potential import (
    HANDLES,
    Atomic,
    Perturbed,
    PowerLaw,
    SlowlyVarying,
    average_N,
    counterexample_u0,
    counting_n,
    laplacian_u0,
    parse_mass_model,
    ratio_probe,
    scaled_limit,
    u_canonical,
    u_poisson,
)

P35 = ProblemParams(3, 0.5)
PW = PowerLaw(delta=1.0, rho=0.5)


def format_mass_model(model):
    """The text parse_mass_model reads back as ``model``: every key, t0
    resolved, and atom lines in canonical spelling, atom t=<repr> mass=<repr>."""
    if isinstance(model, Atomic):
        return "".join(f"atom t={t!r} mass={m!r}\n" for t, m in model.atoms)
    kind = next(k for k, cls in potential.DENSITY_MODELS.items() if type(model) is cls)
    # str of a float is its repr, and str of a handle name is the name
    keys = (f"{f.name}={getattr(model, f.name)}" for f in fields(model) if f.init)
    return " ".join((kind, *keys)) + "\n"


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
        sv = SlowlyVarying(rho=0.5, psi="log", t0=1.0)
        r, n, rho = 50.0, 3, 0.5
        want = (n - 2) * (r**rho * (rho * math.log(r) - 1.0) + 1.0) / rho**2
        assert average_N(sv, n, r) == pytest.approx(want, rel=1e-10)

    def test_average_array_matches_scalar(self):
        # one call on an array of radii gives the scalar calls' values;
        # radii inside the support edge give 0
        sv = SlowlyVarying(rho=0.5, psi="log", t0=1.0)
        radii = np.array([0.5, 50.0, 3.0, 1e4, 3.0])
        vals, err, ok = average_N(sv, 4, radii, full_output=True)
        assert ok.all() and vals.shape == radii.shape and np.all(err >= 0)
        for r, v in zip(radii, vals):
            assert v == pytest.approx(average_N(sv, 4, float(r)), rel=1e-12)
        assert isinstance(average_N(sv, 4, 50.0), float)

    @pytest.mark.parametrize("call", [
        lambda: counting_n(PW, 3, -1.0),
        lambda: counting_n(PW, 3, np.array([2.0, -1e-300])),
        lambda: average_N(PW, 3, -1.0),
        lambda: u_canonical(PW, P35, -1.0, 0.3),
    ], ids=["counting_n", "counting_n_array", "average_N", "u_canonical"])
    def test_negative_radius_rejected(self, call):
        with pytest.raises(DomainError, match="must be >= 0"):
            call()

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

    def test_tiny_radii(self):
        # below 2^-200 t0 u is homogeneous of degree q+1 = 1 in r; at
        # r / t0 subnormal the kernel arguments would be subnormal too
        slope = u_canonical(PW, P35, 1e-300, 0.3) / 1e-300
        for r in (1e-308, 2.3e-308):
            u, _, ok = u_canonical(PW, P35, r, 0.3, full_output=True)
            assert ok and u / r == pytest.approx(slope, rel=1e-12)
        u, _, ok = u_canonical(PW, P35, 5e-324, 0.3, full_output=True)
        assert ok and math.isfinite(u)


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

    def test_tiny_radii(self):
        # below 2^-200 t0 u is homogeneous of degree 1 in r, as for
        # u_canonical; taken directly, such radii would give nan
        slope = u_poisson(PW, 3, 1e-300, 0.3) / 1e-300
        for r in (1e-308, 2.3e-308):
            u, _, ok = u_poisson(PW, 3, r, 0.3, full_output=True)
            assert ok and abs(u / r - slope) <= 4 * math.ulp(slope)
        u, _, ok = u_poisson(PW, 3, 5e-324, 0.3, full_output=True)
        assert ok and math.isfinite(u)

    def test_averaged_counting_function_once_per_node(self, monkeypatch):
        # the error estimate is a second row of the same quadrature, so N is
        # taken once at each distinct node of both rows
        points = []

        def counted(model, n, r, *args, **kwargs):
            points.append(np.size(r))
            return average_N(model, n, r, *args, **kwargs)

        monkeypatch.setattr(potential, "average_N", counted)
        _, _, ok = u_poisson(Perturbed(1.0, 0.5, "inv_log"), 4, 1e4, 0.5, full_output=True)
        # half the 1002 points of taking N at every node of each row and piece
        assert ok and 0 < sum(points) <= 501


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
        assert all(b > a for a, b in zip(res.r, res.r[1:]))
        columns = (res.r, res.u, res.scaled, res.u_over_n, res.u_over_N)
        assert [len(c) for c in columns] == [7] * 5
        assert all(type(v) is float for c in columns for v in c)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            scaled_limit(PW, P35, 0.3, (1e2, 1e6, 3))
        with pytest.raises(DomainError):
            scaled_limit(PW, P35, 0.3, np.array([1.0, 1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(DomainError, match="at least 5 points"):
            scaled_limit(PW, P35, 0.3, np.array([1e2, 1e3, 1e4, 1e5]))

    @pytest.mark.parametrize("grid", [(0.0, 1e6, 9), (1e2, 1e6, -9), (1e2, math.inf, 9), (1e2, -1.0, 9)])
    def test_grid_out_of_range(self, grid):
        with pytest.raises(DomainError, match="radial grid"):
            scaled_limit(PW, P35, 0.3, grid)

    @pytest.mark.parametrize("probe", [scaled_limit, ratio_probe])
    def test_model_order_differing_from_params(self, probe):
        # the scaling r^-rho and the genus q of the kernel come from params
        with pytest.raises(DomainError, match=r"order rho=0\.7 differs from params\.rho=0\.5"):
            probe(PowerLaw(1.0, 0.7), ProblemParams(3, 0.5), 0.3, (1e2, 1e4, 5))

    @pytest.mark.parametrize("model", [PW, Perturbed(delta=1.0, rho=0.5, eps="inv_log")])
    def test_quadrature_flags_count_radii(self, model):
        quad = QuadratureSpec(max_level=2)
        grid = np.geomspace(1e2, 1e4, 5)
        res = scaled_limit(model, P35, 1.0, grid, quad)
        flags = [u_canonical(model, P35, r, 1.0, quad, full_output=True)[2] for r in grid]
        _, _, ok_N = average_N(model, 3, grid, quad, full_output=True)
        assert res.quadrature_flags == flags.count(False) + (not ok_N.all())
        assert res.quadrature_flags > 0
        assert f"; {res.quadrature_flags} quadrature flags;" in res.diagnostics

    def test_ratio_overflow_is_refused(self):
        # u/n grows like r^(q+n-2) = r^4 and passes the double range at r = 5.6e113, while u
        # is finite up to r = 1e151; the grid that stops short of it keeps its ratios
        atoms, params = Atomic(((2.0, 1.0), (5.5, 0.25))), ProblemParams(4, 2.5)
        with pytest.raises(DomainError, match=r"the ratio u/n overflows the double range "
                                              r"at r=5\.62341e\+113"):
            scaled_limit(atoms, params, 0.3, (1e2, 1e151, 5))
        res = scaled_limit(atoms, params, 0.3, (1e2, 1e76, 5))
        assert all(map(math.isfinite, res.u_over_n + res.u_over_N))

    def test_atomic_model_takes_any_order(self):
        atoms = Atomic(((2.0, 1.0),))
        for rho in (0.5, 1.5):
            assert len(scaled_limit(atoms, ProblemParams(3, rho), 0.3, (1e2, 1e4, 5)).u) == 5


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
        # psi = ln gives u/N -> the corollary constant, but only at a 1/ln r
        # pace; fit v = A + B/ln r on the tail and compare the intercept
        sv = SlowlyVarying(rho=0.5, psi="log", t0=1.0)
        res = ratio_probe(sv, P35, 0.0, (1e4, 1e10, 7))
        xs = 1.0 / np.log(res.r)
        ys = np.array(res.u_over_N)
        slope, intercept = np.polyfit(xs, ys, 1)
        want = ratio_limits(P35, 0.0)[1]
        assert abs(intercept - want) <= 0.05 * want

    def test_sandwich_contains_limit(self):
        # ratios of the perturbed model straddle the closed-form limit
        pert = Perturbed(delta=1.0, rho=0.5, eps="inv_log")
        res = ratio_probe(pert, P35, 0.0, (1e2, 1e8, 9))
        want = ratio_limits(P35, 0.0)[0]
        lo, hi = min(res.u_over_n), max(res.u_over_n)
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


def laplacian_mpmath(rho, r, theta):
    """u_rr + 2 u_r / r + (u_tt + cot(theta) u_t) / r^2 of
    u0 = r^rho (1 + sin(ln ln r) P_rho(cos theta)), differentiated by
    mpmath at 40 digits, with mpmath's own Legendre function."""
    with mpmath.workdps(40):
        rho, r, theta = mpmath.mpf(rho), mpmath.mpf(r), mpmath.mpf(theta)
        legendre = lambda t: mpmath.legenp(rho, 0, mpmath.cos(t), type=2)
        u = lambda rr, p: rr**rho * (1 + mpmath.sin(mpmath.log(mpmath.log(rr))) * p)
        p = legendre(theta)
        u_r, u_rr = (mpmath.diff(lambda x: u(x, p), r, k) for k in (1, 2))
        u_t, u_tt = (mpmath.diff(lambda t: u(r, legendre(t)), theta, k) for k in (1, 2))
        return float(u_rr + 2 * u_r / r + (u_tt + mpmath.cot(theta) * u_t) / r**2)


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

    def test_laplacian_against_mpmath(self):
        # seeded draws, and two points next to the negative axis where the
        # angular terms cancel; the reference differentiates u0 itself
        rng = np.random.default_rng(28)
        points = [(float(rng.uniform(0.0, 1.0)), math.exp(rng.uniform(1.0, math.log(1e15))),
                   float(rng.uniform(0.0, math.pi - 1e-3))) for _ in range(25)]
        points += [(0.65, 16.54496784653659, 3.1405926535897932),
                   (0.05, 4.2716253964886475, 3.1405926535897932)]
        for rho, r, th in points:
            want = laplacian_mpmath(rho, r, th)
            p = abs(angular_shape(3, rho, th))
            ln_r = math.log(r)
            scale = r ** (rho - 2.0) * (rho * (rho + 1.0)
                                        + p * ((2.0 * rho + 1.0) / ln_r + 2.0 / ln_r**2))
            got = laplacian_u0(rho, r, th)
            assert abs(got - want) <= 1e-10 * scale, (rho, r, th)
            if abs(want) > 1e-8 * scale:
                assert math.copysign(1.0, got) == math.copysign(1.0, want), (rho, r, th)
        assert laplacian_u0(0.65, 16.54496784653659, 3.1405926535897932) == pytest.approx(
            4.2588591619e-5, rel=1e-6)
        assert laplacian_u0(0.05, 4.2716253964886475, 3.1405926535897932) == pytest.approx(
            4.3731220870e-3, rel=1e-6)


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

    @pytest.mark.parametrize("t0", [None, 20.0])
    @pytest.mark.parametrize("handle", sorted(HANDLES))
    @pytest.mark.parametrize("kind", ["perturbed delta=1.5 rho=0.5 eps", "slowlyvarying rho=0.5 psi"])
    def test_handle_roundtrip(self, kind, handle, t0):
        text = f"{kind}={handle}" + ("" if t0 is None else f" t0={t0!r}") + "\n"
        m = parse_mass_model(text)
        if t0 is not None:
            assert m.t0 == t0
        assert parse_mass_model(format_mass_model(m)) == m

    @pytest.mark.parametrize("text", [
        "atom t=nan mass=1",
        "atom t=2 mass=nan",
        "atom t=inf mass=1",
        "atom t=2 mass=inf",
        *(f"{decl} t0={bad}" for bad in ("nan", "inf") for decl in (
            "powerlaw delta=1 rho=0.5",
            "perturbed delta=1 rho=0.5 eps=inv_log",
            "slowlyvarying rho=0.5 psi=log",
        )),
        # counting function inf, -inf or negative at the support edge t0
        "perturbed delta=1 rho=0.5 eps=inv_log t0=1",
        "slowlyvarying rho=0.5 psi=loglog t0=1",
        "slowlyvarying rho=0.5 psi=inv_loglog t0=2",
    ])
    def test_non_finite_values_rejected(self, text):
        with pytest.raises(ParseError):
            parse_mass_model(text + "\n")

    def test_second_density_declaration_rejected(self):
        with pytest.raises(ParseError, match="line 2: only one density declaration"):
            parse_mass_model("powerlaw delta=1 rho=0.5\nperturbed delta=1 rho=0.5 eps=inv_log\n")

    def test_comments_and_blanks(self):
        m = parse_mass_model("# comment\n\nperturbed delta=1 rho=0.5 eps=inv_log\n")
        assert isinstance(m, Perturbed)
        assert m.t0 == math.e

    def test_numpy_reads_numbers_as_float_does(self):
        # the canonical atom lines' numbers go through one numpy conversion,
        # every other line's through float(): the two agree bit for bit
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**63 - 2**52, size=100000, dtype=np.int64).view(np.float64)
        digits = rng.integers(0, 10, size=(100000, 20))
        strs = [repr(x) for x in bits.tolist()] + [
            f"{''.join(map(str, row[:k]))}.{''.join(map(str, row[k:]))}e{e:+d}"
            for row, k, e in zip(digits.tolist(), rng.integers(1, 20, 100000).tolist(),
                                 rng.integers(-330, 310, 100000).tolist())]
        fast = np.array(strs, dtype=float)
        one_by_one = np.array([float(x) for x in strs])
        assert np.array_equal(fast.view(np.int64), one_by_one.view(np.int64))

    CANONICAL = "".join(f"atom t={t!r} mass={m!r}\n" for t, m in zip(
        np.geomspace(1.5, 1e4, 40).tolist(), np.linspace(0.5, 2.0, 40).tolist()))

    @pytest.mark.parametrize("extra", [
        "",
        "atom t=inf mass=1.0\n",
        "atom t=1e+ mass=1.0\n",
        "atom t=2.0 mass=1.0 x=1\n",
        "atom t=2.0\n",
        "powerlaw delta=1.0 rho=0.5\n",
        "atom t=1.0 mass=1.0\n",
        "atom t=-0.0 mass=1.0\natom t=0.0 mass=1.0\n",
    ], ids=["valid", "inf", "bad number", "unknown key", "missing key", "density", "t0 at 1",
            "signed zeros"])
    def test_canonical_lines_read_as_the_loop_reads_them(self, monkeypatch, extra):
        # canonical lines around comments, a tab, ATOM, swapped keys and
        # 1_000, and around the extra lines, which start at line 23
        other = ("# atoms\n\tatom t=3.5 mass=0.75\nATOM t=4.0 mass=1.0\n"
                 "atom mass=2.0 t=6.5  # swapped\natom t=1_000 mass=1\n")
        canonical = self.CANONICAL.splitlines(True)
        text = other + "".join(canonical[:17]) + extra + "".join(canonical[17:])

        def outcome():
            try:
                model = parse_mass_model(text)
            except ParseError as exc:
                return str(exc)
            return model, model.t0

        fast = outcome()
        monkeypatch.setattr(potential, "_CANONICAL_ATOM", re.compile(r"(?!)"))
        assert fast == outcome()
        if extra in ("atom t=2.0 mass=1.0 x=1\n", "atom t=2.0\n"):
            assert fast.startswith("line 23: ")

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
