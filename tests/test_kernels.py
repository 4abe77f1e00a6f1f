import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from scipy import integrate

from raygrowth.errors import (ConvergenceError, DomainError, check_integer, check_real,
                              check_scalar, scalar_or_array)
from raygrowth.indicator import (
    angular_shape,
    guarded_indicator,
    indicator_closed,
    indicator_integral,
    indicator_near_pi,
    laplace_log_kernel,
    laplace_strip,
    order_equation_rhs,
    solve_order,
    tauberian_constant,
)
from raygrowth.kernels import (
    MAX_DIMENSION,
    ProblemParams,
    check_angle,
    check_dimension,
    check_one_angle,
    h_value,
    log_kernel,
    poisson_Pn,
)
from raygrowth.mellin import (
    MellinStrip,
    QuadratureSpec,
    integrate as tanh_sinh,
    mellin_h_closed,
    mellin_ibp_numeric,
    mellin_numeric,
    tauberian_symbol,
)
from raygrowth.potential import (
    Atomic,
    Perturbed,
    PowerLaw,
    SlowlyVarying,
    average_N,
    counterexample_u0,
    counting_n,
    laplacian_u0,
    scaled_limit,
    u_canonical,
    u_poisson,
)
from raygrowth.specfun import (
    digamma,
    gamma,
    gegenbauer_terms,
    hyp2f1,
    legendre_weighted,
    rgamma,
    rising_ratio,
)

P35 = ProblemParams(3, 0.5)
PW = PowerLaw(delta=1.0, rho=0.5)


def h_n(params, u, theta1):
    """Dimensional kernel h_n(u, theta1, q): h at lam = (n-2)/2 and
    xi = cos(theta1).

    theta1 is the latitude of the observation point in [0, pi); the mass
    sits at angle pi, so the angle between the two directions is pi-theta1
    and the two sign flips (cosine of the supplement, alternating Gegenbauer
    parity) cancel into the +2 u cos(theta1) convention of h_value.
    """
    return h_value(params.lam, params.q, u, np.cos(check_angle(theta1)))


def riesz_k(lam, t, xi):
    """Riesz kernel (1 + t^2 + 2 t xi)^(-lam), the generating function of the
    Gegenbauer family with alternating sign: sum_j (-t)^j G^lam_j(xi) for
    |t| < 1."""
    base = 1.0 + t * t + 2.0 * t * xi
    if base <= 0.0:
        raise DomainError("riesz_k undefined: 1 + t^2 + 2 t xi <= 0")
    return base ** (-lam)


def weierstrass_K(params, r, t, theta1):
    """Canonical kernel K_q(x, (t, pi)) for a unit mass at radius t on the
    negative axis, observed at radius r and latitude theta1.

    Taken from its definition (fundamental solution at the law-of-cosines
    distance plus the degree-q Gegenbauer section), so the reduction
    identity K_q = t^{2-n} h_n(r/t, theta1, q) checks h_n rather than
    restating it.
    """
    cos_psi = -math.cos(theta1)  # angle between x and the negative axis
    dist2 = r * r + t * t - 2.0 * r * t * cos_psi
    if dist2 <= 0.0:
        raise DomainError("observation point coincides with the mass point")
    section = sum((r / t) ** j * g for j, g in
                  zip(range(params.q + 1), gegenbauer_terms(params.lam, cos_psi)))
    return float(-(dist2 ** (-params.lam)) + t ** (2 - params.n) * section)

# every entry point that takes the dimension, as a function of n alone
DIMENSION_ENTRIES = {
    "ProblemParams": lambda n: ProblemParams(n, 0.5),
    "poisson_Pn": lambda n: poisson_Pn(n, 1.0, 2.0, 0.3),
    "log_kernel": lambda n: log_kernel(n, 0.3, 0.5),
    "laplace_strip": lambda n: laplace_strip(n, 0.3),
    "angular_shape": lambda n: angular_shape(n, 0.5, 0.3),
    "order_equation_rhs": lambda n: order_equation_rhs(n, 0.3),
    "solve_order": lambda n: solve_order(n, 0.9),
    "counting_n": lambda n: counting_n(PW, n, 10.0),
    "average_N": lambda n: average_N(PW, n, 10.0),
}

# every entry point that takes an angle: (argument name, upper end, closed,
# function of the angle alone).  A " pair" entry passes a two-element array
# to an entry point that takes one angle: a bad value in it is named first,
# and two good ones are refused as an array.  An " array" entry passes one
# to an entry point that takes arrays: a bad value in it is named.
ANGLE_ENTRIES = {
    # h_n is the helper above; its row holds check_angle's own message
    "h_n": ("theta1", math.pi, False, lambda th: h_n(P35, 0.3, th)),
    # at pi, k is singular at t = 0 (0/0 there)
    "log_kernel": ("theta1", math.pi, False, lambda th: log_kernel(3, th, 0.5)),
    "angular_shape": ("theta", math.pi, False, lambda th: angular_shape(3, 0.5, th)),
    "angular_shape array": ("theta", math.pi, False,
                            lambda th: angular_shape(3, 0.5, np.array([0.3, th]))),
    "indicator_integral": ("theta1", math.pi, False, lambda th: indicator_integral(P35, th)),
    "guarded_indicator": ("theta1", math.pi, False, lambda th: guarded_indicator(P35, th)),
    "tauberian_constant": ("phi", math.pi, False, lambda th: tauberian_constant(P35, th)),
    "laplace_log_kernel": ("theta1", math.pi / 2, True, lambda th: laplace_log_kernel(3, th, 0.2)),
    # at pi, k ~ -(n-1) |t|^-n at t = 0: no strip exists
    "laplace_strip": ("theta1", math.pi, False, lambda th: laplace_strip(3, th)),
    "tauberian_symbol": ("phi", math.pi, False, lambda th: tauberian_symbol(P35, th, 0.5)),
    "u_canonical": ("theta1", math.pi, False, lambda th: u_canonical(PW, P35, 10.0, th)),
    "u_poisson": ("theta1", math.pi / 2, True, lambda th: u_poisson(PW, 3, 10.0, th)),
    "scaled_limit": ("theta1", math.pi, False, lambda th: scaled_limit(PW, P35, th, (1e2, 1e4, 5))),
    "counterexample_u0": ("theta1", math.pi, False, lambda th: counterexample_u0(0.5, 10.0, th)),
    "laplacian_u0": ("theta1", math.pi, False, lambda th: laplacian_u0(0.5, 10.0, th)),
    "poisson_Pn": ("theta1", math.pi, True, lambda th: poisson_Pn(3, 1.0, 2.0, th)),
    "indicator_integral array": ("theta1", math.pi, False,
                                 lambda th: indicator_integral(P35, np.array([0.3, th]))),
    "tauberian_constant pair": ("phi", math.pi, False,
                                lambda th: tauberian_constant(P35, np.array([0.3, th]))),
    "guarded_indicator pair": ("theta1", math.pi, False,
                               lambda th: guarded_indicator(P35, np.array([0.3, th]))),
    "laplace_log_kernel pair": ("theta1", math.pi / 2, True,
                                lambda th: laplace_log_kernel(3, np.array([0.3, th]), 0.2)),
    "laplace_strip pair": ("theta1", math.pi, False,
                           lambda th: laplace_strip(3, np.array([0.3, th]))),
    "tauberian_symbol pair": ("phi", math.pi, False,
                              lambda th: tauberian_symbol(P35, np.array([0.3, th]), 0.5)),
    "u_canonical pair": ("theta1", math.pi, False,
                         lambda th: u_canonical(PW, P35, 10.0, np.array([0.3, th]))),
    "u_poisson pair": ("theta1", math.pi / 2, True,
                       lambda th: u_poisson(PW, 3, 10.0, np.array([0.3, th]))),
    "scaled_limit pair": ("theta1", math.pi, False,
                          lambda th: scaled_limit(PW, P35, np.array([0.3, th]), (1e2, 1e4, 5))),
    "laplacian_u0 pair": ("theta1", math.pi, False,
                          lambda th: laplacian_u0(0.5, 10.0, np.array([0.3, th]))),
    "counterexample_u0 pair": ("theta1", math.pi, False,
                               lambda th: counterexample_u0(0.5, 10.0, [0.3, th])),
}


# every entry point that takes a radius: (argument name, lower end, which
# belongs to the interval, function of the radius alone); " pair" as for
# the angles
RADIUS_ENTRIES = {
    "counting_n": ("radius t", 0.0, lambda t: counting_n(PW, 3, t)),
    "counting_n atomic": ("radius t", 0.0, lambda t: counting_n(Atomic(((2.0, 1.0),)), 3, t)),
    "counting_n array": ("radius t", 0.0, lambda t: counting_n(PW, 3, np.array([2.0, t]))),
    "average_N": ("radius r", 0.0, lambda r: average_N(PW, 3, r)),
    "u_canonical": ("radius r", 0.0, lambda r: u_canonical(PW, P35, r, 0.3)),
    "u_poisson": ("radius r", 0.0, lambda r: u_poisson(PW, 3, r, 0.3)),
    "poisson_Pn r": ("radius r", 0.0, lambda r: poisson_Pn(3, r, 2.0, 0.3)),
    "poisson_Pn t": ("mass radius t", 0.0, lambda t: poisson_Pn(3, 1.0, t, 0.3)),
    "h_value": ("radial ratio u", 0.0, lambda u: h_value(1.5, 1, u, 0.3)),
    "h_value array": ("radial ratio u", 0.0, lambda u: h_value(1.5, 1, np.array([0.3, u]), 0.3)),
    "u_canonical array": ("radius r", 0.0, lambda r: u_canonical(PW, P35, [10.0, r], 0.3)),
    "u_poisson array": ("radius r", 0.0, lambda r: u_poisson(PW, 3, [10.0, r], 0.3)),
    "counterexample_u0": ("radius r of the counterexample", math.e,
                          lambda r: counterexample_u0(0.5, r, 0.3)),
    "laplacian_u0": ("radius r of the counterexample", math.e, lambda r: laplacian_u0(0.5, r, 0.3)),
    "laplacian_u0 inner sample": ("radius r of the counterexample", math.e,
                                  lambda r: laplacian_u0(0.5, r, 0.3)),
    "laplacian_u0 pair": ("radius r of the counterexample", math.e,
                          lambda r: laplacian_u0(0.5, np.array([10.0, r]), 0.3)),
}

# orders, kernel parameters and settings (ProblemParams' own are in
# TestProblemParams, all but its pairs): (argument name, function of the
# argument alone, values outside its interval; for a " pair", a good value
# and a bad one)
NAN, INF = math.nan, math.inf
PARAMETER_ENTRIES = {
    "angular_shape rho": ("order rho", lambda v: angular_shape(5, v, 0.3), [0.0, NAN, INF]),
    "order_equation_rhs rho": ("order rho of the order equation",
                               lambda v: order_equation_rhs(4, v), [1.0, INF]),
    "counterexample_u0 rho": ("order rho", lambda v: counterexample_u0(v, 10.0, 0.3), [1.0, NAN]),
    "PowerLaw rho": ("order rho", lambda v: PowerLaw(1.0, v), [0.0, NAN, INF]),
    "PowerLaw t0": ("support start t0", lambda v: PowerLaw(1.0, 0.5, v), [0.5, NAN, INF]),
    "h_value lam": ("kernel exponent lam", lambda v: h_value(v, 1, 0.3, 0.3), [0.0, NAN, INF]),
    "h_value q": ("subtraction degree q", lambda v: h_value(1.5, v, 0.3, 0.3), [2.5, -1, NAN, INF]),
    "mellin_h_closed lam": ("kernel exponent lam", lambda v: mellin_h_closed(v, 0, -0.5, 0.3),
                            [0.0, NAN]),
    "mellin_h_closed q": ("subtraction degree q", lambda v: mellin_h_closed(1.5, v, -0.5, 0.3),
                          [0.5, NAN, INF]),
    "mellin_ibp_numeric lam": ("kernel exponent lam",
                               lambda v: mellin_ibp_numeric(v, 0, -0.5, 0.3, QuadratureSpec()),
                               [0.0, NAN]),
    "mellin_ibp_numeric q": ("subtraction degree q",
                             lambda v: mellin_ibp_numeric(1.5, v, -0.5, 0.3, QuadratureSpec()),
                             [0.5, NAN, INF]),
    "mellin_ibp_numeric xi": ("xi = cos(theta1)",
                              lambda v: mellin_ibp_numeric(1.5, 0, -0.5, v, QuadratureSpec()),
                              [2.5, -1.5, NAN]),
    "rising_ratio m": ("number of factors m", lambda v: rising_ratio(0.5, v), [2.5, -1, NAN, INF]),
    "tauberian_symbol v": ("imaginary shift v", lambda v: tauberian_symbol(P35, 0.3, v),
                           [NAN, INF, -INF]),
    "indicator_near_pi": ("theta1 of the asymptotic form", lambda v: indicator_near_pi(P35, v),
                          [math.pi - 0.5, math.pi, NAN]),
    "solve_order delta_bar": ("delta_bar", lambda v: solve_order(3, v), [NAN, INF]),
    "laplace_log_kernel s": ("transform variable s", lambda v: laplace_log_kernel(3, 0.3, v),
                             [NAN, -INF]),
    # a good value in a two-element array is refused as an array
    "ProblemParams rho pair": ("order rho", lambda v: ProblemParams(3, np.array([0.3, v])),
                               [0.3, 0.0]),
    "ProblemParams delta pair": ("type constant delta",
                                 lambda v: ProblemParams(3, 0.5, [1.0, v]), [1.0, -1.0]),
    "ProblemParams n pair": ("dimension n", lambda v: ProblemParams([3, v], 0.5), [4, 2.5]),
    "h_value q pair": ("subtraction degree q", lambda v: h_value(1.5, np.array([1, v]), 0.3, 0.3),
                       [2, -1]),
    "rising_ratio m pair": ("number of factors m", lambda v: rising_ratio(0.5, np.array([2, v])),
                            [3, 2.5]),
    "QuadratureSpec max_level pair": ("max_level", lambda v: QuadratureSpec(max_level=[10, v]),
                                      [10, INF]),
    "angular_shape rho pair": ("order rho", lambda v: angular_shape(3, [0.3, v], 0.3),
                               [0.4, NAN]),
    "counterexample_u0 rho pair": ("order rho",
                                   lambda v: counterexample_u0(np.array([0.3, v]), 10.0, 0.3),
                                   [0.4, 1.0]),
    "laplacian_u0 rho pair": ("order rho", lambda v: laplacian_u0([0.3, v], 10.0, 0.3),
                              [0.4, INF]),
    "laplace_log_kernel s pair": ("transform variable s",
                                  lambda v: laplace_log_kernel(3, 0.3, np.array([0.1, v])),
                                  [0.2, NAN]),
    "solve_order delta_bar pair": ("delta_bar", lambda v: solve_order(3, np.array([0.9, v])),
                                   [1.0, NAN]),
    "indicator_near_pi pair": ("theta1 of the asymptotic form",
                               lambda v: indicator_near_pi(P35, np.array([3.0, v])), [3.0, NAN]),
    "tauberian_symbol v pair": ("imaginary shift v",
                                lambda v: tauberian_symbol(P35, 0.3, np.array([0.5, v])),
                                [0.5, INF]),
    "QuadratureSpec rel_tol": ("rel_tol", lambda v: QuadratureSpec(rel_tol=v), [NAN, INF]),
    "QuadratureSpec abs_tol": ("abs_tol", lambda v: QuadratureSpec(abs_tol=v), [NAN, INF]),
    "QuadratureSpec max_level": ("max_level", lambda v: QuadratureSpec(max_level=v),
                                 [2.5, NAN, INF]),
    "scaled_limit sweep_tol": ("sweep_tol",
                               lambda v: scaled_limit(PW, P35, 0.3, (1e2, 1e4, 5), sweep_tol=v),
                               [0.0, NAN, INF]),
    "scaled_limit sweep_tol pair": ("sweep_tol",
                                    lambda v: scaled_limit(PW, P35, 0.3, (1e2, 1e4, 5),
                                                           sweep_tol=np.array([0.05, v])),
                                    [0.05, 0.0]),
    "hyp2f1 x": ("2F1 argument x", lambda v: hyp2f1(0.3, 0.4, 0.5, v), [1.0, -0.3, NAN, INF]),
    "hyp2f1 a": ("special-function argument", lambda v: hyp2f1(v, 0.4, 0.5, 0.3), [NAN, INF]),
    # c - a - b = c - 0.7: -1 and -2, at a point of the series and one past x = 3/4
    "hyp2f1 c - a - b": ("2F1 c - a - b", lambda v: hyp2f1(0.3, 0.4, v, [0.3, 0.9]), [-0.3, -1.3]),
    "legendre_weighted x": ("legendre_weighted argument x",
                            lambda v: legendre_weighted(0.5, -0.5, v), [-1e-300, 1.0, NAN]),
    "legendre_weighted nu": ("special-function argument",
                             lambda v: legendre_weighted(v, -1.0, 0.3), [NAN, INF]),
    "legendre_weighted mu": ("special-function argument",
                             lambda v: legendre_weighted(0.5, v, 0.3), [NAN, -INF]),
    "gamma": ("special-function argument", gamma, [NAN, INF, -INF]),
    "rgamma": ("special-function argument", rgamma, [NAN, INF]),
    "digamma": ("special-function argument", digamma, [NAN, INF, complex(0.5, INF)]),
    "gamma pair": ("special-function argument", lambda v: gamma(np.array([0.5, v])), [0.7, NAN]),
    "rgamma pair": ("special-function argument", lambda v: rgamma(np.array([0.5, v])), [0.7, INF]),
    "digamma pair": ("special-function argument", lambda v: digamma(np.array([0.5, v])),
                     [0.7, NAN]),
    "hyp2f1 c pair": ("special-function argument",
                      lambda v: hyp2f1(0.3, 0.4, np.array([0.5, v]), 0.3), [0.7, NAN]),
    "legendre_weighted nu pair": ("special-function argument",
                                  lambda v: legendre_weighted(np.array([0.5, v]), -0.5, 0.3),
                                  [0.7, NAN]),
    "legendre_weighted mu pair": ("special-function argument",
                                  lambda v: legendre_weighted(0.5, np.array([-0.5, v]), 0.3),
                                  [-0.7, NAN]),
    # the transforms check s before the strip or the pole test reads it
    "mellin_numeric s": ("transform variable s",
                         lambda v: mellin_numeric(np.exp, v, QuadratureSpec(), MellinStrip(0.0, 5.0)),
                         [NAN, INF, complex(2.0, NAN)]),
    "mellin_numeric s pair": ("transform variable s",
                              lambda v: mellin_numeric(np.exp, np.array([2.0, v]), QuadratureSpec(),
                                                       MellinStrip(0.0, 5.0)), [3.0, NAN]),
    "mellin_h_closed s": ("transform variable s", lambda v: mellin_h_closed(1.0, 0, v, 0.3),
                          [NAN, -INF, complex(-0.5, INF)]),
    "mellin_h_closed s pair": ("transform variable s",
                               lambda v: mellin_h_closed(1.0, 0, np.array([-0.5, v]), 0.3),
                               [-0.7, NAN]),
    "mellin_h_closed xi": ("xi = cos(theta1)", lambda v: mellin_h_closed(1.0, 0, -0.5, v),
                           [1.5, -1.0, -1.5, NAN]),
    "mellin_ibp_numeric s": ("transform variable s",
                             lambda v: mellin_ibp_numeric(1.5, 0, v, 0.3, QuadratureSpec()),
                             [NAN, INF]),
    "mellin_ibp_numeric s pair": ("transform variable s",
                                  lambda v: mellin_ibp_numeric(1.5, 0, np.array([-0.5, v]), 0.3,
                                                               QuadratureSpec()), [-0.7, NAN]),
}

# complex input, which a float cast would refuse with TypeError or strip of
# its imaginary part: (argument name, call)
COMPLEX_ENTRIES = {
    "h_value u": ("radial ratio u", lambda: h_value(1.0, 0, 0.3 + 1j, 0.2)),
    "h_value u array": ("radial ratio u", lambda: h_value(1.0, 0, np.array([0.3 + 1j, 0.2]), 0.2)),
    "ProblemParams rho": ("order rho", lambda: ProblemParams(3, 0.5 + 1j)),
    "angular_shape theta": ("theta", lambda: angular_shape(3, 0.5, 1.0 + 0j)),
    "solve_order": ("delta_bar", lambda: solve_order(3, 0.8 + 0j)),
    "laplace_log_kernel s": ("transform variable s", lambda: laplace_log_kernel(3, 0.0, 0.2 + 1j)),
    "log_kernel t": ("t", lambda: log_kernel(3, 0.3, 0.2 + 1j)),
    "indicator_closed array": ("theta", lambda: indicator_closed(P35, np.array([1.0 + 0.5j, 2.0]))),
    "check_dimension": ("dimension n", lambda: check_dimension(3 + 0j)),
    "rising_ratio m": ("number of factors m", lambda: rising_ratio(0.5, 2 + 0j)),
}


def _outside(upper, closed):
    """Angles outside [0, upper) or [0, upper]: nan, just below 0, and the
    upper end itself or the next double above it."""
    return {"nan": math.nan, "below": -1e-12,
            "above": math.nextafter(upper, math.inf) if closed else upper}


class TestEnvelope:
    @pytest.mark.parametrize("n", [3, 3.0, np.int64(3), np.float64(3.0)],
                             ids=["int", "float", "int64", "float64"])
    def test_check_dimension_returns_int(self, n):
        assert check_dimension(n) == 3 and type(check_dimension(n)) is int
        assert type(ProblemParams(n, 0.5).n) is int

    @pytest.mark.parametrize("n,message", [
        (math.nan, "integer >= 3"), (math.inf, "integer >= 3"), (-math.inf, "integer >= 3"),
        (2.5, "integer >= 3"), (2, "integer >= 3"),
        (MAX_DIMENSION + 1, "overflows"), (10 ** 400, "overflows"),
    ])
    def test_check_dimension_rejects(self, n, message):
        with pytest.raises(DomainError, match=message):
            check_dimension(n)

    def test_check_dimension_bounds(self):
        assert check_dimension(MAX_DIMENSION) == MAX_DIMENSION
        assert check_dimension(2, lowest=2) == 2
        # the bound is the last n whose (n-2)! is a finite double
        assert math.isfinite(float(math.factorial(MAX_DIMENSION - 2)))
        with pytest.raises(OverflowError):
            float(math.factorial(MAX_DIMENSION - 1))

    def test_check_angle_types(self):
        assert type(check_angle(np.float64(0.5))) is float
        assert check_angle(math.pi, closed=True) == math.pi
        arr = check_angle([0.0, 1.0], name="theta")
        assert isinstance(arr, np.ndarray) and arr.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("entry", sorted(DIMENSION_ENTRIES))
    def test_integer_valued_float_dimension(self, entry):
        f = DIMENSION_ENTRIES[entry]
        assert f(3.0) == f(3) == f(np.int64(3))

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.5, MAX_DIMENSION + 1])
    @pytest.mark.parametrize("entry", sorted(DIMENSION_ENTRIES))
    def test_dimension_outside_envelope(self, entry, n):
        with pytest.raises(DomainError, match="dimension n"):
            DIMENSION_ENTRIES[entry](n)

    @pytest.mark.parametrize("where", ["nan", "below", "above"])
    @pytest.mark.parametrize("entry", sorted(ANGLE_ENTRIES))
    def test_angle_outside_envelope(self, entry, where):
        name, upper, closed, f = ANGLE_ENTRIES[entry]
        with pytest.raises(DomainError, match=rf"^{name} must lie in \[0, pi"):
            f(_outside(upper, closed)[where])

    @pytest.mark.parametrize("entry", sorted(k for k in ANGLE_ENTRIES if k.endswith(" pair")))
    def test_angle_pair_to_one_angle_entry(self, entry):
        name, _, _, f = ANGLE_ENTRIES[entry]
        with pytest.raises(DomainError, match=rf"^{name} must be one value, got an array of "
                                              rf"shape \(2,\)$"):
            f(0.3)

    @pytest.mark.parametrize("where", ["below", "nan", "inf"])
    @pytest.mark.parametrize("entry", sorted(RADIUS_ENTRIES))
    def test_radius_outside_envelope(self, entry, where):
        name, lo, f = RADIUS_ENTRIES[entry]
        r = {"below": math.nextafter(lo, -math.inf), "nan": math.nan, "inf": math.inf}[where]
        with pytest.raises(DomainError, match=rf"^{re.escape(name)} must be >= .* and finite, got"):
            f(r)

    @pytest.mark.parametrize("entry", sorted(k for k in RADIUS_ENTRIES if k.endswith(" pair")))
    def test_radius_pair_to_one_radius_entry(self, entry):
        name, _, f = RADIUS_ENTRIES[entry]
        with pytest.raises(DomainError, match=rf"^{re.escape(name)} must be one value, got an "
                                              rf"array of shape \(2,\)$"):
            f(10.0)

    @pytest.mark.parametrize("entry", sorted(PARAMETER_ENTRIES))
    def test_parameter_outside_envelope(self, entry):
        name, f, values = PARAMETER_ENTRIES[entry]
        for v in values:
            with pytest.raises(DomainError, match=rf"^{re.escape(name)} must"):
                f(v)

    def test_check_scalar(self):
        for x in (3, 3.0, np.float64(3.0), np.int64(3), np.array(3.0)):
            assert type(check_scalar(x, "x")) is float and check_scalar(x, "x") == 3.0
        assert type(check_one_angle(np.array(0.5))) is float
        for x, shape in (([0.5], r"\(1,\)"), (np.zeros((2, 1)), r"\(2, 1\)"), ([], r"\(0,\)")):
            with pytest.raises(DomainError, match=rf"^x must be one value, got an array of "
                                                  rf"shape {shape}$"):
                check_scalar(x, "x", 0.0, 1.0)
        # the values are checked first
        with pytest.raises(DomainError, match=r"^x must lie in \[0, 1\], got 2\.0$"):
            check_scalar([0.5, 2.0], "x", 0.0, 1.0)

    def test_check_real_types(self):
        for x in (3, 3.0, np.float64(3.0), np.int64(3), np.array(3.0)):
            assert type(check_real(x, "x")) is float and check_real(x, "x") == 3.0
        arr = check_real([0.0, 1.0], "x", 0.0, 1.0)
        assert isinstance(arr, np.ndarray) and arr.tolist() == [0.0, 1.0]
        assert check_real(-0.0, "x", 0.0) == 0.0
        assert check_real(math.e, "x", math.e) == math.e

    @pytest.mark.parametrize("lo,hi,closed,x,message", [
        (-INF, INF, "[]", NAN, "x must be finite, got nan"),
        (-INF, INF, "[]", [0.0, -INF, NAN], "x must be finite, got -inf"),
        (0.0, INF, "()", 0.0, "x must be positive and finite, got 0.0"),
        (0.0, INF, "[]", -1, "x must be >= 0 and finite, got -1"),
        (0.0, INF, "[]", 10 ** 400, "x must be >= 0 and finite, got 1000"),
        (math.e, INF, "()", math.e, "x must be > e and finite, got 2.718"),
        (-INF, 1.0, "()", 1.0, r"x must lie in \(-inf, 1\), got 1\.0"),
        (0.0, 1.0, "()", np.array([0.5, 1.5, -2.0]), r"x must lie in \(0, 1\), got 1\.5$"),
        (-1.0, 1.0, "[]", INF, r"x must lie in \[-1, 1\], got inf"),
        (0.0, math.pi / 2, "[]", 2.0, r"x must lie in \[0, pi/2\], got 2\.0"),
    ])
    def test_check_real_rejects(self, lo, hi, closed, x, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            check_real(x, "x", lo, hi, closed)

    @pytest.mark.parametrize("x", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_check_integer_returns_int(self, x):
        assert check_integer(x, "k", 3) == 3 and type(check_integer(x, "k", 3)) is int

    @pytest.mark.parametrize("x", [NAN, INF, -INF, 2.5, -1, -10 ** 400])
    def test_check_integer_rejects(self, x):
        with pytest.raises(DomainError, match=r"^k must be an integer >= 0, got "):
            check_integer(x, "k")

    @pytest.mark.parametrize("entry", sorted(COMPLEX_ENTRIES))
    def test_complex_input(self, entry):
        name, f = COMPLEX_ENTRIES[entry]
        with pytest.raises(DomainError, match=rf"^{re.escape(name)} must be real, got "):
            f()

    def test_laplacian_u0_lower_end(self):
        # e itself belongs to the domain, as for counterexample_u0 (the value
        # is mpmath's, at 40 digits); below it the message reports the
        # radius that was passed
        assert laplacian_u0(0.5, math.e, 0.3) == pytest.approx(0.386714188497351, rel=1e-12)
        with pytest.raises(DomainError, match=r"got 2\.7182818284590446$"):
            laplacian_u0(0.5, math.nextafter(math.e, 0.0), 0.3)


def _exp_integral(b):
    """Value and error of the integral of e^u from -1 to b."""
    res = tanh_sinh(np.exp, -1.0, b, QuadratureSpec())
    return res.value, res.error


# every function that takes a scalar or an array: (function of that argument
# alone, a valid value, the type of a scalar result).  A tuple result is
# checked part by part.
SHAPE_ENTRIES = {
    "rising_ratio": (lambda x: rising_ratio(x, 3), 0.4, float),
    "hyp2f1": (lambda x: hyp2f1(0.3, 0.4, 0.5, x), 0.3, float),
    "hyp2f1 near one": (lambda x: hyp2f1(0.3, 0.4, 0.5, x), 0.9, float),
    "hyp2f1 complex": (lambda x: hyp2f1(0.3 + 0.2j, 0.4, 0.5, x), 0.3, complex),
    "legendre_weighted": (lambda x: legendre_weighted(1.5, -0.5, x), 0.3, float),
    "legendre_weighted complex": (lambda x: legendre_weighted(1.2, 0.3 + 0.1j, x), 0.3, complex),
    # from nu + mu = 2 on, the degree recurrence, and next to x = 1 the series at nu
    "legendre_weighted recurrence": (lambda x: legendre_weighted(12.5, -1.5, x), 0.3, float),
    "legendre_weighted next to one": (lambda x: legendre_weighted(12.5, -1.5, x), 0.999, float),
    "h_value": (lambda u: h_value(1.5, 1, u, 0.3), 0.3, float),
    "h_value far": (lambda u: h_value(1.5, 1, u, 0.3), 2.0, float),
    "h_value genus 0": (lambda u: h_value(1.5, 0, u, 0.3), 0.3, float),
    "h_value genus 0 far": (lambda u: h_value(1.5, 0, u, 0.3), 2.0, float),
    "h_value genus 0 past 1e154": (lambda u: h_value(1.5, 0, u, 0.3), 1e200, float),
    "poisson_Pn": (lambda r: poisson_Pn(3, r, 2.0, 0.3), 1.0, float),
    "log_kernel": (lambda t: log_kernel(3, 0.3, t), 0.5, float),
    "integrate": (_exp_integral, 0.5, float),
    "order_equation_rhs": (lambda rho: order_equation_rhs(4, rho), 0.3, float),
    "counting_n": (lambda t: counting_n(PW, 3, t), 10.0, float),
    "counting_n atomic": (lambda t: counting_n(Atomic(((2.0, 1.0),)), 3, t), 10.0, float),
    "average_N": (lambda r: average_N(Perturbed(1.0, 0.5), 3, r, full_output=True)[:2],
                  10.0, float),
    "counterexample_u0": (lambda r: counterexample_u0(0.5, r, 0.3), 10.0, float),
    "u_canonical": (lambda r: u_canonical(PW, P35, r, 0.3, full_output=True)[:2], 10.0, float),
    "u_canonical flag": (lambda r: u_canonical(PW, P35, r, 0.3, full_output=True)[2], 10.0, bool),
    "u_canonical atomic": (lambda r: u_canonical(Atomic(((2.0, 1.0),)), P35, r, 0.3), 10.0, float),
    "u_poisson": (lambda r: u_poisson(Perturbed(1.0, 0.5), 3, r, 0.3, full_output=True)[:2],
                  10.0, float),
    "u_poisson flag": (lambda r: u_poisson(Perturbed(1.0, 0.5), 3, r, 0.3, full_output=True)[2],
                       10.0, bool),
}


def _parts(result):
    return result if isinstance(result, tuple) else (result,)


class TestShapeRule:
    """A scalar or a 0-d array in gives a Python scalar out; a list or an
    array gives an ndarray of its shape."""

    @pytest.mark.parametrize("entry", sorted(SHAPE_ENTRIES))
    def test_scalar_zero_d_and_list(self, entry):
        f, x, kind = SHAPE_ENTRIES[entry]
        for scalar, zero_d, listed in zip(*(_parts(f(v)) for v in (x, np.array(x), [x]))):
            assert type(scalar) is kind and type(zero_d) is kind
            assert isinstance(listed, np.ndarray) and listed.shape == (1,)
            assert scalar == zero_d
            assert repr(listed.item()) == repr(scalar)

    @pytest.mark.parametrize("entry", sorted(SHAPE_ENTRIES))
    def test_array_keeps_its_shape(self, entry):
        f, x, _ = SHAPE_ENTRIES[entry]
        for listed, block in zip(_parts(f([x])), _parts(f(np.full((2, 1), x)))):
            assert block.shape == (2, 1) and np.all(block == listed[0])

    @pytest.mark.parametrize("q", [0, 1])
    def test_h_value_xi_column(self, q):
        # an xi column against a row of nodes, as an array of angles meets
        # the quadrature nodes; each entry is its one-point call
        u, xi = np.array([0.0, 0.3, 2.0, 1e200]), np.array([[-0.7], [0.2], [1.0]])
        block = h_value(2.5, q, u, xi)
        assert block.shape == (3, 4)
        for (i, j), value in np.ndenumerate(block):
            assert repr(float(value)) == repr(h_value(2.5, q, float(u[j]), float(xi[i, 0])))

    def test_helper(self):
        assert type(scalar_or_array(np.float64(2.5))) is float
        assert type(scalar_or_array(np.array(2.5 + 1j))) is complex
        assert scalar_or_array([1.0, 2.0]).tolist() == [1.0, 2.0]
        assert scalar_or_array(np.zeros((2, 1))).shape == (2, 1)
        # with inputs, the shape is theirs broadcast
        assert type(scalar_or_array(np.ones(1), 2.0, np.array(3.0))) is float
        assert scalar_or_array(np.ones(2), 2.0, [1.0, 2.0]).shape == (2,)
        assert scalar_or_array(np.ones((2, 3)), [[1.0], [2.0]], np.ones(3)).shape == (2, 3)


def _hyp2f1_draw(rng, branch):
    a, b, c = (float(v) for v in (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, 4)))
    if branch == "central":
        return (a, b, c), rng.uniform(0.0, 0.75, 6)
    if branch == "nonint connection":
        return (a, b, c), rng.uniform(0.75, 0.999, 6)
    b = abs(b) + 0.1  # log case: c - a - b a non-negative integer
    return (a, b, a + b + int(rng.integers(0, 4))), rng.uniform(0.75, 0.999, 6)


class TestArrayEqualsOnePointCalls:
    """Every element of an array call is its one-point call, bit for bit:
    each point of a series stops on its own."""

    @staticmethod
    def _check(f, *points):
        whole = f(*points)
        for k in range(len(points[0])):
            assert repr(float(whole[k])) == repr(f(*(float(p[k]) for p in points)))

    @pytest.mark.parametrize("branch", ["central", "nonint connection", "log case"])
    def test_hyp2f1(self, branch):
        rng = np.random.default_rng(19)
        for _ in range(60):
            (a, b, c), x = _hyp2f1_draw(rng, branch)
            self._check(lambda x: hyp2f1(a, b, c, x), x)

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.5), (0.5, 3.0)])
    def test_h_value(self, lo, hi):
        rng = np.random.default_rng(19)
        for _ in range(60):
            lam, q = float(rng.choice([0.5, 1.0, 1.5, 2.5, 4.0, 7.5])), int(rng.integers(0, 6))
            self._check(lambda u, xi: h_value(lam, q, u, xi),
                        rng.uniform(lo, hi, 6), rng.uniform(-1.0, 1.0, 6))

    def test_angular_shape(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n, rho = int(rng.integers(3, 14)), float(rng.uniform(0.05, 12.0))
            self._check(lambda t: angular_shape(n, rho, t), rng.uniform(0.0, math.pi, 6))

    def test_closed_forms_and_kernels(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n, rho = int(rng.integers(3, 14)), float(rng.uniform(0.05, 12.0))
            nu, mu = rho + (n - 3.0) / 2.0, (3.0 - n) / 2.0
            self._check(lambda x: legendre_weighted(nu, mu, x), rng.uniform(0.0, 0.999, 6))
            self._check(lambda th: indicator_closed(ProblemParams(n, rho), th),
                        rng.uniform(0.0, 3.1, 6))

    @pytest.mark.parametrize("model", [
        PowerLaw(1.3, 0.45), Perturbed(0.8, 0.6, "log"), SlowlyVarying(1.7, "loglog"),
        Atomic(((1.5, 2.0), (3.0, 0.5), (40.0, 1.0)))], ids=lambda m: type(m).__name__)
    def test_u_canonical(self, model):
        t0 = model.t0
        radii = np.array([0.0, 5e-324, 1e-300, 0.3, 0.9 * t0, t0, 1.1 * t0, 50.0, 3e4])
        for n, theta1 in ((3, 0.3), (6, 2.0)):
            params = ProblemParams(n, getattr(model, "rho", 1.6))
            whole = u_canonical(model, params, radii, theta1, full_output=True)
            for k, r in enumerate(radii.tolist()):
                one = u_canonical(model, params, r, theta1, full_output=True)
                assert [repr(part[k].item()) for part in whole] == [repr(v) for v in one]

    @pytest.mark.parametrize("model", [
        PowerLaw(1.3, 0.45), Perturbed(0.8, 0.6, "log"), SlowlyVarying(0.7, "loglog"),
        Atomic(((1.5, 2.0), (3.0, 0.5), (40.0, 1.0)))], ids=lambda m: type(m).__name__)
    def test_u_poisson(self, model):
        t0 = model.t0
        radii = np.array([0.0, 5e-324, 1e-300, 0.3, 0.9 * t0, t0, 1.1 * t0, 50.0, 3e4])
        for n, theta1 in ((3, 0.3), (6, 1.2)):
            for quad in (QuadratureSpec(), QuadratureSpec(max_level=3)):
                whole = u_poisson(model, n, radii, theta1, quad, full_output=True)
                values = u_poisson(model, n, radii, theta1, quad)
                for k, r in enumerate(radii.tolist()):
                    one = u_poisson(model, n, r, theta1, quad, full_output=True)
                    assert [repr(part[k].item()) for part in whole] == [repr(v) for v in one]
                    assert repr(values[k].item()) == repr(u_poisson(model, n, r, theta1, quad))
                    assert repr(one[0]) == repr(values[k].item())


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
        series = sum((-t) ** j * g for j, g in zip(range(31), gegenbauer_terms(lam, xi)))
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
        C = 1.0 + sum(abs(g) for g in itertools.islice(gegenbauer_terms(lam, xi), q + 1, q + 7))
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
                        (-u) ** j * g for j, g in zip(range(q + 1), gegenbauer_terms(lam, xi))
                    )
                    assert h_value(lam, q, u, xi) == pytest.approx(direct, rel=1e-10, abs=1e-13)

    def test_truncated_tail_series_raises(self):
        # at lam = 85 and q = 1 the tail series at u = 0.49 has not converged
        # after its 400 terms; the true value is 1 - 0.49 * 170 - 1.49^-170.
        # At q = 0 there is no series: see TestGenusZeroKernel
        with pytest.raises(ConvergenceError, match="did not converge within 400 terms"):
            h_value(85.0, 1, 0.49, 1.0)
        with pytest.raises(ConvergenceError):
            h_value(85.0, 1, np.array([0.1, 0.49]), 1.0)

    def test_riesz_term_past_the_square_root_of_the_double_range(self):
        # from u ~ 1.3e154 on, 1 + u^2 + 2 u xi overflows (and at xi < 0 and
        # u ~ 1e308 it was inf - inf = nan); the Riesz term there is
        # u^(-2 lam) (1 + 2 xi/u + 1/u^2)^(-lam), with no numpy warning
        assert h_value(0.5, 0, 1e200, 0.3) == 1.0
        u = np.array([1e100, 1e154, 1e155, 1e300, 1e308])
        assert h_value(0.5, 0, u, -1.0).tolist() == [1.0] * 5
        assert h_value(1.5, 0, u, 0.7).tolist() == [1.0] * 5
        # at a small exponent the term is far from 0: 1e-4 at lam = 0.01
        assert h_value(0.01, 0, 1e200, 0.3) == pytest.approx(1.0 - 1e-4, rel=1e-15)

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


def _h_genus0_mpmath(lam, u, xi):
    """1 - (1 + u^2 + 2 u xi)^(-lam) at the given doubles, as the defining
    difference, with enough digits that 1 + u^2 keeps u down to 1e-300."""
    with mpmath.workdps(650):
        u, xi, lam = mpmath.mpf(u), mpmath.mpf(xi), mpmath.mpf(lam)
        base = 1 + u * u + 2 * u * xi
        return float(1 - base ** (-lam)), float(abs(lam * mpmath.log(base)))


class TestGenusZeroKernel:
    """At q = 0, h = -expm1(-lam log1p(u (2 xi + u))) at every u."""

    def test_against_mpmath(self):
        # n from 3 to MAX_DIMENSION, u log-uniform over the whole double range
        # and over [1e-3, 1e3], xi in [-1, 1] with both ends among the draws;
        # the bound grows with lam ln(1 + u^2 + 2 u xi), the condition number
        # of the power where it is large
        rng = np.random.default_rng(34)
        worst = 0.0
        for k in range(400):
            lam = 0.5 * (int(rng.integers(3, MAX_DIMENSION + 1)) - 2)
            u = float(10.0 ** rng.uniform(*((-300, 300) if k % 2 else (-3, 3))))
            xi = float(rng.choice([-1.0, 1.0])) if k % 10 == 0 else float(rng.uniform(-1.0, 1.0))
            want, cond = _h_genus0_mpmath(lam, u, xi)
            got = h_value(lam, 0, u, xi)
            worst = max(worst, abs(got - want) / (abs(want) * max(1.0, cond)))
        assert worst <= 1e-14

    def test_array_against_mpmath(self):
        # one array call, u = 0 and 1e-300 among the nodes; u = 1 is left
        # out at xi = -1, the singular point, where 1 + u^2 + 2 u xi is 1e-6
        # at u = 0.999 (past lam = 51 h overflows there)
        for lam in (0.5, 7.5, 42.0):
            for xi in (-1.0, -0.3, 0.0, 0.999, 1.0):
                u = [0.0, 1e-300, 1e-8, 0.49, 0.5, 0.999, 1.0, 3.0, 1e154, 1e300]
                u = np.array([v for v in u if xi > -1.0 or v != 1.0])
                got = h_value(lam, 0, u, xi)
                assert got[0] == 0.0 and math.copysign(1.0, got[0]) == 1.0
                for k in range(1, len(u)):
                    want, cond = _h_genus0_mpmath(lam, u[k], xi)
                    assert got[k] == pytest.approx(want, rel=1e-14 * max(1.0, cond), abs=0)

    def test_singular_point(self):
        message = re.escape("kernel singular: 1 + u^2 + 2 u xi <= 0 (u=1, xi=-1)")
        with pytest.raises(DomainError, match=message):
            h_value(1.0, 0, 1.0, -1.0)
        with pytest.raises(DomainError, match=message):
            h_value(1.0, 0, np.array([0.3, 1.0]), -1.0)

    def test_small_angle_at_large_dimension(self):
        # xi = 1 and u just below 1/2, where a Gegenbauer tail series of h
        # loses its digits at large lam; the true values are 1 - 1.49^(-2 lam)
        assert h_value(30.0, 0, 0.49, 1.0) == pytest.approx(1.0 - 1.49 ** -60, rel=1e-15)
        assert h_value(85.0, 0, 0.49, 1.0) == pytest.approx(1.0 - 1.49 ** -170, rel=1e-15)


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

    def test_observation_on_the_mass_point(self):
        # cos(pi - 1e-9) rounds to -1, so x = (2, pi - 1e-9) is the mass point
        with pytest.raises(DomainError, match="coincides with the mass point"):
            weierstrass_K(ProblemParams(3, 0.5), 2.0, 2.0, math.pi - 1e-9)

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
        for t in (700.0, -700.0):
            k = log_kernel(4, 0.3, t)
            assert np.isfinite(k) and k >= 0.0

    def test_zero_at_infinite_t(self):
        # t = +-inf is admitted, though check_real refuses it elsewhere
        assert log_kernel(4, 0.3, [-math.inf, math.inf]).tolist() == [0.0, 0.0]


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
