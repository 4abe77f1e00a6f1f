"""Directional growth indicator and its derived quantities.

The indicator H(theta1) of a potential of order rho with mass on the
negative axis, in closed form (Legendre function on the cut) and in
integral form (quadrature of the subtracted kernel); endpoint asymptotics
at theta1 -> pi; the exceptional zero set of the angular factor; the
growth-transfer constant and angle-to-angle transfer; the mass-ratio
limits; the transcendental order equation; and the two-sided Laplace
transform of the log-substituted kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import elementwise

from .errors import (
    ConvergenceError,
    CountMismatchError,
    DomainError,
    ExceptionalAngleError,
    OutOfRangeError,
    StripViolationError,
)
from .kernels import ProblemParams, h_value, log_kernel_signed_ln
from .mellin import MellinResult, MellinStrip, QuadratureSpec, integrate, mellin_numeric
from .specfun import EULER_GAMMA, digamma, gamma, hyp2f1, rgamma

NEG_INFINITY = float("-inf")

# scan step (radians) for root bracketing and the guard band around each root
ROOT_SCAN_RESOLUTION = 1e-3
ROOT_BRACKET_WIDTH = 1e-6

# ends of the open interval (0, 1) on which the order equation is solved
_ORDER_EDGE = 1e-9


# stopping tolerances of every root refinement: bracket width below
# 1e-15 + 4 eps |x|, or an exact zero
_ROOT_TOLERANCES = {"xatol": 1e-15, "xrtol": 4 * np.finfo(float).eps, "fatol": 0.0}


def _refine_roots(f, a, b):
    """Roots of the elementwise function f in the sign-change brackets
    [a, b] (arrays, or scalars for one root), all refined together by
    Chandrupatla's method: each iteration makes one call of f on the array
    of roots still open.
    """
    res = elementwise.find_root(f, (a, b), tolerances=_ROOT_TOLERANCES)
    if not np.all(res.success):
        raise ConvergenceError(f"root refinement failed with status {np.unique(res.status)}")
    return res.x


@dataclass(frozen=True)
class ZeroSet:
    """Exceptional angles: zeros of the indicator's angular factor in (0, pi).

    Exactly floor(rho)+1 of them; each was bracketed by a sign change of
    the angular factor and refined by Chandrupatla's method to full double
    precision in theta.  bracket_width is the guard radius used when an
    operation must refuse angles that sit on a root.
    """

    n: int
    rho: float
    roots: tuple
    bracket_width: float = ROOT_BRACKET_WIDTH

    def nearest_distance(self, angle: float) -> float:
        return min(abs(angle - b) for b in self.roots) if self.roots else math.inf

    def contains(self, angle: float) -> bool:
        return self.nearest_distance(angle) <= self.bracket_width


@dataclass(frozen=True)
class IndicatorValue:
    """Indicator sample tagged with how it was produced.

    value is -inf (an explicit sentinel, never used in arithmetic) at
    theta1 = pi, where the indicator diverges.
    """

    value: float
    theta1: float
    source: str  # closed_form | integral_form | asymptotic


def angular_shape(n, rho, theta):
    """Latitude factor S(theta) = (sin theta)^mu P^mu_nu(cos theta) with
    mu = (3-n)/2 and nu = rho + (n-3)/2, in a form stable on all of [0, pi).

    The sine power and the Legendre prefactor cancel analytically:

        S(theta) = (1 + cos theta)^mu / Gamma(1-mu)
                   * 2F1(-nu, nu+1; 1-mu; sin^2(theta/2)),

    so the axis value S(0) = 2^mu / Gamma(1-mu) comes out exactly instead of
    as a 0 * inf limit.  n = 2 is allowed here (mu = 1/2), which reduces S
    to sqrt(2/pi) cos(rho theta) and is used as a plane-case cross-check.
    """
    if n < 2 or int(n) != n:
        raise DomainError(f"dimension n must be an integer >= 2, got {n}")
    theta_arr = np.asarray(theta, dtype=float)
    scalar = theta_arr.ndim == 0
    theta_arr = np.atleast_1d(theta_arr)
    if np.any(theta_arr < 0.0) or np.any(theta_arr >= np.pi):
        raise DomainError("theta must lie in [0, pi)")
    mu = (3.0 - n) / 2.0
    nu = rho + (n - 3.0) / 2.0
    half = 0.5 * theta_arr
    x = np.sin(half) ** 2
    f = hyp2f1(-nu, nu + 1.0, 1.0 - mu, x)
    out = rgamma(1.0 - mu) * (1.0 + np.cos(theta_arr)) ** mu * f
    return float(out[0]) if scalar else out


def _indicator_coefficient(params: ProblemParams) -> float:
    n, rho = params.n, params.rho
    prod = 1.0
    for k in range(1, n - 1):
        prod *= rho + k
    return (
        math.pi * 2.0 ** ((n - 3.0) / 2.0) * gamma((n - 1.0) / 2.0) * prod * params.delta
        / (math.factorial(n - 3) * math.sin(math.pi * rho))
    )


def indicator_closed(params: ProblemParams, theta1):
    """Indicator H(theta1) in closed form.

    H = pi 2^{(n-3)/2} Gamma((n-1)/2) prod_{k=1}^{n-2}(rho+k) Delta
        / ((n-3)! sin(pi rho)) * S(theta1)

    with S the stable latitude factor.  Defined on [0, pi); the value
    diverges to -inf as theta1 -> pi (use indicator_near_pi there, or the
    -inf sentinel of IndicatorValue at the endpoint itself).  Accepts a
    scalar or an array of angles.
    """
    return _indicator_coefficient(params) * angular_shape(params.n, params.rho, theta1)


def indicator_integral(params: ProblemParams, theta1, quad: QuadratureSpec | None = None,
                       full_output: bool = False):
    """Indicator via the kernel integral (rho+n-2) Delta
    int_0^inf s^{-rho-1} h_n(s, theta1, q) ds.

    This is the independent oracle for :func:`indicator_closed`: it never
    touches the Legendre machinery.  Returns the value, or (value, result)
    with the quadrature error estimate and convergence flag when
    ``full_output`` is set.
    """
    theta1 = float(theta1)
    if not (0.0 <= theta1 < math.pi):
        raise DomainError(f"theta1 must lie in [0, pi), got {theta1}")
    if quad is None:
        quad = QuadratureSpec()
    lam, q = params.lam, params.q
    xi = math.cos(theta1) if theta1 > 0.0 else 1.0
    res = mellin_numeric(
        lambda u: h_value(lam, q, u, xi),
        -params.rho,
        quad,
        MellinStrip.principal_for_h(q),
    )
    value = (params.rho + params.n - 2.0) * params.delta * complex(res.value).real
    if full_output:
        scaled = MellinResult(
            value=value,
            error=(params.rho + params.n - 2.0) * params.delta * res.error,
            converged=res.converged,
            message=res.message,
        )
        return value, scaled
    return value


def indicator_near_pi(params: ProblemParams, theta1):
    """Endpoint asymptotics of the indicator as theta1 increases to pi.

    For n >= 4 the blow-up is algebraic:

        H ~ -(rho+n-2) Gamma((n-3)/2)^2 Delta / (2 (n-4)!)
            * (cos(theta1/2))^-(n-3),

    for n = 3 logarithmic:

        H ~ (rho+1) Delta [2 ln cos(theta1/2) + 2 gamma_E + 2 psi(-rho)
                           - pi cot(pi rho)].

    The n = 3 constant carries 2 gamma_E; the closed form confirms this
    numerically to the size of the neglected O((1+cos) ln) term.  Valid on
    the approach window theta1 in (pi - 1/2, pi).
    """
    theta1 = float(theta1)
    if not (math.pi - 0.5 < theta1 < math.pi):
        raise DomainError(f"asymptotic form is for theta1 in (pi-0.5, pi), got {theta1}")
    n, rho, delta = params.n, params.rho, params.delta
    if n == 3:
        return (rho + 1.0) * delta * (
            2.0 * math.log(math.cos(0.5 * theta1))
            + 2.0 * EULER_GAMMA
            + 2.0 * digamma(-rho)
            - math.pi / math.tan(math.pi * rho)
        )
    return (
        -(rho + n - 2.0) * gamma((n - 3.0) / 2.0) ** 2 * delta / (2.0 * math.factorial(n - 4))
        * math.cos(0.5 * theta1) ** (3.0 - n)
    )


def indicator_value(params: ProblemParams, theta1, quad: QuadratureSpec | None = None,
                    source: str = "closed_form") -> IndicatorValue:
    """Tagged indicator sample; theta1 = pi yields the -inf sentinel."""
    theta1 = float(theta1)
    if theta1 == math.pi:
        return IndicatorValue(value=NEG_INFINITY, theta1=theta1, source="asymptotic")
    if source == "closed_form":
        v = indicator_closed(params, theta1)
    elif source == "integral_form":
        v = indicator_integral(params, theta1, quad)
    elif source == "asymptotic":
        v = indicator_near_pi(params, theta1)
    else:
        raise DomainError(f"unknown indicator source {source!r}")
    return IndicatorValue(value=float(v), theta1=theta1, source=source)


@lru_cache(maxsize=128)
def _cached_roots(n: int, rho: float, resolution: float) -> tuple:
    lo = resolution
    hi = math.pi - resolution
    count = int(math.ceil((hi - lo) / resolution)) + 1
    grid = np.linspace(lo, hi, count)
    vals = angular_shape(n, rho, grid)
    sgn = np.sign(vals)
    left = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    roots = _refine_roots(lambda t: angular_shape(n, rho, t), grid[left], grid[left + 1]).tolist()
    # exact zeros on grid nodes would be missed by the strict sign test
    roots.extend(float(grid[i]) for i in np.nonzero(vals == 0.0)[0])
    return tuple(sorted(roots))


def zero_set(params: ProblemParams, resolution: float = ROOT_SCAN_RESOLUTION,
             bracket_width: float = ROOT_BRACKET_WIDTH) -> ZeroSet:
    """All zeros of the indicator's angular factor in (0, pi).

    A vectorized sign scan of the angular factor at the given resolution
    brackets each root; one bracketed solve (Chandrupatla's method, one
    array evaluation of the factor per iteration) refines all of them
    together to full double precision (a scan node where the factor is
    exactly zero is a root as it stands).
    The count must equal floor(rho)+1; a different count raises
    :class:`CountMismatchError` (that would mean either a special-function
    defect or a genuine violation of the zero-count law, and is surfaced
    rather than repaired).
    """
    roots = _cached_roots(params.n, params.rho, float(resolution))
    expected = params.q + 1
    if len(roots) != expected:
        raise CountMismatchError(
            f"found {len(roots)} angular roots for n={params.n}, rho={params.rho}; "
            f"expected floor(rho)+1 = {expected}"
        )
    return ZeroSet(n=params.n, rho=params.rho, roots=roots, bracket_width=bracket_width)


def tauberian_constant(params: ProblemParams, phi, bracket_width: float = ROOT_BRACKET_WIDTH):
    """Growth-transfer constant M(g; 0) for a non-exceptional direction phi.

    As printed:

        M(g;0) = 2^{(n-3)/2} Gamma((n-2)/2) sin(pi rho) (sin phi)^{(n-3)/2}
                 / (pi^{3/2} prod_{k=1}^{n-3}(rho+k)
                    P^{(3-n)/2}_{rho+(n-3)/2}(cos phi)).

    Composing this constant with the closed-form indicator yields
    (rho+n-2) Delta rather than Delta -- see :func:`tauberian_audit`, which
    reports exactly that product so the discrepancy stays visible.  Raises
    :class:`ExceptionalAngleError` when phi is within ``bracket_width`` of a
    root of the angular factor (there the constant is infinite and the
    transfer genuinely fails).
    """
    phi = float(phi)
    if not (0.0 <= phi < math.pi):
        raise DomainError(f"phi must lie in [0, pi), got {phi}")
    zset = zero_set(params, bracket_width=bracket_width)
    if zset.contains(phi):
        raise ExceptionalAngleError(
            f"phi={phi} is within {bracket_width} rad of an exceptional root "
            f"(roots: {', '.join(f'{b:.6f}' for b in zset.roots)})"
        )
    n, rho = params.n, params.rho
    prod = 1.0
    for k in range(1, n - 2):
        prod *= rho + k
    shape = angular_shape(n, rho, phi)
    return (
        2.0 ** ((n - 3.0) / 2.0) * gamma((n - 2.0) / 2.0) * math.sin(math.pi * rho)
        / (math.pi ** 1.5 * prod * shape)
    )


def tauberian_audit(params: ProblemParams, phi) -> float:
    """Product M(g;0) * H(phi) / Delta.

    The printed constant and the printed indicator compose to (rho + n - 2),
    not 1; the integral oracle pins the indicator as correct, so the factor
    sits in the printed constant.  This audit value must be independent of
    phi; tests assert it is constant to 1e-9 across angles.
    """
    unit = replace(params, delta=1.0)
    return tauberian_constant(params, phi) * indicator_closed(unit, phi)


def transfer_indicator(params: ProblemParams, phi, H_phi, theta1,
                       bracket_width: float = ROOT_BRACKET_WIDTH):
    """Transfer an indicator value from direction phi to direction theta1.

        H(theta1) = (sin phi / sin theta1)^{(n-3)/2}
                    * P(cos theta1) / P(cos phi) * H(phi)
                  = S(theta1) / S(phi) * H(phi),

    evaluated through the stable latitude factor so the axis theta1 = 0 (or
    phi = 0) is an ordinary point.  phi must stay away from the exceptional
    roots (division by S(phi)); a target theta1 on a root simply receives 0.
    """
    phi = float(phi)
    theta1 = float(theta1)
    if not (0.0 <= phi < math.pi) or not (0.0 <= theta1 < math.pi):
        raise DomainError("phi and theta1 must lie in [0, pi)")
    zset = zero_set(params, bracket_width=bracket_width)
    if zset.contains(phi):
        raise ExceptionalAngleError(f"source angle phi={phi} is exceptional")
    return H_phi * angular_shape(params.n, params.rho, theta1) / angular_shape(
        params.n, params.rho, phi
    )


def ratio_limits(params: ProblemParams, theta1):
    """Limits of u/n(r) and u/N(r) along the direction theta1.

    Both printed products are evaluated independently:

        lim u/n = pi 2^{(n-3)/2} Gamma((n-1)/2) prod_{k=1}^{n-2}(rho+k)
                  / ((n-3)! sin(pi rho)) * S(theta1)
        lim u/N = pi 2^{(n-3)/2} Gamma((n-1)/2) prod_{k=0}^{n-2}(rho+k)
                  / ((n-2)! sin(pi rho)) * S(theta1)

    so their quotient reproduces rho/(n-2) only through the actual
    arithmetic.  Both vanish at the exceptional angles.
    """
    n, rho = params.n, params.rho
    shape = angular_shape(n, rho, theta1)
    base = math.pi * 2.0 ** ((n - 3.0) / 2.0) * gamma((n - 1.0) / 2.0) / math.sin(math.pi * rho)
    prod_n = 1.0
    for k in range(1, n - 1):
        prod_n *= rho + k
    prod_N = rho * prod_n  # k = 0 factor times the same tail
    u_over_n = base * prod_n / math.factorial(n - 3) * shape
    u_over_N = base * prod_N / math.factorial(n - 2) * shape
    return u_over_n, u_over_N


def order_equation_rhs(n: int, rho: float) -> float:
    """Right side of the transcendental order equation, as printed

        Gamma(n-1-rho) / ((n-2)! Gamma(1-rho)) * pi rho / sin(pi rho),

    evaluated through the reflection formula as the product
    Gamma(n-1-rho) Gamma(1+rho) / (n-2)!, which keeps full precision
    next to rho = 1 where sin(pi rho) cancels.  Defined for 0 < rho < 1.
    """
    if n < 3 or int(n) != n:
        raise DomainError(f"dimension n must be an integer >= 3, got {n}")
    if not (0.0 < rho < 1.0):
        raise DomainError(f"order equation is stated for rho in (0, 1), got {rho}")
    return gamma(n - 1.0 - rho) * gamma(1.0 + rho) / math.factorial(n - 2)


def _order_branch_end(n: int) -> float:
    # for n >= 4 the right side is strictly decreasing on all of (0, 1); for
    # n = 3 it is symmetric about its minimum at rho = 1/2, and the
    # decreasing half is the branch that solve_order inverts
    return 0.5 if n == 3 else 1.0 - _ORDER_EDGE


def order_equation_range(n: int) -> tuple:
    """Attained interval (lo, hi) of the order equation's right side on
    [1e-9, 1 - 1e-9], read off its shape: hi at the left end, lo at
    rho = 1/2 for n = 3 and at the right end for n >= 4.
    """
    return (order_equation_rhs(n, _order_branch_end(n)),
            order_equation_rhs(n, _ORDER_EDGE))


def solve_order(n: int, delta_bar: float) -> float:
    """Invert the order equation: find rho in (0, 1) with RHS(rho) = delta_bar.

    For n >= 4 the right side is strictly decreasing on (0, 1) and the root
    is unique; for n = 3 it is symmetric about rho = 1/2 (minimum pi/4
    there), so off-minimum targets have two preimages -- the smaller one is
    returned, deterministically.  The root is refined by Chandrupatla's
    method on the decreasing branch, [1e-9, 1 - 1e-9] for n >= 4 and
    [1e-9, 1/2] for n = 3; a target up to 1e-9 below the n = 3 minimum is
    accepted as the tangency rho = 1/2.  Raises :class:`OutOfRangeError` (carrying the
    interval from :func:`order_equation_range`) when delta_bar is outside
    the range of the right side.
    """
    if not np.isfinite(delta_bar):
        raise DomainError(f"delta_bar must be finite, got {delta_bar}")
    lo, hi = order_equation_range(n)
    if not (lo <= delta_bar <= hi):
        if n == 3 and 0.0 < lo - delta_bar < 1e-9:
            return 0.5
        raise OutOfRangeError(
            f"delta_bar={delta_bar} is outside the attainable range "
            f"[{lo:.12g}, {hi:.12g}] of the order equation for n={n}",
            lo=lo,
            hi=hi,
        )
    # find_root passes arrays; the right side takes one rho at a time
    rhs = np.vectorize(order_equation_rhs, otypes=[float])
    return float(_refine_roots(lambda rho: rhs(n, rho) - delta_bar, _ORDER_EDGE, _order_branch_end(n)))


def laplace_strip(n: int, theta1: float) -> MellinStrip:
    """Numerically determined existence strip of the log-kernel transform.

    The decay exponents of k at +/- infinity are measured from log-slope
    samples rather than trusted from any printed value; the transform
    exists for -rate(+inf) < s < rate(-inf).  For 0 <= theta1 < pi/2 this
    comes out as (-1, n-1); at theta1 = pi/2 the cosine term dies and the
    strip widens to (-2, n).
    """
    # T large enough for asymptopia, small enough that float roundoff in
    # cos(theta1) cannot yet contaminate the tail
    T = 25.0
    _, ln_a = log_kernel_signed_ln(n, theta1, T - 2.0)
    _, ln_b = log_kernel_signed_ln(n, theta1, T)
    rate_plus = 0.5 * (ln_a - ln_b)
    _, ln_c = log_kernel_signed_ln(n, theta1, -T + 2.0)
    _, ln_d = log_kernel_signed_ln(n, theta1, -T)
    rate_minus = 0.5 * (ln_c - ln_d)
    return MellinStrip(-round(rate_plus, 8), round(rate_minus, 8))


def laplace_log_kernel(n: int, theta1: float, s: float, quad: QuadratureSpec | None = None,
                       full_output: bool = False):
    """Two-sided Laplace transform int e^{-s t} k(t) dt of the log kernel.

    For theta1 = 0 the closed value is Gamma(n-1-s) Gamma(1+s) / (n-2)!.
    The integrand is assembled in log space, so no overflow occurs near the
    strip edges.  Raises :class:`StripViolationError` outside the
    numerically determined existence strip.
    """
    theta1 = float(theta1)
    if not (0.0 <= theta1 <= math.pi / 2):
        raise DomainError(f"theta1 must lie in [0, pi/2], got {theta1}")
    if quad is None:
        quad = QuadratureSpec()
    strip = laplace_strip(n, theta1)
    if not strip.contains(s):
        raise StripViolationError(
            f"s={s} outside the existence strip ({strip.lower}, {strip.upper}) "
            f"for n={n}, theta1={theta1}"
        )

    def f(t):
        sign, ln_abs = log_kernel_signed_ln(n, theta1, t)
        return sign * np.exp(-s * t + ln_abs)

    # the two half-lines side by side in one call
    res = integrate(f, np.array([-np.inf, 0.0]), np.array([0.0, np.inf]), quad)
    total = float(np.sum(res.value))
    err = float(np.sum(res.error))
    converged = res.converged and err <= 10.0 * max(quad.abs_tol, quad.rel_tol * abs(total))
    if full_output:
        return total, MellinResult(value=total, error=err, converged=converged, message=res.message)
    return total
