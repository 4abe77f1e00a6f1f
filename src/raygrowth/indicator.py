"""Directional growth indicator and its derived quantities.

The indicator H(theta1) of a potential of order rho with mass on the
negative axis, in closed form (Legendre function on the cut) and in
integral form (quadrature of the subtracted kernel); endpoint asymptotics
at theta1 -> pi; the exceptional zero set of the angular factor; the
growth-transfer constant and its audit; the mass-ratio limits; the
transcendental order equation; and the two-sided Laplace transform of the
log-substituted kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    CountMismatchError,
    DomainError,
    ExceptionalAngleError,
    OutOfRangeError,
    check_real,
    check_scalar,
    scalar_or_array,
)
from .kernels import (ProblemParams, check_angle, check_dimension, check_one_angle, h_value,
                      log_kernel)
from .mellin import MellinStrip, QuadratureSpec, mellin_numeric
from .specfun import EULER_GAMMA, digamma, gamma, legendre_weighted, rising_ratio

# scan step (radians) for root bracketing and the guard band around each root
ROOT_SCAN_RESOLUTION = 1e-3
ROOT_BRACKET_WIDTH = 1e-6

# ends of the open interval (0, 1) on which the order equation is solved
_ORDER_EDGE = 1e-9


# stopping tolerances of every root refinement: bracket width below
# 1e-15 + 4 eps |x|, or an exact zero
_ROOT_TOLERANCES = {"xatol": 1e-15, "xrtol": 4 * np.finfo(float).eps, "fatol": 0.0}

# iteration cap, log2 of the largest over the smallest normal double: enough
# bisections to close any finite bracket
_ROOT_MAXITER = 2046


def _refine_roots(f, a, b, ends, full_output: bool = False):
    """Roots of the elementwise function f in the sign-change brackets
    [a, b] (arrays, or scalars for one root), given ``ends``, f at a and at
    b; with ``full_output``, (roots, f at the roots), the values the
    refinement ended on.  Chandrupatla's method (Adv. Eng. Softw. 28 (1997)
    145) refines all at once, one call of f per iteration on the brackets
    still open, and follows ``scipy.optimize.elementwise.find_root`` at
    ``_ROOT_TOLERANCES`` step for step, so the roots agree with it bit for
    bit.  A bracket with no sign change (status -1), at the iteration cap
    (-2), or with a non-finite end or nan at both ends (-3) raises
    :class:`ConvergenceError`.
    """
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    x1, x2 = (v.flatten() for v in np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float)))
    f1, f2 = (np.broadcast_to(np.asarray(v, dtype=float), x1.shape) for v in ends)
    xatol, xrtol, fatol = (_ROOT_TOLERANCES[k] for k in ("xatol", "xrtol", "fatol"))
    x, fx, status = np.full(x1.size, np.nan), np.full(x1.size, np.nan), np.full(x1.size, -2)
    open_ = np.arange(x1.size)
    x3, f3 = x2, f2  # the third point; first read after the first step
    nit = 0
    while True:
        # termination, in order: an exact zero, no sign change, non-finite
        # values, then a bracket narrower than the tolerance at its better end
        better = np.abs(f1) < np.abs(f2)
        xmin, fmin = np.where(better, x1, x2), np.where(better, f1, f2)
        code = np.where(np.abs(fmin) <= fatol, 0, 1)
        code[(code == 1) & (np.sign(f1) == np.sign(f2))] = -1
        bad = ~(np.isfinite(x1) & np.isfinite(x2)) | (np.isnan(f1) & np.isnan(f2))
        code[(code == 1) & bad] = -3
        dx, tol = np.abs(x2 - x1), np.abs(xmin) * xrtol + xatol
        code[(code == 1) & (dx < tol)] = 0
        done = code != 1
        if done.any():
            x[open_[done]], fx[open_[done]], status[open_[done]] = xmin[done], fmin[done], code[done]
            keep = ~done
            open_, x1, f1, x2, f2, x3, f3, dx, tol = (
                v[keep] for v in (open_, x1, f1, x2, f2, x3, f3, dx, tol))
        if not open_.size or nit == _ROOT_MAXITER:
            break
        t = np.full(x1.size, 0.5)
        if nit:
            # inverse quadratic interpolation through the last three points
            # where it is safe, bisection elsewhere, kept off the bracket ends
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                j = ((1 - np.sqrt(1 - xi)) < phi) & (phi < np.sqrt(xi))
            f1j, f2j, f3j = f1[j], f2[j], f3[j]
            t[j] = (f1j / (f1j - f2j) * f3j / (f3j - f2j)
                    - alpha[j] * f1j / (f3j - f1j) * f2j / (f2j - f3j))
            t = np.clip(t, 0.5 * tol / dx, 1 - 0.5 * tol / dx)
        xt = x1 + t * (x2 - x1)
        ft = np.asarray(f(xt), dtype=float)
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        nit += 1
    if np.any(status):
        raise ConvergenceError(f"root refinement failed with status {np.unique(status)}")
    x, fx = (v.reshape(shape)[()] for v in (x, fx))
    return (x, fx) if full_output else x


@dataclass(frozen=True)
class ZeroSet:
    """Exceptional angles: zeros of the indicator's angular factor in (0, pi).

    Exactly floor(rho)+1 of them; each was bracketed by a sign change of
    the angular factor and refined by Chandrupatla's method to full double
    precision in theta.  ``residuals`` holds |S| at each root, in the same
    order: the value the refinement ended on, which is the root's own
    one-angle value.
    """

    roots: tuple
    residuals: tuple


def angular_shape(n, rho, theta):
    """Latitude factor S(theta) = (sin theta)^mu P^mu_nu(cos theta) with
    mu = (3-n)/2 and nu = rho + (n-3)/2, in a form stable on all of [0, pi).

    This is :func:`~raygrowth.specfun.legendre_weighted` at
    x = sin^2(theta/2), where the sine power and the Legendre prefactor
    cancel analytically:

        S(theta) = (1 + cos theta)^mu / Gamma(1-mu)
                   * 2F1(-nu, nu+1; 1-mu; sin^2(theta/2)),

    so the axis value S(0) = 2^mu / Gamma(1-mu) comes out without a 0 * inf
    limit.  n = 2 is allowed here (mu = 1/2), which reduces S to
    sqrt(2/pi) cos(rho theta) and is used as a plane-case cross-check.

    From rho = 3 on, the 2F1 series at degree nu would cancel (its terms
    grow to about nu^(2k) / (k!)^2), so S is summed at the degrees
    nu - floor(rho) and nu - floor(rho) + 1 only, in one array call, and
    raised to nu by the three-term recurrence in the degree
    (DLMF 14.10.3); next to pi, where that recurrence loses digits, S is
    summed at nu itself, which there takes few terms.  An integer degree is
    summed in cos^2(theta/2) next to pi, where its polynomial in
    sin^2(theta/2) cancels.  For n <= 10 and rho <= 40 S is within 1e-12 of
    the largest |S| on [0.05, 3], but for rho within about 1e-4 of an
    integer, where the connection formula next to pi loses up to 1e-9
    (9e-10 at n = 9, rho = 8.000001).  An array of angles gives each angle's
    one-angle value.  Within about 2.1e-8 of pi, where sin^2(theta/2)
    rounds to 1, an angle raises :class:`DomainError`.
    """
    n = check_dimension(n, lowest=2)
    rho = check_scalar(rho, "order rho", 0.0, math.inf, "()")
    x = _half_angle(theta, "theta")
    return scalar_or_array(legendre_weighted(rho + (n - 3.0) / 2.0, (3.0 - n) / 2.0, x), theta)


def _half_angle(theta, name: str):
    """sin^2(theta/2) of the angles theta, checked as ``name``, as a 1-d array;
    where it rounds to 1, within about 2.1e-8 of pi, :class:`DomainError`."""
    theta = np.atleast_1d(check_angle(theta, name=name))
    x = np.sin(0.5 * theta) ** 2
    if np.any(x == 1.0):
        raise DomainError(f"{name}={theta[x == 1.0][0]:.17g} lies within about "
                          f"2.1e-8 of pi, where sin^2(theta/2) rounds to 1")
    return x


def indicator_closed(params: ProblemParams, theta1):
    """Indicator H(theta1) in closed form.

    H = pi 2^{(n-3)/2} Gamma((n-1)/2) prod_{k=1}^{n-2}(rho+k) Delta
        / ((n-3)! sin(pi rho)) * S(theta1)

    with S the stable latitude factor.  Defined on [0, pi); the value
    diverges to -inf as theta1 -> pi (use indicator_near_pi on the approach
    to pi; the endpoint itself is not a value).  Accepts a scalar or an
    array of angles.  Where the value overflows the double range, as a large
    delta makes it, :class:`DomainError` is raised.
    """
    return _indicator(params, angular_shape(params.n, params.rho, theta1), theta1)


def _indicator(params: ProblemParams, shape, theta1):
    """H at the angles theta1 from their angular factor S; where it is not
    finite, :class:`DomainError` naming the first such angle."""
    n, rho, delta = params.n, params.rho, params.delta
    # prod_{k=1}^{n-2}(rho+k) / (n-3)! = (n-2) rising_ratio(rho, n-2)
    scale = (math.pi * 2.0 ** ((n - 3.0) / 2.0) * gamma((n - 1.0) / 2.0)
             * (n - 2) * rising_ratio(rho, n - 2))
    sine = math.sin(math.pi * rho)
    coefficient = scale * delta / sine
    with np.errstate(over="ignore", invalid="ignore"):
        # a delta that takes the coefficient past the double range goes in
        # last, once S has scaled the rest down
        value = coefficient * shape if math.isfinite(coefficient) else scale * shape / sine * delta
    bad = ~np.isfinite(np.ravel(value))
    if bad.any():
        raise DomainError(f"the indicator at theta1={np.ravel(theta1)[bad][0]:.17g} "
                          f"overflows the double range")
    return value


def indicator_integral(params: ProblemParams, theta1, quad: QuadratureSpec = QuadratureSpec(),
                       full_output: bool = False):
    """Indicator via the kernel integral (rho+n-2) Delta
    int_0^inf s^{-rho-1} h_n(s, theta1, q) ds.

    This is the independent oracle for :func:`indicator_closed`: it never
    touches the Legendre machinery.  Accepts a scalar or an array of
    angles; an array is integrated in one pass, one row per angle.  Returns
    the value, or (value, result) with the quadrature error estimate and
    convergence flag when ``full_output`` is set; for an array these are
    per angle.
    """
    theta1 = check_angle(theta1)
    # math.cos angle by angle: numpy's array cosine can differ in the last bit
    xi = np.array([math.cos(t) for t in np.ravel(theta1)]).reshape(np.shape(theta1))
    lam, q = params.lam, params.q
    res = mellin_numeric(lambda u, xi: h_value(lam, q, u, xi), -params.rho, quad,
                         MellinStrip.principal_for_h(q), args=(xi,))
    res = res.scaled((params.rho + params.n - 2.0) * params.delta)
    return (res.value, res) if full_output else res.value


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
    theta1 = check_scalar(theta1, "theta1 of the asymptotic form", math.pi - 0.5, math.pi, "()")
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


def zero_set(params: ProblemParams) -> ZeroSet:
    """All zeros of the indicator's angular factor in (0, pi).

    A vectorized sign scan of the angular factor at ROOT_SCAN_RESOLUTION
    brackets each root; one bracketed solve (Chandrupatla's method, one
    array evaluation of the factor per iteration) refines all of them
    together to full double precision (a scan node where the factor is
    exactly zero is a root as it stands).  It starts from the scan's values
    at the bracket ends and keeps |S| at each root where it ended, as
    ``residuals``: an array call gives each angle its one-angle value.
    The count must equal floor(rho)+1; a different count raises
    :class:`CountMismatchError` (that would mean either a special-function
    defect or a genuine violation of the zero-count law, and is surfaced
    rather than repaired).
    """
    n, rho = params.n, params.rho
    lo, hi = ROOT_SCAN_RESOLUTION, math.pi - ROOT_SCAN_RESOLUTION
    grid = np.linspace(lo, hi, int(math.ceil((hi - lo) / ROOT_SCAN_RESOLUTION)) + 1)
    vals = angular_shape(n, rho, grid)
    sgn = np.sign(vals)
    left = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    roots, values = _refine_roots(lambda t: angular_shape(n, rho, t), grid[left], grid[left + 1],
                                  (vals[left], vals[left + 1]), full_output=True)
    # exact zeros on grid nodes would be missed by the strict sign test
    exact = np.nonzero(vals == 0.0)[0]
    roots = np.concatenate((roots, grid[exact]))
    expected = params.q + 1
    if len(roots) != expected:
        raise CountMismatchError(
            f"found {len(roots)} angular roots for n={n}, rho={rho}; "
            f"expected floor(rho)+1 = {expected}"
        )
    order = np.argsort(roots, kind="stable")
    residuals = np.abs(np.concatenate((values, vals[exact])))
    return ZeroSet(roots=tuple(roots[order].tolist()), residuals=tuple(residuals[order].tolist()))


def _guarded_shape(params: ProblemParams, theta1, name: str) -> float:
    """S(theta1), once theta1 is known not to be exceptional: the one test
    of the package for an angle on a root of the angular factor.

    S is taken at theta1 and ROOT_BRACKET_WIDTH on each side of it, in one
    call; the upper side keeps a width below pi, where sin^2(theta/2) would
    round to 1 (a theta1 that close raises :class:`DomainError`).  A zero at
    theta1, or a sign change across that band, is a root within
    ROOT_BRACKET_WIDTH, and raises :class:`ExceptionalAngleError`.  Either
    error names the angle ``name``.  The test is on S, so it holds for
    delta = 0 too.
    """
    theta1 = check_one_angle(theta1, name=name)
    _half_angle(theta1, name)
    lo = max(theta1 - ROOT_BRACKET_WIDTH, 0.0)
    hi = min(theta1 + ROOT_BRACKET_WIDTH, max(theta1, math.pi - ROOT_BRACKET_WIDTH))
    s_lo, shape, s_hi = angular_shape(params.n, params.rho, [lo, theta1, hi]).tolist()
    if shape == 0 or min(s_lo, s_hi) <= 0 <= max(s_lo, s_hi):
        raise ExceptionalAngleError(
            f"{name}={theta1:.17g} is within {ROOT_BRACKET_WIDTH} rad of an exceptional "
            f"angle, where the indicator is 0")
    return shape


def guarded_indicator(params: ProblemParams, theta1) -> float:
    """Indicator H(theta1) in closed form at one angle, which must not lie
    within ROOT_BRACKET_WIDTH of an exceptional angle: there H is 0 and no
    error relative to it is defined, so :class:`ExceptionalAngleError` is
    raised instead; where H overflows the double range, :class:`DomainError`."""
    return _indicator(params, _guarded_shape(params, theta1, "theta1"), theta1)


def tauberian_constant(params: ProblemParams, phi):
    """Growth-transfer constant M(g; 0) for a non-exceptional direction phi.

    As printed:

        M(g;0) = 2^{(n-3)/2} Gamma((n-2)/2) sin(pi rho) (sin phi)^{(n-3)/2}
                 / (pi^{3/2} prod_{k=1}^{n-3}(rho+k)
                    P^{(3-n)/2}_{rho+(n-3)/2}(cos phi)).

    Composing this constant with the closed-form indicator yields
    (rho+n-2) Delta rather than Delta -- see :func:`tauberian_audit`, which
    reports exactly that product so the discrepancy stays visible.  Raises
    :class:`ExceptionalAngleError` when phi is within ROOT_BRACKET_WIDTH of a
    root of the angular factor (there the constant is infinite and the
    transfer genuinely fails).
    """
    shape = _guarded_shape(params, phi, "phi")
    n, rho = params.n, params.rho
    # prod_{k=1}^{n-3}(rho+k) = (n-3)! rising_ratio(rho, n-3)
    return (
        2.0 ** ((n - 3.0) / 2.0) * (gamma((n - 2.0) / 2.0) / math.factorial(n - 3))
        * math.sin(math.pi * rho) / (math.pi ** 1.5 * rising_ratio(rho, n - 3) * shape)
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
    tail = rising_ratio(rho, n - 2)  # prod_{k=1}^{n-2}(rho+k) / (n-2)!
    u_over_n = base * ((n - 2) * tail) * shape
    u_over_N = base * (rho * tail) * shape  # the k = 0 factor times the same tail
    return u_over_n, u_over_N


def order_equation_rhs(n: int, rho):
    """Right side of the transcendental order equation, as printed

        Gamma(n-1-rho) / ((n-2)! Gamma(1-rho)) * pi rho / sin(pi rho),

    evaluated as pi rho prod_{k=1}^{n-2}(1 - rho/k) / sin(pi min(rho, 1-rho)),
    the Gamma ratio written as its rising product.  Next to rho = 1 the
    k = 1 factor 1 - rho and sin(pi (1-rho)) vanish together, and both keep
    full precision there, since 1 - rho is exact.  Defined for 0 < rho < 1;
    ``rho`` may be a scalar (a float is returned) or an ndarray.
    """
    n = check_dimension(n)
    rho = np.asarray(check_real(rho, "order rho of the order equation", 0.0, 1.0, "()"))
    return scalar_or_array(math.pi * rho * rising_ratio(-rho, n - 2)
                           / np.sin(math.pi * np.minimum(rho, 1.0 - rho)))


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
    delta_bar = check_scalar(delta_bar, "delta_bar")
    lo, hi = order_equation_range(n)
    if not lo <= delta_bar <= hi:
        if n == 3 and 0.0 < lo - delta_bar < 1e-9:
            return 0.5
        raise OutOfRangeError(
            f"delta_bar={delta_bar} is outside the attainable range "
            f"[{lo:.12g}, {hi:.12g}] of the order equation for n={n}",
            lo=lo,
            hi=hi,
        )
    return float(_refine_roots(lambda rho: order_equation_rhs(n, rho) - delta_bar,
                               _ORDER_EDGE, _order_branch_end(n), (hi - delta_bar, lo - delta_bar)))


def laplace_strip(n: int, theta1: float) -> MellinStrip:
    """Existence strip of the log-kernel transform, read off k's exponents.

    With c = cos(theta1) != 0, k(t) ~ (n-1) c e^{-t} as t -> +inf and
    ~ (n-1) c e^{(n-1) t} as t -> -inf, so the transform exists for
    -1 < s < n-1.  At theta1 = pi/2 exactly (where :func:`log_kernel` takes
    c = 0) the cosine term dies, k ~ n e^{-2t} and n e^{nt}, and the strip
    widens to (-2, n).  At theta1 = pi, k ~ -(n-1) |t|^{-n} at t = 0 and
    no strip exists, so the angle must lie in [0, pi).
    """
    n = check_dimension(n)
    if check_one_angle(theta1) == math.pi / 2:
        return MellinStrip(-2.0, float(n))
    return MellinStrip(-1.0, n - 1.0)


def laplace_log_kernel(n: int, theta1: float, s: float, full_output: bool = False):
    """Two-sided Laplace transform int e^{-s t} k(t) dt of the log kernel.

    For theta1 = 0 the closed value is Gamma(n-1-s) Gamma(1+s) / (n-2)!.
    With u = e^t the transform is the Mellin transform of k(log u) at -s,
    int_0^inf k(log u) u^{-s-1} du, taken by :func:`mellin_numeric` on the
    mirrored strip at the default :class:`QuadratureSpec`.  Raises
    :class:`StripViolationError`, naming s, outside the existence strip of
    :func:`laplace_strip`.
    """
    theta1 = check_one_angle(theta1, upper=math.pi / 2, closed=True)
    s = check_scalar(s, "transform variable s")
    strip = laplace_strip(n, theta1)
    strip.check(s)
    res = mellin_numeric(lambda u: log_kernel(n, theta1, np.log(u)), -s, QuadratureSpec(),
                         MellinStrip(-strip.upper, -strip.lower))
    return (res.value, res) if full_output else res.value
