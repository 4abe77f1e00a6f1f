"""Mellin transforms of the ray-mass kernels, and the library's quadrature.

The one quadrature entry point :func:`integrate` (tanh-sinh on array
integrands) that every numeric integral in the package goes through; the
numeric transform built on it with explicit strip bookkeeping; the
closed form for the subtracted kernel in terms of Legendre functions on
the cut, the specialization of the subtracted-kernel transform
at the growth order, and the shifted complex-line symbol whose zero set
controls the Tauberian conclusion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, PoleError, StripViolationError, check_integer, check_real,
                     check_scalar, scalar_or_array)
from .kernels import ProblemParams, check_one_angle
from .specfun import _finite, _maybe_real, gamma, legendre_weighted, rising_ratio

# poles of the continued transforms are excluded within this radius
POLE_EXCLUSION_RADIUS = 1e-6


# tanh-sinh level at which convergence is first tested.  The error estimate
# extrapolates from the two levels before on the assumption that the digits
# already double per level; tested earlier it undershoots (level 3 on the
# outer piece of Gamma(2+0.7i) by definition: estimate 2e-15, error 9e-10)
_FIRST_TEST_LEVEL = 4

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps

# Level k of the tanh-sinh rule steps by h0 / 2^k over 0 <= j h <= 8 h0.  The
# base step h0 puts the outermost node where its distance to the limit,
# 1 - tanh(pi/2 sinh(8 h0)), is 4 times the smallest normal double.
_N_BASE_STEPS = 8
_H0 = math.asinh(math.log(2.0 / (4.0 * _TINY) - 1.0) / math.pi) / _N_BASE_STEPS

_TANHSINH_STATUS = {
    -2: "maximum level reached",
    -3: "non-finite integral estimate",
}


def _join(messages) -> str:
    """The non-empty messages joined by "; "."""
    return "; ".join(m for m in messages if m)


# row by row: a message for each pair of rows, as an object array
_join_rows = np.frompyfunc(lambda a, b: _join((a, b)), 2, 1)


def _flag_message(status, max_level) -> str:
    """The reasons behind the non-zero status codes, or "" if there are none."""
    reasons = sorted({_TANHSINH_STATUS[int(c)] for c in np.ravel(status) if c})
    return f"tanh-sinh: {', '.join(reasons)} (max_level {max_level})" if reasons else ""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and layout for improper-integral evaluation.

    ``max_level`` caps the tanh-sinh refinement: levels 0 to k together
    hold 16 * 2^k + 2 nodes per integral, and each level roughly
    doubles the number of correct digits of a smooth integrand.  An integral
    that has not met ``rel_tol`` or ``abs_tol`` by then is flagged.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_level: int = 10

    def __post_init__(self):
        object.__setattr__(self, "rel_tol", check_real(self.rel_tol, "rel_tol", 0.0, math.inf, "()"))
        object.__setattr__(self, "abs_tol", check_real(self.abs_tol, "abs_tol", 0.0, math.inf, "()"))
        # no error estimate below level 2
        object.__setattr__(self, "max_level", check_integer(self.max_level, "max_level", 2))


@dataclass(frozen=True)
class MellinStrip:
    """Vertical strip lower < Re s < upper on which a transform converges."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise DomainError(f"empty strip ({self.lower}, {self.upper})")

    def contains(self, s) -> bool:
        re = complex(s).real
        return self.lower < re < self.upper

    def check(self, s):
        """Raise :class:`StripViolationError` unless lower < Re s < upper."""
        if not self.contains(s):
            raise StripViolationError(
                f"Re s = {complex(s).real} outside the strip ({self.lower}, {self.upper})"
            )

    @staticmethod
    def principal_for_h(q: int) -> "MellinStrip":
        """Strip of absolute convergence for the subtracted kernel."""
        return MellinStrip(-q - 1.0, -float(q))

    @staticmethod
    def extended_for_h(q: int, lam: float) -> "MellinStrip":
        """Region reached by integrating by parts q+1 times (poles excluded)."""
        return MellinStrip(-q - 1.0, 2.0 * lam)


@dataclass(frozen=True)
class MellinResult:
    """Quadrature value with its error estimate and convergence flag.

    A result of one integral per row (see :func:`integrate`) holds a value,
    an error, a flag and a message for each row, as arrays of one shape.
    ``evaluations`` counts the nodes at which the integrand was asked for a
    value, summed over every integral behind the result.
    """

    value: complex
    error: float
    converged: bool
    message: str = ""
    evaluations: int = 0

    def __add__(self, other: "MellinResult") -> "MellinResult":
        """Row-by-row sum of two results of one shape; a row converged if it
        did in both, and its messages are joined."""
        return MellinResult(
            value=self.value + other.value, error=self.error + other.error,
            converged=self.converged & other.converged,
            message=_join_rows(self.message, other.message),
            evaluations=self.evaluations + other.evaluations)

    def scaled(self, c) -> "MellinResult":
        """The result times the constant c."""
        return replace(self, value=c * self.value, error=abs(c) * self.error)

    def held_to(self, quad: "QuadratureSpec") -> "MellinResult":
        """The result, flagged unless its error estimate is within 10 times
        the tolerance of ``quad``: the rule for a sum of pieces.  A row it
        flags anew gets a message naming its estimate and that bound."""
        bound = 10.0 * np.fmax(quad.abs_tol, quad.rel_tol * abs(self.value))
        newly = self.converged & ~(self.error <= bound)
        if not np.any(newly):
            return self
        reason = np.frompyfunc(lambda flag, e, b: f"summed error estimate {e:.3g} exceeds the bound "
                               f"{b:.3g}, 10 times the tolerance" if flag else "", 3, 1)
        return replace(self, converged=scalar_or_array(self.converged & ~newly),
                       message=_join_rows(self.message, reason(newly, self.error, bound)))


def integrate(f, a, b, quad: QuadratureSpec, power: float = 1.0, args=()) -> MellinResult:
    """Tanh-sinh quadrature of int_a^b f(u, *args) du (Takahasi & Mori 1974).

    The one quadrature entry point of the package.  ``f`` maps an ndarray
    of nodes to an ndarray of values of the same shape, real or complex; a
    complex f gives a complex value, and its error is estimated in
    modulus.  ``a`` and ``b`` are finite limits a < b, and may be arrays of
    limits; any other limits raise :class:`DomainError`.  A half-line is
    first taken onto a finite interval, as :func:`mellin_numeric` does.
    The nodes and weights of each level are built once and cached; the
    rule, its error estimate and its status codes are those of
    ``scipy.integrate.tanhsinh`` (see :func:`_tanh_sinh`).

    ``args`` are extra arguments of f, as in ``scipy.integrate.tanhsinh``:
    each array among them broadcasts against ``a`` and ``b``, and f receives
    each at the row of every node it is given, so its values broadcast
    against the nodes.  Every row of the broadcast limits and args is an
    integral of its own, and the rows are refined side by side: value,
    error, converged and message come back per row, as arrays of that
    shape unless it is a scalar.

    With ``power`` k > 1 the lower limit must be 0, and the integral is
    taken in x = u^(1/k) as int_0^(b^(1/k)) f(x^k) k x^(k-1) dx.  An
    endpoint behavior u^(1/k - 1) then becomes an integrand that tends to a
    constant at x = 0.  Nodes where x^k is subnormal are not evaluated and,
    like any non-finite value of f, take the value at the nearest node
    where f is finite.  The integrand has reached its constant there, so
    the part of the integral that lies at u below 1e-308 is kept: it is
    about 1e-308^(1/k) of the whole, 8e-4 for k = 100.

    Floating-point warnings are silenced inside.  Returns a
    :class:`MellinResult` with the error estimate, the convergence flag,
    the number of nodes evaluated and, when flagged, a message.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    bad = ~(np.isfinite(a) & np.isfinite(b) & (a < b))
    if bad.any():
        lo, hi = (np.broadcast_to(v, bad.shape)[bad][0] for v in (a, b))
        raise DomainError(f"integrate needs finite limits a < b, got a = {lo}, b = {hi}")
    g = f
    if power != 1.0:
        if np.any(a != 0.0):
            raise DomainError("a power substitution needs the lower limit 0")
        b = b ** (1.0 / power)

        def g(x, *args):
            # f is not evaluated where x^k is subnormal: those nodes are nan
            # and take the value of the nearest node where u is normal
            u = x ** power
            normal = u >= _TINY
            fu = f(u[normal], *(np.broadcast_to(arg, u.shape)[normal] for arg in args))
            out = np.full(u.shape, np.nan, dtype=np.result_type(fu, float))
            out[normal] = power * x[normal] ** (power - 1.0) * fu
            return out

    a, b, *args = np.broadcast_arrays(a, b, *args)
    with np.errstate(all="ignore"):
        value, error, status, evaluations = _tanh_sinh(
            g, a.ravel(), b.ravel(), quad.abs_tol, quad.rel_tol,
            min(_FIRST_TEST_LEVEL, quad.max_level), quad.max_level, [v.ravel() for v in args])
    status = status.reshape(a.shape)
    return MellinResult(
        value=scalar_or_array(value.reshape(a.shape)),
        error=scalar_or_array(error.reshape(a.shape)), converged=scalar_or_array(status == 0),
        message=scalar_or_array(
            np.frompyfunc(lambda c: _flag_message(c, quad.max_level), 1, 1)(status)),
        evaluations=evaluations)


@functools.lru_cache(maxsize=None)
def _level_nodes(k):
    """Distances 1 - x_j to the limit and weights of the nodes new at level k.

    Level k steps by h = h0 / 2^k.  Level 0 holds j = 0..8; its centre node
    has half weight, as it is counted once on each side.  Every later level
    holds the odd j up to 8 * 2^k, the nodes halfway between those of the
    levels before.  The weight is dx/dt without the factor h.
    """
    h = _H0 / 2 ** k
    top = _N_BASE_STEPS * 2 ** k
    jh = (np.arange(top + 1) if k == 0 else np.arange(1, top + 1, 2)) * h
    u1 = np.pi / 2 * np.cosh(jh)
    u2 = np.pi / 2 * np.sinh(jh)
    with np.errstate(over="ignore"):
        weight = u1 / np.cosh(u2) ** 2
        gap = 1.0 / (np.exp(u2) * np.cosh(u2))
    if k == 0:
        weight[0] /= 2.0
    gap.flags.writeable = weight.flags.writeable = False
    return gap, weight


@functools.lru_cache(maxsize=None)
def _nodes_through(k):
    """Nodes of levels 0..k, level by level: 8 * 2^k + 1 on each side."""
    tables = [_level_nodes(i) for i in range(k + 1)]
    gap = np.concatenate([t[0] for t in tables])
    weight = np.concatenate([t[1] for t in tables])
    gap.flags.writeable = weight.flags.writeable = False
    return gap, weight


def _tanh_sinh(f, a, b, atol, rtol, minlevel, maxlevel, args=()):
    """Tanh-sinh rule on the 1-D arrays of finite limits a < b, refined
    side by side.

    Follows ``scipy.integrate.tanhsinh`` step for step on finite intervals,
    so value, error and status agree with it.  The first pass evaluates
    every node through ``minlevel``; each later level adds its odd nodes
    and halves the sum before.  A node whose weighted value is not finite
    takes the value of the outermost finite node on its side.  Rows leave
    the loop as they meet ``atol`` or ``rtol`` under Bailey's error
    estimate (Bailey, Jeyabalan & Li, Exp. Math. 14, 2005) or turn
    non-finite, and their entries of the 1-D arrays in ``args`` leave with
    them; f(x, *args) receives each as a column against the nodes x of its
    row.  The values take the dtype, float or complex, that f returns at
    the first pass.

    Returns value, error, status (0 converged, -2 maximum level reached,
    -3 non-finite) and the number of nodes evaluated over all rows.
    """
    n = a.size
    value, error = np.zeros(n), np.zeros(n)
    status = np.zeros(n, dtype=int)
    if n == 0:
        return value, error, status, 0
    rows = np.arange(n)
    # abscissa, value and weight of the outermost node so far, on each side,
    # whose weighted value is finite
    xr0, fr0, wr0 = np.full(n, -np.inf), np.full(n, np.nan), np.zeros(n)
    xl0, fl0, wl0 = np.full(n, np.inf), np.full(n, np.nan), np.zeros(n)
    evaluations = 0
    for level in range(minlevel, maxlevel + 1):
        first = level == minlevel
        gap, weight = _nodes_through(level) if first else _level_nodes(level)
        h = _H0 / 2 ** level
        half = ((b - a) / 2)[:, None]
        x = np.concatenate((-half * gap + b[:, None], half * gap + a[:, None]), axis=1)
        w = np.concatenate((weight * half,) * 2, axis=1)
        w[(x <= a[:, None]) | (x >= b[:, None])] = 0.0
        fx = np.array(f(x, *(arg[:, None] for arg in args)))
        fx = fx.astype(np.result_type(fx, float), copy=False)
        if first:
            value, fr0, fl0 = (v.astype(fx.dtype) for v in (value, fr0, fl0))
        evaluations += fx.size

        # right-side nodes come first, then the left-side ones
        m = x.shape[1] // 2
        idx = np.arange(rows.size)
        invalid = ~np.isfinite(fx) | (w == 0.0)
        xr = np.where(invalid[:, :m], -np.inf, x[:, :m])
        j = np.argmax(xr, axis=1)
        out = xr[idx, j] > xr0
        xr0[out], fr0[out], wr0[out] = xr[idx, j][out], fx[idx, j][out], w[idx, j][out]
        xl = np.where(invalid[:, m:], np.inf, x[:, m:])
        j = np.argmin(xl, axis=1)
        out = xl[idx, j] < xl0
        xl0[out], fl0[out], wl0[out] = xl[idx, j][out], fx[idx, m + j][out], w[idx, m + j][out]
        fx[:, :m] = np.where(invalid[:, :m], fr0[:, None], fx[:, :m])
        fx[:, m:] = np.where(invalid[:, m:], fl0[:, None], fx[:, m:])
        fw = fx * w
        s = np.sum(fw, axis=1) * h
        if first:
            # the sums of the two coarser levels, from the nodes they hold
            def coarser(i):
                nx = _N_BASE_STEPS * 2 ** (level - i) + 1
                part = fw.reshape(rows.size, 2, -1)[:, :, :nx].reshape(rows.size, 2 * nx)
                return np.sum(part, axis=1) * (2 ** i * h)
            s1, s2 = coarser(1), coarser(2)
        else:
            s = s1 / 2.0 + s
        # Bailey's estimate: d1, d2 the changes from the last two levels, d3
        # the largest term, d4 the outermost term, d5 the rounding floor
        d1, d2 = np.abs(s - s1), np.abs(s - s2)
        d3 = _EPS * np.max(np.abs(fw), axis=1)
        d4 = np.maximum(np.abs(fl0 * wl0), np.abs(fr0 * wr0))
        d5 = _EPS * np.abs(s)
        ratio = np.where(d1 > 0, d1 ** (np.log(d1) / np.log(d2)), 0.0)
        err = np.clip(np.max(np.stack([ratio, d1 ** 2, d3, d4]), axis=0), d5, d1)
        done = (err / np.abs(s) < rtol) | (err < atol)
        bad = ~np.isfinite(s) & ~done
        stop = done | bad if level < maxlevel else np.ones(rows.size, dtype=bool)
        value[rows[stop]], error[rows[stop]] = s[stop], err[stop]
        status[rows[bad]] = -3
        status[rows[stop & ~done & ~bad]] = -2
        if stop.all():
            break
        if stop.any():
            keep = ~stop
            rows, a, b, xr0, fr0, wr0, xl0, fl0, wl0, s, s1 = (
                v[keep] for v in (rows, a, b, xr0, fr0, wr0, xl0, fl0, wl0, s, s1))
            args = [arg[keep] for arg in args]
        s1, s2 = s, s1
    return value, error, status, evaluations


def mellin_numeric(integrand, s, quad: QuadratureSpec, strip: MellinStrip,
                   args=()) -> MellinResult:
    """Numeric Mellin transform int_0^inf f(u, *args) u^{s-1} du.

    The integral is split at u = 1 and the outer piece is mapped back to
    (0, 1] by the substitution u -> 1/u, so both pieces are proper up to
    integrable endpoint behavior.  Inside the strip the integrand behaves
    like u^{d-1} at each end, with d the distance from Re s to that strip
    edge; each piece is integrated with the power
    substitution k = 1/min(1, d) of :func:`integrate`, so that behavior is
    bounded even for Re s next to an edge.  ``integrand`` takes and returns
    ndarrays.  ``s`` may be complex: the two pieces are then complex
    integrals, and the value is complex.  An s with zero imaginary part is
    taken as real, and so is the value.

    ``args`` are passed to :func:`integrate`: an array among them makes one
    transform per row, each with its own value, error, flag and message.

    Raises :class:`StripViolationError` when Re s is outside the declared
    strip of the integrand -- never returns silently in that case.
    """
    _finite(s, "transform variable s")
    strip.check(s)
    s = _maybe_real(complex(s))
    k_in = 1.0 / min(1.0, s.real - strip.lower)
    k_out = 1.0 / min(1.0, strip.upper - s.real)
    inner = integrate(lambda u, *args: integrand(u, *args) * u ** (s - 1.0), 0.0, 1.0, quad,
                      power=k_in, args=args)
    # u = 1/w, du = -dw/w^2:  f(1/w) w^{-s-1}
    outer = integrate(lambda w, *args: integrand(1.0 / w, *args) * w ** (-s - 1.0), 0.0, 1.0,
                      quad, power=k_out, args=args)
    return (inner + outer).held_to(quad)


def _check_not_pole(s, lam):
    s = complex(s)
    # gamma(s) has its poles at s = -m, gamma(2 lam - s) at s = 2 lam + m, m = 0, 1, ...
    for at, name in ((-s.real, "gamma(s)"), (s.real - 2.0 * lam, "gamma(2 lam - s)")):
        m = round(at)
        if abs(s.imag) < POLE_EXCLUSION_RADIUS and m >= 0 and abs(at - m) < POLE_EXCLUSION_RADIUS:
            raise PoleError(f"transform pole at s={s} ({name})")


def mellin_h_closed(lam, q, s, xi):
    """Closed-form Mellin transform of the subtracted kernel h(lam, q, ., xi).

        M(h, s) = -sqrt(pi) Gamma(s) Gamma(2 lam - s) / (2^{lam-1/2} Gamma(lam))
                  * (1 - xi^2)^{(1-2 lam)/4} * P^{1/2-lam}_{s-lam-1/2}(xi)

    Valid on the principal strip -q-1 < Re s < -q and, by meromorphic
    continuation, for all s away from the poles of the gamma factors.  The
    weighted Legendre factor is finite at xi = 1, where the formula reduces
    to -Gamma(s) Gamma(2 lam - s) / Gamma(2 lam).  A real s, complex or not,
    takes a degree below -1/2 at its mirror -nu-1 (DLMF 14.9.5), which
    :func:`legendre_weighted` raises by recurrence, not a cancelling series.
    """
    lam = check_real(lam, "kernel exponent lam", 0.0, math.inf, "()")
    check_integer(q, "subtraction degree q")
    # at xi = -1 the Legendre factor is taken at x = 1, its singular point
    xi = check_real(xi, "xi = cos(theta1)", -1.0, 1.0, "(]")
    _finite(s, "transform variable s")
    _check_not_pole(s, lam)
    s = s if isinstance(s, complex) and s.imag else float(s.real)
    coef = -math.sqrt(math.pi) * gamma(s) * gamma(2.0 * lam - s) / (
        2.0 ** (lam - 0.5) * gamma(lam)
    )
    nu = s - lam - 0.5 if isinstance(s, complex) else max(s - lam - 0.5, lam - 0.5 - s)
    return coef * legendre_weighted(nu, 0.5 - lam, (1.0 - xi) / 2.0)


class HnMellinForms(NamedTuple):
    """The two printed shapes of the order-point transform of h_n."""

    gamma_form: float
    factorial_form: float


def mellin_hn_at_order(params: ProblemParams, xi) -> HnMellinForms:
    """Mellin transform of h_n evaluated at s = -rho, in both printed shapes.

    gamma_form carries Gamma((n-2)/2) in the denominator, factorial_form
    carries prod_{k=1}^{n-3}(rho+k) / (n-3)!, formed as one rising ratio,
    and Gamma((n-1)/2); the two are convertible through the double-argument
    gamma identity and must agree to rounding.  Both equal
    mellin_h_closed(lam, q, -rho, xi) with lam = (n-2)/2.

    The overall sign is positive: the transform of h_n at the order point is
    a positive multiple of the Legendre factor (confirmed by quadrature; a
    sign slip in one traditional statement of the gamma_form is corrected
    here so the shapes agree).
    """
    n, rho = params.n, params.rho
    ratio = rising_ratio(rho, n - 3)  # prod_{k=1}^{n-3}(rho+k) / (n-3)!
    # the degree -rho-(n-1)/2 at its mirror rho+(n-3)/2, as in mellin_h_closed
    legendre_factor = legendre_weighted(rho + (n - 3.0) / 2.0, (3.0 - n) / 2.0, (1.0 - xi) / 2.0)
    sin_pi_rho = math.sin(math.pi * rho)
    gamma_form = (
        math.pi * math.sqrt(math.pi) * 2.0 ** ((3.0 - n) / 2.0)
        * ratio * (math.factorial(n - 3) / gamma((n - 2.0) / 2.0)) / sin_pi_rho
    ) * legendre_factor
    factorial_form = (
        math.pi * 2.0 ** ((n - 3.0) / 2.0) * ratio * gamma((n - 1.0) / 2.0) / sin_pi_rho
    ) * legendre_factor
    return HnMellinForms(gamma_form=gamma_form, factorial_form=factorial_form)


def tauberian_symbol(params: ProblemParams, phi, v):
    """Symbol (1 - i v) M(h_n, -rho - i v) at xi = cos(phi).

    This is the multiplicative-convolution symbol whose non-vanishing for
    all real v is what lets the growth of the potential be transferred back
    to the mass distribution.  At v = 0 it reduces to the order-point
    transform; for v != 0 the Legendre degree acquires an imaginary part and
    the factor stays away from zero.
    """
    xi = math.cos(check_one_angle(phi, name="phi"))
    v = check_scalar(v, "imaginary shift v")
    return (1.0 - 1j * v) * mellin_h_closed(params.lam, params.q, -params.rho - 1j * v, xi)


def _derivative_polys(lam, xi, order):
    """Coefficient arrays (ascending powers of u) of P_j in
    d^j/du^j (1+u^2+2 u xi)^(-lam) = (1+u^2+2 u xi)^(-lam-j) P_j(u)."""
    polys = [np.array([1.0])]
    base = np.array([1.0, 2.0 * xi, 1.0])  # 1 + 2 xi u + u^2
    lin = np.array([2.0 * xi, 2.0])        # d(base)/du
    for j in range(order):
        p = polys[-1]
        dp = p[1:] * np.arange(1, p.size)
        term1 = -(lam + j) * np.convolve(lin, p)
        term2 = np.convolve(base, dp) if dp.size else np.zeros(1)
        polys.append(np.polynomial.polynomial.polyadd(term1, term2))
    return polys[order]


def mellin_ibp_numeric(lam, q, s, xi, quad: QuadratureSpec) -> MellinResult:
    """Transform of h computed through q+1 integrations by parts.

    Evaluates (-1)^q / prod_{k=0}^{q}(s+k) * int_0^inf u^{s+q}
    d^{q+1}/du^{q+1} (1+u^2+2 u xi)^(-lam) du, which converges on the wider
    strip -q-1 < Re s < 2 lam and therefore doubles as the analytic
    continuation of the direct transform.  Independent of
    :func:`mellin_numeric` apart from the shared quadrature backend.
    """
    lam = check_real(lam, "kernel exponent lam", 0.0, math.inf, "()")
    q = check_integer(q, "subtraction degree q")
    xi = check_real(xi, "xi = cos(theta1)", -1.0, 1.0)
    _finite(s, "transform variable s")
    MellinStrip.extended_for_h(q, lam).check(s)
    sc = _maybe_real(complex(s))
    for k in range(q + 1):
        if abs(sc + k) < POLE_EXCLUSION_RADIUS:
            raise PoleError(f"s = {s} hits the pole at {-k}")
    coeffs = _derivative_polys(lam, xi, q + 1)

    def deriv(u):
        w = 1.0 + u * u + 2.0 * u * xi
        return w ** (-lam - (q + 1)) * np.polynomial.polynomial.polyval(u, coeffs)

    denom = 1.0
    for k in range(q + 1):
        denom *= sc + k
    shifted = sc + q + 1.0  # integrand is u^{(s+q+1)-1} * deriv
    res = mellin_numeric(deriv, shifted, quad, MellinStrip(0.0, 2.0 * lam + q + 1.0))
    return res.scaled((-1.0) ** q / denom)
