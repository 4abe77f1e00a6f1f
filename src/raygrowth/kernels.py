"""Kernel functions for potentials generated by masses on a ray.

Contains the polynomial-subtracted kernel h (general exponent), whose
dimensional form h_n(u, theta1, q) is h at lam = (n-2)/2 and
xi = cos(theta1), the Poisson-type trinomial kernel, and the
exponentially-substituted convolution kernel used by the order equation.
All functions are pure and accept scalar or ndarray radial arguments where
noted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_integer, check_real, check_scalar, scalar_or_array
from .specfun import gegenbauer_terms, sum_series

# For q >= 1, below this radial ratio the subtracted kernel is evaluated
# through its polynomial tail series instead of its direct form, whose
# section would lose all significant digits to cancellation (h = O(u^{q+1})
# while the section's terms are O(u)).  At q = 0 the direct form holds at
# every u.
_TAIL_SWITCH = 0.5
_TAIL_RTOL = 1e-15
_TAIL_MAX_TERMS = 400

# the closed forms still divide by (n-3)! and (n-4)!, finite doubles through
# n = 173 (170! is the last); the bound stays one below, where the (n-2)! of
# the printed order equation is finite too
MAX_DIMENSION = 172


def check_dimension(n, lowest=3) -> int:
    """The dimension n as a Python int.

    Accepts any integer value (3, 3.0, numpy.int64(3)); raises
    :class:`DomainError` for nan, inf, a non-integer, an n below ``lowest``
    or an n above :data:`MAX_DIMENSION`.
    """
    n = check_integer(n, "dimension n", lowest)
    if n > MAX_DIMENSION:
        raise DomainError(f"dimension n = {n} overflows the double range: (n-2)! is finite "
                          f"only up to n = {MAX_DIMENSION}")
    return n


def check_angle(theta, name="theta1", closed=False):
    """The angle theta as a float, or a float array for array input.

    Raises :class:`DomainError` naming the argument unless every value lies
    in [0, pi), or in [0, pi] when ``closed`` is set; nan lies in neither.
    """
    return check_real(theta, name, 0.0, math.pi, "[]" if closed else "[)")


def check_one_angle(theta, name="theta1", upper=math.pi, closed=False) -> float:
    """:func:`check_angle` for an entry point that takes one angle, in
    [0, upper) or [0, upper]: the angle as a float, and a list or an array
    of any shape but 0-d raises :class:`DomainError` too (see
    :func:`check_scalar`)."""
    return check_scalar(theta, name, 0.0, upper, "[]" if closed else "[)")


@dataclass(frozen=True)
class ProblemParams:
    """Dimension, order, genus and type constant governing every formula.

    n in [3, MAX_DIMENSION] is the space dimension, rho > 0 a non-integer
    growth order, delta >= 0 the type constant.  The genus q = floor(rho)
    and the kernel exponent lam = (n-2)/2 are derived.
    """

    n: int
    rho: float
    delta: float = 1.0
    q: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", check_dimension(self.n))
        rho = check_scalar(self.rho, "order rho", 0.0, math.inf, "()")
        q = math.floor(rho)
        if rho == q:
            raise DomainError(f"order rho must be non-integer, got {self.rho}")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "delta", check_scalar(self.delta, "type constant delta", 0.0))
        object.__setattr__(self, "q", q)

    @property
    def lam(self) -> float:
        """Kernel exponent (n-2)/2."""
        return 0.5 * (self.n - 2)


def _h_tail_terms(lam, q, u, xi):
    """Yield the terms -(-u)^j G_j(xi), j = q+1, q+2, ..., of the Gegenbauer
    tail of h, whose sum is h for u < 1."""
    pw, step = np.ones_like(u), -u
    for j, g in enumerate(gegenbauer_terms(lam, xi)):
        if j > q:
            yield -pw * g
        pw = pw * step


def _overflowed_section(lam, q, u, xi, lead, top):
    """h at the flat points u, xi where the section of its direct form
    overflowed to nan, given there -expm1(-lam ln(1 + v)) and the section's
    top term (-u)^q G_q(xi).  Where that term is infinite, it is h.
    Elsewhere the section is summed again without the terms whose G_j(xi)
    is 0 (inf * 0 there), and where infinite terms still cancel, h is the
    signed infinity of the highest-degree one.  Called with numpy's
    warnings off."""
    rest = ~np.isinf(top)
    if rest.any():
        u, xi, out = u[rest], xi[rest], lead[rest]
        sign = np.zeros_like(out)
        for j, g in zip(range(1, q + 1), itertools.islice(gegenbauer_terms(lam, xi), 1, None)):
            term = np.where(g == 0.0, 0.0, (-u) ** j * g)
            out = out + term
            sign = np.where(np.isinf(term), np.sign(term), sign)
        top[rest] = np.where(np.isnan(out), sign * np.inf, out)
    return top


def h_value(lam, q, u, xi):
    """Subtracted kernel h(lam, q, u, xi); u scalar or ndarray >= 0, xi in [-1, 1].

    Difference of the Riesz kernel and its degree-q Gegenbauer polynomial
    section, with the bound |h| <= C min(u^q, u^{q+1}).  Its one direct form
    is h = -expm1(-lam ln(1 + v)) + sum_{j=1..q} (-u)^j G_j(xi), with
    v = u (2 xi + u): the section's constant term 1 goes into the expm1, so
    nothing cancels there, and at q = 0 this is h at every u.  For q >= 1
    and u below 1/2 the value is computed from the tail series instead,
    where the section cancels.  An overflow gives a value that is not
    finite, with no warning; where overflowing section terms of both signs
    meet, h is the signed infinity of the highest-degree one.  An array xi
    broadcasts against u, and the result takes their common shape.
    """
    lam = check_real(lam, "kernel exponent lam", 0.0, math.inf, "()")
    q = check_integer(q, "subtraction degree q")
    xi = check_real(xi, "xi = cos(theta1)", -1.0, 1.0)
    u_arr, xi = np.broadcast_arrays(check_real(u, "radial ratio u", 0.0), xi)
    # each point keeps the value of its own form, and the caller sees an overflow's inf
    with np.errstate(all="ignore"):
        v = u_arr * (2.0 * xi + u_arr)
        low, huge = v < -0.5, np.isinf(v)
        if low.any() or huge.any():
            # where 1 + v < 1/2, it is (u + xi)^2 + (1 - xi)(1 + xi): two
            # terms >= 0, so nothing cancels next to u = 1, xi = -1
            s = u_arr + xi
            base = s * s + (1.0 - xi) * (1.0 + xi)
            if (low & (base <= 0.0)).any():
                raise DomainError("kernel singular: 1 + u^2 + 2 u xi <= 0 (u=1, xi=-1)")
            # past u ~ 1.3e154, where v overflows, u^2 factored out
            far = 2.0 * np.log(u_arr) + np.log1p((2.0 * xi + 1.0 / u_arr) / u_arr)
            ln_base = np.where(low, np.log(base), np.where(huge, far, np.log1p(v)))
        else:
            ln_base = np.log1p(v)
        out = 0.0 - np.expm1(-lam * ln_base)  # 0.0 - x: +0.0, not -0.0, at u = 0
        for j, g in zip(range(1, q + 1), itertools.islice(gegenbauer_terms(lam, xi), 1, None)):
            out = out + (-u_arr) ** j * g
        # a nan takes two infinite section terms, or an infinite u^j, j >= 2;
        # g is G_q(xi) here
        if q > 1 and (lost := np.isnan(out)).any():
            out, ul = np.asarray(out), u_arr[lost]  # out is this call's own array
            lead = 0.0 - np.expm1(-lam * ln_base[lost])
            out[lost] = _overflowed_section(lam, q, ul, xi[lost], lead, (-ul) ** q * g[lost])
    if q and (near := u_arr < _TAIL_SWITCH).any():
        un, out = u_arr[near], np.array(out)
        out[near] = sum_series(_h_tail_terms(lam, q, un, xi[near]), "h tail series", lambda: (
            f"lam={lam}, q={q}, worst u={float(np.max(un))}"), _TAIL_RTOL, _TAIL_MAX_TERMS, q + 1)
    return scalar_or_array(out)


def poisson_Pn(n, r, t, theta1):
    """Poisson-type trinomial kernel P_n(r, t, theta1).

    r t^{n-2} ((n-1) r^2 c + r t [n + (n-2) c^2] + (n-1) t^2 c), c=cos(theta1).
    Positive for r, t > 0 whenever 0 <= theta1 <= pi/2.
    """
    n = check_dimension(n)
    r = np.asarray(check_real(r, "radius r", 0.0))
    t = np.asarray(check_real(t, "mass radius t", 0.0))
    c = np.cos(check_angle(theta1, closed=True))
    return scalar_or_array(r * t ** (n - 2) * (
        (n - 1) * r * r * c + r * t * (n + (n - 2) * c * c) + (n - 1) * t * t * c
    ))


def log_kernel(n, theta1, t):
    """Convolution kernel k(t) on the log scale (substitution radius=e^t).

    Orientation is fixed so that the kernel argument is log(mass radius) -
    log(observation radius); with that convention the axis case theta1=0
    reduces to

        k(t) = (n-1) e^{(n-1) t} (1 + e^t)^{-n},

    whose two-sided Laplace transform is Gamma(n-1-s) Gamma(1+s) / (n-2)!
    on the strip -1 < s < n-1.  Nonnegative for all t when
    0 <= theta1 <= pi/2; takes negative values for some t once
    theta1 > pi/2.  theta1 lies in [0, pi): at pi, k is singular at t = 0.
    t is real, and may be +-inf, where k is 0.
    """
    n = check_dimension(n)
    theta1 = check_angle(theta1)
    if np.iscomplexobj(t):  # in check_real's words; check_real itself refuses +-inf
        raise DomainError(f"t must be real, got {t}")
    t = np.asarray(t, dtype=float)
    # cos(pi/2) rounds to 6e-17, not 0; laplace_strip's (-2, n) holds for cos = 0 alone
    c = np.where(theta1 == math.pi / 2, 0.0, np.cos(theta1))
    # e^{-|t|} factored out of numerator and denominator on each side leaves
    # every factor bounded, so nothing overflows at any t
    e = np.exp(-np.abs(t))
    num = (n - 1.0) * c * (1.0 + e * e) + (n + (n - 2.0) * c * c) * e
    den = 1.0 + 2.0 * c * e + e * e
    pref = np.exp(np.where(t >= 0.0, -t, (n - 1.0) * t))
    return scalar_or_array(pref * (num / den ** (n / 2.0 + 1.0)))
