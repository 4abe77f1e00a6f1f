"""Kernel functions for potentials generated by masses on a ray.

Contains the Riesz kernel, the polynomial-subtracted kernel h (general
exponent) and its dimensional specialization h_n, the canonical kernel K_q
for a mass point on the negative axis, the Poisson-type trinomial kernel,
and the exponentially-substituted convolution kernel used by the order
equation.  All functions are pure and accept scalar or ndarray radial
arguments where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .specfun import gegenbauer, series_converged

# Below this radial ratio the subtracted kernel is evaluated through its
# polynomial tail series instead of the direct difference, which would lose
# all significant digits to cancellation (h = O(u^{q+1}) while the terms
# being subtracted are O(1)).
_TAIL_SWITCH = 0.5
_TAIL_RTOL = 1e-15
_TAIL_MAX_TERMS = 400


@dataclass(frozen=True)
class ProblemParams:
    """Dimension, order, genus and type constant governing every formula.

    n >= 3 is the space dimension, rho > 0 a non-integer growth order,
    delta >= 0 the type constant.  The genus q = floor(rho) and the kernel
    exponent lam = (n-2)/2 are derived.
    """

    n: int
    rho: float
    delta: float = 1.0
    q: int = field(init=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise DomainError(f"dimension n must be an integer >= 3, got {self.n}")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise DomainError(f"order rho must be positive and finite, got {self.rho}")
        q = math.floor(self.rho)
        if self.rho == q:
            raise DomainError(f"order rho must be non-integer, got {self.rho}")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise DomainError(f"type constant delta must be >= 0, got {self.delta}")
        object.__setattr__(self, "q", q)

    @property
    def lam(self) -> float:
        """Kernel exponent (n-2)/2."""
        return 0.5 * (self.n - 2)


def riesz_k(lam, t, xi):
    """Riesz kernel (1 + t^2 + 2 t xi)^(-lam).

    Generating function of the Gegenbauer family with alternating sign:
    equals sum_j (-t)^j G^lam_j(xi) for |t| < 1.
    """
    if not lam > 0:
        raise DomainError(f"riesz_k requires lam > 0, got {lam}")
    t = np.asarray(t, dtype=float)
    base = 1.0 + t * t + 2.0 * t * xi
    if np.any(base <= 0.0):
        raise DomainError("riesz_k undefined: 1 + t^2 + 2 t xi <= 0")
    out = base ** (-lam)
    return float(out) if out.ndim == 0 else out


def _h_tail_series(lam, q, u, xi):
    """h via its Gegenbauer tail -sum_{j>q} (-u)^j G_j(xi); needs u < 1."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xi_b = np.broadcast_to(np.asarray(xi, dtype=float), u.shape)
    # generate G_j by recurrence on the fly
    gm2 = np.ones_like(xi_b)
    gm1 = 2.0 * lam * xi_b
    pw = -u  # (-u)^j starting at j=1
    term = -pw * gm1
    total = term.copy() if q == 0 else np.zeros_like(u)
    for j in range(2, _TAIL_MAX_TERMS):
        gm2, gm1 = gm1, (2.0 * (j + lam - 1.0) * xi_b * gm1 - (j + 2.0 * lam - 2.0) * gm2) / j
        pw = pw * (-u)
        if j > q:
            prev, term = term, -pw * gm1
            total += term
            # the last two terms are both in the tail once j > q + 1
            if j > q + 1 and series_converged(j, prev, term, total, _TAIL_RTOL):
                break
    return total


def h_value(lam, q, u, xi):
    """Subtracted kernel h(lam, q, u, xi); u scalar or ndarray >= 0, xi in [-1, 1].

    Difference of the Riesz kernel and its degree-q Gegenbauer polynomial
    section, with the bound |h| <= C min(u^q, u^{q+1}).  For u below 1/2 the
    value is computed from the tail series to avoid cancellation.
    """
    if not lam > 0:
        raise DomainError(f"kernel exponent lam must be > 0, got {lam}")
    q = int(q)
    if q < 0:
        raise DomainError(f"subtraction degree q must be >= 0, got {q}")
    if not np.all(np.abs(xi) <= 1.0):
        raise DomainError(f"xi = cos(theta1) must lie in [-1, 1], got {xi}")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    if np.any(u_arr < 0):
        raise DomainError("radial ratio u must be >= 0")
    out = np.zeros_like(u_arr)
    near = u_arr < _TAIL_SWITCH
    if np.any(near):
        out[near] = _h_tail_series(lam, q, u_arr[near], xi)
    far = ~near
    if np.any(far):
        uf = u_arr[far]
        base = 1.0 + uf * uf + 2.0 * uf * xi
        if np.any(base <= 0.0):
            raise DomainError("kernel singular: 1 + u^2 + 2 u xi <= 0 (u=1, xi=-1)")
        poly = np.zeros_like(uf)
        for j in range(q + 1):
            poly += (-uf) ** j * gegenbauer(lam, j, xi)
        out[far] = -(base ** (-lam)) + poly
    return float(out[0]) if scalar else out


def h_n(params: ProblemParams, u, theta1):
    """Dimensional kernel h_n(u, theta1, q) with xi = cos(theta1).

    theta1 is the latitude of the observation point in [0, pi); the mass
    sits at angle pi, so the angle between the two directions is pi-theta1
    and the two sign flips (cosine of the supplement, alternating Gegenbauer
    parity) cancel into the +2 u cos(theta1) convention used here.
    """
    theta1 = float(theta1)
    if not (0.0 <= theta1 < np.pi):
        raise DomainError(f"theta1 must lie in [0, pi), got {theta1}")
    return h_value(params.lam, params.q, u, np.cos(theta1))


def weierstrass_K(params: ProblemParams, r, t, theta1):
    """Canonical kernel K_q(x, (t, pi)) for a unit mass at radius t on the
    negative axis, observed at radius r and latitude theta1.

    Implemented directly from its definition (fundamental solution with the
    law-of-cosines distance plus the degree-q Gegenbauer section), so the
    reduction identity K_q = t^{2-n} h_n(r/t, theta1, q) is a genuine
    cross-check rather than a restatement.
    """
    theta1 = float(theta1)
    if not (0.0 <= theta1 < np.pi):
        raise DomainError(f"theta1 must lie in [0, pi), got {theta1}")
    if not t > 0:
        raise DomainError(f"mass radius t must be > 0, got {t}")
    n, q = params.n, params.q
    lam = params.lam
    r = np.asarray(r, dtype=float)
    cos_psi = -np.cos(theta1)  # angle between x and the negative axis
    dist2 = r * r + t * t - 2.0 * r * t * cos_psi
    if np.any(dist2 <= 0.0):
        raise DomainError("observation point coincides with the mass point")
    out = -(dist2 ** (-lam))
    tp = float(t) ** (2 - n)
    for j in range(q + 1):
        out = out + tp * (r / t) ** j * gegenbauer(lam, j, cos_psi)
    return float(out) if out.ndim == 0 else out


def poisson_Pn(n, r, t, theta1):
    """Poisson-type trinomial kernel P_n(r, t, theta1).

    r t^{n-2} ((n-1) r^2 c + r t [n + (n-2) c^2] + (n-1) t^2 c), c=cos(theta1).
    Positive for r, t > 0 whenever 0 <= theta1 <= pi/2.
    """
    if n < 3 or int(n) != n:
        raise DomainError(f"dimension n must be an integer >= 3, got {n}")
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(r < 0) or np.any(t < 0):
        raise DomainError("poisson_Pn requires r, t >= 0")
    c = np.cos(theta1)
    out = r * t ** (n - 2) * (
        (n - 1) * r * r * c + r * t * (n + (n - 2) * c * c) + (n - 1) * t * t * c
    )
    return float(out) if out.ndim == 0 else out


def log_kernel(n, theta1, t):
    """Convolution kernel k(t) on the log scale (substitution radius=e^t).

    Orientation is fixed so that the kernel argument is log(mass radius) -
    log(observation radius); with that convention the axis case theta1=0
    reduces to

        k(t) = (n-1) e^{(n-1) t} (1 + e^t)^{-n},

    whose two-sided Laplace transform is Gamma(n-1-s) Gamma(1+s) / (n-2)!
    on the strip -1 < s < n-1.  Nonnegative for all t when
    0 <= theta1 <= pi/2; takes negative values for some t once
    theta1 > pi/2.
    """
    sign, ln_abs = log_kernel_signed_ln(n, theta1, t)
    return sign * np.exp(ln_abs)


def log_kernel_signed_ln(n, theta1, t):
    """Overflow-safe factored form of :func:`log_kernel`.

    Returns (sign, ln|k|) so callers can build e^{-s t} k(t) integrands in
    log space without hitting exp overflow at large |t|.
    """
    if n < 3 or int(n) != n:
        raise DomainError(f"dimension n must be an integer >= 3, got {n}")
    theta1 = float(theta1)
    if not (0.0 <= theta1 <= np.pi):
        raise DomainError(f"theta1 must lie in [0, pi], got {theta1}")
    t = np.asarray(t, dtype=float)
    c = np.cos(theta1)
    half = n / 2.0 + 1.0
    # factor e^{-|t|} out of numerator and denominator on each side
    e = np.exp(-np.abs(t))
    num = (n - 1.0) * c * (1.0 + e * e) + (n + (n - 2.0) * c * c) * e
    den = 1.0 + 2.0 * c * e + e * e
    # exponent of the prefactor: -t for t>=0, (n-1) t for t<0
    pref = np.where(t >= 0.0, -t, (n - 1.0) * t)
    sign = np.sign(num)
    with np.errstate(divide="ignore"):
        ln_abs = pref + np.log(np.abs(num)) - half * np.log(den)
    if t.ndim == 0:
        return float(sign), float(ln_abs)
    return sign, ln_abs
