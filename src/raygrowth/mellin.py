"""Mellin transforms of the ray-mass kernels.

Adaptive-quadrature numeric transform with explicit strip bookkeeping, the
closed forms for the Riesz and subtracted kernels in terms of Legendre
functions on the cut, the specialization of the subtracted-kernel transform
at the growth order, and the shifted complex-line symbol whose zero set
controls the Tauberian conclusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate

from .errors import DomainError, PoleError, StripViolationError
from .kernels import ProblemParams
from .specfun import gamma, legendre_p_cut

# poles of the continued transforms are excluded within this radius
POLE_EXCLUSION_RADIUS = 1e-6


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and layout for improper-integral evaluation."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    split_point: float = 1.0
    max_subdivisions: int = 60

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("quadrature tolerances must be positive")
        if not self.split_point > 0:
            raise DomainError("split_point must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


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
    """Quadrature value with its error estimate and convergence flag."""

    value: complex
    error: float
    converged: bool
    message: str = ""

    def require(self):
        """Return the value, or raise if the tolerance was not met."""
        if not self.converged:
            raise ArithmeticError(f"quadrature tolerance not met: {self.message}")
        return self.value


def _quad_piece(f, a, b, quad: QuadratureSpec):
    out = integrate.quad(
        f, a, b,
        epsabs=quad.abs_tol, epsrel=quad.rel_tol,
        limit=quad.max_subdivisions, full_output=1,
    )
    val, err = out[0], out[1]
    msg = out[3] if len(out) > 3 else ""
    return val, err, msg


def mellin_numeric(integrand, s, quad: QuadratureSpec, strip: MellinStrip) -> MellinResult:
    """Numeric Mellin transform int_0^inf f(u) u^{s-1} du.

    The integral is split at ``quad.split_point`` and the outer piece is
    mapped back to (0, 1/split] by the substitution u -> 1/u, so both pieces
    are proper up to integrable endpoint behavior.  ``s`` may be complex;
    the real and imaginary parts of u^{s-1} are integrated separately.

    Raises :class:`StripViolationError` when Re s is outside the declared
    strip of the integrand -- never returns silently in that case.
    """
    s = complex(s)
    if not strip.contains(s):
        raise StripViolationError(
            f"Re s = {s.real} outside declared strip ({strip.lower}, {strip.upper})"
        )
    a = quad.split_point
    sigma, tau = s.real, s.imag

    def inner(u, trig):
        base = integrand(u) * u ** (sigma - 1.0)
        return base * trig(tau * math.log(u)) if tau != 0.0 else base

    def outer(w, trig):
        # u = 1/w, du = -dw/w^2:  f(1/w) w^{-s-1}
        base = integrand(1.0 / w) * w ** (-sigma - 1.0)
        return base * trig(-tau * math.log(w)) if tau != 0.0 else base

    pieces = []
    msgs = []
    total_err = 0.0
    re_in, err, msg = _quad_piece(lambda u: inner(u, math.cos), 0.0, a, quad)
    pieces.append(re_in); total_err += err; msgs.append(msg)
    re_out, err, msg = _quad_piece(lambda w: outer(w, math.cos), 0.0, 1.0 / a, quad)
    pieces.append(re_out); total_err += err; msgs.append(msg)
    value = pieces[0] + pieces[1]
    if tau != 0.0:
        im_in, err, msg = _quad_piece(lambda u: inner(u, math.sin), 0.0, a, quad)
        total_err += err; msgs.append(msg)
        im_out, err, msg = _quad_piece(lambda w: outer(w, math.sin), 0.0, 1.0 / a, quad)
        total_err += err; msgs.append(msg)
        value = complex(value, im_in + im_out)
    message = "; ".join(m for m in msgs if m)
    converged = not message and total_err <= 10.0 * max(quad.abs_tol, quad.rel_tol * abs(value))
    return MellinResult(value=value, error=total_err, converged=converged, message=message)


def _check_not_pole(s, q, lam):
    s = complex(s)
    # gamma(s) poles at non-positive integers, gamma(2 lam - s) poles at 2 lam + m
    k = round(s.real)
    if abs(s.imag) < POLE_EXCLUSION_RADIUS and k <= 0 and abs(s.real - k) < POLE_EXCLUSION_RADIUS:
        raise PoleError(f"transform pole at s={s} (gamma(s))")
    m = round(s.real - 2.0 * lam)
    if (
        abs(s.imag) < POLE_EXCLUSION_RADIUS
        and m >= 0
        and abs(s.real - 2.0 * lam - m) < POLE_EXCLUSION_RADIUS
    ):
        raise PoleError(f"transform pole at s={s} (gamma(2 lam - s))")


def mellin_h_closed(lam, q, s, xi):
    """Closed-form Mellin transform of the subtracted kernel h(lam, q, ., xi).

        M(h, s) = -sqrt(pi) Gamma(s) Gamma(2 lam - s) / (2^{lam-1/2} Gamma(lam))
                  * (1 - xi^2)^{(1-2 lam)/4} * P^{1/2-lam}_{s-lam-1/2}(xi)

    Valid on the principal strip -q-1 < Re s < -q and, by meromorphic
    continuation, for all s away from the poles of the gamma factors.
    At xi = 1 the formula degenerates to -Gamma(s) Gamma(2 lam - s) /
    Gamma(2 lam), which is returned directly.
    """
    if not lam > 0:
        raise DomainError(f"lam must be > 0, got {lam}")
    q = int(q)
    _check_not_pole(s, q, lam)
    s = s if isinstance(s, complex) else float(s)
    if xi == 1.0:
        return -gamma(s) * gamma(2.0 * lam - s) / gamma(2.0 * lam)
    coef = -math.sqrt(math.pi) * gamma(s) * gamma(2.0 * lam - s) / (
        2.0 ** (lam - 0.5) * gamma(lam)
    )
    return coef * ((1.0 - xi) * (1.0 + xi)) ** ((1.0 - 2.0 * lam) / 4.0) * legendre_p_cut(
        s - lam - 0.5, 0.5 - lam, xi
    )


def mellin_k_closed(lam, s, xi):
    """Closed-form Mellin transform of the Riesz kernel on 0 < Re s < 2 lam.

    Uses the classical table identity in its raw gamma-quotient shape with
    order mu = 1/2 - lam and degree nu = s - lam - 1/2 (so agreement with
    :func:`mellin_h_closed` exercises the double-argument gamma identity).
    """
    if not lam > 0:
        raise DomainError(f"lam must be > 0, got {lam}")
    sc = complex(s)
    if not (0.0 < sc.real < 2.0 * lam):
        raise StripViolationError(
            f"Re s = {sc.real} outside the convergence strip (0, {2.0 * lam})"
        )
    if xi == 1.0:
        return gamma(s) * gamma(2.0 * lam - s) / gamma(2.0 * lam)
    mu = 0.5 - lam
    nu = (s if isinstance(s, complex) else float(s)) - lam - 0.5
    coef = gamma(1.0 - mu) * gamma(nu - mu + 1.0) * gamma(-mu - nu) / (
        2.0 ** mu * gamma(1.0 - 2.0 * mu)
    )
    return coef * ((1.0 - xi) * (1.0 + xi)) ** (mu / 2.0) * legendre_p_cut(nu, mu, xi)


class HnMellinForms(NamedTuple):
    """The two printed shapes of the order-point transform of h_n."""

    gamma_form: float
    factorial_form: float


def mellin_hn_at_order(params: ProblemParams, xi) -> HnMellinForms:
    """Mellin transform of h_n evaluated at s = -rho, in both printed shapes.

    gamma_form carries Gamma((n-2)/2) in the denominator, factorial_form
    carries (n-3)! and Gamma((n-1)/2); the two are convertible through the
    double-argument gamma identity and must agree to rounding.  Both equal
    mellin_h_closed(lam, q, -rho, xi) with lam = (n-2)/2.

    The overall sign is positive: the transform of h_n at the order point is
    a positive multiple of the Legendre factor (confirmed by quadrature; a
    sign slip in one traditional statement of the gamma_form is corrected
    here so the shapes agree).
    """
    n, rho = params.n, params.rho
    lam = params.lam
    prod = 1.0
    for k in range(1, n - 2):
        prod *= rho + k
    if xi == 1.0:
        legendre_factor = 2.0 ** ((3.0 - n) / 2.0) / gamma((n - 1.0) / 2.0)
    else:
        legendre_factor = ((1.0 - xi) * (1.0 + xi)) ** ((3.0 - n) / 4.0) * legendre_p_cut(
            -rho - (n - 1.0) / 2.0, (3.0 - n) / 2.0, xi
        )
    sin_pi_rho = math.sin(math.pi * rho)
    gamma_form = (
        math.pi * math.sqrt(math.pi) * 2.0 ** ((3.0 - n) / 2.0) * prod
        / (sin_pi_rho * gamma((n - 2.0) / 2.0))
    ) * legendre_factor
    factorial_form = (
        math.pi * 2.0 ** ((n - 3.0) / 2.0) * prod * gamma((n - 1.0) / 2.0)
        / (math.factorial(n - 3) * sin_pi_rho)
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
    phi = float(phi)
    if not (0.0 <= phi < math.pi):
        raise DomainError(f"phi must lie in [0, pi), got {phi}")
    s = -params.rho - 1j * v
    val = mellin_h_closed(params.lam, params.q, s, math.cos(phi) if phi > 0 else 1.0)
    return (1.0 - 1j * v) * val


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
        m = max(term1.size, term2.size)
        nxt = np.zeros(m)
        nxt[: term1.size] += term1
        nxt[: term2.size] += term2
        polys.append(nxt)
    return polys[order]


def mellin_ibp_numeric(lam, q, s, xi, quad: QuadratureSpec) -> MellinResult:
    """Transform of h computed through q+1 integrations by parts.

    Evaluates (-1)^q / prod_{k=0}^{q}(s+k) * int_0^inf u^{s+q}
    d^{q+1}/du^{q+1} (1+u^2+2 u xi)^(-lam) du, which converges on the wider
    strip -q-1 < Re s < 2 lam and therefore doubles as the analytic
    continuation of the direct transform.  Independent of
    :func:`mellin_numeric` apart from the shared quadrature backend.
    """
    if not lam > 0:
        raise DomainError(f"lam must be > 0, got {lam}")
    q = int(q)
    sc = complex(s)
    if not (-q - 1.0 < sc.real < 2.0 * lam):
        raise StripViolationError(
            f"Re s = {sc.real} outside the integrated-by-parts strip ({-q - 1.0}, {2.0 * lam})"
        )
    for k in range(q + 1):
        if abs(sc + k) < POLE_EXCLUSION_RADIUS:
            raise PoleError(f"s = {s} hits the pole at {-k}")
    coeffs = _derivative_polys(lam, xi, q + 1)

    def deriv(u):
        w = 1.0 + u * u + 2.0 * u * xi
        return w ** (-lam - (q + 1)) * float(np.polynomial.polynomial.polyval(u, coeffs))

    pref = (-1.0) ** q
    denom = 1.0
    for k in range(q + 1):
        denom *= sc + k
    shifted = sc + q + 1.0  # integrand is u^{(s+q+1)-1} * deriv
    res = mellin_numeric(deriv, shifted, quad, MellinStrip(0.0, 2.0 * lam + q + 1.0))
    value = pref * res.value / denom
    if abs(complex(value).imag) == 0.0:
        value = complex(value).real
    return MellinResult(value=value, error=res.error / abs(denom), converged=res.converged,
                        message=res.message)
