"""Self-contained special-function core.

Provides the gamma and digamma functions, the rising ratio (x+1)_m / m!,
Gegenbauer polynomials, the Gauss hypergeometric series 2F1, and
associated Legendre functions of the first kind on the cut -1 < x < 1 for
general (possibly complex) degree and order, with their sine-weighted form
that every closed form of the package uses.

Everything here is deterministic: fixed-coefficient approximations and plain
series with explicit tolerances, no table interpolation.  Target accuracy is
13-15 significant digits on the real axis, which is what the cross-check
suites downstream assume.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .errors import (ConvergenceError, DomainError, PoleError, check_integer, check_real,
                     scalar_or_array)

EULER_GAMMA = 0.57721566490153286061

# Relative tolerance and iteration cap for all series in this module.
SERIES_RTOL = 1e-13
SERIES_MAX_TERMS = 10**6

# Every series in the package tests for convergence on every eighth term
# only: the test costs several array operations, a term only a few.
SERIES_CHECK_STRIDE = 8

# Lanczos rational approximation, g = 607/128, 15 terms (Godfrey's
# coefficient set).  Gives ~15 significant digits on the real axis.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_SQRT_TWO_PI = 2.5066282746310005024

# B_{2n}/(2n) for the digamma asymptotic tail.
_DIGAMMA_ASYMP = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def _is_nonpositive_integer(z, tol=1e-12):
    """True at the poles of gamma; every gamma, rgamma, digamma and 2F1
    parameter passes through here, so a non-finite one raises
    :class:`DomainError`."""
    zc = complex(z)
    if not cmath.isfinite(zc):
        raise DomainError(f"special-function argument must be finite, got {z}")
    if abs(zc.imag) > tol:
        return False
    k = round(zc.real)
    return k <= 0 and abs(zc.real - k) <= tol


def _maybe_real(z):
    """Drop a numerically-zero imaginary part (exact zero only)."""
    if isinstance(z, complex) and z.imag == 0.0:
        return z.real
    return z


def gamma(z):
    """Gamma function for real or complex argument.

    Uses the fixed-coefficient Lanczos approximation with reflection for
    Re z < 0.5.  The power t^(z-1/2) e^(-t) is taken as p e^(-t) p with
    p = t^((z-1/2)/2), so no factor overflows while the product is finite.
    Raises :class:`PoleError` at non-positive integers and
    :class:`DomainError` where the value overflows the double range, from
    about z = 171.6 on the real axis.
    """
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z={z}")
    zc = complex(z)
    if zc.real < 0.5:
        # reflection: gamma(z) = pi / (sin(pi z) * gamma(1 - z))
        val = np.pi / (np.sin(np.pi * zc) * gamma(1.0 - zc))
        return _as_input_kind(val, z)
    w = zc - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    try:
        p = t ** ((w + 0.5) / 2.0)
    except OverflowError:
        p = math.inf  # from z = 256 on; the product is infinite too
    with np.errstate(over="ignore", invalid="ignore"):
        val = _SQRT_TWO_PI * acc * p * np.exp(-t) * p
    if not np.isfinite(val):
        raise DomainError(f"gamma({z}) overflows the double range")
    return _as_input_kind(val, z)


def _as_input_kind(val, z):
    if isinstance(z, complex) or (hasattr(z, "imag") and np.iscomplexobj(z)):
        return complex(val)
    return float(val.real) if isinstance(val, complex) else float(val)


def rgamma(z):
    """Reciprocal gamma 1/gamma(z); zero at the poles of gamma."""
    if _is_nonpositive_integer(z):
        return 0.0
    return 1.0 / gamma(z)


def digamma(x):
    """Logarithmic derivative of the gamma function.

    Accepts real or complex arguments; poles at non-positive integers.
    Reflection for Re x < 0.5, recurrence up to Re x >= 10, then the
    Bernoulli asymptotic series.
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x={x}")
    z = complex(x)
    if z.real < 0.5:
        val = digamma(1.0 - z) - np.pi / np.tan(np.pi * z)
        return _as_input_kind(complex(val), x)
    acc = 0.0 + 0.0j
    while z.real < 10.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    tail = 0.0 + 0.0j
    for c in reversed(_DIGAMMA_ASYMP):
        tail = (tail + c) * inv2
    val = acc + np.log(z) - 0.5 / z - tail
    return _as_input_kind(complex(val), x)


def rising_ratio(x, m):
    """prod_{k=1}^{m} (1 + x/k) = (x+1)_m / m! (DLMF 5.2.5), elementwise.

    The factors are multiplied one at a time, so no partial product
    overflows where the result does not; every closed-form prefactor of
    the package forms its rising product over a factorial here.  ``x`` may
    be a scalar (a float is returned) or an ndarray.
    """
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for k in range(1, check_integer(m, "number of factors m") + 1):
        out *= 1.0 + x / k
    return scalar_or_array(out)


def gegenbauer_terms(lam, xi):
    """Yield the Gegenbauer polynomials G^lam_0(xi), G^lam_1(xi), ... in
    turn, by the three-term recurrence; ``xi`` a scalar or an ndarray.
    """
    xi = np.asarray(xi, dtype=float)
    gm2, gm1 = np.ones_like(xi), 2.0 * lam * xi
    yield gm2
    for k in itertools.count(2):
        yield gm1
        gm2, gm1 = gm1, (2.0 * (k + lam - 1.0) * xi * gm1 - (k + 2.0 * lam - 2.0) * gm2) / k


def gegenbauer(lam, j, xi):
    """Gegenbauer polynomial G^lam_j(xi).

    Coefficient of t^j in the expansion of (1 - 2 t xi + t^2)^(-lam).
    ``xi`` may be a scalar or ndarray.  Requires lam > 0.
    """
    lam = check_real(lam, "Gegenbauer exponent lam", 0.0, math.inf, "()")
    j = check_integer(j, "Gegenbauer degree j")
    return scalar_or_array(next(itertools.islice(gegenbauer_terms(lam, xi), j, None)))


def sum_series(terms, name, detail, rtol, max_terms, first=0):
    """Sum of the series whose terms, from index ``first`` on, the iterator
    ``terms`` yields as arrays of one shape; the one loop of the package
    that sums a series.

    Every point stops on its own, at the first index k > ``first`` that is
    a multiple of :data:`SERIES_CHECK_STRIDE` where its last two terms are
    at most ``rtol`` times its partial sum, and keeps the sum it has there;
    so a point's value does not depend on the other points of the call.  If
    a point is still open at index ``max_terms``, the call raises
    :class:`ConvergenceError` "<name> did not converge within <max_terms>
    terms (<detail()>)".
    """
    for k, term in zip(range(first, max_terms), terms):
        if k == first:
            total, out, open_ = np.zeros_like(term), np.empty_like(term), np.ones(term.shape, bool)
        total += term
        if k > first and k % SERIES_CHECK_STRIDE == 0:
            bound = rtol * np.maximum(np.abs(total), 1e-300)
            done = (np.maximum(np.abs(prev), np.abs(term)) <= bound) & open_
            if np.count_nonzero(done):
                np.putmask(out, done, total)
                open_ ^= done
            if not np.count_nonzero(open_):
                return out
        prev = term
    raise ConvergenceError(f"{name} did not converge within {max_terms} terms ({detail()})")


def _series_2f1(a, b, c, x):
    """Plain power series for 2F1 at argument array x (|x| < 1)."""
    x = np.asarray(x)
    cplx = any(isinstance(v, complex) for v in (a, b, c)) or np.iscomplexobj(x)

    def terms():
        term = np.ones(x.shape, dtype=complex if cplx else float)
        for k in itertools.count():
            yield term
            term = term * ((a + k) * (b + k) / ((c + k) * (1.0 + k))) * x

    return sum_series(terms(), "2F1 series", lambda: (
        f"a={a}, b={b}, c={c}, worst |x|={float(np.max(np.abs(x)))}"), SERIES_RTOL, SERIES_MAX_TERMS)


def _2f1_near_one_nonint(a, b, c, x):
    """Connection formula at x -> 1 when c - a - b is not an integer."""
    s = c - a - b
    w = 1.0 - x
    t1 = gamma(c) * gamma(s) * rgamma(c - a) * rgamma(c - b) * _series_2f1(a, b, 1.0 - s, w)
    t2 = gamma(c) * gamma(-s) * rgamma(a) * rgamma(b) * np.exp(
        s * np.log(w)
    ) * _series_2f1(c - a, c - b, 1.0 + s, w)
    return t1 + t2


def _2f1_near_one_logcase(a, b, m, x):
    """Connection formula at x -> 1 for c = a + b + m, integer m >= 0."""
    w = 1.0 - x
    c = a + b + m
    for arg in (a + m, b + m, a, b):
        if _is_nonpositive_integer(arg):
            raise ConvergenceError(
                "2F1 near x=1: degenerate parameters (gamma pole) not supported"
            )
    cplx = any(isinstance(v, complex) for v in (a, b))
    dtype = complex if cplx else float
    # finite part, empty when m == 0
    part1 = np.zeros(w.shape, dtype=dtype)
    if m >= 1:
        coef = 1.0
        wk = np.ones(w.shape, dtype=dtype)
        for k in range(m):
            part1 = part1 + coef * wk
            if k < m - 1:
                coef *= (a + k) * (b + k) / ((k + 1.0) * (1.0 - m + k))
                wk = wk * w
        part1 = part1 * gamma(m) * rgamma(a + m) * rgamma(b + m)
    # logarithmic series
    lnw = np.log(w)

    def terms():
        coef = 1.0 / math.prod(range(2, m + 1), start=1.0)  # (a+m)_0 (b+m)_0 / (0! m!)
        wk = np.ones(w.shape, dtype=dtype)
        psi_a = digamma(a + m)
        psi_b = digamma(b + m)
        psi_k1 = -EULER_GAMMA          # psi(1)
        psi_km1 = digamma(m + 1.0)
        for k in itertools.count():
            yield coef * wk * (lnw - psi_k1 - psi_km1 + psi_a + psi_b)
            coef *= (a + m + k) * (b + m + k) / ((k + 1.0) * (k + m + 1.0))
            wk = wk * w
            psi_k1 += 1.0 / (k + 1.0)
            psi_km1 += 1.0 / (k + m + 1.0)
            psi_a += 1.0 / (a + m + k)
            psi_b += 1.0 / (b + m + k)

    total = sum_series(terms(), "2F1 log-case series", lambda: (
        f"a={a}, b={b}, m={m}, worst |1-x|={float(np.max(np.abs(w)))}"), SERIES_RTOL, SERIES_MAX_TERMS)
    sign = -1.0 if m % 2 else 1.0
    part2 = sign * rgamma(a) * rgamma(b) * np.exp(m * lnw) * total
    return gamma(a + b + m) * (part1 - part2)


def hyp2f1(a, b, c, x):
    """Gauss hypergeometric function 2F1(a, b; c; x) for real x in (-1, 1).

    Parameters a, b, c may be complex; c must not be a non-positive integer.
    ``x`` may be a scalar or an ndarray.  The power series is used on the
    central range, the Pfaff transformation for x < -1/2 and the standard
    x -> 1-x connection formulas (including the logarithmic case for integer
    c - a - b) near the right endpoint, so convergence stays geometric over
    the whole open interval.
    """
    if _is_nonpositive_integer(c):
        raise PoleError(f"2F1 parameter pole: c={c}")
    x_arr = np.asarray(check_real(x, "2F1 argument x", -1.0, 1.0, "()"))
    a = _maybe_real(a)
    b = _maybe_real(b)
    c = _maybe_real(c)
    cplx = any(isinstance(v, complex) for v in (a, b, c))
    out = np.zeros(x_arr.shape, dtype=complex if cplx else float)

    terminating = _is_nonpositive_integer(a) or _is_nonpositive_integer(b)
    if terminating:
        out[...] = _series_2f1(a, b, c, x_arr)
    else:
        lo = x_arr < -0.5
        hi = x_arr > 0.75
        mid = ~(lo | hi)
        if np.any(mid):
            out[mid] = _series_2f1(a, b, c, x_arr[mid])
        if np.any(lo):
            xl = x_arr[lo]
            y = xl / (xl - 1.0)
            pref = np.exp(-a * np.log1p(-xl))
            out[lo] = pref * _series_2f1(a, c - b, c, y)
        if np.any(hi):
            xh = x_arr[hi]
            s = c - a - b
            sc = complex(s)
            if abs(sc.imag) < 1e-12 and abs(sc.real - round(sc.real)) < 1e-12:
                m = int(round(sc.real))
                if m >= 0:
                    out[hi] = _2f1_near_one_logcase(a, b, m, xh)
                else:
                    # Euler transformation flips c-a-b to -m > 0
                    pref = np.exp(s * np.log1p(-xh))
                    out[hi] = pref * _2f1_near_one_logcase(c - a, c - b, -m, xh)
            else:
                out[hi] = _2f1_near_one_nonint(a, b, c, xh)

    if not np.all(np.isfinite(out)):
        raise ConvergenceError("2F1 evaluation produced a non-finite value")
    return _maybe_real(scalar_or_array(out))


def legendre_weighted(nu, mu, x):
    """Weighted Ferrers function (1 - xi^2)^(mu/2) P^mu_nu(xi) at the
    half-angle variable x = (1 - xi)/2 = sin^2(theta/2), 0 <= x < 1.

    The weight cancels the prefactor of P^mu_nu analytically:

        (1 - xi^2)^(mu/2) P^mu_nu(xi) = (2 (1 - x))^mu / Gamma(1 - mu)
                                         * 2F1(-nu, nu+1; 1-mu; x),

    so the axis x = 0 gives 2^mu / Gamma(1 - mu) with no 0 * inf limit.
    Taking x rather than xi keeps the precision of a caller that has
    sin^2(theta/2) directly.  Every closed form of the package goes through
    this function.  A positive integer mu is a pole of the 2F1 here;
    :func:`legendre_p_cut` recurs in the order for those.  ``x`` may be a
    scalar or ndarray.
    """
    x = check_real(x, "legendre_weighted argument x", 0.0, 1.0, "[)")
    x1 = np.atleast_1d(x)
    out = rgamma(1.0 - mu) * (2.0 * (1.0 - x1)) ** mu * hyp2f1(-nu, nu + 1.0, 1.0 - mu, x1)
    return scalar_or_array(out, x)


def legendre_p_cut(nu, mu, xi):
    """Associated Legendre function of the first kind P^mu_nu(xi) on the cut.

    Standard representation

        P^mu_nu(xi) = ((1+xi)/(1-xi))^(mu/2) / Gamma(1-mu)
                      * 2F1(-nu, nu+1; 1-mu; (1-xi)/2),

    valid for -1 < xi < 1, evaluated as (1 - xi^2)^(-mu/2) times
    :func:`legendre_weighted`.  When 1-mu is a non-positive integer (mu a
    positive integer) the prefactor degenerates and the value is obtained
    instead through the order-raising recurrence from mu-1, which avoids the
    0/0 limit.  Degree symmetry P^mu_nu = P^mu_{-nu-1} is inherited from the
    symmetry of the hypergeometric series.

    ``xi`` may be a scalar or ndarray strictly inside (-1, 1).
    """
    xi_arr = check_real(xi, "legendre_p_cut argument xi", -1.0, 1.0, "()")
    xi_arr = np.atleast_1d(xi_arr)
    if not (np.isfinite(complex(nu)) and np.isfinite(complex(mu))):
        raise DomainError(f"legendre_p_cut requires finite degree and order, got {nu}, {mu}")
    nu = _maybe_real(nu)
    mu = _maybe_real(mu)

    muc = complex(mu)
    if abs(muc.imag) < 1e-12 and muc.real >= 1.0 and abs(muc.real - round(muc.real)) < 1e-12:
        # 1-mu hits a gamma pole; raise the order by recurrence instead:
        # sqrt(1-xi^2) P^{m}_nu = (nu-m+2) P^{m-1}_{nu+1} - (nu+m) xi P^{m-1}_nu
        m = round(muc.real)
        p_up = legendre_p_cut(nu + 1.0, m - 1.0, xi_arr)
        p_same = legendre_p_cut(nu, m - 1.0, xi_arr)
        out = ((nu - m + 2.0) * p_up - (nu + m) * xi_arr * p_same) / np.sqrt(1.0 - xi_arr**2)
    else:
        weight = ((1.0 - xi_arr) * (1.0 + xi_arr)) ** (-mu / 2.0)
        out = weight * legendre_weighted(nu, mu, (1.0 - xi_arr) / 2.0)

    if not np.all(np.isfinite(out)):
        raise ConvergenceError("legendre_p_cut produced a non-finite value")
    return _maybe_real(scalar_or_array(out, xi))
