"""Special-function core.

Provides the gamma and digamma functions, the rising ratio (x+1)_m / m!,
Gegenbauer polynomials, the Gauss hypergeometric series 2F1 on [0, 1), and
the sine-weighted Ferrers function (1 - xi^2)^(mu/2) P^mu_nu(xi) at
x = (1 - xi)/2 for general (possibly complex) degree and order, which every
closed form of the package uses.

Everything here is deterministic: plain series with explicit tolerances,
no table interpolation.  A real scalar stays real: gamma of a real
argument is the standard library's :func:`math.gamma`, and digamma, the
rising ratio and the pole test run in float arithmetic; a complex argument
takes a fixed-coefficient Lanczos sum.  Target accuracy is 13-15
significant digits on the real axis, which is what the cross-check suites
downstream assume.
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

# The largest double at which gamma is finite: math.gamma overflows past it.
_GAMMA_MAX_ARG = 171.6243769563027

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


def _finite(z, name="special-function argument"):
    """z as a Python float, or as a complex for complex z, once z is known
    to be one finite number: a non-finite argument, or an array of any
    shape but 0-d, raises :class:`DomainError` naming it."""
    if not isinstance(z, (float, int, complex)):
        if np.ndim(z):
            raise DomainError(f"{name} must be one value, got an array of shape {np.shape(z)}")
        z = complex(z) if np.iscomplexobj(z) else float(z)
    if isinstance(z, complex):
        if cmath.isfinite(z):
            return complex(z)
    elif math.isfinite(z):
        return float(z)
    raise DomainError(f"{name} must be finite, got {z}")


def _is_nonpositive_integer(z):
    """True within 1e-12 of the poles of gamma; every gamma, rgamma, digamma
    and 2F1 parameter passes through here, so a non-finite one raises
    :class:`DomainError`."""
    z = _finite(z)
    if isinstance(z, complex):
        if abs(z.imag) > 1e-12:
            return False
        z = z.real
    k = round(z)
    return k <= 0 and abs(z - k) <= 1e-12


def _maybe_real(z):
    """Drop a numerically-zero imaginary part (exact zero only)."""
    if isinstance(z, complex) and z.imag == 0.0:
        return z.real
    return z


def gamma(z):
    """Gamma function for real or complex argument.

    A real argument takes :func:`math.gamma`, CPython's own Lanczos sum,
    evaluated in C and independent of the platform's libm: within about
    1e-15 relative on the real axis, where the complex sum below is off by
    up to 3e-13 (on accuracy, see Gil, Segura & Temme, *Numerical Methods
    for Special Functions*, SIAM 2007).  A complex argument takes a
    fixed-coefficient Lanczos sum, with reflection for Re z < 0.5.  Its
    power t^(z-1/2) e^(-t) is taken as p e^(-t) p with p = t^((z-1/2)/2),
    so no factor overflows while the product is finite.

    Raises :class:`PoleError` within 1e-12 of a non-positive integer, and
    :class:`DomainError` where the value, or the gamma(1 - z) of the
    reflection, overflows the double range: on the real axis for z past
    about 171.6, and for z below 0.5 whose 1 - z is past it, where gamma
    itself would underflow to zero.
    """
    zc = _finite(z)
    if _is_nonpositive_integer(zc):
        raise PoleError(f"gamma pole at z={z}")
    if isinstance(zc, float):
        if max(zc, 1.0 - zc) > _GAMMA_MAX_ARG:
            raise DomainError(f"gamma({z}) overflows the double range")
        return math.gamma(zc)
    if zc.real < 0.5:
        # reflection: gamma(z) = pi / (sin(pi z) * gamma(1 - z))
        return complex(np.pi / (np.sin(np.pi * zc) * gamma(1.0 - zc)))
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
    return complex(val)


def rgamma(z):
    """Reciprocal gamma 1/gamma(z); zero at the poles of gamma."""
    if _is_nonpositive_integer(z):
        return 0.0
    return 1.0 / gamma(z)


def digamma(x):
    """Logarithmic derivative of the gamma function.

    Accepts real or complex arguments; poles at non-positive integers.
    Reflection for Re x < 0.5, recurrence up to Re x >= 10, then the
    Bernoulli asymptotic series: in float arithmetic for a real argument,
    in complex arithmetic with numpy's tan and log for a complex one.
    """
    z = _finite(x)
    if _is_nonpositive_integer(z):
        raise PoleError(f"digamma pole at x={x}")
    if isinstance(z, complex):
        kind, tan, log, w = complex, np.tan, np.log, z
    else:
        # tan(pi z) = tan(pi (z - k)) with z - k exact for k = round(z);
        # next to a pole the rounding of pi z itself costs |z| / |z - k| ulps
        kind, tan, log, w = float, math.tan, math.log, z - round(z)
    if z.real < 0.5:
        return kind(digamma(1.0 - z) - np.pi / tan(np.pi * w))
    acc = 0.0
    while z.real < 10.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    tail = 0.0
    for c in reversed(_DIGAMMA_ASYMP):
        tail = (tail + c) * inv2
    return kind(acc + log(z) - 0.5 / z - tail)


def rising_ratio(x, m):
    """prod_{k=1}^{m} (1 + x/k) = (x+1)_m / m! (DLMF 5.2.5), elementwise.

    The factors are multiplied one at a time, so no partial product
    overflows where the result does not; every closed-form prefactor of
    the package forms its rising product over a factorial here.  ``x`` may
    be a scalar (a float is returned, from Python float arithmetic) or an
    ndarray.
    """
    m = check_integer(m, "number of factors m")
    if np.ndim(x) == 0:
        x, out = float(x), 1.0
    else:
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
    for k in range(1, m + 1):
        out *= 1.0 + x / k
    return out


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


# legendre_weighted raises F_nu by the degree recurrence from
# m = floor(nu + mu) = RECURRENCE_FROM on.  Below it the series at nu itself
# keeps every root of a zero set within 1e-12 for n <= 10 (at worst 8.5e-14
# on 84 draws at m = 2, against 1.3e-12 at m = 3 and 6.6e-12 at m = 4), and a
# zero set costs less than through the two start degrees (5.4 against 10 ms
# at n = 3, rho = 2.6, on a 2-vCPU x86 host).
RECURRENCE_FROM = 3

# Per-row coefficients are taken this many terms at a time, so a series
# calls numpy once per block of terms for them, not once per term.
COEF_BLOCK = 32

# Up to this many points, all rows of a 2F1 call go in one pass of each
# series; past it, each row goes in a call of its own.  Gathering the rows'
# term ratios point by point costs more than the numpy calls one pass saves
# there.  Timed with two rows on a 2-vCPU x86 host, the two break even at
# 1000-2000 points, and the 6282-point scan of a zero set at (6, 12.7)
# takes 2.4 ms a row at a time against 3.9 ms in one pass.
ONE_PASS_POINTS = 1024

# The log-case series takes its terms a block at a time up to this many
# points, and a check stride at a time past it.  Timed on a 2-vCPU x86 host,
# a stride at a time costs 7-14% more of a three-angle indicator_closed
# call, and a block at a time 5-20% more of a zero set, whose scan puts
# about a thousand points in the log case.
LOG_SPAN_POINTS = 128


def _per_row(values, row_of):
    """Per-row scalars at each point: gathered by each point's row, or, for
    one row (``row_of`` None), the scalar itself, so that a one-row call
    keeps Python's scalar-times-array arithmetic."""
    return values[0] if row_of is None else np.array(values)[row_of]


def _block_at_points(block, row_of):
    """A block of per-row coefficients, one column per row, at each point:
    the one column as it stands for one row, else gathered by each point's
    row."""
    return block[..., :1] if row_of is None else block[..., row_of]


def _ratio_blocks(rows):
    """The term ratios (a+k)(b+k) / ((c+k)(1+k)) of each real row (a, b, c),
    for k = 0, 1, ..., in blocks of shape (COEF_BLOCK, rows), all rows at
    once, in IEEE arithmetic as Python's scalars do."""
    a, b, c = (np.array(col, dtype=float) for col in zip(*rows))
    for k0 in itertools.count(0, COEF_BLOCK):
        k = np.arange(k0, k0 + COEF_BLOCK, dtype=float)[:, None]
        yield (a + k) * (b + k) / ((c + k) * (1.0 + k))


def _series_2f1(rows, row_of, x):
    """Plain power series for 2F1 at the real points x (0 <= x < 1), each
    with the parameters (a, b, c) of its row of ``rows``."""
    x = np.asarray(x)
    cplx = any(isinstance(v, complex) for row in rows for v in row)

    def terms():
        term = np.ones(x.shape, dtype=complex if cplx else float)
        if row_of is None:
            (a, b, c), = rows
            for k in itertools.count():
                yield term
                term = term * ((a + k) * (b + k) / ((c + k) * (1.0 + k))) * x
        for block in _ratio_blocks(rows):
            for ratio in block[:, row_of]:
                yield term
                term = term * ratio * x

    return sum_series(terms(), "2F1 series", lambda: "; ".join(
        f"a={a}, b={b}, c={c}" for a, b, c in rows) + f", worst |x|={float(np.max(np.abs(x)))}",
        SERIES_RTOL, SERIES_MAX_TERMS)


def _2f1_near_one_nonint(rows, row_of, x):
    """Connection formula at x -> 1 when c - a - b is not an integer, for
    rows (a, b, c) that share c."""
    w = 1.0 - x
    gc = gamma(rows[0][2])
    s = [c - a - b for a, b, c in rows]
    t1 = _per_row([gc * gamma(sr) * rgamma(c - a) * rgamma(c - b)
                   for (a, b, c), sr in zip(rows, s)], row_of) * _series_2f1(
        [(a, b, 1.0 - sr) for (a, b, c), sr in zip(rows, s)], row_of, w)
    t2 = _per_row([gc * gamma(-sr) * rgamma(a) * rgamma(b)
                   for (a, b, c), sr in zip(rows, s)], row_of) * np.exp(
        _per_row(s, row_of) * np.log(w)) * _series_2f1(
        [(c - a, c - b, 1.0 + sr) for (a, b, c), sr in zip(rows, s)], row_of, w)
    return t1 + t2


def _2f1_near_one_logcase(rows, row_of, m, x):
    """Connection formula at x -> 1 for c = a + b + m, integer m >= 0, one
    row per (a, b) of ``rows``."""
    w = 1.0 - x
    for a, b in rows:
        for arg in (a + m, b + m, a, b):
            if _is_nonpositive_integer(arg):
                raise ConvergenceError(
                    "2F1 near x=1: degenerate parameters (gamma pole) not supported"
                )
    cplx = any(isinstance(v, complex) for row in rows for v in row)
    dtype = complex if cplx else float
    # finite part, empty when m == 0
    part1 = np.zeros(w.shape, dtype=dtype)
    if m >= 1:
        def finite_coefs(a, b):
            coef = 1.0
            for k in range(m):
                yield coef
                if k < m - 1:
                    coef *= (a + k) * (b + k) / ((k + 1.0) * (1.0 - m + k))

        wk = np.ones(w.shape, dtype=dtype)
        for coef in _block_at_points(np.array([list(finite_coefs(a, b)) for a, b in rows]).T, row_of):
            part1 = part1 + coef * wk
            wk = wk * w
        part1 = (part1 * gamma(m) * _per_row([rgamma(a + m) for a, _ in rows], row_of)
                 * _per_row([rgamma(b + m) for _, b in rows], row_of))
    # logarithmic series
    lnw = np.log(w)

    def row_coefs(a, b):
        coef = 1.0 / math.prod(range(2, m + 1), start=1.0)  # (a+m)_0 (b+m)_0 / (0! m!)
        psi_a = digamma(a + m)
        psi_b = digamma(b + m)
        for k in itertools.count():
            yield coef, psi_a, psi_b
            coef *= (a + m + k) * (b + m + k) / ((k + 1.0) * (k + m + 1.0))
            psi_a += 1.0 / (a + m + k)
            psi_b += 1.0 / (b + m + k)

    def shared_coefs():
        psi_k1 = -EULER_GAMMA          # psi(1)
        psi_km1 = digamma(m + 1.0)
        for k in itertools.count():
            yield psi_k1, psi_km1
            psi_k1 += 1.0 / (k + 1.0)
            psi_km1 += 1.0 / (k + m + 1.0)

    def terms():
        # a few terms at once, each by the operations of one term alone (the
        # powers of w are real, and exact in a complex row too): a block at
        # a few points, where numpy's fixed cost per call dominates, and one
        # check stride at many, where terms computed past convergence cost
        # most (see LOG_SPAN_POINTS)
        span = COEF_BLOCK if w.size <= LOG_SPAN_POINTS else SERIES_CHECK_STRIDE
        rows_k, shared_k = [row_coefs(a, b) for a, b in rows], shared_coefs()
        wk = np.ones(w.shape)
        while True:
            coef, psi_a, psi_b = _block_at_points(np.array(
                [list(itertools.islice(it, span)) for it in rows_k]).transpose(2, 1, 0), row_of)
            psi_k1, psi_km1 = np.array(list(itertools.islice(shared_k, span))).T[..., None]
            wks = np.multiply.accumulate(np.vstack([wk, np.broadcast_to(w, (span - 1,) + w.shape)]))
            wk = wks[-1] * w
            yield from coef * wks * (lnw - psi_k1 - psi_km1 + psi_a + psi_b)

    total = sum_series(terms(), "2F1 log-case series", lambda: "; ".join(
        f"a={a}, b={b}" for a, b in rows) + f", m={m}, worst |1-x|={float(np.max(np.abs(w)))}",
        SERIES_RTOL, SERIES_MAX_TERMS)
    sign = -1.0 if m % 2 else 1.0
    part2 = _per_row([sign * rgamma(a) * rgamma(b) for a, b in rows], row_of) * np.exp(m * lnw) * total
    return _per_row([gamma(a + b + m) for a, b in rows], row_of) * (part1 - part2)


def _rows(a, b, c, x):
    """The rows (a, b) of a call, as Python scalars, and each point's row:
    a row is a run of points of x with one (a, b).  ``row_of`` is None for
    a single row, which keeps Python's scalar arithmetic.  Parameter arrays
    are real, and so is the c that goes with them."""
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return [(_maybe_real(a), _maybe_real(b))], None
    a, b = np.asarray(a), np.asarray(b)
    if np.iscomplexobj(a) or np.iscomplexobj(b) or isinstance(c, complex):
        raise DomainError("2F1 parameter arrays must be real, as must c next to them")
    if not x.ndim == 1 or a.shape != x.shape or b.shape != x.shape:
        raise DomainError(f"2F1 parameter arrays must be flat, as x is, and of its size {x.size}")
    new = np.empty(x.size, bool)
    new[:1] = True
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    rows = [(_maybe_real(a[i].item()), _maybe_real(b[i].item())) for i in np.flatnonzero(new)]
    return rows, None if len(rows) == 1 else np.cumsum(new) - 1


def hyp2f1(a, b, c, x):
    """Gauss hypergeometric function 2F1(a, b; c; x) for real x in [0, 1).

    Parameters a, b, c may be complex; c must not be a non-positive integer.
    ``x`` may be a scalar or an ndarray.  The power series is used up to
    x = 3/4 and the standard x -> 1-x connection formulas (including the
    logarithmic case for integer c - a - b >= 0) past it, so convergence
    stays geometric over the whole interval.  Unless a or b is a
    non-positive integer, where the series terminates, c - a - b must not
    be a negative integer: :class:`DomainError`.  Every caller of the
    package passes x = sin^2(theta/2) or 1 - x with c = 1 - mu or 1 + mu.

    ``a`` and ``b`` may also be real flat arrays of x's size, for a flat x
    and a real c.  A run of points with one (a, b) is a row; all rows must
    share c - a - b, and terminate all or none, so that each point takes
    the branch it would alone.  Each point's value equals by ``repr`` that
    of its one-row call: every series sums all rows in one pass, with each
    row's own scalar coefficients, and the connection formulas take their
    gammas row by row.
    At a few points, where numpy's fixed cost per operation dominates, two
    rows cost about what one does; past :data:`ONE_PASS_POINTS` points each
    row goes in its own call.
    """
    if _is_nonpositive_integer(c):
        raise PoleError(f"2F1 parameter pole: c={c}")
    x_arr = np.asarray(check_real(x, "2F1 argument x", 0.0, 1.0, "[)"))
    c = _maybe_real(c)
    rows, row_of = _rows(a, b, c, x_arr)
    if not rows:  # no points, and so no row
        return np.zeros(0, dtype=np.result_type(a, b, c, float))
    terminating = [_is_nonpositive_integer(ai) or _is_nonpositive_integer(bi) for ai, bi in rows]
    if len(rows) > 1:
        s = [complex(c - ai - bi) for ai, bi in rows]
        if any(t != terminating[0] or abs(si - s[0]) > 1e-12 * (1.0 + abs(s[0]))
               for t, si in zip(terminating, s)):
            raise DomainError("2F1 rows must share c - a - b and all terminate or none")
    if row_of is not None and x_arr.size > ONE_PASS_POINTS:
        ends = np.searchsorted(row_of, np.arange(len(rows) + 1))
        return np.concatenate([hyp2f1(ai, bi, c, x_arr[i:j])
                               for (ai, bi), i, j in zip(rows, ends[:-1], ends[1:])])
    cplx = isinstance(c, complex) or any(isinstance(v, complex) for row in rows for v in row)
    out = np.zeros(x_arr.shape, dtype=complex if cplx else float)

    def sub(mask):  # the rows of the points under mask
        return None if row_of is None else row_of[mask]

    if terminating[0]:
        out[...] = _series_2f1([(ai, bi, c) for ai, bi in rows], row_of, x_arr)
    else:
        a, b = rows[0]
        sc = complex(c - a - b)
        m = round(sc.real) if abs(sc.imag) < 1e-12 and abs(sc.real - round(sc.real)) < 1e-12 else None
        if m is not None and m < 0:
            raise DomainError(f"2F1 c - a - b must not be a negative integer, got {m} "
                              f"(a={a}, b={b}, c={c})")
        hi = x_arr > 0.75
        lo = ~hi
        if np.any(lo):
            out[lo] = _series_2f1([(ai, bi, c) for ai, bi in rows], sub(lo), x_arr[lo])
        if np.any(hi):
            xh = x_arr[hi]
            if m is None:
                out[hi] = _2f1_near_one_nonint([(ai, bi, c) for ai, bi in rows], sub(hi), xh)
            else:
                out[hi] = _2f1_near_one_logcase(rows, sub(hi), m, xh)

    if not np.all(np.isfinite(out)):
        raise ConvergenceError("2F1 evaluation produced a non-finite value")
    return _maybe_real(scalar_or_array(out))


def _legendre_f(d, mu, x):
    """F_d(x) = 2F1(-d, d+1; 1-mu; x) of :func:`legendre_weighted` at the
    points x, each with its own degree of ``d``; the degrees differ by
    integers, and all points go in one :func:`hyp2f1` call.

    Integer degrees d >= -mu give Jacobi polynomials, whose sums in x cancel
    near x = 1.  There they are summed in 1 - x instead, by the reflection
    P^(a,b)_d(-xi) = (-1)^d P^(b,a)_d(xi) (DLMF 18.6.1):

        F_d(x) = (-1)^d (1+mu)_d / (1-mu)_d * 2F1(-d, d+1; 1+mu; 1-x),

    or, for an integer mu, where 1 + mu is a pole, by the parity of the
    Ferrers functions of integer degree and order:

        F_d(x) = (-1)^(d+mu) (x / (1-x))^mu F_d(1-x).
    """
    if not d.size or d[0] != round(d[0]):
        return hyp2f1(-d, d + 1.0, 1.0 - mu, x)
    near = x > 0.75
    sign = (-1.0) ** d[near]
    if mu == round(mu):
        out = hyp2f1(-d, d + 1.0, 1.0 - mu, np.where(near, 1.0 - x, x))
        out[near] *= sign * (-1.0) ** mu * (x[near] / (1.0 - x[near])) ** mu
        return out
    if not near.any():
        return hyp2f1(-d, d + 1.0, 1.0 - mu, x)
    out = np.empty_like(x)
    out[~near] = hyp2f1(-d[~near], d[~near] + 1.0, 1.0 - mu, x[~near])
    dn = d[near]
    ratio = {k: rising_ratio(mu, k) / rising_ratio(-mu, k) for k in set(dn.tolist())}
    out[near] = (sign * np.array([ratio[k] for k in dn.tolist()])
                 * hyp2f1(-dn, dn + 1.0, 1.0 + mu, 1.0 - x[near]))
    return out


def legendre_weighted(nu, mu, x):
    """Weighted Ferrers function (1 - xi^2)^(mu/2) P^mu_nu(xi) at the
    half-angle variable x = (1 - xi)/2 = sin^2(theta/2), 0 <= x < 1.

    The weight cancels the prefactor of P^mu_nu analytically:

        (1 - xi^2)^(mu/2) P^mu_nu(xi) = (2 (1 - x))^mu / Gamma(1 - mu)
                                         * F_nu(x),
        F_nu(x) = 2F1(-nu, nu+1; 1-mu; x),

    so the axis x = 0 gives 2^mu / Gamma(1 - mu) with no 0 * inf limit.
    Taking x rather than xi keeps the precision of a caller that has
    sin^2(theta/2) directly.  Every closed form of the package goes through
    this function.

    At large degree the series of F_nu cancels: its terms grow to about
    nu^(2k) / (k!)^2 before they fall.  So for real nu and mu < 1 with
    m = floor(nu + mu) >= :data:`RECURRENCE_FROM`, F is summed only at the
    degrees nu - m and nu - m + 1, and raised to nu by the three-term degree
    recurrence (DLMF 14.10.3; Gil, Segura & Temme, *Numerical Methods for
    Special Functions*, SIAM 2007, ch. 4), which the weight, free of nu,
    passes to F:

        (v - mu + 1) F_{v+1} = (2v + 1) xi F_v - (v + mu) F_{v-1},

    with xi = 1 - 2x.  Every coefficient v - mu + 1 is at least 2 - 2 mu,
    so none vanishes.  Next to x = 1, where (nu + 1/2)^2 (1 - x) is below
    mu^2 - 1/4, the low degrees lie before the turning point of Legendre's
    equation and the recurrence through them loses digits; there F_nu is
    summed itself, by the connection formula, in few terms.  Both start
    degrees and those points go in one :func:`hyp2f1` call.  For
    2 <= m < RECURRENCE_FROM, and for an integer degree from m = 0 on,
    F_nu is summed itself at every point, an integer degree in 1 - x near
    x = 1 (see :func:`_legendre_f`).  Complex parameters, mu >= 1, m < 0
    and a non-integer degree at m <= 1 take the one series as it stands.

    A positive integer mu is a pole of the 2F1 here and raises
    :class:`PoleError`.  ``x`` may be a scalar or ndarray.
    """
    x = check_real(x, "legendre_weighted argument x", 0.0, 1.0, "[)")
    x1 = np.atleast_1d(x)
    _finite(nu)
    _finite(mu)
    weight = rgamma(1.0 - mu) * (2.0 * (1.0 - x1)) ** mu
    real = not (isinstance(nu, complex) or isinstance(mu, complex))
    m = math.floor(nu + mu) if real and mu < 1.0 else -1
    if not (0 if real and nu == round(nu) else 2) <= m <= SERIES_MAX_TERMS:
        return scalar_or_array(weight * hyp2f1(-nu, nu + 1.0, 1.0 - mu, x1), x)
    x1 = x1.reshape(-1)  # scalar_or_array gives the result x's shape
    if m < RECURRENCE_FROM:
        f = _legendre_f(np.full(x1.size, nu), mu, x1)
    else:
        f = _degree_recurrence(nu, mu, m, x1)
    return scalar_or_array(weight * f.reshape(weight.shape), x)


def _degree_recurrence(nu, mu, m, x):
    """F_nu of :func:`legendre_weighted` at the flat points x: raised from
    the degrees nu - m and nu - m + 1 by the three-term recurrence, and
    summed itself next to x = 1."""
    near = (x > 0.75) & ((nu + 0.5) ** 2 * (1.0 - x) < mu * mu - 0.25)
    x_far, x_near = x[~near], x[near]
    k = x_far.size
    v = nu - m + 1.0  # the degree of g
    f = _legendre_f(np.repeat([v - 1.0, v, nu], [k, k, x_near.size]), mu,
                    np.concatenate([x_far, x_far, x_near]))
    g_prev, g = f[:k], f[k:2 * k]
    xi = 1.0 - 2.0 * x_far
    for _ in range(m - 1):
        g_prev, g = g, ((2.0 * v + 1.0) * xi * g - (v + mu) * g_prev) / (v - mu + 1.0)
        v += 1.0
    if x_near.size:
        f_far, g = g, np.empty_like(x)
        g[~near], g[near] = f_far, f[2 * k:]
    if not np.all(np.isfinite(g)):
        raise ConvergenceError("Legendre degree recurrence produced a non-finite value")
    return g
