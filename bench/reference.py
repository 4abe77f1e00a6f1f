"""Reference values computed in mpmath, apart from raygrowth.

Nothing here imports raygrowth: every function restates the mathematics
from its definition and evaluates it at ``DPS`` decimal digits, so a fault
in the library cannot leak into the value it is checked against.
"""

from __future__ import annotations

import mpmath as mp

DPS = 32
mp.mp.dps = DPS


def _xi(theta):
    """cos(theta1), with the axis taken as exactly 1 as the library does."""
    return mp.mpf(1) if theta == 0 else mp.cos(mp.mpf(theta))


def shape(n, rho, theta):
    """Latitude factor S(theta) = (sin theta)^mu P^mu_nu(cos theta) on the cut,
    mu = (3-n)/2, nu = rho + (n-3)/2, written through the Ferrers function
    P^mu_nu(x) = ((1+x)/(1-x))^(mu/2) / Gamma(1-mu) 2F1(-nu, nu+1; 1-mu; (1-x)/2)."""
    mu = mp.mpf(3 - n) / 2
    nu = mp.mpf(rho) + mp.mpf(n - 3) / 2
    th = mp.mpf(theta)
    return (1 + mp.cos(th)) ** mu * mp.rgamma(1 - mu) * _hyp2f1(-nu, nu + 1, 1 - mu, mp.sin(th / 2) ** 2)


def _hyp2f1(a, b, c, x):
    """Gauss 2F1 for 0 <= x < 1.  Below x = 0.999 the power series is summed
    directly: mpmath's own dispatcher switches to the 1-x connection formula
    from x = 0.8 on, which for integer c-a-b (odd n) takes a limit that costs
    up to a second per value near a zero."""
    if x > mp.mpf("0.999"):
        return mp.hyp2f1(a, b, c, x)
    coeffs, types = zip(*(mp.mp._convert_param(v) for v in (a, b, c)))
    return mp.mp.hypsum(2, 1, types, list(coeffs), x, maxterms=10**6)


def indicator(n, rho, delta, theta):
    """H(theta1) = pi 2^((n-3)/2) Gamma((n-1)/2) prod_{k=1}^{n-2}(rho+k) Delta
    / ((n-3)! sin(pi rho)) * S(theta1)."""
    rho = mp.mpf(rho)
    prod = mp.fprod(rho + k for k in range(1, n - 1))
    coef = (mp.pi * mp.mpf(2) ** (mp.mpf(n - 3) / 2) * mp.gamma(mp.mpf(n - 1) / 2) * prod
            * mp.mpf(delta) / (mp.factorial(n - 3) * mp.sinpi(rho)))
    return coef * shape(n, rho, theta)


def ratio_limits(n, rho, theta):
    """Limits of u/n(r) and u/N(r) for the power law, from their printed products."""
    rho = mp.mpf(rho)
    base = mp.pi * mp.mpf(2) ** (mp.mpf(n - 3) / 2) * mp.gamma(mp.mpf(n - 1) / 2) / mp.sinpi(rho)
    prod_n = mp.fprod(rho + k for k in range(1, n - 1))
    prod_N = mp.fprod(rho + k for k in range(0, n - 1))
    s = shape(n, rho, theta)
    return base * prod_n / mp.factorial(n - 3) * s, base * prod_N / mp.factorial(n - 2) * s


def sign_change_near(n, rho, theta, half_width):
    """True when S changes sign on [theta - w, theta + w] (a root is near)."""
    a = shape(n, rho, max(theta - half_width, 0.0))
    b = shape(n, rho, theta)
    c = shape(n, rho, theta + half_width)
    return a * b <= 0 or b * c <= 0


def refine_root(n, rho, guess, half_width=1e-6):
    """Root of S bracketed in [guess - w, guess + w], refined by the Illinois
    rule to full working precision.  Returns None when S does not change sign
    across the bracket (the guess is not within w of a simple root)."""
    a, b = mp.mpf(guess) - mp.mpf(half_width), mp.mpf(guess) + mp.mpf(half_width)
    fa, fb = shape(n, rho, a), shape(n, rho, b)
    if fa * fb >= 0:
        return None
    tol = mp.mpf(10) ** (-DPS + 4)
    for _ in range(200):
        c = b - fb * (b - a) / (fb - fa)
        if abs(c - b) < tol * abs(c):
            return c
        fc = shape(n, rho, c)
        if fc == 0:
            return c
        if fc * fb < 0:
            a, fa = b, fb
        else:
            fa = fa / 2
        b, fb = c, fc
    raise ArithmeticError("root refinement did not converge")


def order_rhs(n, rho):
    """Gamma(n-1-rho) / ((n-2)! Gamma(1-rho)) * pi rho / sin(pi rho)."""
    rho = mp.mpf(rho)
    return mp.gamma(n - 1 - rho) / (mp.factorial(n - 2) * mp.gamma(1 - rho)) * mp.pi * rho / mp.sinpi(rho)


def order_root(n, delta_bar, guess):
    """rho in (0, 1) with order_rhs(n, rho) = delta_bar, by secant from guess."""
    target = mp.mpf(delta_bar)
    return mp.findroot(lambda r: order_rhs(n, r) - target, (mp.mpf(guess), mp.mpf(guess) * (1 + mp.mpf("1e-6"))),
                       solver="secant", tol=mp.mpf(10) ** (-2 * DPS + 8))


def order_extrema(n, nodes):
    """Least and greatest order_rhs over the given float grid nodes."""
    vals = [order_rhs(n, x) for x in nodes]
    return min(vals), max(vals)


class AtomicSums:
    """u, n and N for finitely many point masses, as exact finite sums.

    t^{2-n} h(r/t) = -(t^2 + r^2 + 2 r t xi)^{-lam} + sum_{j<=q} G_j(xi) (-r)^j t^{2-n-j},
    so the polynomial part collapses to the moments sum_i m_i t_i^{2-n-j}.
    """

    def __init__(self, atoms, n, q):
        self.atoms = [(mp.mpf(t), mp.mpf(m)) for t, m in atoms]
        self.n = n
        self.q = q
        self.lam = mp.mpf(n - 2) / 2
        self.moments = [mp.fsum(m * t ** (2 - n - j) for t, m in self.atoms) for j in range(q + 1)]

    def u(self, r, theta):
        r = mp.mpf(r)
        xi = _xi(theta)
        newton = mp.fsum(m * (t * t + r * r + 2 * r * t * xi) ** (-self.lam) for t, m in self.atoms)
        poly = mp.fsum(mp.gegenbauer(j, self.lam, xi) * (-r) ** j * self.moments[j] for j in range(self.q + 1))
        return poly - newton

    def counting_n(self, r):
        r = mp.mpf(r)
        return mp.fsum(m for t, m in self.atoms if t <= r) * r ** (2 - self.n)

    def average_N(self, r):
        r = mp.mpf(r)
        return mp.fsum(m * (t ** (2 - self.n) - r ** (2 - self.n)) for t, m in self.atoms if t < r)


def _h_genus0(lam, s, xi):
    """1 - (1 + s^2 + 2 s xi)^(-lam) without cancellation at small s."""
    return -mp.expm1(-lam * mp.log1p(s * (s + 2 * xi)))


class DensityPotential:
    """Canonical integral of a density model of genus 0 (0 < rho < 1).

    u(r) = n(t0+) h(r/t0) + int_{t0}^inf h(r/t) d/dt[t^{n-2} n(t)] t^{2-n} dt,
    with n(t) = delta t^rho (power law, t0 = 1) or
    delta t^rho (1 + 1/log t) (perturbed by inv_log, t0 = e).
    """

    def __init__(self, kind, n, rho, delta):
        if not 0 < rho < 1:
            raise ValueError("density references cover genus 0 only")
        self.kind = kind
        self.n = n
        self.rho = mp.mpf(rho)
        self.delta = mp.mpf(delta)
        self.lam = mp.mpf(n - 2) / 2
        self.t0 = mp.mpf(1) if kind == "powerlaw" else mp.e

    def profile(self, t):
        base = self.delta * t ** self.rho
        return base if self.kind == "powerlaw" else base * (1 + 1 / mp.log(t))

    def weight(self, t):
        """(n-2) n(t) + t n'(t), the density of t^{n-2} n(t) times t^{3-n}."""
        rho, d = self.rho, self.delta
        if self.kind == "powerlaw":
            return (self.n - 2 + rho) * d * t ** rho
        lg = mp.log(t)
        return d * t ** rho * ((self.n - 2 + rho) * (1 + 1 / lg) - 1 / (lg * lg))

    def u(self, r, theta):
        r = mp.mpf(r)
        xi = _xi(theta)
        lam, t0 = self.lam, self.t0
        total = self.profile(t0) * _h_genus0(lam, r / t0, xi)
        errs = []
        if r > t0:
            # t in (t0, r] in log radius, t = e^y
            inner, err = mp.quad(lambda y: _h_genus0(lam, r * mp.exp(-y), xi) * self.weight(mp.exp(y)),
                                 [mp.log(t0), mp.log(r)], error=True)
            total += inner
            errs.append(err)
        # t = r/s for t > max(t0, r); s = w^m removes the s^{-rho} endpoint singularity
        m = 1 / (1 - self.rho)
        s_hi = min(mp.mpf(1), r / t0)

        def outer(w):
            s = w ** m
            return _h_genus0(lam, s, xi) * self.weight(r / s) / s * m * w ** (m - 1)

        outer_val, err = mp.quad(outer, [0, s_hi ** (1 / m)], error=True)
        errs.append(err)
        total += outer_val
        return total, max(errs)

    def counting_n(self, r):
        r = mp.mpf(r)
        return self.profile(r) if r > self.t0 else mp.mpf(0)

    def average_N(self, r):
        """(n-2) int_{t0}^r n(t)/t dt, in closed form (exponential integral)."""
        r = mp.mpf(r)
        if r <= self.t0:
            return mp.mpf(0)
        rho, d = self.rho, self.delta
        main = d * (r ** rho - self.t0 ** rho) / rho
        if self.kind == "perturbed":
            main += d * (mp.ei(rho * mp.log(r)) - mp.ei(rho))
        return (self.n - 2) * main
