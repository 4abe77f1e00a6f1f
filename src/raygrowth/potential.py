"""Potentials built directly from mass profiles on the negative axis.

Mass models (power law, perturbed, slowly varying, atomic), their counting
and averaged counting functions, the canonical kernel integral and the
Poisson-type representation of the potential, finite-radius sweeps probing
the scaled limits and mass ratios, and the oscillating two-term potential
showing what fails on the exceptional angles.

All radial profiles live on (t0, infinity) with t0 >= 1: the closed unit
ball carries no mass.  A profile that is positive at its support edge t0
implies a boundary atom of raw mass t0^{n-2} n(t0+) there; the canonical
integral, the counting functions and the averaged counting function all
account for that atom consistently (dropping it would shift the potential
by an O(1) amount that the cross-representation check at 1e-4 would see).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, ParseError
from .indicator import angular_shape
from .kernels import ProblemParams, h_value, poisson_Pn
from .mellin import QuadratureSpec, integrate

_E = math.e

# Slowly-varying building blocks: name -> (f, f', default support start).
# Support starts are chosen so the handle is finite and nonnegative-where-
# it-matters from the edge on.  Each handle maps arrays elementwise.
HANDLES: dict[str, tuple[Callable, Callable, float]] = {
    "one": (lambda t: 1.0, lambda t: 0.0, 1.0),
    "log": (lambda t: np.log(t), lambda t: 1.0 / t, 1.0),
    "loglog": (lambda t: np.log(np.log(t)), lambda t: 1.0 / (t * np.log(t)), _E),
    "sin_loglog": (
        lambda t: np.sin(np.log(np.log(t))),
        lambda t: np.cos(np.log(np.log(t))) / (t * np.log(t)),
        _E,
    ),
    "inv_log": (lambda t: 1.0 / np.log(t), lambda t: -1.0 / (t * np.log(t) ** 2), _E),
    "inv_loglog": (
        lambda t: 1.0 / np.log(np.log(t)),
        lambda t: -1.0 / (t * np.log(t) * np.log(np.log(t)) ** 2),
        math.exp(_E),
    ),
}


def _resolve_handle(name: str):
    try:
        return HANDLES[name]
    except KeyError:
        raise DomainError(
            f"unknown slowly-varying handle {name!r}; available: {sorted(HANDLES)}"
        ) from None


class MassModel:
    """Base class for mass distributions on the negative axis.

    Density models implement ``profile`` (the normalized counting function
    t -> n(t) for t > t0) and ``profile_derivative``, both elementwise on
    arrays of radii; the atomic model overrides the bookkeeping wholesale.
    """

    t0: float = 1.0

    def profile(self, t):
        raise NotImplementedError

    def profile_derivative(self, t):
        raise NotImplementedError

    @property
    def is_atomic(self) -> bool:
        return False

    @property
    def order(self) -> float | None:
        """Growth order of the counting function, when the model has one."""
        return None


@dataclass(frozen=True)
class PowerLaw(MassModel):
    """Counting function n(t) = delta t^rho beyond the unit ball."""

    delta: float
    rho: float
    t0: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise DomainError(f"delta must be >= 0, got {self.delta}")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise DomainError(f"rho must be > 0, got {self.rho}")
        if self.t0 < 1.0:
            raise DomainError("mass support must start at radius >= 1")

    def profile(self, t):
        return self.delta * t ** self.rho

    def profile_derivative(self, t):
        return self.delta * self.rho * t ** (self.rho - 1.0)

    @property
    def order(self):
        return self.rho


@dataclass(frozen=True)
class Perturbed(MassModel):
    """n(t) = delta t^rho (1 + eps(t)) with eps a named slowly-varying handle."""

    delta: float
    rho: float
    eps: str = "inv_log"
    t0: float = 0.0  # 0 means: use the handle's default support start

    def __post_init__(self):
        f, df, default_t0 = _resolve_handle(self.eps)
        if self.t0 == 0.0:
            object.__setattr__(self, "t0", default_t0)
        if self.t0 < 1.0:
            raise DomainError("mass support must start at radius >= 1")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise DomainError(f"delta must be >= 0, got {self.delta}")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise DomainError(f"rho must be > 0, got {self.rho}")

    def profile(self, t):
        f, _, _ = _resolve_handle(self.eps)
        return self.delta * t ** self.rho * (1.0 + f(t))

    def profile_derivative(self, t):
        f, df, _ = _resolve_handle(self.eps)
        return self.delta * (
            self.rho * t ** (self.rho - 1.0) * (1.0 + f(t)) + t ** self.rho * df(t)
        )

    @property
    def order(self):
        return self.rho


@dataclass(frozen=True)
class SlowlyVarying(MassModel):
    """n(t) = t^rho psi1(t) with psi1 a named slowly-varying handle."""

    rho: float
    psi1: str = "log"
    t0: float = 0.0

    def __post_init__(self):
        f, df, default_t0 = _resolve_handle(self.psi1)
        if self.t0 == 0.0:
            object.__setattr__(self, "t0", default_t0)
        if self.t0 < 1.0:
            raise DomainError("mass support must start at radius >= 1")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise DomainError(f"rho must be > 0, got {self.rho}")

    def profile(self, t):
        f, _, _ = _resolve_handle(self.psi1)
        return t ** self.rho * f(t)

    def profile_derivative(self, t):
        f, df, _ = _resolve_handle(self.psi1)
        return self.rho * t ** (self.rho - 1.0) * f(t) + t ** self.rho * df(t)

    @property
    def order(self):
        return self.rho


@dataclass(frozen=True)
class Atomic(MassModel):
    """Finitely many point masses (t_i > 1, mass_i > 0), stored sorted.

    ``radii`` and ``masses`` hold the same atoms as arrays, in the same
    order, built once.
    """

    atoms: tuple
    radii: np.ndarray = field(init=False, repr=False, compare=False)
    masses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cleaned = tuple(sorted((float(t), float(m)) for t, m in self.atoms))
        if not cleaned:
            raise DomainError("atomic model needs at least one atom")
        for t, m in cleaned:
            if t <= 1.0:
                raise DomainError(f"atom radius must be > 1, got {t}")
            if m <= 0.0:
                raise DomainError(f"atom mass must be > 0, got {m}")
        radii, masses = np.array(cleaned).T
        object.__setattr__(self, "atoms", cleaned)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "t0", cleaned[0][0])

    @property
    def is_atomic(self):
        return True


def counting_n(model: MassModel, n: int, t):
    """Normalized counting function n(t) = t^{2-n} * (raw mass within radius t).

    Zero through the mass-free region t <= t0.  For density models the
    profile is the counting function itself (dimension-independent); for the
    atomic model the raw mass of the atoms with t_i <= t, a prefix sum of
    the sorted masses, is scaled by t^{2-n}.
    """
    if n < 3 or int(n) != n:
        raise DomainError(f"dimension n must be an integer >= 3, got {n}")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any(t_arr < 0):
        raise DomainError("radius t must be >= 0")
    if model.is_atomic:
        mass = np.concatenate(([0.0], np.cumsum(model.masses)))
        out = mass[np.searchsorted(model.radii, t_arr, side="right")]
        np.divide(out, t_arr ** (n - 2), out=out, where=t_arr > 0)
    else:
        out = np.zeros_like(t_arr)
        live = t_arr > model.t0
        out[live] = model.profile(t_arr[live])
    return float(out[0]) if scalar else out


def average_N(model: MassModel, n: int, r, quad: QuadratureSpec | None = None,
              full_output: bool = False):
    """Averaged counting function N(r) = (n-2) int_0^r t^{1-n} (raw mass in B_t) dt.

    ``r`` is a radius or an array of radii; a scalar gives a scalar.
    Power-law and atomic models use exact antiderivatives (the power law
    picks up the truncation term -(n-2) delta / rho from the mass-free unit
    ball); other density models are integrated numerically as
    (n-2) int n(t)/t dt = (n-2) int n(t0 e^z) dz with z = log(t/t0), which
    removes the scale disparity of many-decade ranges.  An array of radii
    takes one quadrature call that integrates from t0 to every radius side
    by side.  (A running sum over the gaps between sorted radii would need
    gaps a few ulps wide where the radii cluster, and tanh-sinh flags or
    returns nan on those.)  With ``full_output`` returns (N, error
    estimate, converged); the exact models report (N, 0, True).
    """
    if n < 3 or int(n) != n:
        raise DomainError(f"dimension n must be an integer >= 3, got {n}")
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    if np.any(r_arr < 0):
        raise DomainError("radius r must be >= 0")
    out = np.zeros_like(r_arr)
    err = np.zeros_like(r_arr)
    ok = True
    if model.is_atomic:
        # sum of mass_i (t_i^{2-n} - r^{2-n}) over the k atoms with t_i < r
        t_at, m_at = model.radii, model.masses
        k = np.searchsorted(t_at, r_arr)
        mass = np.concatenate(([0.0], np.cumsum(m_at)))
        moment = np.concatenate(([0.0], np.cumsum(m_at * t_at ** (2 - n))))
        live = k > 0
        out[live] = moment[k[live]] - mass[k[live]] * r_arr[live] ** (2 - n)
    else:
        live = r_arr > model.t0
        if isinstance(model, PowerLaw):
            out[live] = (n - 2) * model.delta * (r_arr[live] ** model.rho - model.t0 ** model.rho) / model.rho
        elif np.any(live):
            t0 = model.t0
            res = integrate(lambda z: model.profile(t0 * np.exp(z)), 0.0,
                            np.log(r_arr[live] / t0), quad or QuadratureSpec())
            out[live] = (n - 2) * res.value
            err[live] = (n - 2) * res.error
            ok = res.converged
    if scalar:
        out, err = float(out[0]), float(err[0])
    return (out, err, ok) if full_output else out


def u_canonical(model: MassModel, params: ProblemParams, r: float, theta1: float,
                quad: QuadratureSpec | None = None, full_output: bool = False):
    """Potential from the canonical kernel integral.

    u(r, theta1) = int t^{2-n} h_n(r/t, theta1, q) d(t^{n-2} n(t)).

    Atomic models sum mass_i times the canonical kernel exactly (through the
    numerically robust t^{2-n} h_n(r/t) form of it).  Density models add the
    boundary-atom term n(t0+) h_n(r/t0) and integrate the density
    d/dt[t^{n-2} n(t)]: over (t0, r] in log(t/t0), and beyond max(t0, r)
    as u = r/t over a finite interval, so no truncation is involved.  Near
    u = 0 that piece behaves like u^{q-rho} for a model of order rho, and is
    integrated with the power substitution k = 1/min(1, q+1-rho).  With
    ``full_output`` returns (u, error estimate, converged).
    """
    theta1 = float(theta1)
    if not (0.0 <= theta1 < math.pi):
        raise DomainError(f"theta1 must lie in [0, pi), got {theta1}")
    r = float(r)
    if r < 0:
        raise DomainError("radius r must be >= 0")
    if quad is None:
        quad = QuadratureSpec()
    lam, q, n = params.lam, params.q, params.n
    xi = math.cos(theta1) if theta1 > 0.0 else 1.0
    if r == 0.0:
        return (0.0, 0.0, True) if full_output else 0.0

    def h(u):
        return h_value(lam, q, u, xi)

    if model.is_atomic:
        t_arr = model.radii
        total = float(np.sum(model.masses * t_arr ** (2 - n) * h(r / t_arr)))
        return (total, 0.0, True) if full_output else total

    t0 = model.t0
    total = float(model.profile(t0) * h(r / t0))  # boundary atom, raw mass t0^{n-2} n(t0+)

    def qw(t):
        return (n - 2) * model.profile(t) + t * model.profile_derivative(t)

    pieces = []
    if r > t0:
        # t = t0 e^z, dt/t = dz
        pieces.append(integrate(lambda z: h(r / t0 * np.exp(-z)) * qw(t0 * np.exp(z)),
                                0.0, math.log(r / t0), quad))
    d = q + 1.0 - model.order
    pieces.append(integrate(lambda u: h(u) * qw(r / u) / u, 0.0, min(1.0, r / t0), quad,
                            power=1.0 / min(1.0, d) if d > 0 else 1.0))
    total += sum(p.value for p in pieces)
    err = sum(p.error for p in pieces)
    ok = all(p.converged for p in pieces)
    return (total, err, ok) if full_output else total


def u_poisson(model: MassModel, n: int, r: float, theta1: float,
              quad: QuadratureSpec | None = None, full_output: bool = False):
    """Potential through the Poisson-type representation

    u = int_0^inf P_n(r, t, theta1) N(t) dt / (r^2 + 2 r t cos(theta1) + t^2)^{n/2+1},

    valid for masses of order below 1 and 0 <= theta1 <= pi/2.  Uses the
    same averaged counting function as :func:`average_N`, so agreement with
    :func:`u_canonical` is a genuine two-representation cross-check.  Each
    evaluation of the integrand takes N at all its nodes in one array call.
    The piece t >= r is integrated in w = r/t, where it behaves like
    w^{-rho} for a model of order rho (power substitution k = 1/(1-rho)).
    With ``full_output`` returns (u, error estimate, converged); the
    estimate adds N's own error estimates carried through the same
    representation.
    """
    theta1 = float(theta1)
    if not (0.0 <= theta1 <= math.pi / 2):
        raise DomainError(f"theta1 must lie in [0, pi/2], got {theta1}")
    ordr = model.order
    if ordr is not None and ordr >= 1.0:
        raise DomainError(f"Poisson representation needs order < 1, got {ordr}")
    r = float(r)
    if r <= 0:
        return (0.0, 0.0, True) if full_output else 0.0
    if quad is None:
        quad = QuadratureSpec()
    c = math.cos(theta1)
    lo = model.t0
    inner_ok = []

    def averaged(t, part):
        # part 0 is N(t), part 1 its error estimate.  t = r/w overflows to inf
        # where w underflows; the value is left nan there, and the quadrature
        # takes the value at the nearest finite node
        out = np.full(t.shape, np.nan)
        fin = np.isfinite(t)
        res = average_N(model, n, t[fin], quad, full_output=True)
        out[fin] = res[part]
        inner_ok.append(res[2])
        return out

    def integrals(part):
        def near(z):
            # t = lo e^z <= r, scaled by powers of r: P_n(r, t) = r^{n+1} P_n(1, t/r);
            # dt = t dz
            t = lo * np.exp(z)
            u = t / r
            pn = poisson_Pn(n, 1.0, u, theta1)
            return pn * averaged(t, part) * u / (1.0 + 2.0 * u * c + u * u) ** (n / 2.0 + 1.0)

        def far(w):
            # t = r/w >= r branch, scaled by powers of t: P_n(r, t) = t^{n+1} P_n(r/t, 1);
            # integrand * dt with dt = r dw / w^2
            t = r / w
            pn = poisson_Pn(n, w, 1.0, theta1)
            f_t = pn * averaged(t, part) / (t * (1.0 + 2.0 * w * c + w * w) ** (n / 2.0 + 1.0))
            return f_t * r / (w * w)

        out = [integrate(far, 0.0, min(1.0, r / lo), quad,
                         power=1.0 / (1.0 - ordr) if ordr is not None else 1.0)]
        if lo < r:
            out.append(integrate(near, 0.0, math.log(r / lo), quad))
        return out

    pieces = integrals(0)
    total = float(sum(p.value for p in pieces))
    if not full_output:
        return total
    err = sum(p.error for p in pieces) + abs(sum(p.value for p in integrals(1)))
    return total, err, all(p.converged for p in pieces) and all(inner_ok)


class SweepSample(NamedTuple):
    r: float
    theta1: float
    u: float
    scaled: float          # u * r^{-rho}
    u_over_n: float
    u_over_N: float


@dataclass(frozen=True)
class SweepResult:
    """Radial sweep with extrapolated limits and convergence diagnostics.

    ``extrapolated_limit`` refers to the scaled column u r^{-rho};
    ``extrapolated_un`` / ``extrapolated_uN`` to the mass-ratio columns.
    The convergence flag is set only when the last three scaled values agree
    pairwise within the sweep tolerance.  ``quadrature_flags`` counts the
    calls of :func:`u_canonical` and :func:`average_N` whose quadrature did
    not meet its tolerance.
    """

    samples: tuple
    extrapolated_limit: float
    extrapolated_un: float
    extrapolated_uN: float
    convergence_flag: bool
    diagnostics: str
    quadrature_flags: int


def _aitken(values):
    """Aitken delta-squared extrapolation from the last three entries.

    Assumes errors decay geometrically (as they do for power-tail mass
    profiles on a geometric radial grid); falls back to the last value when
    the measured difference ratio is not a contraction.
    """
    if len(values) < 3:
        return float(values[-1])
    v0, v1, v2 = values[-3], values[-2], values[-1]
    d1, d2 = v1 - v0, v2 - v1
    if d1 == 0.0 or not (np.isfinite(d1) and np.isfinite(d2)):
        return float(v2)
    s = d2 / d1
    if not np.isfinite(s) or abs(s) >= 0.99:
        return float(v2)
    return float(v2 + d2 * s / (1.0 - s))


def _resolve_grid(r_grid):
    if isinstance(r_grid, tuple) and len(r_grid) == 3:
        lo, hi, num = r_grid
        grid = np.geomspace(lo, hi, int(num))
    else:
        grid = np.asarray(r_grid, dtype=float)
    if grid.size < 5:
        raise DomainError("radial grid needs at least 5 points")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("radial grid must be strictly increasing")
    return grid


def _sweep(model, params, theta1, r_grid, quad, sweep_tol):
    grid = _resolve_grid(r_grid)
    if quad is None:
        quad = QuadratureSpec()
    N_grid, _, ok_N = average_N(model, params.n, grid, quad, full_output=True)
    n_grid = counting_n(model, params.n, grid)
    rows = []
    flagged = int(not ok_N)
    for r, Nr, nr in zip(grid, N_grid.tolist(), n_grid.tolist()):
        u, _, ok = u_canonical(model, params, float(r), theta1, quad, full_output=True)
        flagged += not ok
        rows.append(SweepSample(
            r=float(r), theta1=float(theta1), u=u,
            scaled=u * r ** (-params.rho),
            u_over_n=u / nr if nr > 0 else math.nan,
            u_over_N=u / Nr if Nr > 0 else math.nan,
        ))
    scaled = [s.scaled for s in rows]
    tail = scaled[-3:]
    scale = max(1e-300, max(abs(v) for v in tail))
    converged = all(
        abs(a - b) < sweep_tol * max(1.0, scale)
        for i, a in enumerate(tail) for b in tail[i + 1:]
    )
    un = [s.u_over_n for s in rows if np.isfinite(s.u_over_n)]
    uN = [s.u_over_N for s in rows if np.isfinite(s.u_over_N)]
    diag = (
        f"{len(rows)} radii in [{grid[0]:g}, {grid[-1]:g}]; "
        f"{flagged} quadrature flags; tail spread "
        f"{max(tail) - min(tail):.3e} against tolerance {sweep_tol:g}"
    )
    return SweepResult(
        samples=tuple(rows),
        extrapolated_limit=_aitken(scaled),
        extrapolated_un=_aitken(un) if un else math.nan,
        extrapolated_uN=_aitken(uN) if uN else math.nan,
        convergence_flag=converged,
        diagnostics=diag,
        quadrature_flags=flagged,
    )


def scaled_limit(model: MassModel, params: ProblemParams, theta1, r_grid,
                 quad: QuadratureSpec | None = None, sweep_tol: float = 0.05) -> SweepResult:
    """Sweep of r^{-rho} u(r, theta1) over a geometric radial grid.

    The scaled values converge to the directional indicator when the model's
    counting function is asymptotically delta t^rho; the returned
    extrapolated limit applies one Aitken delta-squared step to the tail
    (errors decay geometrically on a geometric grid, which is exactly
    Aitken's model).  ``r_grid`` is either an increasing array or a
    (lo, hi, num) tuple.
    """
    return _sweep(model, params, theta1, r_grid, quad, sweep_tol)


def ratio_probe(model: MassModel, params: ProblemParams, theta1, r_grid,
                quad: QuadratureSpec | None = None, sweep_tol: float = 0.05) -> SweepResult:
    """Sweep of u/n(r) and u/N(r) along a direction.

    Requires the counting function to be positive on the whole grid.  For
    the power-law model the extrapolated ratios reproduce the closed-form
    limits of :func:`raygrowth.indicator.ratio_limits`; for other models
    they land between the integral sandwich bounds.
    """
    grid = _resolve_grid(r_grid)
    if counting_n(model, params.n, float(grid[0])) <= 0.0:
        raise DomainError("ratio probe needs a model with mass inside the smallest grid radius")
    return _sweep(model, params, theta1, r_grid, quad, sweep_tol)


def counterexample_u0(rho: float, r, theta1: float):
    """Oscillating potential r^rho (1 + sin(ln ln r) P_rho(cos theta1)).

    Defined for r > e (so the doubled logarithm exists) in dimension 3.
    Along the axis the scaled value oscillates with amplitude 1 between 0
    and 2; on the angle where the degree-rho Legendre factor vanishes it is
    identically r^rho -- the two behaviors that bracket what a one-direction
    growth assumption can and cannot force.
    """
    if not (0.0 < rho < 1.0):
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    if np.any(r_arr < _E):
        raise DomainError("counterexample needs r >= e")
    theta1 = float(theta1)
    if not (0.0 <= theta1 < math.pi):
        raise DomainError(f"theta1 must lie in [0, pi), got {theta1}")
    legendre_factor = angular_shape(3, rho, theta1)  # P_rho(cos theta1)
    out = r_arr ** rho * (1.0 + np.sin(np.log(np.log(r_arr))) * legendre_factor)
    return float(out[0]) if scalar else out


def laplacian_u0(rho: float, r: float, theta1: float,
                 h_r_scale: float = 1e-4, h_theta: float = 1e-4):
    """Second-difference Laplacian of the oscillating potential (dimension 3).

    Radial-latitudinal spherical form

        lap u = u_rr + (2/r) u_r + (u_tt + cot(theta) u_t) / r^2,

    with steps h_r = r * h_r_scale and h_theta; on the axis the angular part
    is replaced by its regularized limit 2 u_tt.  The analytic leading terms
    are r^{rho-2} [rho (rho+1) + (2 rho + 1) cos(ln ln r) P_rho / ln r + ...],
    so the estimate must come out positive at large radii; a step-size
    failure (estimate below the rounding floor) raises instead of returning
    noise.
    """
    r = float(r)
    if r < _E:
        raise DomainError("counterexample needs r >= e")
    theta1 = float(theta1)
    hr = r * h_r_scale
    u = lambda rr, th: counterexample_u0(rho, rr, th)
    u00 = u(r, theta1)
    u_r = (u(r + hr, theta1) - u(r - hr, theta1)) / (2 * hr)
    u_rr = (u(r + hr, theta1) - 2 * u00 + u(r - hr, theta1)) / (hr * hr)
    ht = h_theta
    if theta1 < ht:
        # axis limit: u_t vanishes by symmetry and the angular part tends to
        # 2 u_tt, with u_tt = 2 (u(h) - u(0)) / h^2 from the even reflection
        angular = 4.0 * (u(r, theta1 + ht) - u00) / (ht * ht)
    else:
        hi = min(ht, 0.5 * (math.pi - theta1))
        u_t = (u(r, theta1 + hi) - u(r, theta1 - hi)) / (2 * hi)
        u_tt = (u(r, theta1 + hi) - 2 * u00 + u(r, theta1 - hi)) / (hi * hi)
        angular = u_tt + u_t / math.tan(theta1)
    lap = u_rr + 2.0 * u_r / r + angular / (r * r)
    noise_floor = 8.0 * np.finfo(float).eps * abs(u00) * (1.0 / (hr * hr) + 1.0 / (ht * ht) / (r * r))
    if abs(lap) < noise_floor:
        raise ConvergenceError(
            f"finite-difference Laplacian below rounding floor ({lap:.3e} vs {noise_floor:.3e})"
        )
    return lap


# ---------------------------------------------------------------------------
# declarative mass-model text format

def parse_mass_model(text: str) -> MassModel:
    """Parse the line-oriented mass-model format.

    One declaration per line: ``powerlaw delta=1.0 rho=0.5``,
    ``perturbed delta=1.0 rho=0.5 eps=inv_log``,
    ``slowlyvarying rho=0.5 psi=log``, or repeated
    ``atom t=2.0 mass=3.0`` lines.  '#' starts a comment.
    """
    atoms = []
    model = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        kv = {}
        for p in parts[1:]:
            if "=" not in p:
                raise ParseError(f"expected key=value, got {p!r}", line=lineno)
            k, v = p.split("=", 1)
            kv[k.strip()] = v.strip()

        def num(key, default=None):
            if key not in kv:
                if default is None:
                    raise ParseError(f"{kind} needs {key}=", line=lineno)
                return default
            try:
                return float(kv[key])
            except ValueError:
                raise ParseError(f"bad number for {key}: {kv[key]!r}", line=lineno) from None

        if kind == "atom":
            atoms.append((num("t"), num("mass")))
        elif kind in ("powerlaw", "perturbed", "slowlyvarying"):
            if model is not None:
                raise ParseError("only one density declaration allowed", line=lineno)
            try:
                if kind == "powerlaw":
                    model = PowerLaw(delta=num("delta"), rho=num("rho"), t0=num("t0", 1.0))
                elif kind == "perturbed":
                    model = Perturbed(delta=num("delta"), rho=num("rho"),
                                      eps=kv.get("eps", "inv_log"), t0=num("t0", 0.0))
                else:
                    model = SlowlyVarying(rho=num("rho"), psi1=kv.get("psi", "log"),
                                          t0=num("t0", 0.0))
            except DomainError as exc:
                raise ParseError(str(exc), line=lineno) from None
        else:
            raise ParseError(f"unknown declaration {kind!r}", line=lineno)
    if model is not None and atoms:
        raise ParseError("mixing a density declaration with atom lines is not supported")
    if model is not None:
        return model
    if atoms:
        try:
            return Atomic(atoms=tuple(atoms))
        except DomainError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError("empty mass-model text")


def format_mass_model(model: MassModel) -> str:
    """Inverse of :func:`parse_mass_model` (canonical spelling)."""
    if isinstance(model, PowerLaw):
        return f"powerlaw delta={model.delta!r} rho={model.rho!r} t0={model.t0!r}\n"
    if isinstance(model, Perturbed):
        return f"perturbed delta={model.delta!r} rho={model.rho!r} eps={model.eps} t0={model.t0!r}\n"
    if isinstance(model, SlowlyVarying):
        return f"slowlyvarying rho={model.rho!r} psi={model.psi1} t0={model.t0!r}\n"
    if isinstance(model, Atomic):
        return "".join(f"atom t={t!r} mass={m!r}\n" for t, m in model.atoms)
    raise DomainError(f"unknown mass model {type(model).__name__}")
