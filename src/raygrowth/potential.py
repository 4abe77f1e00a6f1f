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
import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import DomainError, ParseError, check_real, check_scalar, scalar_or_array
from .indicator import angular_shape
from .kernels import ProblemParams, check_dimension, check_one_angle, h_value, poisson_Pn
from .mellin import QuadratureSpec, integrate

_E = math.e

# below r = 2^-200 t0 a potential is taken through its homogeneity in r
_HOMOGENEOUS_EXP = -200

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

    The density models define ``profile`` (the normalized counting function
    t -> n(t) for t > t0) and ``profile_derivative``, both elementwise on
    arrays of radii, and have the growth order ``rho``; :class:`Atomic`
    carries point masses instead.  A density model's init fields are the
    keys of its declaration in the mass-model text format.
    """

    t0: float = 1.0


def _check_density(model, delta: float = 0.0, handle: str | None = None):
    """Checks shared by the density models, run from their ``__post_init__``.

    A ``handle`` model's t0 of 0 is replaced by the handle's support start.
    Then delta >= 0, rho > 0, a finite t0 >= 1, and a counting function that
    is finite and >= 0 at t0, where it sets the boundary atom's mass.
    """
    if handle is not None:
        _, _, start = _resolve_handle(handle)
        if model.t0 == 0.0:
            object.__setattr__(model, "t0", start)
    check_real(delta, "delta", 0.0)
    check_real(model.rho, "order rho", 0.0, math.inf, "()")
    check_real(model.t0, "support start t0", 1.0)
    with np.errstate(all="ignore"):
        edge = float(model.profile(model.t0))
    if not (np.isfinite(edge) and edge >= 0.0):
        raise DomainError(f"counting function at the support edge t0={model.t0} must be "
                          f"finite and >= 0, got {edge}")


@dataclass(frozen=True)
class PowerLaw(MassModel):
    """Counting function n(t) = delta t^rho beyond the unit ball."""

    delta: float
    rho: float
    t0: float = 1.0

    def __post_init__(self):
        _check_density(self, self.delta)

    def profile(self, t):
        return self.delta * t ** self.rho

    def profile_derivative(self, t):
        return self.delta * self.rho * t ** (self.rho - 1.0)


@dataclass(frozen=True)
class Perturbed(MassModel):
    """n(t) = delta t^rho (1 + eps(t)) with eps a named slowly-varying handle."""

    delta: float
    rho: float
    eps: str = "inv_log"
    t0: float = 0.0  # 0 means: use the handle's default support start

    def __post_init__(self):
        _check_density(self, self.delta, self.eps)

    def profile(self, t):
        f, _, _ = _resolve_handle(self.eps)
        return self.delta * t ** self.rho * (1.0 + f(t))

    def profile_derivative(self, t):
        f, df, _ = _resolve_handle(self.eps)
        return self.delta * (
            self.rho * t ** (self.rho - 1.0) * (1.0 + f(t)) + t ** self.rho * df(t)
        )


@dataclass(frozen=True)
class SlowlyVarying(MassModel):
    """n(t) = t^rho psi(t) with psi a named slowly-varying handle."""

    rho: float
    psi: str = "log"
    t0: float = 0.0  # 0 means: use the handle's default support start

    def __post_init__(self):
        _check_density(self, handle=self.psi)

    def profile(self, t):
        f, _, _ = _resolve_handle(self.psi)
        return t ** self.rho * f(t)

    def profile_derivative(self, t):
        f, df, _ = _resolve_handle(self.psi)
        return self.rho * t ** (self.rho - 1.0) * f(t) + t ** self.rho * df(t)


@dataclass(frozen=True)
class Atomic(MassModel):
    """Finitely many point masses (t_i > 1, mass_i > 0), stored sorted.

    ``radii`` and ``masses`` hold the same atoms as arrays, in the same
    order, built once; :meth:`from_arrays` builds the model from them.
    """

    atoms: tuple
    radii: np.ndarray = field(init=False, repr=False, compare=False)
    masses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._store(*np.array(self.atoms, dtype=float).reshape(len(self.atoms), 2).T)

    @classmethod
    def from_arrays(cls, radii, masses) -> Atomic:
        """The model of the atoms (radii[i], masses[i]), checked and sorted
        as ``atoms`` is, with no tuple of pairs in between."""
        model = object.__new__(cls)
        model._store(np.asarray(radii, dtype=float), np.asarray(masses, dtype=float))
        return model

    def _store(self, t, m):
        if not t.size:
            raise DomainError("atomic model needs at least one atom")
        order = np.lexsort((m, t))  # by radius, then mass
        radii, masses = t[order], m[order]
        bad_t = ~(np.isfinite(radii) & (radii > 1.0))
        bad = bad_t | ~(np.isfinite(masses) & (masses > 0.0))
        if bad.any():
            # + 0.0: a -0.0 and a 0.0 sort as equals, and either prints as 0.0
            i = int(np.argmax(bad))
            if bad_t[i]:
                raise DomainError(f"atom radius must be finite and > 1, got {radii[i].item() + 0.0}")
            raise DomainError(f"atom mass must be finite and > 0, got {masses[i].item() + 0.0}")
        object.__setattr__(self, "atoms", tuple(zip(radii.tolist(), masses.tolist())))
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "t0", radii[0].item())


def counting_n(model: MassModel, n: int, t):
    """Normalized counting function n(t) = t^{2-n} * (raw mass within radius t).

    Zero through the mass-free region t <= t0.  For density models the
    profile is the counting function itself (dimension-independent); for the
    atomic model the raw mass of the atoms with t_i <= t, a prefix sum of
    the sorted masses, is scaled by t^{2-n}.
    """
    n = check_dimension(n)
    t_arr = np.atleast_1d(check_real(t, "radius t", 0.0))
    if isinstance(model, Atomic):
        mass = np.concatenate(([0.0], np.cumsum(model.masses)))
        out = mass[np.searchsorted(model.radii, t_arr, side="right")]
        np.divide(out, t_arr ** (n - 2), out=out, where=t_arr > 0)
    else:
        out = np.zeros_like(t_arr)
        live = t_arr > model.t0
        out[live] = model.profile(t_arr[live])
    return scalar_or_array(out, t)


def average_N(model: MassModel, n: int, r, quad: QuadratureSpec = QuadratureSpec(),
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
    estimate, converged), each per radius; the exact models report
    (N, 0, True).
    """
    n = check_dimension(n)
    r_arr = np.atleast_1d(check_real(r, "radius r", 0.0))
    out, err = np.zeros_like(r_arr), np.zeros_like(r_arr)
    ok = np.ones(r_arr.shape, dtype=bool)
    if isinstance(model, Atomic):
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
                            np.log(r_arr[live] / t0), quad)
            out[live] = (n - 2) * res.value
            err[live] = (n - 2) * res.error
            ok[live] = res.converged
    out, err, ok = (scalar_or_array(v, r) for v in (out, err, ok))
    return (out, err, ok) if full_output else out


def _radial_integral(far, near, r, t0, d, quad, *rows):
    """A potential's integral over t in (t0, inf) at the radii r > 0.

    Beyond s = max(r, t0) it is int_0^1 far(v, c, s, *rows) dv in v = s/t,
    with c = min(1, r/t0), so the kernel argument r/t is c v; near v = 0 the
    integrand is like v^(d-1), taken with the power substitution
    k = 1/min(1, d) (none for d <= 0).  Over (t0, r] it is
    int near(z, r, *rows) dz in z = log(t/t0).  The arrays in ``rows``
    broadcast against the radii: value, error and flag per row and radius.
    """
    *rows, _ = np.broadcast_arrays(*rows, r)
    res = integrate(far, 0.0, 1.0, quad, power=1.0 / min(1.0, d) if d > 0 else 1.0,
                    args=(np.minimum(1.0, r / t0), np.maximum(r, t0), *rows))
    value, error, conv = res.value, res.error, res.converged
    beyond = r > t0
    if beyond.any():
        # math.log, not np.log: the two differ in the last bit at a few radii in 10^4
        res = integrate(near, 0.0, np.array([math.log(x) for x in (r[beyond] / t0).tolist()]),
                        quad, args=(r[beyond], *(row[..., beyond] for row in rows)))
        value[..., beyond] = res.value + value[..., beyond]
        error[..., beyond] = res.error + error[..., beyond]
        conv[..., beyond] &= res.converged
    return value, error, conv


def _by_radius(r, t0, degree, integral, full_output):
    """A potential at a radius or an array of radii (a scalar gives a scalar).

    ``integral`` maps a 1-D array of radii r > 0 to value, error and flag.
    r = 0 gives 0.  Below r = 2^-200 t0 every kernel argument r/t is below
    2^-200, where u is homogeneous of the given degree in r far below
    rounding; such an r, whose kernel arguments may be subnormal, is taken
    at 2^m r, just below the bound, and scaled back by 2^(-m degree).  With
    ``full_output`` returns (u, error estimate, converged), each per radius.
    """
    r_arr = np.atleast_1d(check_real(r, "radius r", 0.0))
    out, err = np.zeros_like(r_arr), np.zeros_like(r_arr)
    ok = np.ones(r_arr.shape, dtype=bool)
    live = r_arr > 0.0
    if live.any():
        _, e = np.frexp(r_arr[live] / t0)
        m = np.maximum(0, _HOMOGENEOUS_EXP - e)
        value, error, ok[live] = integral(np.ldexp(r_arr[live], m))
        out[live], err[live] = (np.ldexp(v, -m * degree) for v in (value, error))
    out, err, ok = (scalar_or_array(v, r) for v in (out, err, ok))
    return (out, err, ok) if full_output else out


def u_canonical(model: MassModel, params: ProblemParams, r, theta1: float,
                quad: QuadratureSpec = QuadratureSpec(), full_output: bool = False):
    """Potential from the canonical kernel integral.

    u(r, theta1) = int t^{2-n} h_n(r/t, theta1, q) d(t^{n-2} n(t)).

    ``r`` is a radius or an array of radii, taken by :func:`_by_radius`
    (degree q+1); each value of an array call is the radius's own.  Atomic
    models sum mass_i times the canonical kernel exactly (through the
    numerically robust t^{2-n} h_n(r/t) form of it), on one (radius x atom)
    grid.  Density models add the boundary-atom term n(t0+) h_n(r/t0) and
    integrate the density d/dt[t^{n-2} n(t)] by :func:`_radial_integral`,
    with no truncation; the far piece behaves like v^{q-rho}, so d = q+1-rho.
    """
    xi = math.cos(check_one_angle(theta1))
    lam, q, n = params.lam, params.q, params.n

    def h(u):
        return h_value(lam, q, u, xi)

    def integral(r):
        if isinstance(model, Atomic):
            t_at = model.radii
            return np.sum(model.masses * t_at ** (2 - n) * h(r[:, None] / t_at), axis=1), 0.0, True
        t0 = model.t0

        def qw(t):
            return (n - 2) * model.profile(t) + t * model.profile_derivative(t)

        # t = s/v, dt/t = dv/v; t = t0 e^z, dt/t = dz
        value, error, conv = _radial_integral(
            lambda v, c, s: h(c * v) * qw(s / v) / v,
            lambda z, r: h(r / t0 * np.exp(-z)) * qw(t0 * np.exp(z)),
            r, t0, q + 1.0 - model.rho, quad)
        # boundary atom, raw mass t0^{n-2} n(t0+)
        return model.profile(t0) * h(r / t0) + value, error, conv

    return _by_radius(r, model.t0, q + 1, integral, full_output)


def u_poisson(model: MassModel, n: int, r, theta1: float,
              quad: QuadratureSpec = QuadratureSpec(), full_output: bool = False):
    """Potential through the Poisson-type representation

    u = int_0^inf P_n(r, t, theta1) N(t) dt / (r^2 + 2 r t cos(theta1) + t^2)^{n/2+1},

    valid for masses of order below 1 and 0 <= theta1 <= pi/2.  Uses the
    same averaged counting function as :func:`average_N`, so agreement with
    :func:`u_canonical` is a genuine two-representation cross-check.  Radii
    are taken as there, by :func:`_by_radius` (degree 1) and
    :func:`_radial_integral` (d = 1-rho), and N once at each distinct node.
    With ``full_output`` returns (u, error estimate, converged), each per
    radius: the estimate adds N's own, carried through the representation
    as a second row of the quadrature, and N flagged at a node flags its
    radius.
    """
    theta1 = check_one_angle(theta1, upper=math.pi / 2, closed=True)
    ordr = 0.0 if isinstance(model, Atomic) else model.rho  # finitely many atoms: order 0
    if ordr >= 1.0:
        raise DomainError(f"Poisson representation needs order < 1, got {ordr}")
    xi, t0 = math.cos(theta1), model.t0
    parts = np.arange(2 if full_output else 1)[:, None]  # row 0 N, row 1 its error estimate

    def integral(r):
        flagged = np.zeros(r.shape, dtype=bool)

        def averaged(t, part, i):
            # t = s/v overflows to inf where v underflows: left nan, the value
            # there is that of the nearest finite node
            out = np.full(t.shape, np.nan)
            fin = np.isfinite(t)
            nodes, at = np.unique(t[fin], return_inverse=True)
            N, err, ok = average_N(model, n, nodes, quad, full_output=True)
            out[fin] = np.where(np.broadcast_to(part, t.shape)[fin] == 0, N[at], err[at])
            flagged[np.broadcast_to(i, t.shape)[fin][~ok[at]]] = True
            return out

        def far(v, c, s, part, i):
            # t = s/v, scaled by powers of t: P_n(r, t) = t^{n+1} P_n(r/t, 1); dt = s dv / v^2
            w, t = c * v, s / v
            f_t = poisson_Pn(n, w, 1.0, theta1) * averaged(t, part, i) / (
                t * (1.0 + 2.0 * w * xi + w * w) ** (n / 2.0 + 1.0))
            return f_t * s / (v * v)

        def near(z, r, part, i):
            # t = t0 e^z <= r, scaled by powers of r: P_n(r, t) = r^{n+1} P_n(1, t/r); dt = t dz
            t = t0 * np.exp(z)
            u = t / r
            return poisson_Pn(n, 1.0, u, theta1) * averaged(t, part, i) * u / (
                1.0 + 2.0 * u * xi + u * u) ** (n / 2.0 + 1.0)

        value, error, conv = _radial_integral(far, near, r, t0, 1.0 - ordr, quad, parts,
                                              np.arange(r.size))  # i, the row's radius
        # row 1 carries N's error estimates through the representation
        error = error[0] + np.abs(value[1]) if full_output else error[0]
        return value[0], error, conv[0] & ~flagged

    return _by_radius(r, t0, 1, integral, full_output)


@dataclass(frozen=True)
class SweepResult:
    """Radial sweep: its columns, extrapolated limits and diagnostics.

    ``r``, ``u``, ``scaled`` (u r^{-rho}), ``u_over_n`` and ``u_over_N``
    hold one float per grid radius; a ratio is nan where n or N is not
    positive.  ``extrapolated_limit`` refers to the scaled column,
    ``extrapolated_un`` / ``extrapolated_uN`` to the ratio columns.  The
    convergence flag is set only when the last three scaled values spread
    less than the sweep tolerance.  ``quadrature_flags`` counts the radii
    whose :func:`u_canonical` quadrature did not meet its tolerance, plus
    one if :func:`average_N` did not at any radius of the grid.
    """

    r: tuple
    u: tuple
    scaled: tuple
    u_over_n: tuple
    u_over_N: tuple
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
        if not 0.0 < lo < hi < math.inf:
            raise DomainError(f"radial grid needs 0 < lo < hi < inf, got lo={lo}, hi={hi}")
        grid = np.geomspace(lo, hi, max(int(num), 0))
    else:
        grid = np.asarray(r_grid, dtype=float)
    if grid.size < 5:
        raise DomainError("radial grid needs at least 5 points")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("radial grid must be strictly increasing")
    return grid


def scaled_limit(model: MassModel, params: ProblemParams, theta1, r_grid,
                 quad: QuadratureSpec = QuadratureSpec(), sweep_tol: float = 0.05) -> SweepResult:
    """Sweep of r^{-rho} u(r, theta1) over a geometric radial grid.

    The scaled values converge to the directional indicator when the model's
    counting function is asymptotically delta t^rho; the returned
    extrapolated limit applies one Aitken delta-squared step to the tail
    (errors decay geometrically on a geometric grid, which is exactly
    Aitken's model).  ``r_grid`` is either an increasing array or a
    (lo, hi, num) tuple.  The scaling r^{-rho} and the genus q of the
    kernel come from ``params``, so a density model whose own rho differs
    from ``params.rho`` raises :class:`DomainError`, as does a counting
    function that is negative at a grid radius (that is not a mass) or
    overflows there (r^rho past the double range), before any sweep, a
    potential that overflows at a grid radius, and a ratio u/n or u/N that
    overflows where n or N is positive.  u and N are each one
    call for the whole grid: :func:`u_canonical` and :func:`average_N` on
    the array of radii.
    """
    model_rho = getattr(model, "rho", params.rho)  # atomic models declare no order
    if model_rho != params.rho:
        raise DomainError(f"the model's order rho={model_rho!r} differs from "
                          f"params.rho={params.rho!r}")
    theta1 = check_one_angle(theta1)
    grid = _resolve_grid(r_grid)
    sweep_tol = check_scalar(sweep_tol, "sweep_tol", 0.0, math.inf, "()")
    with np.errstate(over="ignore", invalid="ignore"):
        n_grid = counting_n(model, params.n, grid)
    bad = ~(np.isfinite(n_grid) & (n_grid >= 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        what = "is negative" if n_grid[i] < 0.0 else "overflows the double range"
        raise DomainError(f"the counting function {what} at r={grid[i]:g}: n(r) = {n_grid[i]:.6g}")
    N_grid, _, ok_N = average_N(model, params.n, grid, quad, full_output=True)
    u_grid, _, ok_u = u_canonical(model, params, grid, theta1, quad, full_output=True)
    if not np.all(np.isfinite(u_grid)):
        i = int(np.argmin(np.isfinite(u_grid)))
        raise DomainError(f"the potential overflows the double range at r={grid[i]:g}")
    flagged = int(not np.all(ok_N)) + int(np.count_nonzero(~ok_u))
    r, u = tuple(grid.tolist()), tuple(u_grid.tolist())
    scaled = tuple(ui * ri ** (-params.rho) for ri, ui in zip(r, u))
    u_over_n = tuple(ui / ni if ni > 0 else math.nan for ui, ni in zip(u, n_grid.tolist()))
    u_over_N = tuple(ui / Ni if Ni > 0 else math.nan for ui, Ni in zip(u, N_grid.tolist()))
    # u and a positive n or N are finite, so a ratio that is not has overflowed
    for i, pair in enumerate(zip(u_over_n, u_over_N)):
        for name, v in zip(("u/n", "u/N"), pair):
            if math.isinf(v):
                raise DomainError(f"the ratio {name} overflows the double range at r={grid[i]:g}")
    # np.ptp passes a nan on: a nan or an inf in the tail is not converged
    spread = float(np.ptp(scaled[-3:]))
    un, uN = ([v for v in col if math.isfinite(v)] for col in (u_over_n, u_over_N))
    diag = (
        f"{len(r)} radii in [{grid[0]:g}, {grid[-1]:g}]; "
        f"{flagged} quadrature flags; tail spread "
        f"{spread:.3e} against tolerance {sweep_tol:g}"
    )
    return SweepResult(
        r=r, u=u, scaled=scaled, u_over_n=u_over_n, u_over_N=u_over_N,
        extrapolated_limit=_aitken(scaled),
        extrapolated_un=_aitken(un) if un else math.nan,
        extrapolated_uN=_aitken(uN) if uN else math.nan,
        convergence_flag=spread < sweep_tol * max(1.0, *map(abs, scaled[-3:])),
        diagnostics=diag,
        quadrature_flags=flagged,
    )


def ratio_probe(model: MassModel, params: ProblemParams, theta1, r_grid,
                sweep_tol: float = 0.05) -> SweepResult:
    """Sweep of u/n(r) and u/N(r) along a direction.

    Requires the counting function to be positive on the whole grid and,
    as :func:`scaled_limit` does, a density model's rho equal to
    ``params.rho``.  For the power-law model the extrapolated ratios
    reproduce the closed-form limits of
    :func:`raygrowth.indicator.ratio_limits`; for other models they land
    between the integral sandwich bounds.
    """
    grid = _resolve_grid(r_grid)
    if counting_n(model, params.n, float(grid[0])) <= 0.0:
        raise DomainError("ratio probe needs a model with mass inside the smallest grid radius")
    return scaled_limit(model, params, theta1, grid, sweep_tol=sweep_tol)


def counterexample_u0(rho: float, r, theta1: float):
    """Oscillating potential r^rho (1 + sin(ln ln r) P_rho(cos theta1)).

    Defined for r >= e (so the doubled logarithm exists) in dimension 3.
    Along the axis the scaled value oscillates with amplitude 1 between 0
    and 2; on the angle where the degree-rho Legendre factor vanishes it is
    identically r^rho -- the two behaviors that bracket what a one-direction
    growth assumption can and cannot force.
    """
    rho = check_scalar(rho, "order rho", 0.0, 1.0, "()")
    r_arr = np.atleast_1d(check_real(r, "radius r of the counterexample", _E))
    theta1 = check_one_angle(theta1)
    legendre_factor = angular_shape(3, rho, theta1)  # P_rho(cos theta1)
    out = r_arr ** rho * (1.0 + np.sin(np.log(np.log(r_arr))) * legendre_factor)
    return scalar_or_array(out, r)


def laplacian_u0(rho: float, r: float, theta1: float):
    """Laplacian of the oscillating potential (dimension 3), in closed form.

    With L = ln ln r and P = P_rho(cos theta1), u0 = r^rho + sin(L) h, where
    h = r^rho P is harmonic in R^3; lap(g h) = h lap(g) + 2 g' h_r then gives

        lap u0 = r^{rho-2} [rho (rho+1) + P ((2 rho + 1) cos L / ln r
                                            - (cos L + sin L) / ln^2 r)],

    positive at large radii, where rho (rho+1) dominates.  Defined where
    :func:`counterexample_u0` is, for r >= e; each argument is one value.
    """
    rho = check_scalar(rho, "order rho", 0.0, 1.0, "()")
    r = check_scalar(r, "radius r of the counterexample", _E)
    legendre_factor = angular_shape(3, rho, check_one_angle(theta1))
    ln_r = math.log(r)
    cos_l, sin_l = math.cos(math.log(ln_r)), math.sin(math.log(ln_r))
    return r ** (rho - 2.0) * (rho * (rho + 1.0) + legendre_factor * (
        (2.0 * rho + 1.0) * cos_l / ln_r - (cos_l + sin_l) / (ln_r * ln_r)))


# ---------------------------------------------------------------------------
# declarative mass-model text format

# declaration keyword -> density model; the keys of a declaration are the
# model's init fields, numbers where the field is a float and handle names
# where it is a str
DENSITY_MODELS = {"powerlaw": PowerLaw, "perturbed": Perturbed, "slowlyvarying": SlowlyVarying}

# the keys of an ``atom`` line, all numbers and all required
_ATOM_KEYS = {"t": float, "mass": float}

# an atom line in canonical spelling, ``atom t=<repr> mass=<repr>``: one space
# before each key, and each number the repr of a nonnegative float; such
# lines are read in one pass over the text
_CANONICAL_ATOM = re.compile(r"^atom t=([0-9][0-9.e+-]*) mass=([0-9][0-9.e+-]*)$", re.MULTILINE)


def _key_values(kind: str, tokens, types: dict, required, lineno: int) -> dict:
    """The ``key=value`` tokens of one declaration as a dict of typed values.

    ``types`` maps each key the declaration takes to float or str; a key
    outside it, a key given twice or a missing ``required`` key is an error.
    """
    kv = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, got {token!r}", line=lineno)
        if key not in types:
            raise ParseError(f"{kind} takes no key {key!r}; its keys are {', '.join(types)}",
                             line=lineno)
        if key in kv:
            raise ParseError(f"{kind} key {key!r} given twice", line=lineno)
        try:
            kv[key] = types[key](value)
        except ValueError:
            raise ParseError(f"bad number for {key}: {value!r}", line=lineno) from None
    for key in required:
        if key not in kv:
            raise ParseError(f"{kind} needs {key}=", line=lineno)
    return kv


def parse_mass_model(text: str) -> MassModel:
    """Parse the line-oriented mass-model format.

    One declaration per line: ``powerlaw delta=1.0 rho=0.5``,
    ``perturbed delta=1.0 rho=0.5 eps=inv_log``,
    ``slowlyvarying rho=0.5 psi=log``, or repeated
    ``atom t=2.0 mass=3.0`` lines.  A density declaration's keys are the
    init fields of its model in :data:`DENSITY_MODELS`, and a key left out
    takes the field's default.  '#' starts a comment.

    The atom lines in canonical spelling (``atom t=<repr> mass=<repr>``, each
    number the repr of a float, with one space before each key and nothing
    after the mass) are read in one pass, by one regex and one conversion
    of their numbers; they leave empty lines behind, so every other line
    keeps its number, and is read line by line.
    """
    # split gives the text around the canonical lines, then their t and mass
    parts = _CANONICAL_ATOM.split(text)
    try:
        radii, masses = (np.array(parts[k::3], dtype=float) for k in (1, 2))
    except ValueError:  # a number float() refuses, such as 1e+: read every line alone
        parts, radii, masses = [text], np.empty(0), np.empty(0)
    atoms = []
    model = None
    for lineno, raw in enumerate("".join(parts[::3]).splitlines(), start=1):
        if not raw:  # a canonical atom line, or an empty line
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *tokens = line.split()
        kind = kind.lower()
        if kind == "atom":
            kv = _key_values(kind, tokens, _ATOM_KEYS, _ATOM_KEYS, lineno)
            atoms.append((kv["t"], kv["mass"]))
        elif kind in DENSITY_MODELS:
            if model is not None:
                raise ParseError("only one density declaration allowed", line=lineno)
            cls = DENSITY_MODELS[kind]
            init = [f for f in fields(cls) if f.init]
            types = {f.name: float if f.type == "float" else str for f in init}
            required = [f.name for f in init if f.default is MISSING]
            kv = _key_values(kind, tokens, types, required, lineno)
            try:
                model = cls(**kv)
            except DomainError as exc:
                raise ParseError(str(exc), line=lineno) from None
        else:
            raise ParseError(f"unknown declaration {kind!r}", line=lineno)
    if model is not None and (radii.size or atoms):
        raise ParseError("mixing a density declaration with atom lines is not supported")
    if model is not None:
        return model
    if not (radii.size or atoms):
        raise ParseError("empty mass-model text")
    # Atomic sorts the atoms: the order the two kinds of line are read in is no matter
    radii = np.append(radii, [t for t, _ in atoms])
    masses = np.append(masses, [m for _, m in atoms])
    try:
        return Atomic.from_arrays(radii, masses)
    except DomainError as exc:
        raise ParseError(str(exc)) from None
