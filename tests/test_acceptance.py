"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Tolerances are pinned here, not
configurable.
"""

import math
import time

import numpy as np
import pytest

from raygrowth.indicator import (
    angular_shape,
    indicator_closed,
    indicator_integral,
    laplace_log_kernel,
    order_equation_rhs,
    ratio_limits,
    solve_order,
    zero_set,
)
from raygrowth.kernels import ProblemParams, h_value
from raygrowth.mellin import MellinStrip, QuadratureSpec, mellin_h_closed, mellin_numeric
from raygrowth.potential import (
    Atomic,
    PowerLaw,
    counterexample_u0,
    laplacian_u0,
    ratio_probe,
    scaled_limit,
    u_canonical,
    u_poisson,
)
from raygrowth.specfun import gamma, legendre_p_cut


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_zero_set_reproduction():
    results = []
    for n, lo, hi in ((3, 129.0, 131.0), (5, 114.0, 116.0)):
        start = time.monotonic()
        roots = zero_set(ProblemParams(n, 0.5)).roots
        elapsed = time.monotonic() - start
        deg = math.degrees(roots[0])
        results.append((n, deg, elapsed, len(roots) == 1 and lo <= deg <= hi and elapsed < 10.0))
    ok = all(r[3] for r in results)
    detail = "; ".join(f"n={n}: root {deg:.4f} deg in {dt:.2f}s" for n, deg, dt, _ in results)
    report(1, "zero-set reproduction", ok, detail)


def test_criterion_02_zero_count_law():
    start = time.monotonic()
    bad = []
    for n in (3, 4, 5, 6):
        for rho in (0.3, 1.5, 2.7, 3.4):
            p = ProblemParams(n, rho)
            coarse = zero_set(p).roots
            fine = zero_set(p, resolution=1e-4).roots
            expected = math.floor(rho) + 1
            if len(coarse) != expected or len(fine) != expected:
                bad.append((n, rho, len(coarse), len(fine)))
                continue
            if any(abs(a - b) > 1e-8 for a, b in zip(coarse, fine)):
                bad.append((n, rho, "drift"))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 120.0
    report(2, "zero-count law", ok,
           f"16 (n, rho) pairs vs 10x finer scan in {elapsed:.1f}s" + (f"; bad={bad}" if bad else ""))


def test_criterion_03_mellin_identity():
    start = time.monotonic()
    quad = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13, max_level=12)
    worst = 0.0
    for lam in (0.5, 1.0, 1.5, 2.5):
        for q in (0, 1, 2):
            s = -q - 0.5
            for xi in (-0.8, -0.3, 0.0, 0.4, 0.9):
                res = mellin_numeric(lambda u: h_value(lam, q, u, xi), s, quad,
                                     MellinStrip.principal_for_h(q))
                closed = mellin_h_closed(lam, q, s, xi)
                worst = max(worst, abs(complex(res.value).real - closed) / abs(closed))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 300.0
    report(3, "Mellin transform identity", ok,
           f"60 grid points, worst rel err {worst:.2e} in {elapsed:.1f}s (tol 1e-8)")


def test_criterion_04_indicator_oracle_agreement():
    quad = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_level=12)
    worst_rel = 0.0
    ratios = []
    for n in (3, 4, 5):
        for rho in (0.3, 0.5, 1.5, 2.7):
            p = ProblemParams(n, rho)
            roots = zero_set(p).roots
            for k in range(6):
                th = k * math.pi / 6.0
                if roots and min(abs(th - b) for b in roots) < 0.05:
                    continue  # relative error is meaningless on top of a zero
                hc = float(indicator_closed(p, th))
                hi = indicator_integral(p, th, quad)
                worst_rel = max(worst_rel, abs(hc - hi) / abs(hc))
                ratios.append(hc / hi)
    ratio_spread = max(ratios) - min(ratios)
    anchor_c = float(indicator_closed(ProblemParams(3, 0.5), 0.0))
    anchor_i = indicator_integral(ProblemParams(3, 0.5), 0.0, quad)
    anchor_ok = (
        abs(anchor_c - 1.5 * math.pi) <= 1e-8 and abs(anchor_i - 1.5 * math.pi) <= 1e-8
    )
    ok = worst_rel <= 1e-6 and ratio_spread <= 1e-9 and anchor_ok
    report(4, "indicator oracle agreement", ok,
           f"worst rel {worst_rel:.2e} (tol 1e-6), audit-ratio spread {ratio_spread:.2e} "
           f"(tol 1e-9), H(0) anchor closed={anchor_c:.10f} integral={anchor_i:.10f}")


def test_criterion_05_legendre_cross_checks():
    # plane-case reduction
    worst_plane = 0.0
    for rho in (0.3, 0.7, 1.6):
        for alpha in np.arange(0.2, 2.95, 0.3):
            a = float(alpha)
            lhs = legendre_p_cut(-rho - 0.5, 0.5, math.cos(a))
            rhs = math.sqrt(2.0 / (math.pi * math.sin(a))) * math.cos(rho * a)
            worst_plane = max(worst_plane, abs(lhs - rhs) / (1.0 + abs(rhs)))
    # degree symmetry and order recurrence over 10^3 random samples
    rng = np.random.default_rng(2024)
    worst_sym = 0.0
    worst_rec = 0.0
    for _ in range(1000):
        nu = float(rng.uniform(-4.0, 4.0))
        mu = float(rng.uniform(-2.5, 0.9))
        xi = float(rng.uniform(-0.98, 0.98))
        a = legendre_p_cut(nu, mu, xi)
        b = legendre_p_cut(-nu - 1.0, mu, xi)
        worst_sym = max(worst_sym, abs(a - b) / (1.0 + abs(a)))
        lhs = (nu - mu + 1.0) * legendre_p_cut(nu + 1.0, mu, xi) \
            - (nu + mu + 1.0) * xi * a
        rhs = math.sqrt(1.0 - xi * xi) * legendre_p_cut(nu, mu + 1.0, xi)
        worst_rec = max(worst_rec, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    ok = worst_plane <= 1e-10 and worst_sym <= 1e-9 and worst_rec <= 1e-9
    report(5, "Legendre cross-checks", ok,
           f"plane reduction {worst_plane:.2e} (tol 1e-10), symmetry {worst_sym:.2e}, "
           f"recurrence {worst_rec:.2e} (tol 1e-9, 1000 samples)")


def test_criterion_06_order_equation():
    worst_lap = 0.0
    for n in (3, 4, 5, 6):
        for s in (-0.5, 0.0, 0.3, 0.7):
            got = laplace_log_kernel(n, 0.0, s)
            want = gamma(n - 1.0 - s) * gamma(1.0 + s) / math.factorial(n - 2)
            worst_lap = max(worst_lap, abs(got - want) / abs(want))
    half = solve_order(3, math.pi / 4)
    half_ok = abs(half - 0.5) <= 1e-6
    # identity roundtrip where the right side is injective; for n=3 the map
    # folds about rho = 1/2, so the identity is checked on the decreasing
    # branch and the fold is verified through the residual instead
    worst_rt = 0.0
    for n, rhos in ((3, (0.1, 0.2, 0.3, 0.4, 0.5)),
                    (4, np.arange(0.1, 0.95, 0.1)),
                    (5, np.arange(0.1, 0.95, 0.1)),
                    (6, np.arange(0.1, 0.95, 0.1))):
        for rho in rhos:
            got = solve_order(n, order_equation_rhs(n, float(rho)))
            worst_rt = max(worst_rt, abs(got - float(rho)))
    worst_res = 0.0
    for rho in (0.6, 0.7, 0.8, 0.9):
        target = order_equation_rhs(3, rho)
        worst_res = max(worst_res, abs(order_equation_rhs(3, solve_order(3, target)) - target))
    ok = worst_lap <= 1e-8 and half_ok and worst_rt <= 1e-6 and worst_res <= 1e-10
    report(6, "order-equation closed form and inversion", ok,
           f"Laplace grid {worst_lap:.2e} (tol 1e-8), solve(3, pi/4)={half:.8f}, "
           f"roundtrip {worst_rt:.2e} (tol 1e-6; n=3 on its injective branch, "
           f"mirror-branch residual {worst_res:.2e})")


def test_criterion_07_abelian_desk_scale():
    start = time.monotonic()
    p = ProblemParams(3, 0.5)
    model = PowerLaw(delta=1.0, rho=0.5)
    worst = 0.0
    for th in (0.0, math.pi / 4, math.pi / 2):
        res = scaled_limit(model, p, th, (1e2, 1e6, 9))
        want = float(indicator_closed(p, th))
        worst = max(worst, abs(res.extrapolated_limit - want) / abs(want))
    elapsed = time.monotonic() - start
    ok = worst <= 0.01 and elapsed < 600.0
    report(7, "Abelian limit at desk scale", ok,
           f"worst rel dev {worst:.2e} over three directions in {elapsed:.1f}s (tol 1%)")


def test_criterion_08_mass_ratio_limits():
    p = ProblemParams(3, 0.5)
    res = ratio_probe(PowerLaw(delta=1.0, rho=0.5), p, 0.0, (1e2, 1e6, 9))
    dev_n = abs(res.extrapolated_un - 1.5 * math.pi) / (1.5 * math.pi)
    dev_N = abs(res.extrapolated_uN - 0.75 * math.pi) / (0.75 * math.pi)
    worst_q = 0.0
    for n in (3, 4, 5, 6):
        for rho in (0.3, 1.5, 2.7, 3.4):
            pp = ProblemParams(n, rho)
            for th in (0.0, 0.9, 2.0):
                un, uN = ratio_limits(pp, th)
                if un == 0.0:
                    continue
                worst_q = max(worst_q, abs(uN / un - rho / (n - 2.0)))
    ok = dev_n <= 0.01 and dev_N <= 0.01 and worst_q <= 1e-10
    report(8, "mass-ratio limits", ok,
           f"u/n dev {dev_n:.2e}, u/N dev {dev_N:.2e} (tol 1%), "
           f"quotient-law dev {worst_q:.2e} (tol 1e-10)")


def test_criterion_09_counterexample_dichotomy():
    ts = np.linspace(0.0, 2.0 * math.pi, 129)
    rs = np.exp(np.exp(ts))
    axis = counterexample_u0(0.5, rs, 0.0) * rs ** (-0.5)
    axis_range = float(axis.max() - axis.min())
    beta = zero_set(ProblemParams(3, 0.5)).roots[0]
    frozen = counterexample_u0(0.5, rs, beta) * rs ** (-0.5)
    frozen_range = float(frozen.max() - frozen.min())
    min_lap = math.inf
    for r in (1e6, 1e7, 1e8):
        for th in (0.0, 0.5, math.pi / 2, 2.0, 2.8, math.pi - 0.01):
            min_lap = min(min_lap, laplacian_u0(0.5, r, th))
    ok = axis_range >= 1.9 and frozen_range <= 1e-12 and min_lap >= 0.0
    report(9, "counterexample dichotomy", ok,
           f"axis range {axis_range:.3f} (>= 1.9), root-angle range {frozen_range:.1e} "
           f"(<= 1e-12), min FD Laplacian {min_lap:.3e} (>= 0)")


def test_criterion_10_representation_equivalence():
    model = PowerLaw(delta=1.0, rho=0.5)
    worst = 0.0
    for n in (3, 4):
        p = ProblemParams(n, 0.5)
        for th in (0.0, math.pi / 4, math.pi / 2):
            for r in (1e2, 1e3):
                uc = u_canonical(model, p, r, th)
                up = u_poisson(model, n, r, th)
                worst = max(worst, abs(uc - up) / abs(up))
    # atomic discretization: 1e4 point masses carrying the same cumulative
    # mass over (1, 1e8)
    edges = np.geomspace(1.0, 1e8, 10_001)
    mids = np.sqrt(edges[:-1] * edges[1:])
    cum = edges**0.5 * edges ** (3 - 2)
    masses = np.diff(cum)
    atoms = [(float(mids[0]), float(masses[0] + cum[0]))]
    atoms += [(float(t), float(m)) for t, m in zip(mids[1:], masses[1:])]
    cloud = Atomic(atoms=tuple(atoms))
    p3 = ProblemParams(3, 0.5)
    worst_disc = 0.0
    for r in (1e2, 1e3):
        dense = u_canonical(PowerLaw(delta=1.0, rho=0.5), p3, r, math.pi / 4)
        disc = u_canonical(cloud, p3, r, math.pi / 4)
        worst_disc = max(worst_disc, abs(disc - dense) / abs(dense))
    ok = worst <= 1e-4 and worst_disc <= 0.01
    report(10, "representation equivalence", ok,
           f"canonical vs Poisson worst rel {worst:.2e} (tol 1e-4), "
           f"atomic discretization {worst_disc:.2e} (tol 1%)")


def test_criterion_11_kernel_bound_stability():
    details = []
    ok = True
    for n, q in ((3, 0), (4, 1), (5, 2), (6, 3)):
        lam = (n - 2) / 2.0
        sups = []
        for factor in (1, 4):
            u = np.logspace(-3, 3, 400 * factor)
            sup = 0.0
            for th in np.linspace(0.0, math.pi - 0.1, 60 * factor):
                vals = np.abs(h_value(lam, q, u, math.cos(th)))
                sup = max(sup, float(np.max(vals / np.minimum(u**q, u ** (q + 1)))))
            sups.append(sup)
        drift = abs(sups[1] - sups[0]) / sups[1]
        details.append(f"(n={n},q={q}): sup {sups[1]:.3f}, drift {drift:.2%}")
        ok = ok and np.isfinite(sups[1]) and drift <= 0.05
    report(11, "kernel bound stability", ok, "; ".join(details))
