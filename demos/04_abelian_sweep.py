"""Finite-radius sweeps against the predicted limits.

Builds potentials from mass profiles by direct quadrature of the canonical
kernel integral and watches r^{-rho} u(r, theta1) converge to the closed
indicator, and u/n(r), u/N(r) converge to the mass-ratio limits.  A
perturbed profile with a 1/log correction converges to the same limit,
visibly more slowly.
"""

import math

from raygrowth.indicator import indicator_closed, ratio_limits
from raygrowth.kernels import ProblemParams
from raygrowth.potential import Perturbed, PowerLaw, ratio_probe, scaled_limit, u_poisson, u_canonical

params = ProblemParams(3, 0.5)
power = PowerLaw(delta=1.0, rho=0.5)

theta = math.pi / 2
want = float(indicator_closed(params, theta))
print(f"scaled potential r^-rho u(r) at theta1=90 deg (target H = {want:.8f}):")
res = scaled_limit(power, params, theta, (1e2, 1e6, 9))
for r, scaled in zip(res.r, res.scaled):
    print(f"  r={r:>10.3g}   scaled={scaled:.8f}")
print(f"  extrapolated: {res.extrapolated_limit:.8f}  "
      f"(dev {abs(res.extrapolated_limit - want) / want:.1e}, "
      f"converged={res.convergence_flag})")

pert = Perturbed(delta=1.0, rho=0.5, eps="inv_log")
res_p = scaled_limit(pert, params, theta, (1e2, 1e6, 9))
print(f"\nsame sweep for the 1/log-perturbed profile:")
print(f"  extrapolated: {res_p.extrapolated_limit:.6f} -> same limit, slower "
      f"(dev {abs(res_p.extrapolated_limit - want) / want:.1e})")

un, uN = ratio_limits(params, 0.0)
print(f"\nmass ratios along the axis (targets u/n -> {un:.6f}, u/N -> {uN:.6f}):")
probe = ratio_probe(power, params, 0.0, (1e2, 1e6, 9))
for r, un_r, uN_r in list(zip(probe.r, probe.u_over_n, probe.u_over_N))[-3:]:
    print(f"  r={r:>10.3g}   u/n={un_r:.6f}   u/N={uN_r:.6f}")
print(f"  extrapolated: u/n={probe.extrapolated_un:.6f}  u/N={probe.extrapolated_uN:.6f}")
print(f"  quotient law (u/N)/(u/n) = {probe.extrapolated_uN / probe.extrapolated_un:.6f} "
      f"vs rho/(n-2) = {0.5:.6f}")

print("\ntwo representations of the same potential (canonical vs Poisson form):")
radii = [1e2, 1e3]
for r, uc, up in zip(radii, u_canonical(power, params, radii, math.pi / 4),
                     u_poisson(power, 3, radii, math.pi / 4)):
    print(f"  r={r:>7.0f}: canonical={uc:.10f}  poisson={up:.10f}  rel={abs(uc-up)/up:.1e}")
