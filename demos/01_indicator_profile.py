"""Directional growth profile of a ray-mass potential.

Sweeps the indicator H(theta1) over latitudes for a few (n, rho) pairs and
prints the closed Legendre form next to the independent kernel-integral
evaluation.  The two columns agree to quadrature accuracy everywhere, the
profile starts from its axis value H(0) and dives toward -infinity as the
latitude approaches the mass ray at theta1 = pi.
"""

import math

import numpy as np

from raygrowth.indicator import indicator_closed, indicator_integral, indicator_near_pi
from raygrowth.kernels import ProblemParams
from raygrowth.mellin import QuadratureSpec

quad = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13, max_level=12)

for n, rho in ((3, 0.5), (4, 0.5), (5, 2.4)):
    params = ProblemParams(n, rho, delta=1.0)
    print(f"\nindicator profile, n={n}, rho={rho} (axis value H(0)={indicator_closed(params, 0.0):+.6f})")
    print(f"{'theta1 (deg)':>14} {'closed':>14} {'integral':>14} {'abs diff':>10}")
    for deg in (0, 30, 60, 90, 120, 150, 170):
        th = math.radians(deg)
        hc = float(indicator_closed(params, th))
        hi = indicator_integral(params, th, quad)
        print(f"{deg:>14} {hc:>14.8f} {hi:>14.8f} {abs(hc - hi):>10.2e}")

# near the mass ray the closed form hands over to the endpoint asymptotics
params = ProblemParams(3, 0.3)
print("\napproach to the mass ray (n=3, rho=0.3):")
for eps in (0.1, 0.01, 0.001):
    th = math.pi - eps
    hc = float(indicator_closed(params, th))
    ha = indicator_near_pi(params, th)
    print(f"  pi - {eps:<6g} closed={hc:+12.4f}  asymptotic={ha:+12.4f}  rel={abs(ha-hc)/abs(hc):.2e}")
