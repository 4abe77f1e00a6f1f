"""Why the exceptional directions are genuinely exceptional.

The two-term potential r^rho (1 + sin(ln ln r) P_rho(cos theta1)) is
subharmonic at large radii, yet r^{-rho} u oscillates forever along every
non-exceptional direction -- so no growth limit exists there.  On the
exceptional angle the Legendre factor dies and the limit trivially exists.
Observing the scaled potential on one exceptional direction therefore says
nothing about the mass.
"""

import math

import numpy as np

from raygrowth.indicator import zero_set
from raygrowth.kernels import ProblemParams
from raygrowth.potential import counterexample_u0, laplacian_u0

rho = 0.5
beta = zero_set(ProblemParams(3, rho)).roots[0]
ts = np.linspace(0.0, 2.0 * math.pi, 129)
rs = np.exp(np.exp(ts))

axis = counterexample_u0(rho, rs, 0.0) * rs ** (-rho)
frozen = counterexample_u0(rho, rs, beta) * rs ** (-rho)

print(f"scaled two-term potential over r = exp(exp(t)), t in [0, 2 pi]:")
print(f"  along the axis:        range = {axis.max() - axis.min():.6f} "
      f"(oscillates between {axis.min():.3f} and {axis.max():.3f})")
print(f"  on the root direction ({math.degrees(beta):.4f} deg): "
      f"range = {frozen.max() - frozen.min():.2e} (frozen at 1)")

print("\nsample of the axis oscillation:")
for k in range(0, 129, 16):
    print(f"  t={ts[k]:>6.3f}  r={rs[k]:>12.4g}  r^-rho u0 = {axis[k]:.6f}")

print("\nclosed-form Laplacian stays nonnegative at large radii")
print("(subharmonicity of the counterexample):")
for r in (1e6, 1e8):
    row = []
    for th in (0.0, 1.0, math.pi / 2, 2.5, math.pi - 0.01):
        row.append(f"{laplacian_u0(rho, r, th):+.2e}")
    print(f"  r={r:>8.0e}: " + "  ".join(row))
