"""The order equation: reading the growth order off one ratio limit.

On the log scale the potential is a convolution of the averaged counting
function with an explicit kernel.  The kernel's two-sided Laplace transform
has the closed axis form Gamma(n-1-s) Gamma(1+s) / (n-2)! on its existence
strip, and equating it to an observed ratio constant pins the order rho
through a transcendental equation.  This script verifies the closed form by
quadrature, reports the strips read off the kernel's exponential decay at
+-infinity, and inverts the equation.
"""

import math

import numpy as np

from raygrowth.errors import OutOfRangeError
from raygrowth.indicator import laplace_log_kernel, laplace_strip, order_equation_rhs, solve_order
from raygrowth.specfun import gamma

print("two-sided Laplace transform of the log-scale kernel at theta1 = 0:")
print(f"{'n':>3} {'s':>5} {'quadrature':>16} {'closed form':>16} {'rel':>9}")
for n in (3, 4, 5, 6):
    for s in (-0.5, 0.3, 0.7):
        got = laplace_log_kernel(n, 0.0, s)
        want = gamma(n - 1.0 - s) * gamma(1.0 + s) / math.factorial(n - 2)
        print(f"{n:>3} {s:>5} {got:>16.10f} {want:>16.10f} {abs(got-want)/want:>9.1e}")

print("\nexistence strips, from the kernel's decay rates at +-infinity:")
for n in (3, 5):
    for th_label, th in (("0", 0.0), ("pi/4", math.pi / 4), ("pi/2", math.pi / 2)):
        strip = laplace_strip(n, th)
        print(f"  n={n} theta1={th_label:>4}: ({strip.lower:+.6f}, {strip.upper:+.6f})")

print("\ninverting the order equation Delta-bar = RHS(rho):")
for n, rho in ((3, 0.5), (4, 0.3), (5, 0.8)):
    target = order_equation_rhs(n, rho)
    got = solve_order(n, target)
    print(f"  n={n}: RHS({rho}) = {target:.10f} -> solve_order returns {got:.10f}")

print("\nfor n = 3 the right side is symmetric about rho = 1/2 with minimum pi/4:")
rhos = np.linspace(0.05, 0.95, 7)
print("  rho:", "  ".join(f"{r:.2f}" for r in rhos))
print("  RHS:", "  ".join(f"{order_equation_rhs(3, float(r)):.4f}" for r in rhos))
print("  (off-minimum targets have two preimages; the smaller is returned)")

try:
    solve_order(3, 2.0)
except OutOfRangeError as exc:
    print(f"\nout-of-range target is refused with the attained interval: "
          f"[{exc.lo:.6f}, {exc.hi:.6f}]")
