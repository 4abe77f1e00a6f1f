"""Mellin transforms of the ray kernels: quadrature against closed forms.

The subtracted kernel h(lam, q, u, xi) has a closed-form transform through
a Legendre function on the cut, valid on the strip -q-1 < Re s < -q and, by
q+1 integrations by parts, continued to -q-1 < Re s < 2 lam.  The numeric
transform, the integrated-by-parts route and the closed form are three
independent evaluations of the same number.
"""

import numpy as np

from raygrowth.kernels import h_value
from raygrowth.mellin import (
    MellinStrip,
    QuadratureSpec,
    mellin_h_closed,
    mellin_hn_at_order,
    mellin_ibp_numeric,
    mellin_numeric,
    tauberian_symbol,
)
from raygrowth.kernels import ProblemParams

quad = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13, max_level=12)

print("direct quadrature vs closed form (principal strip):")
print(f"{'lam':>5} {'q':>2} {'s':>6} {'xi':>5} {'numeric':>16} {'closed':>16} {'rel':>9}")
for lam, q, xi in ((0.5, 0, 0.0), (1.0, 0, 0.5), (1.5, 1, -0.3), (2.5, 2, 0.4)):
    s = -q - 0.5
    num = mellin_numeric(lambda u: h_value(lam, q, u, xi), s, quad,
                         MellinStrip.principal_for_h(q))
    closed = mellin_h_closed(lam, q, s, xi)
    val = complex(num.value).real
    print(f"{lam:>5} {q:>2} {s:>6} {xi:>5} {val:>16.10f} {closed:>16.10f} "
          f"{abs(val - closed) / abs(closed):>9.1e}")

print("\nintegrated-by-parts continuation beyond the principal strip:")
for lam, q, s, xi in ((1.5, 1, 0.5, -0.3), (2.5, 2, 1.3, 0.4)):
    ibp = mellin_ibp_numeric(lam, q, s, xi, quad)
    closed = mellin_h_closed(lam, q, s, xi)
    val = complex(ibp.value).real
    print(f"  lam={lam} q={q} s={s:+} xi={xi}: ibp={val:+.10f} closed={closed:+.10f} "
          f"rel={abs(val - closed) / abs(closed):.1e}")

print("\norder-point transform in both printed shapes (they must agree):")
for n, rho, xi in ((3, 0.5, 0.0), (4, 0.5, 0.2), (5, 1.3, -0.5)):
    forms = mellin_hn_at_order(ProblemParams(n, rho), xi)
    print(f"  n={n} rho={rho} xi={xi:+}: gamma form {forms.gamma_form:+.12f}, "
          f"factorial form {forms.factorial_form:+.12f}")

print("\nthe transfer symbol (1 - iv) M(h_n, -rho - iv) along the critical line:")
params = ProblemParams(3, 0.5)
for v in (0.0, 0.5, 1.7):
    sym = tauberian_symbol(params, np.pi / 2, v)
    print(f"  v={v:>4}: |symbol| = {abs(sym):.8f}")
print("  nonvanishing for v != 0 is exactly what lets growth information")
print("  pass from the potential back to its mass distribution")
