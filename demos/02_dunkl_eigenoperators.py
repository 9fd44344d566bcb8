"""Dunkl eigenoperators: reflections, imaginary shifts, exact eigenchecks.

The -1 families are eigenfunctions of operators built from the reflection
R f(x) = f(-x), derivatives, and (for the Bannai-Ito block) the imaginary
shifts S+- f(x) = f(x +- i).  Each operator's coefficients are polynomial
numerators over the one denominator D they share as printed, so applying it
to a polynomial is polynomial algebra and one division by D; the eigen
equation holds only when every singular part cancels.
"""

from minusone import families as F
from minusone import operators as O
from minusone.precision import PrecisionContext

ctx = PrecisionContext(50)
mp = ctx.mp

# Hermite: L = -1/4 d^2/dx^2 + x/2 d/dx + (eps/2 - 1/4)(I - R)
es = O.build_eigen_system("hermite", {}, ctx, free="0.5")
polys = F.generate("hermite", {}, 6, ctx)
print("Hermite eigenvalues (eps = 1/2):",
      [mp.nstr(es.eigenvalue(n), 5) for n in range(7)])
for n in (0, 1, 5):
    rep = O.verify_eigen("hermite", {}, n, ctx, free="0.5")
    print("  n=%d residual %.2e -> %s" % (n, rep["residual"], rep["status"]))

# The continuous -1 Hahn operator composes a shift with the reflection;
# only one reading of S+R satisfies the eigen equation, and the resolver
# reports the finding (including the doubled beta inside the printed A).
params = F.make_params("continuous-minus1-hahn-1", ctx, alpha="0.25", beta="0.5", gamma="0.75")
report = O.resolve_composition_convention("c-1h-1", params, ctx)
for outcome in report["outcomes"]:
    print("reading %-55s passes: %s" % (outcome["variant"], outcome["passes"]))
print("chosen:", report["chosen"])

# With the resolved reading the whole eigenbasis check goes through: the
# operator matrix in the polynomial basis is diagonal with the printed
# eigenvalues.
diag = O.check_diagonality("c-1h-1", params, 8, ctx)
print("operator matrix N=8: max offdiag %.2e, max diag deviation %.2e"
      % (diag["max_offdiag"], diag["max_diag_error"]))
