"""Numerical orthogonality: Gram matrices against the printed norm formulas.

Double-exponential quadrature (tanh-sinh on finite components, the
exp(t - exp(-t)) map on half-lines and sinh on the whole line) integrates
each weight, including the |Gamma(a+ix)|^2 densities of the Bannai-Ito
block; diagonals must match the printed norms and off-diagonals must vanish.
"""

import time

from minusone import families as F
from minusone import orthogonality as orth
from minusone.precision import PrecisionContext

ctx = PrecisionContext(50)
mp = ctx.mp

for fid, point in [
    ("hermite", {}),
    ("big-minus1-jacobi", {"alpha": "0.5", "beta": "1.5", "c": "0.25"}),
    ("generalized-symmetric-bannai-ito", {"a": "1", "b": "1", "c": "1"}),
    ("continuous-bannai-ito", {"alpha": "0.25", "beta": "1", "gamma": "0.25", "delta": "0.5"}),
]:
    params = F.make_params(fid, ctx, **point)
    t0 = time.time()
    rep = orth.gram(fid, params, 6, ctx)
    print("%-36s offdiag %.1e  diag err %.1e  (%d nodes, %.1fs)"
          % (fid, rep["max_offdiag"], rep["max_diag_error"], rep["nodes"], time.time() - t0))

# Favard's theorem reads positivity straight off the recurrence.
rep = orth.favard_scan("generalized-gegenbauer",
                       F.make_params("generalized-gegenbauer", ctx, alpha="0", beta="1"),
                       200, ctx)
print("\ngeneralized Gegenbauer (0, 1): min u_n over n <= 200 =", rep["min_u"])

# The quasi-orthogonal complementary family fails it as soon as b2 != 0.
ccbi = F.make_params("ccbi", ctx, a1="0.75", b1="0.5", a2="1.25", b2="0.3")
rep = orth.favard_scan("ccbi", ccbi, 8, ctx)
print("CCBI with b2 = 0.3: first non-real coefficient at n =", rep["first_nonreal_n"])
