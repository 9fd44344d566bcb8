"""Walk through the family catalog: recurrences, closed forms, weights.

Every family is generated two independent ways -- by its three-term
recurrence and by its hypergeometric closed form -- and the two must agree
coefficient for coefficient.
"""

from minusone import families as F
from minusone.polynomials import poly_rel_distance
from minusone.precision import PrecisionContext

ctx = PrecisionContext(50)
mp = ctx.mp

print("catalog:", ", ".join(F.family_ids("scheme")))
print()

# The continuous Bannai-Ito family sits at the top of the scheme with four
# parameters; its recurrence coefficients involve complex moduli.
params = F.make_params("continuous-bannai-ito", ctx,
                       alpha="0.25", beta="1", gamma="0.25", delta="0.5")
print("continuous Bannai-Ito at (1/4, 1, 1/4, 1/2):")
for n, pair in enumerate(F.recurrences("continuous-bannai-ito", params, 3, ctx)):
    print("  n=%d  b_n = %-12s u_n = %s" % (n, mp.nstr(pair.b, 8), mp.nstr(pair.u, 8)))

polys = F.generate("continuous-bannai-ito", params, 6, ctx)
print("\n  P_3 =", " + ".join("%s x^%d" % (mp.nstr(c, 6), k)
                              for k, c in enumerate(polys[3].coeffs)))

worst = max(poly_rel_distance(polys[n],
                              F.closed_form("continuous-bannai-ito", params, n, ctx))
            for n in range(7))
print("  closed form vs recurrence, n <= 6: max coefficient error", mp.nstr(worst, 3))

# Simple members are recognizable: Gegenbauer at alpha = 1/2 is Legendre.
leg = F.generate("gegenbauer", F.make_params("gegenbauer", ctx, alpha="0.5"), 3, ctx)
print("\nmonic Legendre P_2:", [mp.nstr(c, 6) for c in leg[2].coeffs])
print("monic Legendre P_3:", [mp.nstr(c, 6) for c in leg[3].coeffs])

# Weights carry split supports where the sign factor lives.
spec = F.weight_spec("chihara", F.make_params("chihara", ctx,
                                              alpha="0.5", beta="1", gamma="0.25"), ctx)
print("\nChihara weight support:",
      [(mp.nstr(lo, 6), mp.nstr(hi, 6)) for lo, hi in spec.pieces])
print("density at x = 0.5:", mp.nstr(spec.density(mp.mpf("0.5")), 8))
