"""The scheme in action: specializations, limit ladders, kernel partners.

Exact edges hold coefficient for coefficient; limit edges are verified on a
geometric ladder with a convergence-order fit and Richardson extrapolation;
the Christoffel/Geronimus pairs are mutually inverse kernel maps.
"""

import dataclasses

from minusone import scheme as S
from minusone.precision import PrecisionContext

ctx = PrecisionContext(50)

print("catalog: %d edges" % len(S.edge_catalog()))
kinds = {}
for e in S.edge_catalog():
    kinds[e.kind] = kinds.get(e.kind, 0) + 1
print("  by kind:", kinds)
print()

# An exact specialization: big -1 Jacobi at c = 0 is little -1 Jacobi with
# its two parameters swapped.
rep = S.verify_exact("big-minus1-jacobi:little-minus1-jacobi", 10, ctx)
print("big -> little (c = 0): max err %.1e -> %s" % (rep["max_error"], rep["status"]))

# A limit edge: the continuous Bannai-Ito descends to the big -1 Jacobi
# under beta, delta ~ 1/h with the variable rescaled.
rep = S.verify_limit("cbi:big-minus1-jacobi", 6, ctx)
print("\ncontinuous Bannai-Ito -> big -1 Jacobi ladder:")
for h, err in zip(rep["ladder"], rep["errors"]):
    print("  h = %-8.1e max coefficient error %.2e" % (h, err))
print("fitted order %.2f, extrapolated error %.1e -> %s"
      % (rep["order_poly"], rep["extrapolated_error"], rep["status"]))

# A q -> -1 transition, with the sign question on the printed middle
# coefficient resolved by the ladder itself: each reading is an edge map.
edge = S.resolve_edge("little-q-jacobi-dilated:little-minus1-jacobi")
for sign, reading in edge.variants.readings:
    rep = S.verify_limit(dataclasses.replace(edge, params=reading), 6, ctx)
    print("\ndilated little q-Jacobi -> little -1 Jacobi with b_n = 1 - A_n %s C_n: %s"
          % ("-" if sign == "minus" else "+", rep["status"]))
    print("  ladder errors:", ", ".join("%.1e" % e for e in rep["errors"]))

# Both q -> -1 paths around the big q-Jacobi square agree.
rep = S.verify_commuting_square("little", ctx)
print("\ncommuting square (little): exact leg %.1e, path orders %.2f / %.2f -> %s"
      % (rep["exact_leg_error"], rep["order_path_a"], rep["order_path_b"], rep["status"]))

# Kernel partners: the Christoffel transform of the little -1 Jacobi family
# is the generalized Gegenbauer family, and the Geronimus map undoes it.
rep = S.verify_ct_gt("little-minus1-jacobi:generalized-gegenbauer", 10, ctx)
print("\nlittle -1 Jacobi <-> generalized Gegenbauer kernel pair:"
      " CT %.1e, GT %.1e, round trip %.1e -> %s"
      % (rep["christoffel_error"], rep["geronimus_error"], rep["round_trip_error"],
         rep["status"]))
