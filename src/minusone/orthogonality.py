"""Gram matrices against the printed norms, and Favard scans.

``gram`` and ``favard_check`` are the orthogonality and Favard rows of
``minusone verify``: each reports ``status``, ``residual``, ``tolerance``
and ``notes``.

Gram entries share one quadrature node table per family, and the density is
evaluated once per node.  The weight is split symmetrically: with
V_n = sqrt(w) P_n the Gram is V^T V, and V is held in Python integers.
Each node carries sqrt(w_i) as A_i * 2**e_i, with A_i of p + GUARD_BITS
bits (p = mp.prec) and an exponent of its own, so weights from 1e-191556
(gaussian tails) to order 1 need no common scale.  The recurrence
P_{n+1} = (x - b_n) P_n - u_n P_{n-1} runs on those integers with x, b_n
and u_n fixed point at 2**-(p + GUARD_BITS), truncating relative to each
node.  Each row then goes to block fixed point, and each <P_n, P_m> is one
``NodeTable.dot``, exact and rounded once; its error bound, below one
rounding at p, is in ``quadrature``.  The rows need a positive measure: a
nonreal b_n or u_n, or a weight that is negative or not real, raises
ParameterError naming the first one, as does a density value that is not
a finite real, which ends the table's sweep.  The Gram is the orthogonality
oracle: matching the printed norms through degree N fixes the moments of
the weight through degree 2N.
Favard scans read positivity straight off the recurrence coefficients.

Precision.  ``gram`` reads its gate, 10**-(d/2) on the diagonal and off
it, and its tables' precision from the plan in ``precision``; it reports
the gate, its status and the tables' ``working_digits``,
max(30, d//2 + 20).  That is enough because no weight loses digits at its
endpoints: the maps hand each density the node's offsets from both ends
of its piece, and a sweep runs on past the node that rounds onto a
singular endpoint (``quadrature``, Offsets and Stop rule).  Without them the Gram error of an offset^(-1/2) endpoint floors
near the square root of the working precision, and the tables need about
d + 25 working digits to keep that floor below the gate.  Measured
minimum headroom, log10(gate/error) over the larger of the diagonal and
off-diagonal errors of the fourteen families, N = 8, and the nodes of
their tables:

    d                          15     20     30     50    100
    working digits             30     30     35     45     70
    headroom, first point    16.7   19.7   20.0   20.0   20.1
    headroom, all 3 points   16.5   19.5   19.7   19.6   19.8
    nodes, all 3 points     11272  13665  16198  21131  29174

It does not grow with d: the working precision follows the gate.  It is
lowest at 15 digits, where the DE error model stops most pieces one mesh
sooner (``quadrature``, Convergence).
"""

from __future__ import annotations

from math import isqrt

from mpmath.libmp import to_fixed

from . import families, quadrature
from .families import ParameterError
from .precision import GATES, PrecisionContext, gram_context, verdict


def build_node_table(spec, ctx: PrecisionContext, tol, max_degree):
    """Node table of a weight spec: its support pieces and density, with offsets, in the DE engine."""
    return quadrature.build_node_table(spec.pieces, spec.density, ctx, tol, max_degree, spec.even)


def _boosted_table(fid, params, ctx: PrecisionContext, max_degree):
    """Weight spec and node table for polynomial factors up to max_degree.

    The table's context and node tolerance are ``precision.gram_context``'s.
    Returns (work, spec, table) with work the table's context.  A density
    value that is not a finite real raises ParameterError naming its node,
    as a weight that is not one does in ``_root_rows``.
    """
    work, tol = gram_context(ctx)
    spec = families.weight_spec(fid, params, work)
    try:
        table = build_node_table(spec, work, tol, max_degree)
    except ValueError as exc:      # the sweep's: a density value that is not a finite real
        raise ParameterError(str(exc)) from exc
    return work, spec, table


def _real_pairs(fid, params, N, work: PrecisionContext):
    """Real (b_n, u_n) for n < N, with u_0 = 0.

    A nonreal coefficient rules out a positive measure; an imaginary part
    below 10**-digits of |z| is rounding and is dropped.
    """
    mp = work.mp

    def real(z, name):
        if isinstance(z, mp.mpc):
            if abs(z.imag) > work.tol(0) * max(1, abs(z)):
                raise ParameterError("recurrence coefficient %s = %s is not real: no positive "
                                     "measure" % (name, mp.nstr(z, 8)))
            z = z.real
        return mp.mpf(z)

    return [(real(pair.b, "b_%d" % n), real(pair.u, "u_%d" % n) if n else mp.mpf(0))
            for n, pair in enumerate(families.recurrences(fid, params, N - 1, work))]


def _root_rows(table, pairs):
    """Rows sqrt(w) P_0 .. sqrt(w) P_N over the nodes of a table, in block fixed point.

    pairs holds the real (b_n, u_n), n < N, of the recurrence
    P_{n+1} = (x - b_n) P_n - u_n P_{n-1}; see the module docstring.
    """
    mp, bits = table.mp, table.bits()
    roots, exps = [], []
    for x, w in zip(table.xs, table.weights):
        if not isinstance(w, mp.mpf) or w._mpf_[0] or w._mpf_[3] < 0:
            raise ParameterError("weight %s at node x = %s is not a finite nonnegative real"
                                 % (mp.nstr(w, 8), mp.nstr(x, 8)))
        _, man, exp, bc = w._mpf_
        shift = 2 * bits - bc
        shift += (exp - shift) & 1                 # an even exponent for the root
        roots.append(isqrt(man << shift))
        exps.append((exp - shift) >> 1)
    xs = [to_fixed(x._mpf_, bits) for x in table.xs]
    prev, cur = [0] * len(roots), roots
    rows = [quadrature.block_row(cur, exps, bits)]
    for b, u in pairs:
        B, U = to_fixed(b._mpf_, bits), to_fixed(u._mpf_, bits)
        prev, cur = cur, [((x - B) * p - U * q) >> bits for x, p, q in zip(xs, cur, prev)]
        rows.append(quadrature.block_row(cur, exps, bits))
    return rows


def gram(family, params, N, ctx: PrecisionContext):
    """Gram matrix <P_n, P_m> for 0 <= m, n <= N against the printed norms.

    Returns a report with the raised-precision matrix, the maximum relative
    off-diagonal entry (scaled by sqrt(h_n h_m)), the worst diagonal
    deviation from the printed norm formula, the working digits the
    quadrature ran at, and the row fields: status (pass when both
    deviations are within the Gram gate of ``precision``; fail otherwise;
    inconclusive when the node table did not converge), residual (the
    larger of the two deviations), tolerance (the gate) and notes.  Raises
    ParameterError where the recurrence or the weight is not that of a
    positive measure.
    """
    fid = families.resolve_family(family)
    work, spec, table = _boosted_table(fid, params, ctx, 2 * N)
    mp = work.mp
    rows = _root_rows(table, _real_pairs(fid, params, N, work))

    pref = spec.measure_prefactor
    norms = families.norms(fid, params, N, work)
    matrix = [[mp.mpf(0)] * (N + 1) for _ in range(N + 1)]
    for n in range(N + 1):
        for m in range(n + 1):
            matrix[n][m] = matrix[m][n] = table.dot(rows[n], rows[m]) * pref

    off = mp.mpf(0)
    diag = mp.mpf(0)
    for n in range(N + 1):
        diag = max(diag, abs(matrix[n][n] - norms[n]) / norms[n])
        for m in range(n):
            off = max(off, abs(matrix[n][m]) / mp.sqrt(norms[n] * norms[m]))

    off, diag = float(off), float(diag)
    row = verdict("gram", max(off, diag), ctx)
    if not table.converged:
        row["status"] = "inconclusive"
    return {
        "family": fid,
        "N": N,
        "max_offdiag": off,
        "max_diag_error": diag,
        **row,
        "notes": "offdiag %.3g diag %.3g over %d nodes at %d digits%s" % (
            off, diag, len(table.xs), work.mp.dps, "" if table.converged else
            "; node table not converged after %d meshes" % table.levels),
        "nodes": len(table.xs),
        "working_digits": work.mp.dps,
        "converged": table.converged,
        "matrix": matrix,
        "norms": norms,
    }


def favard_scan(family, params, N, ctx: PrecisionContext):
    """min u_n over 1 <= n <= N and the first nonreal n; pass iff there is none and min u_n > 0.

    n is nonreal when |Im b_n| or |Im u_n| exceeds the favard-reality gate.
    """
    fid = families.resolve_family(family)
    tol = GATES["favard-reality"](ctx)
    min_u = first_nonreal = None
    for n, pair in enumerate(families.recurrences(fid, params, N, ctx)):
        if first_nonreal is None and max(abs(pair.b.imag), abs(pair.u.imag)) > tol:
            first_nonreal = n
        if n >= 1:
            min_u = pair.u.real if min_u is None else min(min_u, pair.u.real)
    return {
        "family": fid,
        "N": N,
        "min_u": float(min_u) if min_u is not None else None,
        "first_nonreal_n": first_nonreal,
        "pass": first_nonreal is None and min_u is not None and min_u > 0,
    }


def favard_check(family, params, N, ctx: PrecisionContext):
    """The Favard row: real b_n and u_n with u_n > 0 for n <= N, no residual or tolerance.

    For the quasi family (CCBI) the row checks its classification instead:
    the Favard scan (n <= 5) finds a nonreal b_n or u_n at b2 = 1 and none
    at b2 = 0.  The notes of a failed row name the sub-test that failed.
    """
    info = families.family_info(family)
    nonreal = ("first nonreal b_n or u_n at n = %%d: imaginary part above the favard-reality "
               "gate %.3g" % GATES["favard-reality"](ctx))
    failed = []
    if info.kind == "quasi":
        one, zero = [favard_scan(info.id, {**params, "b2": ctx.mp.mpf(b2)}, 5, ctx)["first_nonreal_n"]
                     for b2 in (1, 0)]
        if one is None:
            failed.append("b2 = 1 keeps every b_n and u_n real through n = 5")
        if zero is not None:
            failed.append("b2 = 0: " + nonreal % zero)
        notes = "b2 != 0 breaks reality, b2 = 0 reduces to the generalized symmetric family"
    else:
        rep = favard_scan(info.id, params, N, ctx)
        notes = "min u_n = %s over n <= %d" % (rep["min_u"], N)
        if rep["first_nonreal_n"] is not None:
            failed.append(nonreal % rep["first_nonreal_n"])
        elif not rep["pass"]:
            failed.append(notes + " is not positive")
    return {"family": info.id, "status": "fail" if failed else "pass",
            "residual": None, "tolerance": None, "notes": "; ".join(failed) or notes}
