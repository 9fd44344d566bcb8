"""Gram matrices against the printed norms, Favard scans, and moment cross-checks.

Gram entries share one quadrature node table per family: the density is
evaluated once per node, then every <P_n, P_m> is a weighted dot product,
with a per-entry error estimate from the table's embedded coarse sum.  The
moment check integrates x^k over the same kind of table and compares with
the moments implied by the recurrence alone.  Favard scans read positivity
straight off the recurrence coefficients.
"""

from __future__ import annotations

from . import families, quadrature
from .precision import PrecisionContext


def build_node_table(spec, ctx: PrecisionContext, tol, max_degree):
    """Node table of a weight spec: its support pieces and density in the DE engine."""
    return quadrature.build_node_table(spec.total_support(), spec.density, ctx, tol, max_degree)


def _boosted_table(fid, params, ctx: PrecisionContext, max_degree):
    """Weight spec and node table for polynomial factors up to max_degree.

    Integration runs 30 digits past ctx so that endpoint tails of singular
    weights stay below the comparison tolerances.  Singular-endpoint
    densities evaluated naively floor out near half the working digits, so
    the node tolerance stays safely above that.  Returns (work, spec, table)
    with work the boosted context.
    """
    work = PrecisionContext(ctx.digits + 30)
    tol = work.mp.mpf(10) ** (-(ctx.digits // 2 + 15))
    spec = families.weight_spec(fid, params, work)
    table = build_node_table(spec, work, tol, max_degree)
    return work, spec, table


def gram(family, params, N, ctx: PrecisionContext):
    """Gram matrix <P_n, P_m> for 0 <= m, n <= N against the printed norms.

    Returns a report with the raised-precision matrix, the maximum relative
    off-diagonal entry (scaled by sqrt(h_n h_m)) and the worst diagonal
    deviation from the printed norm formula.
    """
    fid = families.resolve_family(family)
    work, spec, table = _boosted_table(fid, params, ctx, 2 * N)
    mp = work.mp
    polys = families.generate(fid, params, N, work)

    values = []
    for n in range(N + 1):
        values.append([mp.re(polys[n].evaluate(x)) for x in table.xs])

    pref = spec.measure_prefactor
    norms = [families.norm(fid, params, n, work) for n in range(N + 1)]
    matrix = [[mp.mpf(0)] * (N + 1) for _ in range(N + 1)]
    entry_err = mp.mpf(0)
    for n in range(N + 1):
        for m in range(n + 1):
            prod = [a * b for a, b in zip(values[n], values[m])]
            fine, crude = table.dot(prod)
            fine, crude = fine * pref, crude * pref
            matrix[n][m] = matrix[m][n] = fine
            entry_err = max(entry_err, abs(fine - crude) / max(abs(fine), mp.mpf(1)))

    off = mp.mpf(0)
    diag = mp.mpf(0)
    for n in range(N + 1):
        diag = max(diag, abs(matrix[n][n] - norms[n]) / norms[n])
        for m in range(n):
            off = max(off, abs(matrix[n][m]) / mp.sqrt(norms[n] * norms[m]))

    return {
        "family": fid,
        "N": N,
        "max_offdiag": float(off),
        "max_diag_error": float(diag),
        "entry_error_estimate": float(entry_err),
        "nodes": len(table.xs),
        "converged": table.converged,
        "matrix": matrix,
        "norms": norms,
    }


def favard_scan(family, params, N, ctx: PrecisionContext):
    """min u_n, max |Im b_n|, max |Im u_n| over n <= N; pass iff real and positive."""
    mp = ctx.mp
    fid = families.resolve_family(family)
    min_u = None
    max_im_b = mp.mpf(0)
    max_im_u = mp.mpf(0)
    first_nonreal = None
    for n in range(N + 1):
        pair = families.recurrence(fid, params, n, ctx)
        b, u = mp.mpc(pair.b), mp.mpc(pair.u)
        max_im_b = max(max_im_b, abs(mp.im(b)))
        max_im_u = max(max_im_u, abs(mp.im(u)))
        if first_nonreal is None and max(abs(mp.im(b)), abs(mp.im(u))) > ctx.tol(8) * max(1, abs(u)):
            first_nonreal = n
        if n >= 1:
            ru = mp.re(u)
            min_u = ru if min_u is None else min(min_u, ru)
    tol = ctx.tol(8)
    real_ok = max_im_b <= tol and max_im_u <= tol
    positive = min_u is not None and min_u > 0
    return {
        "family": fid,
        "N": N,
        "min_u": float(min_u) if min_u is not None else None,
        "max_imag_b": float(max_im_b),
        "max_imag_u": float(max_im_u),
        "first_nonreal_n": first_nonreal,
        "pass": bool(real_ok and positive),
    }


def moments_from_recurrence(family, params, K, ctx: PrecisionContext):
    """Moments of the orthogonality measure implied by the recurrence alone.

    Expanding x^k in the P_j basis via the recurrence gives
    integral(w x^k) = c_0(k) * integral(w); independent of any quadrature.
    Returned under the printed inner product (mass = printed norm of P_0).
    """
    mp = ctx.mp
    fid = families.resolve_family(family)
    mass = families.norm(fid, params, 0, ctx)
    pairs = [families.recurrence(fid, params, j, ctx) for j in range(K + 2)]
    coeffs = [mp.mpf(1)] + [mp.mpf(0)] * (K + 1)
    moments = [mass]
    for k in range(K):
        nxt = [mp.mpf(0)] * (K + 2)
        for j in range(K + 1):
            c = coeffs[j]
            if c == 0:
                continue
            nxt[j + 1] += c
            nxt[j] += c * mp.re(mp.mpc(pairs[j].b))
            if j > 0:
                nxt[j - 1] += c * mp.re(mp.mpc(pairs[j].u))
        coeffs = nxt
        moments.append(coeffs[0] * mass)
    return moments


def moment_crosscheck(family, params, K, ctx: PrecisionContext):
    """Quadrature moments vs recurrence-implied moments for k <= K."""
    fid = families.resolve_family(family)
    work, spec, table = _boosted_table(fid, params, ctx, K)
    mp = work.mp
    predicted = moments_from_recurrence(fid, params, K, work)
    worst = mp.mpf(0)
    pref = spec.measure_prefactor
    for k in range(K + 1):
        got = table.dot([x ** k for x in table.xs])[0] * pref
        scale = max(abs(predicted[k]), mp.sqrt(abs(predicted[0]) * abs(predicted[min(2 * k, K)])), mp.mpf(1))
        worst = max(worst, abs(got - predicted[k]) / scale)
    return {"family": fid, "K": K, "max_relative_error": float(worst)}
