"""Gram matrices against the printed norms, and the Favard row.

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
b_n or u_n that fails the reality gate (``precision.is_real``, at the
table's digits), or a weight that is negative or not real, raises
ParameterError naming the first one, as does a density value that is not
a finite real, which ends the table's sweep.  The Gram is the orthogonality
oracle: matching the printed norms through degree N fixes the moments of
the weight through degree 2N.

Favard.  Favard's theorem gives a positive measure when every b_n is real
and every u_n > 0, n >= 1, and ``favard_check`` decides that for all n.
Each orthogonal family states its u_n on each parity class n = 2m + e as
factors in m (``families.factored_u``).  The row reads the recurrence
through n = FAVARD_N0 = 16, 8 points per class: each b_n and u_n must pass
the reality gate at d, each u_n must match its factors under the algebraic
gate, and the residual weighs each difference against the rounding its
factors allow (``_error_scale``).  Printed u_n on one class are rational in
m of degrees (num, den) with num + den <= 6, and a difference of two has a
numerator of degree at most num + den, so agreement at 8 points makes the
recurrence's u_n the printed one for every m.  The sign then comes from the
factors alone (``_sign_failure``): u_n keeps its sign between the real
roots of its factors, and a non-real factor pairs off with its exact
conjugate (``base.conjugate_closed``) into a positive one.  An integer root
n >= 1 of a denominator ends the row as a ParameterError (inconclusive),
one of the numerator makes u_n = 0 and fails it.  Families without
factors, the q-aux families whose u_n carry q^n, scan u_n > 0 for n <= N
(``favard_scan``).

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
from .families.base import conjugate_closed, denominator_check
from .precision import PrecisionContext, gram_context, is_real, verdict

FAVARD_N0 = 16      # u_1 .. u_16, 8 points per parity class (module docstring, Favard)


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
    """Real (b_n, u_n) for n < N, with u_0 = 0: a coefficient that fails the reality gate
    (``precision.is_real``) rules out a positive measure, one that passes drops its
    imaginary part as rounding."""
    mp = work.mp

    def real(z, name):
        if not is_real(z, work):
            raise ParameterError("recurrence coefficient %s = %s is not real: no positive "
                                 "measure" % (name, mp.nstr(z, 8)))
        return mp.mpf(z.real)

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


def _first_nonreal(pairs, ctx: PrecisionContext):
    """The first n whose b_n or u_n fails the reality gate (``precision.is_real``), or None."""
    return next((n for n, pair in enumerate(pairs)
                 if not (is_real(pair.b, ctx) and is_real(pair.u, ctx))), None)


def favard_scan(family, params, N, ctx: PrecisionContext):
    """min u_n over 1 <= n <= N and the first nonreal n (``_first_nonreal``); pass iff there
    is none and min u_n > 0."""
    fid = families.resolve_family(family)
    pairs = families.recurrences(fid, params, N, ctx)
    min_u = min((pair.u.real for pair in pairs[1:]), default=None)
    first_nonreal = _first_nonreal(pairs, ctx)
    return {
        "family": fid,
        "N": N,
        "min_u": float(min_u) if min_u is not None else None,
        "first_nonreal_n": first_nonreal,
        "pass": first_nonreal is None and min_u is not None and min_u > 0,
    }


def _error_scale(u, m):
    """The scale of the rounding error of u at m: u with each factor p m + q of ``num`` taken
    at |p| m + |q| (no cancellation), times the largest (|p| m + |q|) / |p m + q| of ``den``
    (the condition of a denominator near its zero)."""
    scale, cond = abs(u.const), 1
    for p, q in u.num:
        scale *= abs(p) * m + abs(q)
    for p, q in u.den:
        value = abs(p * m + q)
        scale /= value
        cond = max(cond, (abs(p) * m + abs(q)) / value)
    return scale * cond


def _cross_check(pairs, classes, ctx: PrecisionContext):
    """(worst, n): the largest |u_n - factored u_n| / ``_error_scale`` over the pairs' n >= 1."""
    worst, at = ctx.mp.mpf(0), None
    for n, pair in enumerate(pairs[1:], 1):
        u, m = classes[n % 2], n // 2
        diff = abs(pair.u - u.value(m))
        if diff:
            scale = _error_scale(u, m)
            err = diff / scale if scale else ctx.mp.inf
            if err > worst:
                worst, at = err, n
    return worst, at


def _sign_failure(classes, ctx: PrecisionContext):
    """None when the factored u_n > 0 for every n >= 1, else the note of the first failure.

    On each class n = 2m + e, m >= 1 - e, a factor whose root -q/p is not real must pair
    off with its exact conjugate (``base.conjugate_closed``), of the numerator or of the
    denominator as it is; the pair is positive for real m.  The real factors (Im q = 0)
    change sign only at their roots, so u_n is positive on the class when it is at its
    first m, at the first integer past each root and at each integer root.  Raises
    ParameterError where a denominator factor is within ``denominator_check``'s floor of
    0 at an integer n >= 1, before any sign is read.
    """
    mp = ctx.mp
    check = denominator_check(ctx)
    failures = []
    for e, u in enumerate(classes):
        m0 = 1 - e
        real, paired = [], True
        for factors, is_den in ((u.num, False), (u.den, True)):
            factors = [(p, mp.mpc(q)) for p, q in factors]
            paired = paired and conjugate_closed([-q / p for p, q in factors], mp)
            real += [(-q.real / p, p, q.real, is_den) for p, q in factors if not q.imag]
        for r, p, q, is_den in real:
            k = int(mp.nint(r))
            if is_den and k >= m0:
                check(p * k + q, "a factor of the denominator of u_%d" % (2 * k + e))
        if not paired:
            failures.append((0, "the factors of u_n on n = 2m + %d are neither real nor in "
                                "conjugate pairs" % e))
            continue
        marks = {m0} | {k for r, _, _, _ in real for k in (int(mp.floor(r)) + 1, int(mp.nint(r)))}
        for m in sorted(k for k in marks if k >= m0):
            sign = mp.sign(mp.re(u.const))
            for _, p, q, _ in real:
                sign *= mp.sign(p * m + q)
            if sign <= 0:
                n = 2 * m + e
                value = mp.nstr(mp.re(u.value(m)), 8)
                failures.append((n, "u_%d = %s is not positive" % (n, value)))
                break
    return min(failures)[1] if failures else None


def favard_check(family, params, N, ctx: PrecisionContext):
    """The Favard row: real b_n and u_n > 0 for every n >= 1 (module docstring, Favard).

    Its residual and tolerance are those of the cross-check of u_n against
    its factors; a family without factors (q-aux) scans n <= N and reports
    none.  For the quasi family (CCBI) the row checks its classification
    instead: the Favard scan (n <= 5) finds a nonreal b_n or u_n at b2 = 1
    and none at b2 = 0.  The notes of a failed row name the sub-test that
    failed.
    """
    info = families.family_info(family)
    nonreal = ("first nonreal b_n or u_n at n = %%d: imaginary part above the reality gate at "
               "%d digits" % ctx.digits)
    row = {"residual": None, "tolerance": None}
    failed = []
    if info.kind == "quasi":
        one, zero = [favard_scan(info.id, {**params, "b2": ctx.mp.mpf(b2)}, 5, ctx)["first_nonreal_n"]
                     for b2 in (1, 0)]
        if one is None:
            failed.append("b2 = 1 keeps every b_n and u_n real through n = 5")
        if zero is not None:
            failed.append("b2 = 0: " + nonreal % zero)
        notes = "b2 != 0 breaks reality, b2 = 0 reduces to the generalized symmetric family"
    elif info.id not in families.FACTORED_U:
        rep = favard_scan(info.id, params, N, ctx)
        notes = "min u_n = %s over n <= %d" % (rep["min_u"], N)
        if rep["first_nonreal_n"] is not None:
            failed.append(nonreal % rep["first_nonreal_n"])
        elif not rep["pass"]:
            failed.append(notes + " is not positive")
    else:
        pairs = families.recurrences(info.id, params, FAVARD_N0, ctx)
        classes = families.factored_u(info.id, params, ctx)
        signs = _sign_failure(classes, ctx)     # first: a printed denominator zero ends the row
        worst, at = _cross_check(pairs, classes, ctx)
        row = verdict("favard", worst, ctx)
        first = _first_nonreal(pairs, ctx)
        notes = ("u_n > 0 for all n by its printed factors, which match the recurrence "
                 "through n = %d" % FAVARD_N0)
        if first is not None:
            failed.append(nonreal % first)
        elif row["status"] == "fail":
            failed.append("u_%d differs from its printed factors by %.3g of their scale, above "
                          "the favard gate" % (at, worst))
        elif signs:
            failed.append(signs)
    return {"family": info.id, **row, "status": "fail" if failed else "pass",
            "notes": "; ".join(failed) or notes}
