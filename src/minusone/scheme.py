"""The scheme as data: every specialization, limit, q -> -1 transition and
Christoffel/Geronimus spectral transformation connecting the families,
with machinery to verify exact edges at coefficient level, limit edges by
ladder extrapolation, and kernel-partner identities; exportable as a graph.

Each edge carries its parameter map where it is registered (see
:class:`SchemeEdge`); the verifiers, the commuting squares and the
reading checks of :data:`OPEN_QUESTIONS` all read the maps from there.

Every frame is built from rescaled recurrence pairs: U_n(x) = S_n(s x)/s^n
satisfies the three-term recurrence of S_n with the pairs (b_n/s, u_n/s^2),
so ``families.polys_from_pairs`` on those pairs gives the source of a
specialization or limit edge, and the target of a Christoffel edge, in the
compared frame.

Limit verification compares both the rescaled polynomials and the
rescaled recurrence pairs, fits the convergence order p from the
last three points of the error ladder, and Richardson-extrapolates from the
last two rungs at that order; the factor 10^p - 1 assumes that consecutive
ladder values differ by a factor of 10, as those of ``default_ladder`` do.
The extrapolated error enters the pass/fail bound only.  Every gate, and the
ladders' working precision, is read from the plan in ``precision``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from collections import namedtuple

from . import families, operators
from .polynomials import Poly, divide_exact, poly_rel_distance
from .precision import GATES, PrecisionContext, ladder_context, verdict


# Printed readings of an edge map that only the ladder can tell apart: the
# report check name, ((label, edge map), ...) with the expected reading
# first, and the note when that reading alone converges.
_Variants = namedtuple("_Variants", "check readings resolution")


@dataclasses.dataclass(frozen=True)
class SchemeEdge:
    """One connection of the scheme, with the parameter map that tests it.

    ``params(f, h, mp)`` returns ``(source params, target params, s)``.
    ``f`` maps the fixture names to mpf, ``h`` is the ladder value of a
    limit edge (None on exact edges) and ``mp`` the working mpmath context.
    An edge whose printed map has several readings lists them, each as a
    map of its own, in ``variants``; ``params`` is the expected one.
    On specialization and limit edges the source is compared in the target
    frame: U_n(x) = S_n(s x) / s^n against T_n(x).  On a Christoffel edge s
    is the target-frame scale: the kernel sequence of the source is compared
    against T_n(s x) / s^n.  Either frame is built by the recurrence from the
    rescaled pairs (b_n/s, u_n/s^2) of the sequence it rescales.  A Geronimus
    edge has no map (``params`` is None); it is checked through the
    Christoffel edge of its pair.
    """
    source: str
    target: str
    kind: str            # specialization | limit | q-limit | christoffel | geronimus
    anchor: str
    label: str
    direction: str       # "exact" | "h->0" | "h->inf" | "eps->0"
    fixture: tuple       # ((name, decimal-string), ...) free parameters of the edge test
    params: object       # the map above; None on a geronimus edge
    variants: object = None   # _Variants for an edge with an ambiguous printed map

    @property
    def id(self):
        return "%s:%s" % (self.source, self.target)


def _fx(**kw):
    return tuple(sorted(kw.items()))


EDGES = {}


def _edge(source, target, kind, anchor, label, direction, fixture, params, variants=None):
    e = SchemeEdge(source, target, kind, anchor, label, direction, fixture, params, variants)
    EDGES[e.id] = e
    return e


def _pair(source, target, anchor, label, fixture, params):
    """A Christoffel edge and its Geronimus inverse, verified together by verify_ct_gt."""
    _edge(source, target, "christoffel", anchor, label, "exact", fixture, params)
    _edge(target, source, "geronimus", anchor, "inverse kernel map", "exact", fixture, None)


# --- exact specializations ------------------------------------------------
_edge("big-minus1-jacobi", "little-minus1-jacobi", "specialization", "A.2",
      "c -> 0 (parameters swap)", "exact", _fx(alpha="0.5", beta="1.5"),
      lambda f, h, mp: ({"alpha": f["alpha"], "beta": f["beta"], "c": mp.mpf(0)},
                        {"alpha": f["beta"], "beta": f["alpha"]}, 1))
_edge("chihara", "generalized-gegenbauer", "specialization", "A.3",
      "gamma -> 0", "exact", _fx(alpha="0.5", beta="1.5"),
      lambda f, h, mp: ({"alpha": f["alpha"], "beta": f["beta"], "gamma": mp.mpf(0)},
                        {"alpha": f["alpha"], "beta": f["beta"]}, 1))
_edge("little-minus1-jacobi", "special-little-minus1-jacobi", "specialization", "A.7",
      "alpha -> 0", "exact", _fx(beta="1.5"),
      lambda f, h, mp: ({"alpha": mp.mpf(0), "beta": f["beta"]},
                        {"alpha": f["beta"]}, 1))
_edge("generalized-gegenbauer", "gegenbauer", "specialization", "A.8",
      "alpha -> -1/2", "exact", _fx(beta="1.25"),
      lambda f, h, mp: ({"alpha": -mp.mpf(1) / 2, "beta": f["beta"] - mp.mpf(1) / 2},
                        {"alpha": f["beta"]}, 1))
_edge("minus1-meixner-pollaczek", "generalized-hermite", "specialization", "A.9",
      "gamma -> 0", "exact", _fx(alpha="0.75"),
      lambda f, h, mp: ({"alpha": f["alpha"], "gamma": mp.mpf(0)},
                        {"alpha": f["alpha"]}, 1))
_edge("generalized-hermite", "hermite", "specialization", "A.13",
      "alpha -> 0", "exact", _fx(),
      lambda f, h, mp: ({"alpha": mp.mpf(0)}, {}, 1))


def _hahn_to_sbi(f, h, mp):
    return ({"alpha": f["alpha"], "beta": mp.mpf(0), "gamma": f["gamma"]},
            {"a": 2 * f["alpha"] + 1, "b": 2 * f["gamma"] + 1}, 1)


_edge("continuous-minus1-hahn-1", "symmetric-bannai-ito", "specialization", "A.4",
      "beta -> 0 (a = 2 alpha + 1, b = 2 gamma + 1)", "exact", _fx(alpha="0.25", gamma="0.75"),
      _hahn_to_sbi)
_edge("continuous-minus1-hahn-2", "symmetric-bannai-ito", "specialization", "A.5",
      "beta -> 0 (a = 2 alpha + 1, b = 2 gamma + 1)", "exact", _fx(alpha="0.25", gamma="0.75"),
      _hahn_to_sbi)
_edge("continuous-bannai-ito", "continuous-minus1-hahn-1", "specialization", "A.1",
      "delta = beta", "exact", _fx(alpha="0.25", beta="0.5", gamma="0.75"),
      lambda f, h, mp: (
          {"alpha": f["alpha"], "beta": f["beta"], "gamma": f["gamma"], "delta": f["beta"]},
          {"alpha": f["alpha"], "beta": f["beta"], "gamma": f["gamma"]}, 1))
_edge("continuous-bannai-ito", "continuous-minus1-hahn-2", "specialization", "A.1",
      "delta = -beta", "exact", _fx(alpha="0.25", beta="0.5", gamma="0.75"),
      lambda f, h, mp: (
          {"alpha": f["alpha"], "beta": f["beta"], "gamma": f["gamma"], "delta": -f["beta"]},
          {"alpha": f["alpha"], "beta": f["beta"], "gamma": f["gamma"]}, 1))
_edge("continuous-complementary-bannai-ito", "generalized-symmetric-bannai-ito",
      "specialization", "ss5.2", "b2 = 0 (a = a1 + i b1, b = a1 - i b1, c = a2)",
      "exact", _fx(a1="0.75", b1="0.5", a2="1.25"),
      lambda f, h, mp: (
          {"a1": f["a1"], "b1": f["b1"], "a2": f["a2"], "b2": mp.mpf(0)},
          {"a": f["a1"] + mp.j * f["b1"], "b": f["a1"] - mp.j * f["b1"], "c": f["a2"]}, 1))

# --- limits ----------------------------------------------------------------
_edge("continuous-bannai-ito", "big-minus1-jacobi", "limit", "ss3.1",
      "beta, delta ~ 1/h; x scaled by 2 beta/h", "h->0",
      _fx(a1="0.25", b1="1", a2="0.25", b2="0.5"),
      lambda f, h, mp: (
          {"alpha": f["a1"], "beta": f["b1"] / h, "gamma": f["a2"], "delta": f["b2"] / h},
          {"alpha": 4 * f["a1"] + 1, "beta": 4 * f["a2"] + 1, "c": -f["b2"] / f["b1"]},
          2 * f["b1"] / h))


def _ccbi_to_chihara(f, h, mp):
    root = mp.sqrt(f["c1"] ** 2 - f["c2"] ** 2)
    return ({"a1": (f["beta"] + 1) / 2, "b1": h * f["c1"],
             "a2": f["alpha"] + 1, "b2": h * f["c2"]},
            {"alpha": f["alpha"], "beta": f["beta"], "gamma": f["c2"] / root}, h * root)


_edge("continuous-complementary-bannai-ito", "chihara", "limit", "ss5.1",
      "b1 = h c1, b2 = h c2; x scaled by h sqrt(c1^2-c2^2)", "h->inf",
      _fx(alpha="0.5", beta="1.5", c1="1", c2="0.5"), _ccbi_to_chihara)
_edge("generalized-symmetric-bannai-ito", "symmetric-bannai-ito", "limit", "A.6",
      "c -> inf", "h->inf", _fx(a="0.5", b="1.5"),
      lambda f, h, mp: ({"a": f["a"], "b": f["b"], "c": h},
                        {"a": f["a"], "b": f["b"]}, 1))
_edge("generalized-symmetric-bannai-ito", "generalized-gegenbauer", "limit", "A.6",
      "a, b = (beta+1)/2 +- i h, c = alpha + 1; x scaled by h", "h->inf",
      _fx(alpha="0.5", beta="1.5"),
      lambda f, h, mp: (
          {"a": (f["beta"] + 1) / 2 + mp.j * h, "b": (f["beta"] + 1) / 2 - mp.j * h,
           "c": f["alpha"] + 1},
          {"alpha": f["alpha"], "beta": f["beta"]}, h))


def _hahn_to_mp(f, h, mp, product=False):
    if product:                            # rejected print variant sqrt(gamma beta / 2)
        bK = mp.sqrt(h * f["beta"] / 2)
    else:
        bK = mp.sqrt(h / 2) * f["beta"]
    return ({"alpha": (2 * f["alpha"] - 1) / 4, "beta": bK, "gamma": h},
            {"alpha": f["alpha"], "gamma": f["beta"]}, mp.sqrt(2 * h))


_edge("continuous-minus1-hahn-1", "minus1-meixner-pollaczek", "limit", "A.4",
      "gamma -> inf; x scaled by sqrt(2 gamma)", "h->inf", _fx(alpha="0.75", beta="0.5"),
      _hahn_to_mp,
      variants=_Variants("open-question:mp-scaling",
                         (("sqrt(gamma/2)*beta", _hahn_to_mp),
                          ("sqrt(gamma*beta/2)", functools.partial(_hahn_to_mp, product=True))),
                         "sqrt(gamma/2)*beta; the sqrt(gamma*beta/2) reading diverges"))
_edge("continuous-minus1-hahn-2", "minus1-meixner-pollaczek", "limit", "A.5",
      "gamma -> inf; x scaled by sqrt(2 gamma)", "h->inf", _fx(alpha="0.75", beta="0.5"),
      _hahn_to_mp)
_edge("chihara", "minus1-meixner-pollaczek", "limit", "A.3",
      "beta -> inf; x scaled by 1/sqrt(beta)", "h->inf", _fx(alpha="0.75", gamma="0.5"),
      lambda f, h, mp: (
          {"alpha": f["alpha"] - mp.mpf(1) / 2, "beta": h, "gamma": f["gamma"] / mp.sqrt(h)},
          {"alpha": f["alpha"], "gamma": f["gamma"]}, 1 / mp.sqrt(h)))
_edge("generalized-gegenbauer", "generalized-hermite", "limit", "A.8",
      "beta -> inf; x scaled by 1/sqrt(beta)", "h->inf", _fx(alpha="0.75"),
      lambda f, h, mp: ({"alpha": f["alpha"] - mp.mpf(1) / 2, "beta": h},
                        {"alpha": f["alpha"]}, 1 / mp.sqrt(h)))
_edge("symmetric-bannai-ito", "generalized-hermite", "limit", "A.10",
      "b -> inf; x scaled by sqrt(b)", "h->inf", _fx(alpha="0.75"),
      lambda f, h, mp: ({"a": f["alpha"] + mp.mpf(1) / 2, "b": h},
                        {"alpha": f["alpha"]}, mp.sqrt(h)))
_edge("gegenbauer", "hermite", "limit", "A.12",
      "alpha -> inf; x scaled by 1/sqrt(alpha)", "h->inf", _fx(),
      lambda f, h, mp: ({"alpha": h}, {}, 1 / mp.sqrt(h)))

# --- q -> -1 limits (the ladder value h is eps) -----------------------------
_edge("big-q-jacobi", "big-minus1-jacobi", "q-limit", "A.2",
      "q = -e^eps, a = -e^(eps alpha), b = -e^(eps beta)", "eps->0",
      _fx(alpha="0.5", beta="1.5", c="0.25"),
      lambda f, eps, mp: (
          {"a": -mp.exp(eps * f["alpha"]), "b": -mp.exp(eps * f["beta"]),
           "c": f["c"], "q": -mp.exp(eps)},
          {"alpha": f["alpha"], "beta": f["beta"], "c": f["c"]}, 1))


def _big_q_to_chihara(f, eps, mp):
    c = f["c"]
    root = mp.sqrt(1 - c * c)
    return ({"a": mp.exp(2 * eps * f["beta"]), "b": -mp.exp(eps * (2 * f["alpha"] + 1)),
             "c": c, "q": -mp.exp(eps)},
            {"alpha": f["alpha"], "beta": f["beta"], "gamma": -c / root}, root)


_edge("big-q-jacobi", "chihara", "q-limit", "A.3",
      "q = -e^eps, a = e^(2 eps beta), b = -e^(eps(2 alpha+1)); x scaled by sqrt(1-c^2)",
      "eps->0", _fx(alpha="0.5", beta="1.5", c="0.25"), _big_q_to_chihara)


def _dilated_to_little(f, eps, mp, bn_sign):
    return ({"a": -mp.exp(eps * f["alpha"]), "b": -mp.exp(eps * f["beta"]), "q": -mp.exp(eps),
             "bn_sign": bn_sign},
            {"alpha": f["alpha"], "beta": f["beta"]}, 1)


_edge("little-q-jacobi-dilated", "little-minus1-jacobi", "q-limit", "A.7",
      "q = -e^eps, a = -e^(eps alpha), b = -e^(eps beta)", "eps->0",
      _fx(alpha="0.5", beta="1.5"), functools.partial(_dilated_to_little, bn_sign="minus"),
      variants=_Variants("open-question:bn-sign",
                         tuple((sign, functools.partial(_dilated_to_little, bn_sign=sign))
                               for sign in ("minus", "plus")),
                         "b_n = 1 - A_n - C_n; the printed '+' variant diverges"))
_edge("little-q-jacobi-dilated", "generalized-gegenbauer", "q-limit", "A.8",
      "q = -e^eps, a = -e^(eps(2 alpha+1)), b = e^(2 eps beta)", "eps->0",
      _fx(alpha="0.5", beta="1.5"),
      lambda f, eps, mp: (
          {"a": -mp.exp(eps * (2 * f["alpha"] + 1)), "b": mp.exp(2 * eps * f["beta"]),
           "q": -mp.exp(eps)},
          {"alpha": f["alpha"], "beta": f["beta"]}, 1))


def _q_hahn_to_hahn(sign):
    """Map onto -1 Hahn I (sign 1) or II (sign -1): b = sign e^(eps(2 gamma+1))."""
    def params(f, eps, mp):
        return ({"a": mp.exp(eps * (2 * f["alpha"] + 1)),
                 "b": sign * mp.exp(eps * (2 * f["gamma"] + 1)),
                 "phi": mp.pi / 2 + 2 * eps * f["beta"], "q": -mp.exp(eps)},
                {"alpha": f["alpha"], "beta": f["beta"], "gamma": f["gamma"]}, 1)
    return params


_edge("continuous-q-hahn", "continuous-minus1-hahn-1", "q-limit", "A.4",
      "q = -e^eps, a = e^(eps(2 alpha+1)), b = e^(eps(2 gamma+1)), phi = pi/2 + 2 eps beta",
      "eps->0", _fx(alpha="0.25", beta="0.5", gamma="0.75"), _q_hahn_to_hahn(1))
_edge("continuous-q-hahn", "continuous-minus1-hahn-2", "q-limit", "A.5",
      "q = -e^eps, a = e^(eps(2 alpha+1)), b = -e^(eps(2 gamma+1)), phi = pi/2 + 2 eps beta",
      "eps->0", _fx(alpha="0.25", beta="0.5", gamma="0.75"), _q_hahn_to_hahn(-1))


def _q_mp_to_mp(f, eps, mp):
    q = -mp.exp(-eps)
    return ({"a": -mp.exp(-eps * (f["alpha"] + mp.mpf(1) / 2)),
             "phi": mp.pi / 2 + mp.sqrt(eps) * f["gamma"], "q": q},
            {"alpha": f["alpha"], "gamma": f["gamma"]}, mp.sqrt(1 + q))


_edge("q-meixner-pollaczek", "minus1-meixner-pollaczek", "q-limit", "A.9",
      "q = -e^-eps, a = -e^(-eps(alpha+1/2)), phi = pi/2 + sqrt(eps) gamma; x scaled by sqrt(1+q)",
      "eps->0", _fx(alpha="0.75", gamma="0.5"), _q_mp_to_mp)

# --- spectral transformations (each pair registers both directions) --------
_pair("little-minus1-jacobi", "generalized-gegenbauer", "A.7",
      "kernel point 1; target ((alpha-1)/2, (beta+1)/2)", _fx(alpha="0.5", beta="1.5"),
      lambda f, h, mp: ({"alpha": f["alpha"], "beta": f["beta"]},
                        {"alpha": (f["alpha"] - 1) / 2, "beta": (f["beta"] + 1) / 2}, 1))
_pair("special-little-minus1-jacobi", "gegenbauer", "A.11",
      "kernel point 1; target (alpha+2)/2", _fx(alpha="0.5"),
      lambda f, h, mp: ({"alpha": f["alpha"]}, {"alpha": (f["alpha"] + 2) / 2}, 1))


def _big_to_chihara_kernel(f, h, mp):
    """The kernel sequence is sqrt(1-c^2)^n C_n(x/sqrt(1-c^2)), hence s =
    1/sqrt(1-c^2), at the boxed parameters ((beta-1)/2, (alpha+1)/2,
    -c/sqrt(1-c^2)); the reflected form
    printed alongside carries one gamma-sign slip (the recurrence-level
    kernel map fixes the sign unambiguously)."""
    c = f["c"]
    root = mp.sqrt(1 - c * c)
    return ({"alpha": f["alpha"], "beta": f["beta"], "c": c},
            {"alpha": (f["beta"] - 1) / 2, "beta": (f["alpha"] + 1) / 2, "gamma": -c / root},
            1 / root)


_pair("big-minus1-jacobi", "chihara", "A.2",
      "kernel point 1; target ((beta-1)/2, (alpha+1)/2, -c/sqrt(1-c^2)), x -> -x/sqrt(1-c^2)",
      _fx(alpha="0.5", beta="1.5", c="0.25"), _big_to_chihara_kernel)


def edge_catalog():
    """All scheme edges, sorted by id."""
    return [EDGES[k] for k in sorted(EDGES)]


def resolve_edge(selector: str) -> SchemeEdge:
    if ":" not in selector:
        raise families.ParameterError("edge selector must be source:target, got %r" % selector)
    src, dst = selector.split(":", 1)
    key = "%s:%s" % (families.resolve_family(src), families.resolve_family(dst))
    if key not in EDGES:
        raise families.ParameterError("no scheme edge %s" % key)
    return EDGES[key]


def _mapdata(edge: SchemeEdge, ctx: PrecisionContext, h=None):
    """``edge.params`` at the edge fixture."""
    mp = ctx.mp
    f = {k: mp.mpf(v) for k, v in edge.fixture}
    return edge.params(f, h, mp)


def _frame(pairs, s):
    """The pairs (b_n/s, u_n/s^2) of U_n(x) = S_n(s x)/s^n, for the pairs (b_n, u_n) of S_n."""
    return [families.RecurrencePair(b=pair.b / s, u=pair.u / s ** 2) for pair in pairs]


def _compare_sets(upolys, tpolys):
    worst = 0
    for u, t in zip(upolys, tpolys):
        worst = max(worst, poly_rel_distance(u, t))
    return worst


def verify_exact(edge, N, ctx: PrecisionContext):
    """Coefficient-level equality of an exact specialization edge for n <= N."""
    if isinstance(edge, str):
        edge = resolve_edge(edge)
    src_params, tgt_params, s = _mapdata(edge, ctx)
    source = families.polys_from_pairs(
        _frame(families.recurrences(edge.source, src_params, N - 1, ctx), s), ctx)
    target = families.generate(edge.target, tgt_params, N, ctx)
    err = _compare_sets(source, target)
    return {
        "edge": edge.id, "kind": edge.kind, "anchor": edge.anchor,
        "N": N, "max_error": float(err), **verdict("exact", err, ctx), "notes": edge.label,
    }


# degrees compared on every ladder: the limit edges, the squares and the open questions
LADDER_N = 6


def _order_note(order):
    """A fitted convergence order to two decimals, or "none" where none was fitted."""
    return "none" if order is None else "%.2f" % order


def default_ladder(direction, ctx):
    """h = 10^1 .. 10^6 toward h -> inf, else 10^-1 .. 10^-6: the step of 10 that
    the Richardson factor of ``verify_limit`` assumes."""
    mp = ctx.mp
    if direction == "h->inf":
        return [mp.mpf(10) ** k for k in range(1, 7)]
    return [mp.mpf(10) ** -k for k in range(1, 7)]


def verify_limit(edge, N, ctx: PrecisionContext):
    """Ladder convergence of a limit or q-limit edge over ``default_ladder``.

    Passes iff polynomial-coefficient and recurrence-coefficient errors both
    decay monotonically with fitted order >= 1 and the Richardson
    extrapolation lands within the limit gate of the target, or the last
    ladder error is below the "converged exactly" floor.  The order p is
    fitted from the last three ladder points; the extrapolation runs from
    the last two rungs with the factor 10^p - 1, which assumes a ladder step
    of 10.  The ladder runs in ``precision.ladder_context`` (gate, floor and
    context: ``precision``, Precision plan).
    The residual is the extrapolated error; the notes give the fitted
    order and the ladder errors; ``rungs`` holds the rescaled source
    polynomials P_0 .. P_N at each ladder point.
    """
    if isinstance(edge, str):
        edge = resolve_edge(edge)
    ctx = ladder_context(ctx)
    mp = ctx.mp
    ladder = default_ladder(edge.direction, ctx)
    tgt_params = _mapdata(edge, ctx, h=ladder[0])[1]
    target_pairs = families.recurrences(edge.target, tgt_params, N, ctx)
    target = families.polys_from_pairs(target_pairs[:N], ctx)

    errors = []
    rec_errors = []
    ladder_polys = []
    for h in ladder:
        src_params, _, s = _mapdata(edge, ctx, h=h)
        source_pairs = _frame(families.recurrences(edge.source, src_params, N, ctx), s)
        upolys = families.polys_from_pairs(source_pairs[:N], ctx)
        ladder_polys.append(upolys)
        errors.append(_compare_sets(upolys, target))
        rec_errors.append(max(max(abs(sp.b - tp.b), abs(sp.u - tp.u)) / max(1, abs(tp.b), abs(tp.u))
                              for sp, tp in zip(source_pairs, target_pairs)))

    floor = GATES["limit-floor"](ctx)
    bound = GATES["limit"](ctx)

    def monotone(seq):
        return all(seq[k + 1] < seq[k] or seq[k + 1] <= floor for k in range(len(seq) - 1))

    def fit_order(seq):
        rates = []
        for k in range(len(seq) - 1):
            if seq[k] > floor and seq[k + 1] > floor:
                rates.append(float(mp.log(seq[k] / seq[k + 1]) / mp.log(10)))
        return min(rates[-2:]) if rates else None

    order_poly = fit_order(errors)
    order_rec = fit_order(rec_errors)

    # Richardson from the last two rungs, coefficient-wise, at the fitted order
    ext_err = None
    if len(ladder_polys) >= 3 and order_poly is not None:
        p = mp.mpf(max(order_poly, 1.0))
        factor = mp.mpf(10) ** p - 1
        worst = mp.mpf(0)
        for n in range(N + 1):
            a = ladder_polys[-2][n]
            b = ladder_polys[-1][n]
            ext = b + (b - a).scale(1 / factor)
            worst = max(worst, poly_rel_distance(ext, target[n]))
        ext_err = worst
    converged_exactly = errors[-1] <= floor

    ok = (monotone(errors) and monotone(rec_errors)
          and (converged_exactly or (
              order_poly is not None and order_poly >= 0.9
              and order_rec is not None and order_rec >= 0.9
              and ext_err is not None and ext_err <= bound)))
    return {
        "edge": edge.id, "kind": edge.kind, "anchor": edge.anchor, "N": N,
        "ladder": [float(h) for h in ladder],
        "errors": [float(e) for e in errors],
        "recurrence_errors": [float(e) for e in rec_errors],
        "order_poly": order_poly,
        "order_recurrence": order_rec,
        "extrapolated_error": float(ext_err) if ext_err is not None else None,
        "residual": float(ext_err) if ext_err is not None else None,
        "tolerance": float(bound),
        "status": "pass" if ok else "fail",
        "notes": "order %s, ladder errors %s" % (
            _order_note(order_poly), ", ".join("%.1e" % e for e in errors)),
        "rungs": ladder_polys,
    }


# ----------------------------------------------------------------------
# Christoffel / Geronimus


def christoffel(pairs, ctx: PrecisionContext):
    """Kernel polynomials G_n = (P_{n+1} - A_n P_n)/(x - 1), n < len(pairs), of the
    recurrence pairs carrying a printed (A_n, C_n); each division must be exact."""
    if pairs[0].A is None:
        raise families.ParameterError("the pairs have no printed (A_n, C_n) decomposition")
    polys = families.polys_from_pairs(pairs, ctx)
    mp = ctx.mp
    den = Poly((-mp.mpf(1), mp.mpf(1)))
    return [divide_exact(polys[n + 1] - polys[n].scale(pair.A), den, ctx)
            for n, pair in enumerate(pairs)]


def geronimus(pairs, kernel_polys):
    """Inverse map P_n = G_n - C_n G_{n-1} with the printed C_n of the recurrence pairs."""
    return [kernel_polys[0]] + [kernel_polys[n] - kernel_polys[n - 1].scale(pairs[n].C)
                                for n in range(1, len(kernel_polys))]


def verify_ct_gt(pair_edge, N, ctx: PrecisionContext):
    """Both directions of a kernel pair, coefficient-exactly, plus the round trip."""
    edge = resolve_edge(pair_edge) if isinstance(pair_edge, str) else pair_edge
    if edge.kind == "geronimus":
        edge = resolve_edge("%s:%s" % (edge.target, edge.source))
    src_params, tgt_params, s = _mapdata(edge, ctx)

    pairs = families.recurrences(edge.source, src_params, N, ctx)
    source = families.polys_from_pairs(pairs, ctx)[: N + 1]
    kernel = christoffel(pairs, ctx)
    tgt_frame = families.polys_from_pairs(
        _frame(families.recurrences(edge.target, tgt_params, N - 1, ctx), s), ctx)
    err_ct = _compare_sets(kernel, tgt_frame)
    err_gt = _compare_sets(geronimus(pairs, tgt_frame), source)
    err_round = _compare_sets(geronimus(pairs, kernel), source)

    return {
        "edge": edge.id, "kind": "christoffel-geronimus", "anchor": edge.anchor, "N": N,
        "christoffel_error": float(err_ct),
        "geronimus_error": float(err_gt),
        "round_trip_error": float(err_round),
        **verdict("ct-gt", max(err_ct, err_gt, err_round), ctx),
        "notes": edge.label,
    }


def verify_recurrence_kernel_map(ctx: PrecisionContext, trials=20):
    """The A_n -> C_{n+1}, C_n -> A_n restatement of the Christoffel transform.

    Applied to little -1 Jacobi data it must reproduce the generalized
    Gegenbauer recurrence for n <= 12: 1 - C_{n+1} - A_n = 0 and
    C_n A_n = sigma_n of the kernel partner, at ``trials`` random admissible
    parameter points drawn from a fixed seed.
    """
    mp = ctx.mp
    N = 12
    edge = EDGES["little-minus1-jacobi:generalized-gegenbauer"]
    rng = random.Random(20240601)
    worst = mp.mpf(0)
    for _ in range(trials):
        point = (("alpha", repr(rng.uniform(0.1, 3.0))), ("beta", repr(rng.uniform(0.1, 3.0))))
        src, tgt = _mapdata(dataclasses.replace(edge, fixture=point), ctx)[:2]
        source = families.recurrences(edge.source, src, N + 1, ctx)
        for n, gg in enumerate(families.recurrences(edge.target, tgt, N, ctx)):
            pn, pn1 = source[n], source[n + 1]
            b_kernel = 1 - pn1.C - pn.A
            u_kernel = pn.C * pn.A
            worst = max(worst, abs(b_kernel - gg.b))
            if n >= 1:
                worst = max(worst, abs(u_kernel - gg.u) / max(abs(gg.u), mp.mpf(1)))
    return {"check": "kernel-recurrence-map", "trials": trials, "N": N,
            "max_error": float(worst), **verdict("kernel-map", worst, ctx),
            "notes": "A_n -> C_{n+1}, C_n -> A_n restatement"}


# ----------------------------------------------------------------------
# commuting squares


# Each square composes two q-limit edges at fixtures of its own: big q-Jacobi
# at c = 0 and the dilated little q-Jacobi land on the same -1 family (for
# "little" with alpha, beta swapped, since J(alpha, beta, 0) = P(beta, alpha)).
SQUARES = {
    "little": (("big-q-jacobi:big-minus1-jacobi", _fx(alpha="1", beta="2", c="0")),
               ("little-q-jacobi-dilated:little-minus1-jacobi", _fx(alpha="2", beta="1"))),
    "gegenbauer": (("big-q-jacobi:chihara", _fx(alpha="1", beta="2", c="0")),
                   ("little-q-jacobi-dilated:generalized-gegenbauer", _fx(alpha="1", beta="2"))),
}


def verify_commuting_square(which, ctx: PrecisionContext):
    """The two q -> -1 paths of the big q-Jacobi square agree.

    ``which`` is "little" (big/little -1 Jacobi square) or "gegenbauer"
    (Chihara/generalized Gegenbauer square).  Each path is its q-limit edge
    at the square's fixture, checked by :func:`verify_limit`; the c -> 0
    leg is exact at every ladder point: big q-Jacobi at c = 0 equals the
    dilated little q-Jacobi with swapped parameters.  Both paths have scale
    s = 1, so their ladders' rungs are the source polynomials, and the leg
    compares the two ladders' rungs at the ladder's precision.  The residual
    is the c -> 0 leg's error, gated as a square; the row fails also when
    either path fails.  The notes give the fitted order of each path.
    """
    N = LADDER_N
    path_a, path_b = [dataclasses.replace(EDGES[edge_id], fixture=fx)
                      for edge_id, fx in SQUARES[which]]
    rep_a, rep_b = verify_limit(path_a, N, ctx), verify_limit(path_b, N, ctx)
    leg_err = max(_compare_sets(a, b) for a, b in zip(rep_a["rungs"], rep_b["rungs"]))
    row = verdict("square", leg_err, ctx)
    if not rep_a["status"] == rep_b["status"] == "pass":
        row["status"] = "fail"
    return {
        "square": which, "N": N,
        "exact_leg_error": float(leg_err),
        **row,
        "path_errors_via_minus1": rep_a["errors"],
        "path_errors_via_little_q": rep_b["errors"],
        "order_path_a": rep_a["order_poly"],
        "order_path_b": rep_b["order_poly"],
        "notes": "orders %s / %s" % (_order_note(rep_a["order_poly"]),
                                     _order_note(rep_b["order_poly"])),
    }


# ----------------------------------------------------------------------
# open questions resolved numerically


def verify_readings(edge, ctx: PrecisionContext):
    """The printed readings of ``edge``'s map, told apart by the edge's ladder.

    Fails only when no reading verifies; otherwise the notes record the
    surviving reading and the rejected one.  The residual is the accepted
    reading's last ladder error.
    """
    outcomes = {label: verify_limit(dataclasses.replace(edge, params=reading), LADDER_N, ctx)
                for label, reading in edge.variants.readings}
    winners = [label for label, rep in outcomes.items() if rep["status"] == "pass"]
    accepted = edge.variants.readings[0][0]
    return {"status": "pass" if winners else "fail",
            "residual": outcomes[accepted]["errors"][-1],
            "tolerance": None,
            "notes": ("resolved: " + edge.variants.resolution
                      if winners == [accepted] else "surviving variants: %s" % winners)}


# the open questions, one verify --all row each: (id, check, run(ctx)); the
# printed readings of an edge map, and the S+R composition of each CBI-block family
OPEN_QUESTIONS = tuple(
    (edge.id, edge.variants.check, lambda ctx, edge=edge: verify_readings(edge, ctx))
    for edge in edge_catalog() if edge.variants is not None) + tuple(
    (fid, "open-question:shift-reflect-composition",
     lambda ctx, fid=fid: operators.resolve_composition_convention(fid, None, ctx))
    for fid in operators.SHIFT_REFLECT_FAMILIES)


def resolve_open_questions(ctx: PrecisionContext):
    """One report entry per open question, with its id and check name."""
    return [{"id": id, "check": check, **run(ctx)} for id, check, run in OPEN_QUESTIONS]


# ----------------------------------------------------------------------
# graph export

# the scheme chart's left-to-right order; each family's row is its catalog row
_CHART = ("continuous-complementary-bannai-ito", "continuous-bannai-ito",
          "generalized-symmetric-bannai-ito", "chihara", "big-minus1-jacobi",
          "continuous-minus1-hahn-1", "continuous-minus1-hahn-2",
          "symmetric-bannai-ito", "generalized-gegenbauer", "little-minus1-jacobi",
          "minus1-meixner-pollaczek",
          "gegenbauer", "special-little-minus1-jacobi", "generalized-hermite",
          "hermite")

_EDGE_STYLE = {
    "specialization": 'style=solid',
    "limit": 'style=dashed',
    "christoffel": 'style=solid, color=blue',
    "geronimus": 'style=solid, color=blue',
}


def export_graph(fmt="dot"):
    """Emit the scheme graph.

    DOT: the 15 scheme nodes (the quasi-orthogonal CCBI dashed) arranged by
    parameter-count row, and the catalog edges between them, styled by kind;
    the q-limit edges, whose sources are q-families, are left out.  JSON:
    the 15 nodes and every catalog edge with kind, anchor, label and
    direction.
    """
    rows = {}
    for fid in _CHART:
        rows.setdefault(families.family_info(fid).row, []).append(fid)
    scheme_nodes = [fid for row in sorted(rows, reverse=True) for fid in rows[row]]
    if fmt == "json":
        payload = {
            "nodes": [{"id": fid,
                       "row": families.family_info(fid).row,
                       "orthogonal": families.family_info(fid).kind == "scheme"}
                      for fid in scheme_nodes],
            "edges": [{
                "source": e.source, "target": e.target, "kind": e.kind,
                "anchor": e.anchor, "label": e.label, "direction": e.direction,
            } for e in edge_catalog()],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    if fmt != "dot":
        raise ValueError("format must be 'dot' or 'json'")
    lines = ["digraph minus_one_scheme {", "  rankdir=TB;", "  node [shape=box];"]
    for row in sorted(rows, reverse=True):
        for fid in rows[row]:
            info = families.family_info(fid)
            style = ', style=dashed' if info.kind == "quasi" else ''
            lines.append('  "%s" [label="%s\\n(%d)"%s];' % (fid, info.name, row, style))
        lines.append("  { rank=same; %s }" % " ".join('"%s";' % f for f in rows[row]))
    for e in edge_catalog():
        if e.source not in scheme_nodes or e.target not in scheme_nodes:
            continue
        lines.append('  "%s" -> "%s" [%s, label="%s"];'
                     % (e.source, e.target, _EDGE_STYLE[e.kind], e.kind))
    lines.append("}")
    return "\n".join(lines)
