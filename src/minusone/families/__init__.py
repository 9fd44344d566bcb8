"""The family catalog: one entry per continuous -1 family, plus the q-aux
families driving the q -> -1 edges.

Public operations: ``resolve_family``, ``family_info`` and the id lists,
``make_params``, ``recurrences`` (and its entry ``recurrence``),
``factored_u`` (an orthogonal family's u_n as factors in m on each parity
class, ``FACTORED_U``), ``generate`` (and ``polys_from_pairs`` for a
caller that holds the pairs), ``closed_forms`` (and its entry
``closed_form``), ``weight_spec`` and ``norms`` (and its entry ``norm``),
with ``fixture_points`` supplying the reference parameter sets the
verification suites run at.
``closed_form_check`` is the closed-form row of ``minusone verify``: it
reports ``status``, ``residual``, ``tolerance`` and ``notes``.  A family
has a closed form or a measure when its table entry exists; a measure is one
``WEIGHTS`` entry, the weight with its printed norms.  The registry merges
the families of ``catalog`` and ``qaux``, each stated in its module's own
table, as the recurrence tables are merged; only ``catalog`` states closed
forms.  Eigen systems belong to the Dunkl operator layer, which imports
this package; this package imports nothing above it.  A family's
coefficients are one sequence per (family, parameters, N): ``recurrences``,
``closed_forms`` and ``norms`` return degrees 0..N from one call, and
``recurrence``, ``closed_form`` and ``norm`` are their entry n.

Parameters are parsed once, here: each dispatcher converts the names of
the family's schema (``FamilyInfo.params``) in the caller's context and
passes them by name, so every table function takes them as keyword
arguments (``fn(ctx, N, alpha, beta)``).  How a recurrence sequence
function is written: it forms each subexpression that does not involve n
once (2 alpha, beta - delta, a b, e^(+-2i phi), each q ** j, the
denominator threshold of ``denominator_check``), sharing a value between
A_k and C_(k+1) where both print it; and it keeps the operation order of
the printed formula, hoisting only whole subexpressions and never
reassociating a sum.  Its pairs are then bit-identical to the printed
formula evaluated one degree at a time, and a printed denominator zero
raises the same ParameterError, naming the same factor, at the same n.
"""

from __future__ import annotations

from ..precision import PrecisionContext, is_real, verdict
from ..polynomials import Poly, _three_term, poly_rel_distance
from .base import (
    FamilyInfo,
    InadmissibleParameterError,
    NoClosedFormError,
    NoEigenSystemError,
    NoWeightError,
    ParameterError,
    RecurrencePair,
    UnknownFamilyError,
    WeightSpec,
)
from .catalog import ALIASES, CLOSED_FORMS, FACTORED_U, FAMILIES, RECURRENCES
from .qaux import Q_FAMILIES, Q_RECURRENCES
from .fixtures import FIXTURES
from .weights import WEIGHTS

REGISTRY = {**FAMILIES, **Q_FAMILIES}
_ALL_RECURRENCES = {**RECURRENCES, **Q_RECURRENCES}


def resolve_family(name: str) -> str:
    key = name.strip().lower()
    key = ALIASES.get(key, key)
    if key not in REGISTRY:
        raise UnknownFamilyError("unknown family %r" % name)
    return key


def family_info(name: str) -> FamilyInfo:
    return REGISTRY[resolve_family(name)]


def family_ids(kind=None):
    ids = [fid for fid, info in REGISTRY.items() if kind is None or info.kind == kind]
    return sorted(ids)


def scheme_ids():
    return sorted(fid for fid, info in REGISTRY.items() if info.kind in ("scheme", "quasi"))


def orthogonal_ids():
    return sorted(fid for fid, info in REGISTRY.items() if info.kind == "scheme")


def _convert(value, name, who, ctx: PrecisionContext):
    """A parameter value in ctx: a decimal string by mp.mpf, a complex by mp.mpc, anything
    else by mp.convert, which keeps the mantissa of a value made in another context.
    A string must name a finite real number."""
    if isinstance(value, str):
        try:
            number = ctx.mp.mpf(value)
        except ValueError:
            raise ParameterError("parameter %r of %s is not a real number: %r"
                                 % (name, who, value)) from None
        if not ctx.mp.isfinite(number):
            raise ParameterError("parameter %r of %s is not finite: %r" % (name, who, value))
        return number
    if isinstance(value, complex):
        return ctx.mp.mpc(value)
    return ctx.mp.convert(value)


def _bind(fid: str, values: dict, ctx: PrecisionContext) -> dict:
    """``values`` with each name of the family's schema converted once; other keys pass through."""
    bound = dict(values)
    for name in REGISTRY[fid].params:
        if name not in values:
            raise ParameterError("family %s needs parameter %r" % (fid, name))
        bound[name] = _convert(values[name], name, fid, ctx)
    return bound


def make_params(family: str, ctx: PrecisionContext, **values):
    """Parse parameter values (decimal strings stay exact) for a family."""
    info = family_info(family)
    params = _bind(info.id, values, ctx)
    unknown = sorted(set(values) - set(info.params))
    if unknown:
        raise ParameterError("unknown parameters for %s: %s" % (info.id, unknown))
    return params


def fixture_points(family: str):
    """The recorded reference parameter points (decimal-string dicts)."""
    return [dict(p) for p in FIXTURES[resolve_family(family)]]


def recurrences(family: str, params: dict, N: int, ctx: PrecisionContext):
    """Recurrence coefficients of x P_n = P_{n+1} + b_n P_n + u_n P_{n-1}, n = 0..N.

    One call computes, for the families printed through (A_n, C_n), each
    A_k and C_k once; entry n is ``recurrence(family, params, n, ctx)``.
    Returns a list of :class:`RecurrencePair`, empty for N < 0.
    """
    fid = resolve_family(family)
    return _ALL_RECURRENCES[fid](ctx, N, **_bind(fid, params, ctx))


def recurrence(family: str, params: dict, n: int, ctx: PrecisionContext) -> RecurrencePair:
    """Recurrence coefficients b_n, u_n of x P_n = P_{n+1} + b_n P_n + u_n P_{n-1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return recurrences(family, params, n, ctx)[n]


def factored_u(family: str, params: dict, ctx: PrecisionContext):
    """u_n of an orthogonal family as (its ``FactoredU`` on n = 2m, on n = 2m + 1)."""
    fid = resolve_family(family)
    return FACTORED_U[fid](ctx, **_bind(fid, params, ctx))


def generate(family: str, params: dict, N: int, ctx: PrecisionContext):
    """P_0 .. P_N by the three-term recurrence; each P_n is monic of degree n.

    A caller that also reads the coefficients calls ``recurrences`` once
    and passes the pairs to ``polys_from_pairs``.
    """
    return polys_from_pairs(recurrences(family, params, N - 1, ctx), ctx)


def polys_from_pairs(pairs, ctx: PrecisionContext):
    """P_0 .. P_K from the pairs (b_n, u_n), n < K, of x P_n = P_{n+1} + b_n P_n + u_n P_{n-1}."""
    polys = [Poly.constant(ctx.mp.mpc(1))]
    for n, pair in enumerate(pairs):
        polys.append(_three_term(polys[n], polys[n - 1] if n else None, pair.b, pair.u))
    return polys


def _raw_closed_forms(family: str, params: dict, N: int, ctx: PrecisionContext):
    """The family id and its ``CLOSED_FORMS`` entry's raw P_0 .. P_N."""
    fid = resolve_family(family)
    if fid not in CLOSED_FORMS:
        raise NoClosedFormError("no closed form on record for %s" % fid)
    return fid, CLOSED_FORMS[fid](ctx, N, **_bind(fid, params, ctx))


def _judged(fid, p, n, ctx: PrecisionContext):
    """The raw closed form p of P_n renormalized monic; ParameterError where its top term is
    missing or lost to cancellation."""
    if p.degree != n or not p[n]:
        raise ParameterError(
            "closed form of %s has no degree-%d term at these parameters (parameter singularity)"
            % (fid, n))
    if p.lead_is_noise():
        raise ParameterError(
            "closed form of %s lost its degree-%d term to cancellation: precision lost, its top "
            "coefficient lies %.0f digits below the coefficient norm"
            % (fid, n, ctx.mp.log10(p.coeff_norm() / abs(p[n]))))
    return p.monic(ctx).realify(ctx)


def closed_forms(family: str, params: dict, N: int, ctx: PrecisionContext):
    """Hypergeometric closed forms of P_0 .. P_N, each renormalized monic.

    One call sums every degree over the shared pFq bases of the family's
    template (``catalog``); entry n is ``closed_form(family, params, n, ctx)``.
    ParameterError names the first degree whose top term is missing or lost.
    """
    fid, raw = _raw_closed_forms(family, params, N, ctx)
    return [_judged(fid, p, n, ctx) for n, p in enumerate(raw)]


def closed_form(family: str, params: dict, n: int, ctx: PrecisionContext):
    """Hypergeometric closed form of P_n, renormalized monic; only its own top term is judged."""
    if n < 0:
        raise ValueError("n must be >= 0")
    fid, raw = _raw_closed_forms(family, params, n, ctx)
    return _judged(fid, raw[n], n, ctx)


def closed_form_check(family: str, params: dict, N: int, ctx: PrecisionContext):
    """The closed-form row: the closed form against the recurrence for n <= N.

    The residual is the worst relative coefficient distance, gated as an
    algebraic row (``precision``, Precision plan).  Raises
    NoClosedFormError for a family with none on record.
    """
    mp = ctx.mp
    fid = resolve_family(family)
    polys = generate(fid, params, N, ctx)
    worst = mp.mpf(0)
    for p, form in zip(polys, closed_forms(fid, params, N, ctx)):
        worst = max(worst, poly_rel_distance(p, form))
    return {"family": fid, **verdict("closed-form", worst, ctx), "notes": ""}


def _measure(family: str, params: dict, ctx: PrecisionContext):
    """The family's record, its ``WEIGHTS`` entry and its parsed parameters."""
    fid = resolve_family(family)
    if fid not in WEIGHTS:
        raise NoWeightError("no continuous orthogonality measure on record for %s" % fid)
    return REGISTRY[fid], WEIGHTS[fid], _bind(fid, params, ctx)


def weight_spec(family: str, params: dict, ctx: PrecisionContext) -> WeightSpec:
    """The family's weight at ``params``; InadmissibleParameterError, quoting the clause, where
    ``FamilyInfo.admits`` rejects them (the weights assume the clause)."""
    info, measure, bound = _measure(family, params, ctx)
    if info.admits is not None and not info.admits(ctx, **bound):
        raise InadmissibleParameterError("parameters violate the admissibility clause [%s]: %s"
                                         % (info.anchor, info.admissible))
    return measure.spec(ctx, **bound)


def norms(family: str, params: dict, N: int, ctx: PrecisionContext):
    """Predicted squared norms of monic P_0 .. P_N under the printed inner product.

    One call shares what the degrees have in common (the seven-gamma h_0 of the continuous
    Bannai-Ito-type norms); entry n is ``norm(family, params, n, ctx)``.  ParameterError
    names the first norm that fails the reality gate (``precision.is_real``).
    """
    mp = ctx.mp
    _, measure, bound = _measure(family, params, ctx)
    values = [mp.mpc(value) for value in measure.norms(ctx, N, **bound)]
    for n, value in enumerate(values):
        if not is_real(value, ctx):
            raise ParameterError("printed norm h_%d = %s is not real" % (n, mp.nstr(value, 8)))
    return [value.real for value in values]


def norm(family: str, params: dict, n: int, ctx: PrecisionContext):
    """Predicted squared norm of monic P_n under the printed inner product."""
    return norms(family, params, n, ctx)[n]
