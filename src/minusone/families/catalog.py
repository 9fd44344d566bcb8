"""The continuous -1 families: recurrences, factored u_n, closed forms.

Formulas follow the source compendium (anchors A.1-A.14 plus the sections
introducing the continuous complementary Bannai-Ito family).  Every closed
form is assembled exactly as printed, including its prefactors, and then
renormalized monic by dividing by the computed leading coefficient; the raw
form is the ``CLOSED_FORMS`` entry, so the printed normalization itself can
be tested.  A ``CLOSED_FORMS`` entry returns the raw P_0 .. P_N from one
call, on one shared-basis engine: each series' polynomial part
B_k(x) = prod(polynomial parameters)_k z^k is built once by ``hyp_basis``,
every degree sums its scalar coefficients over it with
``hyp_terminating_poly``, and a prefactor Pochhammer whose base is free of
the degree is read from one ``pochhammers`` list.  A pattern printed for
two families is written once: the big and little -1 Jacobi closed forms
(A.2, A.7) both call ``_m1j_template`` with their series variable, linear
factor and c factors, as the three continuous Bannai-Ito type forms call
``_cbi_template``, and the symmetric, generalized symmetric and
complementary Bannai-Ito forms call the Wilson-type ``base._wilson_forms``.
The forms of one series per parity class, the Wilson type and the
Hermite and Gegenbauer types in x^2 (``_in_x2``), are all summed by
``base._parity_forms``.  The sign factor written theta(x) in split-support
weights is implemented as sgn(x), the unique choice making those densities
nonnegative on both support components.
"""

from __future__ import annotations

from ..precision import pochhammer, pochhammers
from ..polynomials import Poly, hyp_basis, hyp_terminating_poly
from .base import (
    FactoredU,
    FamilyInfo,
    RecurrencePair,
    _from_AC,
    _parity,
    _parity_forms,
    _wilson_forms,
    conjugate_closed,
    denominator_check,
)


# ----------------------------------------------------------------------
# registry

FAMILIES = {info.id: info for info in (
    FamilyInfo(
        id="continuous-bannai-ito", name="Continuous Bannai-Ito",
        params=("alpha", "beta", "gamma", "delta"), kind="scheme", row=4,
        admissible="alpha, beta, gamma, delta > 0", anchor="A.1",
        admits=lambda ctx, alpha, beta, gamma, delta: min(alpha, beta, gamma, delta) > 0),
    FamilyInfo(
        id="big-minus1-jacobi", name="Big -1 Jacobi",
        params=("alpha", "beta", "c"), kind="scheme", row=3,
        admissible="alpha > 0, beta > 0, 0 <= c < 1", anchor="A.2",
        admits=lambda ctx, alpha, beta, c: alpha > 0 and beta > 0 and 0 <= c < 1),
    FamilyInfo(
        id="chihara", name="Chihara",
        params=("alpha", "beta", "gamma"), kind="scheme", row=3,
        admissible="alpha > -1, beta > 0", anchor="A.3",
        admits=lambda ctx, alpha, beta, gamma: alpha > -1 and beta > 0),
    FamilyInfo(
        id="continuous-minus1-hahn-1", name="Continuous -1 Hahn (type 1)",
        params=("alpha", "beta", "gamma"), kind="scheme", row=3,
        admissible="alpha, beta, gamma > 0", anchor="A.4",
        admits=lambda ctx, alpha, beta, gamma: min(alpha, beta, gamma) > 0),
    FamilyInfo(
        id="continuous-minus1-hahn-2", name="Continuous -1 Hahn (type 2)",
        params=("alpha", "beta", "gamma"), kind="scheme", row=3,
        admissible="alpha, beta, gamma > 0", anchor="A.5",
        admits=lambda ctx, alpha, beta, gamma: min(alpha, beta, gamma) > 0),
    FamilyInfo(
        id="generalized-symmetric-bannai-ito", name="Generalized symmetric Bannai-Ito",
        params=("a", "b", "c"), kind="scheme", row=3, symmetric=True, anchor="A.6",
        admissible="Re(a), Re(b), Re(c) > 0, a+b+c > 1, non-real parameters in conjugate pairs",
        admits=lambda ctx, a, b, c: (min(ctx.mp.re(a), ctx.mp.re(b), ctx.mp.re(c)) > 0
                                     and ctx.mp.re(a + b + c) > 1 and conjugate_closed([a, b, c], ctx.mp))),
    FamilyInfo(
        id="little-minus1-jacobi", name="Little -1 Jacobi",
        params=("alpha", "beta"), kind="scheme", row=2,
        admissible="alpha > 0, beta > 0", anchor="A.7",
        admits=lambda ctx, alpha, beta: alpha > 0 and beta > 0),
    FamilyInfo(
        id="generalized-gegenbauer", name="Generalized Gegenbauer",
        params=("alpha", "beta"), kind="scheme", row=2,
        admissible="alpha > -1, beta > 0", anchor="A.8", symmetric=True,
        admits=lambda ctx, alpha, beta: alpha > -1 and beta > 0),
    FamilyInfo(
        id="minus1-meixner-pollaczek", name="-1 Meixner-Pollaczek",
        params=("alpha", "gamma"), kind="scheme", row=2,
        admissible="alpha > -1/2", anchor="A.9",
        admits=lambda ctx, alpha, gamma: alpha > -0.5),
    FamilyInfo(
        id="symmetric-bannai-ito", name="Symmetric Bannai-Ito",
        params=("a", "b"), kind="scheme", row=2, symmetric=True, anchor="A.10",
        admissible="Re(a), Re(b) > 0, non-real parameters in conjugate pairs",
        admits=lambda ctx, a, b: min(ctx.mp.re(a), ctx.mp.re(b)) > 0 and conjugate_closed([a, b], ctx.mp)),
    FamilyInfo(
        id="special-little-minus1-jacobi", name="Special little -1 Jacobi",
        params=("alpha",), kind="scheme", row=1,
        admissible="alpha > 0", anchor="A.11",
        admits=lambda ctx, alpha: alpha > 0),
    FamilyInfo(
        id="gegenbauer", name="Gegenbauer",
        params=("alpha",), kind="scheme", row=1,
        admissible="alpha > -1/2, alpha != 0", anchor="A.12", symmetric=True,
        admits=lambda ctx, alpha: alpha > -0.5 and alpha != 0),
    FamilyInfo(
        id="generalized-hermite", name="Generalized Hermite",
        params=("alpha",), kind="scheme", row=1,
        admissible="alpha > -1/2", anchor="A.13", symmetric=True,
        admits=lambda ctx, alpha: alpha > -0.5),
    FamilyInfo(
        id="hermite", name="Hermite",
        params=(), kind="scheme", row=0,
        admissible="none", anchor="A.14", symmetric=True),
    FamilyInfo(
        id="continuous-complementary-bannai-ito", name="Continuous complementary Bannai-Ito",
        params=("a1", "b1", "a2", "b2"), kind="quasi", row=4,
        admissible="not orthogonal for b2 != 0; recurrence defined away from denominator zeros",
        anchor="ss5"),
)}

ALIASES = {
    "cbi": "continuous-bannai-ito",
    "ccbi": "continuous-complementary-bannai-ito",
    "gsbi": "generalized-symmetric-bannai-ito",
    "sbi": "symmetric-bannai-ito",
    "c-1h-1": "continuous-minus1-hahn-1",
    "c-1h-2": "continuous-minus1-hahn-2",
    "gen-gegenbauer": "generalized-gegenbauer",
    "gen-hermite": "generalized-hermite",
    "-1mp": "minus1-meixner-pollaczek",
    "big-1-jacobi": "big-minus1-jacobi",
    "little-1-jacobi": "little-minus1-jacobi",
    "special-little-1-jacobi": "special-little-minus1-jacobi",
}


# ----------------------------------------------------------------------
# shared helpers


def _half(ctx):
    return ctx.mp.mpf(1) / 2


# ----------------------------------------------------------------------
# recurrence coefficients (b_n, u_n), with (A_n, C_n) where printed
#
# Sequence functions (ctx, N, **params) -> [RecurrencePair, n = 0..N], the
# parameters by their schema names, written as the package docstring describes.
# Beside each orthogonal family's sequence function, its u_n as data:
# (ctx, **params) -> (u on n = 2m, u on n = 2m + 1), each a ``FactoredU`` in
# m, read off the same printed formula (for the -1 Jacobi families the
# product A_(n-1) C_n).  Every printed denominator of b_n is one of u_n or
# u_(n+1), so ``den`` names every denominator the recurrence tests.


def _recs_hermite(ctx, N):
    zero = ctx.mp.mpf(0)
    return [RecurrencePair(b=zero, u=ctx.mp.mpf(n) / 2) for n in range(N + 1)]


def _u_hermite(ctx):
    """n / 2."""
    return tuple(FactoredU(_half(ctx), num=((2, e),)) for e in (0, 1))


def _alternating(ga):
    """(-1)^n gamma for (even n, odd n), each the printed product, rounded to the working precision."""
    return 1 * ga, -1 * ga


def _hermite_like(al, bs, N, ctx):
    """u_n = m (n = 2m) or m + alpha + 1/2 (n = 2m + 1); b_n = bs[n % 2]."""
    mp, half = ctx.mp, _half(ctx)
    return [RecurrencePair(b=bs[n % 2], u=n // 2 + al + half if n % 2 else mp.mpf(n // 2))
            for n in range(N + 1)]


def _recs_generalized_hermite(ctx, N, alpha):
    zero = ctx.mp.mpf(0)
    return _hermite_like(alpha, (zero, zero), N, ctx)


def _recs_minus1_mp(ctx, N, alpha, gamma):
    return _hermite_like(alpha, _alternating(gamma), N, ctx)


def _u_generalized_hermite(ctx, alpha):
    """The u_n of ``_hermite_like``."""
    return FactoredU(1, num=((1, 0),)), FactoredU(1, num=((1, alpha + _half(ctx)),))


def _u_minus1_mp(ctx, alpha, gamma):
    return _u_generalized_hermite(ctx, alpha)


def _gg_like(al, be, bs, N, ctx):
    """The generalized Gegenbauer u_n; b_n = bs[n % 2]."""
    check = denominator_check(ctx)
    pairs = [RecurrencePair(b=bs[0], u=ctx.mp.mpf(0))]
    for n in range(1, N + 1):
        odd, m = _parity(n)
        t = 2 * m + al + be
        if not odd:
            u = m * (m + be) / check(t * (t + 1), "(2n+alpha+beta)(2n+alpha+beta+1)")
        else:
            den = check((t + 1) * (t + 2), "(2n+alpha+beta+1)(2n+alpha+beta+2)")
            u = (m + al + 1) * (m + al + be + 1) / den
        pairs.append(RecurrencePair(b=bs[odd], u=u))
    return pairs[:N + 1]


def _recs_generalized_gegenbauer(ctx, N, alpha, beta):
    zero = ctx.mp.mpf(0)
    return _gg_like(alpha, beta, (zero, zero), N, ctx)


def _recs_chihara(ctx, N, alpha, beta, gamma):
    return _gg_like(alpha, beta, _alternating(gamma), N, ctx)


def _u_generalized_gegenbauer(ctx, alpha, beta):
    """The u_n of ``_gg_like``, t = 2m + alpha + beta: m (m + beta) / (t (t + 1)) on n = 2m
    and (m + alpha + 1)(m + alpha + beta + 1) / ((t + 1)(t + 2)) on n = 2m + 1."""
    s = alpha + beta
    return (FactoredU(1, num=((1, 0), (1, beta)), den=((2, s), (2, s + 1))),
            FactoredU(1, num=((1, alpha + 1), (1, s + 1)), den=((2, s + 1), (2, s + 2))))


def _u_chihara(ctx, alpha, beta, gamma):
    return _u_generalized_gegenbauer(ctx, alpha, beta)


def _recs_gegenbauer(ctx, N, alpha):
    al2 = 2 * alpha
    check = denominator_check(ctx)
    zero = ctx.mp.mpf(0)
    pairs = [RecurrencePair(b=zero, u=zero)]
    for n in range(1, N + 1):
        t = 2 * n + al2
        pairs.append(RecurrencePair(
            b=zero, u=n * (n + al2 - 1) / check((t - 2) * t, "(2n+2alpha-2)(2n+2alpha)")))
    return pairs[:N + 1]


def _u_gegenbauer(ctx, alpha):
    """n (n + 2alpha - 1) / ((2n + 2alpha - 2)(2n + 2alpha)), n = 2m + e."""
    al2 = 2 * alpha
    return tuple(FactoredU(1, num=((2, e), (2, e + al2 - 1)),
                           den=((4, 2 * e + al2 - 2), (4, 2 * e + al2))) for e in (0, 1))


def _recs_symmetric_bannai_ito(ctx, N, a, b):
    zero = ctx.mp.mpf(0)
    pairs = []
    for n in range(N + 1):
        odd, m = _parity(n)
        pairs.append(RecurrencePair(b=zero, u=(m + a) * (m + b) if odd else m * (m + a + b - 1)))
    return pairs


def _u_symmetric_bannai_ito(ctx, a, b):
    return FactoredU(1, num=((1, 0), (1, a + b - 1))), FactoredU(1, num=((1, a), (1, b)))


def _recs_gsbi(ctx, N, a, b, c):
    s = a + b + c
    check = denominator_check(ctx)
    zero = ctx.mp.mpf(0)
    pairs = [RecurrencePair(b=zero, u=zero)]
    for n in range(1, N + 1):
        odd, m = _parity(n)
        t = 2 * m + s
        if not odd:
            den = check((t - 2) * (t - 1), "(2n+a+b+c-2)(2n+a+b+c-1)")
            u = m * (m + a + b - 1) * (m + a + c - 1) * (m + b + c - 1) / den
        else:
            den = check((t - 1) * t, "(2n+a+b+c-1)(2n+a+b+c)")
            u = (m + s - 1) * (m + c) * (m + a) * (m + b) / den
        pairs.append(RecurrencePair(b=zero, u=u))
    return pairs[:N + 1]


def _u_gsbi(ctx, a, b, c):
    s = a + b + c
    return (FactoredU(1, num=((1, 0), (1, a + b - 1), (1, a + c - 1), (1, b + c - 1)),
                      den=((2, s - 2), (2, s - 1))),
            FactoredU(1, num=((1, s - 1), (1, c), (1, a), (1, b)), den=((2, s - 1), (2, s))))


def _recs_ccbi(ctx, N, a1, b1, a2, b2):
    mp = ctx.mp
    i = mp.mpc(0, 1)
    a1_2, ib_minus, ib_plus = 2 * a1, i * (b1 - b2), i * (b1 + b2)
    bs = _alternating(b2)
    check = denominator_check(ctx)
    pairs = [RecurrencePair(b=bs[0], u=mp.mpc(0))]
    for n in range(1, N + 1):
        odd, m = _parity(n)
        t = 2 * m + a1_2 + a2
        if not odd:
            den = check((t - 2) * (t - 1), "(2n+2a1+a2-2)(2n+2a1+a2-1)")
            u = m * (m + a1_2 - 1) * (m + a1 + a2 - 1 + ib_minus) * (m + a1 + a2 - 1 - ib_plus) / den
        else:
            den = check((t - 1) * t, "(2n+2a1+a2-1)(2n+2a1+a2)")
            u = (m + a1_2 + a2 - 1) * (m + a2) * (m + a1 + ib_plus) * (m + a1 - ib_minus) / den
        pairs.append(RecurrencePair(b=bs[odd], u=u))
    return pairs[:N + 1]


def _cbi_like(al, ga, N, ctx, pair):
    """Pairs n = 0..N of the continuous Bannai-Ito block, (b_n, u_n) = pair(n, d1, d2, d1^2).

    The printed denominators d1 = n+2alpha+2gamma+1 and d2 = n+2alpha+2gamma+2
    are tested in that order.
    """
    mp = ctx.mp
    al2, ga2 = 2 * al, 2 * ga
    check = denominator_check(ctx)
    pairs = []
    for n in range(N + 1):
        t = mp.mpf(n) + al2 + ga2
        d1 = check(t + 1, "n+2alpha+2gamma+1")
        d2 = check(t + 2, "n+2alpha+2gamma+2")
        b, u = pair(n, d1, d2, d1 ** 2)
        pairs.append(RecurrencePair(b=b, u=u))
    return pairs


def _recs_cbi(ctx, N, alpha, beta, gamma, delta):
    al4, ga4, be2, bmd, bpd = 4 * alpha, 4 * gamma, 2 * beta, beta - delta, beta + delta
    w_even, w_odd = 4 * bpd ** 2, 4 * bmd ** 2

    def pair(n, d1, d2, d1sq):
        if n % 2 == 0:
            return (be2 - (n + al4 + 2) * bmd / d2 - n * bpd / d1,
                    n * (n + al4 + ga4 + 2) * (d1sq + w_even) / (4 * d1sq))
        return (be2 - (n + al4 + ga4 + 3) * bpd / d2 - (n + ga4 + 1) * bmd / d1,
                (n + al4 + 1) * (n + ga4 + 1) * (d1sq + w_odd) / (4 * d1sq))
    return _cbi_like(alpha, gamma, N, ctx, pair)


def _u_cbi(ctx, alpha, beta, gamma, delta):
    """n (n + 4alpha + 4gamma + 2)(d1^2 + 4(beta + delta)^2) / (4 d1^2) on n = 2m and
    (n + 4alpha + 1)(n + 4gamma + 1)(d1^2 + 4(beta - delta)^2) / (4 d1^2) on n = 2m + 1,
    d1 = n + 2alpha + 2gamma + 1, and d1^2 + 4w^2 = (d1 + 2iw)(d1 - 2iw); -1 Hahn I and II
    are delta = beta and delta = -beta."""
    mp, g, quarter = ctx.mp, 2 * alpha + 2 * gamma, ctx.mp.mpf(1) / 4
    pair = lambda q, w: ((2, mp.mpc(q, 2 * w)), (2, mp.mpc(q, -2 * w)))    # exact conjugates
    d_even, d_odd = (2, g + 1), (2, g + 2)
    return (FactoredU(quarter, num=((2, 0), (2, 2 * g + 2), *pair(g + 1, beta + delta)),
                      den=(d_even, d_even)),
            FactoredU(quarter, num=((2, 4 * alpha + 2), (2, 4 * gamma + 2),
                                    *pair(g + 2, beta - delta)), den=(d_odd, d_odd)))


def _recs_c1h1(ctx, N, alpha, beta, gamma):
    al4, ga4, be2, be16 = 4 * alpha, 4 * gamma, 2 * beta, 16 * beta ** 2

    def pair(n, d1, d2, d1sq):
        if n % 2 == 0:
            return be2 - be2 * n / d1, n * (n + al4 + ga4 + 2) * (d1sq + be16) / (4 * d1sq)
        return (be2 - be2 * (n + al4 + ga4 + 3) / d2,
                (n + al4 + 1) * (n + ga4 + 1) * d1sq / (4 * d1sq))
    return _cbi_like(alpha, gamma, N, ctx, pair)


def _u_c1h1(ctx, alpha, beta, gamma):
    return _u_cbi(ctx, alpha, beta, gamma, beta)


def _recs_c1h2(ctx, N, alpha, beta, gamma):
    al4, ga4, be2, be16 = 4 * alpha, 4 * gamma, 2 * beta, 16 * beta ** 2

    def pair(n, d1, d2, d1sq):
        if n % 2 == 0:
            return be2 - be2 * (n + al4 + 2) / d2, n * (n + al4 + ga4 + 2) * d1sq / (4 * d1sq)
        return (be2 - be2 * (n + ga4 + 1) / d1,
                (n + al4 + 1) * (n + ga4 + 1) * (d1sq + be16) / (4 * d1sq))
    return _cbi_like(alpha, gamma, N, ctx, pair)


def _u_c1h2(ctx, alpha, beta, gamma):
    return _u_cbi(ctx, alpha, beta, gamma, -beta)


def _m1j_like(N, ctx, t0, nums, what):
    """Pairs of a -1 Jacobi family from A_n = a_n / (t_n + 2), C_n = c_n / t_n, C_0 = 0.

    (a_n, c_n) = nums(n), t_n = t0(2n) and the two denominators, named by
    ``what``, are tested in the order A_n, C_n.
    """
    mp = ctx.mp
    check = denominator_check(ctx)
    AC = []
    for n in range(N + 1):
        t = t0(2 * mp.mpf(n))
        a, c = nums(n)
        A = a / check(t + 2, what + "+2")
        AC.append((A, mp.mpf(0) if n == 0 else c / check(t, what)))
    return _from_AC(AC)


def _u_m1j_like(s, even, odd, c_even=1, c_odd=1):
    """u_n = A_(n-1) C_n of ``_m1j_like`` with t_n = 2n + s: a_(n-1) c_n / t_n^2, as
    t_(n-1) + 2 = t_n.  Its numerator is c_even times the factors ``even`` on n = 2m, c_odd
    times ``odd`` on n = 2m + 1."""
    return (FactoredU(c_even, num=even, den=((4, s),) * 2),
            FactoredU(c_odd, num=odd, den=((4, s + 2),) * 2))


def _recs_big_m1j(ctx, N, alpha, beta, c):
    opc, omc = 1 + c, 1 - c
    return _m1j_like(N, ctx, lambda n2: n2 + alpha + beta,
                     lambda n: (opc * (n + alpha + 1), omc * n) if n % 2 == 0
                     else (omc * (n + alpha + beta + 1), opc * (n + beta)), "2n+alpha+beta")


def _u_big_m1j(ctx, alpha, beta, c):
    s, opc, omc = alpha + beta, 1 + c, 1 - c
    return _u_m1j_like(s, ((2, 0), (2, s)), ((2, alpha + 1), (2, beta + 1)), omc * omc, opc * opc)


def _recs_little_m1j(ctx, N, alpha, beta):
    return _m1j_like(N, ctx, lambda n2: n2 + alpha + beta,
                     lambda n: (n + beta + 1, ctx.mp.mpf(n)) if n % 2 == 0
                     else (n + alpha + beta + 1, n + alpha), "2n+alpha+beta")


def _u_little_m1j(ctx, alpha, beta):
    s = alpha + beta
    return _u_m1j_like(s, ((2, 0), (2, s)), ((2, beta + 1), (2, alpha + 1)))


def _recs_special_lj(ctx, N, alpha):
    return _m1j_like(N, ctx, lambda n2: n2 + alpha, lambda n: (n + alpha + 1, ctx.mp.mpf(n)), "2n+alpha")


def _u_special_lj(ctx, alpha):
    return _u_m1j_like(alpha, ((2, 0), (2, alpha)), ((2, 1), (2, alpha + 1)))


# sequence functions (ctx, N, **params) -> [RecurrencePair for n = 0..N]
RECURRENCES = {
    "hermite": _recs_hermite,
    "generalized-hermite": _recs_generalized_hermite,
    "minus1-meixner-pollaczek": _recs_minus1_mp,
    "generalized-gegenbauer": _recs_generalized_gegenbauer,
    "chihara": _recs_chihara,
    "gegenbauer": _recs_gegenbauer,
    "symmetric-bannai-ito": _recs_symmetric_bannai_ito,
    "generalized-symmetric-bannai-ito": _recs_gsbi,
    "continuous-complementary-bannai-ito": _recs_ccbi,
    "continuous-bannai-ito": _recs_cbi,
    "continuous-minus1-hahn-1": _recs_c1h1,
    "continuous-minus1-hahn-2": _recs_c1h2,
    "big-minus1-jacobi": _recs_big_m1j,
    "little-minus1-jacobi": _recs_little_m1j,
    "special-little-minus1-jacobi": _recs_special_lj,
}

# the u_n of each orthogonal family as data: (ctx, **params) -> (u on n = 2m, u on n = 2m + 1)
FACTORED_U = {
    "hermite": _u_hermite,
    "generalized-hermite": _u_generalized_hermite,
    "minus1-meixner-pollaczek": _u_minus1_mp,
    "generalized-gegenbauer": _u_generalized_gegenbauer,
    "chihara": _u_chihara,
    "gegenbauer": _u_gegenbauer,
    "symmetric-bannai-ito": _u_symmetric_bannai_ito,
    "generalized-symmetric-bannai-ito": _u_gsbi,
    "continuous-bannai-ito": _u_cbi,
    "continuous-minus1-hahn-1": _u_c1h1,
    "continuous-minus1-hahn-2": _u_c1h2,
    "big-minus1-jacobi": _u_big_m1j,
    "little-minus1-jacobi": _u_little_m1j,
    "special-little-minus1-jacobi": _u_special_lj,
}


# ----------------------------------------------------------------------
# closed forms (raw, before monic renormalization)
#
# Sequence functions (ctx, N, **params) -> [raw P_n, n = 0..N].


def _in_x2(ctx, N, lows, gamma_shift=None, upper=None):
    """The 1F1 / 2F1 pattern in z = x^2 - gamma^2: ``_parity_forms`` over z^k with the lower
    parameter lows[e] on n = 2m + e, times x - gamma on odd n (gamma = 0 without a shift)."""
    x = Poly.x(ctx)
    z = x * x if gamma_shift is None else x * x - Poly.constant(gamma_shift ** 2)
    lead = x if gamma_shift is None else x - Poly.constant(gamma_shift)
    basis = hyp_basis(N // 2, [], z, ctx)
    return _parity_forms(ctx, N, (basis, basis), [[low] for low in lows], lead, upper)


def _cf_hermite_like(al_half, N, ctx, gamma_shift=None):
    """(-1)^m (al+1/2)_m [x or (x-gamma)] 1F1(-m; al+1/2; x^2-gamma^2) pattern."""
    return _in_x2(ctx, N, (al_half, al_half + 1), gamma_shift)


def _cf_hermite(ctx, N):
    return _cf_hermite_like(_half(ctx), N, ctx)


def _cf_generalized_hermite(ctx, N, alpha):
    return _cf_hermite_like(alpha + _half(ctx), N, ctx)


def _cf_minus1_mp(ctx, N, alpha, gamma):
    return _cf_hermite_like(alpha + _half(ctx), N, ctx, gamma_shift=gamma)


def _cf_gg_like(al, be, N, ctx, gamma_shift=None):
    """Generalized Gegenbauer / Chihara 2F1(-m, m+alpha+beta+1+e; alpha+1+e) pattern in
    x^2 - gamma^2, on n = 2m + e."""
    return _in_x2(ctx, N, (al + 1, al + 2), gamma_shift, lambda e, m: m + al + be + (1 + e))


def _cf_generalized_gegenbauer(ctx, N, alpha, beta):
    return _cf_gg_like(alpha, beta, N, ctx)


def _cf_chihara(ctx, N, alpha, beta, gamma):
    return _cf_gg_like(alpha, beta, N, ctx, gamma_shift=gamma)


def _cf_gegenbauer(ctx, N, alpha):
    """2F1(-m, m+alpha+e; 1/2+e; x^2) on n = 2m + e."""
    return _in_x2(ctx, N, (_half(ctx), 3 * _half(ctx)), upper=lambda e, m: m + alpha + e)


def _cf_symmetric_bannai_ito(ctx, N, a, b):
    return _wilson_forms(ctx, N, (0, 1), [a, b], Poly.x(ctx))


def _cf_gsbi(ctx, N, a, b, c):
    s = a + b + c
    return _wilson_forms(ctx, N, (0, 1), [a, b, c], Poly.x(ctx),
                         lambda odd, m: m + s if odd else m + s - 1)


def _cf_ccbi(ctx, N, a1, b1, a2, b2):
    """Wilson-based closed form with parameters (A, B, C, D) and the argument x^2."""
    i = ctx.mp.mpc(0, 1)
    As = (i * b2, i * b2 + 1)
    B, C, D = a1 + i * b1, a1 - i * b1, a2 - i * b2
    sums = [A + B + C + D for A in As]
    return _wilson_forms(ctx, N, As, [B, C, D], Poly.x(ctx) - Poly.constant(b2),
                         lambda odd, m: m + sums[odd] - 1)


def _cbi_template(al, be, ga, de, N, ctx):
    """Shared closed form of the continuous Bannai-Ito / continuous -1 Hahn block."""
    mp = ctx.mp
    i = mp.mpc(0, 1)
    fa = al + i * be
    fb = ga + i * de
    fc = ga - i * de
    fd = al - i * be
    g = 2 * al + 2 * ga + 1
    ihalf = Poly((mp.mpc(0), i / 2))      # i x / 2
    K = N // 2

    # the low series (m, kappa1) and the high series (m - 1 or m, kappa2), each with its
    # lower parameters, its basis and the rising factorials of its prefactor
    def series(shift, lows, plus, minus):
        rising = [pochhammers(b, K, ctx) for b in lows]

        def kappa(m):
            return rising[0][m] * rising[1][m] * rising[2][m] / pochhammer(mp.mpf(m) + g + shift, m, ctx)
        basis = hyp_basis(K, [ihalf + Poly.constant(plus), -ihalf + Poly.constant(minus)], 1, ctx)
        return lambda m: hyp_terminating_poly(m, [-mp.mpf(m), m + g + shift], lows, basis, ctx), kappa

    low, kappa1 = series(1, [3 * _half(ctx) + fa + fb, 1 + fb + fc, 1 + fb + fd], fb, fb + _half(ctx))
    high, kappa2 = series(2, [5 * _half(ctx) + fa + fb, 2 + fb + fc, 2 + fb + fd],
                          fb + 1, fb + 3 * _half(ctx))
    front = ihalf - Poly.constant(fb + _half(ctx))   # i x/2 - b - 1/2

    forms = []
    for n in range(N + 1):
        odd, m = _parity(n)
        if not odd:
            second = low(m).scale(kappa1(m))
            if m == 0:
                total = second
            else:
                xi = mp.mpf(m) * (m + fc + fd + _half(ctx)) / (2 * m + g)
                total = (front * high(m - 1)).scale(xi * kappa2(m - 1)) + second
        else:
            eta = (m + fb + fc + 1) * (m + fb + fd + 1) / (2 * m + g + 1)
            total = (front * high(m)).scale(kappa2(m)) + low(m).scale(eta * kappa1(m))
        forms.append(total.scale((-2 * i) ** n))
    return forms


def _cf_cbi(ctx, N, alpha, beta, gamma, delta):
    return _cbi_template(alpha, beta, gamma, delta, N, ctx)


def _cf_c1h1(ctx, N, alpha, beta, gamma):
    return _cbi_template(alpha, beta, gamma, beta, N, ctx)


def _cf_c1h2(ctx, N, alpha, beta, gamma):
    return _cbi_template(alpha, beta, gamma, -beta, N, ctx)


def _m1j_template(ctx, N, alpha, beta, z, linear, one_plus_c, one_minus_c2):
    """The -1 Jacobi closed form shared by the big (A.2) and little (A.7) families.

    With s = (2m+alpha+beta+2)/2, n = 2m is 2F1(-m, s; (alpha+1)/2; z) plus
    ``linear`` times 2F1(-(m-1), s; (alpha+3)/2; z), and n = 2m+1 the first
    minus ``linear`` times 2F1(-m, s+1; (alpha+3)/2; z).  Big -1 Jacobi passes
    z = (1-x^2)/(1-c^2), linear = 1 - x and its c factors 1 + c and 1 - c^2;
    little -1 Jacobi passes z = x^2, linear = x and 1 for both, an exact 1
    that leaves its coefficients those of the formula without them.
    """
    mp = ctx.mp
    one_plus_al = denominator_check(ctx)(1 + alpha, "1+alpha")
    ap1_2 = (alpha + 1) / 2
    ap3_2 = (alpha + 3) / 2
    basis = hyp_basis(N // 2, [], z, ctx)
    rising = pochhammers(ap1_2, (N + 1) // 2, ctx)
    forms = []
    for n in range(N + 1):
        odd, m = _parity(n)
        s = (2 * m + alpha + beta + 2) / 2
        f1 = hyp_terminating_poly(m, [-mp.mpf(m), s], [ap1_2], basis, ctx)
        if not odd:
            if m == 0:
                total = f1
            else:
                f2 = hyp_terminating_poly(m - 1, [-(mp.mpf(m) - 1), s], [ap3_2], basis, ctx)
                total = f1 + (linear * f2).scale(2 * m / (one_plus_c * one_plus_al))
            eta = one_minus_c2 ** m * rising[m] / pochhammer(s, m, ctx)
        else:
            f2 = hyp_terminating_poly(m, [-mp.mpf(m), (2 * m + alpha + beta + 4) / 2], [ap3_2], basis, ctx)
            total = f1 - (linear * f2).scale((2 * m + alpha + beta + 2) / (one_plus_c * one_plus_al))
            eta = one_plus_c * one_minus_c2 ** m * rising[m + 1] / pochhammer(s, m + 1, ctx)
        forms.append(total.scale(eta))
    return forms


def _cf_big_m1j(ctx, N, alpha, beta, c):
    mp = ctx.mp
    one_minus_c2 = denominator_check(ctx)(1 - c * c, "1-c^2")
    z = Poly((1 / one_minus_c2, mp.mpf(0), -1 / one_minus_c2))   # (1-x^2)/(1-c^2)
    one_minus_x = Poly((mp.mpf(1), mp.mpf(-1)))
    return _m1j_template(ctx, N, alpha, beta, z, one_minus_x, 1 + c, one_minus_c2)


def _cf_little_m1j(ctx, N, alpha, beta):
    """Little -1 Jacobi closed form.

    The odd-degree block of the printed representation carries a first
    parameter that is inconsistent with the printed recurrence; the
    consistent value (2n+alpha+beta+2)/2, the one matching the big -1
    Jacobi pattern, is used and the discrepancy is surfaced through the
    open-question report.
    """
    x = Poly.x(ctx)
    return _m1j_template(ctx, N, alpha, beta, x * x, x, 1, 1)


def _cf_special_lj(ctx, N, alpha):
    """Special little -1 Jacobi; odd block parameter fixed as in the little -1 Jacobi."""
    return _cf_little_m1j(ctx, N, ctx.mp.mpf(0), alpha)


CLOSED_FORMS = {
    "hermite": _cf_hermite,
    "generalized-hermite": _cf_generalized_hermite,
    "minus1-meixner-pollaczek": _cf_minus1_mp,
    "generalized-gegenbauer": _cf_generalized_gegenbauer,
    "chihara": _cf_chihara,
    "gegenbauer": _cf_gegenbauer,
    "symmetric-bannai-ito": _cf_symmetric_bannai_ito,
    "generalized-symmetric-bannai-ito": _cf_gsbi,
    "continuous-complementary-bannai-ito": _cf_ccbi,
    "continuous-bannai-ito": _cf_cbi,
    "continuous-minus1-hahn-1": _cf_c1h1,
    "continuous-minus1-hahn-2": _cf_c1h2,
    "big-minus1-jacobi": _cf_big_m1j,
    "little-minus1-jacobi": _cf_little_m1j,
    "special-little-minus1-jacobi": _cf_special_lj,
}
