"""Orthogonality data: weight functions, supports, and printed norm formulas.

``weight_spec`` returns the density as printed (theta implemented as sgn,
the Gamma moduli that have a closed form taken in closed form) and its
support as ``pieces``, (lo, hi) pairs whose endpoints carry all algebraic
singular points.  Every density is density(x, lo_off=None, hi_off=None):
the node tables pass the offsets x - lo and hi - x of the node in its
piece, computed without cancellation, and each factor that vanishes at a
finite nonzero endpoint is built from them (1 - x^2 as (1 + x)(1 - x),
x^2 - gamma^2 as (|x| - |gamma|)(|x| + |gamma|), one factor an offset).  Called with x
alone, the reference form the tests hold the offsets to, a density
computes those factors from x, as printed.  ``WEIGHTS`` holds one measure
per family, its weight spec with its printed norms: the right-hand sides
h_0 .. h_N of the orthogonality relation under the printed inner product,
so quadrature results can be compared against them directly, and a weight
cannot be on record without them; ``families.norms`` judges them real.
``measure_prefactor`` records the constant sitting inside the printed inner
product (1/(4 pi) for the Gamma-weight symmetric families, 1 elsewhere).  The weights assume the
family's admissibility clause unchecked: ``families.weight_spec`` tests it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import log
from typing import Callable

from mpmath.libmp import (
    from_man_exp, ln2_fixed, mpf_abs, mpf_add, mpf_exp, mpf_log, mpf_mul, mpf_pi, pi_fixed,
    round_nearest as RND, to_fixed,
)

from ..precision import StirlingSeries, log_abs_gamma_sum, pochhammer
from .base import WeightSpec, _parity, conjugate_closed


def _one_pm_x(x, lo_off, hi_off):
    """(1 + x, 1 - x) for x in a piece of [-1, 1].

    With offsets, the factor that vanishes in x's half is an offset: a piece
    holding negative x starts at -1, one holding positive x ends at 1.
    """
    if lo_off is None:
        return 1 + x, 1 - x
    return (lo_off, 1 - x) if x < 0 else (1 + x, hi_off)


def _inner(x, g, lo_off, hi_off):
    """|x| - g on the pieces [g, ...) and (..., -g]: the offset from the end at +-g."""
    if lo_off is None:
        return abs(x) - g
    return lo_off if x > 0 else hi_off


_SQUARINGS = 32        # the most squarings a density power pays for (``_power``)


def _power(e, mp):
    """x -> x**e for a density factor x >= 0, e an exponent formed from the parameters.

    mpmath's ** takes an e with 2e integral by repeated squaring, about log2|e| products:
    a thousand at e = 1e300.  From |e| = 2**_SQUARINGS on, x**e is exp(e log x) instead,
    log x taken with the bits of e on top, as exp carries the absolute error of its
    argument into its result's relative error.
    """
    if abs(e) < 2 ** _SQUARINGS:
        return lambda x: x ** e
    prec = mp.prec
    wp = prec + mp.mag(e) + 10
    e = e._mpf_
    return lambda x: mp.make_mpf(mpf_exp(mpf_mul(e, mpf_log(x._mpf_, wp, RND), wp, RND), prec, RND))


# ----------------------------------------------------------------------
# weight specs


def _w_hermite(ctx):
    mp = ctx.mp
    return WeightSpec([(mp.mpf("-inf"), mp.mpf("+inf"))], lambda x, *offsets: mp.exp(-x * x),
                      even=True)


def _w_generalized_hermite(ctx, alpha):
    mp = ctx.mp
    power = _power(2 * alpha, mp)
    dens = lambda x, *offsets: power(abs(x)) * mp.exp(-x * x)
    zero = mp.mpf(0)
    return WeightSpec([(mp.mpf("-inf"), zero), (zero, mp.mpf("+inf"))], dens, even=True)


def _w_minus1_mp(ctx, alpha, gamma):
    mp = ctx.mp
    g = abs(gamma)
    power = _power(alpha - mp.mpf(1) / 2, mp)

    def dens(x, lo_off=None, hi_off=None):
        near, far = _inner(x, g, lo_off, hi_off), abs(x) + g     # x^2 - gamma^2 = near * far
        lead = far if (x > 0) == (gamma > 0) else near          # sgn(x) (x + gamma)
        return lead * power(near * far) * mp.exp(-x * x)

    return WeightSpec([(mp.mpf("-inf"), -g), (g, mp.mpf("+inf"))], dens)


def _w_gegenbauer(ctx, alpha):
    mp = ctx.mp
    power = _power(alpha - mp.mpf(1) / 2, mp)

    def dens(x, lo_off=None, hi_off=None):
        p, m = _one_pm_x(x, lo_off, hi_off)
        return power(p * m)

    return WeightSpec([(mp.mpf(-1), mp.mpf(1))], dens, even=True)


def _w_generalized_gegenbauer(ctx, alpha, beta):
    mp = ctx.mp
    zero = mp.mpf(0)
    power_x, power_pm = _power(2 * alpha + 1, mp), _power(beta, mp)

    def dens(x, lo_off=None, hi_off=None):
        p, m = _one_pm_x(x, lo_off, hi_off)
        return power_x(abs(x)) * power_pm(p * m)

    return WeightSpec([(mp.mpf(-1), zero), (zero, mp.mpf(1))], dens, even=True)


def _w_chihara(ctx, alpha, beta, gamma):
    mp = ctx.mp
    g = abs(gamma)
    top = mp.sqrt(1 + gamma * gamma)
    power_a, power_b = _power(alpha, mp), _power(beta, mp)

    def dens(x, lo_off=None, hi_off=None):
        s = abs(x)
        near, far = _inner(x, g, lo_off, hi_off), s + g         # x^2 - gamma^2 = near * far
        edge = top - s if lo_off is None else (hi_off if x > 0 else lo_off)
        lead = far if (x > 0) == (gamma > 0) else near          # sgn(x) (x + gamma)
        return lead * power_a(near * far) * power_b(edge * (top + s))   # 1 + gamma^2 - x^2

    return WeightSpec([(-top, -g), (g, top)], dens)


def _w_little_m1j(ctx, alpha, beta):
    mp = ctx.mp
    zero = mp.mpf(0)
    power_x, power_pm = _power(alpha, mp), _power((beta - 1) / 2, mp)

    def dens(x, lo_off=None, hi_off=None):
        p, m = _one_pm_x(x, lo_off, hi_off)
        return power_x(abs(x)) * power_pm(p * m) * p

    return WeightSpec([(mp.mpf(-1), zero), (zero, mp.mpf(1))], dens)


def _w_special_lj(ctx, alpha):
    mp = ctx.mp
    power = _power((alpha - 1) / 2, mp)

    def dens(x, lo_off=None, hi_off=None):
        p, m = _one_pm_x(x, lo_off, hi_off)
        return power(p * m) * p

    return WeightSpec([(mp.mpf(-1), mp.mpf(1))], dens)


def _w_big_m1j(ctx, alpha, beta, c):
    mp = ctx.mp
    power_pm, power_c = _power((alpha - 1) / 2, mp), _power((beta + 1) / 2, mp)

    def dens(x, lo_off=None, hi_off=None):
        p, m = _one_pm_x(x, lo_off, hi_off)
        near, far = _inner(x, c, lo_off, hi_off), abs(x) + c     # x^2 - c^2 = near * far
        return p / (far if x > 0 else near) * power_pm(p * m) * power_c(near * far)

    # sgn(x) / (c + x) = 1 / |c + x|: its pole sits at the -c endpoint, effective exponent
    # (beta-1)/2 there
    return WeightSpec([(mp.mpf(-1), -c), (c, mp.mpf(1))], dens)


# The |Gamma|^2 densities below use the reflection identities
#   |Gamma(ix)|^2 = pi / (x sinh(pi x)),   |Gamma(2ix)|^2 = pi / (2x sinh(2 pi x)),
#   |Gamma(1/2 + ix)|^2 = pi / cosh(pi x)
# (DLMF 5.4.3, 5.4.4), so |Gamma(ix) / Gamma(2ix)|^2 = 4 cosh(pi x), which
# is finite at x = 0, and 1 / |Gamma(1/2 + ix)|^2 = cosh(pi x) / pi.  The
# remaining moduli, |Gamma(a + iy)| with a > 0, come from one call of the
# fixed-point kernel ``log_abs_gamma_sum`` per density call, on the raw value
# of x: each spec prepares its ``StirlingSeries`` once, in its closure, with
# the real parts a_j and the offsets b_j of y_j = b_j + x (or b_j + x/2)
# (``precision``, The |Gamma| kernel).  The density is then
# exp(c + 2 sum of log|Gamma|) cosh(pi x), c = log 4 or -log pi, with the
# exponents summed in fixed point and the cosh taken as its two
# exponentials: neither b_j + x nor pi x is rounded, which at |x| near 2000
# would move the density by thousands of units in the last place.  The symmetric
# Bannai-Ito weights are even where their parameters are closed under
# conjugation; their specs say so (``WeightSpec.even``), as those of the
# Hermite and Gegenbauer families do, and the node tables then sweep each
# pair +-x once (``quadrature``, Even weights).  Every density is a pure
# function of its arguments.


_BITS_PER_E2 = 2 / log(2) / 2 ** 32     # log2(e**2t) per unit of t at 2**-32


def _gamma_modulus_weight(vals, mp):
    """The weight 4 cosh(pi x) |prod Gamma(v + ix)|^2 = |Gamma(ix) prod Gamma(v + ix) / Gamma(2ix)|^2
    on the whole line, with the printed 1/(4 pi) before its integral.

    Even in x when vals is closed under conjugation.
    """
    series = StirlingSeries(mp, [(mp.re(v), mp.im(v)) for v in vals])
    return WeightSpec(pieces=[(mp.mpf("-inf"), mp.mpf("+inf"))],
                      density=_gamma_density(series, mp, 2 * ln2_fixed(series.bits)),
                      measure_prefactor=1 / (4 * mp.pi), even=conjugate_closed(vals, mp))


def _gamma_density(series, mp, log_factor):
    """x -> exp(log_factor + 2 log_abs_gamma_sum) cosh(pi x), log_factor at 2**-series.bits.

    The cosh is the two exponentials exp(v + pi|x|) + exp(v - pi|x|), v the
    exponent less log 2, summed in fixed point; the smaller is taken at the
    precision its size leaves, and not at all below the last bit.
    """
    prec, bits = mp.prec, series.bits
    pi = pi_fixed(bits)
    log_factor -= ln2_fixed(bits)
    make = mp.make_mpf

    def dens(x, *offsets):
        x = x._mpf_
        t = pi * to_fixed(mpf_abs(x), bits) >> bits
        v = 2 * log_abs_gamma_sum(series, x) + log_factor
        value = mpf_exp(from_man_exp(v + t, -bits), prec, RND)
        small = prec + 4 - int((t >> (bits - 32)) * _BITS_PER_E2)   # e**-2t = 2**(small-prec-4)
        if small > 2:
            value = mpf_add(value, mpf_exp(from_man_exp(v - t, -bits), small, RND), prec, RND)
        return make(value)
    return dens


def _w_gsbi(ctx, a, b, c):
    return _gamma_modulus_weight([ctx.mp.mpc(v) for v in (a, b, c)], ctx.mp)


def _w_sbi(ctx, a, b):
    return _gamma_modulus_weight([ctx.mp.mpc(v) for v in (a, b)], ctx.mp)


def _w_cbi(ctx, alpha, beta, gamma, delta):
    mp = ctx.mp
    half = mp.mpf(1) / 2
    # |Gamma(fa+ix/2+1) Gamma(fb+ix/2+1) Gamma(fc+ix/2+1/2) Gamma(fd+ix/2+1/2) / Gamma(1/2+ix)|^2
    # for fa = alpha + i beta, fb = gamma + i delta, fc = conj(fb), fd = conj(fa): the terms as
    # (real part, imaginary part at x = 0), y = that + x/2
    terms = [(alpha + 1, beta), (gamma + 1, delta), (gamma + half, -delta), (alpha + half, -beta)]
    series = StirlingSeries(mp, terms, -1)
    log_pi = to_fixed(mpf_log(mpf_pi(series.bits + 8), series.bits + 8), series.bits)
    return WeightSpec([(mp.mpf("-inf"), mp.mpf("+inf"))], _gamma_density(series, mp, -log_pi))


def _w_c1h1(ctx, alpha, beta, gamma):
    return _w_cbi(ctx, alpha, beta, gamma, beta)


def _w_c1h2(ctx, alpha, beta, gamma):
    return _w_cbi(ctx, alpha, beta, gamma, -beta)


# ----------------------------------------------------------------------
# printed squared norms (right-hand sides of the orthogonality relations)


def _norm_hermite(ctx, n):
    mp = ctx.mp
    odd, m = _parity(n)
    return mp.factorial(m) * mp.gamma(m + (mp.mpf(3) if odd else mp.mpf(1)) / 2)


def _norm_generalized_hermite(ctx, n, alpha):
    mp = ctx.mp
    odd, m = _parity(n)
    return mp.factorial(m) * mp.gamma(m + alpha + (mp.mpf(3) if odd else mp.mpf(1)) / 2)


def _norm_minus1_mp(ctx, n, alpha, gamma):
    return ctx.mp.exp(-gamma * gamma) * _norm_generalized_hermite(ctx, n, alpha)


def _norm_gg_like(al, be, n, ctx):
    mp = ctx.mp
    odd, m = _parity(n)
    if not odd:
        num = mp.gamma(m + al + 1) * mp.gamma(m + be + 1) / mp.gamma(m + al + be + 1)
        return num * mp.factorial(m) / ((2 * m + al + be + 1) * pochhammer(mp.mpf(m) + al + be + 1, m, ctx) ** 2)
    num = mp.gamma(m + al + 2) * mp.gamma(m + be + 1) / mp.gamma(m + al + be + 2)
    return num * mp.factorial(m) / ((2 * m + al + be + 2) * pochhammer(mp.mpf(m) + al + be + 2, m, ctx) ** 2)


def _norm_generalized_gegenbauer(ctx, n, alpha, beta):
    return _norm_gg_like(alpha, beta, n, ctx)


def _norm_chihara(ctx, n, alpha, beta, gamma):
    return _norm_gg_like(alpha, beta, n, ctx)       # the printed norm has no gamma


def _norm_gegenbauer(ctx, n, alpha):
    mp = ctx.mp
    half = mp.mpf(1) / 2
    odd, m = _parity(n)
    if not odd:
        return mp.gamma(m + half) * mp.gamma(m + alpha + half) / mp.gamma(m + alpha) \
            * mp.factorial(m) / ((2 * m + alpha) * pochhammer(mp.mpf(m) + alpha, m, ctx) ** 2)
    return mp.gamma(m + 3 * half) * mp.gamma(m + alpha + half) / mp.gamma(m + alpha + 1) \
        * mp.factorial(m) / ((2 * m + alpha + 1) * pochhammer(mp.mpf(m) + alpha + 1, m, ctx) ** 2)


def _kappa_little(al, be, n, ctx):
    mp = ctx.mp
    odd, m = _parity(n)
    ap = (al + 1) / 2
    bp = (be + 1) / 2
    s = 1 + (al + be) / 2
    if not odd:
        return mp.factorial(m) * pochhammer(ap, m, ctx) * pochhammer(bp, m, ctx) \
            / (pochhammer(s, 2 * m, ctx) * pochhammer(mp.mpf(m) + s, m, ctx))
    return mp.factorial(m) * pochhammer(ap, m + 1, ctx) * pochhammer(bp, m + 1, ctx) \
        / (pochhammer(s, 2 * m + 1, ctx) * pochhammer(mp.mpf(m) + s, m + 1, ctx))


def _norm_little_m1j(ctx, n, alpha, beta):
    mp = ctx.mp
    pref = mp.gamma((alpha + 1) / 2) * mp.gamma((beta + 1) / 2) / mp.gamma(alpha / 2 + beta / 2 + 1)
    return pref * _kappa_little(alpha, beta, n, ctx)


def _norm_big_m1j(ctx, n, alpha, beta, c):
    # the printed kappa carries (1-c^2)**m; the measure (checked against both
    # quadrature and the recurrence product h_0 u_1 ... u_n) requires the
    # square of that factor
    mp = ctx.mp
    odd, m = _parity(n)
    kappa = _kappa_little(alpha, beta, n, ctx) * (1 - c * c) ** (2 * m)
    if odd:
        kappa *= (1 + c) ** 2
    pref = (1 - c) * (1 - c * c) ** ((alpha + beta) / 2) \
        * mp.gamma((alpha + 1) / 2) * mp.gamma((beta + 1) / 2) / mp.gamma(alpha / 2 + beta / 2 + 1)
    return pref * kappa


def _norm_special_lj(ctx, n, alpha):
    mp = ctx.mp
    return mp.sqrt(mp.pi) * mp.gamma((alpha + 1) / 2) / mp.mpf(4) ** n \
        * mp.gamma(n + mp.mpf(1)) * mp.gamma(n + 1 + alpha) / mp.gamma(n + 1 + alpha / 2) ** 2 \
        * mp.gamma(1 + alpha / 2) / mp.gamma(1 + alpha)


def _paired_product(f, args, mp):
    """prod f(z) over args, f real on the real line, each pair of exact conjugates among args
    (``base.conjugate_closed``) taken once as the real |f(z)|^2: at conjugate-closed
    parameters the printed norms are real by construction.  (``mp.conj`` would round a
    value read in a wider context.)"""
    left, product = list(args), 1
    while left:
        z = left.pop(0)
        value = f(z)
        k = next((k for k, w in enumerate(left) if z.imag and conjugate_closed([z, w], mp)), None)
        if k is not None:
            value = mp.fdot([value.real, value.imag], [value.real, value.imag])
            del left[k]
        product *= value
    return product


def _norm_gsbi(ctx, n, a, b, c):
    # the printed kappa_n is the squared norm of the even member of degree
    # 2n (its index runs over the underlying Wilson degree); odd-degree
    # norms follow from the recurrence: h_{2m+1} = kappa_m tau_{2m+1}
    mp = ctx.mp
    s = a + b + c
    odd, m = _parity(n)
    # the pair sums are formed before m is added, so conjugate sums are exact mirrors
    value = _paired_product(mp.gamma, (m + (a + b), m + (a + c), m + (b + c), m + a, m + b,
                                       m + c), mp) * mp.factorial(m) \
        / (mp.gamma(2 * m + s) * pochhammer(mp.mpf(m) + s - 1, m, ctx))
    if odd:
        value *= _paired_product(lambda z: z, (m + s - 1, m + c, m + a, m + b), mp) \
            / ((2 * m + s - 1) * (2 * m + s))
    return value


def _norm_sbi(ctx, n, a, b):
    # same even-index convention as the generalized symmetric family
    mp = ctx.mp
    odd, m = _parity(n)
    value = _paired_product(mp.gamma, (m + a + b, m + a, m + b), mp) * mp.factorial(m)
    if odd:
        value *= (m + a) * (m + b)
    return value


def _norms_cbi(ctx, N, alpha, beta, gamma, delta):
    """h_0 .. h_N of the continuous Bannai-Ito-type families: h_0 once, then kappa_n; -1 Hahn I
    and II are delta = beta and delta = -beta."""
    mp = ctx.mp
    i = mp.mpc(0, 1)
    fa, fb = alpha + i * beta, gamma + i * delta
    fc, fd = mp.conj(fb), mp.conj(fa)
    half = mp.mpf(1) / 2
    # fa + fb + fc + fd is 2 alpha + 2 gamma, whose complex sum would round to Im != 0
    h0 = _paired_product(mp.gamma, (fa + fb + 3 * half, fa + fc + 1, fb + fc + 1, fa + fd + 1,
                                    fb + fd + 1, fc + fd + 3 * half), mp) \
        / mp.gamma(2 * alpha + 2 * gamma + 2)
    out = []
    for n in range(N + 1):
        odd, m = _parity(n)
        top = m + 1 if odd else m
        common = mp.mpf(4) ** n * mp.factorial(m) \
            * pochhammer(2 * alpha + 1, top, ctx) * pochhammer(2 * gamma + 1, top, ctx) \
            / (pochhammer(2 * alpha + 2 * gamma + 2, n, ctx)
               * pochhammer(mp.mpf(m) + 2 * alpha + 2 * gamma + 2, top, ctx))
        kappa = common * mp.fprod((k + alpha + gamma) ** 2 + (beta - delta) ** 2
                                  for k in range(1, top + 1)) \
            * mp.fprod((k + alpha + gamma + half) ** 2 + (beta + delta) ** 2 for k in range(1, m + 1))
        out.append(4 * mp.pi * h0 * kappa)
    return out


def _norms_c1h1(ctx, N, alpha, beta, gamma):
    return _norms_cbi(ctx, N, alpha, beta, gamma, beta)


def _norms_c1h2(ctx, N, alpha, beta, gamma):
    return _norms_cbi(ctx, N, alpha, beta, gamma, -beta)


def _each_degree(formula):
    """The sequence function (ctx, N, **params) -> [formula(ctx, n, **params), n = 0..N]."""
    @functools.wraps(formula)
    def norms(ctx, N, **params):
        return [formula(ctx, n, **params) for n in range(N + 1)]
    return norms


@dataclass(frozen=True)
class _Measure:
    """A family's measure: its weight and the printed norms under it, each taking the
    parameters by their schema names."""
    spec: Callable      # (ctx, **params) -> WeightSpec
    norms: Callable     # (ctx, N, **params) -> [h_0, ..., h_N]


WEIGHTS = {
    "hermite": _Measure(_w_hermite, _each_degree(_norm_hermite)),
    "generalized-hermite": _Measure(_w_generalized_hermite, _each_degree(_norm_generalized_hermite)),
    "minus1-meixner-pollaczek": _Measure(_w_minus1_mp, _each_degree(_norm_minus1_mp)),
    "gegenbauer": _Measure(_w_gegenbauer, _each_degree(_norm_gegenbauer)),
    "generalized-gegenbauer": _Measure(_w_generalized_gegenbauer,
                                       _each_degree(_norm_generalized_gegenbauer)),
    "chihara": _Measure(_w_chihara, _each_degree(_norm_chihara)),
    "little-minus1-jacobi": _Measure(_w_little_m1j, _each_degree(_norm_little_m1j)),
    "special-little-minus1-jacobi": _Measure(_w_special_lj, _each_degree(_norm_special_lj)),
    "big-minus1-jacobi": _Measure(_w_big_m1j, _each_degree(_norm_big_m1j)),
    "generalized-symmetric-bannai-ito": _Measure(_w_gsbi, _each_degree(_norm_gsbi)),
    "symmetric-bannai-ito": _Measure(_w_sbi, _each_degree(_norm_sbi)),
    "continuous-bannai-ito": _Measure(_w_cbi, _norms_cbi),
    "continuous-minus1-hahn-1": _Measure(_w_c1h1, _norms_c1h1),
    "continuous-minus1-hahn-2": _Measure(_w_c1h2, _norms_c1h2),
}
