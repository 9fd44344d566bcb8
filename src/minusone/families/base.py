"""Catalog scaffolding: family records, errors, weight descriptions, shared formula helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..precision import PrecisionContext, pochhammer, pochhammers
from ..polynomials import Poly, hyp_basis, hyp_terminating_poly


class UnknownFamilyError(KeyError):
    pass


class ParameterError(ValueError):
    """Parameters outside a family's schema, or hitting a printed denominator zero."""


class InadmissibleParameterError(ParameterError):
    """Parameters outside a family's printed admissibility clause: raised by ``weight_spec``
    alone, where ``FamilyInfo.admits`` rejects them, quoting ``FamilyInfo.admissible``."""


class NoEigenSystemError(LookupError):
    """Family has no eigenvalue equation on record."""


class NoClosedFormError(LookupError):
    """Family has no hypergeometric closed form on record."""


class NoWeightError(LookupError):
    """Family has no continuous orthogonality measure on record."""


@dataclass(frozen=True)
class FamilyInfo:
    id: str
    name: str
    params: tuple
    kind: str                 # "scheme" | "quasi" | "q-aux"
    row: int | None           # parameter-count row in the scheme chart (scheme families)
    admissible: str           # the printed admissibility clause
    anchor: str               # source anchor for the formulas, e.g. "A.3"
    admits: Callable | None = None  # (ctx, **params) -> bool: that clause as a test; None: none to test
    external: bool = False    # data sourced from the standard hypergeometric catalog
    symmetric: bool = False   # b_n identically zero


@dataclass(frozen=True)
class RecurrencePair:
    """Coefficients of x P_n = P_{n+1} + b_n P_n + u_n P_{n-1}."""
    b: object
    u: object
    A: object = None          # optional printed (A_n, C_n) decomposition
    C: object = None


@dataclass
class WeightSpec:
    pieces: list                     # [(lo, hi), ...]: the support, split at its singular points
    density: Callable                # (x, lo_off=None, hi_off=None); includes any sign factor;
                                     # nonnegative on the support (module ``weights``)
    measure_prefactor: object = 1    # multiplies the raw integral in the printed inner product
    even: bool = False               # density(-x, hi_off, lo_off) == density(x, lo_off, hi_off)
                                     # and the pieces are closed under x -> -x


def denominator_check(ctx: PrecisionContext):
    """check(value, what) -> value; ParameterError naming ``what`` where |value| <= tol(4)*10, formed once."""
    floor = ctx.tol(4) * 10

    def check(value, what):
        if abs(value) <= floor:
            raise ParameterError("printed denominator vanishes: %s = %s" % (what, ctx.mp.nstr(value)))
        return value
    return check


@dataclass(frozen=True)
class FactoredU:
    """u_n on one parity class n = 2m + e as a function of m: ``const`` times the factors
    p m + q of ``num`` over those of ``den``, each p real and q from the family's parameters.
    A quadratic without real roots, the continuous Bannai-Ito block's (2m + q)^2 + 4w^2, is
    its two exactly conjugate factors 2m + q +- 2iw."""
    const: object
    num: tuple = ()           # (p, q)
    den: tuple = ()           # (p, q)

    def value(self, m):
        value = self.const
        for p, q in self.num:
            value *= p * m + q
        for p, q in self.den:
            value /= p * m + q
        return value


def conjugate_closed(vals, mp):
    """True when the multiset vals equals its conjugate, exactly: the printed "non-real
    parameters in conjugate pairs".  Each v needs as many w with Re w = Re v and Im w = -Im v
    as there are values equal to v; ``mp.conj`` would round v to the context."""
    mirrors = lambda v, w: v.real == w.real and v.imag == mp.fneg(w.imag, exact=True)
    return all(sum(mirrors(v, w) for w in vals) == vals.count(v) for v in vals)


def _parity(n):
    """(n mod 2, n // 2): which block of an even/odd formula, and its index m."""
    return n % 2, n // 2


def _parity_forms(ctx, N, bases, dens, front, upper=None):
    """The raw closed forms P_0 .. P_N of one terminating series per parity class.

    On n = 2m + e, P_n is pref S, times ``front`` on odd n:
    S = sum_k (-m)_k (upper)_k B_k / (k! prod_b (b)_k), summed by
    ``hyp_terminating_poly`` over the basis B = bases[e] (``hyp_basis``) with
    the lower parameters b of dens[e], and pref = (-1)^m prod_b (b)_m / (upper)_m,
    with upper = upper(e, m).  Without ``upper`` neither (upper)_k nor
    (upper)_m enters.  Each (b)_m is read from one ``pochhammers`` list.
    """
    rising = [[pochhammers(b, (N - e) // 2, ctx) for b in lows] for e, lows in enumerate(dens)]
    forms = []
    for n in range(N + 1):
        odd, m = _parity(n)
        nums, pref = [-m], (-1) ** m
        for values in rising[odd]:
            pref *= values[m]
        if upper is not None:
            nums.append(upper(odd, m))
            pref /= pochhammer(nums[-1], m, ctx)
        series = hyp_terminating_poly(m, nums, dens[odd], bases[odd], ctx)
        forms.append(front.scale(pref) * series if odd else series.scale(pref))
    return forms


def _wilson_forms(ctx, N, wa, bs, front, upper=None):
    """The Wilson-type closed forms: ``_parity_forms`` over (ix+a)_k (-ix+a)_k with the
    lower parameters a + b, b in ``bs``, where a = wa[e] on n = 2m + e."""
    ix = Poly((0, ctx.mp.mpc(0, 1)))
    bases = [hyp_basis((N - e) // 2, [ix + a, -ix + a], 1, ctx) for e, a in enumerate(wa)]
    return _parity_forms(ctx, N, bases, [[a + b for b in bs] for a in wa], front, upper)


def _from_AC(AC, b_of=lambda A, C: 1 - A - C, u_over=None):
    """Recurrence pairs n = 0..N from the printed (A_n, C_n), n = 0..N.

    b_n = b_of(A_n, C_n) and u_n = A_{n-1} C_n (divided by ``u_over`` when
    given); u_0 is C_0, which every printed decomposition sets to 0.
    """
    pairs = []
    prev = None
    for A, C in AC:
        if prev is None:
            u = C
        else:
            u = prev * C if u_over is None else prev * C / u_over
        pairs.append(RecurrencePair(b=b_of(A, C), u=u, A=A, C=C))
        prev = A
    return pairs
