"""Auxiliary q-families feeding the q -> -1 limit edges, plus the Wilson and
continuous dual Hahn helpers used by the Bannai-Ito-type closed forms.

The dilated little q-Jacobi, continuous q-Hahn (specialized a=c, b=d, with
the variable already rescaled) and q-Meixner-Pollaczek recurrences follow
the source text; the big q-Jacobi monic recurrence and the two helpers are
sourced from the standard hypergeometric catalog and marked external.

The middle recurrence coefficient of the dilated little q-Jacobi is printed
as 1 - A_n + C_n in the source; both sign readings are implemented
(``bn_sign`` parameter) and the q -> -1 ladder resolves which one
reproduces the little -1 Jacobi coefficients.
"""

from __future__ import annotations

from ..precision import pochhammer
from ..polynomials import Poly
from .base import (FamilyInfo, ParameterError, RecurrencePair, _each_degree, _from_AC,
                   get_param, require_nonzero)
from .catalog import REGISTRY, _register


_register(FamilyInfo(
    id="little-q-jacobi-dilated", name="Dilated little q-Jacobi",
    params=("a", "b", "q"), kind="q-aux", row=None,
    admissible="-1 < q < 0 near -1 on the limit ladder", anchor="ss2",
    has_weight=False, has_eigen=False))
_register(FamilyInfo(
    id="big-q-jacobi", name="Big q-Jacobi",
    params=("a", "b", "c", "q"), kind="q-aux", row=None,
    admissible="-1 < q < 0 near -1 on the limit ladder", anchor="ss2",
    external=True, has_weight=False, has_eigen=False))
_register(FamilyInfo(
    id="continuous-q-hahn", name="Continuous q-Hahn (a=c, b=d, rescaled)",
    params=("a", "b", "phi", "q"), kind="q-aux", row=None,
    admissible="-1 < q < 0 near -1 on the limit ladder", anchor="ss3.2",
    has_weight=False, has_eigen=False))
_register(FamilyInfo(
    id="q-meixner-pollaczek", name="q-Meixner-Pollaczek",
    params=("a", "phi", "q"), kind="q-aux", row=None,
    admissible="-1 < q < 0 near -1 on the limit ladder", anchor="ss4",
    has_weight=False, has_eigen=False))
_register(FamilyInfo(
    id="wilson", name="Wilson (monic, variable x^2)",
    params=("a", "b", "c", "d"), kind="helper", row=None,
    admissible="standard catalog conditions", anchor="external",
    external=True, has_weight=False, has_eigen=False))
_register(FamilyInfo(
    id="continuous-dual-hahn", name="Continuous dual Hahn (monic, variable x^2)",
    params=("a", "b", "c"), kind="helper", row=None,
    admissible="standard catalog conditions", anchor="external",
    external=True, has_weight=False, has_eigen=False))


def _recs_little_q_dilated(params, N, ctx):
    mp = ctx.mp
    a = get_param(params, "a", ctx)
    b = get_param(params, "b", ctx)
    q = get_param(params, "q", ctx)
    sign = params.get("bn_sign", "minus")
    if sign not in ("minus", "plus"):
        raise ParameterError("bn_sign must be 'minus' or 'plus'")

    def A(k):
        den = require_nonzero((1 - a * b * q ** (2 * k + 1)) * (1 - a * b * q ** (2 * k + 2)),
                              "(1-abq^(2n+1))(1-abq^(2n+2))", ctx)
        return (1 - b * q ** (k + 1)) * (1 - a * b * q ** (k + 1)) / den

    def C(k):
        if k == 0:
            return mp.mpf(0)
        den = require_nonzero((1 - a * b * q ** (2 * k)) * (1 - a * b * q ** (2 * k + 1)),
                              "(1-abq^(2n))(1-abq^(2n+1))", ctx)
        return a * b ** 2 * q ** (2 * k + 1) * (1 - q ** k) * (1 - a * q ** k) / den

    AC = [(A(k), C(k)) for k in range(N + 1)]
    if sign == "plus":
        return _from_AC(AC, lambda A, C: 1 - A + C)
    return _from_AC(AC)


def _recs_big_q_jacobi(params, N, ctx):
    mp = ctx.mp
    a = get_param(params, "a", ctx)
    b = get_param(params, "b", ctx)
    c = get_param(params, "c", ctx)
    q = get_param(params, "q", ctx)

    def A(k):
        den = require_nonzero((1 - a * b * q ** (2 * k + 1)) * (1 - a * b * q ** (2 * k + 2)),
                              "(1-abq^(2n+1))(1-abq^(2n+2))", ctx)
        return (1 - a * q ** (k + 1)) * (1 - a * b * q ** (k + 1)) * (1 - c * q ** (k + 1)) / den

    def C(k):
        if k == 0:
            return mp.mpf(0)
        den = require_nonzero((1 - a * b * q ** (2 * k)) * (1 - a * b * q ** (2 * k + 1)),
                              "(1-abq^(2n))(1-abq^(2n+1))", ctx)
        # -acq^(k+1)(1-abq^k/c) is grouped as -aq^(k+1)(c-abq^k) so c = 0 stays valid
        return -a * q ** (k + 1) * (1 - q ** k) * (c - a * b * q ** k) * (1 - b * q ** k) / den

    return _from_AC([(A(k), C(k)) for k in range(N + 1)])


def _recs_continuous_q_hahn(params, N, ctx):
    mp = ctx.mp
    a = get_param(params, "a", ctx)
    b = get_param(params, "b", ctx)
    phi = get_param(params, "phi", ctx)
    q = get_param(params, "q", ctx)
    eip = mp.exp(mp.mpc(0, 1) * phi)
    one_q = require_nonzero(1 + q, "1+q", ctx)

    def A(k):
        den = require_nonzero(a * eip * one_q * (1 - a ** 2 * b ** 2 * q ** (2 * k - 1))
                              * (1 - a ** 2 * b ** 2 * q ** (2 * k)), "continuous q-Hahn A_n denominator", ctx)
        return (1 - a * b * eip ** 2 * q ** k) * (1 - a ** 2 * q ** k) * (1 - a * b * q ** k) \
            * (1 - a ** 2 * b ** 2 * q ** (k - 1)) / den

    def C(k):
        if k == 0:
            return mp.mpc(0)
        den = require_nonzero(one_q * (1 - a ** 2 * b ** 2 * q ** (2 * k - 2))
                              * (1 - a ** 2 * b ** 2 * q ** (2 * k - 1)), "continuous q-Hahn C_n denominator", ctx)
        return a * eip * (1 - q ** k) * (1 - a * b * q ** (k - 1)) * (1 - b ** 2 * q ** (k - 1)) \
            * (1 - a * b * eip ** -2 * q ** (k - 1)) / den

    AC = [(A(k), C(k)) for k in range(N + 1)]
    shift = (a * eip + eip ** -1 / a) / one_q
    return _from_AC(AC, lambda A, C: (shift - (A + C)) / 2, u_over=4)


def _rec_q_mp(params, n, ctx):
    mp = ctx.mp
    a = get_param(params, "a", ctx)
    phi = get_param(params, "phi", ctx)
    q = get_param(params, "q", ctx)
    b = a * q ** n * mp.cos(phi)
    u = mp.mpf(0) if n == 0 else (1 - q ** n) * (1 - a ** 2 * q ** (n - 1)) / 4
    return RecurrencePair(b=b, u=u)


def _wilson_AC(a, b, c, d, k, ctx):
    mp = ctx.mp
    s = a + b + c + d
    A = (k + s - 1) * (k + a + b) * (k + a + c) * (k + a + d) \
        / require_nonzero((2 * k + s - 1) * (2 * k + s), "(2n+s-1)(2n+s)", ctx)
    if k == 0:
        C = mp.mpc(0)
    else:
        C = k * (k + b + c - 1) * (k + b + d - 1) * (k + c + d - 1) \
            / require_nonzero((2 * k + s - 2) * (2 * k + s - 1), "(2n+s-2)(2n+s-1)", ctx)
    return A, C


def _recs_wilson(params, N, ctx):
    a = get_param(params, "a", ctx)
    b = get_param(params, "b", ctx)
    c = get_param(params, "c", ctx)
    d = get_param(params, "d", ctx)
    return _from_AC([_wilson_AC(a, b, c, d, k, ctx) for k in range(N + 1)],
                    lambda A, C: A + C - a * a)


def _cdh_AC(a, b, c, k, ctx):
    mp = ctx.mp
    A = (k + a + b) * (k + a + c)
    C = mp.mpc(0) if k == 0 else k * (k + b + c - 1)
    return A, C


def _recs_cdh(params, N, ctx):
    a = get_param(params, "a", ctx)
    b = get_param(params, "b", ctx)
    c = get_param(params, "c", ctx)
    return _from_AC([_cdh_AC(a, b, c, k, ctx) for k in range(N + 1)],
                    lambda A, C: A + C - a * a)


def _cf_wilson(params, n, ctx):
    """Monic Wilson polynomial in y = x^2.

    The terminating 4F3 carries the conjugate parameter pair a+ix, a-ix
    whose Pochhammer product is the polynomial prod_j ((a+j)^2 + y), so the
    series is assembled directly in the y variable.
    """
    a = get_param(params, "a", ctx)
    b = get_param(params, "b", ctx)
    c = get_param(params, "c", ctx)
    d = get_param(params, "d", ctx)
    s = a + b + c + d
    y = Poly.x(ctx)
    return _wilson_series(a, [a + b, a + c, a + d], s, n, y, ctx)


def _wilson_series(a, dens, s, n, y, ctx):
    mp = ctx.mp
    total = Poly.constant(mp.mpc(0))
    term = Poly.constant(mp.mpc(1))
    for k in range(n + 1):
        total = total + term
        if k == n:
            break
        den = (k + 1) * mp.mpc(1)
        for b in dens:
            den *= b + k
        scal = (-mp.mpf(n) + k) * (n + s - 1 + k) / den
        term = term * (y + Poly.constant((a + k) ** 2))
        term = term.scale(scal)
    pref = mp.mpc(1)
    for b in dens:
        pref *= pochhammer(b, n, ctx)
    pref *= (-1) ** n / pochhammer(mp.mpf(n) + s - 1, n, ctx)
    return total.scale(pref)


def _cf_cdh(params, n, ctx):
    """Monic continuous dual Hahn polynomial in y = x^2."""
    mp = ctx.mp
    a = get_param(params, "a", ctx)
    b = get_param(params, "b", ctx)
    c = get_param(params, "c", ctx)
    y = Poly.x(ctx)
    total = Poly.constant(mp.mpc(0))
    term = Poly.constant(mp.mpc(1))
    for k in range(n + 1):
        total = total + term
        if k == n:
            break
        den = (k + 1) * (a + b + k) * (a + c + k)
        scal = (-mp.mpf(n) + k) / den
        term = term * (y + Poly.constant((a + k) ** 2))
        term = term.scale(scal)
    pref = (-1) ** n * pochhammer(a + b, n, ctx) * pochhammer(a + c, n, ctx)
    return total.scale(pref)


Q_RECURRENCES = {
    "little-q-jacobi-dilated": _recs_little_q_dilated,
    "big-q-jacobi": _recs_big_q_jacobi,
    "continuous-q-hahn": _recs_continuous_q_hahn,
    "q-meixner-pollaczek": _each_degree(_rec_q_mp),
    "wilson": _recs_wilson,
    "continuous-dual-hahn": _recs_cdh,
}

Q_CLOSED_FORMS = {
    "wilson": _cf_wilson,
    "continuous-dual-hahn": _cf_cdh,
}
