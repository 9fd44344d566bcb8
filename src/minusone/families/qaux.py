"""Auxiliary q-families feeding the q -> -1 limit edges.

The dilated little q-Jacobi, continuous q-Hahn (specialized a=c, b=d, with
the variable already rescaled) and q-Meixner-Pollaczek recurrences follow
the source text; the big q-Jacobi monic recurrence is sourced from the
standard hypergeometric catalog and marked external.

The middle recurrence coefficient of the dilated little q-Jacobi is printed
as 1 - A_n + C_n in the source; both sign readings are implemented
(keyword ``bn_sign``, "minus" by default) and the q -> -1 ladder resolves which one
reproduces the little -1 Jacobi coefficients.
"""

from __future__ import annotations

from .base import FamilyInfo, ParameterError, RecurrencePair, _from_AC, denominator_check


Q_FAMILIES = {info.id: info for info in (
    FamilyInfo(
        id="little-q-jacobi-dilated", name="Dilated little q-Jacobi",
        params=("a", "b", "q"), kind="q-aux", row=None,
        admissible="-1 < q < 0 near -1 on the limit ladder", anchor="ss2"),
    FamilyInfo(
        id="big-q-jacobi", name="Big q-Jacobi",
        params=("a", "b", "c", "q"), kind="q-aux", row=None,
        admissible="-1 < q < 0 near -1 on the limit ladder", anchor="ss2", external=True),
    FamilyInfo(
        id="continuous-q-hahn", name="Continuous q-Hahn (a=c, b=d, rescaled)",
        params=("a", "b", "phi", "q"), kind="q-aux", row=None,
        admissible="-1 < q < 0 near -1 on the limit ladder", anchor="ss3.2"),
    FamilyInfo(
        id="q-meixner-pollaczek", name="q-Meixner-Pollaczek",
        params=("a", "phi", "q"), kind="q-aux", row=None,
        admissible="-1 < q < 0 near -1 on the limit ladder", anchor="ss4"),
)}


def _q_powers(q, lo, hi):
    """q ** j for j = lo..hi, each by one ``**`` as printed; entry j - lo."""
    return [q ** j for j in range(lo, hi + 1)]


def _recs_little_q_dilated(ctx, N, a, b, q, bn_sign="minus"):
    mp = ctx.mp
    if bn_sign not in ("minus", "plus"):
        raise ParameterError("bn_sign must be 'minus' or 'plus'")
    check = denominator_check(ctx)
    ab, ab2 = a * b, a * b ** 2
    qp = _q_powers(q, 0, 2 * N + 2)
    one_ab = [1 - ab * p for p in qp]           # 1 - abq^j
    AC = []
    for k in range(N + 1):
        den = check(one_ab[2 * k + 1] * one_ab[2 * k + 2], "(1-abq^(2n+1))(1-abq^(2n+2))")
        A = (1 - b * qp[k + 1]) * one_ab[k + 1] / den
        if k == 0:
            C = mp.mpf(0)
        else:
            den = check(one_ab[2 * k] * one_ab[2 * k + 1], "(1-abq^(2n))(1-abq^(2n+1))")
            C = ab2 * qp[2 * k + 1] * (1 - qp[k]) * (1 - a * qp[k]) / den
        AC.append((A, C))
    if bn_sign == "plus":
        return _from_AC(AC, lambda A, C: 1 - A + C)
    return _from_AC(AC)


def _recs_big_q_jacobi(ctx, N, a, b, c, q):
    mp = ctx.mp
    check = denominator_check(ctx)
    ab, na = a * b, -a
    qp = _q_powers(q, 0, 2 * N + 2)
    one_ab = [1 - ab * p for p in qp]           # 1 - abq^j
    AC = []
    for k in range(N + 1):
        den = check(one_ab[2 * k + 1] * one_ab[2 * k + 2], "(1-abq^(2n+1))(1-abq^(2n+2))")
        A = (1 - a * qp[k + 1]) * one_ab[k + 1] * (1 - c * qp[k + 1]) / den
        if k == 0:
            C = mp.mpf(0)
        else:
            den = check(one_ab[2 * k] * one_ab[2 * k + 1], "(1-abq^(2n))(1-abq^(2n+1))")
            # -acq^(k+1)(1-abq^k/c) is grouped as -aq^(k+1)(c-abq^k) so c = 0 stays valid
            C = na * qp[k + 1] * (1 - qp[k]) * (c - ab * qp[k]) * (1 - b * qp[k]) / den
        AC.append((A, C))
    return _from_AC(AC)


def _recs_continuous_q_hahn(ctx, N, a, b, phi, q):
    mp = ctx.mp
    eip = mp.exp(mp.mpc(0, 1) * phi)
    check = denominator_check(ctx)
    one_q = check(1 + q, "1+q")
    ab, a_sq, b_sq, a2b2 = a * b, a ** 2, b ** 2, a ** 2 * b ** 2
    ab_e2, ab_em2 = ab * eip ** 2, ab * eip ** -2
    aeip = a * eip
    aeip_q = aeip * one_q
    qp = _q_powers(q, -1, 2 * N)                # q^j at qp[j + 1]
    one_a2b2 = [1 - a2b2 * p for p in qp]       # 1 - a^2b^2q^j at one_a2b2[j + 1]
    AC = []
    for k in range(N + 1):
        den = check(aeip_q * one_a2b2[2 * k] * one_a2b2[2 * k + 1],
                    "continuous q-Hahn A_n denominator")
        A = (1 - ab_e2 * qp[k + 1]) * (1 - a_sq * qp[k + 1]) * (1 - ab * qp[k + 1]) \
            * one_a2b2[k] / den
        if k == 0:
            C = mp.mpc(0)
        else:
            den = check(one_q * one_a2b2[2 * k - 1] * one_a2b2[2 * k],
                        "continuous q-Hahn C_n denominator")
            C = aeip * (1 - qp[k + 1]) * (1 - ab * qp[k]) * (1 - b_sq * qp[k]) \
                * (1 - ab_em2 * qp[k]) / den
        AC.append((A, C))
    shift = (aeip + eip ** -1 / a) / one_q
    return _from_AC(AC, lambda A, C: (shift - (A + C)) / 2, u_over=4)


def _recs_q_mp(ctx, N, a, phi, q):
    mp = ctx.mp
    cos_phi, a_sq = mp.cos(phi), a ** 2
    qp = _q_powers(q, 0, N)
    return [RecurrencePair(b=a * qp[n] * cos_phi,
                           u=mp.mpf(0) if n == 0 else (1 - qp[n]) * (1 - a_sq * qp[n - 1]) / 4)
            for n in range(N + 1)]


Q_RECURRENCES = {
    "little-q-jacobi-dilated": _recs_little_q_dilated,
    "big-q-jacobi": _recs_big_q_jacobi,
    "continuous-q-hahn": _recs_continuous_q_hahn,
    "q-meixner-pollaczek": _recs_q_mp,
}
