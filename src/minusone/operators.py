"""Dunkl operator algebra: build each family's eigenoperator, apply it to
polynomials exactly, and verify the eigenvalue equations as identities.

Operators are sums of (rational coefficient) x (basis symbol) terms, the
symbols being the identity I, the reflection R, the imaginary shifts S+/S-,
their compositions with R, and derivatives.  The printed coefficients of
each operator share one small denominator D (1, x^2, 1 + 4x^2 or 4x^4), and
each builder states it: it returns D and the numerators N_j, so that
L p = (sum_j N_j symbol_j(p)) / D.  No denominator is found by a gcd: a
tolerant gcd of Chihara's dxR coefficient is already ambiguous at 15
digits.  :func:`_image` forms the parts N_j symbol_j(p) and their sum
exactly, rounds the sum once and divides it by D; ``judge_remainder``
judges the remainder against the largest part, not against the cancelled
sum, whose rounding would otherwise read as a pole, and raises if it is not
zero.  So "the singular parts cancel" is checked rather than assumed.
:func:`eigen_check` shares each P_n's symbol images between its free values.

One loop, four views.  :func:`_eigen_degrees` runs the image kernel over the
degrees of a built eigen system.  A dead end, an image that is not
polynomial, raises the error of :func:`_image` (NonDivisibleError for a
surviving pole, ReductionAmbiguityError for an ambiguous remainder) with
P_n and the free value added to its message; ``cli._row`` makes the first
a failed row and the second an inconclusive one.  :func:`eigen_check`,
:func:`verify_eigen`, :func:`check_diagonality` and :func:`_resolve_variant`
each pick the free value, the reading and the degrees, and read residuals or
the basis matrix off it; only the reading search catches a dead end, as a
failed candidate.

Two readings are possible wherever the source composes a shift or a
derivative with the reflection (and, for the first-order reflection
operators, for the sign of the [I - R] bracket); for the continuous
Bannai-Ito block the printed A coefficient has a second reading with beta
and delta doubled.  Each symbol has one meaning: the builder reads
``acoeff``, and every other reading is a rewrite of the built term list
(:data:`_REWRITES`).  The reading axes of each family are catalog data,
one field of its :data:`_BUILDERS` entry, and :func:`_resolve_variant`
searches them on low degrees.  The builders write the passing reading, the
first value of each axis in :data:`READING_AXES`, so only the search
applies a rewrite; the tests hold that reading to the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from . import families
from .families import NoEigenSystemError
from .precision import GATES, PrecisionContext, verdict
from .polynomials import (NonDivisibleError, Poly, RationalFunction, ReductionAmbiguityError,
                          _coordinates, _sum_of_products, divmod_poly, judge_remainder)

# composition readings
SHIFT_AFTER_REFLECT = "shift-after-reflect"    # (S+R f)(x) = f(-x-i)
REFLECT_AFTER_SHIFT = "reflect-after-shift"    # (S+R f)(x) = f(-x+i)
OUTER_DIFF = "outer-diff"                      # (dxR f)(x) = d/dx f(-x) = -f'(-x)
OUTER_REFLECT = "outer-reflect"                # (dxR f)(x) = f'(-x)


# symbol -> (p, i) -> the symbol applied to p, i the step of S+/S-
_SYMBOLS = {
    "I": lambda p, i: p,
    "R": lambda p, i: p.reflect(),
    "S+": lambda p, i: p.shift(i),
    "S-": lambda p, i: p.shift(-i),
    "S+R": lambda p, i: p.reflect().shift(i),
    "S-R": lambda p, i: p.reflect().shift(-i),
    "dx": lambda p, i: p.differentiate(),
    "dxR": lambda p, i: p.reflect().differentiate(),
    "dx2": lambda p, i: p.differentiate().differentiate(),
}


@dataclass(frozen=True)
class DunklOperator:
    den: Poly          # the one denominator D of the printed coefficients
    terms: list        # [(N_j, symbol_j), ...]: coefficient j is N_j / D


@dataclass
class EigenSystem:
    operator: DunklOperator
    eigenvalue: Callable             # n -> lambda_n (free parameter already bound)
    free_name: str | None = None     # "sigma" / "epsilon" when the eigenvalue carries one
    free_value: object = None


def _image(op: DunklOperator, p: Poly, ctx: PrecisionContext, symbols=None):
    """L p, the quotient of num / D, its remainder judged against the largest part so that
    a pole raises (module docstring); ``symbols`` caches the symbol images of p."""
    i = ctx.mp.mpc(0, 1)
    symbols = {} if symbols is None else symbols
    for _, symbol in op.terms:
        if symbol not in symbols:
            symbols[symbol] = _SYMBOLS[symbol](p, i)
    num, scale = _sum_of_products([(n, symbols[symbol]) for n, symbol in op.terms], ctx)
    quot, rem = divmod_poly(num, op.den, ctx)
    judge_remainder(rem, scale, ctx)
    return quot


def apply(op: DunklOperator, p: Poly, ctx: PrecisionContext) -> RationalFunction:
    """L p as a RationalFunction over 1; an image that is not polynomial raises (:func:`_image`)."""
    return RationalFunction(_image(op, p, ctx))


# ----------------------------------------------------------------------
# operator builders (ctx, free, variant, **params), the parameters by their schema
# names: each returns (D, [(N_j, symbol_j), ...], n -> lambda_n), its printed
# coefficients as numerators N_j over the one denominator D they share


def _c(ctx, v):
    return Poly.constant(ctx.mp.mpc(v))


def _second_order_terms(S, T, U, V):
    """S dx^2 + T dxR + U dx + V [I - R]; T may be None."""
    terms = [(S, "dx2"), (U, "dx"), (V, "I"), (-V, "R")]
    if T is not None:
        terms.insert(1, (T, "dxR"))
    return terms


def _build_hermite(ctx, free, variant):
    # D = 1
    mp = ctx.mp
    eps = free
    S = _c(ctx, mp.mpf(-1) / 4)
    U = Poly((mp.mpc(0), mp.mpc(1, 0) / 2))
    V = _c(ctx, eps / 2 - mp.mpf(1) / 4)
    lam = lambda n: mp.mpf(n // 2) + (eps if n % 2 else 0)
    return Poly.constant(1), _second_order_terms(S, None, U, V), lam


def _build_generalized_hermite(ctx, free, variant, alpha):
    # D = x^2:  S = -1/4,  U = x/2 - alpha/2x,  V = alpha/4x^2 + eps/2 - 1/4
    mp = ctx.mp
    eps = free
    S = Poly((0, 0, mp.mpf(-1) / 4))
    U = Poly((0, -alpha / 2, 0, mp.mpf(1) / 2))
    V = Poly((alpha / 4, 0, eps / 2 - mp.mpf(1) / 4))
    lam = lambda n: mp.mpf(n // 2) + (eps if n % 2 else 0)
    return Poly((0, 0, 1)), _second_order_terms(S, None, U, V), lam


def _build_gegenbauer(ctx, free, variant, alpha):
    # D = 1
    mp = ctx.mp
    eps = free
    half = mp.mpf(1) / 2
    S = Poly((mp.mpf(-1) / 4, 0, mp.mpf(1) / 4))
    U = Poly((mp.mpc(0), (alpha + half) / 2))
    V = _c(ctx, -(alpha + half) / 4 + eps / 2)
    lam = lambda n: (lambda m: m * m + alpha * m if n % 2 == 0
                     else m * m + (alpha + 1) * m + eps)(n // 2)
    return Poly.constant(1), _second_order_terms(S, None, U, V), lam


def _build_generalized_gegenbauer(ctx, free, variant, alpha, beta):
    # D = x^2:  S = (x^2 - 1)/4,  U = (alpha + beta + 3/2) x/2 - (alpha + 1/2)/2x,
    # V = (alpha + 1/2)/4x^2 - (alpha + beta + 3/2)/4 + eps/2
    mp = ctx.mp
    eps = free
    half = mp.mpf(1) / 2
    S = Poly((0, 0, mp.mpf(-1) / 4, 0, mp.mpf(1) / 4))
    U = Poly((0, -(alpha + half) / 2, 0, (alpha + beta + 3 * half) / 2))
    V = Poly(((alpha + half) / 4, 0, -(alpha + beta + 3 * half) / 4 + eps / 2))
    lam = lambda n: (lambda m: m * m + (alpha + beta + 1) * m if n % 2 == 0
                     else m * m + (alpha + beta + 2) * m + eps)(n // 2)
    return Poly((0, 0, 1)), _second_order_terms(S, None, U, V), lam


def _build_chihara(ctx, free, variant, alpha, beta, gamma):
    # D = 4x^4
    mp = ctx.mp
    eps = free
    half = mp.mpf(1) / 2
    x = Poly.x(ctx)
    x2 = x * x
    r = x2 - _c(ctx, gamma * gamma)           # x^2 - gamma^2
    r1 = r - 1                                # x^2 - gamma^2 - 1
    # r (alpha+beta+3/2) - (alpha+1/2): the 1/x (U) and 1/x^2 (V) terms share it
    s = r.scale(alpha + beta + 3 * half) - _c(ctx, alpha + half)
    # S = r r1 / 4x^2,  T = gamma (x - gamma) r1 / 4x^3,
    # U = gamma r1 (2 gamma - x) / 4x^3 + s / 2x,
    # V = gamma r1 (x - 3 gamma/2) / 4x^4 - s / 4x^2 + (eps/2)(x - gamma) / x
    S = r * r1 * x2
    T = ((x - _c(ctx, gamma)) * r1 * x).scale(gamma)
    U = (r1 * (_c(ctx, 2 * gamma) - x) * x).scale(gamma) + 2 * s * x2 * x
    V = ((r1 * (x - _c(ctx, 3 * gamma / 2))).scale(gamma) - s * x2
         + ((x - _c(ctx, gamma)) * x2 * x).scale(2 * eps))
    lam = lambda n: (lambda m: m * m + (alpha + beta + 1) * m if n % 2 == 0
                     else m * m + (alpha + beta + 2) * m + eps)(n // 2)
    return 4 * x2 * x2, _second_order_terms(S, T, U, V), lam


def _build_minus1_mp(ctx, free, variant, alpha, gamma):
    # D = 4x^4:  S = (gamma^2 - x^2) / 4x^2,  T = gamma (x - gamma) / 4x^3,
    # U = x/2 + gamma/4x^2 - gamma^2/2x^3 - (alpha + gamma^2)/2x,
    # V = 3 gamma^2/8x^4 - gamma/4x^3 + (alpha + gamma^2)/4x^2 + (eps/2)(x - gamma)/x - 1/4
    mp = ctx.mp
    eps = free
    x = Poly.x(ctx)
    x2 = x * x
    g2 = gamma * gamma
    S = (_c(ctx, g2) - x2) * x2
    T = ((x - _c(ctx, gamma)) * x).scale(gamma)
    U = Poly((0, -2 * g2, gamma, -2 * (alpha + g2), 0, 2))
    V = Poly((3 * g2 / 2, -gamma, alpha + g2, -2 * eps * gamma, 2 * eps - 1))
    lam = lambda n: mp.mpf(n // 2) + (eps if n % 2 else 0)
    # the dxR term enters with a printed minus sign
    return 4 * x2 * x2, _second_order_terms(S, -T, U, V), lam


def _reflection_first_order(F, G):
    """F [I - R] + G dxR."""
    return [(-F, "R"), (F, "I"), (G, "dxR")]


def _build_big_m1j(ctx, free, variant, alpha, beta, c):
    # D = x^2:  F = (c + (c alpha - beta) x + (alpha + beta + 1) x^2) / x^2,
    # G = 2 (1 - x)(c + x) / x
    mp = ctx.mp
    x = Poly.x(ctx)
    F = Poly((c, c * alpha - beta, alpha + beta + 1))
    G = 2 * (1 - x) * (_c(ctx, c) + x) * x
    lam = lambda n: mp.mpf(-2 * n) if n % 2 == 0 else 2 * (n + alpha + beta + 1)
    return x * x, _reflection_first_order(F, G), lam


def _build_little_m1j(ctx, free, variant, alpha, beta):
    # D = x^2:  F = ((alpha + beta + 1) x^2 - alpha x) / x^2,  G = 2 - 2x
    mp = ctx.mp
    F = Poly((mp.mpc(0), -alpha, alpha + beta + 1))
    G = Poly((0, 0, mp.mpf(2), mp.mpf(-2)))
    lam = lambda n: mp.mpf(-2 * n) if n % 2 == 0 else 2 * (n + alpha + beta + 1)
    return Poly((0, 0, 1)), _reflection_first_order(F, G), lam


def _build_special_lj(ctx, free, variant, alpha):
    # D = 1
    mp = ctx.mp
    F = _c(ctx, alpha + 1)
    G = Poly((mp.mpf(2), mp.mpf(-2)))
    lam = lambda n: mp.mpf(-2 * n) if n % 2 == 0 else 2 * (n + alpha + 1)
    return Poly.constant(1), _reflection_first_order(F, G), lam


def _cbi_hahn_terms(al, ga, f1, f2, ctx):
    """A (S+R - I) + conj(A) (S-R - I) + (2 alpha + 2 gamma + 3/2) I.

    f1, f2 are the degree-1 factors of A's numerator.  A's denominator is
    1 - 2ix and conj(A)'s is 1 + 2ix, so D = (1 - 2ix)(1 + 2ix) = 1 + 4x^2.
    """
    mp = ctx.mp
    ix2 = Poly((mp.mpc(0), 2 * mp.mpc(0, 1)))          # 2ix
    A = f1 * f2 * (1 + ix2)
    Abar = f1.conj() * f2.conj() * (1 - ix2)
    den = (1 - ix2) * (1 + ix2)
    return den, [(A, "S+R"), (Abar, "S-R"),
                 (den.scale(2 * al + 2 * ga + mp.mpf(3) / 2) - A - Abar, "I")]


def _build_cbi_like(al, be, ga, de, variant, ctx):
    """Continuous Bannai-Ito block.

    The source prints A = (2a+1+i(b-x))(2g+1+i(d-x))/(1-2ix); as printed
    that operator diagonalizes the family at half the (beta, delta) values,
    so the resolvable ``acoeff`` variant offers the printed reading and the
    one with beta, delta doubled inside A.  The doubled reading is the one
    that satisfies the eigen equation against the printed recurrence.
    """
    mp = ctx.mp
    i = mp.mpc(0, 1)
    t = 2 if variant.get("acoeff", "doubled") == "doubled" else 1
    f1 = Poly((2 * al + 1 + i * (t * be), -i))
    f2 = Poly((2 * ga + 1 + i * (t * de), -i))
    lam = lambda n: (-1) ** n * (n + 2 * al + 2 * ga + mp.mpf(3) / 2)
    return (*_cbi_hahn_terms(al, ga, f1, f2, ctx), lam)


def _build_cbi(ctx, free, variant, alpha, beta, gamma, delta):
    return _build_cbi_like(alpha, beta, gamma, delta, variant, ctx)


def _build_c1h1(ctx, free, variant, alpha, beta, gamma):
    return _build_cbi_like(alpha, beta, gamma, beta, variant, ctx)


def _build_c1h2(ctx, free, variant, alpha, beta, gamma):
    return _build_cbi_like(alpha, beta, gamma, -beta, variant, ctx)


def _sbi_like_terms(A, B, a_den, b_den, c_base, sigma, ctx):
    """B S+ + A S- + C R - (A+B+C) I  with C = c_base - A - B, then + sigma/2 (I - R).

    A and B are given by their numerators over ``a_den`` and ``b_den``, and
    D = a_den b_den; c_base and the I coefficient sigma/2 - c_base are
    polynomials.
    """
    den = a_den * b_den
    A, B = A * b_den, B * a_den
    C = c_base * den - A - B
    half_sigma = den.scale(ctx.mp.mpc(sigma) / 2)
    return den, [
        (B, "S+"),
        (A, "S-"),
        (C - half_sigma, "R"),
        (half_sigma - c_base * den, "I"),
    ]


def _build_gsbi(ctx, free, variant, a, b, c):
    # D = 2 (2ix + 1) 2 (2ix - 1) = -4 (1 + 4x^2)
    mp = ctx.mp
    sigma = free
    i = mp.mpc(0, 1)
    ix = Poly((mp.mpc(0), i))
    x = Poly.x(ctx)
    num_a = (ix + a) * (ix + b) * (ix + c)
    num_b = (ix - a) * (ix - b) * (ix - c)
    c_base = ((x * x).scale(mp.mpf(-1)) + (a * b + a * c + b * c)).scale(mp.mpf(1) / 2)
    terms = _sbi_like_terms(num_a, num_b, 2 * (Poly((mp.mpc(0), 2 * i)) + 1),
                            2 * (Poly((mp.mpc(0), 2 * i)) - 1), c_base, sigma, ctx)
    s = a + b + c
    lam = lambda n: (lambda m: m * m + (s - 1) * m if n % 2 == 0 else m * m + s * m + sigma)(n // 2)
    return (*terms, lam)


def _build_sbi(ctx, free, variant, a, b):
    # D = 2 (1 + 2ix) 2 (1 - 2ix) = 4 (1 + 4x^2)
    mp = ctx.mp
    sigma = free
    i = mp.mpc(0, 1)
    ix = Poly((mp.mpc(0), i))
    num_a = (ix + a) * (ix + b)
    num_b = (ix - a) * (ix - b)
    terms = _sbi_like_terms(num_a, num_b, 2 * (1 + Poly((mp.mpc(0), 2 * i))),
                            2 * (1 - Poly((mp.mpc(0), 2 * i))), Poly.constant((a + b) / 2),
                            sigma, ctx)
    lam = lambda n: (lambda m: mp.mpf(m) if n % 2 == 0 else m + sigma)(n // 2)
    return (*terms, lam)


@dataclass(frozen=True)
class _EigenEntry:
    build: Callable          # (ctx, free, variant, **params) -> (D, terms, n -> lambda_n)
    free_name: str | None    # the eigenvalue's free parameter (None: the printed one has none)
    axes: tuple              # the reading axes of READING_AXES that _resolve_variant searches


_DXR = ("dxr",)
_FIRST_ORDER = ("dxr", "bracket")
_SHIFT_REFLECT = ("composition", "acoeff")

# family id -> its eigen system as printed; the tests hold the builders' reading to the search
_BUILDERS = {
    "hermite": _EigenEntry(_build_hermite, "epsilon", ()),
    "generalized-hermite": _EigenEntry(_build_generalized_hermite, "epsilon", ()),
    "gegenbauer": _EigenEntry(_build_gegenbauer, "epsilon", ()),
    "generalized-gegenbauer": _EigenEntry(_build_generalized_gegenbauer, "epsilon", ()),
    "chihara": _EigenEntry(_build_chihara, "epsilon", _DXR),
    "minus1-meixner-pollaczek": _EigenEntry(_build_minus1_mp, "epsilon", _DXR),
    "big-minus1-jacobi": _EigenEntry(_build_big_m1j, None, _FIRST_ORDER),
    "little-minus1-jacobi": _EigenEntry(_build_little_m1j, None, _FIRST_ORDER),
    "special-little-minus1-jacobi": _EigenEntry(_build_special_lj, None, _FIRST_ORDER),
    "continuous-bannai-ito": _EigenEntry(_build_cbi, None, _SHIFT_REFLECT),
    "continuous-minus1-hahn-1": _EigenEntry(_build_c1h1, None, _SHIFT_REFLECT),
    "continuous-minus1-hahn-2": _EigenEntry(_build_c1h2, None, _SHIFT_REFLECT),
    "generalized-symmetric-bannai-ito": _EigenEntry(_build_gsbi, "sigma", ()),
    "symmetric-bannai-ito": _EigenEntry(_build_sbi, "sigma", ()),
}

# the readings of each axis; the builders write the first
READING_AXES = {
    "composition": (SHIFT_AFTER_REFLECT, REFLECT_AFTER_SHIFT),
    "dxr": (OUTER_DIFF, OUTER_REFLECT),
    "bracket": ("IR", "RI"),
    "acoeff": ("doubled", "printed"),
}

# the other reading of S+R swaps S+R and S-R, of dxR negates its coefficient,
# and of the bracket negates R and I (the first-order operators have no
# other R or I terms); each rewrites one built (numerator, symbol) term
_REWRITES = {
    ("composition", REFLECT_AFTER_SHIFT): lambda c, s: (c, {"S+R": "S-R", "S-R": "S+R"}.get(s, s)),
    ("dxr", OUTER_REFLECT): lambda c, s: (-c if s == "dxR" else c, s),
    ("bracket", "RI"): lambda c, s: (-c if s in ("R", "I") else c, s),
}

# families whose printed operator composes S+/S- with R
SHIFT_REFLECT_FAMILIES = tuple(fid for fid, entry in _BUILDERS.items()
                               if "composition" in entry.axes)

# degree of the basis P_0..P_N whose operator matrix the CLI checks for diagonality
DIAGONALITY_N = 8


def _system_for_variant(entry, params, free, variant, ctx):
    """The eigen system in reading ``variant`` at parsed ``params`` (``families.make_params``)."""
    den, terms, lam = entry.build(ctx, free, variant, **params)
    for reading in variant.items():
        if reading in _REWRITES:
            terms = [_REWRITES[reading](*term) for term in terms]
    return EigenSystem(operator=DunklOperator(den, terms), eigenvalue=lam,
                       free_name=entry.free_name, free_value=free if entry.free_name else None)


def _free_label(es):
    """' at <free name> = <value>' where the eigenvalue has a free parameter, else ''."""
    return " at %s = %g" % (es.free_name, es.free_value) if es.free_name else ""


def _eigen_degrees(es, polys, degrees, ctx, symbols=None):
    """(n, image, relative residual, status) of L P_n = lambda_n P_n per n in ``degrees``.

    ``symbols``, if given, holds a symbol-image dict per P_n.  A dead end (module
    docstring) raises its error, naming P_n and the free value.
    """
    mp = ctx.mp
    for n in degrees:
        p = polys[n]
        try:
            image = _image(es.operator, p, ctx, symbols and symbols[n])
        except (NonDivisibleError, ReductionAmbiguityError) as exc:
            raise type(exc)("image of P_%d%s is not polynomial: %s" % (n, _free_label(es), exc)) from exc
        ev = es.eigenvalue(n)
        residual = (image - p.scale(ev)).coeff_norm() / (p.coeff_norm() * max(mp.mpf(1), abs(ev)))
        yield n, image, residual, verdict("eigen", residual, ctx)["status"]


def _resolve_variant(fid, ctx, params=None):
    """Search the readings of the printed operator on L P_n = lambda_n P_n,
    n = 1..3, at free = 1/2 and at ``params`` (the first fixture point when
    omitted); every combination of the family's reading axes is a candidate.
    ``variant`` is the first passing candidate, None when none passes; a
    candidate's residuals are None from a dead end on.
    """
    if params is None:
        params = families.fixture_points(fid)[0]
    params = families.make_params(fid, ctx, **params)
    polys = families.generate(fid, params, 3, ctx)
    entry = _BUILDERS[fid]
    outcomes = []
    for values in product(*(READING_AXES[axis] for axis in entry.axes)):
        variant = dict(zip(entry.axes, values))
        es = _system_for_variant(entry, params, ctx.mp.mpf(1) / 2, variant, ctx)
        residuals = [None] * 3
        try:
            for n, _, res, status in _eigen_degrees(es, polys, range(1, 4), ctx):
                residuals[n - 1] = float(res) if status == "pass" else None
        except (NonDivisibleError, ReductionAmbiguityError):
            pass
        outcomes.append({"variant": variant, "passes": None not in residuals,
                         "residuals": residuals})
    passing = [o["variant"] for o in outcomes if o["passes"]]
    return {"variant": passing[0] if passing else None, "outcomes": outcomes}


def resolve_composition_convention(family, params, ctx: PrecisionContext):
    """Test both readings of S+R (and of the A coefficient) on n = 1..3.

    Returns a report listing each candidate and whether it satisfies the
    eigen equation, and the open question's row: it fails when no candidate
    does, else its notes name the ``chosen`` one, the catalog's reading.
    """
    fid = families.resolve_family(family)
    if fid not in SHIFT_REFLECT_FAMILIES:
        raise ValueError("composition resolution applies to the S+R families, not %s" % fid)
    res = _resolve_variant(fid, ctx, params)
    chosen = res["variant"]
    return {"family": fid, "outcomes": res["outcomes"], "chosen": chosen,
            "status": "fail" if chosen is None else "pass", "residual": None, "tolerance": None,
            "notes": "no reading of the printed operator satisfies its eigen equation"
                     if chosen is None else "resolved reading: %s" % (chosen,)}


def build_eigen_system(family, params, ctx: PrecisionContext, free=None) -> EigenSystem:
    """The family's Dunkl eigenoperator, in its resolved reading, and eigenvalue map.

    ``free`` binds the free parameter (sigma or epsilon) of the second-order
    families; default 1/2.  A family with no builder (the quasi-orthogonal
    CCBI and the q-aux families) raises :class:`NoEigenSystemError`.
    """
    mp = ctx.mp
    fid = families.resolve_family(family)
    entry = _BUILDERS.get(fid)
    if entry is None:
        raise NoEigenSystemError("no eigenvalue equation on record for %s" % fid)
    if free is None:
        free = mp.mpf(1) / 2
    else:
        free = mp.mpf(free) if isinstance(free, (str, int, float)) else free
    return _system_for_variant(entry, families.make_params(fid, ctx, **params), free, {}, ctx)


def verify_eigen(family, params, n, ctx: PrecisionContext, free=None):
    """Check L P_n = lambda_n P_n as an exact identity; returns a report dict.

    A dead end raises its error (module docstring).
    """
    fid = families.resolve_family(family)
    es = build_eigen_system(fid, params, ctx, free=free)
    polys = families.generate(fid, params, n, ctx)
    [(_, _, res, status)] = _eigen_degrees(es, polys, [n], ctx)
    return {
        "family": fid,
        "n": n,
        "free": float(es.free_value) if es.free_value is not None else None,
        "status": status,
        "residual": float(res),
        "tolerance": float(GATES["eigen"](ctx)),
    }


def _basis_matrix(images, basis):
    """Coordinates of the images in the basis, by back-substitution from the top degree."""
    return [list(row) for row in zip(*(_coordinates(image, basis) for image in images))]


def _diagonality(matrix, basis, eigenvalue, ctx):
    """Max off-diagonal entry and max diagonal deviation from lambda_n, both relative.

    Entry (k, n) is scaled by ||P_k|| / (||P_n|| max(1, |lambda_n|)), ||.|| the coefficient
    norm, as ``_eigen_degrees`` scales the residual of P_n, and gated at the eigen gate.
    """
    mp = ctx.mp
    norms = [p.coeff_norm() for p in basis]
    off = diag = mp.mpf(0)
    for n, column_norm in enumerate(norms):
        ev = eigenvalue(n)
        scale = column_norm * max(mp.mpf(1), abs(ev))
        for k, row_norm in enumerate(norms):
            if k == n:
                diag = max(diag, abs(matrix[k][n] - ev) * row_norm / scale)
            else:
                off = max(off, abs(matrix[k][n]) * row_norm / scale)
    return {"N": len(matrix) - 1, "max_offdiag": float(off), "max_diag_error": float(diag),
            "tolerance": float(GATES["eigen"](ctx))}


def check_diagonality(family, params, N, ctx: PrecisionContext):
    """Max off-diagonal entry and max diagonal deviation from lambda_n, both relative.

    A dead end raises its error (module docstring).
    """
    fid = families.resolve_family(family)
    es = build_eigen_system(fid, params, ctx)
    basis = families.generate(fid, params, N, ctx)
    images = [image for _, image, _, _ in _eigen_degrees(es, basis, range(N + 1), ctx)]
    return {"family": fid,
            **_diagonality(_basis_matrix(images, basis), basis, es.eigenvalue, ctx)}


def eigen_check(family, params, N, ctx: PrecisionContext):
    """The eigen block of a family report, from one image per (free value, degree).

    Checks L P_n = lambda_n P_n for n <= N, at the free values 1/2 and 2
    when the eigenvalue has a free parameter, and that the matrix of L
    (free = 1/2) in the basis P_0..P_8 is diagonal with the printed
    eigenvalues.  The row's ``residual`` is the worst per-degree residual
    and its ``tolerance`` the eigen gate, which also gates each basis entry
    on its residual's scale (:func:`_diagonality`).  The notes of a failed
    row name each sub-test that failed, with its value and gate.  A
    dead end raises its error (module docstring); a family with no eigen
    system raises :class:`NoEigenSystemError` before any polynomial is built.
    """
    fid = families.resolve_family(family)
    top = max(N, DIAGONALITY_N)
    es = build_eigen_system(fid, params, ctx, free="0.5")
    systems = [(es, top)]
    if es.free_name:
        systems.append((build_eigen_system(fid, params, ctx, free="2"), N))
    polys = families.generate(fid, params, top, ctx)
    symbols = [{} for _ in polys]         # the symbol images do not depend on the free value
    runs = [(system, list(_eigen_degrees(system, polys, range(last + 1), ctx, symbols)))
            for system, last in systems]
    images = [image for _, image, _, _ in runs[0][1][:DIAGONALITY_N + 1]]     # free = 1/2
    basis = polys[:DIAGONALITY_N + 1]
    diag = _diagonality(_basis_matrix(images, basis), basis, es.eigenvalue, ctx)
    res, n, system = max(((res, n, system) for system, degrees in runs
                          for n, _, res, _ in degrees[:N + 1]), key=lambda worst: worst[0])
    row = verdict("eigen", res, ctx)
    failed = []
    if row["status"] == "fail":
        failed.append("worst residual %.3g of P_%d%s exceeds the eigen gate %.3g"
                      % (row["residual"], n, _free_label(system), row["tolerance"]))
    deviation = max(diag["max_offdiag"], diag["max_diag_error"])
    if deviation > diag["tolerance"]:
        failed.append("basis matrix P_0..P_%d not diagonal: largest relative deviation %.3g "
                      "exceeds the eigen gate %.3g" % (diag["N"], deviation, diag["tolerance"]))
    return {"family": fid, **row, "status": "fail" if failed else "pass", "diagonality": diag,
            "notes": "; ".join(failed) or "n <= %d%s; basis matrix diagonal"
                     % (N, " at two free-parameter values" if es.free_name else "")}
