import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from minusone import polynomials as P
from minusone.precision import PrecisionContext
from minusone.polynomials import (
    NonDivisibleError,
    Poly,
    RationalFunction,
    ReductionAmbiguityError,
    divide_exact,
    divmod_poly,
    hyp_basis,
    hyp_terminating_poly,
)

CTX = PrecisionContext(50)
X = Poly.x(CTX)


def poly_eq(p: Poly, q: Poly, ctx: PrecisionContext, rel: int = 8):
    """Coefficient-wise comparison, tolerance relative to the larger coefficient norm."""
    scale = max(p.coeff_norm(), q.coeff_norm())
    if scale == 0:
        return True
    return (p - q).coeff_norm() <= scale * ctx.tol(rel)


def rand_poly(rng, deg, scale=2.0):
    return Poly([CTX.mp.mpc(repr(rng.uniform(-scale, scale)), repr(rng.uniform(-scale, scale)))
                 for _ in range(deg + 1)])


def test_mul_add_scale_basics():
    assert poly_eq(X * X, Poly([0, 0, 1]), CTX)
    assert poly_eq((X - 1) + (X + 1), Poly([0, 2]), CTX)
    assert poly_eq(Poly([1, 0, 1]).scale(2), Poly([2, 0, 2]), CTX)


def test_evaluate():
    p = Poly([CTX.mp.mpf("-0.5"), 0, 1])  # x^2 - 1/2
    assert abs(p.evaluate(0) + CTX.mp.mpf("0.5")) == 0
    assert abs(p.evaluate(1) - CTX.mp.mpf("0.5")) == 0
    assert abs(X.evaluate(CTX.mp.mpc(0, 1)) - CTX.mp.mpc(0, 1)) == 0


def test_reflect():
    p = Poly([0, 1, 1])  # x^2 + x
    assert poly_eq(p.reflect(), Poly([0, -1, 1]), CTX)
    even = Poly([3, 0, 2, 0, 5])
    assert poly_eq(even.reflect(), even, CTX)
    rng = random.Random(2)
    q = rand_poly(rng, 7)
    assert poly_eq(q.reflect().reflect(), q, CTX)


def test_reflect_multiplicative():
    rng = random.Random(5)
    p, q = rand_poly(rng, 6), rand_poly(rng, 5)
    assert poly_eq((p * q).reflect(), p.reflect() * q.reflect(), CTX)


def test_differentiate():
    assert poly_eq(Poly([0, 0, 0, 1]).differentiate(), Poly([0, 0, 3]), CTX)
    assert poly_eq(Poly([4]).differentiate(), Poly([0]), CTX)
    assert poly_eq(Poly([CTX.mp.mpf("-0.5"), 0, 1]).differentiate(), Poly([0, 2]), CTX)


def test_product_rule():
    rng = random.Random(13)
    p, q = rand_poly(rng, 5), rand_poly(rng, 6)
    lhs = (p * q).differentiate()
    rhs = p.differentiate() * q + p * q.differentiate()
    assert poly_eq(lhs, rhs, CTX)


def test_shift_basics():
    i = CTX.mp.mpc(0, 1)
    assert poly_eq(X.shift(i), Poly([i, 1]), CTX)
    assert poly_eq((X * X).shift(-i), Poly([-1, -2 * i, 1]), CTX)
    rng = random.Random(23)
    p = rand_poly(rng, 9)
    assert poly_eq(p.shift(i).shift(-i), p, CTX)
    # the imaginary shifts S+- are the only shifts: any other delta raises
    for delta in (1, CTX.mp.mpf(1), 2 * i, CTX.mp.mpc(1, 1)):
        with pytest.raises(ValueError):
            (X * X).shift(delta)


def test_shift_evaluate_consistency():
    rng = random.Random(31)
    for _ in range(50):
        p = rand_poly(rng, rng.randint(0, 10))
        d = CTX.mp.mpc(0, 1 if rng.uniform(-2, 2) < rng.uniform(-2, 2) else -1)
        x = CTX.mp.mpc(repr(rng.uniform(-2, 2)), repr(rng.uniform(-2, 2)))
        lhs = p.shift(d).evaluate(x)
        rhs = p.evaluate(x + d)
        assert abs(lhs - rhs) <= CTX.tol(6) * max(1, abs(rhs))


def test_rational_reduce_cancels():
    r = RationalFunction(X * X - 1, X - 1).reduce(CTX)
    assert poly_eq(r.num, X + 1, CTX)
    assert r.den.degree == 0

    gamma_pt = CTX.mp.mpf("0.25")
    r2 = RationalFunction((X - gamma_pt) * (X + gamma_pt), X + gamma_pt).reduce(CTX)
    assert poly_eq(r2.num, X - gamma_pt, CTX)


def test_is_polynomial():
    assert poly_eq(divide_exact(X * X - 1, X - 1, CTX), X + 1, CTX)
    with pytest.raises(NonDivisibleError):
        divide_exact(X, X * X, CTX)
    r = RationalFunction(X, X * X).reduce(CTX)
    assert r.num.degree == 0 and r.den.degree == 1


def test_reduce_idempotent():
    rng = random.Random(41)
    p, q = rand_poly(rng, 4), rand_poly(rng, 3)
    r = RationalFunction(p * q, q).reduce(CTX)
    r2 = r.reduce(CTX)
    assert poly_eq(r.num, r2.num, CTX) and poly_eq(r.den, r2.den, CTX)


def test_product_division_recovery():
    rng = random.Random(43)
    for _ in range(20):
        p = rand_poly(rng, rng.randint(0, 6))
        q = rand_poly(rng, rng.randint(1, 5))
        back = divide_exact(p * q, q, CTX)
        assert poly_eq(back, p, CTX, rel=6)


def test_divide_exact_raises_on_remainder():
    with pytest.raises(NonDivisibleError):
        divide_exact(X * X + 1, X - 1, CTX)


def test_division_by_the_zero_polynomial_raises():
    with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
        divmod_poly(X, Poly([CTX.mp.mpf(0)]), CTX)


def test_ambiguity_band():
    # a remainder placed deliberately inside (1e-44, 1e-40) at 50 digits
    eps = CTX.mp.mpf("1e-42")
    with pytest.raises(ReductionAmbiguityError):
        divide_exact((X - 1) * (X + 1) + eps, X - 1, CTX)


def test_monic_and_trim():
    p = Poly([2, 4]).monic(CTX)
    assert poly_eq(p, Poly([CTX.mp.mpf("0.5"), 1]), CTX)
    tiny = CTX.mp.mpf("1e-60")
    q = Poly([1, 1, tiny]).trim(CTX)
    assert q.degree == 1


def test_a_noise_lead_has_no_monic_form():
    # a top coefficient below the rounding of the norm, though not 0
    noise = Poly([1, CTX.mp.mpf("1e-150")])
    assert noise[1] != 0
    with pytest.raises(ZeroDivisionError, match="rounding noise"):
        noise.monic(CTX)


@pytest.mark.parametrize("coeff, error, match", [
    ("1", TypeError, "ints, mpf or mpc values"),
    (1.5, TypeError, "ints, mpf or mpc values"),
    (CTX.mp.inf, ValueError, "not finite"),
    (CTX.mp.nan, ValueError, "not finite"),
    (CTX.mp.mpc(1, CTX.mp.inf), ValueError, "not finite"),
])
def test_coefficients_are_finite_numbers(coeff, error, match):
    with pytest.raises(error, match=match):
        Poly([1, coeff])


def test_hyp_terminating_poly_matches_scalar():
    # polynomial-argument sum evaluated at a point equals the scalar sum
    from minusone.precision import hyp_terminating

    a2 = CTX.mp.mpf("1.3")
    den = [CTX.mp.mpf("0.8"), CTX.mp.mpf("2.2")]
    zp = X * X - CTX.mp.mpf("0.25")
    p = hyp_terminating_poly(4, [-4 + 0 * a2, a2], den, hyp_basis(4, [X], zp, CTX), CTX)
    x0 = CTX.mp.mpf("0.7")
    direct = hyp_terminating([-4, a2, x0], den, zp.evaluate(x0), CTX)
    assert abs(p.evaluate(x0) - direct) <= CTX.tol(6) * max(1, abs(direct))


# ----------------------------------------------------------------------
# property tests against exact Gaussian-rational arithmetic
#
# A reference polynomial is a list of (re, im) Fraction pairs; the inputs are
# the exact binary values the Poly holds, so every difference below is the
# rounding of the block arithmetic, bounded by 2**-prec of a coefficient norm.

CTXS = {d: PrecisionContext(d) for d in (15, 50, 100)}


def frac(x):
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def ref_of(p):
    return [(Fraction(c), Fraction(0)) if isinstance(c, int) else (frac(c.real), frac(c.imag))
            for c in p.coeffs]


def ref_sq(c):
    return c[0] * c[0] + c[1] * c[1]


def ref_norm2(r):
    return max(map(ref_sq, r))


def ref_cadd(x, y, sign=1):
    return (x[0] + sign * y[0], x[1] + sign * y[1])


def ref_add(a, b, sign=1):
    return [ref_cadd(x, y, sign) for x, y in zip_longest(a, b, fillvalue=(0, 0))]


def ref_cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_mul(a, b):
    out = [(Fraction(0), Fraction(0))] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ref_cadd(out[i + j], ref_cmul(x, y))
    return out


def ref_shift(a, delta):
    out = list(a)
    n = len(out)
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            out[k] = ref_cadd(out[k], ref_cmul(delta, out[k + 1]))
    return out


def ref_divmod(a, d):
    rem, dn = list(a), len(d)
    lead = d[-1]
    inv = (lead[0] / ref_sq(lead), -lead[1] / ref_sq(lead))
    quot = [(Fraction(0), Fraction(0))] * max(1, len(a) - dn + 1)
    for k in range(len(a) - dn, -1, -1):
        c = ref_cmul(rem[k + dn - 1], inv)
        quot[k] = c
        for j in range(dn):
            rem[k + j] = ref_cadd(rem[k + j], ref_cmul(c, d[j]), -1)
    return quot, rem[:dn - 1] or [(Fraction(0), Fraction(0))]


def assert_close(p, ref, norm2, ctx):
    """max_k |p_k - ref_k| <= 2**-prec * sqrt(norm2), compared squared and exactly."""
    err2 = ref_norm2(ref_add(ref_of(p), ref, -1))
    assert err2 <= norm2 / Fraction(4) ** ctx.mp.prec, (float(err2), float(norm2))


gaussian = st.tuples(st.fractions(min_value=-8, max_value=8, max_denominator=10 ** 6),
                     st.fractions(min_value=-8, max_value=8, max_denominator=10 ** 6))


def make_poly(ctx, coeffs):
    mp = ctx.mp
    return Poly([mp.mpc(mp.mpf(a.numerator) / a.denominator, mp.mpf(b.numerator) / b.denominator)
                 for a, b in coeffs])


polys = st.lists(gaussian, min_size=1, max_size=9)
DIGITS = pytest.mark.parametrize("digits", [15, 50, 100])
PROPERTY = settings(max_examples=25, deadline=None)


@DIGITS
def test_ring_operations_match_exact_arithmetic(digits):
    ctx = CTXS[digits]

    @PROPERTY
    @given(polys, polys, gaussian)
    def check(a, b, s):
        p, q = make_poly(ctx, a), make_poly(ctx, b)
        rp, rq = ref_of(p), ref_of(q)
        scalar = make_poly(ctx, [s])[0]
        rs = (frac(scalar.real), frac(scalar.imag))
        for out, ref in ((p + q, ref_add(rp, rq)), (p - q, ref_add(rp, rq, -1)),
                         (p * q, ref_mul(rp, rq)), (p.scale(scalar), [ref_cmul(rs, c) for c in rp])):
            assert_close(out, ref, ref_norm2(ref), ctx)

    check()


@DIGITS
def test_structural_operations_match_exact_arithmetic(digits):
    ctx = CTXS[digits]
    i = ctx.mp.mpc(0, 1)

    @PROPERTY
    @given(polys)
    def check(a):
        p = make_poly(ctx, a)
        rp = ref_of(p)
        derived = [(k * c[0], k * c[1]) for k, c in enumerate(rp)][1:] or [(0, 0)]
        for out, ref in ((p.shift(i), ref_shift(rp, (0, 1))), (p.shift(-i), ref_shift(rp, (0, -1))),
                         (p.reflect(), [(-c[0], -c[1]) if k % 2 else c for k, c in enumerate(rp)]),
                         (p.differentiate(), derived)):
            assert_close(out, ref, ref_norm2(ref), ctx)

    check()


@DIGITS
def test_divmod_matches_exact_long_division(digits):
    ctx = CTXS[digits]

    @PROPERTY
    @given(polys, st.lists(gaussian, min_size=1, max_size=5))
    def check(a, b):
        p, d = make_poly(ctx, a), make_poly(ctx, b)
        rd = ref_of(d)
        if ref_sq(rd[-1]) == 0:
            return
        q, r = divmod_poly(p, d, ctx)
        rq, rr = ref_divmod(ref_of(p), rd)
        # q to its own norm; r to the size of the terms that cancelled into it
        assert_close(q, rq, ref_norm2(rq), ctx)
        assert_close(r, rr, max(ref_norm2(ref_of(p)), ref_norm2(rq) * ref_norm2(rd)), ctx)

    check()


def test_integer_polynomials_stay_exact():
    # coefficients far wider than any mantissa width: a rounding would show
    p = Poly([3, 1]) * Poly([3, 1])
    for _ in range(7):
        p = p * p                              # (x + 3)^256
    q = Poly([-5, 0, 2, 7])
    i = CTX.mp.mpc(0, 1)
    rp, rq = ref_of(p), ref_of(q)
    checks = [(p * q, ref_mul(rp, rq)), (p + q, ref_add(rp, rq)), (p - q, ref_add(rp, rq, -1)),
              (p.scale(-3), [(-3 * c[0], -3 * c[1]) for c in rp]),
              (p.reflect(), [(-c[0], -c[1]) if k % 2 else c for k, c in enumerate(rp)]),
              (p.differentiate(), [(k * c[0], k * c[1]) for k, c in enumerate(rp)][1:]),
              (q.shift(i), ref_shift(rq, (0, 1))),
              ((X * X - 1) * p, ref_mul([(-1, 0), (0, 0), (1, 0)], rp))]
    assert max(c for c, _ in rp) > Fraction(2) ** 400
    for out, ref in checks:
        assert ref_of(out) == [(Fraction(a), Fraction(b)) for a, b in ref]


# ----------------------------------------------------------------------
# the kernels against the Poly compositions they replaced, kept here as
# references.  A kernel forms its result exactly and rounds it once; each
# rounding moves a coefficient by at most 2**(1/2 - W) of the norm of what it
# rounds (module docstring, Error bound), so a kernel lies within one rounding
# of the exact result, and within the composition's roundings plus its own of
# the composition.

KERNEL = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def assert_within_roundings(out, ref, rounded, ctx):
    """|out - ref| <= 2**(1/2 - W) max_j norm(rounded_j) per rounding, compared squared and exactly.

    ``ref`` is a Poly or an exact reference list; ``rounded`` the results that were rounded.
    """
    ref = ref_of(ref) if isinstance(ref, Poly) else ref
    err2 = ref_norm2(ref_add(ref_of(out), ref, -1))
    top2 = max(ref_norm2(r if isinstance(r, list) else ref_of(r)) for r in rounded)
    width = ctx.mp.prec + P.GUARD_BITS
    assert err2 * 4 ** width <= 2 * len(rounded) ** 2 * top2, (float(err2), float(top2))


def old_three_term(cur, prev, b, u, ctx):
    """(x - b) P_n - u P_(n-1) as Poly operations; the result and each rounded intermediate."""
    head = (Poly.x(ctx) - b) * cur
    if prev is None:
        return head, [head]
    tail = prev.scale(u)
    out = head - tail
    return out, [head, tail, out]


@DIGITS
def test_three_term_kernel_matches_the_composition(digits):
    ctx = CTXS[digits]

    @KERNEL
    @given(polys, st.lists(gaussian, max_size=8), gaussian, gaussian)
    def check(a, c, s, t):
        cur, prev = make_poly(ctx, a), make_poly(ctx, c) if c else None
        b, u = make_poly(ctx, [s])[0], make_poly(ctx, [t])[0]
        out = P._three_term(cur, prev, b, u)
        rb, ru = ref_of(Poly([b]))[0], ref_of(Poly([u]))[0]
        exact = ref_mul([ref_cadd((0, 0), rb, -1), (1, 0)], ref_of(cur))
        if prev is not None:
            exact = ref_add(exact, [ref_cmul(ru, v) for v in ref_of(prev)], -1)
        assert_within_roundings(out, exact, [exact], ctx)
        old, rounded = old_three_term(cur, prev, b, u, ctx)
        assert_within_roundings(out, old, rounded + [out], ctx)

    check()


def old_hyp_terminating_poly(n, numerators, denominators, basis, ctx):
    """sum c_k B_k with c_k carried as a one-coefficient Poly and every product and sum rounded."""
    width = ctx.mp.prec + P.GUARD_BITS
    scalars = [P._split(a) for a in numerators]
    dens = [P._split(b) for b in denominators]
    total = coef = basis[0]
    rounded = []
    for k in range(n):
        nr, ni, ne = 1, 0, 0
        for a in scalars:
            ar, ai, ae = P._plus_int(a, k)
            nr, ni, ne = nr * ar - ni * ai, nr * ai + ni * ar, ne + ae
        dr, di, de = k + 1, 0, 0
        for b in dens:
            br, bi, be = P._plus_int(b, k)
            dr, di, de = dr * br - di * bi, dr * bi + di * br, de + be
        re, im, s = P._ratio(coef.re, coef.im, (nr, ni), (dr, di), width)
        coef = P._new(re, im, coef.exp + ne - de - s, ctx.mp, width)
        term = basis[k + 1] * coef
        total = total + term
        rounded += [term, total]
    return total, rounded


@DIGITS
def test_pfq_kernel_matches_the_composition(digits):
    ctx = CTXS[digits]
    mp = ctx.mp
    positive = st.fractions(min_value=Fraction(1, 10), max_value=8, max_denominator=10 ** 6)

    @KERNEL
    @given(st.integers(0, 8), gaussian, positive, st.lists(gaussian, min_size=2, max_size=2),
           st.lists(gaussian, min_size=1, max_size=3))
    def check(n, a, b, lin, z):
        nums = [-mp.mpf(n), make_poly(ctx, [a])[0]]
        dens = [mp.mpf(b.numerator) / b.denominator]
        basis = hyp_basis(n, [make_poly(ctx, lin)], make_poly(ctx, z), ctx)
        out = hyp_terminating_poly(n, nums, dens, basis, ctx)
        old, rounded = old_hyp_terminating_poly(n, nums, dens, basis, ctx)
        assert_within_roundings(out, old, rounded + [out], ctx)

    check()


@DIGITS
def test_image_kernel_matches_the_composition(digits):
    ctx = CTXS[digits]

    @KERNEL
    @given(st.lists(st.tuples(polys, polys), min_size=1, max_size=5))
    def check(pairs):
        pairs = [(make_poly(ctx, a), make_poly(ctx, b)) for a, b in pairs]
        out, scale = P._sum_of_products(pairs, ctx)
        exact = [ref_mul(ref_of(a), ref_of(b)) for a, b in pairs]
        total = exact[0]
        for part in exact[1:]:
            total = ref_add(total, part)
        assert_within_roundings(out, total, [total], ctx)
        parts = [a * b for a, b in pairs]
        old = parts[0]
        rounded = list(parts)
        for part in parts[1:]:
            old = old + part
            rounded.append(old)
        assert_within_roundings(out, old, rounded + [out], ctx)
        # the judge scale: the largest part norm, read once instead of per rounded part
        old_scale = max(part.coeff_norm() for part in parts)
        assert abs(scale - old_scale) <= scale * 2 ** (2 - ctx.mp.prec), (scale, old_scale)

    check()
