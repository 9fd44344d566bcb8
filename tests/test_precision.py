import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    bernfrac, fone, from_man_exp, fzero, mpf_add, mpf_atan, mpf_log, mpf_mul, mpf_pi, mpf_shift,
    to_fixed,
)

from minusone import families as F
from minusone.precision import (
    GATES,
    STIRLING_GUARD_BITS,
    PrecisionContext,
    StirlingSeries,
    ZeroDenominatorError,
    gram_context,
    hyp_terminating,
    is_real,
    ladder_context,
    log_abs_gamma_sum,
    pochhammer,
    verdict,
)

CTX = PrecisionContext(50)


def test_digits_floor():
    with pytest.raises(ValueError):
        PrecisionContext(10)
    assert PrecisionContext(15).digits == 15


def test_pochhammer_values():
    assert pochhammer(CTX.mp.mpf(3), 0, CTX) == 1
    assert abs(pochhammer(CTX.mp.mpf(3), 2, CTX) - 12) == 0
    assert abs(pochhammer(CTX.mp.mpf("0.5"), 3, CTX) - CTX.mp.mpf("1.875")) == 0


def test_pochhammer_rejects_a_negative_n():
    with pytest.raises(ValueError, match="n >= 0, got -1"):
        pochhammer(CTX.mp.mpf(3), -1, CTX)


def test_pochhammer_splitting_identity():
    rng = random.Random(3)
    for _ in range(20):
        a = CTX.mp.mpc(repr(rng.uniform(-3, 3)), repr(rng.uniform(-2, 2)))
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        lhs = pochhammer(a, m + n, CTX)
        rhs = pochhammer(a, m, CTX) * pochhammer(a + m, n, CTX)
        assert abs(lhs - rhs) <= CTX.tol(4) * max(1, abs(lhs))


def test_hyp_single_term():
    # n = 0 terminates immediately regardless of the other parameters
    v = hyp_terminating([0, CTX.mp.mpf("2.3"), 1, 1], [CTX.mp.mpf("0.7"), 2, 3], 1, CTX)
    assert abs(v - 1) == 0


def test_hyp_2f1_degree_one():
    b, c, z = CTX.mp.mpf("1.7"), CTX.mp.mpf("0.6"), CTX.mp.mpf("0.35")
    v = hyp_terminating([-1, b], [c], z, CTX)
    assert abs(v - (1 - b * z / c)) < CTX.tol(4)


def test_hyp_1f1_two_term():
    # 1F1(-1; 1/2; x^2) = 1 - 2 x^2 -> -1 at x = 1
    v = hyp_terminating([-1], [CTX.mp.mpf("0.5")], 1, CTX)
    assert abs(v + 1) < CTX.tol(4)


def test_hyp_denominator_pole():
    with pytest.raises(ZeroDenominatorError):
        hyp_terminating([-3, 1], [-1], 1, CTX)


def test_hyp_against_brute_force_double():
    # independent double-precision oracle for n <= 10
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(0, 10)
        extra = [rng.uniform(0.2, 3.0) for _ in range(2)]
        dens = [rng.uniform(0.5, 4.0) for _ in range(2)]
        z = rng.uniform(-1.5, 1.5)

        expected = 0.0
        term = 1.0
        for k in range(n + 1):
            expected += term
            if k == n:
                break
            factor = (-n + k)
            for a in extra:
                factor *= a + k
            for b in dens:
                factor /= b + k
            term *= factor * z / (k + 1)

        got = hyp_terminating(
            [-n] + [CTX.mp.mpf(repr(a)) for a in extra],
            [CTX.mp.mpf(repr(b)) for b in dens],
            CTX.mp.mpf(repr(z)),
            CTX,
        )
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("digits", [15, 50, 100])
def test_tol_is_computed_once_and_exact(digits):
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    for offset in range(-10, 13):
        value = ctx.tol(offset)
        assert value._mpf_ == (mp.mpf(10) ** (offset - digits))._mpf_
        assert ctx.tol(offset) is value


# the precision plan written out: tightening or loosening a gate, or moving a
# working precision, is an edit of this table
_PLAN = {
    "closed-form": lambda mp, d: mp.mpf(10) ** (10 - d),
    "eigen": lambda mp, d: mp.mpf(10) ** (10 - d),
    "exact": lambda mp, d: mp.mpf(10) ** (10 - d),
    "ct-gt": lambda mp, d: mp.mpf(10) ** (10 - d),
    "kernel-map": lambda mp, d: mp.mpf(10) ** (10 - d),
    "square": lambda mp, d: mp.mpf(10) ** (10 - d),
    "favard": lambda mp, d: mp.mpf(10) ** (10 - d),
    "gram": lambda mp, d: 10.0 ** -(d / 2),
    "limit": lambda mp, d: mp.mpf("1e-8"),
    "limit-floor": lambda mp, d: mp.mpf(10) ** (12 - d),
}


@pytest.mark.parametrize("digits", [15, 16, 19, 20, 21, 50, 100])
def test_precision_plan(digits):
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    assert set(GATES) == set(_PLAN)
    for kind, expected in _PLAN.items():
        value = GATES[kind](ctx)
        assert type(value) is type(expected(mp, digits)) and value == expected(mp, digits), kind
        row = verdict(kind, value, ctx)
        assert row == {"residual": float(value), "tolerance": float(value), "status": "pass"}
        assert verdict(kind, value * 2, ctx)["status"] == "fail"
    assert GATES["eigen"](ctx) is ctx.tol(10)          # the cached tolerance, no new mpf

    work, node_tol = gram_context(ctx)
    assert work.digits == max(15, digits // 2 + 5)
    assert work.mp.dps == max(30, digits // 2 + 20)
    assert node_tol._mpf_ == (work.mp.mpf(10) ** -(digits // 2 + 15))._mpf_

    ladder = ladder_context(ctx)
    assert ladder.digits == max(digits, 20)
    assert (ladder is ctx) == (digits >= 20)

    # the reality gate: |Im z| <= 10**-d min(max(1, |z|), 10**8), at its edge and past it
    for size in (mp.mpf("1e-3"), mp.mpf(1), mp.mpf(10) ** 5, mp.mpf(10) ** 8, mp.mpf(10) ** 12):
        edge = ctx.tol(0) * min(max(1, size), 10 ** 8)
        assert is_real(mp.mpc(size, edge / 2), ctx) and is_real(size, ctx)
        assert not is_real(mp.mpc(size, 2 * edge), ctx)


# The log|Gamma| kernel.  Its documented bound (module docstring): at most 10 n units of
# 2**-bits for n terms, bits = p + STIRLING_GUARD_BITS, for |y| <= 2**21.
def _kernel_bound(series):
    return 10 * len(series.terms) * 2.0 ** -series.bits


def _kernel(series, ref, x=fzero):
    """The kernel's sum as an mpf of the reference context ``ref``."""
    return ref.make_mpf(from_man_exp(log_abs_gamma_sum(series, x), -series.bits))


def _exact_log_abs_gamma(ref, terms):
    return ref.fsum(ref.loggamma(ref.mpc(a, y)).real for a, y in terms)


# the Gram working contexts of --digits 15, 50 and 100
_GRAM_MP = {d: gram_context(PrecisionContext(d))[0].mp for d in (15, 50, 100)}
_TERMS = st.lists(
    st.tuples(st.floats(0, 4, exclude_min=True, exclude_max=True),
              st.floats(-1300, 1300)),
    min_size=1, max_size=4)


@pytest.mark.parametrize("digits", [15, 50, 100])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(terms=_TERMS)
def test_log_abs_gamma_sum_matches_mpmath(digits, terms):
    # against mpmath's loggamma at 60 more bits, within the documented absolute bound
    mp = _GRAM_MP[digits]
    series = StirlingSeries(mp, [(mp.mpf(a), mp.mpf(y)) for a, y in terms])
    ref = MPContext()
    ref.prec = mp.prec + 60
    err = abs(_kernel(series, ref) - _exact_log_abs_gamma(ref, terms))
    assert err <= _kernel_bound(series), (digits, terms, float(err / _kernel_bound(series)))


def test_log_abs_gamma_sum_edges():
    # at the Gram working precisions of 15, 50, 100 and 400 digits: the k = 0 factor of a
    # tiny a, no shift (a >= R), a shift of one step, y = 0, the exact zeros
    # log Gamma(1) = log Gamma(2) = 0, and |y| = 1300; at 400 digits too the double tail's
    # scaled coefficients stay finite and at most 1
    for digits in (15, 50, 100, 400):
        mp = gram_context(PrecisionContext(digits))[0].mp
        ref = MPContext()
        ref.prec = mp.prec + 60
        shift = StirlingSeries(mp, []).shift
        cases = [(1e-40, 0.0), (1e-40, 1300.0), (shift + 3.5, 2.0), (shift + 3.5, -1300.0),
                 (shift - 0.5, 7.0), (1.0, 0.0), (2.0, 0.0), (0.5, 1300.0), (3.25, -1300.0)]
        for a, y in cases:
            series = StirlingSeries(mp, [(mp.mpf(a), mp.mpf(y))])
            err = abs(_kernel(series, ref) - _exact_log_abs_gamma(ref, [(a, y)]))
            assert err <= _kernel_bound(series), (digits, a, y)
        assert series.tail and all(math.isfinite(d) and abs(d) <= 1 for d in series.tail)
        # five terms at once, two of them unshifted
        series = StirlingSeries(mp, [(mp.mpf(a), mp.mpf(y)) for a, y in cases[:5]])
        err = abs(_kernel(series, ref) - _exact_log_abs_gamma(ref, cases[:5]))
        assert err <= _kernel_bound(series), digits


def test_log_abs_gamma_sum_is_even_in_each_y():
    # |Gamma(a - iy)| = |Gamma(a + iy)| bit for bit, and the terms' order does not matter
    mp = _GRAM_MP[50]
    terms = [(mp.mpf("0.75"), mp.mpf("0.3")), (mp.mpf("2.5"), mp.mpf("-1.25")),
             (mp.mpf(40), mp.mpf(0))]
    for x in (mp.mpf("0.731"), mp.mpf(-17), mp.mpf("1e-30")):
        value = log_abs_gamma_sum(StirlingSeries(mp, terms), x._mpf_)
        flipped = [(a, -b) for a, b in reversed(terms)]
        assert log_abs_gamma_sum(StirlingSeries(mp, flipped), (-x)._mpf_) == value


# the kernel as it stood before the per-spec preparation, kept as the reference for the
# prepared kernel: shift every term to real part R, then the Stirling series at R, K
class _ReferenceSeries:
    def __init__(self, mp):
        self.mp = mp
        bits = self.bits = mp.prec + STIRLING_GUARD_BITS
        self.shift, terms = _reference_plan(bits)
        coeffs = []
        for k in range(terms, 0, -1):
            num, den = bernfrac(2 * k)
            coeffs.append((num << bits) // (den * 2 * k * (2 * k - 1)))
        self.coeffs = tuple(coeffs)
        log_2pi = mpf_log(mpf_shift(mpf_pi(bits + 8), 1), bits + 8)
        self.half_log_2pi = to_fixed(mpf_shift(log_2pi, -1), bits)


def _reference_plan(bits):
    target = -bits * math.log(2) - 1

    def fits(R, K):
        return (math.log(math.pi ** 2 / 3) + math.lgamma(2 * K + 1) - 2 * K * math.log(2 * math.pi)
                - math.log(2 * K * (2 * K - 1)) - (2 * K - 1) * math.log(R)) <= target

    R, K = int(bits * math.log(2) / (2 * math.pi)), None
    while K is None:
        R += 1
        K = next((k for k in range(2, int(math.pi * R) + 2) if fits(R, k)), None)
    best = (R, K)
    while R + 1 < sum(best):
        R += 1
        while K > 2 and fits(R, K - 1):
            K -= 1
        if R + K < sum(best):
            best = (R, K)
    return best


def _reference_log_abs_gamma_sum(terms, series):
    bits, shift, coeffs = series.bits, series.shift, series.coeffs
    one = 1 << bits
    wide = 2 * bits
    total = 0
    prod, scale = one, -bits
    low = fone
    for a, y in terms:
        a, y = a._mpf_, y._mpf_
        A, Y = to_fixed(a, bits), to_fixed(y, bits)
        steps = shift - (A >> bits)
        if steps > 0:
            low = mpf_mul(low, mpf_add(mpf_mul(a, a), mpf_mul(y, y), bits + 8), bits + 8)
            Y2 = Y * Y
            for _ in range(1, steps):
                A += one
                prod = prod * (A * A + Y2) >> wide
            A += one
            drop = prod.bit_length() - bits - 8
            if drop > 0:
                prod >>= drop
                scale += drop
        m2 = A * A + Y * Y
        log_m2 = to_fixed(mpf_log(from_man_exp(m2, -wide), bits + 8), bits)
        arg = to_fixed(mpf_atan(from_man_exp((Y << bits) // A, -bits), bits + 8), bits)
        total += (((2 * A - one) * log_m2) >> (bits + 2)) - ((Y * arg) >> bits) - A
        ir = (A << wide) // m2
        ii = -((Y << wide) // m2)
        vr = (ir * ir - ii * ii) >> bits
        vi = (2 * ir * ii) >> bits
        r, s = 2 * vr, (vr * vr + vi * vi) >> bits
        hi, lo = coeffs[0], coeffs[1]
        for c in coeffs[2:]:
            hi, lo = lo + (r * hi >> bits), c - (s * hi >> bits)
        total += ((hi * ((vr * ir - vi * ii) >> bits) + lo * ir) >> bits) + series.half_log_2pi
    log_prod = mpf_log(mpf_mul(low, from_man_exp(prod, scale)), bits + 16)
    total -= to_fixed(log_prod, bits - 1)
    return series.mp.make_mpf(from_man_exp(total, -bits))


def _reference_density(fid, params, mp):
    """The |Gamma|^2 density of the reference kernel, with y = b + x (or b + x/2) and cosh exact."""
    series = _ReferenceSeries(mp)
    g = lambda name: mp.mpc(params[name])
    if fid in ("symmetric-bannai-ito", "generalized-symmetric-bannai-ito"):
        parts = [(mp.re(g(n)), mp.im(g(n))) for n in ("a", "b", "c") if n in params]
        factor, half, scale = 4, 0, 1
    else:
        al, be, ga = (mp.re(g(n)) for n in ("alpha", "beta", "gamma"))
        de = {"continuous-bannai-ito": mp.re(g("delta")) if "delta" in params else None,
              "continuous-minus1-hahn-1": be, "continuous-minus1-hahn-2": -be}[fid]
        parts = [(al + 1, be), (ga + 1, de), (ga + mp.mpf(1) / 2, -de), (al + mp.mpf(1) / 2, -be)]
        factor, half, scale = 1 / mp.pi, 1, mp.mpf(1) / 2

    def dens(x):
        y = mp.ldexp(x, -half)
        s = _reference_log_abs_gamma_sum([(a, mp.fadd(b, y, exact=True)) for a, b in parts], series)
        with mp.extraprec(40):          # pi x rounded at p would move cosh by |x| 2**-p
            c = factor * mp.cosh(mp.pi * x)
        return c * mp.exp(mp.ldexp(s, 1))
    return dens


_GAMMA_FAMILIES = ("continuous-bannai-ito", "continuous-minus1-hahn-1", "continuous-minus1-hahn-2",
                   "generalized-symmetric-bannai-ito", "symmetric-bannai-ito")


@pytest.mark.parametrize("digits", [15, 50])
def test_prepared_densities_match_the_reference_kernel(digits):
    # 200 seeded nodes per |Gamma|^2 family and fixture point, |x| from 1e-3 to 2500: the
    # prepared density and the reference kernel's agree to a few roundings at p
    mp = _GRAM_MP[digits]
    work = gram_context(PrecisionContext(digits))[0]
    rng = random.Random(29)
    for fid in _GAMMA_FAMILIES:
        for pt in F.fixture_points(fid):
            params = F.make_params(fid, work, **pt)
            spec = F.weight_spec(fid, params, work)
            ref = _reference_density(fid, params, mp)
            for _ in range(200):
                x = mp.mpf(repr(rng.choice((-1, 1)) * 10 ** rng.uniform(-3, math.log10(2500))))
                got, want = spec.density(x), ref(x)
                assert abs(got - want) <= 2 ** (4 - mp.prec) * want, (digits, fid, pt, x)
