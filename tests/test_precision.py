import random

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from minusone.precision import (
    GATES,
    PrecisionContext,
    StirlingSeries,
    ZeroDenominatorError,
    gram_context,
    hyp_terminating,
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
    "eigen-basis": lambda mp, d: mp.mpf(10) ** (12 - d),
    "gram": lambda mp, d: 10.0 ** -(d / 2),
    "limit": lambda mp, d: mp.mpf("1e-8"),
    "limit-floor": lambda mp, d: mp.mpf(10) ** (12 - d),
    "favard-reality": lambda mp, d: mp.mpf(10) ** (8 - d),
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


# log|Gamma| kernel against mpmath's gamma at 40 more bits: error at most 2**-(p - 10)
# relative to max(1, sum of |log|Gamma||), for one to four terms, a in (0, 4), |y| < 100
_TERMS = st.lists(
    st.tuples(st.floats(0, 4, exclude_min=True, exclude_max=True),
              st.floats(-100, 100, exclude_min=True, exclude_max=True)),
    min_size=1, max_size=4)
_SERIES = {d: StirlingSeries(PrecisionContext(d).mp) for d in (15, 50, 100)}


@pytest.mark.parametrize("digits", [15, 50, 100])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(terms=_TERMS)
def test_log_abs_gamma_sum_matches_mpmath(digits, terms):
    series = _SERIES[digits]
    mp = series.mp
    ref = MPContext()
    ref.prec = mp.prec + 40
    got = log_abs_gamma_sum([(mp.mpf(a), mp.mpf(y)) for a, y in terms], series)
    logs = [ref.log(abs(ref.gamma(ref.mpc(a, y)))) for a, y in terms]
    scale = max(1, sum(abs(v) for v in logs))
    assert abs(got - ref.fsum(logs)) <= ref.ldexp(scale, 10 - mp.prec), (digits, terms)


def test_log_abs_gamma_sum_edges():
    # no shift needed (a >= R), a tiny a whose first shift factor a^2 is far below 2**-p,
    # and the exact zeros log Gamma(1) = log Gamma(2) = 0
    series = StirlingSeries(CTX.mp)
    mp = CTX.mp
    for a, y in ((series.shift + 3.5, 2.0), (1e-40, 0.0), (1.0, 0.0), (2.0, 0.0)):
        got = log_abs_gamma_sum([(mp.mpf(a), mp.mpf(y))], series)
        want = mp.log(abs(mp.gamma(mp.mpc(a, y))))
        assert abs(got - want) <= CTX.tol(0) * max(1, abs(want)), (a, y)
