"""Configurable-precision arithmetic and the special-function primitives.

Every numeric routine in this package is a pure function of its inputs plus
an explicitly passed :class:`PrecisionContext`.  A context owns a private
mpmath context (so two contexts never share global state) and runs it with
guard digits on top of the advertised precision; tolerances quoted against
``digits`` therefore have headroom.

Complex values are plain ``mpf``/``mpc`` instances belonging to the
context.  Conjugation, modulus and arithmetic behave as usual; all special
functions here respect ``f(conj(z)) == conj(f(z))``.

Precision plan.  What a row of ``minusone verify`` certifies is its gate,
and every gate is read from :data:`GATES`, check kind -> gate at
d = ``ctx.digits``; :func:`verdict` turns a residual into the row's
``residual``, ``tolerance`` and ``status`` (pass iff residual <= gate):

    kind                                      gate at d digits
    closed-form, eigen, exact, ct-gt,         10**(10 - d)
      kernel-map, square, favard (algebraic rows)
    gram                                      10**-(d/2)
    limit                                     1e-8
    limit-floor ("converged exactly")         10**(12 - d)

One rule reads no residual, the reality gate (:func:`is_real`): a computed
z is real when |Im z| <= 10**-D min(max(1, |z|), 10**8), D the digits of
its context.  The Gram and the Favard row read it.

Where a status depends on more than residual <= gate, the check keeps
that logic: the Gram's convergence and the square's two ladders amend the
verdict, and eigen's dead ends and basis matrix (each entry on the scale
of its degree's residual) and the limit's order fits read only the gate.
Two checks run at a precision of their own.  A Gram's node table (:func:`gram_context`) runs
at max(15, d//2 + 5) digits with node tolerance 10**-(d//2 + 15), fifteen
digits below its gate; mpmath runs GUARD_DIGITS = 15 further, at
max(30, d//2 + 20) digits, five or more past the node tolerance (the
measured headroom is in ``orthogonality``).  A limit ladder
(:func:`ladder_context`) runs at max(d, LADDER_MIN_DIGITS) digits,
reusing the caller's context from LADDER_MIN_DIGITS on: 20 is the least
d at which the floor 10**(12 - d) is no looser than the 1e-8 gate.

The |Gamma| kernel.  ``log_abs_gamma_sum`` is the kernel of the |Gamma|^2
weight densities: the sum of log|Gamma(a_j + i y_j)| over real a_j > 0 and
y_j = b_j + x 2**x_exp, in Python-int fixed point at 2**-bits,
bits = p + STIRLING_GUARD_BITS, p = ``mp.prec``.  Each z_j is moved to
w_j = z_j + N_j with Re w_j >= R; the shift factors
|z_j + k|^2 = (a_j + k)^2 + y_j^2 of all terms multiply into one product
whose logarithm is taken once (the k = 0 factor, which may be tiny, to
2**-(bits + 14) relative from the exact a_j and y_j), and log|Gamma(w)|
is the real part of the Stirling series (DLMF 5.11.1),
c_k = B_2k / (2k (2k-1)),

    (w - 1/2) log w - w + log(2 pi)/2 + sum_{k=1..K} c_k w^(1-2k),

from the complex log of w (below), a head k = 1 .. H summed by a Horner
loop in 1/w^2 on integer pairs, and a tail k = H+1 .. K in complex
doubles.  The sum depends on the multiset of (a_j, |y_j|) alone, bit for
bit, so conjugate terms give the same integer in any order.

Preparation.  A ``StirlingSeries`` is built once per weight spec and
holds all that does not depend on x: the plan (R, K, H), the head
coefficients at 2**-bits, the scaled tail coefficients, the log table,
the b_j at a scale that holds them exactly, and per term its shift count
N_j, the squares (a_j + k)^2 of its shift factors (so that a shift step
is one product), a_j^2, its shifted real part A and log A.

Complex log.  With w = A + iY, log w = log A + log(1 + it), t = Y/A, or for
Y > A log Y + i pi/2 + conj log(1 + it), t = A/Y (one ``mpf_log``), so
0 <= t <= 1.  log(1 + it) is the table's log(1 + it_j), t_j = j/128
nearest t, plus log((1 + it)/(1 + it_j)) = 2 atanh(zeta),
zeta = i(t - t_j)/(2 + i(t + t_j)), |zeta| <= 2**-9, summed as
2 zeta sum_n zeta^(2n)/(2n+1) by the Horner loop of the head; the
remainder after N terms is below |zeta|^(2N+3), and N is the least that
puts it below 2**-(F+2).  All of it runs at 2**-F, F = bits plus the bits
of the largest A plus _LOG_GUARD = 20, so log|w| and arg w are good to a
dozen units of 2**-F, and their products with A - 1/2 and with y to a
small fraction of 2**-bits while |y| <= 2^21.

Plan.  Error bound (DLMF 5.11(ii)): the series after K terms is off by at
most the first omitted term times sec^(2K)(arg(w)/2).  With w = u + iy and
r = |w|, sec^2(arg(w)/2) = 2r/(r + u), so the bound is
|c_K| 2^K r^(1-K) / (r + u)^K; it falls as |y| or u grows, so on Re w >= R
it is largest at w = R, where it is |c_K| R^(1-2K).  For each R the plan
takes the least K that puts this below 2**-bits / e, and it picks the R of
least cost SHIFT_COST R + H + TAIL_COST (K - 1), in head Horner steps: a
shift step costs about three quarters of a head step and a tail step a
fifth (measured at 50 digits, 2-vCPU VM: 0.30, 0.40 and 0.08 us).  The
Gram tables of 15, 50 and 100 digits run at p = 103, 153 and 236, with
(R, K, H) = (18, 24, 10), (25, 33, 18) and (37, 48, 32).

Double tail.  Terms H+1 .. K are Re(u t) 2**-(bits-53) with u = R/w,
|u| <= 1, and t = sum_k D_k (u^2)^(k-1), D_k = c_k R^(1-2k) 2**(bits-53),
summed by Horner in complex doubles: K - 1 steps, the last H with
coefficient 0, then one product by u.  Rounding bound (Horner's, Higham,
*Accuracy and Stability of Numerical Algorithms* (2002) 5.1, with a
complex product good to sqrt(2) gamma_2, 3.6): with u_d = 2**-53, each
step moves each term by at most 4 u_d relative, the product by u and the
rounding of D_k by 4 more, and the truncation of u's parts to 2**-53 moves
u^(2k-1) by at most 3K u_d; so the tail is off by at most
(7K + 4) sum |D_k| units of 2**-bits, and one more for its truncation to
an integer.  H is the least index with (8K + 8) sum_(k>H) |D_k| <= 1,
|c_k| bounded by 2 zeta(2) (2k)! / ((2 pi)^(2k) 2k (2k-1)): the tail is off
by at most 2 units, no |D_k| exceeds 1/(8K + 8), so no double overflows at
any precision, and the smallest is near 2**-56, far from underflow.

Error.  Per term, in units of 2**-bits: 1/e for the truncated series, 3
for the head's fixed point, 2 for the tail, 1 for log(2 pi)/2 and 2 for
the products with log|w| and arg w; the shift product loses at most
2**-(bits + 7) relative per step, and half its logarithm one unit more.
So the sum is off by at most 10 n units for n terms, about 2**-(p + 18.7)
for four terms, which is relative accuracy for the |Gamma| products it is
exponentiated into; beyond |y| = 2^21 each term may add |y| 2**-21 units
(no node table comes near: its nodes reach |x| = 2457).  The bound is for
a_j and y_j that are multiples of 2**-bits, as every a_j >= 2**-24 and
every node's y_j is; a finer a_j or y_j enters truncated to 2**-bits,
except in the k = 0 factor.  Measured against mpmath's loggamma at 60
more bits, four terms with 0 < a < 4, 120 draws per row, the largest
error in units of 2**-bits:

    p            |y| < 10   |y| < 100   |y| < 1300
    103            9.1         8.5         8.6
    153            6.0         5.6         4.9
    236            6.0         5.4         5.3

It does not grow with |y|.
"""

from __future__ import annotations

from math import exp, lgamma, log, pi

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    bernfrac, from_man_exp, mpf_atan, mpf_log, mpf_pi, mpf_shift, pi_fixed, round_nearest as RND,
    to_fixed,
)

GUARD_DIGITS = 15
STIRLING_GUARD_BITS = 24
# the time of a shift step and of a double-tail step of log_abs_gamma_sum over a head Horner step
# (measured at 50 digits, 2-vCPU VM: 0.30, 0.08 and 0.40 us)
SHIFT_COST = 0.75
TAIL_COST = 0.2
_FACTOR_GUARD = 16      # the shift factors of log_abs_gamma_sum are taken at 2**-(bits + 16)
_LOG_STEPS = 7          # its log table holds log(1 + i j/2**7), j = 0 .. 2**7
_LOG_GUARD = 20         # and its complex logs run at 2**-(bits + 20) past the bits of the largest A
_TWO_53 = float(2 ** 53)
_TWO_M53 = 1 / _TWO_53


class ZeroDenominatorError(ZeroDivisionError):
    """A denominator Pochhammer hit a non-positive integer inside the sum."""


class PrecisionContext:
    """Decimal working precision shared by a computation.

    Parameters
    ----------
    digits : int
        Decimal significant digits requested, at least 15.  The internal
        mpmath context runs at ``digits + GUARD_DIGITS``.  What a check
        certifies at this precision is its gate (:data:`GATES`), not
        ``digits``: an algebraic row certifies digits - 10.
    """

    def __init__(self, digits: int = 50):
        digits = int(digits)
        if digits < 15:
            raise ValueError("precision must be at least 15 digits, got %d" % digits)
        self.digits = digits
        ctx = MPContext()
        ctx.dps = digits + GUARD_DIGITS
        self.mp = ctx
        self._tols = {}

    def tol(self, offset: int):
        """Return 10**(offset - digits); e.g. ``tol(4)`` is 1e-46 at 50 digits.

        Computed once per offset: an mpf is immutable, so the cached value is
        shared safely.
        """
        value = self._tols.get(offset)
        if value is None:
            value = self._tols[offset] = self.mp.mpf(10) ** (offset - self.digits)
        return value

    def __repr__(self):
        return "PrecisionContext(digits=%d)" % self.digits


def _tol(offset):
    return lambda ctx: ctx.tol(offset)


# the precision plan (module docstring): check kind -> gate(ctx)
GATES = {
    "closed-form": _tol(10), "eigen": _tol(10), "exact": _tol(10), "ct-gt": _tol(10),
    "kernel-map": _tol(10), "square": _tol(10), "favard": _tol(10),
    "gram": lambda ctx: 10.0 ** -(ctx.digits / 2),
    "limit": lambda ctx: ctx.mp.mpf("1e-8"),
    "limit-floor": _tol(12),
}

# the least d at which the limit-floor gate is no looser than the limit gate
LADDER_MIN_DIGITS = 20


def verdict(kind: str, residual, ctx: PrecisionContext):
    """The row fields ``residual``, ``tolerance`` and ``status``: pass iff residual <= gate."""
    tol = GATES[kind](ctx)
    return {"residual": float(residual), "tolerance": float(tol),
            "status": "pass" if residual <= tol else "fail"}


def is_real(z, ctx: PrecisionContext):
    """The reality gate (module docstring): |Im z| <= 10**-digits min(max(1, |z|), 10**8).
    Above |z| = 10**8 the bound is absolute: a value real in exact arithmetic must come out
    with Im z = 0 there, as the printed norms do (``weights._paired_product``)."""
    return abs(z.imag) <= ctx.tol(0) * min(max(1, abs(z)), 10 ** 8)


def gram_context(ctx: PrecisionContext):
    """(context, node tolerance) of a Gram's node table: max(15, d//2 + 5) digits, 10**-(d//2 + 15)."""
    half = ctx.digits // 2
    work = PrecisionContext(max(15, half + 5))
    return work, work.mp.mpf(10) ** -(half + 15)


def ladder_context(ctx: PrecisionContext):
    """The context a limit ladder runs in: ctx from LADDER_MIN_DIGITS digits on, else a new one at that."""
    return ctx if ctx.digits >= LADDER_MIN_DIGITS else PrecisionContext(LADDER_MIN_DIGITS)


def is_nonpositive_integer(z, ctx: PrecisionContext):
    """Return n >= 0 such that z == -n, or None.

    Accepts complex input; the match tolerance is 10**(6-digits) so that
    parameters assembled from exact rationals are recognized while generic
    reals are not.
    """
    mp = ctx.mp
    z = mp.mpc(z)
    if abs(mp.im(z)) > ctx.tol(6):
        return None
    re = mp.re(z)
    n = int(mp.nint(re))
    if n > 0:
        return None
    if abs(re - n) > ctx.tol(6):
        return None
    return -n


def pochhammer(a, n: int, ctx: PrecisionContext):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0, got %d" % n)
    return pochhammers(a, n, ctx)[n]


def pochhammers(a, K: int, ctx: PrecisionContext):
    """(a)_0 .. (a)_K, each from the last by one product: entry n is ``pochhammer(a, n, ctx)``."""
    mp = ctx.mp
    a = mp.mpc(a)
    values = [mp.mpc(1)]
    for k in range(K):
        values.append(values[-1] * (a + k))
    return values


def hyp_terminating(numerators, denominators, z, ctx: PrecisionContext):
    """Terminating generalized hypergeometric sum pFq(num; den; z).

    At least one numerator parameter must be a non-positive integer -n; the
    series is then the exact finite sum over k = 0..n (the smallest such n
    if several numerators terminate), evaluated left to right.  No
    convergence questions arise because the sum is finite.

    Raises :class:`ZeroDenominatorError` when a denominator Pochhammer
    vanishes inside the summation range.
    """
    mp = ctx.mp
    nums = [mp.mpc(a) for a in numerators]
    dens = [mp.mpc(b) for b in denominators]
    z = mp.mpc(z)

    orders = [m for m in (is_nonpositive_integer(a, ctx) for a in nums) if m is not None]
    if not orders:
        raise ValueError("series does not terminate: no numerator is a non-positive integer")
    n = min(orders)

    for b in dens:
        m = is_nonpositive_integer(b, ctx)
        if m is not None and m <= n - 1:
            raise ZeroDenominatorError(
                "denominator parameter %s vanishes at term k = %d" % (mp.nstr(b), m + 1))

    total = mp.mpc(0)
    term = mp.mpc(1)
    for k in range(n + 1):
        total += term
        if k == n:
            break
        factor = mp.mpc(1)
        for a in nums:
            factor *= a + k
        for b in dens:
            factor /= b + k
        term *= factor * z / (k + 1)
    return total


class StirlingSeries:
    """The log|Gamma| terms of one weight spec, prepared for ``log_abs_gamma_sum`` at mp.prec.

    ``terms`` are pairs (a_j, b_j) of real mpf with a_j > 0; at an x, term j
    is log|Gamma(a_j + i y_j)| with y_j = b_j + x * 2**x_exp.  Everything
    that depends on the spec alone is computed here, once per spec (module
    docstring, Preparation): the plan (R, K, H), the head coefficients
    c_H .. c_1 at 2**-bits, the scaled double tail (at least one term), the
    log table and atanh coefficients at 2**-log_scale, the b_j at
    2**-b_scale, and per term (``_prepare_term``) its shift factors'
    squares, its k = 0 factor a_j**2, its shifted real part and its log.
    """

    def __init__(self, mp, terms, x_exp=0):
        bits = self.bits = mp.prec + STIRLING_GUARD_BITS
        self.x_exp = x_exp
        shift, K, H = _stirling_plan(bits)
        self.shift = shift
        coeffs = []
        for k in range(1, K + 1):
            num, den = bernfrac(2 * k)
            coeffs.append((num << bits) // (den * 2 * k * (2 * k - 1)))
        self.head = tuple(reversed(coeffs[:H]))      # c_H .. c_1 at 2**-bits, Horner order
        # the double tail c_k R^(1-2k) 2**(bits-53), k = K .. H+1, in Horner order; it is
        # multiplied by (u^2)^H after its Horner steps
        self.tail = tuple(coeffs[k - 1] / (shift ** (2 * k - 1) << 53) for k in range(K, H, -1))
        log_2pi = mpf_log(mpf_shift(mpf_pi(bits + 8), 1), bits + 8)
        self.half_log_2pi = to_fixed(mpf_shift(log_2pi, -1), bits)
        # the b_j exactly, at 2**-b_scale
        self.b_scale = max([bits] + [-b._mpf_[2] for a, b in terms if b])
        # the complex logs at 2**-log_scale: the table log(1 + i j 2**-_LOG_STEPS) and the
        # coefficients 1/(2n+1) of the atanh series in Horner order, n = N .. 0 with N the
        # least for which the series' remainder (module docstring) is below 2**-(log_scale+2)
        A_max = max([shift] + [abs(a) for a, b in terms])
        F = self.log_scale = bits + int(A_max + 2).bit_length() + _LOG_GUARD
        m = _LOG_STEPS
        self.log_table = tuple(
            (to_fixed(mpf_log(from_man_exp((1 << 2 * m) + j * j, -2 * m), F + 8), F - 1),
             to_fixed(mpf_atan(from_man_exp(j, -m), F + 8), F))
            for j in range((1 << m) + 1))
        N = next(n for n in range(F) if (2 * n + 3) * (m + 2) >= F + 2)
        self.log_coeffs = tuple((1 << F) // (2 * n + 1) for n in range(N, -1, -1))
        self.half_pi = pi_fixed(F) >> 1
        self.terms = tuple(_prepare_term(a._mpf_, b._mpf_, bits, shift, self.b_scale, F)
                           for a, b in terms)


def _prepare_term(a, b, bits, shift, b_scale, log_scale):
    """(B, squares, a2, a2_scale, AA, A, two_a, log_A) of the term (a, b), raw mpf.

    B = b at 2**-b_scale, exact.  A term with real part below R is shifted
    by N = R - floor(a) steps: squares holds (a + k)**2 at
    2**-(bits + _FACTOR_GUARD) for k = 1 .. N-1, and a2 holds a**2 for the
    k = 0 factor at 2**-a2_scale finer, a2_scale the bits that keep
    a**2 2**a2_scale >= 1/4, so that a tiny a keeps its relative precision.
    An unshifted term has a2 = 0.  A is the shifted real part at 2**-bits,
    AA = A**2 at 2**-2bits, two_a = 2A - 1 at 2**-bits and log_A = log A at
    2**-log_scale.
    """
    one = 1 << bits
    A = to_fixed(a, bits)
    steps = shift - (A >> bits)
    squares, a2, a2_scale = (), 0, 0
    if steps > 0:
        squares = tuple((A + k * one) ** 2 >> (bits - _FACTOR_GUARD) for k in range(1, steps))
        sign, man, exp, bc = a
        a2_scale = max(0, 2 - 2 * (exp + bc))          # a**2 2**a2_scale >= 1/4
        sh = bits + _FACTOR_GUARD + a2_scale + 2 * exp
        a2 = man * man << sh if sh >= 0 else man * man >> -sh
        A += steps * one
    log_A = to_fixed(mpf_log(from_man_exp(A, -bits), log_scale + 8), log_scale)
    return to_fixed(b, b_scale), squares, a2, a2_scale, A * A, A, 2 * A - one, log_A


def _stirling_plan(bits):
    """(R, K, H): the least cost SHIFT_COST R + H + TAIL_COST (K - 1) over the shifts R.

    K is the least series length whose truncation bound (module docstring)
    is below 2**-bits / e, and H the head: terms H+1 .. K go to the double
    tail as long as (8K + 8) times the sum of their bounds, in units of
    2**-(bits - 53), stays at most 1.  Uses |c_k| = |B_2k| / (2k (2k-1)) <=
    2 zeta(2) (2k)! / ((2 pi)^2k 2k (2k-1)), a float upper bound.  For fixed
    R the log bound is convex in k, least near k = pi R, where it is about
    -2 pi R, so R starts at bits log(2) / (2 pi); the least K that reaches
    the target only falls as R grows.
    """
    parts = [0.0]                # the R-free part of the log bound, by k

    def log_term(R, k):          # log of the bound on |c_k| R^(1-2k)
        while len(parts) <= k:
            j = len(parts)
            parts.append(log(pi * pi / 3) + lgamma(2 * j + 1) - 2 * j * log(2 * pi)
                         - log(2 * j * (2 * j - 1)))
        return parts[k] - (2 * k - 1) * log(R)

    def head(R, K):
        H, room, scale = K, 1 / (8 * K + 8), (bits - 53) * log(2)
        while H > 2:
            term = exp(min(log_term(R, H) + scale, 0.0))
            if term > room:
                break
            room -= term
            H -= 1
        return H

    target = -bits * log(2) - 1
    R, K = int(bits * log(2) / (2 * pi)), None
    while K is None:
        R += 1
        K = next((k for k in range(2, int(pi * R) + 2) if log_term(R, k) <= target), None)
    cost = lambda R, K, H: SHIFT_COST * R + H + TAIL_COST * (K - 1)
    best = (cost(R, K, head(R, K)), R, K, head(R, K))
    while SHIFT_COST * (R + 1) < best[0]:
        R += 1
        while K > 2 and log_term(R, K - 1) <= target:
            K -= 1
        H = head(R, K)
        best = min(best, (cost(R, K, H), R, K, H))
    return best[1:]


def _horner_mod(coeffs, r, s, scale):
    """(hi, lo) with P(v) = hi v + lo, P the real polynomial of ``coeffs`` (Horner order, at
    least two) at a complex v with v^2 = r v - s, all at 2**-scale.

    P is taken modulo v^2 - r v + s (Knuth, TAOCP 4.6.4): two products per
    step, not the four of a complex Horner step.
    """
    hi, lo = coeffs[0], coeffs[1]
    for c in coeffs[2:]:
        hi, lo = lo + (r * hi >> scale), c - (s * hi >> scale)
    return hi, lo


def log_abs_gamma_sum(series: StirlingSeries, x):
    """Sum of log|Gamma(a_j + i y_j)| over the terms of ``series`` at the raw mpf x.

    y_j = b_j + x * 2**x_exp.  Returns the sum in fixed point, an integer
    at 2**-series.bits; the module docstring gives its error bound.  It is
    a function of the multiset of (a_j, |y_j|): terms swapped or conjugated
    give the same integer.
    """
    bits, R, head, (d0, *tail) = series.bits, series.shift, series.head, series.tail
    wide, fs, sh = 2 * bits, bits + _FACTOR_GUARD, bits - 53
    # y_j = b_j + x 2**x_exp exactly, at the scale 2**-E of the finer of b's and x's last bits
    sign, man, exp, _ = x
    exp += series.x_exp
    E = max(series.b_scale, -exp) if man else series.b_scale
    X = (-man if sign else man) << (exp + E)
    b_shift, y_shift, y2_scale = E - series.b_scale, E - bits, 2 * E
    total = series.half_log_2pi * len(series.terms)
    F, log_table, half_pi, atanh = (
        series.log_scale, series.log_table, series.half_pi, series.log_coeffs)
    step = F - _LOG_STEPS
    half_step = 1 << (step - 1)
    prod, scale = 1, 0        # the shift factors of all terms: prod * 2**scale, exact
    for B, squares, a2, a2_scale, AA, A, two_a, log_A in series.terms:
        y = (B << b_shift) + X
        Y = abs(y) >> y_shift
        Y2 = Y * Y
        if a2:
            # |z + k|^2 = (a + k)^2 + y^2 for k = N-1 .. 1 at 2**-fs, then k = 0 from the exact
            # y at 2**-(fs + a2_scale)
            p, y2 = 1 << (bits + 8), Y2 >> (bits - _FACTOR_GUARD)
            for S in squares:
                p = p * (S + y2) >> fs
            p = p * (a2 + (y * y << (fs + a2_scale) >> y2_scale)) >> fs
            drop = p.bit_length() - bits - 8
            prod *= p >> drop
            scale += drop - bits - 8 - a2_scale
        # log|Gamma(w)| at w = A + iY, A >= R: (A - 1/2) log|w| - Y arg w - A + log(2 pi)/2
        # + series.  log w = log A + log(1 + iY/A), or log Y + i pi/2 + conj log(1 + iA/Y) for
        # Y > A; log(1 + it) is the table's log(1 + it_j), t_j nearest t, plus
        # log((1 + it)/(1 + it_j)) = 2 atanh(zeta), zeta = i(t - t_j)/(2 + i(t + t_j)), a
        # polynomial in zeta^2
        m2 = AA + Y2
        if Y <= A:
            t, log_r = (Y << F) // A, log_A
        else:
            t = (A << F) // Y
            log_r = to_fixed(mpf_log(from_man_exp(Y, -bits), F + 8, RND), F)
        j = (t + half_step) >> step
        d, e = t - (j << step), t + (j << step)
        inv = (d << F) // ((4 << F) + (e * e >> F))
        zr, zi = e * inv >> F, 2 * inv
        qr, qi = (zr * zr - zi * zi) >> F, zr * zi >> (F - 1)
        hi, lo = _horner_mod(atanh, 2 * qr, (qr * qr + qi * qi) >> F, F)
        sr, si = (hi * qr >> F) + lo, hi * qi >> F
        log_w, arg = log_table[j]
        log_w += log_r + ((zr * sr - zi * si) >> (F - 1))
        arg += (zr * si + zi * sr) >> (F - 1)
        if Y > A:
            arg = half_pi - arg
        total += (two_a * log_w >> (F + 1)) - (Y * arg >> F) - A
        # Re sum_k c_k w^(1-2k).  The head: Re (1/w) P(v), v = 1/w^2
        ir = (A << wide) // m2
        ii = -((Y << wide) // m2)
        vr = (ir * ir - ii * ii) >> bits
        vi = (2 * ir * ii) >> bits
        hi, lo = _horner_mod(head, 2 * vr, (vr * vr + vi * vi) >> bits, bits)
        total += (hi * ((vr * ir - vi * ii) >> bits) + lo * ir) >> bits
        # the tail in complex doubles: u = R/w, |u| <= 1, Horner in u^2 on the scaled
        # coefficients, H steps more with coefficient 0, then one product by u
        u = complex(R * ir >> sh, R * ii >> sh) * _TWO_M53
        v = u * u
        acc = d0
        for d in tail:
            acc = acc * v + d
        for _ in head:
            acc *= v
        total += int((acc * u).real * _TWO_53)
    # half the log of the product, its bits past 2**-bits covering the log's size (the lowest
    # bit set, far below its last bit, makes it an odd mantissa)
    bc = prod.bit_length()
    log_prod = mpf_log((0, prod | 1, scale, bc), bits + 4 + abs(bc + scale).bit_length(), RND)
    return total - to_fixed(log_prod, bits - 1)
