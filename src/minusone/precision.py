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
      kernel-map, square (algebraic rows)
    eigen-basis (eigen's basis matrix)        10**(12 - d)
    gram                                      10**-(d/2)
    limit                                     1e-8
    limit-floor ("converged exactly")         10**(12 - d)
    favard-reality (Im b_n, Im u_n)           10**(8 - d)

The eigen row reports its 10**(10 - d) as ``tolerance``, while its basis
matrix is gated at the looser 10**(12 - d).  Where a status depends on
more than residual <= gate, the check keeps that logic: the Gram's
convergence and the square's two ladders amend the verdict, and eigen's
dead ends and basis matrix and the limit's order fits read only the gate.
Two checks run at a precision of their own.  A Gram's node table (:func:`gram_context`) runs
at max(15, d//2 + 5) digits with node tolerance 10**-(d//2 + 15), fifteen
digits below its gate; mpmath runs GUARD_DIGITS = 15 further, at
max(30, d//2 + 20) digits, five or more past the node tolerance (the
measured headroom is in ``orthogonality``).  A limit ladder
(:func:`ladder_context`) runs at max(d, LADDER_MIN_DIGITS) digits,
reusing the caller's context from LADDER_MIN_DIGITS on: 20 is the least
d at which the floor 10**(12 - d) is no looser than the 1e-8 gate.

``log_abs_gamma_sum`` is the kernel of the |Gamma|^2 weight densities: the
sum of log|Gamma(a_j + i y_j)| over real a_j > 0 and y_j, in Python-int
fixed point at 2**-(p + STIRLING_GUARD_BITS), p = ``mp.prec``.  Each z_j is
moved to w_j = z_j + N_j with Re w_j >= R, the shift factors
|z_j + k|^2 = (a_j + k)^2 + y_j^2 of all terms multiply into one product
whose logarithm is taken once (an integer product for k >= 1; the k = 0
factors, which may be tiny, in floating point), and log|Gamma(w)| is the
real part of the Stirling series (DLMF 5.11.1)

    (w - 1/2) log w - w + log(2 pi)/2 + sum_{k=1..K} B_2k / (2k (2k-1) w^(2k-1)),

from one log|w|, one arg w and a Horner loop in 1/w^2 on integer pairs.
Error bound (DLMF 5.11(ii)): the tail after K terms is at most the first
omitted term times sec^(2K)(arg(w)/2).  With w = u + iy and r = |w|,
sec^2(arg(w)/2) = 2r/(r + u), so the bound is
|B_2K| / (2K (2K-1)) * 2^K r^(1-K) / (r + u)^K; it falls as |y| or u grows,
so on Re w >= R it is largest at w = R, where it is
|B_2K| / (2K (2K-1) R^(2K-1)).  ``StirlingSeries`` picks R and K so that
this is below 2**-(p + STIRLING_GUARD_BITS).  Fixed-point truncation and
the roundings of log and atan add at most a few hundred units of that
scale, so the sum is good to about 2**-(p + 15) absolute, which is relative
accuracy for the |Gamma| products it is exponentiated into; against
mpmath's gamma at 40 more bits the error measured below 2**-(p + 19) for
one to four terms with 0 < a < 4 and |y| < 100, at 15, 50 and 100 digits.
"""

from __future__ import annotations

from math import lgamma, log, pi

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    bernfrac, fone, from_man_exp, mpf_add, mpf_atan, mpf_log, mpf_mul, mpf_pi, mpf_shift, to_fixed,
)

GUARD_DIGITS = 15
STIRLING_GUARD_BITS = 24


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
    "kernel-map": _tol(10), "square": _tol(10),
    "eigen-basis": _tol(12),
    "gram": lambda ctx: 10.0 ** -(ctx.digits / 2),
    "limit": lambda ctx: ctx.mp.mpf("1e-8"),
    "limit-floor": _tol(12),
    "favard-reality": _tol(8),
}

# the least d at which the limit-floor gate is no looser than the limit gate
LADDER_MIN_DIGITS = 20


def verdict(kind: str, residual, ctx: PrecisionContext):
    """The row fields ``residual``, ``tolerance`` and ``status``: pass iff residual <= gate."""
    tol = GATES[kind](ctx)
    return {"residual": float(residual), "tolerance": float(tol),
            "status": "pass" if residual <= tol else "fail"}


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
    mp = ctx.mp
    a = mp.mpc(a)
    value = mp.mpc(1)
    for k in range(n):
        value *= a + k
    return value


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
    """Fixed-point constants of the Stirling series for log|Gamma| at mp.prec.

    ``bits`` is the fixed-point scale p + STIRLING_GUARD_BITS, ``shift`` the
    least real part R the series is summed at, ``coeffs`` the
    B_2k / (2k (2k-1)) for k = K..1 (Horner order) and ``half_log_2pi``
    log(2 pi)/2, all at 2**-bits.  R and K are the pair with the fewest
    loop steps R + K (a shift factor and a Horner step cost about the same)
    whose tail bound (module docstring) is below 2**-bits.  Build one per
    weight spec, not per call: the Bernoulli numbers are exact fractions.
    """

    def __init__(self, mp):
        self.mp = mp
        bits = self.bits = mp.prec + STIRLING_GUARD_BITS
        self.shift, terms = _stirling_plan(bits)
        coeffs = []
        for k in range(terms, 0, -1):
            num, den = bernfrac(2 * k)
            coeffs.append((num << bits) // (den * 2 * k * (2 * k - 1)))
        self.coeffs = tuple(coeffs)
        log_2pi = mpf_log(mpf_shift(mpf_pi(bits + 8), 1), bits + 8)
        self.half_log_2pi = to_fixed(mpf_shift(log_2pi, -1), bits)


def _stirling_plan(bits):
    """(R, K) with the least R + K whose tail bound is below 2**-bits.

    Uses log|B_2K| <= log(2 zeta(2)) + log((2K)!) - 2K log(2 pi), a float
    upper bound.  For fixed R the log bound is convex in K, least near
    K = pi R, where it is about -2 pi R, so R starts at bits log(2) / (2 pi);
    the least K that reaches the target only falls as R grows.
    """
    target = -bits * log(2) - 1

    def fits(R, K):
        return (log(pi * pi / 3) + lgamma(2 * K + 1) - 2 * K * log(2 * pi)
                - log(2 * K * (2 * K - 1)) - (2 * K - 1) * log(R)) <= target

    R, K = int(bits * log(2) / (2 * pi)), None
    while K is None:
        R += 1
        K = next((k for k in range(2, int(pi * R) + 2) if fits(R, k)), None)
    best = (R, K)
    while R + 1 < sum(best):
        R += 1
        while K > 2 and fits(R, K - 1):
            K -= 1
        if R + K < sum(best):
            best = (R, K)
    return best


def log_abs_gamma_sum(terms, series: StirlingSeries):
    """Sum of log|Gamma(a + iy)| over (a, y) pairs of real mpf with a > 0.

    The result is an mpf holding the fixed-point sum exactly (about
    p + STIRLING_GUARD_BITS fraction bits), so exp(2 s) taken from it loses
    nothing to a rounding of s; see the module docstring for the bound.
    """
    bits, shift, coeffs = series.bits, series.shift, series.coeffs
    one = 1 << bits
    wide = 2 * bits
    total = 0
    prod, scale = one, -bits     # the shift factors for k >= 1: prod * 2**scale
    low = fone                   # the k = 0 factors a^2 + y^2, which may be tiny: an mpf
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
        # log|Gamma(w)|, w = A + iY with A >= R: (A - 1/2) log|w| - Y arg w - A + log(2 pi)/2
        # + series, where arg w = atan(Y/A) as A > 0
        m2 = A * A + Y * Y
        log_m2 = to_fixed(mpf_log(from_man_exp(m2, -wide), bits + 8), bits)
        arg = to_fixed(mpf_atan(from_man_exp((Y << bits) // A, -bits), bits + 8), bits)
        total += (((2 * A - one) * log_m2) >> (bits + 2)) - ((Y * arg) >> bits) - A
        # Re sum_k c_k w^(1-2k) = Re (1/w) P(v), v = 1/w^2, P of real coefficients taken
        # modulo v^2 - 2 Re(v) v + |v|^2 (Knuth, TAOCP 4.6.4): two products per step
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
    total -= to_fixed(log_prod, bits - 1)        # half the log of the product
    return series.mp.make_mpf(from_man_exp(total, -bits))
