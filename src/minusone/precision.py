"""Configurable-precision arithmetic and the special-function primitives.

Every numeric routine in this package is a pure function of its inputs plus
an explicitly passed :class:`PrecisionContext`.  A context owns a private
mpmath context (so two contexts never share global state) and runs it with
guard digits on top of the advertised precision; tolerances quoted against
``digits`` therefore have headroom.

Complex values are plain ``mpf``/``mpc`` instances belonging to the
context.  Conjugation, modulus and arithmetic behave as usual; all special
functions here respect ``f(conj(z)) == conj(f(z))``.
"""

from __future__ import annotations

from mpmath.ctx_mp import MPContext

GUARD_DIGITS = 15


class GammaPoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


class ZeroDenominatorError(ZeroDivisionError):
    """A denominator Pochhammer hit a non-positive integer inside the sum."""


class PrecisionContext:
    """Decimal working precision shared by a computation.

    Parameters
    ----------
    digits : int
        Decimal significant digits guaranteed for well-conditioned results.
        Must be at least 15.  The internal mpmath context runs at
        ``digits + GUARD_DIGITS``.
    """

    def __init__(self, digits: int = 50):
        digits = int(digits)
        if digits < 15:
            raise ValueError("precision must be at least 15 digits, got %d" % digits)
        self.digits = digits
        ctx = MPContext()
        ctx.dps = digits + GUARD_DIGITS
        self.mp = ctx

    def real(self, value):
        """Parse a real number (decimal strings stay exact to full precision)."""
        return self.mp.mpf(value)

    def complex(self, re, im=0):
        return self.mp.mpc(self.mp.mpf(re), self.mp.mpf(im))

    def tol(self, offset: int):
        """Return 10**(offset - digits); e.g. ``tol(4)`` is 1e-46 at 50 digits."""
        return self.mp.mpf(10) ** (offset - self.digits)

    def nstr(self, x, n=None):
        return self.mp.nstr(x, n or self.digits, strip_zeros=False)

    def __repr__(self):
        return "PrecisionContext(digits=%d)" % self.digits


def is_nonpositive_integer(z, ctx: PrecisionContext, slack: int = 6):
    """Return n >= 0 such that z == -n, or None.

    Accepts complex input; the match tolerance is 10**(slack-digits) so that
    parameters assembled from exact rationals are recognized while generic
    reals are not.
    """
    mp = ctx.mp
    z = mp.mpc(z)
    if abs(mp.im(z)) > ctx.tol(slack):
        return None
    re = mp.re(z)
    n = int(mp.nint(re))
    if n > 0:
        return None
    if abs(re - n) > ctx.tol(slack):
        return None
    return -n


def gamma(z, ctx: PrecisionContext):
    """Complex gamma function under the context precision.

    Raises :class:`GammaPoleError` at z in {0, -1, -2, ...}.
    """
    mp = ctx.mp
    z = mp.mpc(z)
    if is_nonpositive_integer(z, ctx) is not None:
        raise GammaPoleError("gamma pole at z = %s" % mp.nstr(z))
    try:
        value = mp.gamma(z)
    except ValueError as exc:
        raise GammaPoleError(str(exc)) from exc
    if mp.im(z) == 0:
        return mp.mpc(mp.re(value), 0) if mp.im(value) != 0 else value
    return value


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
