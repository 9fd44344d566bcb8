"""Dense polynomial and rational-function algebra over context-precision complex numbers.

Polynomials are coefficient tuples, lowest power first.  All structural
operations (add, mul, reflect, differentiate, shift) are exact at the
working precision; only zero tests on remainders involve tolerances, and
those follow a two-threshold rule so that "the singular parts cancel" is a
falsifiable assertion rather than silent rounding:

* relative remainder below ``10**(6 - digits)``  -> treated as zero,
* between that and ``10**(10 - digits)``          -> ReductionAmbiguityError,
* above                                           -> genuinely nonzero.
"""

from __future__ import annotations

from .precision import PrecisionContext


class ReductionAmbiguityError(ArithmeticError):
    """Remainder too small to trust, too large to discard."""


class NonDivisibleError(ArithmeticError):
    """Exact polynomial division was required but a remainder survived."""


class Poly:
    """Immutable dense polynomial; coeffs[k] multiplies x**k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            coeffs = (0,)
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value):
        return cls((value,))

    @classmethod
    def x(cls, ctx: PrecisionContext):
        return cls((ctx.mp.mpc(0), ctx.mp.mpc(1)))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self[k] + other[k] for k in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self[k] - other[k] for k in range(n)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, factor):
        return Poly(tuple(c * factor for c in self.coeffs))

    def evaluate(self, z):
        """Horner evaluation at a complex point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def reflect(self):
        """p(x) -> p(-x): flips the sign of odd coefficients."""
        return Poly(tuple(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)))

    def differentiate(self):
        if len(self.coeffs) == 1:
            return Poly((0 * self.coeffs[0],))
        return Poly(tuple(k * self.coeffs[k] for k in range(1, len(self.coeffs))))

    def shift(self, delta):
        """p(x) -> p(x + delta) by synthetic Taylor shift (exact binomial re-expansion)."""
        out = list(self.coeffs)
        n = len(out)
        for i in range(n - 1):
            for k in range(n - 2, i - 1, -1):
                out[k] = out[k] + delta * out[k + 1]
        return Poly(out)

    def dilate(self, s):
        """p(x) -> p(s*x)."""
        out, power = [], 1
        for c in self.coeffs:
            out.append(c * power)
            power = power * s
        return Poly(out)

    def coeff_norm(self):
        return max(abs(c) for c in self.coeffs)

    def trim(self, ctx: PrecisionContext, rel: int = 6):
        """Drop trailing coefficients tiny relative to the coefficient norm."""
        norm = self.coeff_norm()
        if norm == 0:
            return Poly((self.coeffs[0],))
        cut = norm * ctx.tol(rel)
        k = len(self.coeffs) - 1
        while k > 0 and abs(self.coeffs[k]) <= cut:
            k -= 1
        return Poly(self.coeffs[: k + 1])

    def monic(self, ctx: PrecisionContext):
        p = self.trim(ctx)
        lead = p.coeffs[-1]
        if lead == 0:
            raise ZeroDivisionError("zero polynomial cannot be made monic")
        return Poly(tuple(c / lead for c in p.coeffs))

    def realify(self, ctx: PrecisionContext, rel: int = 6):
        """Strip imaginary parts that are negligible relative to the norm."""
        mp = ctx.mp
        norm = self.coeff_norm()
        cut = norm * ctx.tol(rel)
        out = []
        for c in self.coeffs:
            c = mp.mpc(c)
            out.append(mp.mpc(mp.re(c), 0) if abs(mp.im(c)) <= cut else c)
        return Poly(out)

    def __repr__(self):
        return "Poly(%s)" % (list(self.coeffs),)


def poly_eq(p: Poly, q: Poly, ctx: PrecisionContext, rel: int = 8):
    """Coefficient-wise comparison, tolerance relative to the larger coefficient norm."""
    scale = max(p.coeff_norm(), q.coeff_norm())
    if scale == 0:
        return True
    return poly_distance(p, q) <= scale * ctx.tol(rel)


def poly_distance(p: Poly, q: Poly):
    n = max(len(p.coeffs), len(q.coeffs))
    return max(abs(p[k] - q[k]) for k in range(n))


def poly_rel_distance(p: Poly, q: Poly):
    """max |p_k - q_k| / max(norm(p), norm(q)); 0 for two zero polynomials."""
    scale = max(p.coeff_norm(), q.coeff_norm())
    if scale == 0:
        return scale
    return poly_distance(p, q) / scale


def divmod_poly(p: Poly, d: Poly, ctx: PrecisionContext):
    """Long division p = q*d + r with deg r < deg d."""
    d = d.trim(ctx)
    if d.coeff_norm() == 0:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(p.coeffs)
    dn = len(d.coeffs)
    lead = d.coeffs[-1]
    if len(rem) < dn:
        return Poly((0 * lead,)), Poly(rem)
    quot = [0] * (len(rem) - dn + 1)
    for k in range(len(rem) - dn, -1, -1):
        c = rem[k + dn - 1] / lead
        quot[k] = c
        if c != 0:
            for j in range(dn):
                rem[k + j] -= c * d.coeffs[j]
    return Poly(quot), Poly(rem[: dn - 1] or [0 * lead])


def remainder_class(rem: Poly, scale, ctx: PrecisionContext):
    """Two-threshold zero test: 'zero' | 'ambiguous' | 'nonzero'."""
    if scale == 0:
        return "zero"
    r = rem.coeff_norm() / scale
    if r < ctx.tol(6):
        return "zero"
    if r < ctx.tol(10):
        return "ambiguous"
    return "nonzero"


def divide_exact(p: Poly, d: Poly, ctx: PrecisionContext):
    """Division that must be exact; remainder handled by the two-threshold rule."""
    q, r = divmod_poly(p, d, ctx)
    scale = max(p.coeff_norm(), (q * d).coeff_norm())
    cls = remainder_class(r, scale, ctx)
    if cls == "zero":
        return q
    if cls == "ambiguous":
        raise ReductionAmbiguityError(
            "remainder of relative size %s is in the ambiguity band" % ctx.mp.nstr(r.coeff_norm() / scale))
    raise NonDivisibleError("polynomial division left a genuine remainder")


def poly_gcd(p: Poly, q: Poly, ctx: PrecisionContext):
    """Tolerant Euclid; remainders are classified by the two-threshold rule."""
    a = p.trim(ctx)
    b = q.trim(ctx)
    if b.coeff_norm() == 0:
        return a
    if a.coeff_norm() == 0:
        return b
    while True:
        if b.degree > a.degree:
            a, b = b, a
        _, r = divmod_poly(a, b, ctx)
        cls = remainder_class(r, max(a.coeff_norm(), b.coeff_norm()), ctx)
        if cls == "zero":
            return b.monic(ctx)
        if cls == "ambiguous":
            raise ReductionAmbiguityError("gcd remainder fell in the ambiguity band")
        a, b = b, r.trim(ctx)
        if b.degree == 0:
            return Poly((1 + 0 * b.coeffs[0],))


class RationalFunction:
    """Ratio of two polynomials; canonical form has a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.constant(1)
        self.num = num
        self.den = den

    def __add__(self, other):
        other = _as_rational(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = _as_rational(other)
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = _as_rational(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def evaluate(self, z):
        return self.num.evaluate(z) / self.den.evaluate(z)

    def reduce(self, ctx: PrecisionContext):
        """Cancel common factors and normalize the denominator monic.  Idempotent."""
        num = self.num.trim(ctx)
        den = self.den.trim(ctx)
        if num.coeff_norm() == 0:
            return RationalFunction(Poly.constant(0 * den.coeffs[0]), Poly.constant(1))
        g = poly_gcd(num, den, ctx)
        if g.degree > 0:
            num = divide_exact(num, g, ctx)
            den = divide_exact(den, g, ctx)
        lead = den.coeffs[-1]
        num = Poly(tuple(c / lead for c in num.coeffs))
        den = Poly(tuple(c / lead for c in den.coeffs))
        return RationalFunction(num, den)

    def is_polynomial(self, ctx: PrecisionContext):
        """Return the quotient polynomial when the reduced denominator is constant, else None."""
        q, r = divmod_poly(self.num, self.den, ctx)
        scale = max(self.num.coeff_norm(), (q * self.den).coeff_norm())
        cls = remainder_class(r, scale, ctx)
        if cls == "zero":
            return q
        if cls == "ambiguous":
            raise ReductionAmbiguityError("singular part is neither cleanly zero nor nonzero")
        return None

    def __repr__(self):
        return "RationalFunction(%r / %r)" % (self.num, self.den)


def _as_rational(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Poly):
        return RationalFunction(value)
    return RationalFunction(Poly.constant(value))


def hyp_terminating_poly(n: int, numerators, denominators, z, ctx: PrecisionContext):
    """Terminating pFq sum whose numerator parameters and argument may be polynomials.

    ``numerators`` may mix scalars and :class:`Poly` values (the series in a
    family's variable x enters through degree-1 parameters such as i*x/2 + b);
    denominators must be scalars; ``z`` may be a scalar or a Poly.  Returns
    sum_{k=0..n} [prod (num)_k / prod (den)_k] z^k / k! as a Poly.
    """
    mp = ctx.mp
    nums = [a if isinstance(a, Poly) else Poly.constant(mp.mpc(a)) for a in numerators]
    dens = [mp.mpc(b) for b in denominators]
    zp = z if isinstance(z, Poly) else Poly.constant(mp.mpc(z))

    total = Poly.constant(mp.mpc(0))
    term = Poly.constant(mp.mpc(1))
    for k in range(n + 1):
        total = total + term
        if k == n:
            break
        den_factor = mp.mpc(1)
        for b in dens:
            if abs(b + k) <= ctx.tol(6) * max(1, abs(b)):
                from .precision import ZeroDenominatorError
                raise ZeroDenominatorError("denominator parameter %s exhausted at k=%d" % (mp.nstr(b), k))
            den_factor *= b + k
        den_factor *= k + 1
        for a in nums:
            term = term * (a + Poly.constant(mp.mpc(k)))
        term = term * zp
        term = term.scale(1 / den_factor)
    return total
