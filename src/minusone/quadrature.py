"""Double-exponential quadrature for densities with endpoint singularities.

One engine serves every integral in the package: ``build_node_table`` turns
(lo, hi) support pieces and a density into a table of nodes and weights.
The map follows from the shape of the piece alone (Takahasi & Mori, Publ.
RIMS 9 (1974); Mori & Sugihara, J. Comput. Appl. Math. 127 (2001)):

- finite pieces: tanh-sinh, which absorbs algebraic endpoint singularities
  with exponent > -1;
- half-lines: x = a +- exp(t - exp(-t)), w = (1 + exp(-t)) exp(t - exp(-t)).
  It is double-exponential into the finite end a (singular endpoints are
  absorbed as above), and x grows like exp(t) on the infinite side, so the
  terms die double-exponentially for any density that decays at least
  exponentially (every half-line piece of the catalog is gaussian);
- the whole line: sinh, double-exponential against both the gaussian and
  the |Gamma|^2 (asymptotically pure-exponential) decay.

- Guard integrand.  density * (1+x^2)**ceil(max_degree/2) stands in for
  every polynomial factor up to max_degree.  It drives the term cutoff (a
  sweep stops once four successive terms fall below ~10**-(digits+10) of
  its peak) and the convergence test (the guard sums of two successive
  meshes agree within tol).  Each sweep returns the guard terms of its new
  nodes, summed, and a piece keeps a running total, so every guard term
  is computed and added once.
- Refinement.  Each level halves the mesh and sweeps only the new odd
  multiples, reusing every earlier node.
- Stepping.  The maps take (t, e) with e = exp(|t|), and a sweep carries e
  from node to node by one multiplication by exp(step * h), rounded at
  GUARD_BITS past the working precision (Bailey, Jeyabalan & Li, Exp.
  Math. 14 (2005)); after n products e is off by about
  n 2**-(prec + GUARD_BITS), relative, far below a rounding at prec.  sinh
  then needs no transcendental call, tanh-sinh one exp, of -2|u|, and the
  half-line one exp.  The +-t rule: a node depends on |t| and the sign of
  t only, and the +t and -t sweeps of a level run the same sequence of
  products, so x(-t) = -x(t) bit for bit on the whole line.  Mirrored even
  densities (``families.weights``) rely on it: they pay for each pair +-x
  once.
- One dot product.  ``NodeTable.dot`` is the only summation over a table:
  ``integrate``, the Gram matrix and the moment check all go through it.
  Its operands are rows in block fixed point (Wilkinson, Rounding Errors in
  Algebraic Processes (1963)): Python integers over one power of two per
  row, the largest with prec + GUARD_BITS bits, smaller entries truncated
  at that scale.  The products are exact, the sum is one integer sum at C
  speed, and the result is rounded once.  Truncation moves each entry by at
  most one unit, 2**(1 - prec - GUARD_BITS) of the row's largest, so by
  Cauchy-Schwarz <a, b> is off by at most about
  4 sqrt(nodes) 2**-(prec + GUARD_BITS) |a| |b|.  With sqrt(NODE_CAP) =
  2**10 that is below one rounding at the working precision.  It sums the
  final mesh only; no coarse-mesh estimate is embedded in it.
- Node cap.  A piece stops refining at 2**20 nodes, which turns a runaway
  integrand into an explicit non-convergence report.

``integrate`` is the table built on the full integrand (max_degree = 0) plus
a dot product over it.  Its error estimate is the difference of the last two
guard sums, which are then exactly the last two trapezoid estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from mpmath.libmp import fone, from_man_exp, mpf_exp, mpf_mul, round_nearest

from .precision import PrecisionContext

NODE_CAP = 1 << 20
GUARD_BITS = 32            # bits past the working precision: fixed-point rows, stepped exp(|t|)


@dataclass
class QuadratureResult:
    value: object
    error_estimate: object
    node_count: int
    converged: bool
    levels: int = 0
    last_two: tuple = ()

    def __repr__(self):
        flag = "converged" if self.converged else "NOT CONVERGED"
        return "QuadratureResult(%s, err~%s, %d nodes, %s)" % (
            self.value, self.error_estimate, self.node_count, flag)


@dataclass
class NodeTable:
    xs: list
    weights: list          # h * phi'(t) * density(x), final-mesh scaling folded in
    levels: int
    converged: bool
    last_two: tuple        # guard sums of the last two meshes, summed over the pieces
    error: object          # sum over the pieces of |last - previous guard sum|
    mp: object             # the mpmath context the table was built in

    def bits(self):
        """Fixed-point bits of a row: the working precision plus GUARD_BITS."""
        return self.mp.prec + GUARD_BITS

    def row(self, values):
        """Real mpf values, one per node, as a block fixed-point Row."""
        mans, exps = [], []
        for x, v in zip(self.xs, values):
            if not isinstance(v, self.mp.mpf):
                raise ValueError("integrand is not real at x = %s: %s" % (x, v))
            sign, man, exp, bc = v._mpf_
            if bc < 0:
                raise ValueError("integrand is not finite at x = %s: %s" % (x, v))
            mans.append(-man if sign else man)
            exps.append(exp)
        return block_row(mans, exps, self.bits())

    def dot(self, a, b=None):
        """Sum over the nodes of a * b (b = 1 when omitted), rounded once.

        a and b are Rows; callers fold the weights into them
        (``dot(table.row(table.weights))`` is the integral of the density).
        """
        total = sum(a.mans) if b is None else sum(map(mul, a.mans, b.mans))
        exp = a.exp if b is None else a.exp + b.exp
        return self.mp.make_mpf(from_man_exp(total, exp, self.mp.prec, round_nearest))


@dataclass(frozen=True)
class Row:
    """Values mans[i] * 2**exp over the nodes of a table (block fixed point)."""
    mans: list
    exp: int


def block_row(mans, exps, bits):
    """The values mans[i] * 2**exps[i] over one exponent, as a Row.

    The exponent puts the largest value at ``bits`` bits; every smaller one
    is truncated at that scale (entries far below it become 0 or -1), so no
    integer grows past ``bits`` bits however wide the range of exps.
    """
    top = max((m.bit_length() + e for m, e in zip(mans, exps) if m), default=bits)
    exp = top - bits
    return Row([m << (e - exp) if e >= exp else m >> (exp - e) for m, e in zip(mans, exps)], exp)


def _map_tanh_sinh(lo, hi, mp):
    """x(t) evaluated as a distance from the nearer endpoint.

    With q = exp(-2|u|), u = (pi/2) sinh t, and g = q/(1+q): the offset
    1 - tanh|u| = 2g, which avoids the cancellation that would round nodes
    onto a singular endpoint, and 1/cosh(u)^2 = 4g/(1+q).  phi returns None
    once the offset underflows against the endpoint itself.
    """
    width = hi - lo
    rate = -mp.pi / 2            # -2|u| = rate * (e - 1/e)
    scale = width * mp.pi / 2    # w = scale * (e + 1/e) * g / (1 + q)

    def phi(t, e):
        r = 1 / e
        q = mp.exp(rate * (e - r))
        d = 1 + q
        g = q / d
        if t >= 0:
            x = hi - width * g
            if x == hi and hi != 0:
                return None
        else:
            x = lo + width * g
            if x == lo and lo != 0:
                return None
        return x, scale * (e + r) * g / d
    return phi


def _map_half_line(anchor, direction, mp):
    """x(t) = anchor + direction * exp(t - exp(-t)).

    Double-exponential into the finite end; on the infinite side x grows
    like exp(t), so a density decaying at least exponentially in x gives
    terms that die double-exponentially in t.
    """
    def phi(t, e):
        if t >= 0:
            d = 1 / e                  # exp(-t)
            g = e * mp.exp(-d)         # exp(t - exp(-t))
        else:
            d = e
            g = mp.exp(-d) / e
        x = anchor + direction * g
        if x == anchor:
            return None
        return x, (1 + d) * g
    return phi


def _map_sinh(mp):
    def phi(t, e):
        r = 1 / e
        x = (e - r) / 2
        return (x if t >= 0 else -x), (e + r) / 2
    return phi


def _component_map(lo, hi, mp):
    lo_inf = mp.isinf(lo)
    hi_inf = mp.isinf(hi)
    if not lo_inf and not hi_inf:
        return _map_tanh_sinh(lo, hi, mp)
    if lo_inf and hi_inf:
        return _map_sinh(mp)
    if lo_inf:
        return _map_half_line(hi, mp.mpf(-1), mp)
    return _map_half_line(lo, mp.mpf(1), mp)


def build_node_table(pieces, density, ctx: PrecisionContext, tol, max_degree, max_levels=12):
    """Quadrature nodes for every (lo, hi) support piece of a density.

    Each piece is refined until its guard sum converges, max_levels meshes
    have been swept or it holds NODE_CAP nodes, so the table is valid for
    polynomial factors up to max_degree.  (The guard must be smooth: a
    |x|**d factor would spoil the double-exponential trapezoid convergence
    with its kink.)
    """
    mp = ctx.mp
    tol = mp.mpf(tol)
    eps_term = ctx.tol(-10)        # ~1e-(digits+10): term cutoff relative to the peak
    gd = (max_degree + 1) // 2
    xs, ws = [], []
    levels_used = 0
    converged_all = True
    last_two = (mp.mpf(0), mp.mpf(0))
    error = mp.mpf(0)

    for lo, hi in pieces:
        phi = _component_map(mp.mpf(lo), mp.mpf(hi), mp)
        pts = {}          # integer multiple of current h -> (x, w*density)
        h = mp.mpf(1)
        previous = mp.mpf(0)       # a single mesh is compared against 0
        total = mp.mpf(0)          # sum of w*density*(1+x^2)**gd over pts
        level = 0
        while True:
            total += _sweep_level(phi, h, level, pts, density, mp, eps_term, gd)
            guard = h * total
            converged = level > 0 and abs(guard - previous) <= tol * max(abs(guard), mp.mpf(1))
            if converged or level + 1 >= max_levels or len(pts) >= NODE_CAP:
                break
            previous = guard
            h = h / 2
            level += 1
        levels_used = max(levels_used, level + 1)
        converged_all = converged_all and converged
        last_two = (last_two[0] + previous, last_two[1] + guard)
        error += abs(guard - previous)
        for _, (x, w) in sorted(pts.items()):
            xs.append(x)
            ws.append(h * w)
    return NodeTable(xs=xs, weights=ws, levels=levels_used,
                     converged=converged_all, last_two=last_two, error=error, mp=mp)


def _sweep_level(phi, h, level, pts, density, mp, eps_term, gd):
    """Add this level's nodes to pts, sweeping outward until terms die off.

    Keys are integer multiples of the current mesh h; on refinement the
    existing keys double.  Returns the sum of the guard terms
    w*density*(1+x^2)**gd over the new nodes.  Both sweeps carry
    e = exp(|t|) through the same products (module docstring, Stepping).
    """
    def handle(k, e):
        node = phi(k * h, mp.make_mpf(e))
        if node is None:       # abscissa saturated onto an endpoint
            return None
        x, w = node
        wd = w * density(x)
        pts[k] = (x, wd)
        return wd * (1 + x * x) ** gd

    added = mp.mpf(0)
    if level == 0:
        step = 1
        g = handle(0, fone)
        if g is None:
            return added
        added += g
    else:
        _double_keys(pts)
        step = 2
    wp = mp.prec + GUARD_BITS
    first = mpf_exp(h._mpf_, wp)               # exp(h): both sweeps start at |k| = 1
    factor = mpf_exp((step * h)._mpf_, wp)

    for direction in (1, -1):
        small_run = 0
        peak = mp.mpf(0)
        cut = eps_term * eps_term           # eps_term * max(peak, eps_term)
        k, e = direction, first
        while True:
            g = handle(k, e)
            if g is None:
                break
            added += g
            r = abs(g)
            if r > peak:
                peak = r
                cut = eps_term * max(peak, eps_term)
            if r < cut:
                small_run += 1
                if small_run >= 4:
                    break
            else:
                small_run = 0
            k += step * direction
            e = mpf_mul(e, factor, wp, round_nearest)
            if len(pts) >= NODE_CAP:
                return added
    return added


def _double_keys(pts):
    for key in sorted(pts.keys(), key=abs, reverse=True):
        pts[2 * key] = pts.pop(key)


def _result(table):
    value = table.dot(table.row(table.weights))
    return QuadratureResult(value=value, error_estimate=table.error,
                            node_count=len(table.xs), converged=table.converged,
                            levels=table.levels, last_two=table.last_two)


def integrate_component(f, lo, hi, ctx: PrecisionContext, tol, max_levels=12):
    """DE quadrature of f over one support piece."""
    return _result(build_node_table([(lo, hi)], f, ctx, tol, 0, max_levels))


def integrate(weight_or_pieces, f, ctx: PrecisionContext, tol=None):
    """Integrate density*f over a weight's support (or a raw list of pieces).

    Accepts a WeightSpec-like object with ``components`` and ``density`` or a
    plain list of (lo, hi) pairs (then ``f`` is the full integrand).  The
    integrand must be real.  Returns a QuadratureResult; non-convergence of
    any piece marks the total.
    """
    if tol is None:
        tol = ctx.tol(8)
    if hasattr(weight_or_pieces, "components"):
        spec = weight_or_pieces
        pieces, integrand = spec.total_support(), lambda x: spec.density(x) * f(x)
    else:
        pieces, integrand = weight_or_pieces, f
    return _result(build_node_table(pieces, integrand, ctx, tol, 0))
