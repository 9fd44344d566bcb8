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

- Offsets.  Each map returns, with x and w, the node's offsets x - lo and
  hi - x from the ends of its piece (infinite towards an infinite end).
  It computes the offset from the nearer end first (width * q/(1+q) in
  tanh-sinh, exp(t - exp(-t)) on a half-line) and forms x from it, so
  neither offset suffers cancellation.  The density is called as
  density(x, x - lo, hi - x) (every weight spec's takes the offsets, see
  ``families.weights``).  It builds each factor that vanishes at an
  endpoint from them, and keeps its relative accuracy where x rounds onto
  the endpoint (the (x, xc) integrand of Boost.Math's tanh_sinh).
- Stop rule.  A sweep ends at the term cutoff (Guard integrand, below) or
  at the node cap.  No map offset is ever 0: the offsets do not underflow
  (their exponents are unbounded), so a sweep runs past the node where x
  rounds onto its endpoint.  The mass below that node, at offsets under
  about eps |endpoint|, is 2 sqrt(eps |endpoint|) for an offset^(-1/2)
  singularity: a stop there would floor the error near the square root of
  the working precision.  A piece whose ends coincide at the working
  precision gets no node, and does not converge.
- Guard integrand.  density * (1+x^2)**ceil(max_degree/2) stands in for
  every polynomial factor up to max_degree.  It drives the term cutoff (a
  sweep stops once four successive terms fall below ~10**-(digits+10) of
  its peak) and the convergence test (next).  Each sweep returns the guard
  terms of its new nodes, summed, and a piece keeps a running total, so
  every guard term is computed and added once.
- Convergence.  With g_k the guard sum of a piece on mesh k (h = 2**-k)
  and d_k = |g_k - g_(k-1)|, the piece accepts mesh k >= 1 when
    d_k <= tol |g_k|                                   (two-mesh rule), or
    k >= 2 and d_k**2 <= (tol / MODEL_MARGIN) |g_k| d_(k-1)  (error model).
  The model is the double-exponential one (Bailey, Jeyabalan & Li; Mori &
  Sugihara): each halving of h about doubles the correct digits, so the
  error of mesh k is about E_k = d_k**2 / d_(k-1).  Where it engages, it
  saves the last mesh of the two-mesh rule, half the piece's nodes, which
  mostly certifies the mesh before.  A table's ``error`` is the predicted
  error of each piece's last mesh, E_k where the model accepted it and
  d_k otherwise, summed over the pieces; the tests check it against a
  table one mesh finer.
  - MODEL_MARGIN = 1000.  With 1, continuous Bannai-Ito keeps 14.2 digits
    of Gram headroom at 20 digits, short of the 15 the tests ask.
  - Both tests scale by |g_k|, so they are relative at any mass.  A scale
    of max(|g_k|, 1) accepted the second mesh of a piece 1e-12 wide: 31
    nodes, off by 7e-5.
  - The model rarely engages at 50 digits.  Measured at the first fixture
    point, the digits grow about 2.4 times per halving, not 2: big -1
    Jacobi moves by d = 1e-7, then 1e-18, so the model predicts 1e-29.
    That beats the 15-digit node tolerance 1e-22 / 1000, not the 50-digit
    1e-40 / 1000, and the next mesh (it moves by 1e-43) is then accepted
    by the two-mesh rule.
  - Do not sharpen the model by fitting the exponent,
    E = d_k**(log d_k / log d_(k-1)).  On Hermite at 15 digits (d = 5e-4,
    then 5e-11) that predicts 5e-33, and the next mesh moves by 2e-25.
- Refinement.  Each level halves the mesh and sweeps only the new odd
  multiples, reusing every earlier node.
- Sweep arithmetic.  The maps and the sweep work on Python integers, at
  b = p + GUARD_BITS bits (p the working precision).  e = exp(|t|), carried
  from node to node by one multiplication by exp(step * h) (Bailey,
  Jeyabalan & Li, Exp. Math. 14 (2005)), 1/e and the bounded values built
  from them are fixed point at 2**-b; after n products e is off by about
  n 2**-b, relative.  q = exp(-2|u|), exp(-exp(-t)), the offsets, w and
  the guard terms are (man, exp) pairs, so an offset of 1e-300 keeps b
  bits; x is anchor +- offset (``_x``).  Guard terms compare as (exp, man)
  keys and are summed in block fixed point (One dot product) when the
  sweep ends.  A piece's running total of those sums is cut b bits below
  its own top, as a row is, so no integer grows with the density's range.  Only x, the offsets handed to the density and the table's
  (x, h * w * density) become libmp values, rounded at p.  A tanh-sinh
  node at -t reuses its twin's at +t.  Per swept node (max_degree 16):
  tanh-sinh 11 multiplications, 4 divisions, one exp_basecase and 3
  roundings (its -t twin 7, 1, 0, 3), half-line 9, 2, 1, 2, sinh 7, 1,
  0, 1; a table node adds one rounding.  On the first fixture points'
  Gram tables (2-vCPU VM, density values from a dict, medians of five
  runs), in us per table node, against the same sweep on libmp values
  rounded after every operation (the integers row re-measured after the
  running total was cut to b bits; before the cut it read 9.1, 9.1 and
  11.1 in the same session):

      digits            15     50    100
      libmp values    21.8   23.7   27.1
      integers         9.0    8.9   11.0

- Even weights.  A node depends on |t| and the sign of t only, and the +t
  and -t sweeps of a level run the same sequence of products, so on a
  piece with lo = -hi, x(-t) = -x(t) and w(-t) = w(t) bit for bit.  With
  ``even`` (``WeightSpec.even``: density(-x, hi_off, lo_off) equals
  density(x, lo_off, hi_off) bit for bit, and the pieces are closed under
  x -> -x) such a piece sweeps +t only and appends each node's mirror,
  (-x, same weight), adding the same guard terms: the table is the full
  sweep's, bit for bit.  A piece whose mirror was already built copies it,
  negated; that is its own sweep's table, guard sums and ``error``
  included, since the block sums do not depend on the order of their
  terms.  The density is then called for about half of the nodes.
  ``integrate`` never passes ``even``: its f need not be even.
- One dot product.  ``NodeTable.dot`` is the only summation over a table:
  ``integrate`` and the Gram matrix both go through it.  Its operands are
  rows in block fixed point (Wilkinson, Rounding Errors in Algebraic
  Processes (1963)): Python integers over one power of two per row, the
  largest with prec + GUARD_BITS bits, smaller entries truncated at that
  scale.  The products are exact, the sum is one integer sum at C
  speed, and the result is rounded once.  Truncation moves each entry by at
  most one unit, 2**(1 - prec - GUARD_BITS) of the row's largest, so by
  Cauchy-Schwarz <a, b> is off by at most about
  4 sqrt(nodes) 2**-(prec + GUARD_BITS) |a| |b|.  With sqrt(NODE_CAP) =
  2**10 that is below one rounding at the working precision.  It sums the
  final mesh only; no coarse-mesh estimate is embedded in it.
- Node cap.  A piece holds at most NODE_CAP = 2**20 nodes: a sweep adds no
  node past it, and the piece then stops refining, unconverged, which turns
  a runaway integrand into an explicit non-convergence report.

``integrate`` is the table built on density * f (max_degree = 0) plus a dot
product over it.  Its error estimate is the table's predicted error
(Convergence), and its last two guard sums are then exactly the last two
trapezoid estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from mpmath.libmp import (from_man_exp, fzero, ln2_fixed, mpf_neg, mpf_pi, mpf_sub,
                          round_nearest as RND, to_fixed)
from mpmath.libmp.libelefun import exp_basecase

from .precision import PrecisionContext

NODE_CAP = 1 << 20
MAX_LEVELS = 12            # meshes per piece: h = 1, 1/2, ..., 2**-11
GUARD_BITS = 32            # bits past the working precision: fixed-point rows, the sweep's integers
MODEL_MARGIN = 1000        # the error model must predict tol / MODEL_MARGIN (module docstring)


@dataclass
class QuadratureResult:
    value: object
    error_estimate: object
    node_count: int
    converged: bool
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
    error: object          # sum over the pieces of the predicted error of the last mesh
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
        return self.mp.make_mpf(from_man_exp(total, exp, self.mp.prec, RND))


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


def _pair(v, bits):
    """A finite nonzero libmp value as (man, exp), man a signed integer of ``bits`` bits."""
    sign, man, exp, bc = v
    shift = bits - bc
    return (-man if sign else man) << shift, exp - shift


def _anchor(v, bits):
    """A libmp endpoint as the (man, exp) of ``_x``: man of ``bits`` bits, None for 0."""
    return _pair(v, bits) if v[1] else None


def _x(anchor, sign, m, e, bits):
    """anchor + sign * m 2**e as (man, exp): the node x of a map.

    Exact, except that an offset far below the anchor is truncated, in
    magnitude, 2**-bits below the anchor's last bit; x(-t) = -x(t) holds
    bit for bit on a piece with lo = -hi.  Next to an endpoint at 0 (anchor
    None) x is the offset itself, at its relative accuracy.
    """
    if anchor is None:
        return sign * m, e
    am, ae = anchor
    z = max(min(e, ae), ae - bits)
    return (am << ae - z) + sign * (m << e - z if e >= z else m >> z - e), z


def _map_tanh_sinh(lo, hi, mp):
    """x(t) evaluated as a distance from the nearer endpoint.

    With q = exp(-2|u|), u = (pi/2) sinh t: the offset from the nearer end
    is width * q/(1+q) (width times 1 - tanh|u|, over 2), without the
    cancellation that would round nodes onto a singular endpoint; the
    offset from the other end is width minus it, at least width/2, and
    1/cosh(u)^2 = 4q/(1+q)^2.
    """
    bits = mp.prec + GUARD_BITS
    one = 1 << bits
    lo, hi = lo._mpf_, hi._mpf_
    width_m, width_e = _pair(mpf_sub(hi, lo, bits, RND), bits)
    pi = to_fixed(mpf_pi(bits + 8), bits)
    ln2 = ln2_fixed(bits)
    anchors = _anchor(hi, bits), _anchor(lo, bits)
    swept = {}                     # e -> (near_m, n, w_m) of the node at +t, for the one at -t

    def phi(k, level, e, r):
        if k < 0 and e in swept:
            near_m, n, w_m = swept.pop(e)
        else:
            n, f = divmod(-pi * (e - r) >> bits + 1, ln2)          # -2|u| = n log 2 + f, n <= 0
            qm = exp_basecase(f, bits)                              # q = qm 2**(n - bits) <= 1
            d = one + (qm >> -n)                                    # 1 + q
            near_m = width_m * qm // d
            w_m = (pi * (e + r) >> bits + 1) * near_m // d
            if k > 0:
                swept[e] = near_m, n, w_m
        near, w = (near_m, width_e + n), (w_m, width_e + n)
        far = width_m - (near_m >> -n), width_e
        x = _x(anchors[k < 0], 1 if k < 0 else -1, near_m, width_e + n, bits)
        return (x, w, near, far) if k < 0 else (x, w, far, near)
    return phi


def _map_half_line(anchor, direction, mp):
    """x(t) = anchor + direction * exp(t - exp(-t)).

    Double-exponential into the finite end; on the infinite side x grows
    like exp(t), so a density decaying at least exponentially in x gives
    terms that die double-exponentially in t.  exp(t - exp(-t)) is the
    offset from the finite end.
    """
    bits = mp.prec + GUARD_BITS
    one = 1 << bits
    ln2 = ln2_fixed(bits)
    anchor = _anchor(anchor._mpf_, bits)

    def phi(k, level, e, r):
        d = e if k < 0 else r                                       # exp(-t)
        n, f = divmod(-d, ln2)
        gm, ge = exp_basecase(f, bits), n - bits                    # exp(-exp(-t))
        gm = gm * (r if k < 0 else e) >> bits                       # exp(t - exp(-t))
        w = (one + d) * gm >> bits, ge
        x = _x(anchor, direction, gm, ge, bits)
        return (x, w, (gm, ge), None) if direction > 0 else (x, w, None, (gm, ge))
    return phi


def _map_sinh(mp):
    exp = -(mp.prec + GUARD_BITS) - 1

    def phi(k, level, e, r):
        return ((r - e if k < 0 else e - r), exp), (e + r, exp), None, None
    return phi


def _component_map(lo, hi, mp):
    """The map of a (lo, hi) piece, phi(k, level, e, r).

    phi gives the node at t = k 2**-level from e = exp(|t|) and r = 1/e,
    fixed point at 2**-(prec + GUARD_BITS): x, w, x - lo and hi - x as
    (man, exp) pairs, None for an infinite offset (module docstring, Sweep
    arithmetic).
    """
    lo_inf = mp.isinf(lo)
    hi_inf = mp.isinf(hi)
    if not lo_inf and not hi_inf:
        return _map_tanh_sinh(lo, hi, mp)
    if lo_inf and hi_inf:
        return _map_sinh(mp)
    if lo_inf:
        return _map_half_line(hi, -1, mp)
    return _map_half_line(lo, 1, mp)


def build_node_table(pieces, density, ctx: PrecisionContext, tol, max_degree, even=False):
    """Quadrature nodes for every (lo, hi) support piece of a density.

    Each piece is refined until its guard sum converges (module docstring,
    Convergence), MAX_LEVELS meshes have been swept or it holds NODE_CAP
    nodes, so the table is valid for polynomial factors up to max_degree.
    (The guard must be smooth: a |x|**d factor would spoil the
    double-exponential trapezoid convergence with its kink.)  A piece whose
    ends coincide at the working precision is settled before any sweep: no
    node, level 0, not converged, guard sums 0.  The nodes are listed in sweep
    order, which no reader of a table depends on.  The density is called as
    density(x, x - lo, hi - x), the offsets as the map computes them (module
    docstring, Offsets).  With ``even``, the density is even and the pieces
    are closed under x -> -x, and each pair +-x is swept once (module
    docstring, Even weights).  A density value that is not real or not
    finite raises ValueError at its node.
    """
    mp = ctx.mp
    prec = mp.prec
    tol = mp.mpf(tol)
    eps_term = ctx.tol(-10)._mpf_  # ~1e-(digits+10): term cutoff relative to the peak
    gd = (max_degree + 1) // 2
    make = mp.make_mpf
    xs, ws = [], []
    levels_used = 0
    converged_all = True
    last_two = (mp.mpf(0), mp.mpf(0))
    error = mp.mpf(0)
    built = {}                     # (lo, hi) -> its piece, for the mirror of an even weight

    for lo, hi in pieces:
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        twin = built.get((-hi, -lo)) if even else None
        if lo == hi:               # zero width at this precision: no node, not converged
            piece = [], 0, False, mp.mpf(0), mp.mpf(0), mp.mpf(0)
        elif twin is None:
            piece = built[lo, hi] = _refine(_component_map(lo, hi, mp), density, mp, tol,
                                            eps_term, gd, even and lo == -hi)
        else:                      # the twin's nodes, negated
            piece = ([(mpf_neg(x), w) for x, w in twin[0]],) + twin[1:]
        pts, level, converged, previous, guard, predicted = piece
        levels_used = max(levels_used, level + 1)
        converged_all = converged_all and converged
        last_two = (last_two[0] + previous, last_two[1] + guard)
        error += predicted
        for x, (wm, we) in pts:
            xs.append(make(x))
            ws.append(make(_round(wm, we - level, prec)))   # h * w: h = 2**-level
    return NodeTable(xs=xs, weights=ws, levels=levels_used,
                     converged=converged_all, last_two=last_two, error=error, mp=mp)


def _refine(phi, density, mp, tol, eps_term, gd, mirror):
    """One piece, refined mesh by mesh (module docstring, Convergence).

    Returns (pts, level, converged, previous, guard, predicted): its nodes
    in sweep order, each x as a libmp value with w * density as (man, exp),
    its last level, whether it converged, its guard sums on the last two
    meshes and the predicted error of the last.
    """
    model_tol = tol / MODEL_MARGIN
    pts = []
    previous = mp.mpf(0)           # a single mesh is compared against 0
    change = None                  # d_(k-1), the change at the level before
    total = 0, 0                   # sum of w*density*(1+x^2)**gd over pts, as (man, exp)
    level = 0
    while True:
        total = _sum(total, _sweep_level(phi, level, pts, density, mp, eps_term, gd, mirror),
                     mp.prec + GUARD_BITS)
        guard = mp.make_mpf(_round(total[0], total[1] - level, mp.prec))   # h * total
        d = predicted = abs(guard - previous)
        scale = abs(guard)
        converged = level > 0 and d <= tol * scale
        if not converged and level > 1 and d * d <= model_tol * scale * change:
            converged, predicted = True, d * d / change
        if converged or level + 1 >= MAX_LEVELS or len(pts) >= NODE_CAP:
            return pts, level, converged, previous, guard, predicted
        previous, change = guard, d
        level += 1


def _sum(a, b, bits):
    """a + b for (man, exp) pairs, cut ``bits`` bits below its top as ``block_row`` cuts a row."""
    row = block_row([a[0], b[0]], [a[1], b[1]], bits)
    return sum(row.mans), row.exp


def _sweep_level(phi, level, pts, density, mp, eps, gd, mirror):
    """Add this level's nodes to pts, sweeping outward until terms die off.

    Node k sits at t = k 2**-level.  Each sweep ends at the term cutoff or
    where pts holds NODE_CAP nodes (module docstring, Stop rule), the node
    cap checked once, before a node is added.  Returns the sum of the guard
    terms w*density*(1+x^2)**gd over the new nodes, as (man, exp).  Both
    sweeps carry e = exp(|t|) through the same products (module docstring,
    Sweep arithmetic).  With ``mirror`` the -t sweep repeats the +t sweep
    negated, up to the cap (module docstring, Even weights).
    """
    prec = mp.prec
    bits = prec + GUARD_BITS
    one = 1 << bits
    make = mp.make_mpf
    inf = mp.inf
    one_squared = one << bits
    term_m, term_e = [], []

    def handle(k, e):
        """Node k: append (x, w * density) to pts and its guard term to the term lists.

        Returns the term's ``_key``."""
        x, (wm, we), lo_off, hi_off = phi(k, level, e, one_squared // e)
        x = _round(*x, prec)
        value = density(make(x), inf if lo_off is None else make(_round(*lo_off, prec)),
                        inf if hi_off is None else make(_round(*hi_off, prec)))
        try:
            sign, vm, ve, bc = value._mpf_
        except AttributeError:
            sign, vm, ve, bc = _real(value, x, mp)
        if bc < 0:
            raise ValueError("integrand is not finite at x = %s: %s" % (make(x), value))
        g = wm * vm
        pts.append((x, (-g if sign else g, we + ve)))
        _, xm, xe, _ = x
        shift = xe + bits
        xf = xm << shift if shift >= 0 else xm >> -shift                # |x| at 2**-bits
        p, n = one + (xf * xf >> bits), gd                              # g *= (1 + x^2)**gd
        while n:
            if n & 1:
                g = g * p >> bits
            n >>= 1
            if n:
                p = p * p >> bits
        shift = bits - g.bit_length()                                   # g to bits bits
        g = g << shift if shift >= 0 else g >> -shift
        term_m.append(-g if sign else g)
        term_e.append(we + ve - shift)
        return (term_e[-1], g) if g else _ZERO

    if level == 0:
        handle(0, one)
    step = 2 if level else 1
    first = exp_basecase(1 << bits - level, bits)           # exp(h): both sweeps start at |k| = 1
    factor = exp_basecase(step << bits - level, bits)
    eps_m, eps_e = _pair(eps, bits)
    floor = _key(eps_m * eps_m, 2 * eps_e, bits)

    for direction in (1,) if mirror else (1, -1):
        small_run = 0
        peak = _ZERO
        cut = floor                                         # eps * max(peak, eps)
        start, first_term = len(pts), len(term_m)
        k, e = direction, first
        while len(pts) < NODE_CAP:
            r = handle(k, e)
            if r > peak:
                peak = r
                cut = (floor if (eps_e, eps_m) > peak
                       else _key(eps_m * peak[1], eps_e + peak[0], bits))
            if r < cut:
                small_run += 1
                if small_run >= 4:
                    break
            else:
                small_run = 0
            k += step * direction
            e = e * factor >> bits
    if mirror:                 # the -t sweep: the same nodes negated and terms, up to the cap
        room = NODE_CAP - len(pts)
        pts += [(mpf_neg(x), wd) for x, wd in pts[start:start + room]]
        term_m += term_m[first_term:first_term + room]
        term_e += term_e[first_term:first_term + room]
    row = block_row(term_m, term_e, bits)
    return sum(row.mans), row.exp


_ZERO = (-float("inf"), 0)     # the key of a zero term: below every other


def _key(man, exp, bits):
    """|man| * 2**exp as (exp', man') with man' of ``bits`` bits, ordered as the values are."""
    if not man:
        return _ZERO
    man = abs(man)
    shift = bits - man.bit_length()
    return (exp - shift, man << shift) if shift >= 0 else (exp - shift, man >> -shift)


def _round(man, exp, prec):
    """man * 2**exp as a libmp value rounded to nearest at prec bits (from_man_exp's rounding)."""
    sign = man < 0
    if sign:
        man = -man
    shift = man.bit_length() - prec
    if shift > 0:
        low = man & (1 << shift) - 1
        man >>= shift
        half = 1 << shift - 1
        if low > half or low == half and man & 1:
            man += 1
        exp += shift
    if not man:
        return fzero
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def _real(value, x, mp):
    """The raw value of a density value that is not an mpf; ValueError where it is not real."""
    value = mp.convert(value)
    if not isinstance(value, mp.mpf):
        raise ValueError("integrand is not real at x = %s: %s" % (mp.make_mpf(x), value))
    return value._mpf_


def integrate(spec, f, ctx: PrecisionContext, tol=None):
    """Integrate density * f over a weight spec's support.

    ``spec`` has ``pieces`` and ``density(x, lo_off, hi_off)``, as every
    ``WeightSpec`` does; f is a function of x and the integrand must be
    real.  Returns a QuadratureResult; non-convergence of any piece marks
    the total.
    """
    if tol is None:
        tol = ctx.tol(8)
    integrand = lambda x, lo_off, hi_off: spec.density(x, lo_off, hi_off) * f(x)
    table = build_node_table(spec.pieces, integrand, ctx, tol, 0)
    return QuadratureResult(value=table.dot(table.row(table.weights)), error_estimate=table.error,
                            node_count=len(table.xs), converged=table.converged,
                            last_two=table.last_two)
