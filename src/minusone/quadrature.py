"""Double-exponential quadrature aware of endpoint singularities and decay classes.

One engine serves every integral in the package: ``build_node_table`` turns
(lo, hi) support pieces and a density into a table of nodes and weights.
Finite pieces use the tanh-sinh map, which absorbs algebraic endpoint
singularities with exponent > -1.  Semi-infinite pieces use the exp-sinh
map (singular finite endpoint allowed); doubly infinite pieces use the sinh
map, double-exponential against both the gaussian and the |Gamma|^2
("gamma-modulus", asymptotically pure-exponential) decay classes.

- Guard integrand.  density * (1+x^2)**ceil(max_degree/2) stands in for
  every polynomial factor up to max_degree.  It drives the term cutoff (a
  sweep stops once four successive terms fall below ~10**-(digits+10) of
  its peak) and the convergence test (the guard sums of two successive
  meshes agree within tol).
- Refinement.  Each level halves the mesh and sweeps only the new odd
  multiples, reusing every earlier node.
- Embedded coarse estimate.  Nodes that already sat on the previous mesh are
  flagged, so ``NodeTable.dot`` returns the fine sum and the previous mesh's
  sum while summing each node once.
- One dot product.  ``NodeTable.dot`` is the only summation over a table:
  ``integrate``, the Gram matrix and the moment check all go through it.
- Node cap.  A piece stops refining at 2**20 nodes, which turns a runaway
  integrand into an explicit non-convergence report.

``integrate`` is the table built on the full integrand (max_degree = 0) plus
a dot product over it.  Its error estimate is the difference of the last two
guard sums, which are then exactly the last two trapezoid estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import not_

from .precision import PrecisionContext

NODE_CAP = 1 << 20


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
    coarse: list           # True where the node already existed on the previous mesh
    levels: int
    converged: bool
    last_two: tuple        # guard sums of the last two meshes, summed over the pieces
    error: object          # sum over the pieces of |last - previous guard sum|
    mp: object             # the mpmath context the table was built in

    def dot(self, a, b=None):
        """(fine, coarse): sum over the nodes of a * b (b = 1 when omitted) and its
        previous-mesh estimate.

        Callers fold the weights into ``a`` (``dot(table.weights)`` is the
        integral of the density).  Each half of the nodes is summed by
        mpmath's ``fsum``/``fdot``, which add exact products and round once;
        the fine sum adds the halves, the coarse estimate doubles the half
        that sat on the previous mesh.
        """
        mp, coarse = self.mp, self.coarse
        if b is None:
            old = mp.fsum(compress(a, coarse))
            new = mp.fsum(compress(a, map(not_, coarse)))
        else:
            old = mp.fdot(compress(a, coarse), compress(b, coarse))
            new = mp.fdot(compress(a, map(not_, coarse)), compress(b, map(not_, coarse)))
        return old + new, 2 * old


def _map_tanh_sinh(lo, hi, mp):
    """x(t) evaluated as a distance from the nearer endpoint.

    1 - tanh(u) = 2/(exp(2u)+1) avoids the cancellation that would round
    nodes onto a singular endpoint; phi returns None once the offset
    underflows against the endpoint itself.
    """
    radius = (hi - lo) / 2

    def phi(t):
        u = mp.pi / 2 * mp.sinh(t)
        if t >= 0:
            s = 2 / (mp.exp(2 * u) + 1)
            x = hi - radius * s
            if x == hi and hi != 0:
                return None
        else:
            s = 2 / (mp.exp(-2 * u) + 1)
            x = lo + radius * s
            if x == lo and lo != 0:
                return None
        w = radius * (mp.pi / 2) * mp.cosh(t) / mp.cosh(u) ** 2
        return x, w
    return phi


def _map_exp_sinh(anchor, direction, mp):
    def phi(t):
        s = mp.sinh(t)
        e = mp.exp(mp.pi / 2 * s)
        x = anchor + direction * e
        if x == anchor:
            return None
        w = (mp.pi / 2) * mp.cosh(t) * e
        return x, w
    return phi


def _map_sinh(mp):
    def phi(t):
        x = mp.sinh(t)
        w = mp.cosh(t)
        return x, w
    return phi


def _component_map(lo, hi, mp):
    lo_inf = mp.isinf(lo)
    hi_inf = mp.isinf(hi)
    if not lo_inf and not hi_inf:
        return _map_tanh_sinh(lo, hi, mp)
    if lo_inf and hi_inf:
        return _map_sinh(mp)
    if lo_inf:
        return _map_exp_sinh(hi, mp.mpf(-1), mp)
    return _map_exp_sinh(lo, mp.mpf(1), mp)


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
    xs, ws, coarse = [], [], []
    levels_used = 0
    converged_all = True
    last_two = (mp.mpf(0), mp.mpf(0))
    error = mp.mpf(0)

    for lo, hi in pieces:
        phi = _component_map(mp.mpf(lo), mp.mpf(hi), mp)
        pts = {}          # integer multiple of current h -> (x, w*density)
        h = mp.mpf(1)
        previous = mp.mpf(0)       # a single mesh is compared against 0
        level = 0
        while True:
            _sweep_level(phi, h, level, pts, density, mp, eps_term, gd)
            guard = h * sum(w * (1 + x * x) ** gd for (x, w) in pts.values())
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
        for key, (x, w) in sorted(pts.items()):
            xs.append(x)
            ws.append(h * w)
            coarse.append(key % 2 == 0)
    return NodeTable(xs=xs, weights=ws, coarse=coarse, levels=levels_used,
                     converged=converged_all, last_two=last_two, error=error, mp=mp)


def _sweep_level(phi, h, level, pts, density, mp, eps_term, gd):
    """Add this level's nodes to pts, sweeping outward until terms die off.

    Keys are integer multiples of the current mesh h; on refinement the
    existing keys double, so final-key parity marks membership in the
    previous mesh (used for the embedded coarse estimate).
    """
    def handle(k):
        node = phi(k * h)
        if node is None:       # abscissa saturated onto an endpoint
            return None
        x, w = node
        wd = w * density(x)
        pts[k] = (x, wd)
        return abs(wd) * (1 + x * x) ** gd

    if level == 0:
        step = 1
        if handle(0) is None:
            return
    else:
        _double_keys(pts)
        step = 2

    for direction in (1, -1):
        small_run = 0
        peak = mp.mpf(0)
        k = step * direction if level == 0 else direction
        while True:
            r = handle(k)
            if r is None:
                break
            peak = max(peak, r)
            if r < eps_term * max(peak, eps_term):
                small_run += 1
                if small_run >= 4:
                    break
            else:
                small_run = 0
            k += step * direction
            if len(pts) >= NODE_CAP:
                return


def _double_keys(pts):
    for key in sorted(pts.keys(), key=abs, reverse=True):
        pts[2 * key] = pts.pop(key)


def _result(table):
    value, _ = table.dot(table.weights)
    return QuadratureResult(value=value, error_estimate=table.error,
                            node_count=len(table.xs), converged=table.converged,
                            levels=table.levels, last_two=table.last_two)


def integrate_component(f, lo, hi, ctx: PrecisionContext, tol, max_levels=12):
    """DE quadrature of f over one support piece."""
    return _result(build_node_table([(lo, hi)], f, ctx, tol, 0, max_levels))


def integrate(weight_or_pieces, f, ctx: PrecisionContext, tol=None):
    """Integrate density*f over a weight's support (or a raw list of pieces).

    Accepts a WeightSpec-like object with ``components`` and ``density`` or a
    plain list of (lo, hi) pairs (then ``f`` is the full integrand).  Returns
    a QuadratureResult; non-convergence of any piece marks the total.
    """
    if tol is None:
        tol = ctx.tol(8)
    if hasattr(weight_or_pieces, "components"):
        spec = weight_or_pieces
        pieces, integrand = spec.total_support(), lambda x: spec.density(x) * f(x)
    else:
        pieces, integrand = weight_or_pieces, f
    return _result(build_node_table(pieces, integrand, ctx, tol, 0))
