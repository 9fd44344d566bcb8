import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest
from mpmath.libmp import mpf_neg

from minusone.precision import PrecisionContext, gram_context
from minusone.quadrature import integrate
from minusone import families as F
from minusone import orthogonality as orth
from minusone import quadrature
from minusone.families import WeightSpec, weights

CTX = PrecisionContext(50)
MP = CTX.mp


def _spec(lo, hi, density):
    """A one-piece weight spec; the density takes the offsets, density(x, x - lo, hi - x)."""
    return WeightSpec([(MP.mpf(lo), MP.mpf(hi))], density)


def test_constant_on_interval():
    r = integrate(_spec(-1, 1, lambda x, a, b: 1), lambda x: MP.mpf(1), CTX, tol=CTX.tol(8))
    assert r.converged
    assert abs(r.value - 2) < CTX.tol(6)


def test_gaussian_mass():
    r = integrate(_spec("-inf", "inf", lambda x, a, b: MP.exp(-x * x)), lambda x: 1, CTX,
                  tol=CTX.tol(8))
    assert r.converged
    assert abs(r.value - MP.sqrt(MP.pi)) < CTX.tol(6)


def test_endpoint_singularity_absorbed():
    r = integrate(_spec(-1, 1, lambda x, a, b: 1 / MP.sqrt(a * b)), lambda x: 1, CTX,
                  tol=MP.mpf("1e-30"))
    assert r.converged
    assert abs(r.value - MP.pi) < MP.mpf("1e-28")


def test_semi_infinite_with_singular_end():
    # int_0^inf x^(-1/2) e^(-x) dx = Gamma(1/2)
    r = integrate(_spec(0, "inf", lambda x, a, b: MP.exp(-x) / MP.sqrt(a)), lambda x: 1, CTX,
                  tol=CTX.tol(8))
    assert r.converged
    assert abs(r.value - MP.sqrt(MP.pi)) < CTX.tol(4)


def test_gaussian_half_line_with_singular_end():
    # int_0^inf x^(1/2) e^(-x^2) dx = Gamma(3/4)/2
    r = integrate(_spec(0, "inf", lambda x, a, b: MP.sqrt(a) * MP.exp(-x * x)), lambda x: 1,
                  CTX, tol=CTX.tol(8))
    assert r.converged
    assert abs(r.value - MP.gamma(MP.mpf(3) / 4) / 2) < MP.mpf("1e-40")


def test_gsbi_normalized_mass():
    params = F.make_params("gsbi", CTX, a="1", b="1", c="1")
    spec = F.weight_spec("gsbi", params, CTX)
    r = integrate(spec, lambda x: MP.mpf(1), CTX, tol=CTX.tol(12))
    assert r.converged
    assert abs(r.value * spec.measure_prefactor - MP.mpf("0.5")) < MP.mpf("1e-15")


def test_tolerance_halving_self_consistency():
    # a converged value never moves by more than the old error estimate
    spec = _spec(-1, 1, lambda x, a, b: (a * b) ** MP.mpf("0.25"))
    loose = integrate(spec, MP.exp, CTX, tol=MP.mpf("1e-12"))
    tight = integrate(spec, MP.exp, CTX, tol=MP.mpf("1e-24"))
    assert loose.converged and tight.converged
    assert abs(loose.value - tight.value) <= max(loose.error_estimate, MP.mpf("1e-12"))


def test_non_convergence_reported(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 2)
    r = integrate(_spec("-inf", "inf", lambda x, a, b: MP.exp(-x * x)), lambda x: 1, CTX,
                  tol=MP.mpf("1e-40"))
    assert not r.converged
    assert len(r.last_two) == 2
    assert r.error_estimate > MP.mpf("1e-40")


def test_weight_spec_integration_interface():
    spec = F.weight_spec("gegenbauer", F.make_params("gegenbauer", CTX, alpha="0.5"), CTX)
    r = integrate(spec, lambda x: x * x, CTX, tol=CTX.tol(8))
    assert r.converged
    assert abs(r.value - MP.mpf(2) / 3) < CTX.tol(4)


def test_multi_piece_and_gamma_modulus_masses():
    # two gaussian half-lines, two algebraic pieces (twice), |Gamma|^2 on the whole line
    for fid in ("generalized-hermite", "chihara", "big-minus1-jacobi",
                "continuous-minus1-hahn-1"):
        params = F.make_params(fid, CTX, **F.fixture_points(fid)[0])
        spec = F.weight_spec(fid, params, CTX)
        r = integrate(spec, lambda x: 1, CTX, tol=CTX.tol(12))
        mass = F.norm(fid, params, 0, CTX)
        assert r.converged, fid
        assert abs(r.value * spec.measure_prefactor - mass) <= MP.mpf("1e-40") * abs(mass), fid


def test_density_values_must_be_real():
    # an int density value is taken exactly; a complex one is refused where the sweep meets it
    table = quadrature.build_node_table([(MP.mpf(-1), MP.mpf(1))], lambda x, a, b: 1, CTX,
                                        CTX.tol(8), 0)
    assert abs(table.dot(table.row(table.weights)) - 2) < CTX.tol(6)
    with pytest.raises(ValueError, match="not real"):
        integrate(_spec(-1, 1, lambda x, a, b: 1), lambda x: MP.mpc(1, 1), CTX)


@pytest.mark.parametrize("value, why", [(MP.mpc(1, 1), "not real"), (MP.inf, "not finite"),
                                        (MP.nan, "not finite")])
def test_a_row_takes_finite_real_values_only(value, why):
    table = quadrature.build_node_table([(MP.mpf(-1), MP.mpf(1))], lambda x, a, b: 1, CTX,
                                        CTX.tol(8), 0)
    with pytest.raises(ValueError, match=why):
        table.row([value] * len(table.xs))


@pytest.mark.parametrize("value", [MP.inf, MP.nan], ids=["inf", "nan"])
def test_a_density_value_that_is_not_finite_ends_the_sweep(value):
    # the term cutoff never fires on an inf or nan term, so the sweep ran on towards NODE_CAP
    spec = _spec(-1, 1, lambda x, a, b: value if x > 0.5 else MP.mpf(1))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not finite at x = 0.9"):
        integrate(spec, lambda x: 1, CTX)
    assert time.perf_counter() - start < 1


def _direct_map(lo, hi, mp):
    """The DE maps evaluated from t alone, as the reference for the stepped ones.

    Returns (x, w, x - lo, hi - x), the offsets as the maps compute them.
    """
    inf = mp.inf
    if mp.isinf(lo) and mp.isinf(hi):
        return lambda t: (mp.sinh(t), mp.cosh(t), inf, inf)
    if mp.isinf(lo) or mp.isinf(hi):
        anchor, sign = (hi, -1) if mp.isinf(lo) else (lo, 1)

        def half_line(t):
            e = mp.exp(t - mp.exp(-t))
            w = (1 + mp.exp(-t)) * e
            return (anchor + e, w, e, inf) if sign > 0 else (anchor - e, w, inf, e)
        return half_line
    radius = (hi - lo) / 2

    def tanh_sinh(t):
        u = mp.pi / 2 * mp.sinh(t)
        near = radius * 2 / (mp.exp(2 * abs(u)) + 1)
        w = radius * mp.pi / 2 * mp.cosh(t) / mp.cosh(u) ** 2
        if t >= 0:
            return hi - near, w, 2 * radius - near, near
        return lo + near, w, near, 2 * radius - near
    return tanh_sinh


def _node_t(lo_off, hi_off, levels, mp):
    """t of a node on (0, hi) from its offsets, on the mesh 2**-(levels - 1) of its table."""
    if mp.isinf(hi_off):               # x - 0 = exp(t - exp(-t)): solve for t
        log_off = mp.log(lo_off)
        t = mp.findroot(lambda t: t - mp.exp(-t) - log_off,
                        log_off if log_off > 0 else -mp.log(1 - log_off))
    else:                              # near / far = q = exp(-pi sinh|t|), near lo for t < 0
        near, far, sign = (lo_off, hi_off, -1) if lo_off < hi_off else (hi_off, lo_off, 1)
        t = sign * mp.asinh(mp.log(far / near) / mp.pi)
    k = mp.nint(t * 2 ** (levels - 1))
    assert abs(t * 2 ** (levels - 1) - k) < mp.mpf("1e-6"), (t, levels)
    return k / 2 ** (levels - 1)


@pytest.mark.parametrize("digits", [15, 50])
def test_offsets_keep_their_relative_accuracy_below_the_fixed_point_scale(digits):
    # next to an endpoint at 0 the sweeps reach near offsets below 2**-(prec + GUARD_BITS),
    # where a fixed point at that scale would flush them to 0.  At every node x, w and both
    # finite offsets agree with the direct maps evaluated 40 digits wider to 2**-(p - 16),
    # relative, and x > 0
    ctx = PrecisionContext(digits)
    mp, wide = ctx.mp, PrecisionContext(digits + 40).mp
    floor = mp.mpf(2) ** -(mp.prec + quadrature.GUARD_BITS)
    for hi in (mp.mpf(1), mp.mpf("1e-12"), mp.inf):
        nodes = []

        def density(x, a, b):
            value = mp.exp(-a) / mp.sqrt(a) if mp.isinf(b) else 1 / mp.sqrt(a * b)
            nodes.append((x, a, b, value))
            return value
        table = quadrature.build_node_table([(mp.mpf(0), hi)], density, ctx, ctx.tol(8), 16)
        assert table.converged and len(nodes) == len(table.xs), hi
        direct = _direct_map(wide.mpf(0), wide.mpf(hi), wide)
        h = mp.mpf(2) ** (1 - table.levels)
        for (x, a, b, value), weight in zip(nodes, table.weights):
            t = _node_t(wide.mpf(a), wide.mpf(b), table.levels, wide)
            for got, ref in zip((x, weight / (h * value), a, b), direct(t)):
                if wide.isfinite(ref):
                    assert abs(got - ref) <= abs(ref) * 2 ** (16 - mp.prec), (hi, t, got, ref)
            assert x > 0, (hi, t, x)
        assert min(min(a, b) for _, a, b, _ in nodes) < floor, hi


def _stepped_cases():
    """(digits, fixture point): point 0 at 15 and 50 digits in tier 1, the rest under -m slow."""
    for digits in (15, 50, 100):
        for point in range(3):
            marks = () if digits < 100 and point == 0 else pytest.mark.slow
            yield pytest.param(digits, point, marks=marks,
                               id=str(digits) if point == 0 else "%d-%d" % (digits, point))


@pytest.mark.parametrize("digits, point", _stepped_cases())
def test_stepped_maps_match_direct_evaluation(digits, point, monkeypatch):
    # every node of the 14 Gram tables (N = 8) at one fixture point: x, w and the finite offsets
    # from e^|t| carried by multiplication agree with sinh/cosh/exp of t to 2**-(p - 16), and
    # tables built from the direct maps have the same nodes and levels.  A map takes the node
    # k at t = k 2**-level with e^|t| and e^-|t| fixed point, and returns the node as
    # (man, exp) pairs, None for an infinite offset
    ctx = PrecisionContext(digits)
    stepped_map = quadrature._component_map
    worst = []

    def checked_map(lo, hi, mp):
        phi, direct = stepped_map(lo, hi, mp), _direct_map(lo, hi, mp)
        value = lambda v: mp.inf if v is None else mp.mpf(v)

        def both(k, level, e, r):
            node = phi(k, level, e, r)
            if node is not None:
                ref = direct(mp.mpf(k) / 2 ** level)
                worst.append(max(abs(a - b) / abs(b) if b else abs(a)
                                 for a, b in zip(map(value, node), ref) if mp.isfinite(b))
                             * 2 ** (mp.prec - 16))
            return node
        return both

    def direct_map(lo, hi, mp):
        direct = _direct_map(lo, hi, mp)
        pair = lambda v: None if mp.isinf(v) else (-v._mpf_[1] if v._mpf_[0] else v._mpf_[1],
                                                    v._mpf_[2])

        def from_t(k, level, e, r):
            node = direct(mp.mpf(k) / 2 ** level)
            return tuple(map(pair, node)) if all(node[2:]) else None
        return from_t

    for fid in F.orthogonal_ids():
        params = F.make_params(fid, ctx, **F.fixture_points(fid)[point])
        monkeypatch.setattr(quadrature, "_component_map", checked_map)
        _, _, table = orth._boosted_table(fid, params, ctx, 16)
        monkeypatch.setattr(quadrature, "_component_map", direct_map)
        _, _, reference = orth._boosted_table(fid, params, ctx, 16)
        assert (len(table.xs), table.levels) == (len(reference.xs), reference.levels), fid
        assert max(worst) <= 1, (fid, max(worst))


def _even_specs(digits):
    """(fid, work, tol, spec) at fixture point 0 of every family whose weight is flagged even,
    the spec in the Gram table's context."""
    ctx = PrecisionContext(digits)
    work, tol = gram_context(ctx)
    for fid in F.orthogonal_ids():
        spec = F.weight_spec(fid, F.make_params(fid, ctx, **F.fixture_points(fid)[0]), work)
        if spec.even:
            yield fid, work, tol, spec


@pytest.mark.parametrize("digits", [15, pytest.param(50, marks=pytest.mark.slow),
                                    pytest.param(100, marks=pytest.mark.slow)])
def test_even_sweep_matches_full_sweep(digits):
    # sweeping each pair +-x once gives the table of the full sweep: the same (x, w) multiset,
    # bit for bit, the same levels and the same convergence
    compared = 0
    for fid, work, tol, spec in _even_specs(digits):
        tables = [quadrature.build_node_table(spec.pieces, spec.density, work, tol, 16, even)
                  for even in (True, False)]
        mirrored, full = [(sorted((x._mpf_, w._mpf_) for x, w in zip(t.xs, t.weights)),
                           t.levels, t.converged) for t in tables]
        assert mirrored == full, (digits, fid)
        compared += 1
    assert compared == 6


def test_a_piece_copied_from_its_mirror_is_its_own_sweep():
    # the copy of an even weight's mirror piece, negated, is the table the piece's own sweep
    # gives, bit for bit, guard sums and predicted error included: the block sums of the guard
    # terms do not depend on their order
    twins = 0
    for fid, work, tol, spec in _even_specs(15):
        if len(spec.pieces) == 2:
            first, second = [quadrature.build_node_table([piece], spec.density, work, tol, 16)
                             for piece in spec.pieces]
            assert sorted((mpf_neg(x._mpf_), w._mpf_) for x, w in zip(first.xs, first.weights)) \
                == sorted((x._mpf_, w._mpf_) for x, w in zip(second.xs, second.weights)), fid
            assert (first.levels, first.converged, first.last_two, first.error) == \
                (second.levels, second.converged, second.last_two, second.error), fid
            twins += 1
    assert twins == 2


def test_symmetric_table_mirrors_its_density():
    # an even weight's Gram table evaluates its density once per pair +-x
    swept = 0
    for fid, work, tol, spec in _even_specs(15):
        calls = []
        density = spec.density
        spec.density = lambda *args: calls.append(1) or density(*args)
        table = orth.build_node_table(spec, work, tol, 16)
        assert len(calls) <= math.ceil(len(table.xs) / 2) + 1, (fid, len(calls), len(table.xs))
        swept += 1
    assert swept == 6


def test_a_piece_without_nodes_does_not_converge():
    # a zero-width piece yields no node; two empty meshes agreeing is no convergence
    ctx = PrecisionContext(15)
    mp = ctx.mp
    density = lambda x, a, b: mp.mpf(1)
    empty = quadrature.build_node_table([(mp.mpf(2), mp.mpf(2))], density, ctx, ctx.tol(5), 4)
    assert (empty.xs, empty.converged) == ([], False)
    both = quadrature.build_node_table([(mp.mpf(-1), mp.mpf(1)), (mp.mpf(2), mp.mpf(2))],
                                       density, ctx, ctx.tol(5), 4)
    assert both.xs and not both.converged
    assert quadrature.build_node_table([(mp.mpf(-1), mp.mpf(1))], density, ctx,
                                       ctx.tol(5), 4).converged


@pytest.mark.parametrize("digits", [15, 50])
def test_a_piece_where_the_density_is_zero_ends_at_the_cutoff_floor(monkeypatch, digits):
    # no offset rule ends such a sweep: with peak 0 only the floor eps * max(peak, eps) does,
    # after four zero terms each way.  A cutoff relative to the peak alone sweeps to the cap
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    monkeypatch.setattr(quadrature, "NODE_CAP", 4096)
    zero = lambda x, a, b: mp.mpf(0)
    for piece in ((mp.mpf(-1), mp.mpf(0)), (mp.ninf, mp.inf)):
        table = quadrature.build_node_table([piece], zero, ctx, ctx.tol(5), 4)
        assert (len(table.xs), table.levels, table.converged) == (17, 2, True), piece
        assert table.last_two == (0, 0) and table.dot(table.row(table.weights)) == 0, piece
    step = lambda x, a, b: mp.mpf(1 if x > 0 else 0)
    split = quadrature.build_node_table([(mp.mpf(-1), mp.mpf(0)), (mp.mpf(0), mp.mpf(1))], step,
                                        ctx, ctx.tol(5), 4)
    assert split.converged and len(split.xs) == {15: 108, 50: 354}[digits]
    assert abs(split.dot(split.row(split.weights)) - 1) <= ctx.tol(5)


def _hermite_table(ctx, even):
    spec = F.weight_spec("hermite", F.make_params("hermite", ctx, **F.fixture_points("hermite")[0]),
                         ctx)
    return quadrature.build_node_table(spec.pieces, spec.density, ctx, ctx.tol(8), 0, even)


@pytest.mark.parametrize("cap", range(14, 26))
def test_the_node_cap_is_exact(monkeypatch, cap):
    # a sweep that ended at the cap once let the next sweep, or the mirror, add one node more.
    # Uncapped, the Hermite table converges over 75 nodes
    ctx = PrecisionContext(15)
    mp = ctx.mp
    assert [len(_hermite_table(ctx, even).xs) for even in (False, True)] == [75, 75]
    monkeypatch.setattr(quadrature, "NODE_CAP", cap)
    for even in (False, True):
        table = _hermite_table(ctx, even)
        assert (len(table.xs), table.converged) == (cap, False), even
    growing = quadrature.build_node_table([(mp.ninf, mp.inf)], lambda x, a, b: mp.exp(x * x), ctx,
                                          ctx.tol(8), 0)
    assert (len(growing.xs), growing.converged) == (cap, False)


@pytest.mark.parametrize("width", ["1e-12", "1e-20"])
def test_stop_rule_is_relative_below_mass_one(width):
    # int_0^w sqrt((x - 0)(w - x)) dx = pi w^2 / 8.  Scaled by max(|guard|, 1), the stop rule
    # accepted the second mesh of so narrow a piece: 31 nodes, relative error 7.2e-5
    ctx = PrecisionContext(30)
    mp = ctx.mp
    w = mp.mpf(width)
    r = integrate(WeightSpec([(mp.mpf(0), w)], lambda x, a, b: mp.sqrt(a * b)), lambda x: 1, ctx)
    exact = mp.pi * w * w / 8
    assert r.converged
    assert abs(r.value - exact) <= ctx.tol(8) * exact, (r.node_count, abs(r.value - exact) / exact)


def test_predicted_error_bounds_the_error_one_level_finer(monkeypatch):
    # every piece of the 42 fixture Gram tables at 15 digits: a table one level finer moves the
    # guard sum by at most the predicted NodeTable.error.  The pieces are rebuilt 20 digits
    # wider, where they stop at the same levels, so that rounding does not hide the error
    ctx = PrecisionContext(15)
    for fid in F.orthogonal_ids():
        for pt in F.fixture_points(fid):
            params = F.make_params(fid, ctx, **pt)
            work, spec, _ = orth._boosted_table(fid, params, ctx, 16)
            wide = PrecisionContext(work.digits + 20)
            wide_spec = F.weight_spec(fid, params, wide)
            tol = wide.mp.mpf(10) ** -(ctx.digits // 2 + 15)
            for piece, wide_piece in zip(spec.pieces, wide_spec.pieces):
                table = quadrature.build_node_table([wide_piece], wide_spec.density, wide, tol, 16)
                gram_piece = quadrature.build_node_table([piece], spec.density, work, tol, 16)
                assert table.converged and table.levels == gram_piece.levels, (fid, pt)
                with monkeypatch.context() as m:       # tol 0: refined up to MAX_LEVELS
                    m.setattr(quadrature, "MAX_LEVELS", table.levels + 1)
                    finer = quadrature.build_node_table([wide_piece], wide_spec.density, wide, 0, 16)
                assert finer.levels == table.levels + 1, (fid, pt)
                achieved = abs(table.last_two[1] - finer.last_two[1])
                assert achieved <= table.error, (fid, pt, piece, table.error, achieved)


def _fixture_nodes(digits):
    """Nodes of the Gram tables (N = 8) over all fixture points of the orthogonal families."""
    ctx = PrecisionContext(digits)
    return sum(len(orth._boosted_table(fid, F.make_params(fid, ctx, **pt), ctx, 16)[2].xs)
               for fid in F.orthogonal_ids() for pt in F.fixture_points(fid))


def test_fixture_node_count_at_fifteen_digits():
    # a work count, not a timing: 17 335 nodes with the two-mesh stop rule alone
    assert _fixture_nodes(15) <= 12500


@pytest.mark.slow
def test_fixture_node_count_at_hundred_digits():
    # 43 511 nodes with the two-mesh stop rule alone
    assert _fixture_nodes(100) <= 32000


# one parameter of a first fixture point times 10^12 and 10^16, and Chihara at
# alpha = 0.5, gamma = 0.5 with a large beta: the density's dynamic range grows
# with the parameter, and a running guard total that followed it raised
# MemoryError or OverflowError instead of ending the row
_WIDE_RANGE = ([(fid, {**F.fixture_points(fid)[0], name: F.fixture_points(fid)[0][name] + scale})
                for fid, names in (("big-minus1-jacobi", ("alpha", "beta")), ("chihara", ("alpha", "beta")),
                                   ("gegenbauer", ("alpha",)), ("generalized-gegenbauer", ("beta",)),
                                   ("generalized-hermite", ("alpha",)),
                                   ("little-minus1-jacobi", ("alpha", "beta")),
                                   ("minus1-meixner-pollaczek", ("alpha", "gamma")),
                                   ("special-little-minus1-jacobi", ("alpha",)))
                for name in names for scale in ("e12", "e16")]
               + [("chihara", {"alpha": "0.5", "beta": beta, "gamma": "0.5"})
                  for beta in ("1e10", "1e12", "1e20", "1e80", "1e300")])

_CAPPED = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from minusone import cli, families as F
from minusone.precision import PrecisionContext
ctx = PrecisionContext(15)
print(json.dumps([cli._family_results(fid, F.make_params(fid, ctx, **point), ctx,
                                      ("orthogonality",))[0]["status"]
                  for fid, point in json.loads(sys.argv[1])]))
"""


def test_wide_range_densities_end_their_gram_row_in_bounded_memory():
    # each row ends as pass, fail or inconclusive in a process capped at 2 GB
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _CAPPED, json.dumps(_WIDE_RANGE)],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    statuses = json.loads(proc.stdout)
    assert len(statuses) == len(_WIDE_RANGE) == 29
    assert set(statuses) <= {"pass", "fail", "inconclusive"}, list(zip(_WIDE_RANGE, statuses))
