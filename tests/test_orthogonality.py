import math

import pytest

from minusone.polynomials import Poly
from minusone.precision import PrecisionContext
from minusone import families as F
from minusone import orthogonality as orth

CTX = PrecisionContext(50)
MP = CTX.mp


def test_hermite_gram_diagonal():
    rep = orth.gram("hermite", {}, 2, CTX)
    expected = [MP.sqrt(MP.pi), MP.sqrt(MP.pi) / 2, MP.sqrt(MP.pi) / 2]
    for n in range(3):
        assert abs(rep["matrix"][n][n] - expected[n]) < MP.mpf("1e-30")
    assert rep["max_offdiag"] < 1e-30


def test_legendre_mass():
    rep = orth.gram("gegenbauer", F.make_params("gegenbauer", CTX, alpha="0.5"), 0, CTX)
    assert abs(rep["matrix"][0][0] - 2) < MP.mpf("1e-30")


def test_p0_p1_orthogonal_across_families():
    for fid in ("little-minus1-jacobi", "minus1-meixner-pollaczek", "symmetric-bannai-ito"):
        params = F.make_params(fid, CTX, **F.fixture_points(fid)[0])
        rep = orth.gram(fid, params, 1, CTX)
        assert rep["max_offdiag"] < 1e-25, fid


def test_gamma_weight_gram():
    params = F.make_params("continuous-minus1-hahn-1", CTX,
                           **F.fixture_points("continuous-minus1-hahn-1")[0])
    rep = orth.gram("continuous-minus1-hahn-1", params, 4, CTX)
    assert rep["converged"]
    assert rep["max_offdiag"] <= 1e-25
    assert rep["max_diag_error"] <= 1e-17


def test_favard_scan_examples():
    rep = orth.favard_scan("generalized-gegenbauer",
                           F.make_params("generalized-gegenbauer", CTX, alpha="0", beta="1"),
                           200, CTX)
    assert rep["pass"] and rep["min_u"] > 0

    rep = orth.favard_scan("hermite", {}, 200, CTX)
    assert rep["pass"]
    assert abs(rep["min_u"] - 0.5) < 1e-12

    ccbi = F.make_params("ccbi", CTX, a1="0.75", b1="0.5", a2="1.25", b2="1")
    rep = orth.favard_scan("ccbi", ccbi, 10, CTX)
    assert not rep["pass"]
    assert rep["first_nonreal_n"] is not None


def test_moment_crosscheck_oracle():
    # quadrature moments against the recurrence-implied moments
    for fid, pt in (("little-minus1-jacobi", {"alpha": "0.5", "beta": "1.5"}),
                    ("hermite", {})):
        params = F.make_params(fid, CTX, **pt)
        rep = orth.moment_crosscheck(fid, params, 6, CTX)
        assert rep["max_relative_error"] <= 1e-30, (fid, rep)


def test_moments_from_recurrence_hermite():
    moments = orth.moments_from_recurrence("hermite", {}, 4, CTX)
    rt_pi = MP.sqrt(MP.pi)
    assert abs(moments[0] - rt_pi) < CTX.tol(8)
    assert abs(moments[1]) < CTX.tol(8)
    assert abs(moments[2] - rt_pi / 2) < CTX.tol(8)
    assert abs(moments[4] - 3 * rt_pi / 4) < CTX.tol(8)


def test_recurrence_gram_matches_horner_gram(monkeypatch):
    # the Gram from recurrence values against one from generate + Horner on the same table;
    # continuous-bannai-ito has complex recurrence coefficients, generalized-hermite the most nodes
    def no_horner(*args):
        raise AssertionError("gram evaluated a monomial-basis polynomial")

    N = 8
    horner = Poly.evaluate
    monkeypatch.setattr(Poly, "evaluate", no_horner)
    for fid in ("continuous-bannai-ito", "generalized-hermite"):
        params = F.make_params(fid, CTX, **F.fixture_points(fid)[0])
        rep = orth.gram(fid, params, N, CTX)
        work, spec, table = orth._boosted_table(fid, params, CTX, 2 * N)
        mp = work.mp
        assert rep["nodes"] == len(table.xs)
        values = [[mp.re(horner(p, x)) for x in table.xs] for p in F.generate(fid, params, N, work)]
        ref = [[spec.measure_prefactor * mp.fsum(w * a * b for w, a, b in
                                                 zip(table.weights, values[n], values[m]))
                for m in range(N + 1)] for n in range(N + 1)]
        for n in range(N + 1):
            for m in range(N + 1):
                scale = mp.sqrt(ref[n][n] * ref[m][m])
                assert abs(rep["matrix"][n][m] - ref[n][m]) <= MP.mpf("1e-40") * scale, (fid, n, m)


def _headroom(tol, err):
    return math.inf if err == 0 else math.log10(tol / err)


def _assert_gram_sweep(digits):
    # every orthogonal family passes the CLI gates with >= 15 digits to spare
    ctx = PrecisionContext(digits)
    off_tol, diag_tol = 10.0 ** -(digits / 2), 10.0 ** -(digits / 2 - 8)
    for fid in F.orthogonal_ids():
        params = F.make_params(fid, ctx, **F.fixture_points(fid)[0])
        rep = orth.gram(fid, params, 8, ctx)
        assert rep["converged"], (digits, fid)
        assert rep["max_offdiag"] <= off_tol and rep["max_diag_error"] <= diag_tol, (digits, fid)
        headroom = min(_headroom(off_tol, rep["max_offdiag"]),
                       _headroom(diag_tol, rep["max_diag_error"]))
        assert headroom >= 15, (digits, fid, headroom)


@pytest.mark.parametrize("digits", [15, 20])
def test_gram_sweep_low_precision(digits):
    _assert_gram_sweep(digits)


@pytest.mark.slow
def test_gram_sweep_high_precision():
    for digits in (30, 100):
        _assert_gram_sweep(digits)
