import dataclasses
import json
import random

import pytest

from minusone.precision import GATES, PrecisionContext
from minusone.polynomials import Poly, RationalFunction, divide_exact
from test_polynomials import poly_eq
from minusone import families as F
from minusone import operators as O

CTX = PrecisionContext(50)
MP = CTX.mp


def params_for(fid, idx=0):
    return F.make_params(fid, CTX, **F.fixture_points(fid)[idx])


def test_apply_identity():
    op = O.DunklOperator(Poly.constant(1), [(Poly.constant(MP.mpc(1)), "I")])
    p = Poly([MP.mpc(2), MP.mpc(0), MP.mpc(1)])
    out = O.apply(op, p, CTX).num
    assert poly_eq(out, p, CTX)


def test_hermite_operator_coefficients():
    # S = -1/4, U = x/2, V = eps/2 - 1/4
    es = O.build_eigen_system("hermite", {}, CTX, free="0.5")
    coeffs = {sym: c for c, sym in es.operator.terms}
    x0 = MP.mpf("0.3")
    assert abs(coeffs["dx2"].evaluate(x0) + MP.mpf("0.25")) < CTX.tol(8)
    assert abs(coeffs["dx"].evaluate(x0) - x0 / 2) < CTX.tol(8)
    eps = MP.mpf("0.5")
    assert abs(coeffs["I"].evaluate(x0) - (eps / 2 - MP.mpf("0.25"))) < CTX.tol(8)
    assert abs(coeffs["R"].evaluate(x0) + (eps / 2 - MP.mpf("0.25"))) < CTX.tol(8)


def test_hermite_operator_low_degrees():
    es = O.build_eigen_system("hermite", {}, CTX, free="0.5")
    one = Poly.constant(MP.mpc(1))
    img = O.apply(es.operator, one, CTX).num
    assert img.coeff_norm() <= CTX.tol(10)          # lambda_0 = 0

    x = Poly.x(CTX)
    img = O.apply(es.operator, x, CTX).num
    eps = MP.mpf("0.5")
    assert poly_eq(img, x.scale(eps), CTX)          # lambda_1 = eps


def test_eigen_verification_all_operator_families():
    for fid in O._BUILDERS:
        params = params_for(fid)
        for n in range(7):
            rep = O.verify_eigen(fid, params, n, CTX, free="0.5")
            assert rep["status"] == "pass", (fid, n, rep)
            assert rep["residual"] <= 1e-40


def test_eigen_second_free_value():
    for fid in ("gegenbauer", "generalized-symmetric-bannai-ito"):
        params = params_for(fid)
        for n in (1, 3, 5):
            rep = O.verify_eigen(fid, params, n, CTX, free="2")
            assert rep["status"] == "pass", (fid, n)


def test_gegenbauer_eigenvalue_split():
    es = O.build_eigen_system("gegenbauer", F.make_params("gegenbauer", CTX, alpha="0.5"), CTX,
                              free="0.5")
    al, eps = MP.mpf("0.5"), MP.mpf("0.5")
    for m in range(4):
        assert abs(es.eigenvalue(2 * m) - (m * m + al * m)) < CTX.tol(8)
        assert abs(es.eigenvalue(2 * m + 1) - (m * m + (al + 1) * m + eps)) < CTX.tol(8)


def test_gsbi_first_odd_eigenvalue_is_sigma():
    es = O.build_eigen_system("gsbi", F.make_params("gsbi", CTX, a="1", b="1", c="1"), CTX,
                              free="0.5")
    assert abs(es.eigenvalue(1) - MP.mpf("0.5")) < CTX.tol(8)


def test_linearity():
    es = O.build_eigen_system("chihara", params_for("chihara"), CTX, free="0.5")
    rng = random.Random(5)
    p = Poly([MP.mpc(repr(rng.uniform(-1, 1))) for _ in range(5)])
    q = Poly([MP.mpc(repr(rng.uniform(-1, 1))) for _ in range(4)])
    lhs = O.apply(es.operator, p + q, CTX).reduce(CTX)
    rhs = (O.apply(es.operator, p, CTX) + O.apply(es.operator, q, CTX)).reduce(CTX)
    diff = (lhs - rhs).reduce(CTX)
    diff = divide_exact(diff.num, diff.den, CTX)
    assert diff.coeff_norm() <= CTX.tol(6) * max(1, lhs.num.coeff_norm())


def test_sigma_shift_law():
    # D_sigma - D_0 = sigma/2 (I - R), exactly (up to arithmetic noise even
    # when both sides vanish, as on even-degree members)
    for fid in ("generalized-symmetric-bannai-ito", "symmetric-bannai-ito"):
        params = params_for(fid)
        sigma = MP.mpf("0.7")
        d_sig = O.build_eigen_system(fid, params, CTX, free=sigma).operator
        d_zero = O.build_eigen_system(fid, params, CTX, free="0").operator
        polys = F.generate(fid, params, 5, CTX)
        for p in polys:
            lhs = (O.apply(d_sig, p, CTX) - O.apply(d_zero, p, CTX)).reduce(CTX)
            lhs = divide_exact(lhs.num, lhs.den, CTX)
            rhs = (p - p.reflect()).scale(sigma / 2)
            assert (lhs - rhs).coeff_norm() <= CTX.tol(6) * max(1, p.coeff_norm()), fid


def test_conjugate_pair_coefficients():
    # the S-R coefficient is the complex conjugate of the S+R coefficient
    rng = random.Random(11)
    for fid in ("continuous-minus1-hahn-1", "continuous-minus1-hahn-2", "continuous-bannai-ito"):
        es = O.build_eigen_system(fid, params_for(fid), CTX)
        coeffs = {sym: c for c, sym in es.operator.terms}
        for _ in range(20):
            x = MP.mpf(repr(rng.uniform(-3, 3)))
            a_plus = coeffs["S+R"].evaluate(x)
            a_minus = coeffs["S-R"].evaluate(x)
            assert abs(MP.conj(a_plus) - a_minus) <= CTX.tol(6) * max(1, abs(a_plus)), fid


def test_resolve_composition_convention():
    params = params_for("continuous-bannai-ito")
    rep = O.resolve_composition_convention("cbi", params, CTX)
    passing = [o for o in rep["outcomes"] if o["passes"]]
    assert len(passing) == 1
    assert passing[0]["variant"]["composition"] == O.SHIFT_AFTER_REFLECT
    # fixed convention then verifies at higher degrees
    for n in (8, 9, 10):
        assert O.verify_eigen("cbi", params, n, CTX)["status"] == "pass"


def test_composition_resolution_is_for_the_shift_reflect_families():
    with pytest.raises(ValueError, match="applies to the S\\+R families, not hermite"):
        O.resolve_composition_convention("hermite", {}, CTX)


def test_operator_matrix_diagonality():
    for fid in ("hermite", "chihara", "continuous-minus1-hahn-1", "symmetric-bannai-ito"):
        rep = O.check_diagonality(fid, params_for(fid), 8, CTX)
        assert rep["max_offdiag"] <= rep["tolerance"], fid
        assert rep["max_diag_error"] <= rep["tolerance"], fid


def test_builders_write_the_resolved_reading(monkeypatch):
    # the builders write the first value of every axis, the reading the search
    # accepts, so no build applies a rewrite: without any, every eigen row still passes
    ctx = PrecisionContext(15)
    monkeypatch.setattr(O, "_REWRITES", {})
    for fid in O._BUILDERS:
        params = F.make_params(fid, ctx, **F.fixture_points(fid)[0])
        assert O.eigen_check(fid, params, 10, ctx)["status"] == "pass", fid


def test_first_order_families_resolved_reading():
    # the [R - I] bracket of the Jacobi-type operators resolves to [I - R]
    # with the derivative taken after the reflection
    for fid in ("big-minus1-jacobi", "little-minus1-jacobi", "special-little-minus1-jacobi"):
        variant = O._resolve_variant(fid, CTX)["variant"]
        assert variant == {"dxr": O.OUTER_DIFF, "bracket": "IR"}, fid


# ----------------------------------------------------------------------
# the image kernel: one common denominator, one division per image


def test_image_matches_termwise_evaluation():
    # L p at points off the poles (0 and +-i/2) against the terms N_j(z)/D(z)
    # times symbol_j(p)(z) evaluated one by one
    points = (MP.mpf("0.37"), MP.mpc("-0.81", "0.23"), MP.mpc("1.3", "-0.45"))
    for fid in O._BUILDERS:
        es = O.build_eigen_system(fid, params_for(fid), CTX)
        op = es.operator
        for n, p in enumerate(F.generate(fid, params_for(fid), 8, CTX)):
            image = O.apply(op, p, CTX)
            for z in points:
                terms = [num.evaluate(z) / op.den.evaluate(z)
                         * O._SYMBOLS[sym](p, MP.mpc(0, 1)).evaluate(z)
                         for num, sym in op.terms]
                direct = MP.fsum(terms)
                scale = max(abs(t) for t in terms)
                assert abs(image.evaluate(z) - direct) <= CTX.tol(8) * scale, (fid, n, z)


def test_each_operator_states_its_printed_denominator():
    # D is the one denominator the printed coefficients share, up to a
    # constant factor: not a product of every distinct term denominator
    # cbi: 1 + 4x^2 = (1 - 2ix)(1 + 2ix)
    one, x2, x4, cbi = (1,), (0, 0, 1), (0, 0, 0, 0, 1), (1, 0, 4)
    stated = {
        "hermite": one, "gegenbauer": one, "special-little-minus1-jacobi": one,
        "generalized-hermite": x2, "generalized-gegenbauer": x2,
        "big-minus1-jacobi": x2, "little-minus1-jacobi": x2,
        "continuous-bannai-ito": cbi, "continuous-minus1-hahn-1": cbi,
        "continuous-minus1-hahn-2": cbi, "symmetric-bannai-ito": cbi,
        "generalized-symmetric-bannai-ito": cbi,
        "chihara": x4, "minus1-meixner-pollaczek": x4,
    }
    assert set(stated) == set(O._BUILDERS)
    for fid, coeffs in stated.items():
        for idx in range(len(F.fixture_points(fid))):
            den = O.build_eigen_system(fid, params_for(fid, idx), CTX).operator.den
            assert den.degree == len(coeffs) - 1, (fid, idx, den)
            lead = MP.mpc(den[den.degree])
            assert poly_eq(den.scale(coeffs[-1]), Poly(coeffs).scale(lead), CTX), (fid, idx, den)


@pytest.mark.parametrize("digits", [15, 50])
@pytest.mark.parametrize("fid", ["chihara", "continuous-minus1-hahn-1", "symmetric-bannai-ito"])
def test_eigen_check_agrees_with_per_degree_checks(fid, digits):
    ctx = PrecisionContext(digits)
    params = F.make_params(fid, ctx, **F.fixture_points(fid)[0])
    rep = O.eigen_check(fid, params, 10, ctx)
    statuses = {O.verify_eigen(fid, params, n, ctx, free=free)["status"]
                for free in ("0.5", "2") for n in range(11)}
    diag = O.check_diagonality(fid, params, 8, ctx)
    assert statuses == {rep["status"]} == {"pass"}, (statuses, rep)
    assert max(diag["max_offdiag"], diag["max_diag_error"]) <= diag["tolerance"]
    assert rep["diagonality"].items() <= diag.items()


def test_chihara_denominator_is_stated_not_reduced():
    # at 15 digits the tolerant gcd cannot even reduce Chihara's dxR
    # coefficient, so an lcm of the term denominators is out of reach; the
    # builder states the one denominator 4x^4 itself
    from minusone.polynomials import ReductionAmbiguityError

    ctx = PrecisionContext(15)
    params = F.make_params("chihara", ctx, **F.fixture_points("chihara")[0])
    op = O.build_eigen_system("chihara", params, ctx).operator
    numerators = {sym: num for num, sym in op.terms}
    with pytest.raises(ReductionAmbiguityError):
        RationalFunction(numerators["dxR"], op.den).reduce(ctx)
    assert op.den.degree == 4
    assert O.eigen_check("chihara", params, 10, ctx)["status"] == "pass"


def test_remainder_judged_on_the_image_not_the_residual():
    # at 100 digits the rounding left in L q - lambda q for these degrees,
    # measured against that cancelled difference, looks like a pole; the
    # image's remainder against its summed terms does not
    ctx = PrecisionContext(100)
    params = F.make_params("chihara", ctx, **F.fixture_points("chihara")[0])
    for n in (5, 9):
        rep = O.verify_eigen("chihara", params, n, ctx)
        assert rep["status"] == "pass", rep
        assert rep["residual"] <= 1e-85


def test_numerically_zero_image():
    # D_sigma on P_0 of the generalized symmetric Bannai-Ito family cancels to
    # rounding noise; against the term size that is zero, not a remainder to
    # divide out.  The noise needs a rounding: at dyadic parameters, or with
    # the two-parameter products of the symmetric family, the integer
    # arithmetic holds every product exactly and the image cancels to 0.
    fid = "generalized-symmetric-bannai-ito"
    params = F.make_params(fid, CTX, a="1.1", b="1.3", c="0.7")
    op = O.build_eigen_system(fid, params, CTX, free="0.7").operator
    p0 = F.generate(fid, params, 0, CTX)[0]
    parts = [num * O._SYMBOLS[sym](p0, MP.mpc(0, 1)) for num, sym in op.terms]
    num = sum(parts[1:], parts[0])
    assert num.coeff_norm() > 0
    # _image raises unless the remainder of num / D counts as zero
    assert O._image(op, p0, CTX).coeff_norm() <= CTX.tol(10)
    # the tolerant reduction of num / D, blind to the term size, keeps the
    # noise as a ratio with a pole
    assert RationalFunction(num, op.den).reduce(CTX).den.degree > 0
    image = O.apply(op, p0, CTX)
    assert image.den.degree == 0 and image.num.coeff_norm() <= CTX.tol(10)


@pytest.mark.parametrize("coeff, status", [("1", "fail"), ("1e-42", "inconclusive")])
def test_eigen_dead_end_ends_the_check(monkeypatch, capsys, coeff, status):
    # an extra c/x I term: a pole (fail), or a remainder in the ambiguity band
    # (inconclusive) at 50 digits; every view raises, and cli._row makes the row
    from minusone import cli
    from minusone.polynomials import NonDivisibleError, ReductionAmbiguityError

    fid = "symmetric-bannai-ito"
    entry = O._BUILDERS[fid]

    def with_pole(ctx, free, variant, **params):
        # over D x: every numerator times x, and c D on I
        den, terms, lam = entry.build(ctx, free, variant, **params)
        x = Poly.x(ctx)
        return (den * x, [(num * x, sym) for num, sym in terms]
                + [(den.scale(ctx.mp.mpc(coeff)), "I")], lam)

    monkeypatch.setitem(O._BUILDERS, fid, dataclasses.replace(entry, build=with_pole))
    error = {"fail": NonDivisibleError, "inconclusive": ReductionAmbiguityError}[status]
    with pytest.raises(error, match="P_0 at sigma = 0.5 "):
        O.eigen_check(fid, params_for(fid), 10, CTX)
    with pytest.raises(error, match="P_0 at sigma = 0.5 "):
        O.verify_eigen(fid, params_for(fid), 0, CTX)
    with pytest.raises(error, match="P_0 at sigma = 2 "):
        O.verify_eigen(fid, params_for(fid), 0, CTX, free="2")
    with pytest.raises(error, match="P_0"):
        O.check_diagonality(fid, params_for(fid), 8, CTX)
    code = cli.main(["verify", "--family", fid, "--checks", "eigen", "--digits", "50",
                     "--format", "json", "--no-timestamp"])
    assert code == (cli.EXIT_FAIL if status == "fail" else cli.EXIT_INCONCLUSIVE)
    [row] = json.loads(capsys.readouterr().out)["results"]
    assert (row["status"], row["residual"], row["tolerance"]) == (status, None, None), row
    assert "P_0 at sigma = 0.5" in row["notes"], row


@pytest.mark.parametrize("family, params, deviation", [
    ("chihara", {"alpha": "0.5", "beta": "1.5", "gamma": "1e8"}, "0.033"),
    ("continuous-minus1-hahn-1", {"alpha": "0.25", "beta": "5e7", "gamma": "0.75"}, "4.84e+09"),
])
def test_eigen_fail_row_names_the_sub_test_that_decided_it(monkeypatch, family, params, deviation):
    # both points pass; a basis-matrix deviation planted on top of the real
    # one (the size these rows read when the matrix was judged against
    # max|lambda_n| alone) fails the row while every per-degree residual
    # passes: the notes give that deviation and its gate, never "basis matrix diagonal"
    diagonality = O._diagonality
    monkeypatch.setattr(O, "_diagonality", lambda *args: {**diagonality(*args),
                                                          "max_offdiag": float(deviation)})
    ctx = PrecisionContext(15)
    rep = O.eigen_check(family, F.make_params(family, ctx, **params), 10, ctx)
    assert rep["status"] == "fail" and rep["residual"] <= rep["tolerance"], rep
    assert rep["notes"] == ("basis matrix P_0..P_8 not diagonal: largest relative deviation %s "
                            "exceeds the eigen gate 1e-05" % deviation), rep["notes"]


def test_eigen_row_fails_on_the_basis_matrix_alone_at_chihara_gamma_1e12():
    # at gamma = 1e12 the images, formed exactly and rounded once, pass; at
    # gamma = 1e16 the per-degree residuals pass and the basis matrix does not
    # (the monomial-to-P basis change loses the digits, ROADMAP item 3): the
    # notes give that deviation and its gate, never "basis matrix diagonal"
    ctx = PrecisionContext(15)
    params = F.make_params("chihara", ctx, alpha="0.5", beta="1.5", gamma="1e12")
    assert O.eigen_check("chihara", params, 10, ctx)["status"] == "pass"
    params = F.make_params("chihara", ctx, alpha="0.5", beta="1.5", gamma="1e16")
    rep = O.eigen_check("chihara", params, 10, ctx)
    assert rep["status"] == "fail" and rep["residual"] <= rep["tolerance"], rep
    assert rep["notes"] == ("basis matrix P_0..P_8 not diagonal: largest relative deviation 2.57 "
                            "exceeds the eigen gate 1e-05"), rep["notes"]


@pytest.mark.parametrize("family, params, digits", [
    ("continuous-minus1-hahn-1", {"alpha": "0.25", "beta": "5e7", "gamma": "0.75"}, 15),
    ("continuous-minus1-hahn-2", {"alpha": "0.25", "beta": "5e7", "gamma": "0.75"}, 15),
    ("chihara", {"alpha": "0.5", "beta": "1.5", "gamma": "1e8"}, 15),
    ("chihara", {"alpha": "0.5", "beta": "1.5", "gamma": "1e8"}, 50),
    ("chihara", {"alpha": "0.5", "beta": "1.5", "gamma": "1e8"}, 100),
])
def test_eigen_row_passes_where_the_coefficients_grow_with_a_parameter(family, params, digits):
    # each basis entry is judged on its residual's scale, so coefficients of
    # size beta^n or gamma^n no longer read as an off-diagonal entry
    ctx = PrecisionContext(digits)
    rep = O.eigen_check(family, F.make_params(family, ctx, **params), 10, ctx)
    assert rep["status"] == "pass", rep["notes"]


@pytest.mark.parametrize("digits", [15, 50])
def test_dropped_operator_term_never_passes(monkeypatch, digits):
    # every operator without one of its printed terms fails its eigen row, by
    # a residual or by a surviving pole, or ends inconclusive; never a pass
    from minusone import cli

    ctx = PrecisionContext(digits)
    rows = []
    for fid, entry in list(O._BUILDERS.items()):
        params = F.make_params(fid, ctx, **F.fixture_points(fid)[0])
        count = len(entry.build(ctx, ctx.mp.mpf(1) / 2, {}, **params)[1])
        for drop in range(count):
            def dropped(ctx, free, variant, build=entry.build, drop=drop, **params):
                den, terms, lam = build(ctx, free, variant, **params)
                return den, terms[:drop] + terms[drop + 1:], lam

            monkeypatch.setitem(O._BUILDERS, fid, dataclasses.replace(entry, build=dropped))
            rows.append(cli._row(fid, "eigen", "", O.eigen_check, fid, params, 10, ctx))
    assert len(rows) == 52
    passed = [(r["id"], r["notes"]) for r in rows if r["status"] not in ("fail", "inconclusive")]
    assert not passed, passed


@pytest.mark.parametrize("digits", [15, 50])
def test_basis_matrix_catches_a_wrong_eigenvalue(monkeypatch, digits):
    # lambda_3 off by 100 eigen gates fails every eigen row, and the basis
    # matrix sees it on its own in each of the 14 families
    ctx = PrecisionContext(digits)
    off = 1 + 100 * GATES["eigen"](ctx)
    caught = []
    for fid, entry in list(O._BUILDERS.items()):
        def wrong(ctx, free, variant, build=entry.build, **params):
            den, terms, lam = build(ctx, free, variant, **params)
            return den, terms, lambda n: lam(n) * off if n == 3 else lam(n)

        monkeypatch.setitem(O._BUILDERS, fid, dataclasses.replace(entry, build=wrong))
        params = F.make_params(fid, ctx, **F.fixture_points(fid)[0])
        assert O.eigen_check(fid, params, 10, ctx)["status"] == "fail", fid
        diag = O.check_diagonality(fid, params, 8, ctx)
        if max(diag["max_offdiag"], diag["max_diag_error"]) > diag["tolerance"]:
            caught.append(fid)
    assert caught == list(O._BUILDERS)


def test_one_image_per_free_value_and_degree(monkeypatch):
    # eigen_check reads residuals and the basis matrix off one image pass:
    # degrees 0..10 at each free value of the eigenvalue
    ctx = PrecisionContext(15)
    image = O._image
    for fid, entry in O._BUILDERS.items():
        calls = []
        monkeypatch.setattr(O, "_image", lambda *args: calls.append(1) or image(*args))
        O.eigen_check(fid, F.make_params(fid, ctx, **F.fixture_points(fid)[0]), 10, ctx)
        assert len(calls) == (22 if entry.free_name else 11), (fid, len(calls))


def test_shared_symbol_images_match_separately_built_systems(monkeypatch):
    # eigen_check computes each symbol image of P_n once for both free values;
    # every image it gets equals, bit for bit, the one a separately built
    # system gets from its own symbol images
    ctx = PrecisionContext(15)
    image, symbols = O._image, dict(O._SYMBOLS)
    seen, applied = [], []

    def counted(f):
        return lambda p, i: applied.append(1) or f(p, i)

    monkeypatch.setattr(O, "_image", lambda *args: seen.append(image(*args)) or seen[-1])
    monkeypatch.setattr(O, "_SYMBOLS", {name: counted(f) for name, f in symbols.items()})
    for fid, entry in O._BUILDERS.items():
        if not entry.free_name:
            continue
        seen.clear()
        applied.clear()
        params = F.fixture_points(fid)[0]
        O.eigen_check(fid, F.make_params(fid, ctx, **params), 10, ctx)
        systems = [O.build_eigen_system(fid, params, ctx, free=free) for free in ("0.5", "2")]
        assert len(applied) == 11 * len({symbol for _, symbol in systems[0].operator.terms}), fid
        polys = F.generate(fid, params, 10, ctx)
        alone = [image(es.operator, p, ctx) for es in systems for p in polys]
        assert [(q.re, q.im, q.exp) for q in seen] == [(q.re, q.im, q.exp) for q in alone], fid


@pytest.mark.parametrize("digits", [15, 50])
def test_resolved_readings_match_the_search(digits):
    # exactly one candidate passes: a reading whose rewrite had become a
    # no-op would pass alongside the resolved one
    ctx = PrecisionContext(digits)
    for fid, entry in O._BUILDERS.items():
        res = O._resolve_variant(fid, ctx)
        assert res["variant"] == {axis: O.READING_AXES[axis][0] for axis in entry.axes}, fid
        assert [o["passes"] for o in res["outcomes"]].count(True) == 1, (fid, res["outcomes"])
        assert len(res["outcomes"]) == 2 ** len(entry.axes), fid


def _eigen_check_sweep(digits):
    ctx = PrecisionContext(digits)
    for fid in O._BUILDERS:
        for point in F.fixture_points(fid):
            params = F.make_params(fid, ctx, **point)
            rep = O.eigen_check(fid, params, 10, ctx)
            assert rep["status"] == "pass", (digits, fid, point, rep["notes"])


@pytest.mark.parametrize("digits", [15, 20])
def test_eigen_check_precision_sweep(digits):
    _eigen_check_sweep(digits)


@pytest.mark.slow
@pytest.mark.parametrize("digits", [30, 100])
def test_eigen_check_precision_sweep_slow(digits):
    _eigen_check_sweep(digits)


@pytest.mark.parametrize("fid, systems", [("big-minus1-jacobi", 1), ("chihara", 2)])
def test_second_free_value_only_where_the_eigenvalue_has_one(monkeypatch, fid, systems):
    # a builder without a free parameter ignores it: a second system would repeat the first
    built = []
    build = O.build_eigen_system
    monkeypatch.setattr(O, "build_eigen_system",
                        lambda *args, **kw: built.append(kw["free"]) or build(*args, **kw))
    rep = O.eigen_check(fid, params_for(fid), 10, CTX)
    assert rep["status"] == "pass"
    assert len(built) == systems, built
    assert rep["notes"] == ("n <= 10; basis matrix diagonal" if systems == 1 else
                            "n <= 10 at two free-parameter values; basis matrix diagonal")
