import dataclasses
import math
import random
import re
import time

import pytest

from minusone.polynomials import Poly
from minusone.precision import GATES, PrecisionContext
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


@pytest.mark.parametrize("scaled", [{"a1": "1e8"}, {"b1": "5e7"}])
def test_ccbi_favard_row_passes_at_a_large_parameter(scaled):
    # the reality gate weighs Im b_n and Im u_n against |z| only up to 1e8, so
    # Im u_n = 3.5 next to |u_n| ~ 1e16 still breaks reality at b2 = 1
    ctx = PrecisionContext(15)
    params = F.make_params("ccbi", ctx, **{**F.fixture_points("ccbi")[0], **scaled})
    rep = orth.favard_check("ccbi", params, 200, ctx)
    assert rep["status"] == "pass", rep["notes"]


@pytest.mark.parametrize("family, params, notes", [
    ("symmetric-bannai-ito", {"a": "-1.5", "b": "0.5"}, "u_1 = -0.75 is not positive"),
    ("generalized-symmetric-bannai-ito",                 # a, b not a conjugate pair
     {"a": complex(0.75, 0.5), "b": complex(0.75, 0.5), "c": 1.25},
     "first nonreal b_n or u_n at n = 1: imaginary part above the reality gate at 15 digits"),
])
def test_failed_favard_row_names_the_sub_test_that_failed(family, params, notes):
    ctx = PrecisionContext(15)
    rep = orth.favard_check(family, F.make_params(family, ctx, **params), 200, ctx)
    assert (rep["status"], rep["notes"]) == ("fail", notes)


@pytest.mark.parametrize("family, params, status, notes", [
    ("generalized-gegenbauer", {"alpha": "0.6", "beta": "-1.5"}, "fail",
     "u_2 = -0.21645022 is not positive"),
    ("gegenbauer", {"alpha": "-0.5"}, "fail", "u_2 = 0.0 is not positive"),    # n + 2alpha = 1
    ("gegenbauer", {"alpha": "-7.3"}, "fail", "u_1 = -0.079365079 is not positive"),
    ("big-minus1-jacobi", {"alpha": "0.5", "beta": "1.5", "c": "1"}, "fail",
     "u_2 = 0.0 is not positive"),                                               # (1 - c)^2 = 0
    # 2m + alpha + beta = 0 at m = 20: past the recurrence's n <= 16, read off the factors
    ("generalized-gegenbauer", {"alpha": "0.5", "beta": "-40.5"}, "inconclusive",
     "printed denominator vanishes: a factor of the denominator of u_40 = 0.0"),
    ("generalized-gegenbauer", {"alpha": "0.5", "beta": "-4.5"}, "inconclusive",
     "printed denominator vanishes: (2n+alpha+beta+1)(2n+alpha+beta+2) = 0.0"),
    ("chihara", {"alpha": "0.5", "beta": "1.5", "gamma": "1e8"}, "pass",
     "u_n > 0 for all n by its printed factors, which match the recurrence through n = 16"),
])
def test_favard_row_decides_every_n_from_the_factors(family, params, status, notes):
    from minusone import cli

    ctx = PrecisionContext(15)
    [row] = cli._family_results(family, F.make_params(family, ctx, **params), ctx, ["favard"])
    assert (row["status"], row["notes"]) == (status, notes)


def test_favard_row_of_a_q_aux_family_scans_to_n():
    # the q-aux u_n carry q^n and have no factored form
    ctx = PrecisionContext(15)
    fid = "continuous-q-hahn"
    rep = orth.favard_check(fid, F.make_params(fid, ctx, **F.fixture_points(fid)[0]), 200, ctx)
    assert rep["status"] == "pass" and rep["notes"].endswith("over n <= 200"), rep
    assert rep["residual"] is None and rep["tolerance"] is None


# (numerator degree, denominator degree) in m of the printed u_n on n = 2m and on n = 2m + 1
_U_DEGREES = {
    "hermite": ((1, 0), (1, 0)),
    "generalized-hermite": ((1, 0), (1, 0)),
    "minus1-meixner-pollaczek": ((1, 0), (1, 0)),
    "symmetric-bannai-ito": ((2, 0), (2, 0)),
    "generalized-gegenbauer": ((2, 2), (2, 2)),
    "chihara": ((2, 2), (2, 2)),
    "gegenbauer": ((2, 2), (2, 2)),
    "big-minus1-jacobi": ((2, 2), (2, 2)),
    "little-minus1-jacobi": ((2, 2), (2, 2)),
    "special-little-minus1-jacobi": ((2, 2), (2, 2)),
    "generalized-symmetric-bannai-ito": ((4, 2), (4, 2)),
    "continuous-bannai-ito": ((4, 2), (4, 2)),
    "continuous-minus1-hahn-1": ((4, 2), (4, 2)),
    "continuous-minus1-hahn-2": ((4, 2), (4, 2)),
}


def test_favard_cross_check_reads_more_points_than_the_degree_of_a_difference():
    # two rational functions of m of degrees (num, den) differ by (N1 D2 - N2 D1) / (D1 D2),
    # whose numerator has degree <= num + den: zero at more points of a class than that, the
    # recurrence's u_n is the printed one for every m
    assert set(_U_DEGREES) == set(F.FACTORED_U) == set(F.orthogonal_ids())
    points = [len(range(2 - e, orth.FAVARD_N0 + 1, 2)) for e in (0, 1)]
    assert points == [8, 8]
    for fid, degrees in _U_DEGREES.items():
        classes = F.factored_u(fid, F.make_params(fid, CTX, **F.fixture_points(fid)[0]), CTX)
        for e, (u, (num, den)) in enumerate(zip(classes, degrees)):
            assert (len(u.num), len(u.den)) == (num, den), (fid, e)
            assert points[e] > num + den, (fid, e)


def _admissible_points(fid, count, ctx, seed=11):
    """``count`` seeded random points that ``FamilyInfo.admits`` accepts; Hermite's fixture."""
    info = F.family_info(fid)
    if info.admits is None:
        return [F.make_params(fid, ctx, **F.fixture_points(fid)[0])]
    rng, points = random.Random("%s:%d" % (fid, seed)), []
    while len(points) < count:
        params = F.make_params(fid, ctx, **{name: "%.6g" % rng.uniform(-2, 4)
                                            for name in info.params})
        if info.admits(ctx, **params):
            points.append(params)
    return points


_PAIR_FAMILIES = ("generalized-symmetric-bannai-ito", "symmetric-bannai-ito")


def _conjugate_pair_points(fid, count, ctx, seed=11):
    """``count`` seeded random points of a family of ``_PAIR_FAMILIES`` that ``admits``
    accepts, with a = x + iy and b = x - iy exactly and c real."""
    info, mp = F.family_info(fid), ctx.mp
    rng, points = random.Random("%s:pairs:%d" % (fid, seed)), []
    while len(points) < count:
        x, y, c = (mp.mpf("%.6g" % rng.uniform(-2, 4)) for _ in range(3))
        values = {"a": mp.mpc(x, y), "b": mp.mpc(x, -y), "c": c}
        params = F.make_params(fid, ctx, **{name: values[name] for name in info.params})
        if info.admits(ctx, **params):
            points.append(params)
    return points


@pytest.mark.parametrize("digits", [15, 50])
@pytest.mark.parametrize("fid", sorted(F.WEIGHTS))
def test_favard_row_passes_for_all_n_at_random_admissible_points(fid, digits):
    # the conjugate-pair families also at non-real points, where their factors pair off
    ctx = PrecisionContext(digits)
    pairs = _conjugate_pair_points(fid, 5, ctx) if fid in _PAIR_FAMILIES else []
    for params in _admissible_points(fid, 5, ctx) + pairs:
        rep = orth.favard_check(fid, params, 200, ctx)
        assert rep["status"] == "pass" and "for all n" in rep["notes"], (params, rep)


@pytest.mark.parametrize("digits", [15, 50])
@pytest.mark.parametrize("fid", _PAIR_FAMILIES)
def test_gram_passes_at_a_conjugate_pair_point(fid, digits):
    # also far out, a = 30.1 + 10.3i, where h_0 ~ 1e140: the Gamma arguments pair off, so
    # the printed norms are real exactly and the reality gate has no rounding to misread;
    # in the generalized family the pair also sits in (a, c) and in (b, c)
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    z, w, r = mp.mpc("30.1", "10.3"), mp.mpc("30.1", "-10.3"), mp.mpf("1.7")
    far = [{"a": z, "b": w, "c": r}]
    if fid == "generalized-symmetric-bannai-ito":
        far += [{"a": z, "b": r, "c": w}, {"a": r, "b": z, "c": w}]
    for params in _conjugate_pair_points(fid, 1, ctx) + [
            F.make_params(fid, ctx, **{name: p[name] for name in F.family_info(fid).params})
            for p in far]:
        rep = orth.gram(fid, params, 8, ctx)
        assert rep["status"] == "pass", (params, rep["notes"])
        assert all(not h.imag for h in F.WEIGHTS[fid].norms(ctx, 8, **params)), params


@pytest.mark.parametrize("fid", ["continuous-bannai-ito", "continuous-minus1-hahn-1",
                                 "continuous-minus1-hahn-2"])
def test_cbi_block_gram_passes_at_non_dyadic_parameters(fid):
    # beta + delta rounds at these points, and h_0 reaches 1e102 and beyond: the printed
    # norms must still be real exactly, or the reality gate would end the Gram on rounding
    ctx = PrecisionContext(15)
    for point in ({"alpha": "25", "beta": "0.1", "gamma": "0.25", "delta": "0.7"},
                  {"alpha": "5e7", "beta": "0.333333333333333333333333333333333333",
                   "gamma": "1", "delta": "0.25"}):
        params = F.make_params(fid, ctx, **{name: point[name]
                                            for name in F.family_info(fid).params})
        rep = orth.gram(fid, params, 8, ctx)
        assert rep["status"] == "pass", (params, rep["notes"])
        assert all(not h.imag for h in F.WEIGHTS[fid].norms(ctx, 8, **params)), params


def test_gram_ends_on_a_printed_norm_that_is_not_real(monkeypatch):
    from minusone import cli

    ctx = PrecisionContext(15)
    fid = "symmetric-bannai-ito"
    measure = F.WEIGHTS[fid]

    def nonreal(ctx, N, **params):
        values = measure.norms(ctx, N, **params)
        return values[:1] + [values[1] * ctx.mp.mpc(1, 1e-6)] + values[2:]

    monkeypatch.setitem(F.WEIGHTS, fid, dataclasses.replace(measure, norms=nonreal))
    params = F.make_params(fid, ctx, **F.fixture_points(fid)[0])
    [row] = cli._family_results(fid, params, ctx, ["orthogonality"])
    assert row["status"] == "inconclusive", row
    assert re.fullmatch(r"printed norm h_1 = \(.*\) is not real", row["notes"]), row


def test_favard_row_fails_on_a_negated_u_3(monkeypatch):
    ctx = PrecisionContext(15)
    for fid in F.orthogonal_ids():
        table = F._ALL_RECURRENCES[fid]

        def negated(ctx, N, table=table, **params):
            pairs = list(table(ctx, N, **params))
            pairs[3] = dataclasses.replace(pairs[3], u=-pairs[3].u)
            return pairs

        monkeypatch.setitem(F._ALL_RECURRENCES, fid, negated)
        rep = orth.favard_check(fid, F.make_params(fid, ctx, **F.fixture_points(fid)[0]), 200, ctx)
        assert rep["status"] == "fail", (fid, rep)


def _data(u):
    """Where each datum of a FactoredU sits: ("const", None, None) and (field, factor, entry)."""
    yield "const", None, None
    for field in ("num", "den"):
        for i, factor in enumerate(getattr(u, field)):
            for j in range(len(factor)):
                yield field, i, j


def _off(u, where, by):
    """u with the datum at ``where`` scaled by 1 + by, or set to ``by`` where it is 0."""
    field, i, j = where
    off = lambda x: x * (1 + by) if x else by
    if field == "const":
        return dataclasses.replace(u, const=off(u.const))
    factors = [list(factor) for factor in getattr(u, field)]
    factors[i][j] = off(factors[i][j])
    return dataclasses.replace(u, **{field: tuple(map(tuple, factors))})


@pytest.mark.parametrize("digits", [15, 50])
def test_favard_row_fails_on_a_factor_datum_off_by_100_gates(monkeypatch, digits):
    # every datum of every family's factored u_n, one at a time: the cross-check catches it
    ctx = PrecisionContext(digits)
    by = 100 * GATES["favard"](ctx)
    for fid in F.orthogonal_ids():
        table = F.FACTORED_U[fid]
        params = F.make_params(fid, ctx, **F.fixture_points(fid)[0])
        for e, u in enumerate(F.factored_u(fid, params, ctx)):
            for where in _data(u):
                def mutated(ctx, e=e, where=where, **params):
                    classes = list(table(ctx, **params))
                    classes[e] = _off(classes[e], where, by)
                    return tuple(classes)

                monkeypatch.setitem(F.FACTORED_U, fid, mutated)
                rep = orth.favard_check(fid, params, 200, ctx)
                assert rep["status"] == "fail", (fid, e, where, rep)
                assert "differs from its printed factors" in rep["notes"], (fid, e, where, rep)
            monkeypatch.setitem(F.FACTORED_U, fid, table)


@pytest.mark.parametrize("one, zero, notes", [
    (None, None, "b2 = 1 keeps every b_n and u_n real through n = 5"),
    (2, 3, "b2 = 0: first nonreal b_n or u_n at n = 3: imaginary part above the "
           "reality gate at 15 digits"),
    (None, 0, "b2 = 1 keeps every b_n and u_n real through n = 5; b2 = 0: first nonreal "
              "b_n or u_n at n = 0: imaginary part above the reality gate at 15 digits"),
])
def test_failed_ccbi_favard_row_names_the_half_that_broke(monkeypatch, one, zero, notes):
    # the CCBI row classifies: nonreal at b2 = 1 (first_nonreal_n ``one``), real at b2 = 0
    def scan(fid, params, N, ctx):
        return {"first_nonreal_n": one if params["b2"] else zero}

    monkeypatch.setattr(orth, "favard_scan", scan)
    ctx = PrecisionContext(15)
    params = F.make_params("ccbi", ctx, **F.fixture_points("ccbi")[0])
    rep = orth.favard_check("ccbi", params, 200, ctx)
    assert (rep["status"], rep["notes"]) == ("fail", notes)


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


def _fdot_gram(fid, params, N, ctx):
    # the Gram the integer rows replace: mpmath recurrence values and one fdot per entry
    work, spec, table = orth._boosted_table(fid, params, ctx, 2 * N)
    mp = work.mp
    values, prev = [[mp.mpf(1)] * len(table.xs)], [mp.mpf(0)] * len(table.xs)
    for b, u in orth._real_pairs(fid, params, N, work):
        cur = values[-1]
        values.append([(x - b) * p - u * q for x, p, q in zip(table.xs, cur, prev)])
        prev = cur
    weighted = [[w * v for w, v in zip(table.weights, row)] for row in values]
    return mp, [[mp.fdot(weighted[n], values[m]) * spec.measure_prefactor
                 for m in range(N + 1)] for n in range(N + 1)]


def test_integer_gram_matches_fdot_gram():
    ctx = PrecisionContext(15)
    N = 8
    for fid in F.orthogonal_ids():
        params = F.make_params(fid, ctx, **F.fixture_points(fid)[0])
        matrix = orth.gram(fid, params, N, ctx)["matrix"]
        mp, ref = _fdot_gram(fid, params, N, ctx)
        bound = mp.mpf(2) ** -(mp.prec - 8)
        for n in range(N + 1):
            for m in range(N + 1):
                scale = mp.sqrt(ref[n][n] * ref[m][m])
                assert abs(matrix[n][m] - ref[n][m]) <= bound * scale, (fid, n, m)


def test_kernel_rows_stay_narrow():
    # block fixed point truncates below each row's scale; aligning the gaussian
    # tails exactly instead would need integers of hundreds of thousands of bits
    ctx = PrecisionContext(50)
    for fid in ("generalized-hermite", "hermite"):
        params = F.make_params(fid, ctx, **F.fixture_points(fid)[0])
        work, _, table = orth._boosted_table(fid, params, ctx, 16)
        rows = orth._root_rows(table, orth._real_pairs(fid, params, 8, work))
        assert len(rows) == 9
        for row in rows:
            assert max(abs(v).bit_length() for v in row.mans) < work.mp.prec + 32 + 64, fid


def test_gram_needs_a_positive_measure(monkeypatch):
    from minusone import cli, quadrature

    # symmetric Bannai-Ito at a = 1 + i/2: u_1 = 1 + i/2, so no positive measure exists, and
    # the printed clause (non-real parameters in conjugate pairs) rules the point out
    ctx = PrecisionContext(30)
    mp = ctx.mp
    params = {"a": mp.mpc(1, 0.5), "b": mp.mpf(1)}
    with pytest.raises(F.InadmissibleParameterError, match=re.escape("[A.10]")):
        orth.gram("symmetric-bannai-ito", params, 8, ctx)
    [result] = cli._family_results("symmetric-bannai-ito", params, ctx, ["orthogonality"])
    assert result["status"] == "inconclusive" and "[A.10]" in result["notes"], result

    # a pair conjugate only to within 1e-12 is not a conjugate pair: the clause ends the Gram
    near_ctx = PrecisionContext(15)
    near = {"a": near_ctx.mp.mpc(0.75, 0.5), "b": near_ctx.mp.mpc(0.75, -(0.5 + 1e-12)),
            "c": near_ctx.mp.mpf(1.25)}
    with pytest.raises(F.InadmissibleParameterError, match=re.escape("[A.6]")):
        orth.gram("generalized-symmetric-bannai-ito", near, 8, near_ctx)
    [result] = cli._family_results("generalized-symmetric-bannai-ito", near, near_ctx,
                                   ["orthogonality"])
    assert result["status"] == "inconclusive" and "[A.6]" in result["notes"], result

    # past the clause, a recurrence coefficient that fails the reality gate still ends the Gram
    fid = "symmetric-bannai-ito"
    table = F._ALL_RECURRENCES[fid]

    def nonreal_u_1(ctx, N, **params):
        pairs = list(table(ctx, N, **params))
        pairs[1] = dataclasses.replace(pairs[1], u=pairs[1].u + ctx.mp.mpc(0, 1e-3))
        return pairs

    monkeypatch.setitem(F._ALL_RECURRENCES, fid, nonreal_u_1)
    sbi = F.make_params(fid, ctx, **F.fixture_points(fid)[0])
    with pytest.raises(F.ParameterError, match="u_1 = .* is not real"):
        orth.gram(fid, sbi, 8, ctx)
    [result] = cli._family_results(fid, sbi, ctx, ["orthogonality"])
    assert result["status"] == "inconclusive" and "not real" in result["notes"], result

    # a conjugate pair keeps the generalized symmetric recurrence real
    params = {"a": mp.mpc(0.75, 0.5), "b": mp.mpc(0.75, -0.5), "c": mp.mpf(1.25)}
    [result] = cli._family_results("generalized-symmetric-bannai-ito", params, ctx,
                                   ["orthogonality"])
    assert result["status"] == "pass", result

    # a density that changes sign has no square root to split
    table = quadrature.build_node_table([(mp.mpf(-1), mp.mpf(1))], lambda x, a, b: x, ctx,
                                        ctx.tol(8), 0)
    with pytest.raises(F.ParameterError, match="nonnegative"):
        orth._root_rows(table, [])


# a = x + iy and b = conj(a) - i delta: the clause admits the point exactly when delta = 0, at
# every precision, and the orthogonality and Favard rows follow it
_PAIR_SWEEP = {"generalized-symmetric-bannai-ito": ("A.6", "0.75", "0.5", {"c": "1.25"}),
               "symmetric-bannai-ito": ("A.10", "0.6", "0.3", {})}


@pytest.mark.parametrize("delta", ["0", "1e-20", "1e-16", "1e-14", "1e-12", "1e-8"])
@pytest.mark.parametrize("fid", sorted(_PAIR_SWEEP))
@pytest.mark.parametrize("digits", [15, 20] + [pytest.param(d, marks=pytest.mark.slow)
                                               for d in (16, 18, 50)])
def test_conjugate_pair_clause_decides_the_gram_and_favard_rows(digits, fid, delta):
    from minusone import cli

    anchor, x, y, rest = _PAIR_SWEEP[fid]
    exact = PrecisionContext(60).mp          # 75 digits: b keeps delta = 1e-20 at every d
    a, b = exact.mpc(x, y), exact.mpc(x, -(exact.mpf(y) + exact.mpf(delta)))
    ctx = PrecisionContext(digits)
    params = F.make_params(fid, ctx, a=a, b=b, **rest)
    assert F.family_info(fid).admits(ctx, **params) == (delta == "0")
    rows = {row["check"]: row for row in
            cli._family_results(fid, params, ctx, ["orthogonality", "favard"])}
    gram, favard = rows["orthogonality"], rows["favard"]
    if delta == "0":
        assert (gram["status"], favard["status"]) == ("pass", "pass"), rows
    else:
        assert gram["status"] == "inconclusive" and "[%s]" % anchor in gram["notes"], gram
        assert favard["status"] == "fail", favard


def test_gaussian_half_line_tables_node_count():
    # the exp(t - exp(-t)) half-line map: a work count, not a timing
    for fid in ("generalized-hermite", "minus1-meixner-pollaczek"):
        params = F.make_params(fid, CTX, **F.fixture_points(fid)[0])
        _, _, table = orth._boosted_table(fid, params, CTX, 16)
        assert table.converged, fid
        assert len(table.xs) <= 1200, (fid, len(table.xs))


def _headroom(tol, err):
    return math.inf if err == 0 else math.log10(tol / err)


def _assert_gram_sweep(digits, points=1, min_headroom=15):
    # every orthogonal family passes the CLI gate, on and off the diagonal, with min_headroom
    # digits to spare at its first `points` fixture points
    ctx = PrecisionContext(digits)
    gate = 10.0 ** -(digits / 2)
    for fid in F.orthogonal_ids():
        for pt in F.fixture_points(fid)[:points]:
            params = F.make_params(fid, ctx, **pt)
            rep = orth.gram(fid, params, 8, ctx)
            assert rep["converged"], (digits, fid, pt)
            assert (rep["tolerance"], rep["status"]) == (gate, "pass")
            worst = max(rep["max_offdiag"], rep["max_diag_error"])
            assert worst <= gate, (digits, fid, pt)
            headroom = _headroom(gate, worst)
            assert headroom >= min_headroom, (digits, fid, pt, headroom)


@pytest.mark.parametrize("digits", [15, 20])
def test_gram_sweep_low_precision(digits):
    _assert_gram_sweep(digits)


def test_gram_sweep_all_fixture_points():
    # the weakest point of the sweep is an endpoint singularity, such as the
    # (x^2 - gamma^2)^(-1/2) of -1 Meixner-Pollaczek at alpha = 0; its factors are built from
    # the node's offsets, so it keeps about 22 digits of headroom at 15 digits
    _assert_gram_sweep(15, points=3, min_headroom=12)


@pytest.mark.parametrize("digits", [15, 20])
def test_gram_sweep_all_points_keep_fifteen_digits(digits):
    _assert_gram_sweep(digits, points=3, min_headroom=15)


def _table_gram_error(fid, params, N, work, tol):
    """Node table at the given context and tolerance, and its Gram error against the norms."""
    mp = work.mp
    spec = F.weight_spec(fid, params, work)
    table = orth.build_node_table(spec, work, tol, 2 * N)
    rows = orth._root_rows(table, orth._real_pairs(fid, params, N, work))
    norms = F.norms(fid, params, N, work)
    error = mp.mpf(0)
    for n in range(N + 1):
        for m in range(n + 1):
            entry = table.dot(rows[n], rows[m]) * spec.measure_prefactor
            exact = norms[n] if n == m else 0
            error = max(error, abs(entry - exact) / mp.sqrt(norms[n] * norms[m]))
    return table, error


def test_singular_endpoint_gram_converges_at_full_precision():
    # (x^2 - gamma^2)^(-1/2) at the +-gamma endpoints: recomputed from the rounded node, the
    # factor held the error near 1e-38 at 75 working digits and the table never converged
    work = PrecisionContext(60)
    assert work.mp.dps == 75
    fid = "minus1-meixner-pollaczek"
    params = F.make_params(fid, work, alpha="0", gamma="0.75")
    table, error = _table_gram_error(fid, params, 8, work, work.mp.mpf("1e-50"))
    assert table.converged
    assert error < 1e-45, error


@pytest.mark.parametrize("digits", [15, 20, 30, 50])
def test_chihara_gram_far_out_on_the_line_is_never_a_false_fail(digits):
    # at beta = 1.5e8 the two support pieces lie near |x| = 1e8, where the Gram
    # rows lose about 20 digits to cancellation in the recurrence; a table that
    # finds the mass must not turn that rounding into a FAIL of a correct weight
    ctx = PrecisionContext(digits)
    params = F.make_params("chihara", ctx, alpha="0.5", beta="1.5e8", gamma="0.25")
    row = orth.gram("chihara", params, 8, ctx)
    assert row["status"] in ("pass", "inconclusive"), (digits, row)


@pytest.mark.parametrize("beta", ["1e80", "1e300"])
def test_chihara_gram_at_a_huge_exponent_ends_inconclusive_at_once(beta):
    # (1 + gamma^2 - x^2)^beta: mpmath's ** would square about log2(beta) times per node
    # (2 s for the row at 1e300); the density takes exp(beta log) there
    ctx = PrecisionContext(15)
    params = F.make_params("chihara", ctx, alpha="0.5", beta=beta, gamma="0.5")
    start = time.perf_counter()
    row = orth.gram("chihara", params, 8, ctx)
    assert time.perf_counter() - start < 0.5
    assert row["status"] == "inconclusive", row


@pytest.mark.slow
def test_gram_sweep_high_precision():
    for digits in (30, 100):
        _assert_gram_sweep(digits)


_GAMMA_FAMILIES = ("continuous-bannai-ito", "continuous-minus1-hahn-1", "continuous-minus1-hahn-2",
                   "generalized-symmetric-bannai-ito", "symmetric-bannai-ito")


@pytest.mark.parametrize("digits", [15, 50, pytest.param(100, marks=pytest.mark.slow)])
def test_gamma_gram_rows_fail_with_a_mutated_density(digits, monkeypatch):
    # each |Gamma|^2 density times (1 + delta x^2), delta one Gram gate, through a wrapped
    # families.weight_spec: the Gram row at the first fixture point fails, with residuals
    # 12 to 65 gates at 15, 50 and 100 digits
    ctx = PrecisionContext(digits)
    delta = GATES["gram"](ctx)
    weight_spec = F.weight_spec

    def mutated(fid, params, work):
        spec = weight_spec(fid, params, work)
        d = work.mp.mpf(delta)
        dens = spec.density
        return dataclasses.replace(spec, density=lambda x, *o: dens(x, *o) * (1 + d * x * x))

    monkeypatch.setattr(F, "weight_spec", mutated)
    for fid in _GAMMA_FAMILIES:
        row = orth.gram(fid, F.make_params(fid, ctx, **F.fixture_points(fid)[0]), 8, ctx)
        assert row["status"] == "fail" and row["residual"] > 10 * delta, (fid, row["residual"])
