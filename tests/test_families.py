import dataclasses
import inspect
import random
import re
import sys

import pytest
from mpmath.ctx_mp import MPContext

from minusone import precision
from minusone.precision import PrecisionContext
from minusone.polynomials import Poly, poly_rel_distance
from test_polynomials import poly_eq
from minusone import cli
from minusone import families as F
from minusone import operators as O
from minusone import orthogonality as orth
from minusone import scheme as S
from minusone.families import (
    InadmissibleParameterError,
    NoEigenSystemError,
    NoWeightError,
    ParameterError,
    UnknownFamilyError,
    weights,
)

CTX = PrecisionContext(50)
MP = CTX.mp


def P(fid, **kw):
    return F.make_params(fid, CTX, **kw)


def test_catalog_counts_and_aliases():
    assert len(F.family_ids()) == 19
    assert len(F.scheme_ids()) == 15
    assert len(F.orthogonal_ids()) == 14
    assert F.resolve_family("cbi") == "continuous-bannai-ito"
    assert F.resolve_family("CCBI") == "continuous-complementary-bannai-ito"
    with pytest.raises(UnknownFamilyError):
        F.resolve_family("nope")


def test_hermite_recurrence_values():
    pair = F.recurrence("hermite", {}, 2, CTX)
    assert pair.b == 0 and abs(pair.u - 1) == 0
    assert abs(F.recurrence("hermite", {}, 3, CTX).u - MP.mpf("1.5")) == 0


def test_recurrence_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="n must be >= 0"):
        F.recurrence("hermite", {}, -1, CTX)


def test_cbi_recurrence_hand_values():
    params = P("cbi", alpha="0", beta="1", gamma="0", delta="0")
    assert abs(F.recurrence("cbi", params, 0, CTX).b - 1) < CTX.tol(6)
    # u_1 via |2 + 2i|^2 = 8
    assert abs(F.recurrence("cbi", params, 1, CTX).u - 2) < CTX.tol(6)


def _cbi_printed(al, be, ga, de, n):
    """Continuous Bannai-Ito (b_n, u_n) as printed, one degree at a time: the reference
    the sequence function must match bit for bit."""
    d1 = MP.mpf(n) + 2 * al + 2 * ga + 1
    d2 = MP.mpf(n) + 2 * al + 2 * ga + 2
    if n % 2 == 0:
        b = 2 * be - (n + 4 * al + 2) * (be - de) / d2 - n * (be + de) / d1
        u = n * (n + 4 * al + 4 * ga + 2) * (d1 ** 2 + 4 * (be + de) ** 2) / (4 * d1 ** 2)
    else:
        b = 2 * be - (n + 4 * al + 4 * ga + 3) * (be + de) / d2 - (n + 4 * ga + 1) * (be - de) / d1
        u = (n + 4 * al + 1) * (n + 4 * ga + 1) * (d1 ** 2 + 4 * (be - de) ** 2) / (4 * d1 ** 2)
    return b, u


def test_cbi_sequence_is_the_printed_formula_bit_for_bit():
    # hoisting n-free subexpressions keeps every rounding of the printed formula
    for point in F.fixture_points("cbi") + [dict(alpha="0.1", beta="0.3333333", gamma="0.7",
                                                 delta="0.45")]:
        params = P("cbi", **point)
        al, be, ga, de = (params[k] for k in ("alpha", "beta", "gamma", "delta"))
        pairs = F.recurrences("cbi", params, 40, CTX)
        assert [(p.b, p.u) for p in pairs] == [_cbi_printed(al, be, ga, de, n) for n in range(41)]


@pytest.mark.parametrize("gamma, factor", [
    ("-0.25", "n+2alpha+2gamma+1"),      # d1 = n vanishes at n = 0
    ("-0.75", "n+2alpha+2gamma+2"),      # d1 = n - 1 passes at n = 0, d2 = n does not
])
def test_printed_denominator_zero_names_its_factor(gamma, factor):
    # at every n the factors are tested in the order of the formula: d1, then d2
    params = P("cbi", alpha="-0.25", beta="1", gamma=gamma, delta="0.5")
    with pytest.raises(ParameterError, match=re.escape("vanishes: %s = " % factor)):
        F.recurrences("cbi", params, 5, CTX)


def test_generalized_gegenbauer_u1():
    params = P("gen-gegenbauer", alpha="0", beta="1")
    assert abs(F.recurrence("gen-gegenbauer", params, 1, CTX).u - MP.mpf(1) / 3) < CTX.tol(6)


def test_generate_examples():
    chi = F.generate("chihara", P("chihara", alpha="0.7", beta="1.1", gamma="0.25"), 1, CTX)
    assert poly_eq(chi[1], Poly([-MP.mpf("0.25"), 1]), CTX)

    her = F.generate("hermite", {}, 2, CTX)
    assert poly_eq(her[2], Poly([-MP.mpf("0.5"), 0, 1]), CTX)

    al, ga = MP.mpf("0.6"), MP.mpf("0.3")
    mp2 = F.generate("minus1-meixner-pollaczek", {"alpha": al, "gamma": ga}, 2, CTX)
    assert poly_eq(mp2[2], Poly([-(ga * ga + al + MP.mpf("0.5")), 0, 1]), CTX)


def test_closed_form_basics():
    for fid in ("hermite", "gegenbauer", "continuous-bannai-ito", "symmetric-bannai-ito"):
        params = P(fid, **F.fixture_points(fid)[0])
        assert F.closed_form(fid, params, 0, CTX).degree == 0

    leg2 = F.closed_form("gegenbauer", P("gegenbauer", alpha="0.5"), 2, CTX)
    assert poly_eq(leg2, Poly([-MP.mpf(1) / 3, 0, 1]), CTX)

    h2 = F.closed_form("hermite", {}, 2, CTX)
    assert poly_eq(h2, Poly([-MP.mpf("0.5"), 0, 1]), CTX)


def test_closed_form_matches_recurrence_all_families():
    for fid in F.family_ids():
        if fid in ("big-q-jacobi", "little-q-jacobi-dilated", "continuous-q-hahn",
                   "q-meixner-pollaczek"):
            continue          # recurrence-only entries
        params = P(fid, **F.fixture_points(fid)[0])
        polys = F.generate(fid, params, 10, CTX)
        for n in range(11):
            cf = F.closed_form(fid, params, n, CTX)
            assert poly_rel_distance(polys[n], cf) <= CTX.tol(10), (fid, n)


def test_closed_form_leading_coefficient_is_one():
    # the printed prefactors make the raw form monic, except that the
    # little -1 Jacobi odd block (and its special-alpha=0 child) comes out
    # with leading coefficient -1
    for fid in ("hermite", "gegenbauer", "chihara", "generalized-symmetric-bannai-ito",
                "symmetric-bannai-ito", "little-minus1-jacobi", "big-minus1-jacobi",
                "special-little-minus1-jacobi", "continuous-bannai-ito",
                "continuous-complementary-bannai-ito"):
        params = P(fid, **F.fixture_points(fid)[0])
        for n in (1, 3, 4, 7):
            raw = F.CLOSED_FORMS[fid](CTX, n, **F._bind(fid, params, CTX))[n]
            lead = raw[raw.degree]
            expected = 1
            if n % 2 and fid in ("little-minus1-jacobi", "special-little-minus1-jacobi"):
                expected = (-1) ** ((n - 1) // 2 + 1)
            assert abs(lead - expected) <= CTX.tol(8) * 10, (fid, n, lead)


def test_parity_symmetric_families():
    for fid in ("generalized-symmetric-bannai-ito", "symmetric-bannai-ito",
                "generalized-gegenbauer", "gegenbauer", "generalized-hermite", "hermite"):
        params = P(fid, **F.fixture_points(fid)[0])
        polys = F.generate(fid, params, 8, CTX)
        for n, p in enumerate(polys):
            flipped = p.reflect().scale(MP.mpf(-1) ** n)
            assert poly_eq(flipped, p, CTX), (fid, n)


def test_gamma_reflection_covariance():
    # P_n(-x; ..., -gamma) = (-1)^n P_n(x; ..., gamma)
    for fid, base in (("chihara", {"alpha": "0.5", "beta": "1.5"}),
                      ("minus1-meixner-pollaczek", {"alpha": "0.75"})):
        plus = P(fid, **{**base, "gamma": "0.4"})
        minus = P(fid, **{**base, "gamma": "-0.4"})
        pp = F.generate(fid, plus, 8, CTX)
        pm = F.generate(fid, minus, 8, CTX)
        for n in range(9):
            lhs = pm[n].reflect()
            rhs = pp[n].scale(MP.mpf(-1) ** n)
            assert poly_eq(lhs, rhs, CTX), (fid, n)


def test_decomposition_consistency_random_points():
    # b_n and u_n = A_{n-1} C_n as each A/C family prints them, at random points
    one_minus = lambda p, A, C: 1 - A - C

    def q_hahn_b(p, A, C):
        eip = MP.exp(1j * p["phi"])
        return ((p["a"] * eip + 1 / (p["a"] * eip)) / (1 + p["q"]) - A - C) / 2

    rng = random.Random(99)
    for _ in range(20):
        al = MP.mpf(repr(rng.uniform(0.2, 3.0)))
        be = MP.mpf(repr(rng.uniform(0.2, 3.0)))
        c = MP.mpf(repr(rng.uniform(0.0, 0.9)))
        q = MP.mpf(repr(rng.uniform(-0.95, -0.5)))
        phi = MP.mpf(repr(rng.uniform(0.1, 1.5)))
        for fid, params, b_of, u_over in (
                ("little-minus1-jacobi", {"alpha": al, "beta": be}, one_minus, 1),
                ("big-minus1-jacobi", {"alpha": al, "beta": be, "c": c}, one_minus, 1),
                ("special-little-minus1-jacobi", {"alpha": al}, one_minus, 1),
                ("big-q-jacobi", {"a": al / 4, "b": be / 4, "c": c, "q": q}, one_minus, 1),
                ("little-q-jacobi-dilated", {"a": al / 4, "b": be / 4, "q": q}, one_minus, 1),
                ("little-q-jacobi-dilated", {"a": al / 4, "b": be / 4, "q": q, "bn_sign": "plus"},
                 lambda p, A, C: 1 - A + C, 1),
                ("continuous-q-hahn", {"a": al / 4, "b": be / 4, "phi": phi, "q": q}, q_hahn_b, 4)):
            n = rng.randint(1, 12)
            pairs = F.recurrences(fid, params, n, CTX)
            pair, prev = pairs[n], pairs[n - 1]
            assert abs(pair.b - b_of(params, pair.A, pair.C)) <= CTX.tol(8) * max(1, abs(pair.b)), fid
            assert abs(pair.u - prev.A * pair.C / u_over) <= CTX.tol(8) * max(1, abs(pair.u)), fid


def test_recurrences_are_prefixes_of_one_sequence():
    # entry n does not depend on how far the sequence runs
    for fid in F.family_ids():
        params = P(fid, **F.fixture_points(fid)[0])
        full = F.recurrences(fid, params, 12, CTX)
        for k in (0, 1, 5, 11):
            assert F.recurrences(fid, params, k, CTX) == full[:k + 1], (fid, k)
        assert F.recurrence(fid, params, 7, CTX) == full[7], fid


@pytest.mark.parametrize("run, fids", [
    (lambda fid, params: F.generate(fid, params, 8, CTX), ("hermite", "little-minus1-jacobi")),
    (lambda fid, params: orth.favard_scan(fid, params, 8, CTX), ("hermite", "little-minus1-jacobi")),
    (lambda fid, params: orth.favard_check(fid, params, 200, CTX),
     ("hermite", "little-minus1-jacobi")),
    (lambda fid, params: orth.gram(fid, params, 4, PrecisionContext(15)),
     ("hermite", "little-minus1-jacobi")),
    # needs a printed (A_n, C_n): the kernel polynomials divide P_{n+1} - A_n P_n
    (lambda fid, params: S.christoffel(F.recurrences(fid, params, 6, CTX), CTX),
     ("little-minus1-jacobi", "big-minus1-jacobi")),
    # one call for the source of each kernel pair and one for its target
    (lambda fid, params: [S.verify_ct_gt(pair, 10, CTX) for pair in (
        "little-minus1-jacobi:generalized-gegenbauer", "big-minus1-jacobi:chihara")],
     ("little-minus1-jacobi", "generalized-gegenbauer", "big-minus1-jacobi", "chihara")),
], ids=["generate", "favard_scan", "favard_check", "gram", "christoffel", "verify_ct_gt"])
def test_one_recurrence_table_call_per_sequence(monkeypatch, run, fids):
    for fid in fids:
        table = F._ALL_RECURRENCES[fid]
        calls = []

        def counted(ctx, N, table=table, calls=calls, **params):
            calls.append(N)
            return table(ctx, N, **params)

        monkeypatch.setitem(F._ALL_RECURRENCES, fid, counted)
        run(fid, P(fid, **F.fixture_points(fid)[0]))
        assert len(calls) == 1, (fid, calls)


# table -> (function of an entry, its leading arguments before the parameters)
_TABLES = {
    "recurrences": (F._ALL_RECURRENCES, lambda fn: fn, ("ctx", "N")),
    "closed forms": (F.CLOSED_FORMS, lambda fn: fn, ("ctx", "N")),
    "weight specs": (F.WEIGHTS, lambda measure: measure.spec, ("ctx",)),
    "norms": (F.WEIGHTS, lambda measure: measure.norms, ("ctx", "N")),
    "eigen builders": (O._BUILDERS, lambda entry: entry.build, ("ctx", "free", "variant")),
    "admissibility tests": ({fid: info for fid, info in F.REGISTRY.items() if info.admits},
                            lambda info: info.admits, ("ctx",)),
    "factored u_n": (F.FACTORED_U, lambda fn: fn, ("ctx",)),
}


@pytest.mark.parametrize("table", list(_TABLES))
def test_table_functions_take_the_schema_by_name(table):
    # parsed once by the dispatcher, the parameters arrive as keywords named by the schema;
    # a per-degree norm formula shows its own signature, (ctx, n, ...)
    entries, fn_of, leading = _TABLES[table]
    for fid, entry in entries.items():
        params = list(inspect.signature(fn_of(entry)).parameters.values())
        schema = list(F.family_info(fid).params)
        assert [p.name.lower() for p in params[:len(leading)]] == [name.lower() for name in leading]
        named = params[len(leading):]
        assert [p.name for p in named[:len(schema)]] == schema, (table, fid)
        assert all(p.default is p.empty for p in named[:len(schema)]), (table, fid)
        assert [(p.name, p.default) for p in named[len(schema):]] in ([], [("bn_sign", "minus")]), \
            (table, fid)


_MISSING = [
    ("recurrences", lambda fid, params: F.recurrences(fid, params, 3, CTX), F._ALL_RECURRENCES),
    ("closed_form", lambda fid, params: F.closed_form(fid, params, 3, CTX), F.CLOSED_FORMS),
    ("weight_spec", lambda fid, params: F.weight_spec(fid, params, CTX), F.WEIGHTS),
    ("norms", lambda fid, params: F.norms(fid, params, 3, CTX), F.WEIGHTS),
    ("build_eigen_system", lambda fid, params: O.build_eigen_system(fid, params, CTX), O._BUILDERS),
]


@pytest.mark.parametrize("run, fids", [m[1:] for m in _MISSING], ids=[m[0] for m in _MISSING])
def test_missing_parameter_names_family_and_parameter(run, fids):
    # never a TypeError from the table function's signature
    for fid in fids:
        point = F.fixture_points(fid)[0]
        for name in point:
            rest = {k: v for k, v in point.items() if k != name}
            with pytest.raises(ParameterError,
                               match=re.escape("family %s needs parameter %r" % (fid, name))):
                run(fid, rest)


def test_binding_converts_once_and_keeps_a_wider_mantissa():
    # the Gram's narrower table context relies on mp.convert keeping the mantissa
    narrow = PrecisionContext(15)
    third = MP.mpf(1) / 3
    assert F._bind("gegenbauer", {"alpha": third}, narrow)["alpha"]._mpf_ == third._mpf_
    assert F.make_params("gegenbauer", narrow, alpha=third)["alpha"]._mpf_ == third._mpf_
    bound = F._bind("generalized-symmetric-bannai-ito",
                    {"a": 1 + 2j, "b": 1 - 2j, "c": "0.1", "extra": "kept"}, narrow)
    assert bound["a"] == narrow.mp.mpc(1, 2) and isinstance(bound["a"], narrow.mp.mpc)
    assert bound["c"] == narrow.mp.mpf("0.1") and bound["extra"] == "kept"
    with pytest.raises(ParameterError, match="not a real number"):
        F._bind("gegenbauer", {"alpha": "abc"}, narrow)


def test_bn_sign_defaults_to_minus_and_is_validated():
    fid = "little-q-jacobi-dilated"
    params = P(fid, **F.fixture_points(fid)[0])

    def pairs(**sign):
        return [(p.b, p.u) for p in F.recurrences(fid, {**params, **sign}, 6, CTX)]

    assert pairs() == pairs(bn_sign="minus") != pairs(bn_sign="plus")
    with pytest.raises(ParameterError, match="bn_sign"):
        pairs(bn_sign="x")


def test_weight_spec_hermite():
    spec = F.weight_spec("hermite", {}, CTX)
    ((lo, hi),) = spec.pieces
    assert MP.isinf(lo) and MP.isinf(hi)
    assert abs(spec.density(MP.mpf(1)) - MP.exp(MP.mpf(-1))) < CTX.tol(6)


def test_weight_spec_chihara_support():
    spec = F.weight_spec("chihara", P("chihara", alpha="0.5", beta="1", gamma="0.25"), CTX)
    (lo0, hi0), (lo1, hi1) = spec.pieces
    top = MP.sqrt(MP.mpf(17)) / 4
    assert abs(lo0 + top) < CTX.tol(6) and abs(hi0 + MP.mpf("0.25")) < CTX.tol(6)
    assert abs(lo1 - MP.mpf("0.25")) < CTX.tol(6) and abs(hi1 - top) < CTX.tol(6)


def test_gsbi_density_formula():
    # |Gamma(ix) Gamma(1+ix)^3 / Gamma(2ix)|^2 at a = b = c = 1, full line
    spec = F.weight_spec("gsbi", P("gsbi", a="1", b="1", c="1"), CTX)
    ((lo, hi),) = spec.pieces
    assert MP.isinf(lo) and MP.isinf(hi)
    x = MP.mpf("0.7")
    ix = MP.mpc(0, 1) * x
    direct = abs(MP.gamma(ix) * MP.gamma(1 + ix) ** 3 / MP.gamma(2 * ix)) ** 2
    assert abs(spec.density(x) - direct) <= CTX.tol(6) * direct


def _printed_gamma_density(fid, params, x, ctx):
    """The |Gamma|^2 densities as printed, Gamma products with no reflection identity."""
    mp = ctx.mp
    g = lambda name: mp.convert(params[name])
    ix = mp.mpc(0, x)
    if fid in ("symmetric-bannai-ito", "generalized-symmetric-bannai-ito"):
        names = ("a", "b", "c") if "c" in params else ("a", "b")
        if x == 0:       # the printed limit 4 |Gamma(a) Gamma(b) (Gamma(c))|^2
            return 4 * abs(mp.fprod(mp.gamma(g(n)) for n in names)) ** 2
        num = mp.gamma(ix) * mp.fprod(mp.gamma(g(n) + ix) for n in names)
        return abs(num / mp.gamma(2 * ix)) ** 2
    if fid == "continuous-bannai-ito":
        delta = g("delta")
    else:                # -1 Hahn I has delta = beta, -1 Hahn II delta = -beta
        delta = g("beta") if fid == "continuous-minus1-hahn-1" else -g("beta")
    fa, fb = mp.mpc(g("alpha"), g("beta")), mp.mpc(g("gamma"), delta)
    fc, fd = mp.conj(fb), mp.conj(fa)
    half = mp.mpf(1) / 2
    num = mp.gamma(fa + ix / 2 + 1) * mp.gamma(fb + ix / 2 + 1) \
        * mp.gamma(fc + ix / 2 + half) * mp.gamma(fd + ix / 2 + half)
    return abs(num / mp.gamma(half + ix)) ** 2


GAMMA_DENSITY_XS = ("0", "1e-3", "-1e-3", "0.731", "-0.731", "3.2", "-3.2",
                    "17.5", "-17.5", "41", "-41")


@pytest.mark.parametrize("digits", [15, 50])
def test_gamma_modulus_densities_match_printed_products(digits):
    # the reflection-identity densities, even ones included, against the printed products
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    cases = [(fid, F.make_params(fid, ctx, **pt))
             for fid in ("symmetric-bannai-ito", "generalized-symmetric-bannai-ito",
                         "continuous-bannai-ito", "continuous-minus1-hahn-1",
                         "continuous-minus1-hahn-2")
             for pt in F.fixture_points(fid)]
    # {a, b} not closed under conjugation: a symmetric Bannai-Ito weight that is not even, built
    # by the weight builder, which assumes the clause (weight_spec rejects the point)
    uneven = {"a": mp.mpc(1, mp.mpf(1) / 2), "b": mp.mpf(1)}
    uneven_spec = weights._w_sbi(ctx, **uneven)
    specs = [(fid, params, F.weight_spec(fid, params, ctx)) for fid, params in cases]
    for fid, params, spec in specs + [("symmetric-bannai-ito", uneven, uneven_spec)]:
        for s in GAMMA_DENSITY_XS:
            x = mp.mpf(s)
            ref = _printed_gamma_density(fid, params, x, ctx)
            got = spec.density(x)
            assert abs(got - ref) <= ctx.tol(10) * ref, (digits, fid, params, s)
    x = mp.mpf("0.731")
    assert abs(uneven_spec.density(x) - uneven_spec.density(-x)) > ctx.tol(0) * uneven_spec.density(x)


def test_power_densities_match_the_printed_formula_at_table_nodes():
    # the generalized Hermite and Gegenbauer densities take their exponents 2 alpha and
    # 2 alpha + 1 from their closures: bit for bit the printed formula at every node
    work, tol = precision.gram_context(PrecisionContext(15))
    mp = work.mp
    printed = {
        "generalized-hermite": lambda x, p, q: abs(x) ** (2 * p["alpha"]) * mp.exp(-x * x),
        "generalized-gegenbauer": lambda x, p, q: abs(x) ** (2 * p["alpha"] + 1) * q ** p["beta"],
    }
    for fid, formula in printed.items():
        for pt in F.fixture_points(fid):
            params = F.make_params(fid, work, **pt)
            spec = F.weight_spec(fid, params, work)
            calls = []
            dens = lambda x, lo, hi: calls.append((x, lo, hi)) or spec.density(x, lo, hi)
            orth.build_node_table(dataclasses.replace(spec, density=dens), work, tol, 16)
            assert calls, (fid, pt)
            for x, lo, hi in calls:
                q = (lo if x < 0 else 1 + x) * (1 - x if x < 0 else hi)     # (1 + x)(1 - x)
                assert spec.density(x, lo, hi)._mpf_ == formula(x, params, q)._mpf_, (fid, pt, x)


@pytest.mark.parametrize("digits", [15, 50])
def test_huge_density_exponents_are_good_to_the_last_bits(digits):
    # from |e| = 2**32 on a density power is exp(e log x), log x with the bits of e on
    # top: within a few units of 2**-prec of x**e taken with 1100 more bits
    mp = PrecisionContext(digits).mp
    ref = MPContext()
    ref.prec = mp.prec + 1100
    for e in (2 ** 32, mp.mpf("4294967296.5"), mp.mpf("1e80"), mp.mpf("-1e80"), mp.mpf("1e300")):
        power = weights._power(mp.mpf(e), mp)
        for x in (mp.mpf("0.37"), 1 - mp.mpf(10) ** -digits, mp.mpf("1.5"), mp.mpf("1e-30")):
            exact = ref.mpf(x) ** ref.mpf(mp.mpf(e))
            assert abs(ref.mpf(power(x)) / exact - 1) <= 4 * ref.mpf(2) ** -mp.prec, (e, x)
    small = weights._power(mp.mpf(2 ** 32 - 1), mp)
    x = mp.mpf("0.999")
    assert small(x)._mpf_ == (x ** (2 ** 32 - 1))._mpf_       # below the bound: mpmath's **


def test_even_flag_marks_even_weights():
    # an even flag makes the node tables mirror one half of the line, so a wrong one could
    # pass a Gram falsely: each flagged spec has pieces closed under x -> -x and a density
    # even bit for bit, with and without the offsets the tables pass
    mp = CTX.mp
    flagged = set()
    for fid in F.orthogonal_ids():
        for pt in F.fixture_points(fid):
            spec = F.weight_spec(fid, P(fid, **pt), CTX)
            if not spec.even:
                continue
            flagged.add(fid)
            pieces = set(spec.pieces)
            assert all((-hi, -lo) in pieces for lo, hi in pieces), (fid, pt)
            for s in GAMMA_DENSITY_XS:
                x = mp.mpf(s)
                assert spec.density(-x) == spec.density(x), (fid, pt, s)
                for lo, hi in spec.pieces:
                    if lo < x < hi:
                        assert spec.density(-x, hi - x, x - lo) == spec.density(x, x - lo, hi - x), \
                            (fid, pt, s)
    assert flagged == {"hermite", "generalized-hermite", "gegenbauer", "generalized-gegenbauer",
                       "generalized-symmetric-bannai-ito", "symmetric-bannai-ito"}
    # the uneven point of test_gamma_modulus_densities_match_printed_products
    uneven = {"a": mp.mpc(1, mp.mpf(1) / 2), "b": mp.mpf(1)}
    assert not weights._w_sbi(CTX, **uneven).even


def test_weight_density_nonnegative_on_support():
    rng = random.Random(3)
    for fid in F.orthogonal_ids():
        params = P(fid, **F.fixture_points(fid)[0])
        spec = F.weight_spec(fid, params, CTX)
        for lo, hi in spec.pieces:
            lo = float(lo) if not MP.isinf(lo) else -5.0
            hi = float(hi) if not MP.isinf(hi) else 5.0
            for _ in range(10):
                x = MP.mpf(repr(rng.uniform(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo))))
                assert spec.density(x) >= 0, (fid, x)


OFFSET_DENSITIES = ("minus1-meixner-pollaczek", "chihara", "big-minus1-jacobi",
                    "little-minus1-jacobi", "special-little-minus1-jacobi", "gegenbauer",
                    "generalized-gegenbauer")
NEGATIVE_GAMMA = (("minus1-meixner-pollaczek", {"alpha": "0.5", "gamma": "-0.25"}),
                  ("minus1-meixner-pollaczek", {"alpha": "0", "gamma": "-0.75"}),
                  ("chihara", {"alpha": "0.5", "beta": "1.5", "gamma": "-0.25"}),
                  ("chihara", {"alpha": "0", "beta": "1", "gamma": "-0.5"}))


@pytest.mark.parametrize("digits", [15, 50])
def test_offset_densities_match_x_only_forms(digits):
    # density(x, x - lo, hi - x), the call the node tables make, against density(x) at interior
    # points of every piece: the offsets land on the factors that vanish at their ends
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    cases = [(fid, pt) for fid in OFFSET_DENSITIES for pt in F.fixture_points(fid)]
    for fid, pt in cases + list(NEGATIVE_GAMMA):
        spec = F.weight_spec(fid, F.make_params(fid, ctx, **pt), ctx)
        for lo, hi in spec.pieces:
            a = hi - 4 if mp.isinf(lo) else lo
            b = lo + 4 if mp.isinf(hi) else hi
            for frac in ("1e-6", "0.01", "0.3", "0.7", "0.99", "0.999999"):
                x = a + (b - a) * mp.mpf(frac)
                ref = spec.density(x)
                got = spec.density(x, x - lo, hi - x)
                assert ref > 0 and abs(got - ref) <= 2 ** (4 - mp.prec) * ref, (fid, pt, frac)


@pytest.mark.parametrize("digits", [15, 30])
def test_gram_at_negative_gamma(digits):
    # sgn(x) (x + gamma) vanishes at the inner endpoint of the positive piece when gamma < 0
    ctx = PrecisionContext(digits)
    for fid, pt in NEGATIVE_GAMMA:
        [result] = cli._family_results(fid, F.make_params(fid, ctx, **pt), ctx, ["orthogonality"])
        assert result["status"] == "pass", (fid, pt, result)


def test_weight_inadmissible():
    with pytest.raises(InadmissibleParameterError):
        F.weight_spec("big-minus1-jacobi", P("big-minus1-jacobi", alpha="0.5", beta="1", c="1.5"), CTX)
    with pytest.raises(NoWeightError):
        F.weight_spec("big-q-jacobi", P("big-q-jacobi", **F.fixture_points("big-q-jacobi")[0]), CTX)


# one point per weighted family on or past a bound its printed clause excludes
_OUTSIDE = {
    "continuous-bannai-ito": {"delta": "0"},
    "big-minus1-jacobi": {"c": "1"},
    "chihara": {"alpha": "-1"},
    "continuous-minus1-hahn-1": {"alpha": "0"},
    "continuous-minus1-hahn-2": {"alpha": "-0.5"},
    "generalized-symmetric-bannai-ito": {"a": "0.25", "b": "0.25", "c": "0.5"},    # a+b+c = 1
    "little-minus1-jacobi": {"beta": "0"},
    "generalized-gegenbauer": {"beta": "0"},
    "minus1-meixner-pollaczek": {"alpha": "-0.5"},
    "symmetric-bannai-ito": {"a": "0"},
    "special-little-minus1-jacobi": {"alpha": "0"},
    "gegenbauer": {"alpha": "0"},
    "generalized-hermite": {"alpha": "-0.5"},
}


def test_every_weighted_family_but_hermite_tests_its_clause():
    assert {fid for fid, info in F.REGISTRY.items() if info.admits} == set(F.WEIGHTS) - {"hermite"}
    assert set(_OUTSIDE) == set(F.WEIGHTS) - {"hermite"}


@pytest.mark.parametrize("fid", sorted(_OUTSIDE))
def test_inadmissible_gram_row_quotes_the_printed_clause(fid):
    # the row's note is the clause `minusone list` prints, word for word
    ctx = PrecisionContext(15)
    info = F.family_info(fid)
    params = F.make_params(fid, ctx, **{**F.fixture_points(fid)[0], **_OUTSIDE[fid]})
    assert not info.admits(ctx, **params)
    [row] = cli._family_results(fid, params, ctx, ["orthogonality"])
    assert (row["status"], row["notes"]) == (
        "inconclusive",
        "parameters violate the admissibility clause [%s]: %s" % (info.anchor, info.admissible))


@pytest.mark.parametrize("fid, params, admitted", [
    ("generalized-symmetric-bannai-ito", {"a": 1 + 1j, "b": 1 - 1j, "c": 1 + 1j}, False),
    ("generalized-symmetric-bannai-ito", {"a": 1 + 1j, "b": 1 - 1j, "c": 1}, True),
    ("generalized-symmetric-bannai-ito", {"a": 1 + 1j, "b": 1 + 1j, "c": 1 - 1j}, False),
    ("symmetric-bannai-ito", {"a": 1 + 1j, "b": 1 + 1j}, False),
    ("symmetric-bannai-ito", {"a": 1 + 1j, "b": 1 - 1j}, True),
])
def test_conjugate_pair_clause_pairs_values_one_to_one(fid, params, admitted):
    # "non-real parameters in conjugate pairs": each non-real value needs a partner of its own
    ctx = PrecisionContext(15)
    assert F.family_info(fid).admits(ctx, **F.make_params(fid, ctx, **params)) == admitted


def test_fixture_points_lie_inside_the_printed_clause():
    for fid, info in F.REGISTRY.items():
        for pt in F.fixture_points(fid):
            assert info.admits is None or info.admits(CTX, **P(fid, **pt)), (fid, pt)


def test_symmetric_flag_marks_vanishing_b_n():
    # `minusone list --format json` publishes the flag: it is set exactly where every b_n,
    # n <= 12, vanishes at every fixture point
    families = F.scheme_ids() + F.family_ids("q-aux")
    assert len(families) == 19
    for fid in families:
        zero = all(pair.b == 0 for pt in F.fixture_points(fid)
                   for pair in F.recurrences(fid, P(fid, **pt), 12, CTX))
        assert F.family_info(fid).symmetric == zero, fid


def test_norm_values():
    assert abs(F.norm("hermite", {}, 1, CTX) - MP.sqrt(MP.pi) / 2) < CTX.tol(8)
    assert abs(F.norm("gegenbauer", P("gegenbauer", alpha="0.5"), 0, CTX) - 2) < CTX.tol(8)
    assert abs(F.norm("gsbi", P("gsbi", a="1", b="1", c="1"), 0, CTX) - MP.mpf("0.5")) < CTX.tol(8)


def test_norms_in_one_call_match_each_degree():
    # gram takes h_0 .. h_8 from one call; each entry is the per-degree norm, bit for bit
    for fid in F.orthogonal_ids():
        for pt in F.fixture_points(fid):
            params = P(fid, **pt)
            listed = F.norms(fid, params, 8, CTX)
            assert [v._mpf_ for v in listed] == [F.norm(fid, params, n, CTX)._mpf_
                                                 for n in range(9)], fid


def test_norms_match_recurrence_product():
    # h_n = h_0 u_1 ... u_n ties every printed norm to the recurrence
    for fid in F.orthogonal_ids():
        params = P(fid, **F.fixture_points(fid)[0])
        h = F.norm(fid, params, 0, CTX)
        pairs = F.recurrences(fid, params, 8, CTX)
        for n in range(1, 9):
            h = h * MP.re(MP.mpc(pairs[n].u))
            printed = F.norm(fid, params, n, CTX)
            assert abs(printed - h) <= CTX.tol(8) * abs(h), (fid, n)


def test_ccbi_positivity_classification():
    # the Favard scan finds the recurrence real at the GSBI reduction b2 = 0,
    # and nonreal by n <= 5 for b2 != 0, at every fixture point
    for ctx in (PrecisionContext(15), CTX):
        for point in F.fixture_points("ccbi"):
            for b2 in ("0", "1", "0.3"):
                params = F.make_params("ccbi", ctx, **{**point, "b2": b2})
                first = orth.favard_scan("ccbi", params, 5, ctx)["first_nonreal_n"]
                if b2 == "0":
                    assert first is None, (ctx.digits, point, b2)
                else:
                    assert first is not None and first <= 5, (ctx.digits, point, b2)


def test_eigen_system_errors():
    with pytest.raises(NoEigenSystemError):
        O.build_eigen_system("ccbi", P("ccbi", **F.fixture_points("ccbi")[0]), CTX)
    with pytest.raises(NoEigenSystemError):
        O.build_eigen_system("big-q-jacobi", P("big-q-jacobi", **F.fixture_points("big-q-jacobi")[0]),
                             CTX)


def test_every_closed_form_is_summed_by_hyp_terminating_poly(monkeypatch):
    # one series engine: each table entry sums through the module function,
    # rebound wherever a module imported it
    from minusone import polynomials

    original = polynomials.hyp_terminating_poly
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("minusone") and getattr(module, "hyp_terminating_poly", None) is original:
            monkeypatch.setattr(module, "hyp_terminating_poly", counted)
    for fid in sorted(F.CLOSED_FORMS):
        calls.clear()
        F.closed_form(fid, P(fid, **F.fixture_points(fid)[0]), 3, CTX)
        assert calls, fid


def test_closed_form_without_a_top_coefficient_is_a_parameter_singularity(monkeypatch):
    raw = F.CLOSED_FORMS["hermite"]

    def no_top(ctx, N):
        forms = raw(ctx, N)
        return forms[:-1] + [Poly(list(forms[-1].coeffs[:-1]) + [ctx.mp.mpc(0)])]

    monkeypatch.setitem(F.CLOSED_FORMS, "hermite", no_top)
    with pytest.raises(ParameterError, match="no degree-3 term"):
        F.closed_form("hermite", {}, 3, CTX)


def test_closed_forms_share_one_computation_bit_for_bit():
    # entry n of one call over 0..12, of a call that stops at n, and closed_form(n) hold the
    # same integers: no basis, rising factorial or series of degree n depends on N
    bits = lambda p: (p.re, p.im, p.exp, p.width)
    for fid in sorted(F.CLOSED_FORMS):
        for point in F.fixture_points(fid):
            params = P(fid, **point)
            forms = F.closed_forms(fid, params, 12, CTX)
            for n, form in enumerate(forms):
                assert (bits(form) == bits(F.closed_forms(fid, params, n, CTX)[n])
                        == bits(F.closed_form(fid, params, n, CTX))), (fid, point, n)


def test_closed_form_that_loses_its_top_coefficient_names_precision():
    # at gamma = 1e12 the degree-10 term is there, but cancellation among terms
    # of size about gamma^n leaves it ~120 digits below the coefficient norm
    ctx = PrecisionContext(15)
    params = F.make_params("chihara", ctx, alpha="0.5", beta="1.5", gamma="1e12")
    with pytest.raises(ParameterError, match="degree-10 term to cancellation: precision lost, "
                                             "its top coefficient lies 120 digits below"):
        F.closed_form("chihara", params, 10, ctx)


@pytest.mark.slow
@pytest.mark.parametrize("digits", [15, 50, 100])
def test_closed_forms_match_recurrence_to_degree_40(digits):
    # a true leading coefficient far below the coefficient norm is kept: the
    # raw form is tested against its own rounding unit, not trimmed at tol(6)
    ctx = PrecisionContext(digits)
    for fid in sorted(F.CLOSED_FORMS):
        for point in F.fixture_points(fid):
            params = F.make_params(fid, ctx, **point)
            polys = F.generate(fid, params, 40, ctx)
            for n in range(41):
                cf = F.closed_form(fid, params, n, ctx)
                assert poly_rel_distance(polys[n], cf) <= ctx.tol(10), (fid, point, n)


def test_factored_u_is_the_recurrence_u_n():
    # past the Favard row's n <= 16, at every fixture point
    for fid in F.orthogonal_ids():
        for pt in F.fixture_points(fid):
            params = P(fid, **pt)
            classes = F.factored_u(fid, params, CTX)
            for n, pair in enumerate(F.recurrences(fid, params, 60, CTX)[1:], 1):
                assert abs(pair.u - classes[n % 2].value(n // 2)) <= CTX.tol(10) * abs(pair.u), \
                    (fid, pt, n)


def test_favard_admissible_regions():
    for fid in F.orthogonal_ids():
        for pt in F.fixture_points(fid):
            params = P(fid, **pt)
            pairs = F.recurrences(fid, params, 50, CTX)
            for n in range(1, 51):
                u = pairs[n].u
                assert MP.re(MP.mpc(u)) > 0, (fid, pt, n)


def test_registry_merges_the_catalog_and_qaux_tables():
    # each module states its families in a table of its own, and the package
    # merges them as it merges the recurrence tables; no import registers
    from minusone.families import catalog, qaux

    assert not set(catalog.FAMILIES) & set(qaux.Q_FAMILIES)
    assert F.REGISTRY == {**catalog.FAMILIES, **qaux.Q_FAMILIES}
    assert {info.kind for info in catalog.FAMILIES.values()} == {"scheme", "quasi"}
    assert {info.kind for info in qaux.Q_FAMILIES.values()} == {"q-aux"}
    assert set(F.REGISTRY) == set(F._ALL_RECURRENCES)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "+inf"])
def test_non_finite_parameter_strings_are_parameter_errors(value):
    with pytest.raises(ParameterError, match="'alpha' of gegenbauer is not finite"):
        F.make_params("gegenbauer", CTX, alpha=value)
