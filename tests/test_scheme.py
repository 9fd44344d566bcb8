import dataclasses
import json

import pytest

from minusone.precision import GATES, PrecisionContext, ladder_context
from minusone import families as F
from minusone import scheme as S
from minusone.polynomials import Poly

CTX = PrecisionContext(50)
MP = CTX.mp

# census of the compendium's connection statements: every entry here must
# have a catalog edge (coverage lock)
EXPECTED_EDGES = {
    # specializations
    ("big-minus1-jacobi", "little-minus1-jacobi"),
    ("chihara", "generalized-gegenbauer"),
    ("little-minus1-jacobi", "special-little-minus1-jacobi"),
    ("generalized-gegenbauer", "gegenbauer"),
    ("minus1-meixner-pollaczek", "generalized-hermite"),
    ("generalized-hermite", "hermite"),
    ("continuous-minus1-hahn-1", "symmetric-bannai-ito"),
    ("continuous-minus1-hahn-2", "symmetric-bannai-ito"),
    ("continuous-bannai-ito", "continuous-minus1-hahn-1"),
    ("continuous-bannai-ito", "continuous-minus1-hahn-2"),
    ("continuous-complementary-bannai-ito", "generalized-symmetric-bannai-ito"),
    # limits
    ("continuous-bannai-ito", "big-minus1-jacobi"),
    ("continuous-complementary-bannai-ito", "chihara"),
    ("generalized-symmetric-bannai-ito", "symmetric-bannai-ito"),
    ("generalized-symmetric-bannai-ito", "generalized-gegenbauer"),
    ("continuous-minus1-hahn-1", "minus1-meixner-pollaczek"),
    ("continuous-minus1-hahn-2", "minus1-meixner-pollaczek"),
    ("chihara", "minus1-meixner-pollaczek"),
    ("generalized-gegenbauer", "generalized-hermite"),
    ("symmetric-bannai-ito", "generalized-hermite"),
    ("gegenbauer", "hermite"),
    # q -> -1 limits
    ("big-q-jacobi", "big-minus1-jacobi"),
    ("big-q-jacobi", "chihara"),
    ("little-q-jacobi-dilated", "little-minus1-jacobi"),
    ("little-q-jacobi-dilated", "generalized-gegenbauer"),
    ("continuous-q-hahn", "continuous-minus1-hahn-1"),
    ("continuous-q-hahn", "continuous-minus1-hahn-2"),
    ("q-meixner-pollaczek", "minus1-meixner-pollaczek"),
    # spectral transformations, both directions
    ("little-minus1-jacobi", "generalized-gegenbauer"),
    ("generalized-gegenbauer", "little-minus1-jacobi"),
    ("special-little-minus1-jacobi", "gegenbauer"),
    ("gegenbauer", "special-little-minus1-jacobi"),
    ("big-minus1-jacobi", "chihara"),
    ("chihara", "big-minus1-jacobi"),
}


def test_catalog_coverage_lock():
    catalog = {(e.source, e.target) for e in S.edge_catalog()}
    missing = EXPECTED_EDGES - catalog
    assert not missing, "edges lacking catalog entries: %s" % missing
    extra = catalog - EXPECTED_EDGES
    assert not extra, "catalog edges without compendium anchor: %s" % extra
    assert len(S.edge_catalog()) == 34
    assert all(e.anchor for e in S.edge_catalog())


def test_every_edge_carries_its_map():
    for e in S.edge_catalog():
        if e.kind == "geronimus":
            assert e.params is None, e.id        # checked through its christoffel edge
            continue
        h = S.default_ladder(e.direction, CTX)[0] if e.direction != "exact" else None
        src, tgt, s = S._mapdata(e, CTX, h=h)
        F.generate(e.source, src, 2, CTX)
        F.generate(e.target, tgt, 2, CTX)
        assert s != 0, e.id


def test_edge_resolution_and_aliases():
    e = S.resolve_edge("cbi:big-minus1-jacobi")
    assert e.kind == "limit"


def test_exact_specializations():
    for e in S.edge_catalog():
        if e.kind != "specialization":
            continue
        rep = S.verify_exact(e, 10, CTX)
        assert rep["status"] == "pass", (e.id, rep)


def _dilate_and_scale(polys, s, ctx):
    """The frame U_n(x) = S_n(s x) / s^n of each S_n, coefficient by coefficient: c_k s^(k-n)."""
    s = ctx.mp.mpc(s)
    return [Poly([c * s ** k / s ** n for k, c in enumerate(p.coeffs)]) for n, p in enumerate(polys)]


def _frame_error(family, params, s, N, ctx):
    """The rescaled-pair frame P_0 .. P_N of ``family`` against ``_dilate_and_scale``."""
    framed = F.polys_from_pairs(S._frame(F.recurrences(family, params, N - 1, ctx), s), ctx)
    return S._compare_sets(framed, _dilate_and_scale(F.generate(family, params, N, ctx), s, ctx))


@pytest.mark.parametrize("digits", [15, 50])
def test_frames_from_rescaled_pairs_are_the_dilated_polynomials(digits):
    # every exact edge's source and every ct-gt edge's target frame at its fixture, and
    # every limit edge's first and last rungs, within the algebraic gate
    ctx = PrecisionContext(digits)
    gate = GATES["exact"](ctx)
    for edge in S.edge_catalog():
        if edge.kind in ("specialization", "christoffel"):
            src, tgt, s = S._mapdata(edge, ctx)
            family, params = ((edge.source, src) if edge.kind == "specialization"
                              else (edge.target, tgt))
            assert _frame_error(family, params, s, 10, ctx) <= gate, edge.id
        elif edge.kind in ("limit", "q-limit"):
            lctx = ladder_context(ctx)
            rungs = S.verify_limit(edge, S.LADDER_N, ctx)["rungs"]
            ladder = S.default_ladder(edge.direction, lctx)
            for h, rung in ((ladder[0], rungs[0]), (ladder[-1], rungs[-1])):
                src, _, s = S._mapdata(edge, lctx, h=h)
                polys = F.generate(edge.source, src, S.LADDER_N, lctx)
                assert (S._compare_sets(rung, _dilate_and_scale(polys, s, lctx))
                        <= GATES["exact"](lctx)), (edge.id, h)


def test_limit_edge_cbi_to_big():
    rep = S.verify_limit("cbi:big-minus1-jacobi", 6, CTX)
    assert rep["status"] == "pass"
    assert rep["order_poly"] >= 1
    assert rep["extrapolated_error"] <= 1e-8
    errs = rep["errors"]
    assert all(errs[k + 1] < errs[k] for k in range(len(errs) - 1))


def test_qlimit_edge_dilated_little():
    rep = S.verify_limit("little-q-jacobi-dilated:little-minus1-jacobi", 6, CTX)
    assert rep["status"] == "pass"
    # first-order ladder; the fitted exponent carries O(eps) fitting slack
    assert rep["order_poly"] >= 0.95


def test_one_recurrence_table_call_per_ladder_point(monkeypatch):
    # the source sequence at each ladder point serves both the polynomials and
    # the coefficient comparison; the target sequence is built once
    edge = S.resolve_edge("little-q-jacobi-dilated:little-minus1-jacobi")
    calls = {edge.source: 0, edge.target: 0}
    for fid in calls:
        def counted(ctx, N, fid=fid, table=F._ALL_RECURRENCES[fid], **params):
            calls[fid] += 1
            return table(ctx, N, **params)
        monkeypatch.setitem(F._ALL_RECURRENCES, fid, counted)
    rep = S.verify_limit(edge, 6, CTX)
    assert calls == {edge.source: len(rep["ladder"]), edge.target: 1}


@pytest.mark.parametrize("digits", [15, 50, 100])
def test_default_ladder_steps_by_ten(digits):
    # verify_limit's Richardson factor 10^p - 1 assumes this step; a ladder
    # edit without a matching factor edit turns this red
    ctx = ladder_context(PrecisionContext(digits))
    for direction in ("h->inf", "h->0", "eps->0"):
        ladder = S.default_ladder(direction, ctx)
        assert len(ladder) >= 3, direction
        for near, far in zip(ladder, ladder[1:]):
            step = far / near if direction == "h->inf" else near / far
            assert abs(step / 10 - 1) <= 2 ** (4 - ctx.mp.prec), (digits, direction, step)


def test_limit_floor_no_looser_than_gate_at_15_digits(monkeypatch):
    # at 15 digits the "converged exactly" floor tol(12) would be 1e-3; the
    # ladder runs at 20 digits, where the 8.8e-8 extrapolated error of this
    # short ladder is over the 1e-8 gate
    monkeypatch.setattr(S, "default_ladder", lambda direction, ctx: [10 ** k for k in range(1, 6)])
    rep = S.verify_limit("chihara:minus1-meixner-pollaczek", 6, PrecisionContext(15))
    assert rep["extrapolated_error"] > 1e-8
    assert rep["status"] == "fail"


def test_christoffel_low_degree():
    # G_0 = (P_1 - A_0 P_0)/(x - 1) = 1 since P_1 = x - 1 + A_0 (C_0 = 0)
    params = F.make_params("little-minus1-jacobi", CTX, alpha="0.5", beta="1.5")
    g = S.christoffel(F.recurrences("little-minus1-jacobi", params, 0, CTX), CTX)
    assert g[0].degree == 0
    assert abs(g[0].coeffs[0] - 1) < CTX.tol(8)


def test_christoffel_needs_the_printed_decomposition():
    # the Hermite pairs carry no printed (A_n, C_n): no kernel polynomials
    with pytest.raises(F.ParameterError, match=r"no printed \(A_n, C_n\) decomposition"):
        S.christoffel(F.recurrences("hermite", {}, 3, CTX), CTX)


def test_export_graph_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="format must be 'dot' or 'json'"):
        S.export_graph("svg")


def test_ct_gt_pairs():
    for pair in ("little-minus1-jacobi:generalized-gegenbauer",
                 "special-little-minus1-jacobi:gegenbauer",
                 "big-minus1-jacobi:chihara"):
        rep = S.verify_ct_gt(pair, 10, CTX)
        assert rep["status"] == "pass", (pair, rep)


def test_ct_gt_from_geronimus_side():
    rep = S.verify_ct_gt("generalized-gegenbauer:little-minus1-jacobi", 8, CTX)
    assert rep["status"] == "pass"


def test_kernel_recurrence_map():
    rep = S.verify_recurrence_kernel_map(CTX, trials=20)
    assert rep["status"] == "pass"


# digits of the kernel-pair mutation tests; the 100-digit run is slow
_MUTATION_DIGITS = [15, 50, pytest.param(100, marks=pytest.mark.slow)]


def _off_by_100_gates(monkeypatch, fid, field):
    """Scale ``field`` of the family's n = 3 recurrence pair by 1 + 100 * (ct-gt gate)."""
    table = F._ALL_RECURRENCES[fid]

    def mutated(ctx, N, **params):
        pairs = list(table(ctx, N, **params))
        if N >= 3:
            off = getattr(pairs[3], field) * (1 + 100 * GATES["ct-gt"](ctx))
            pairs[3] = dataclasses.replace(pairs[3], **{field: off})
        return pairs

    monkeypatch.setitem(F._ALL_RECURRENCES, fid, mutated)


@pytest.mark.parametrize("digits", _MUTATION_DIGITS)
@pytest.mark.parametrize("fid, field, rows", [
    ("generalized-gegenbauer", "u", ("ct-gt", "kernel-map")),
    ("little-minus1-jacobi", "C", ("ct-gt", "kernel-map")),
    ("little-minus1-jacobi", "A", ("kernel-map",)),
], ids=["gg-u3", "lmj-C3", "lmj-A3"])
def test_kernel_pair_rows_fail_on_a_coefficient_off_by_100_gates(monkeypatch, fid, field, rows,
                                                                   digits):
    # one coefficient off by 100 gates: each kernel-pair row it enters fails
    # (the ct-gt row of an A_n off by 100 gates: test_kernel_division_remainder_fails_the_row)
    ctx = PrecisionContext(digits)
    _off_by_100_gates(monkeypatch, fid, field)
    reports = {"ct-gt": lambda: S.verify_ct_gt("little-minus1-jacobi:generalized-gegenbauer",
                                                10, ctx),
               "kernel-map": lambda: S.verify_recurrence_kernel_map(ctx)}
    for row in rows:
        rep = reports[row]()
        assert rep["status"] == "fail", (row, rep["residual"], rep["tolerance"])


@pytest.mark.parametrize("digits", _MUTATION_DIGITS)
def test_kernel_division_remainder_fails_the_row(monkeypatch, capsys, digits):
    # an A_3 off by 100 gates leaves a genuine remainder in the kernel division:
    # the ct-gt row fails with the relative remainder in its notes, no traceback
    from minusone import cli

    _off_by_100_gates(monkeypatch, "little-minus1-jacobi", "A")
    code = cli.main(["verify", "--edge", "little-minus1-jacobi:generalized-gegenbauer",
                     "--digits", str(digits), "--format", "json", "--no-timestamp"])
    [row] = json.loads(capsys.readouterr().out)["results"]
    assert code == cli.EXIT_FAIL
    assert (row["check"], row["status"]) == ("ct-gt", "fail")
    assert row["notes"].startswith("polynomial division left a genuine remainder of relative size ")


def test_commuting_squares():
    for which in ("little", "gegenbauer"):
        rep = S.verify_commuting_square(which, CTX)
        assert rep["status"] == "pass", rep
        assert rep["exact_leg_error"] <= 1e-40
        assert rep["order_path_a"] >= 0.9 and rep["order_path_b"] >= 0.9
        # each path is its q-limit edge's own ladder at the square's fixture
        for (edge_id, fixture), path in zip(S.SQUARES[which], ("a", "b")):
            edge = dataclasses.replace(S.EDGES[edge_id], fixture=fixture)
            ladder = S.verify_limit(edge, rep["N"], CTX)
            errors = rep["path_errors_via_minus1" if path == "a" else "path_errors_via_little_q"]
            assert errors == ladder["errors"], (which, path)
            assert rep["order_path_" + path] == ladder["order_poly"], (which, path)


def test_commuting_square_fails_when_either_path_fails(monkeypatch):
    # one path's ladder report says fail: the square row fails, its c -> 0 leg residual unchanged
    verify_limit = S.verify_limit
    for which in ("little", "gegenbauer"):
        passing = S.verify_commuting_square(which, CTX)
        assert passing["status"] == "pass", which
        for failing_id, _ in S.SQUARES[which]:
            def failing_path(edge, N, ctx, failing_id=failing_id):
                rep = verify_limit(edge, N, ctx)
                return {**rep, "status": "fail"} if edge.id == failing_id else rep

            with monkeypatch.context() as m:
                m.setattr(S, "verify_limit", failing_path)
                rep = S.verify_commuting_square(which, CTX)
            assert rep["status"] == "fail", (which, failing_id)
            assert (rep["residual"], rep["exact_leg_error"]) == (
                passing["residual"], passing["exact_leg_error"]), (which, failing_id)


def test_commuting_square_reads_its_ladders_rungs(monkeypatch):
    # the c -> 0 leg compares the two paths' ladder rungs, so a square builds
    # only its two ladders' sequences: a target and 6 rungs each
    calls = []
    recurrences = F.recurrences

    def counted(*args, **kwargs):
        calls.append(args[0])
        return recurrences(*args, **kwargs)

    monkeypatch.setattr(F, "recurrences", counted)
    for which in ("little", "gegenbauer"):
        calls.clear()
        assert S.verify_commuting_square(which, CTX)["status"] == "pass"
        assert len(calls) == 2 * (1 + len(S.default_ladder("eps->0", CTX))) == 14, which


def test_open_question_resolutions():
    reports = S.resolve_open_questions(CTX)
    by_check = {r["check"]: r for r in reports if not r["check"].endswith("composition")}
    assert by_check["open-question:bn-sign"]["status"] == "pass"
    assert "1 - A_n - C_n" in by_check["open-question:bn-sign"]["notes"]
    assert by_check["open-question:mp-scaling"]["status"] == "pass"
    assert "sqrt(gamma/2)*beta" in by_check["open-question:mp-scaling"]["notes"]
    comp = [r for r in reports if r["check"].endswith("composition")]
    assert len(comp) == 3 and all(r["status"] == "pass" for r in comp)


def test_export_dot():
    dot = S.export_graph("dot")
    assert dot.startswith("digraph")
    # 15 scheme node declarations
    assert sum(1 for line in dot.splitlines() if "[label=" in line and "->" not in line) == 15
    # hermite in-degree at least 2
    indeg = sum(1 for line in dot.splitlines() if '-> "hermite"' in line)
    assert indeg >= 2
    # the spectral-transformation pairs appear in both directions
    assert '"little-minus1-jacobi" -> "generalized-gegenbauer"' in dot
    assert '"generalized-gegenbauer" -> "little-minus1-jacobi"' in dot
    assert "color=blue" in dot


def test_export_json_roundtrip():
    payload = json.loads(S.export_graph("json"))
    assert len(payload["nodes"]) == 15
    assert len(payload["edges"]) == len(S.edge_catalog())
    assert all("anchor" in e for e in payload["edges"])


def test_a_fitted_order_of_zero_is_printed_and_no_order_says_none(capsys, monkeypatch):
    # the gegenbauer -> hermite map pinned at h = 10 leaves every rung at the
    # same error: a fitted order of exactly 0, not the "no order" of the notes
    from minusone import cli

    edge = S.EDGES["gegenbauer:hermite"]
    pinned = dataclasses.replace(edge, params=lambda f, h, mp: edge.params(f, mp.mpf(10), mp))
    rep = S.verify_limit(pinned, S.LADDER_N, PrecisionContext(15))
    assert rep["order_poly"] == 0.0 and rep["status"] == "fail"
    assert rep["notes"].startswith("order 0.00, ladder errors "), rep["notes"]

    # an edge exact at every rung has no order to fit
    exact = dataclasses.replace(S.EDGES["generalized-hermite:hermite"], kind="limit",
                                direction="h->0")
    rep = S.verify_limit(exact, S.LADDER_N, PrecisionContext(20))
    assert rep["order_poly"] is None and rep["status"] == "pass"
    assert rep["notes"].startswith("order none, ladder errors "), rep["notes"]

    # the CLI row prints the check's notes
    monkeypatch.setitem(S.EDGES, edge.id, pinned)
    code = cli.main(["verify", "--edge", edge.id, "--digits", "15", "--format", "json",
                     "--no-timestamp"])
    [result] = json.loads(capsys.readouterr().out)["results"]
    assert code == cli.EXIT_FAIL
    assert result["notes"].startswith("order 0.00, ladder errors "), result


def test_each_scheme_family_is_charted_once_in_its_catalog_row():
    import re

    assert sorted(S._CHART) == F.scheme_ids()
    dot = S.export_graph("dot")
    ranks = [re.findall(r'"([^"]+)";', group)
             for group in re.findall(r"\{ rank=same; (.*) \}", dot)]
    assert sorted(f for group in ranks for f in group) == F.scheme_ids()
    rows = [{F.family_info(f).row for f in group} for group in ranks]
    assert all(len(r) == 1 for r in rows)
    assert [r.pop() for r in rows] == [4, 3, 2, 1, 0]
    labels = dict(re.findall(r'"([^"]+)" \[label="[^"]*\\n\((\d)\)"', dot))
    assert {f: int(row) for f, row in labels.items()} == {
        f: F.family_info(f).row for f in F.scheme_ids()}
    nodes = json.loads(S.export_graph("json"))["nodes"]
    assert all(n["row"] == F.family_info(n["id"]).row for n in nodes)
    assert [n["id"] for n in nodes] == [f for group in ranks for f in group]
