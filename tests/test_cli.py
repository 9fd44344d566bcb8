import contextlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from minusone import cli, precision

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list_counts(capsys):
    code, out = run(capsys, "list")
    assert code == 0
    assert "19 entries" in out

    code, out = run(capsys, "list", "--scheme-only")
    assert "15 entries" in out

    code, out = run(capsys, "list", "--format", "json")
    entries = json.loads(out)
    assert isinstance(entries, list) and len(entries) == 19
    assert all("admissible" in e and "anchor" in e for e in entries)


def test_tabulate_hermite(capsys):
    code, out = run(capsys, "tabulate", "--family", "hermite", "--n", "3")
    assert code == 0
    us = [line.split("u_n =")[1].strip() for line in out.splitlines() if "u_n =" in line]
    assert us[0] == "-"
    assert us[1].startswith("0.5")
    assert us[2].startswith("1.0")
    assert us[3].startswith("1.5")


def test_tabulate_chihara_p1(capsys):
    code, out = run(capsys, "tabulate", "--family", "chihara",
                    "--params", "alpha=0.5,beta=1.5,gamma=0.25", "--n", "1")
    assert code == 0
    assert "-0.25, 1.0" in out


def test_tabulate_ccbi_complex(capsys):
    code, out = run(capsys, "tabulate", "--family", "ccbi",
                    "--params", "a1=0.75,b1=0.5,a2=1.25,b2=0.3", "--n", "3")
    assert code == 0
    assert "j" in out      # complex u_n rendered with an explicit imaginary part


def test_tabulate_unknown_family_usage_error(capsys):
    code, _ = run(capsys, "tabulate", "--family", "not-a-family", "--n", "2")
    assert code == cli.EXIT_USAGE


def test_verify_family_hermite(capsys):
    code, out = run(capsys, "verify", "--family", "hermite")
    assert code == 0
    assert "summary:" in out and "0 failed" in out


def test_verify_edge(capsys):
    code, out = run(capsys, "verify", "--edge", "gen-hermite:hermite", "--format", "json",
                    "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["results"][0]["check"] == "exact"
    assert report["results"][0]["status"] == "pass"
    assert report["results"][0]["anchor"]


def test_verify_checks_are_deduplicated(capsys):
    # a check named twice runs once and is echoed once, in first-seen order
    code, out = run(capsys, "verify", "--family", "hermite", "--checks",
                    "favard,closed-form,favard", "--digits", "15", "--format", "json",
                    "--no-timestamp")
    report = json.loads(out)
    assert code == cli.EXIT_PASS
    assert report["config"]["checks"] == ["favard", "closed-form"]
    assert [r["check"] for r in report["results"]] == ["closed-form", "favard"]


def test_verify_unknown_edge_usage(capsys):
    code, _ = run(capsys, "verify", "--edge", "hermite:gegenbauer")
    assert code == cli.EXIT_USAGE


def test_verify_json_deterministic(capsys):
    args = ("verify", "--family", "gegenbauer", "--format", "json", "--no-timestamp",
            "--checks", "closed-form,favard")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    report = json.loads(out1)
    for r in report["results"]:
        assert set(r) == {"id", "check", "status", "residual", "tolerance", "anchor", "notes"}


def test_digits_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("MINUS_ONE_DIGITS", "20")
    code, out = run(capsys, "tabulate", "--family", "hermite", "--n", "1", "--format", "json")
    assert json.loads(out)["digits"] == 20
    code, out = run(capsys, "tabulate", "--family", "hermite", "--n", "1", "--format", "json",
                    "--digits", "30")
    assert json.loads(out)["digits"] == 30


def test_export_dot_and_json(capsys, tmp_path):
    code, out = run(capsys, "export", "--format", "dot")
    assert code == 0
    node_lines = [l for l in out.splitlines() if "[label=" in l and "->" not in l]
    assert len(node_lines) == 15

    path = tmp_path / "scheme.json"
    code, _ = run(capsys, "export", "--format", "json", "--output", str(path))
    payload = json.loads(path.read_text())
    assert len(payload["edges"]) == 34
    assert all("anchor" in e for e in payload["edges"])


def test_export_writes_the_committed_chart(capsys, tmp_path):
    # the DOT chart byte for byte; the JSON as parsed (the demo's json.dump ends without a newline)
    root = pathlib.Path(__file__).parents[1]
    dot, payload = tmp_path / "chart.dot", tmp_path / "chart.json"
    assert cli.main(["export", "--output", str(dot)]) == cli.EXIT_PASS
    assert dot.read_bytes() == (root / "minus_one_scheme.dot").read_bytes()
    assert cli.main(["export", "--format", "json", "--output", str(payload)]) == cli.EXIT_PASS
    assert json.loads(payload.read_text()) == json.loads((root / "minus_one_scheme.json").read_text())
    with pytest.raises(SystemExit) as exc:            # the chart has no aux mode
        cli.main(["export", "--include-aux"])
    assert exc.value.code == cli.EXIT_USAGE


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])          # missing required scope
    assert exc.value.code == cli.EXIT_USAGE


def _alone(argv):
    """(exit code, stdout, stderr) of one request in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "minusone.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(capsys, argv):
    """(exit code, stdout, stderr) of one ``cli.main`` call in this process."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("first", [["--checks", "eigen"], ["--bogus"]],
                         ids=["one-check", "usage-error"])
def test_requests_in_one_process_report_what_each_reports_alone(capsys, first):
    # the parser is built once, at import: neither a request nor a usage error
    # leaves anything behind that the next request of the same process reads
    common = ["verify", "--family", "hermite", "--digits", "15", "--format", "json",
              "--no-timestamp"]
    requests = [common + first, common]
    got = [_in_process(capsys, argv) for argv in requests]
    assert got == [_alone(argv) for argv in requests]
    assert got[0][0] == (cli.EXIT_PASS if first == ["--checks", "eigen"] else cli.EXIT_USAGE)
    assert len(json.loads(got[1][1])["results"]) == 4


def test_unparsable_params_are_a_usage_error(capsys):
    # a value mpmath cannot read is named in a usage error, not raised as a traceback
    for argv in (["verify", "--family", "generalized-hermite", "--params", "alpha=abc",
                  "--digits", "15"],
                 ["tabulate", "--family", "generalized-hermite", "--params", "alpha=abc"]):
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "'alpha'" in err and "'abc'" in err, err


@pytest.mark.parametrize("scope", [["--edge", "gegenbauer:hermite"], ["--all"]])
def test_params_outside_family_scope_are_a_usage_error(capsys, scope):
    # --params overrides a family's fixture point; elsewhere it would be ignored
    code = cli.main(["verify"] + scope + ["--params", "alpha=3", "--digits", "15"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert "--params" in captured.err


@pytest.mark.parametrize("table, check, note", [
    ("weights", "orthogonality", "no continuous measure on record (skipped)"),
    ("builders", "eigen", "no eigenvalue equation on record (skipped)"),
])
def test_missing_table_entry_is_a_skipped_check(capsys, monkeypatch, table, check, note):
    # whether a family has a weight or an eigen equation is its table entry:
    # without one the check reports one skipped pass, not a traceback
    from minusone import families, operators

    tables = {"weights": families.WEIGHTS, "builders": operators._BUILDERS}
    monkeypatch.delitem(tables[table], "hermite")
    code, out = run(capsys, "verify", "--family", "hermite", "--checks", check,
                    "--digits", "15", "--format", "json", "--no-timestamp")
    results = json.loads(out)["results"]
    assert code == cli.EXIT_PASS
    assert [(r["check"], r["status"], r["notes"]) for r in results] == [(check, "pass", note)]
    entry = next(e for e in cli._catalog_description() if e["id"] == "hermite")
    assert not entry["has_weight" if table == "weights" else "has_eigen_system"]


def test_removed_and_out_of_range_arguments_are_usage_errors(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "hermite", "--nmax", "3"])
    assert exc.value.code == cli.EXIT_USAGE
    for argv, named in ((["tabulate", "--family", "hermite", "--n", "-1"], "--n"),
                        (["tabulate", "--family", "hermite", "--params", "bn_sign=plus"],
                         "bn_sign"),
                        (["verify", "--family", "hermite", "--digits", "5"], "--digits"),
                        (["tabulate", "--family", "hermite", "--digits", "14"], "--digits")):
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err, captured
    monkeypatch.setenv("MINUS_ONE_DIGITS", "abc")
    assert cli.main(["verify", "--family", "hermite"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "MINUS_ONE_DIGITS" in captured.err, captured


def test_catalog_flags_match_the_checks_that_run(capsys):
    # list's has_weight / has_eigen_system hold exactly where verify runs the
    # Gram / the eigen check rather than reporting it skipped
    from minusone import families

    entries = {e["id"]: e for e in cli._catalog_description()}
    for fid in families.scheme_ids():
        code, out = run(capsys, "verify", "--family", fid, "--checks", "orthogonality,eigen",
                        "--digits", "15", "--format", "json", "--no-timestamp")
        ran = {r["check"]: not r["notes"].endswith("(skipped)")
               for r in json.loads(out)["results"]}
        assert ran == {"orthogonality": entries[fid]["has_weight"],
                       "eigen": entries[fid]["has_eigen_system"]}, (fid, code)


def test_verification_failure_exit_code(capsys):
    # outside the admissible region the Favard scan legitimately fails
    code, out = run(capsys, "verify", "--family", "gen-gegenbauer",
                    "--params", "alpha=0.6,beta=-1.5", "--checks", "favard")
    assert code == cli.EXIT_FAIL
    assert "FAIL" in out


def test_inconclusive_exit_code(capsys, monkeypatch):
    # a non-converged quadrature must surface as the distinct exit code 2: two
    # meshes per piece leave the hermite table unconverged
    from minusone import quadrature

    monkeypatch.setattr(quadrature, "MAX_LEVELS", 2)
    code, out = run(capsys, "verify", "--family", "hermite", "--checks", "orthogonality")
    assert code == cli.EXIT_INCONCLUSIVE
    assert "INCONCLUSIVE" in out.upper()
    assert "; node table not converged after 2 meshes" in out


@pytest.mark.parametrize("argv", [
    ("export",),
    ("tabulate", "--family", "hermite", "--n", "2", "--digits", "15"),
    ("verify", "--family", "hermite", "--checks", "favard", "--digits", "15"),
], ids=["export", "tabulate", "verify"])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    # an --output in a missing directory: exit 3 and one line on stderr, no
    # traceback; verify finds it among its usage checks, before any check runs
    from minusone import orthogonality

    def favard_check(*args):
        raise AssertionError("a check ran before the --output check")

    monkeypatch.setattr(orthogonality, "favard_check", favard_check)
    path = tmp_path / "missing" / "x.dot"
    code = cli.main(list(argv) + ["--output", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.err == "error: cannot write --output %s: No such file or directory\n" % path
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("export",),
    ("verify", "--family", "hermite", "--checks", "favard", "--digits", "15"),
], ids=["export", "verify"])
def test_output_under_a_regular_file_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    # the error open() gives, the same for every command; verify meets it
    # before any check runs
    from minusone import orthogonality

    def favard_check(*args):
        raise AssertionError("a check ran before the --output check")

    monkeypatch.setattr(orthogonality, "favard_check", favard_check)
    (tmp_path / "file").write_text("")
    code = cli.main(list(argv) + ["--output", str(tmp_path / "file" / "x.json")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.err.endswith(": Not a directory\n"), captured.err
    assert captured.out == ""


def test_dead_end_ends_only_its_own_check(capsys, monkeypatch):
    # a ParameterError inside the ladders of one edge makes its limit check
    # and its open question inconclusive; every other check still reports
    from minusone import scheme
    from minusone.families import ParameterError

    dead = "little-q-jacobi-dilated:little-minus1-jacobi"
    real_limit = scheme.verify_limit

    def limit(edge, *a, **kw):
        if edge.id == dead:
            raise ParameterError("printed denominator vanishes")
        return real_limit(edge, *a, **kw)

    monkeypatch.setattr(scheme, "verify_limit", limit)
    code, out = run(capsys, "verify", "--all", "--checks", "limit", "--digits", "20",
                    "--format", "json", "--no-timestamp")
    results = json.loads(out)["results"]
    limits = {r["id"] for r in results if r["check"] == "limit"}
    assert limits == {e.id for e in scheme.edge_catalog() if e.kind in ("limit", "q-limit")}
    dead_ends = [(r["check"], r["status"], r["notes"]) for r in results if r["id"] == dead]
    assert sorted(dead_ends) == [("limit", "inconclusive", "printed denominator vanishes"),
                                 ("open-question:bn-sign", "inconclusive",
                                  "printed denominator vanishes")]
    assert {r["status"] for r in results if r["id"] != dead} == {"pass"}
    assert code == cli.EXIT_INCONCLUSIVE


@pytest.mark.parametrize("argv, message", [
    (["verify", "--edge", "hermite"], "edge selector must be source:target, got 'hermite'"),
    (["verify", "--edge", "hermite:foo"], "unknown family 'foo'"),
    (["verify", "--edge", "hermite:gegenbauer"], "no scheme edge hermite:gegenbauer"),
    (["tabulate", "--family", "foo"], "unknown family 'foo'"),
    (["verify", "--family", "hermite", "--checks", "foo"], "unknown check 'foo'"),
    (["verify", "--family", "hermite", "--params", "alpha"], "bad parameter assignment 'alpha'"),
])
def test_usage_errors_print_as_written(capsys, argv, message):
    # one line on stderr, the message as raised: never the quoted repr of a KeyError
    code = cli.main(argv + ["--digits", "15"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_unknown_check_usage_error(capsys):
    # an explicit empty --checks selects nothing: a usage error, not every check
    for scope in (["--all"], ["--edge", "gen-hermite:hermite"], ["--family", "hermite"]):
        for checks in ("nonesuch", ""):
            code, out = run(capsys, "verify", *scope, "--checks", checks)
            assert code == cli.EXIT_USAGE and out == "", (scope, checks)


def test_suite_rows_run_under_their_own_check_or_square(capsys):
    # the commuting squares run under square; the kernel recurrence map, a ct-gt
    # row, runs under ct-gt or square; the open questions run under any selection
    from minusone import scheme

    questions = {(id, check) for id, check, _ in scheme.OPEN_QUESTIONS}
    kernel_map = ("kernel-recurrence-map", "ct-gt")
    squares = {("commuting-square:%s" % which, "square") for which in scheme.SQUARES}
    christoffel = {(e.id, "ct-gt") for e in scheme.edge_catalog() if e.kind == "christoffel"}
    for checks, expected in (("square", squares | {kernel_map} | questions),
                             ("ct-gt", christoffel | {kernel_map} | questions)):
        code, out = run(capsys, "verify", "--all", "--checks", checks, "--digits", "15",
                        "--format", "json", "--no-timestamp")
        rows = [(r["id"], r["check"]) for r in json.loads(out)["results"]]
        assert len(rows) == len(set(rows)) and set(rows) == expected, (checks, rows)


def test_empty_edge_selection_usage_error(capsys):
    # an explicit --checks that names no check of the edge's kind runs nothing:
    # a usage error naming the kind, not an empty pass
    for edge, checks in (("gen-hermite:hermite", "limit"),
                         ("gen-hermite:hermite", "limit,ct-gt")):
        code = cli.main(["verify", "--edge", edge, "--checks", checks])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and captured.out == ""
        assert "kind specialization" in captured.err
    code, out = run(capsys, "verify", "--edge", "gen-hermite:hermite", "--checks", "exact,limit",
                    "--digits", "15", "--format", "json", "--no-timestamp")
    assert code == 0
    assert [r["check"] for r in json.loads(out)["results"]] == ["exact"]
    # a Geronimus edge has no check of its own, with or without --checks:
    # the error names the Christoffel pair that checks it
    for extra in ([], ["--checks", "ct-gt"]):
        code = cli.main(["verify", "--edge", "chihara:big-minus1-jacobi", "--digits", "15"] + extra)
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and captured.out == ""
        assert "big-minus1-jacobi:chihara" in captured.err


@pytest.mark.parametrize("edge", ["continuous-q-hahn:continuous-minus1-hahn-1",
                                  "continuous-q-hahn:continuous-minus1-hahn-2"])
def test_q_hahn_ladder_at_15_digits(capsys, edge):
    # the eps = 1e-6 rung drives the q-Hahn A_n denominator to 1.6e-11, which
    # a 15-digit context rejects; the ladder runs at 20 digits instead
    code, out = run(capsys, "verify", "--edge", edge, "--digits", "15", "--format", "json",
                    "--no-timestamp")
    assert code == 0
    [result] = json.loads(out)["results"]
    assert (result["check"], result["status"]) == ("limit", "pass")


@pytest.mark.parametrize("digits", [15, pytest.param(50, marks=pytest.mark.slow),
                                    pytest.param(100, marks=pytest.mark.slow)])
def test_verify_all_matches_golden_report(capsys, digits):
    # the committed report, byte for byte: a change to any row's output is
    # a change to tests/golden, regenerated with the same command
    code, out = run(capsys, "verify", "--all", "--digits", str(digits), "--format", "json",
                    "--no-timestamp")
    assert code == 0
    assert out == (GOLDEN / ("verify-all-d%d.json" % digits)).read_text()
    # the thread's interned contexts, shared by every row, come out at their own precision
    for d, ctx in precision._interned.table.items():
        built = MPContext()
        built.dps = d + precision.GUARD_DIGITS
        assert (ctx.digits, ctx.mp.dps, ctx.mp.prec) == (d, built.dps, built.prec)
    assert digits in precision._interned.table


@pytest.mark.slow
@pytest.mark.parametrize("digits", [15, 20, 30, 50, 100])
def test_verify_all_status_sweep(capsys, digits):
    code, out = run(capsys, "verify", "--all", "--digits", str(digits), "--format", "json",
                    "--no-timestamp")
    results = json.loads(out)["results"]
    assert len(results) == 99
    assert [r for r in results if r["status"] != "pass"] == []
    assert code == 0


@pytest.mark.parametrize("family, params", [
    ("chihara", "alpha=-1,beta=1.5,gamma=0.25"),
    ("big-minus1-jacobi", "alpha=-1,beta=1.5,c=0.25"),
    ("continuous-bannai-ito", "alpha=0.25,beta=1,gamma=-0.5,delta=0.5"),
])
def test_singular_parameter_point_is_a_dead_end(capsys, family, params):
    # a printed denominator that vanishes in the closed form (a pFq lower
    # parameter, or 1 + alpha) ends that check alone, as inconclusive
    code, out = run(capsys, "verify", "--family", family, "--params", params, "--digits", "20",
                    "--format", "json", "--no-timestamp")
    results = json.loads(out)["results"]
    assert sorted(r["check"] for r in results) == sorted(cli.FAMILY_CHECKS)
    [closed] = [r for r in results if r["check"] == "closed-form"]
    assert closed["status"] == "inconclusive" and "denominator" in closed["notes"], closed
    assert code in (cli.EXIT_FAIL, cli.EXIT_INCONCLUSIVE)


def test_ccbi_favard_at_a_printed_denominator_zero_is_inconclusive(capsys):
    # the CCBI Favard row is the Favard scan at b2 = 1 and b2 = 0; at
    # 2 a1 + a2 = 1 the recurrence's denominator vanishes at n = 1, and the
    # scan's ParameterError ends the row as inconclusive, naming it
    code, out = run(capsys, "verify", "--family", "ccbi", "--params",
                    "a1=0.25,b1=0.5,a2=0.5,b2=0.3", "--checks", "favard", "--digits", "15",
                    "--format", "json", "--no-timestamp")
    [row] = json.loads(out)["results"]
    assert row["status"] == "inconclusive" and "denominator" in row["notes"], row
    assert code == cli.EXIT_INCONCLUSIVE


# boxes inside each operator family's admissible region (FamilyInfo.admissible)
_BOXES = {
    "hermite": {},
    "generalized-hermite": {"alpha": (-0.4, 2)},
    "gegenbauer": {"alpha": (0.1, 2)},
    "generalized-gegenbauer": {"alpha": (-0.9, 2), "beta": (0.1, 2)},
    "chihara": {"alpha": (-0.9, 2), "beta": (0.1, 2), "gamma": (0.1, 1)},
    "minus1-meixner-pollaczek": {"alpha": (-0.4, 2), "gamma": (0.1, 1)},
    "big-minus1-jacobi": {"alpha": (0.1, 2), "beta": (0.1, 2), "c": (0, 0.9)},
    "little-minus1-jacobi": {"alpha": (0.1, 2), "beta": (0.1, 2)},
    "special-little-minus1-jacobi": {"alpha": (0.1, 2)},
    "continuous-bannai-ito": {name: (0.1, 2) for name in ("alpha", "beta", "gamma", "delta")},
    "continuous-minus1-hahn-1": {name: (0.1, 2) for name in ("alpha", "beta", "gamma")},
    "continuous-minus1-hahn-2": {name: (0.1, 2) for name in ("alpha", "beta", "gamma")},
    "generalized-symmetric-bannai-ito": {name: (0.4, 2) for name in ("a", "b", "c")},
    "symmetric-bannai-ito": {"a": (0.1, 2), "b": (0.1, 2)},
}
_ALGEBRA_CHECKS = "closed-form,eigen,favard"


def test_admissible_boxes_lie_inside_the_printed_clause():
    # every corner of each box satisfies the family's clause as a test (FamilyInfo.admits)
    from minusone import families
    from minusone.precision import PrecisionContext

    ctx = PrecisionContext(15)
    for family, box in _BOXES.items():
        admits = families.family_info(family).admits
        for corner in itertools.product(*box.values()):
            params = families.make_params(family, ctx, **dict(zip(box, map(str, corner))))
            assert admits is None or admits(ctx, **params), (family, corner)


def _quiet_verify(family, params, digits):
    argv = ["verify", "--family", family, "--checks", _ALGEBRA_CHECKS, "--digits", str(digits),
            "--params", ",".join("%s=%s" % item for item in params.items()),
            "--format", "json", "--no-timestamp"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


def _six_decimals(lo, hi):
    return st.integers(round(lo * 10 ** 6), round(hi * 10 ** 6)).map(lambda k: "%.6f" % (k / 10 ** 6))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_algebra_checks_pass_inside_admissible_boxes(data):
    family = data.draw(st.sampled_from(sorted(_BOXES)))
    params = {name: data.draw(_six_decimals(*box), label=name)
              for name, box in _BOXES[family].items()}
    code, out = _quiet_verify(family, params, data.draw(st.sampled_from([15, 50])))
    assert code == cli.EXIT_PASS, out


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_singular_parameter_values_never_raise(data):
    from minusone import families

    family = data.draw(st.sampled_from([f for f in families.scheme_ids()
                                        if families.family_info(f).params]))
    params = families.fixture_points(family)[0]
    name = data.draw(st.sampled_from(sorted(params)))
    params[name] = data.draw(st.sampled_from(["0", "-0.5", "-1", "-1.5", "-2"]))
    code, _ = _quiet_verify(family, params, data.draw(st.sampled_from([15, 50])))
    assert code in (cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_INCONCLUSIVE)


def test_every_skipped_row_ends_in_skipped(capsys):
    # one note rule for a check whose table has no entry for the family,
    # the closed form included; the q-aux families have none of the three
    from minusone import families

    for fid in families.family_ids("q-aux"):
        code, out = run(capsys, "verify", "--family", fid,
                        "--checks", "closed-form,orthogonality,eigen", "--digits", "15",
                        "--format", "json", "--no-timestamp")
        assert code == cli.EXIT_PASS
        assert {r["check"]: (r["status"], r["notes"]) for r in json.loads(out)["results"]} == {
            "closed-form": ("pass", "no closed form on record (skipped)"),
            "orthogonality": ("pass", "no continuous measure on record (skipped)"),
            "eigen": ("pass", "no eigenvalue equation on record (skipped)"),
        }, fid


def test_every_runner_reports_the_row_fields():
    # one family per family check (CCBI too, for the quasi Favard row), one
    # edge per edge kind, and the suite rows
    from minusone import families, scheme
    from minusone.precision import PrecisionContext

    ctx = PrecisionContext(15)
    reports = []
    for check, run in cli._FAMILY_RUNNERS.items():
        quasi = ("continuous-complementary-bannai-ito",) if check == "favard" else ()
        for fid in ("hermite",) + quasi:
            params = families.make_params(fid, ctx, **families.fixture_points(fid)[0])
            reports.append((fid, check, run(fid, params, ctx)))
    for kind, (check, run) in cli._EDGE_RUNNERS.items():
        edge = next(e for e in scheme.edge_catalog() if e.kind == kind)
        reports.append((edge.id, check, run(edge, ctx)))
    for id, check, _, run in cli._SUITE_ROWS:
        reports.append((id, check, run(ctx)))
    assert {check for _, check, _ in reports} == set(cli.FAMILY_CHECKS + cli.EDGE_CHECKS)
    for id, check, rep in reports:
        assert rep["status"] == "pass", (id, check, rep)
        assert isinstance(rep["notes"], str), (id, check)
        for key in ("residual", "tolerance"):
            assert rep[key] is None or isinstance(rep[key], float), (id, check, key)


def test_every_runner_calls_its_check_through_the_module(capsys, monkeypatch):
    # perfbench's tracer rebinds module attributes: a runner holding the
    # function object would bypass the rebinding, and its time would go untraced
    from minusone import families, operators, orthogonality, scheme

    def stub(tag):
        def check(*args, **kwargs):
            return {"status": "fail", "residual": 1.0, "tolerance": 2.0, "notes": tag}
        return check

    checks = {"closed-form": (families, "closed_form_check"),
              "orthogonality": (orthogonality, "gram"),
              "eigen": (operators, "eigen_check"),
              "favard": (orthogonality, "favard_check"),
              "exact": (scheme, "verify_exact"),
              "limit": (scheme, "verify_limit"),
              "ct-gt": (scheme, "verify_ct_gt"),
              "square": (scheme, "verify_commuting_square"),
              "kernel-recurrence-map": (scheme, "verify_recurrence_kernel_map"),
              "open-question:bn-sign": (scheme, "verify_readings"),
              "open-question:mp-scaling": (scheme, "verify_readings"),
              "open-question:shift-reflect-composition":
                  (operators, "resolve_composition_convention")}
    for module, name in set(checks.values()):
        monkeypatch.setattr(module, name, stub(name))
    code, out = run(capsys, "verify", "--all", "--digits", "15", "--format", "json",
                    "--no-timestamp")
    results = json.loads(out)["results"]
    assert code == cli.EXIT_FAIL and len(results) == 99
    for r in results:
        module, name = checks[r["id"] if r["id"] in checks else r["check"]]
        assert (r["status"], r["residual"], r["tolerance"], r["notes"]) == (
            "fail", 1.0, 2.0, name), r
    assert {r["notes"] for r in results} == {name for _, name in checks.values()}


def test_failed_reading_search_is_a_failed_row(capsys, monkeypatch):
    # no reading of the printed operator passes: the composition rows fail,
    # not a skipped pass as for a family with no eigen system
    from minusone import operators
    from minusone.polynomials import NonDivisibleError

    def no_degree_passes(es, polys, degrees, ctx):
        raise NonDivisibleError("image of P_%d is not polynomial: a pole survives" % degrees[0])
        yield

    monkeypatch.setattr(operators, "_eigen_degrees", no_degree_passes)
    code, out = run(capsys, "verify", "--all", "--checks", "square", "--digits", "15")
    rows = [line for line in out.splitlines()
            if "[open-question:shift-reflect-composition]" in line]
    assert code == cli.EXIT_FAIL
    assert [row.split()[0] for row in rows] == ["FAIL"] * 3, out
    assert all("satisfies its eigen equation" in row and "skipped" not in row for row in rows)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_parameters_are_a_usage_error(capsys, value):
    # a non-finite value is named in a usage error, with no traceback and no report
    for argv in (["verify", "--family", "gegenbauer", "--params", "alpha=" + value,
                  "--digits", "15"],
                 ["tabulate", "--family", "gegenbauer", "--params", "alpha=" + value]):
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "'alpha'" in captured.err, captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("gamma, digits", [("1e20", "15"), ("1e30", "50")])
def test_gram_over_an_empty_node_table_is_inconclusive(capsys, gamma, digits):
    # sqrt(1 + gamma^2) rounds to |gamma|: both chihara support pieces have width 0
    code, out = run(capsys, "verify", "--family", "chihara", "--params",
                    "alpha=0.5,beta=1.5,gamma=" + gamma, "--digits", digits,
                    "--checks", "orthogonality")
    assert code == cli.EXIT_INCONCLUSIVE
    assert out.startswith("INCONCLUSIVE") and "over 0 nodes" in out, out


@pytest.mark.parametrize("value, why", [("inf", "not finite"), ("nan", "not finite"),
                                        ("1+1j", "not real")])
def test_a_density_value_that_is_not_a_finite_real_ends_the_gram_inconclusive(monkeypatch,
                                                                              value, why):
    # the sweep's ValueError becomes the Gram's ParameterError: one inconclusive row that names
    # the node, where a bare ValueError escaped cli._ENDS and ended the run
    from minusone import families
    from minusone.families import WeightSpec
    from minusone.precision import PrecisionContext

    def weight_spec(fid, params, work):
        mp = work.mp
        return WeightSpec([(mp.mpf(-1), mp.mpf(1))],
                          lambda x, a, b: mp.mpmathify(value) if x > 0.5 else mp.mpf(1))
    monkeypatch.setattr(families, "weight_spec", weight_spec)
    ctx = PrecisionContext(15)
    params = families.make_params("gegenbauer", ctx, **families.fixture_points("gegenbauer")[0])
    rows = cli._family_results("gegenbauer", params, ctx, ("orthogonality",))
    assert [(r["check"], r["status"]) for r in rows] == [("orthogonality", "inconclusive")]
    assert why + " at x = 0.9" in rows[0]["notes"], rows[0]["notes"]


def test_closed_form_that_loses_precision_is_inconclusive(capsys):
    code, out = run(capsys, "verify", "--family", "chihara", "--params",
                    "alpha=0.5,beta=1.5,gamma=1e12", "--digits", "15", "--checks", "closed-form")
    assert code == cli.EXIT_INCONCLUSIVE
    assert out.startswith("INCONCLUSIVE") and "precision lost" in out, out


# Chihara at alpha = 0.5, beta = 1.5, gamma = 10^k: the coefficients of P_n grow
# like gamma^n.  The eigen rows that still fail lose their basis matrix to the
# monomial-to-P basis change (their per-degree residuals pass); each is named,
# so the test turns red when one is fixed (ROADMAP item 3).  At 15 digits and
# gamma = 1e16, P_8 spans about gamma^8 = 2^425, more than the 320 guard bits.
_CHIHARA_EIGEN_FAILS = {(15, 16)}
_CHIHARA_CLOSED_FORM_FAILS = {(100, 13)}      # residual 6.6e-83 against 1e-90


def test_chihara_gamma_sweep():
    from minusone import families, operators
    from minusone.precision import PrecisionContext

    eigen_fails, closed_fails = set(), set()
    for digits in (15, 50, 100):
        ctx = PrecisionContext(digits)
        for k in range(17):
            params = families.make_params("chihara", ctx, alpha="0.5", beta="1.5",
                                          gamma="1e%d" % k)
            eigen = cli._row("chihara", "eigen", "", operators.eigen_check, "chihara", params,
                             10, ctx)
            assert eigen["status"] in ("pass", "fail"), eigen
            if eigen["status"] == "fail":
                assert eigen["notes"].startswith("basis matrix P_0..P_8 not diagonal"), eigen
                eigen_fails.add((digits, k))
            closed = cli._row("chihara", "closed-form", "", families.closed_form_check, "chihara",
                              params, 12, ctx)
            if closed["status"] == "fail":
                closed_fails.add((digits, k))
            else:
                assert closed["status"] == "pass" or "precision lost" in closed["notes"], closed
    assert eigen_fails == _CHIHARA_EIGEN_FAILS
    assert closed_fails == _CHIHARA_CLOSED_FORM_FAILS
