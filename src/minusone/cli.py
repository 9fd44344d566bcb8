"""Command-line front end: tabulate, verify, and export machine-readable reports.

Exit codes: 0 all checks passed; 1 at least one verification failed;
2 inconclusive results only (ambiguous reductions, non-converged
quadrature); 3 usage errors.  MINUS_ONE_DIGITS overrides the default
precision; an explicit --digits flag wins over the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import families, operators, orthogonality, scheme
from .families import (
    InadmissibleParameterError,
    NoEigenSystemError,
    NoWeightError,
    ParameterError,
    UnknownFamilyError,
)
from .polynomials import ReductionAmbiguityError
from .precision import PrecisionContext

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

FAMILY_CHECKS = ("closed-form", "orthogonality", "eigen", "favard")
EDGE_CHECKS = ("exact", "limit", "ct-gt", "square")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    p = _Parser(prog="minusone",
                description="Continuous -1 hypergeometric orthogonal polynomials: "
                            "catalog, evaluation, and numerical verification.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("list", help="list the family catalog")
    sp.add_argument("--scheme-only", action="store_true",
                    help="only the 15 scheme chart entries")
    sp.add_argument("--format", choices=("human", "json"), default="human")

    sp = sub.add_parser("tabulate", help="recurrence coefficients and polynomials")
    sp.add_argument("--family", required=True)
    sp.add_argument("--params", default="",
                    help="comma-separated name=value pairs (decimal strings)")
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--digits", type=int, default=None)
    sp.add_argument("--format", choices=("human", "json"), default="human")
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("verify", help="run verification suites")
    scope = sp.add_mutually_exclusive_group(required=True)
    scope.add_argument("--family")
    scope.add_argument("--edge", help="source:target")
    scope.add_argument("--all", action="store_true")
    sp.add_argument("--checks", default=None,
                    help="subset of {%s} / {%s}" % (",".join(FAMILY_CHECKS), ",".join(EDGE_CHECKS)))
    sp.add_argument("--params", default="", help="override fixture parameters (family scope)")
    sp.add_argument("--digits", type=int, default=None)
    sp.add_argument("--nmax", type=int, default=None, help="degree cap override")
    sp.add_argument("--format", choices=("human", "json"), default="human")
    sp.add_argument("--output", default=None)
    sp.add_argument("--no-timestamp", action="store_true")

    sp = sub.add_parser("export", help="emit the scheme graph")
    sp.add_argument("--format", choices=("dot", "json"), default="dot")
    sp.add_argument("--include-aux", action="store_true")
    sp.add_argument("--output", default=None)
    return p


def _pick_digits(args):
    if getattr(args, "digits", None) is not None:
        digits = args.digits
    else:
        digits = int(os.environ.get("MINUS_ONE_DIGITS", "50"))
    return PrecisionContext(digits)


def _parse_params(spec_string, family, ctx):
    values = {}
    if spec_string:
        for item in spec_string.split(","):
            if "=" not in item:
                raise ParameterError("bad parameter assignment %r" % item)
            name, _, val = item.partition("=")
            values[name.strip()] = val.strip()
    return families.make_params(family, ctx, **values)


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _num_str(ctx, value, digits=None):
    mp = ctx.mp
    v = mp.mpc(value)
    d = digits or min(ctx.digits, 20)
    if abs(mp.im(v)) <= ctx.tol(6) * max(1, abs(v)):
        return mp.nstr(mp.re(v), d)
    return mp.nstr(v, d)


def cmd_list(args):
    entries = families.catalog_description()
    if args.scheme_only:
        entries = [e for e in entries if e["kind"] in ("scheme", "quasi")]
    if args.format == "json":
        print(json.dumps(entries, indent=2, sort_keys=True))
        return EXIT_PASS
    for e in entries:
        tag = {"scheme": " ", "quasi": "~", "helper": "H", "q-aux": "q"}[e["kind"]]
        print("%s %-38s params=(%s)  [%s]" % (tag, e["id"], ", ".join(e["parameters"]), e["anchor"]))
        print("    %s; admissible: %s" % (e["name"], e["admissible"]))
    print("%d entries" % len(entries))
    return EXIT_PASS


def cmd_tabulate(args):
    ctx = _pick_digits(args)
    mp = ctx.mp
    try:
        fid = families.resolve_family(args.family)
        params = _parse_params(args.params, fid, ctx)
        polys = families.generate(fid, params, args.n, ctx)
        rows = []
        for n in range(args.n + 1):
            pair = families.recurrence(fid, params, n, ctx)
            rows.append({
                "n": n,
                "b": _num_str(ctx, pair.b),
                "u": _num_str(ctx, pair.u) if n >= 1 else None,
                "coeffs": [_num_str(ctx, c) for c in polys[n].coeffs],
            })
    except (UnknownFamilyError, ParameterError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    if args.format == "json":
        _emit(json.dumps({"family": fid, "digits": ctx.digits, "rows": rows},
                         indent=2, sort_keys=True), args.output)
        return EXIT_PASS
    lines = ["family %s at %d digits" % (fid, ctx.digits)]
    for r in rows:
        lines.append("n=%-3d b_n = %-28s u_n = %s" % (r["n"], r["b"], r["u"] if r["u"] else "-"))
        lines.append("      P_%d coeffs (low to high): %s" % (r["n"], ", ".join(r["coeffs"])))
    _emit("\n".join(lines), args.output)
    return EXIT_PASS


def _result(id, check, status, residual=None, tolerance=None, anchor="", notes=""):
    return {"id": id, "check": check, "status": status,
            "residual": residual, "tolerance": tolerance,
            "anchor": anchor, "notes": notes}


def _family_results(fid, params, ctx, checks, nmax=None):
    from .polynomials import poly_rel_distance

    mp = ctx.mp
    info = families.family_info(fid)
    results = []

    if "closed-form" in checks:
        try:
            N = nmax if nmax is not None else 12
            polys = families.generate(fid, params, N, ctx)
            worst = mp.mpf(0)
            for n in range(N + 1):
                cf = families.closed_form(fid, params, n, ctx)
                worst = max(worst, poly_rel_distance(polys[n], cf))
            tol = ctx.tol(10)
            results.append(_result(fid, "closed-form",
                                   "pass" if worst <= tol else "fail",
                                   float(worst), float(tol), info.anchor))
        except families.NoClosedFormError:
            results.append(_result(fid, "closed-form", "pass", notes="no closed form on record",
                                   anchor=info.anchor))

    if "orthogonality" in checks:
        if not info.has_weight:
            results.append(_result(fid, "orthogonality", "pass", anchor=info.anchor,
                                   notes="no continuous measure on record (skipped)"))
        else:
            N = nmax if nmax is not None else 8
            rep = orthogonality.gram(fid, params, N, ctx)
            off_tol = 10.0 ** -(ctx.digits / 2)
            diag_tol = 10.0 ** -(ctx.digits / 2 - 8)
            ok = rep["max_offdiag"] <= off_tol and rep["max_diag_error"] <= diag_tol
            status = "pass" if ok else "fail"
            if not rep["converged"]:
                status = "inconclusive"
            results.append(_result(fid, "orthogonality", status,
                                   max(rep["max_offdiag"], rep["max_diag_error"]),
                                   off_tol, info.anchor,
                                   "offdiag %.3g diag %.3g over %d nodes at %d digits" % (
                                       rep["max_offdiag"], rep["max_diag_error"], rep["nodes"],
                                       rep["working_digits"])))

    if "eigen" in checks:
        if not info.has_eigen:
            results.append(_result(fid, "eigen", "pass", anchor=info.anchor,
                                   notes="no eigenvalue equation on record (skipped)"))
        else:
            N = nmax if nmax is not None else 10
            worst = 0.0
            status = "pass"
            for free in ("0.5", "2"):
                for n in range(N + 1):
                    rep = operators.verify_eigen(fid, params, n, ctx, free=free)
                    if rep["status"] == "inconclusive":
                        status = "inconclusive"
                    elif rep["status"] == "fail":
                        status = "fail"
                    if rep["residual"] is not None:
                        worst = max(worst, rep["residual"])
            diag = operators.check_diagonality(fid, params, 8, ctx)
            if max(diag["max_offdiag"], diag["max_diag_error"]) > diag["tolerance"]:
                status = "fail"
            results.append(_result(fid, "eigen", status, worst, float(ctx.tol(10)),
                                   info.anchor,
                                   "n <= %d at two free-parameter values; basis matrix diagonal" % N))

    if "favard" in checks:
        if info.kind == "quasi":
            rep_bad = families.positivity_conditions_ccbi(
                {**params, "b2": ctx.mp.mpf(1)}, ctx, N=5)
            rep_good = families.positivity_conditions_ccbi(
                {**params, "b2": ctx.mp.mpf(0)}, ctx, N=5)
            ok = (not rep_bad["all_hold"]) and rep_good["all_hold"]
            results.append(_result(fid, "favard", "pass" if ok else "fail",
                                   anchor=info.anchor,
                                   notes="b2 != 0 breaks reality, b2 = 0 reduces to the "
                                         "generalized symmetric family"))
        else:
            N = nmax if nmax is not None else 200
            rep = orthogonality.favard_scan(fid, params, N, ctx)
            results.append(_result(fid, "favard", "pass" if rep["pass"] else "fail",
                                   None, None, info.anchor,
                                   "min u_n = %s over n <= %d" % (rep["min_u"], N)))
    return results


def _edge_results(edge, ctx, checks, nmax=None):
    results = []
    if edge.kind == "specialization" and "exact" in checks:
        rep = scheme.verify_exact(edge, nmax if nmax is not None else 10, ctx)
        results.append(_result(edge.id, "exact", rep["status"], rep["max_error"],
                               rep["tolerance"], edge.anchor, edge.label))
    elif edge.kind in ("limit", "q-limit") and "limit" in checks:
        rep = scheme.verify_limit(edge, nmax if nmax is not None else 6, ctx)
        notes = "order %.2f, ladder errors %s" % (
            rep["order_poly"] or -1, ", ".join("%.1e" % e for e in rep["errors"]))
        results.append(_result(edge.id, "limit", rep["status"],
                               rep["extrapolated_error"], 1e-8, edge.anchor, notes))
    elif edge.kind in ("christoffel", "geronimus") and "ct-gt" in checks:
        if edge.kind == "geronimus":
            return results          # covered by the christoffel direction of the pair
        rep = scheme.verify_ct_gt(edge, nmax if nmax is not None else 10, ctx)
        worst = max(rep["christoffel_error"], rep["geronimus_error"], rep["round_trip_error"])
        results.append(_result(edge.id, "ct-gt", rep["status"], worst,
                               rep["tolerance"], edge.anchor, edge.label))
    return results


def cmd_verify(args):
    ctx = _pick_digits(args)
    results = []
    config = {"digits": ctx.digits}

    try:
        if args.family:
            fid = families.resolve_family(args.family)
            checks = args.checks.split(",") if args.checks else list(FAMILY_CHECKS)
            for c in checks:
                if c not in FAMILY_CHECKS:
                    raise UnknownFamilyError("unknown family check %r" % c)
            if args.params:
                points = [_parse_params(args.params, fid, ctx)]
            else:
                points = [families.make_params(fid, ctx, **pt)
                          for pt in families.fixture_points(fid)[:1]]
            config.update({"scope": "family", "id": fid, "checks": checks})
            for params in points:
                results.extend(_family_results(fid, params, ctx, checks, args.nmax))
        elif args.edge:
            edge = scheme.resolve_edge(args.edge)
            checks = args.checks.split(",") if args.checks else list(EDGE_CHECKS)
            config.update({"scope": "edge", "id": edge.id, "checks": checks})
            results.extend(_edge_results(edge, ctx, checks, args.nmax))
        else:
            checks = args.checks.split(",") if args.checks else list(FAMILY_CHECKS + EDGE_CHECKS)
            config.update({"scope": "all", "checks": checks})
            for fid in families.scheme_ids():
                params = families.make_params(fid, ctx, **families.fixture_points(fid)[0])
                results.extend(_family_results(fid, params, ctx, checks, args.nmax))
            for edge in scheme.edge_catalog():
                results.extend(_edge_results(edge, ctx, checks, args.nmax))
            if "square" in checks:
                for which in ("little", "gegenbauer"):
                    rep = scheme.verify_commuting_square(which, ctx)
                    results.append(_result("commuting-square:%s" % which, "square",
                                           rep["status"], rep["exact_leg_error"],
                                           float(ctx.tol(10)), "fig.1",
                                           "orders %.2f / %.2f" % (rep["order_path_a"],
                                                                   rep["order_path_b"])))
                rep = scheme.verify_recurrence_kernel_map(ctx)
                results.append(_result("kernel-recurrence-map", "ct-gt", rep["status"],
                                       rep["max_error"], rep["tolerance"], "ss2",
                                       "A_n -> C_{n+1}, C_n -> A_n restatement"))
            for r in scheme.resolve_open_questions(ctx):
                results.append(_result(r["id"], r["check"], r["status"],
                                       r.get("residual"), None, "", r["notes"]))
    except (UnknownFamilyError, KeyError, ParameterError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except (ReductionAmbiguityError,) as exc:
        results.append(_result("suite", "internal", "inconclusive", notes=str(exc)))

    results.sort(key=lambda r: (r["id"], r["check"], str(r["notes"])))
    statuses = {r["status"] for r in results}
    if "fail" in statuses:
        code = EXIT_FAIL
    elif "inconclusive" in statuses:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_PASS

    report = {"command": "verify", "config": config, "results": results}
    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if args.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), args.output)
    else:
        lines = []
        for r in results:

            lines.append("%-12s %-60s %s%s" % (
                r["status"].upper(), "%s [%s]" % (r["id"], r["check"]),
                ("residual %.3g" % r["residual"]) if isinstance(r["residual"], float) else "",
                (" | " + r["notes"]) if r["notes"] else ""))
        lines.append("summary: %d checks, %d failed, %d inconclusive" % (
            len(results), sum(r["status"] == "fail" for r in results),
            sum(r["status"] == "inconclusive" for r in results)))
        _emit("\n".join(lines), args.output)
    return code


def cmd_export(args):
    text = scheme.export_graph(args.format, include_aux=args.include_aux)
    _emit(text, args.output)
    return EXIT_PASS


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "tabulate":
        return cmd_tabulate(args)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "export":
        return cmd_export(args)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
