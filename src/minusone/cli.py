"""Command-line front end: tabulate, verify, and export machine-readable reports.

Exit codes: 0 all checks passed; 1 at least one verification failed;
2 inconclusive results only (ambiguous reductions, non-converged
quadrature, or a numerical dead end inside a check, which ends that check
alone); 3 usage errors (an unknown family, edge or check, bad --params or
--params outside --family, an edge with no check of its own, a negative
--n, --digits below 15, a MINUS_ONE_DIGITS that is not an integer of at
least 15, or an --output that cannot be opened: verify opens it for append,
creating it, after its other usage checks), with no report.  A usage error
is an UnknownFamilyError or a ParameterError that reaches ``main``, which
alone catches them and prints the message as raised.
MINUS_ONE_DIGITS overrides the default precision; an explicit --digits
flag wins over the environment.

Each check returns its own row fields ``status``, ``residual``,
``tolerance`` and ``notes``; ``_row`` adds the id, check name and anchor,
and ends a check that raised by the one table ``_ENDS`` from error class to
row: a missing table entry is a skipped pass, a numerical dead end (a
ParameterError raised inside a check among them, so it never reaches the
usage handler) an inconclusive row and a genuine remainder of an exact
division (an eigen image with a surviving pole among them) a failed row; a
row that ended in an error has residual and tolerance null.
Four tables name the runners: the family checks, the edge kinds, the suite
rows of ``verify --all`` and its open questions (``scheme.OPEN_QUESTIONS``).
A suite row runs when its own check or ``square`` is selected: the
commuting squares under ``square``, the kernel recurrence map under
``ct-gt`` or ``square``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import families, operators, orthogonality, scheme
from .families import ParameterError, UnknownFamilyError
from .polynomials import NonDivisibleError, ReductionAmbiguityError
from .precision import PrecisionContext, ZeroDenominatorError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

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
    sp.add_argument("--format", choices=("human", "json"), default="human")
    sp.add_argument("--output", default=None)
    sp.add_argument("--no-timestamp", action="store_true")

    sp = sub.add_parser("export", help="emit the scheme graph")
    sp.add_argument("--format", choices=("dot", "json"), default="dot")
    sp.add_argument("--output", default=None)
    return p


def _pick_digits(args):
    """The context of --digits, else of MINUS_ONE_DIGITS, else of 50 digits."""
    if args.digits is not None:
        name, digits = "--digits", args.digits
    else:
        name, digits = "MINUS_ONE_DIGITS", os.environ.get("MINUS_ONE_DIGITS", "50")
    try:
        return PrecisionContext(int(digits))
    except ValueError:
        raise ParameterError("%s must be an integer of at least 15, got %r"
                             % (name, digits)) from None


def _parse_params(spec_string, family, ctx):
    values = {}
    if spec_string:
        for item in spec_string.split(","):
            if "=" not in item:
                raise ParameterError("bad parameter assignment %r" % item)
            name, _, val = item.partition("=")
            values[name.strip()] = val.strip()
    return families.make_params(family, ctx, **values)


def _emit(text, output, code=EXIT_PASS):
    """Write text to --output, else to stdout; return code, or EXIT_USAGE if unwritable."""
    text = text if text.endswith("\n") else text + "\n"
    if not output:
        sys.stdout.write(text)
        return code
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return _unwritable(output, exc)
    return code


def _unwritable(output, exc):
    sys.stderr.write("error: cannot write --output %s: %s\n" % (output, exc.strerror or exc))
    return EXIT_USAGE


def _num_str(ctx, value):
    mp = ctx.mp
    v = mp.mpc(value)
    d = min(ctx.digits, 20)
    if abs(mp.im(v)) <= ctx.tol(6) * max(1, abs(v)):
        return mp.nstr(mp.re(v), d)
    return mp.nstr(v, d)


def _catalog_description():
    """Machine-readable description of every catalog entry."""
    out = []
    for fid, info in sorted(families.REGISTRY.items()):
        out.append({
            "id": info.id,
            "name": info.name,
            "parameters": list(info.params),
            "kind": info.kind,
            "row": info.row,
            "admissible": info.admissible,
            "anchor": info.anchor,
            "external": info.external,
            "has_weight": fid in families.WEIGHTS,
            "has_eigen_system": fid in operators._BUILDERS,
            "symmetric": info.symmetric,
        })
    return out


def cmd_list(args):
    entries = _catalog_description()
    if args.scheme_only:
        entries = [e for e in entries if e["kind"] in ("scheme", "quasi")]
    if args.format == "json":
        print(json.dumps(entries, indent=2, sort_keys=True))
        return EXIT_PASS
    for e in entries:
        tag = {"scheme": " ", "quasi": "~", "q-aux": "q"}[e["kind"]]
        print("%s %-38s params=(%s)  [%s]" % (tag, e["id"], ", ".join(e["parameters"]), e["anchor"]))
        print("    %s; admissible: %s" % (e["name"], e["admissible"]))
    print("%d entries" % len(entries))
    return EXIT_PASS


def cmd_tabulate(args):
    ctx = _pick_digits(args)
    if args.n < 0:
        raise ParameterError("--n must be >= 0, got %d" % args.n)
    fid = families.resolve_family(args.family)
    params = _parse_params(args.params, fid, ctx)
    pairs = families.recurrences(fid, params, args.n, ctx)
    polys = families.polys_from_pairs(pairs[:args.n], ctx)
    rows = [{
        "n": n,
        "b": _num_str(ctx, pair.b),
        "u": _num_str(ctx, pair.u) if n >= 1 else None,
        "coeffs": [_num_str(ctx, c) for c in polys[n].coeffs],
    } for n, pair in enumerate(pairs)]
    if args.format == "json":
        return _emit(json.dumps({"family": fid, "digits": ctx.digits, "rows": rows},
                                indent=2, sort_keys=True), args.output)
    lines = ["family %s at %d digits" % (fid, ctx.digits)]
    for r in rows:
        lines.append("n=%-3d b_n = %-28s u_n = %s" % (r["n"], r["b"], r["u"] if r["u"] else "-"))
        lines.append("      P_%d coeffs (low to high): %s" % (r["n"], ", ".join(r["coeffs"])))
    return _emit("\n".join(lines), args.output)


# error that ends a check -> (row status, the fixed note of a skip; None: the error's message)
_ENDS = {families.NoClosedFormError: ("pass", "no closed form on record (skipped)"),
         families.NoWeightError: ("pass", "no continuous measure on record (skipped)"),
         families.NoEigenSystemError: ("pass", "no eigenvalue equation on record (skipped)"),
         ParameterError: ("inconclusive", None),
         ReductionAmbiguityError: ("inconclusive", None),
         ZeroDenominatorError: ("inconclusive", None),
         NonDivisibleError: ("fail", None)}


def _row(id, check, anchor, run, *args):
    """The report row of run(*args), a check's report with its status, residual, tolerance
    and notes; an error of ``_ENDS`` ends the check with its status, residual and
    tolerance null."""
    rep = {"residual": None, "tolerance": None}
    try:
        rep = run(*args)
    except tuple(_ENDS) as exc:
        status, note = next(_ENDS[c] for c in type(exc).__mro__ if c in _ENDS)
        rep.update(status=status, notes=note or str(exc))
    return {"id": id, "check": check, "status": rep["status"], "residual": rep["residual"],
            "tolerance": rep["tolerance"], "anchor": anchor, "notes": rep["notes"]}


# The runner tables.  Each runner looks its check up on the module when it
# runs, never holding the function, so a rebound module attribute (the
# tracer of perfbench/tracer.py) is the one called.
_FAMILY_RUNNERS = {
    "closed-form": lambda fid, params, ctx: families.closed_form_check(fid, params, 12, ctx),
    "orthogonality": lambda fid, params, ctx: orthogonality.gram(fid, params, 8, ctx),
    "eigen": lambda fid, params, ctx: operators.eigen_check(fid, params, 10, ctx),
    "favard": lambda fid, params, ctx: orthogonality.favard_check(fid, params, 200, ctx),
}
FAMILY_CHECKS = tuple(_FAMILY_RUNNERS)


def _family_results(fid, params, ctx, checks):
    anchor = families.family_info(fid).anchor
    return [_row(fid, check, anchor, run, fid, params, ctx)
            for check, run in _FAMILY_RUNNERS.items() if check in checks]


# edge kind -> (check, run(edge, ctx)); a geronimus edge is covered by the
# christoffel direction of its pair
_EDGE_RUNNERS = {
    "specialization": ("exact", lambda edge, ctx: scheme.verify_exact(edge, 10, ctx)),
    "limit": ("limit", lambda edge, ctx: scheme.verify_limit(edge, scheme.LADDER_N, ctx)),
    "christoffel": ("ct-gt", lambda edge, ctx: scheme.verify_ct_gt(edge, 10, ctx)),
}
_EDGE_RUNNERS["q-limit"] = _EDGE_RUNNERS["limit"]


def _edge_results(edge, ctx, checks):
    check, run = _EDGE_RUNNERS.get(edge.kind, (None, None))
    if check not in checks:
        return []
    return [_row(edge.id, check, edge.anchor, run, edge, ctx)]


# the rows of verify --all that belong to no family or edge: (id, check, anchor, run(ctx))
_SUITE_ROWS = tuple(("commuting-square:%s" % which, "square", "fig.1",
                     lambda ctx, which=which: scheme.verify_commuting_square(which, ctx))
                    for which in scheme.SQUARES) + (
    ("kernel-recurrence-map", "ct-gt", "ss2",
     lambda ctx: scheme.verify_recurrence_kernel_map(ctx)),)


def cmd_verify(args):
    scope_checks = (FAMILY_CHECKS if args.family else EDGE_CHECKS if args.edge
                    else FAMILY_CHECKS + EDGE_CHECKS)
    checks = (list(dict.fromkeys(args.checks.split(","))) if args.checks is not None
              else list(scope_checks))
    ctx = _pick_digits(args)
    config = {"digits": ctx.digits}
    for c in checks:
        if c not in scope_checks:
            raise ParameterError("unknown check %r" % c)
    if args.params and not args.family:
        raise ParameterError("--params applies to --family scope only")
    if args.family:
        fid = families.resolve_family(args.family)
        params = (_parse_params(args.params, fid, ctx) if args.params
                  else families.make_params(fid, ctx, **families.fixture_points(fid)[0]))
        config.update({"scope": "family", "id": fid, "checks": checks})
        points, edges = [(fid, params)], []
    elif args.edge:
        edge = scheme.resolve_edge(args.edge)
        check = _EDGE_RUNNERS.get(edge.kind, (None,))[0]
        if check not in checks:
            why = ("--checks %s selects nothing" % args.checks if check else
                   "checked by its christoffel pair %s:%s" % (edge.target, edge.source))
            raise ParameterError("edge %s of kind %s: %s" % (edge.id, edge.kind, why))
        config.update({"scope": "edge", "id": edge.id, "checks": checks})
        points, edges = [], [edge]
    else:
        config.update({"scope": "all", "checks": checks})
        points = [(fid, families.make_params(fid, ctx, **families.fixture_points(fid)[0]))
                  for fid in families.scheme_ids()]
        edges = scheme.edge_catalog()
    if args.output:
        try:
            open(args.output, "a").close()
        except OSError as exc:
            return _unwritable(args.output, exc)

    results = []
    for fid, params in points:
        results.extend(_family_results(fid, params, ctx, checks))
    for edge in edges:
        results.extend(_edge_results(edge, ctx, checks))
    if args.all:
        results.extend(_row(*row, ctx) for row in _SUITE_ROWS
                       if row[1] in checks or "square" in checks)
        results.extend(_row(id, check, "", run, ctx) for id, check, run in scheme.OPEN_QUESTIONS)

    results.sort(key=lambda r: (r["id"], r["check"], str(r["notes"])))
    statuses = {r["status"] for r in results}
    code = (EXIT_FAIL if "fail" in statuses else
            EXIT_INCONCLUSIVE if "inconclusive" in statuses else EXIT_PASS)

    report = {"command": "verify", "config": config, "results": results}
    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if args.format == "json":
        return _emit(json.dumps(report, indent=2, sort_keys=True), args.output, code)
    lines = ["%-12s %-60s %s%s" % (
        r["status"].upper(), "%s [%s]" % (r["id"], r["check"]),
        ("residual %.3g" % r["residual"]) if isinstance(r["residual"], float) else "",
        (" | " + r["notes"]) if r["notes"] else "") for r in results]
    lines.append("summary: %d checks, %d failed, %d inconclusive" % (
        len(results), sum(r["status"] == "fail" for r in results),
        sum(r["status"] == "inconclusive" for r in results)))
    return _emit("\n".join(lines), args.output, code)


def cmd_export(args):
    return _emit(scheme.export_graph(args.format), args.output)


# built once: parse_args leaves the parser as it found it, so one process serves many requests
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return {"list": cmd_list, "tabulate": cmd_tabulate, "verify": cmd_verify,
                "export": cmd_export}[args.command](args)
    except (UnknownFamilyError, ParameterError) as exc:
        sys.stderr.write("error: %s\n" % exc.args[0])       # str() of a KeyError quotes it
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
