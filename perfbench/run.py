"""Benchmark of ``minusone verify``: end-to-end and per-layer metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload verify-d50 --seed 1 --seconds 10 --trace 0

A run starts fresh worker processes (``worker.py``), each one pass over the
workload's request list in an order shuffled by the seed, until ``--seconds``
of passes have been measured, and at least two passes; every pass starts
cold, as a CLI invocation does.  Set-up time is also sampled from extra
processes that stop when the first request is ready, half of them before the
passes and half after.  Metrics are medians over the run's passes.

Times are scaled to a reference speed: each is multiplied by a reference
time over the mean time of the calibration kernel that the same process ran
alongside (see ``worker.py``): ``REF_KERNEL_S`` for times of requests,
``REF_SETUP_KERNEL_S`` for set-up.  On a shared machine whose speed drifts
by tens of percent from minute to minute, this keeps runs made at different
times comparable.  The measured end-to-end times are printed as ``raw_*``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs pairs of passes in the same request order, one plain and
one traced, at least one pair, and prints the per-layer metrics; spans go to
``.perfbench/``.

Every pass is checked against the statuses pinned in ``workloads.json``: a
check fails when its status differs, or when it is missing because its
request exited without a report or raised.  Every pass must agree with the
first one request by request, exit codes, residuals and notes included.
The last line of output is one JSON object: correct, attempted, failed and
metrics.  Exits non-zero, printing no result, if the checkout holds no
``src/minusone`` or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

from worker import load_requests

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPAN_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 20         # set-up-only processes per run, on top of one per pass
REF_KERNEL_S = 0.010       # calibration kernel times that define the reference speed
REF_SETUP_KERNEL_S = 0.010
RUN_LIMIT_S = 170          # every worker must end before the run is 170 s old

HEADROOM = {               # report check kind -> per-layer metric
    "closed-form": "families.closed_form.min_headroom_digits",
    "orthogonality": "orthogonality.min_headroom_digits",
    "eigen": "operators.eigen.min_headroom_digits",
    "limit": "scheme.limit.min_headroom_digits",
}
SUITE = ("scheme.verify_commuting_square", "scheme.verify_recurrence_kernel_map",
         "scheme.resolve_open_questions")


def request_order(workload, seed, k, n):
    order = list(range(n))
    random.Random("%s:%d:%d" % (workload, seed, k)).shuffle(order)
    return order


def spawn(args, deadline):
    """Run a worker in a fresh process and return its JSON output."""
    t0 = time.monotonic()
    cmd = [sys.executable, WORKER, "--t0", repr(t0)] + args
    env = dict(os.environ, PYTHONHASHSEED="0")      # same dict and set layout in every pass
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError("worker failed (exit %d): %s" % (proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def score(requests, passes):
    """Count failed checks over all passes and tell whether every produced result is right.

    Returns (failed, correct, notes).  A request whose exit code or report
    differs from the first pass's, a status that differs from the pinned
    one, or an unexpected check makes the run incorrect; a check missing
    because its request produced no report, in every pass alike, only counts
    as failed.  A request that differs from the first pass counts all its
    checks as failed.
    """
    failed, correct, notes = 0, True, []
    first = passes[0]["requests"]
    for k, doc in enumerate(passes):
        for i, (req, got) in enumerate(zip(requests, doc["requests"])):
            if k and (got["exit"], got["results"]) != (first[i]["exit"], first[i]["results"]):
                failed += len(req["expect"])
                correct = False
                notes.append("pass %d: results of %s differ from pass 0" % (k, " ".join(req["argv"])))
                continue
            if got["results"] is None:
                failed += len(req["expect"])
                notes.append("pass %d: %s exited %s without a report: %s" % (
                    k, " ".join(req["argv"]), got["exit"], (got["error"] or "").strip()))
                continue
            actual = {(r["id"], r["check"]): r["status"] for r in got["results"]}
            expected = {(cid, check): status for cid, check, status in req["expect"]}
            for key, status in expected.items():
                if actual.get(key) != status:
                    failed += 1
                    correct = False
                    notes.append("pass %d: %s [%s] is %s, pinned %s" % (
                        k, key[0], key[1], actual.get(key, "missing"), status))
            for key in actual.keys() - expected.keys():
                correct = False
                notes.append("pass %d: unexpected check %s [%s]" % (k, key[0], key[1]))
    return failed, correct, notes


def headroom(results):
    """Smallest log10(tolerance / residual) per check kind; 0 where a kind is absent."""
    out = dict.fromkeys(HEADROOM.values(), 0.0)
    seen = {}
    for req in results:
        for r in req["results"] or ():
            name = HEADROOM.get(r["check"])
            res, tol = r["residual"], r["tolerance"]
            if name is None or not res or not tol:     # exact zero: unbounded headroom
                continue
            h = math.log10(tol / res)
            seen[name] = min(seen.get(name, h), h)
    out.update(seen)
    return out


def at_reference(seconds, kernel, column, reference=REF_KERNEL_S):
    """Scale a time measured alongside ``kernel`` runs to the reference speed.

    ``column`` 0 takes the kernel's wall times, 1 its CPU times.  The kernel
    does fixed work, so its mean time gauges how fast the machine ran;
    ``reference`` is its mean time at the reference speed.
    """
    return seconds * reference * len(kernel) / sum(k[column] for k in kernel)


def end_to_end(doc):
    return {
        "pass_s": at_reference(doc["pass_s"], doc["kernel"], 0),
        "pass_cpu_s": at_reference(doc["pass_cpu_s"], doc["kernel"], 1),
        "peak_rss_mb": doc["peak_rss_mb"],
        "raw_pass_s": doc["pass_s"],
        "raw_pass_cpu_s": doc["pass_cpu_s"],
        "kernel_ms": 1000 * statistics.fmean(k[1] for k in doc["kernel"]),
    }


def setup_sample(doc):
    return at_reference(doc["setup_s"], doc["setup_kernel"], 0, REF_SETUP_KERNEL_S), doc["setup_s"]


def per_layer(plain, traced):
    """Per-layer metrics of a plain and a traced pass; times at the reference speed.

    Self times are scaled by the traced process's kernel, request times by
    the plain process's, each the process the time was measured in.
    """
    stats = traced["trace"]["stats"]
    counters = traced["trace"]["counters"]
    m = {}
    for name, (calls, self_s) in stats.items():
        self_s = at_reference(self_s, traced["kernel"], 0)
        m[name + ".calls"] = calls
        m[name + ".self_s"] = self_s
        layer = name.split(".")[0] + ".self_s"
        m[layer] = m.get(layer, 0.0) + self_s
    walls = [at_reference(r["wall_s"], plain["kernel"], 0) for r in plain["requests"]]
    tables = counters["tables"]
    m.update({
        "precision.max_working_digits": counters["max_working_digits"],
        "orthogonality.tables": tables,
        "orthogonality.nodes": counters["nodes"],
        "orthogonality.levels_max": counters["levels_max"],
        "orthogonality.tables_converged_share": counters["tables_converged"] / tables if tables else 0.0,
        "scheme.verify_limit.ladder_points": counters["ladder_points"],
        "scheme.suite.self_s": sum(m.get(n + ".self_s", 0.0) for n in SUITE),
        "cli.requests": len(walls),
        "cli.request_p50_s": statistics.median(walls),
        "cli.request_max_s": max(walls),
        "trace.overhead_s": (at_reference(traced["pass_s"], traced["kernel"], 0)
                             - at_reference(plain["pass_s"], plain["kernel"], 0)),
        "trace.spans": traced["trace"]["spans"],
    })
    m.update(headroom(traced["requests"]))
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description="Benchmark of minusone verify.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "minusone", "__init__.py")):
        sys.stderr.write("error: no src/minusone in %s; run from the root of a checkout\n" % ROOT)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    try:
        digits, requests = load_requests(args.workload)
    except KeyError:
        p.error("unknown workload %r" % args.workload)
    n = len(requests)
    base = ["--workload", args.workload]

    def sample_setup():
        for _ in range(0 if args.trace else SETUP_SAMPLES // 2):
            samples.append(setup_sample(spawn(base + ["--setup-only", "--order", "0"], deadline)))

    samples, passes, traced, rows = [], [], [], []
    sample_setup()             # half the set-up-only processes before the passes, half after
    t0 = time.monotonic()
    k = 0
    # At least two passes, so that metrics are medians and request orders are
    # compared within the run; in a traced run, one plain-and-traced pair.
    while len(passes) + len(traced) < 2 or time.monotonic() - t0 < args.seconds:
        order = ",".join(map(str, request_order(args.workload, args.seed, k, n)))
        plain = spawn(base + ["--order", order], deadline)
        passes.append(plain)
        if args.trace:
            os.makedirs(SPAN_DIR, exist_ok=True)
            spans = os.path.join(SPAN_DIR, "%s-seed%d-pass%d.spans.jsonl" % (args.workload, args.seed, k))
            doc = spawn(base + ["--order", order, "--trace", "--spans", spans], deadline)
            traced.append(doc)
            rows.append(per_layer(plain, doc))
        else:
            samples.append(setup_sample(plain))
            rows.append(end_to_end(plain))
        k += 1
    sample_setup()
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    if not args.trace:
        values["setup_s"] = statistics.median(s for s, _ in samples)
        values["raw_setup_s"] = statistics.median(raw for _, raw in samples)

    failed, correct, notes = score(requests, passes + traced)
    expected = sum(len(r["expect"]) for r in requests)
    attempted = expected * (len(passes) + len(traced))
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in wanted}

    print("workload %s at %d digits, seed %d: %d pass(es) of %d requests, closed loop, one client%s" % (
        args.workload, digits, args.seed, len(passes), n, ", each also traced" if args.trace else ""))
    for name, m in metrics.items():
        print("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("  measured times before scaling to the reference speed (kernel %.3f ms, reference %.3f ms):" % (
            values["kernel_ms"], 1000 * REF_KERNEL_S))
        for name in ("setup_s", "pass_s", "pass_cpu_s"):
            print("  %-48s %14.6g s" % ("raw_" + name, values["raw_" + name]))
    print("  %-48s %14.6g share (%d failed of %d checks: checks_expected %d per pass)" % (
        "checks_failed_share", failed / attempted, failed, attempted, expected))
    for line in notes:
        print("  " + line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
