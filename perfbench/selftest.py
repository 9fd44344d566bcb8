"""Self-tests of the benchmark's workloads.

    python3 perfbench/selftest.py equivalence
        The verify-d50 request list, merged, reproduces
        ``minusone verify --all --digits 50 --format json --no-timestamp``:
        the same ids, checks, statuses, residuals, tolerances and notes.

    python3 perfbench/selftest.py order [--workload W]
        Two request orders, shuffled by seeds 1 and 2, yield identical
        per-check results, each as pinned or missing in both alike; each
        pass starts from cold process caches.

Each test runs fresh processes from the root of the checkout and exits 0
when it holds, 1 when it does not.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from run import ROOT, request_order, score, spawn
from worker import load_requests

TIMEOUT_S = 600


def report_key(r):
    return (r["id"], r["check"], str(r["notes"]))      # the order cmd_verify sorts by


def equivalence():
    _, requests = load_requests("verify-d50")
    order = ",".join(map(str, range(len(requests))))
    deadline = time.monotonic() + TIMEOUT_S
    merged = [r for req in spawn(["--workload", "verify-d50", "--order", order], deadline)["requests"]
              for r in req["results"] or ()]
    merged.sort(key=report_key)

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("MINUS_ONE_DIGITS", None)
    proc = subprocess.run([sys.executable, "-m", "minusone.cli", "verify", "--all", "--digits", "50",
                           "--format", "json", "--no-timestamp"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    headline = json.loads(proc.stdout)["results"]

    same = merged == headline
    print("equivalence: verify-d50 gives %d checks, verify --all (exit %d) gives %d: %s" % (
        len(merged), proc.returncode, len(headline), "identical" if same else "DIFFERENT"))
    if not same:
        a = {report_key(r): r for r in merged}
        b = {report_key(r): r for r in headline}
        for key in sorted(a.keys() | b.keys()):
            if a.get(key) != b.get(key):
                print("  %s: per-scope %s / --all %s" % (key[:2], a.get(key), b.get(key)))
    return same


def order(workload):
    """Two passes in the request orders of seeds 1 and 2, scored as a run scores its passes."""
    _, requests = load_requests(workload)
    deadline = time.monotonic() + TIMEOUT_S
    passes = []
    for seed in (1, 2):
        shuffled = request_order(workload, seed, 0, len(requests))
        passes.append(spawn(["--workload", workload, "--order", ",".join(map(str, shuffled))], deadline))
    failed, correct, notes = score(requests, passes)
    for line in notes:
        print("  " + line)
    print("order: %s with seeds 1 and 2: %d requests, %d failed checks, results %s" % (
        workload, len(requests), failed, "agree" if correct else "DISAGREE"))
    return correct


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("test", choices=("equivalence", "order"))
    p.add_argument("--workload", default="verify-d50")
    args = p.parse_args(argv)
    ok = equivalence() if args.test == "equivalence" else order(args.workload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
