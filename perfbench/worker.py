"""One pass of a workload in a fresh process, as a CLI user would run it.

The process imports ``minusone`` from the checkout's ``src/``, builds the
request list, and issues the requests one after another through
``minusone.cli.main``: one client, one thread, and the next request starts
only when the previous one has returned.  Process-level caches start cold,
because a CLI user pays for filling them on every invocation.

After every request the process runs a fixed calibration kernel: mpmath's
low-level binary arithmetic, which fills no cache the requests use.  Right
after set-up it runs a second one that does the kind of work an import does:
compiling and running a fixed module of function definitions.  Their times
gauge how fast the shared machine ran meanwhile; ``run.py`` uses them to
scale the measured times to a reference speed.  Kernel time is not part of
set-up or of the pass.

Prints one JSON object: set-up time, pass wall and CPU time (sums over the
requests), peak resident memory, the kernel's wall and CPU times, and per
request its exit code, wall time and raw report.  With ``--trace`` the
layers are wrapped (see ``tracer.py``), the summary is added and the spans
are written to ``--spans``.

Usage (normally started by ``run.py``):
    python3 perfbench/worker.py --workload verify-d50 --order 3,0,1,... --t0 <monotonic>
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, round_nearest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
KERNEL_STEPS = 1200        # about 10 ms of CPU on the reference machine
SETUP_KERNEL_DEFS = 140    # about 10 ms to compile on the reference machine
SETUP_SLICES = 4           # set-up kernel runs right after set-up, to gauge the speed set-up ran at
SLICE_EVERY_S = 0.25       # one more kernel run after a request per 0.25 s it took


def load_requests(workload):
    """(digits, [request dict]) for a workload of ``workloads.json``."""
    with open(os.path.join(HERE, "workloads.json")) as fh:
        spec = json.load(fh)
    wl = spec["workloads"][workload]
    return wl["digits"], spec["request_lists"][wl["requests"]]


def import_minusone():
    """Import the package from the checkout; refuse any other copy."""
    sys.path.insert(0, SRC)
    import minusone.cli

    origin = os.path.realpath(os.path.dirname(minusone.__file__))
    if origin != os.path.realpath(os.path.join(SRC, "minusone")):
        raise SystemExit("minusone imported from %s, not from the checkout" % origin)
    return minusone.cli


def cpu_seconds():
    """User and system CPU time of this process and of any children it waited for."""
    return time.process_time() + sum(os.times()[2:4])


def _kernel():
    """Fixed arithmetic of the kind mpmath does at 100 digits; touches no cache."""
    prec, rnd = 330, round_nearest
    x = mpf_div(from_int(355), from_int(113), prec, rnd)
    acc = from_int(1)
    for i in range(KERNEL_STEPS):
        acc = mpf_div(mpf_add(mpf_mul(acc, x, prec, rnd), from_int(i), prec, rnd), x, prec, rnd)
    return acc


_SETUP_SOURCE = "".join("def f%d(a, b=%d):\n    x = [a, b, {'k': a}]\n    return sum(x[:2]) + len(x)\n" % (i, i)
                        for i in range(SETUP_KERNEL_DEFS))


def _setup_kernel():
    """Fixed work of the kind an import does: compile a module of definitions and run it."""
    exec(compile(_SETUP_SOURCE, "<setup-kernel>", "exec"), {})


def calibrate(slices, kernel=_kernel):
    """Wall and CPU seconds of ``slices`` runs of a calibration kernel."""
    out = []
    for _ in range(slices):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        out.append((time.perf_counter() - w0, time.process_time() - c0))
    return out


def call(cli, argv):
    """Run one request; returns (exit code, stdout, error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 3
        except Exception as exc:          # a request that raises is a failed request, not a crash
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), error or err.getvalue() or None


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--order", required=True, help="comma-separated request indices")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None, help="file the trace spans are written to")
    args = p.parse_args(argv)

    cli = import_minusone()
    digits, requests = load_requests(args.workload)
    order = [int(i) for i in args.order.split(",")]
    tail = ["--digits", str(digits), "--format", "json", "--no-timestamp"]
    argvs = [requests[i]["argv"] + tail for i in order]
    setup_s = time.monotonic() - args.t0
    setup_kernel = calibrate(SETUP_SLICES, _setup_kernel)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_kernel": setup_kernel}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    raw, kernel = [], []
    for i, argv in zip(order, argvs):
        if tracer is not None:
            tracer.request = i
        start, cpu = time.perf_counter(), cpu_seconds()
        code, out, error = call(cli, argv)
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu
        raw.append((i, code, wall, cpu, out, error))
        kernel += calibrate(1 + int(wall / SLICE_EVERY_S))

    results = {}
    for i, code, wall, cpu, out, error in raw:
        report = None
        if out.strip():
            report = json.loads(out)["results"]
        results[i] = {"exit": code, "wall_s": wall, "results": report, "error": error}
    doc = {
        "setup_s": setup_s,
        "setup_kernel": setup_kernel,
        "pass_s": sum(r[2] for r in raw),
        "pass_cpu_s": sum(r[3] for r in raw),
        "kernel": kernel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": [results[i] for i in sorted(results)],
    }
    if tracer is not None:
        doc["trace"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
