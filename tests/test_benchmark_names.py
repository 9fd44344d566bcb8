"""The benchmark's per-layer metrics name functions that must stay traced."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# imports the CLI as perfbench/worker.py does, installs the tracer and prints
# the names it traces
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import minusone.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(sorted(tracer.stats)))
"""

DERIVED = {"scheme.suite"}       # summed by perfbench/run.py from other spans


def test_benchmark_per_layer_names_are_traced():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, os.path.join(ROOT, "perfbench")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = set(json.loads(proc.stdout))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    wanted = {name.rsplit(".", 1)[0] for name in names
              if name.count(".") == 2 and name.rsplit(".", 1)[1] in ("calls", "self_s")}
    assert wanted - DERIVED - traced == set()
