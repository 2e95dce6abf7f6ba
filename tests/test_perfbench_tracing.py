"""The benchmark's traced run wraps package names that must keep existing.

perfbench/tracing.py replaces functions, methods and properties of the
package by name.  Installing it in a fresh interpreter, so the wrappers
cannot leak into other tests, fails if any of those names is gone; a
short traced certify run then exercises the wrappers end to end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import config_doc

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json, sys
import tracing
from dengue_rd import cli
tracer = tracing.Tracer()
tracing.install_layers(tracer)
code = cli.main(["certify", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "metrics": tracing.layer_metrics(tracer.summary())}))
"""


def test_benchmark_tracing_installs_and_traces(tmp_path):
    doc = tmp_path / "config.json"
    doc.write_text(json.dumps(config_doc(n=16, t_end=0.2, certify=True)))
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(doc), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    metrics = result["metrics"]
    assert metrics["integrator.step_calls"] == 4
    assert metrics["core.history_calls_per_step"] > 0
    assert metrics["lyapunov.eval_V_self_us"] > 0
