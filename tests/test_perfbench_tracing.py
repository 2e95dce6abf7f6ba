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
code = cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
summary = tracer.summary()
spans = {name: span["calls"] for name, span in summary["spans"].items()}
print(json.dumps({"code": code, "metrics": tracing.layer_metrics(summary), "calls": spans}))
"""


def traced(tmp_path, subcommand: str, doc: dict) -> dict:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    pythonpath = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, subcommand, str(path), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    return result


def test_benchmark_tracing_installs_and_traces(tmp_path):
    metrics = traced(tmp_path, "certify", config_doc(n=16, t_end=0.2, certify=True))["metrics"]
    assert metrics["integrator.step_calls"] == 4
    assert metrics["core.history_calls_per_step"] > 0
    assert metrics["lyapunov.eval_V_self_us"] > 0


def test_traced_sweep_runs_one_row_at_a_time_through_step(tmp_path):
    doc = {"base": config_doc(n=16, t_end=0.2), "parameter": "b", "values": [0.5, 1.0, 1.2], "tag": "t"}
    result = traced(tmp_path, "sweep", doc)
    metrics, calls = result["metrics"], result["calls"]
    assert metrics["cli.rows_in_flight_max"] == 1
    assert metrics["integrator.step_calls"] == 3 * 4
    # one call per recorded state: its distances to the DFE and, on the endemic rows, to u*
    assert calls["core.sup_distance"] == 3 * 5
