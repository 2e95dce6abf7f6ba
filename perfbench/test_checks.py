"""The benchmark's own tests: each output check accepts real output and
rejects a corrupted copy of it.

    python3 -m pytest perfbench

Outputs come from the real subcommands on shrunken workload documents,
so the checks see exactly the files the benchmark reads.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dengue_rd import cli  # noqa: E402


def _small(name: str, **changes) -> workloads.Workload:
    wl = workloads.build(name, seed=7)
    if wl.subcommand == "sweep":
        doc = dict(wl.document, base=dict(wl.document["base"], **changes))
    else:
        doc = dict(wl.document, **changes)
    return dataclasses.replace(wl, document=doc)


WORKLOADS = {
    "certify": _small("certify-base", n=16, t_end=0.1, snapshot_every=5),
    "simulate": _small("simulate-wide", n=16, t_end=0.1, snapshot_every=5),
    "sweep": _small("sweep-rows", n=16, t_end=0.1),
}


def _invoke(wl: workloads.Workload, out: Path) -> None:
    out.mkdir(parents=True)
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps(wl.document))
    argv = [wl.subcommand, "--config", str(config), "--out", str(out), "--seed", str(wl.cli_seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("outputs")
    dirs = {}
    for key, wl in WORKLOADS.items():
        dirs[key] = root / key
        _invoke(wl, dirs[key])
    return dirs


@pytest.fixture
def copy(outputs, tmp_path):
    def make(key: str) -> Path:
        return Path(shutil.copytree(outputs[key], tmp_path / key))

    return make


def _edit_csv(path: Path, row_index: int, column: str, value) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    col = rows[0].index(column)
    rows[1:][row_index][col] = repr(float(value)) if not isinstance(value, str) else value
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _failed(found: list[checks.Check]) -> set[str]:
    return {c.name for c in found if not c.ok}


def test_model_facts_worked_point():
    facts = checks.model_facts(workloads.SWEEP_BASE)
    assert facts.r0 == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert facts.regime == "new_regime"
    assert facts.endemic == pytest.approx((0.5, 4.0 / 3.0, 1.0 / 3.0), rel=1e-15)
    assert facts.ceiling == pytest.approx((2.0, 2.0, 2.0), rel=1e-15)
    for b, regime in ((0.7, "below_threshold"), (0.71, "new_regime"), (1.0, "new_regime"), (1.01, "old_regime")):
        assert checks.model_facts(dict(workloads.SWEEP_BASE, b=b)).regime == regime


def test_sweep_values_cover_every_regime():
    for seed in range(20):
        wl = workloads.build("sweep-rows", seed)
        regimes = [checks.model_facts(dict(wl.document["base"], b=v)).regime for v in wl.document["values"]]
        assert sorted(set(regimes)) == ["below_threshold", "new_regime", "old_regime"]
        assert wl.document == workloads.build("sweep-rows", seed).document


@pytest.mark.parametrize("key", sorted(WORKLOADS))
def test_checks_accept_real_outputs(outputs, key):
    found = checks.check_outputs(WORKLOADS[key], outputs[key])
    assert found and not _failed(found)


def test_rejects_value_above_box_ceiling(copy):
    out = copy("simulate")
    ceiling = checks.model_facts(WORKLOADS["simulate"].document).ceiling[2]
    _edit_csv(out / "timeseries.csv", 3, "max_u3", ceiling * (1.0 + 1e-6))
    assert _failed(checks.check_outputs(WORKLOADS["simulate"], out)) == {"timeseries.max_in_box"}


def test_rejects_negative_minimum(copy):
    out = copy("simulate")
    _edit_csv(out / "timeseries.csv", 2, "min_u2", -1e-300)
    assert _failed(checks.check_outputs(WORKLOADS["simulate"], out)) == {"timeseries.min_nonnegative"}


def test_rejects_missing_step(copy):
    out = copy("simulate")
    path = out / "timeseries.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]))
    assert "timeseries.steps" in _failed(checks.check_outputs(WORKLOADS["simulate"], out))


def test_rejects_snapshot_that_disagrees_with_distance(copy):
    out = copy("simulate")
    with open(out / "snapshots.csv", newline="") as handle:
        last = len(list(csv.reader(handle))) - 2
    _edit_csv(out / "snapshots.csv", last, "u1", 1.5)
    assert _failed(checks.check_outputs(WORKLOADS["simulate"], out)) == {"snapshots.last_distance"}


def test_rejects_distance_that_did_not_decrease(copy):
    out = copy("simulate")
    _edit_csv(out / "timeseries.csv", -1, "dist_endemic", 10.0)
    assert "snapshots.distance_decreased" in _failed(checks.check_outputs(WORKLOADS["simulate"], out))


def test_rejects_negative_V_and_positive_dissipation(copy):
    out = copy("certify")
    _edit_csv(out / "timeseries.csv", 4, "V", -1e-18)
    _edit_csv(out / "timeseries.csv", 7, "dissipation", 1e-18)
    assert _failed(checks.check_outputs(WORKLOADS["certify"], out)) == {
        "timeseries.V_nonnegative",
        "timeseries.dissipation_nonpositive",
    }


def test_rejects_failed_certificate(copy):
    out = copy("certify")
    path = out / "certificate.json"
    cert = json.loads(path.read_text())
    cert["passed"] = False
    path.write_text(json.dumps(cert))
    assert _failed(checks.check_outputs(WORKLOADS["certify"], out)) == {"certificate.passed"}


def test_rejects_wrong_sweep_r0(copy):
    out = copy("sweep")
    facts = checks.model_facts(dict(WORKLOADS["sweep"].document["base"], b=WORKLOADS["sweep"].document["values"][1]))
    _edit_csv(out / "sweep.csv", 1, "r0", facts.r0 * (1.0 + 1e-9))
    assert _failed(checks.check_outputs(WORKLOADS["sweep"], out)) == {"sweep.row1"}


def test_rejects_wrong_sweep_regime(copy):
    out = copy("sweep")
    _edit_csv(out / "sweep.csv", 2, "regime", "new_regime")
    assert _failed(checks.check_outputs(WORKLOADS["sweep"], out)) == {"sweep.row2"}


def test_rejects_missing_sweep_row(copy):
    out = copy("sweep")
    path = out / "sweep.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert "sweep.rows" in _failed(checks.check_outputs(WORKLOADS["sweep"], out))


def test_repeat_with_same_seed_is_identical_and_a_changed_byte_is_caught(outputs, tmp_path):
    wl = WORKLOADS["certify"]
    again = tmp_path / "again"
    _invoke(wl, again)
    assert checks.check_identical(outputs["certify"], again, wl.outputs).ok
    path = again / "timeseries.csv"
    data = bytearray(path.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    path.write_bytes(bytes(data))
    assert not checks.check_identical(outputs["certify"], again, wl.outputs).ok


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()

    def child():
        return sum(range(20000))

    def parent():
        return tracer.span("child", child) + tracer.span("child", child)

    tracer.span("parent", parent)
    summary = tracer.summary()
    spans = summary["spans"]
    assert spans["child"]["calls"] == 2 and spans["parent"]["calls"] == 1
    assert spans["parent"]["self_s"] == pytest.approx(
        spans["parent"]["total_s"] - spans["child"]["total_s"], abs=1e-12
    )
    assert {(e["parent"], e["name"]) for e in summary["edges"]} == {(None, "parent"), ("parent", "child")}


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-rows", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
