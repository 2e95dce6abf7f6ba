"""Checks of a subcommand's output files against values computed here.

Nothing is compared with a stored copy of earlier output.  R0, the
endemic state, the regime and the invariant box come from the closed
forms in the model parameters, written out again below rather than taken
from the package, and the CSV files are read back with the csv module.
Every check returns a Check; a run counts each one as an operation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# The program's own roundoff margin above the box ceiling (core.BOX_SLACK).
BOX_SLACK = 1e-9
# Recomputed values agree with the written ones to this relative tolerance.
REL_TOL = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ModelFacts:
    r0: float
    regime: str
    endemic: tuple[float, float, float] | None
    ceiling: tuple[float, float, float]


def model_facts(doc: dict) -> ModelFacts:
    """R0, regime, endemic state and box ceiling from the closed forms."""
    beta_m, beta_h = doc["b"] * doc["p"], doc["b"] * doc["q"]
    rho_h = doc["mu_h"] + doc["gamma_h"]
    s = math.exp(-doc["mu_h"] * doc["tau_b"])
    A, H, mu_m, mu_h = doc["A"], doc["H"], doc["mu_m"], doc["mu_h"]
    r0_sq = beta_h * beta_m * A * H * s / (mu_h * mu_m * rho_h)
    if r0_sq <= 1.0:
        regime, endemic = "below_threshold", None
    else:
        regime = "old_regime" if r0_sq > max(1.0, A * beta_h / mu_h) else "new_regime"
        u1 = (beta_m * beta_h * A * H * s - mu_m * rho_h * mu_h) / (
            beta_m * beta_h * H * s + mu_m * rho_h * beta_h
        )
        u2 = H / (mu_h + beta_h * u1)
        endemic = (u1, u2, beta_h * s * u1 * u2 / rho_h)
    return ModelFacts(
        r0=math.sqrt(r0_sq),
        regime=regime,
        endemic=endemic,
        ceiling=(A, H / mu_h, A * H * beta_h * s / (mu_h * rho_h)),
    )


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_timeseries(path: Path, doc: dict, n_steps: int, certified: bool) -> list[Check]:
    """Step count, time grid, box bounds and, when certified, V >= 0 and D <= 0."""
    rows = _read_csv(path)
    facts = model_facts(doc)
    out = [
        Check(
            "timeseries.steps",
            len(rows) == n_steps + 1
            and all(_close(float(r["t"]), k * doc["dt"]) for k, r in enumerate(rows)),
            f"{len(rows)} rows for {n_steps} steps",
        )
    ]
    low = min(float(r[f"min_u{i}"]) for r in rows for i in (1, 2, 3))
    out.append(Check("timeseries.min_nonnegative", low >= 0.0, f"smallest min_* {low!r}"))
    over = [
        (i, float(r[f"max_u{i}"]))
        for r in rows
        for i in (1, 2, 3)
        if not float(r[f"max_u{i}"]) <= facts.ceiling[i - 1] * (1.0 + BOX_SLACK)
    ]
    out.append(Check("timeseries.max_in_box", not over, f"above the ceiling: {over[:3]}"))
    if certified:
        v = [float(r["V"]) for r in rows]
        d = [float(r["dissipation"]) for r in rows]
        out.append(Check("timeseries.V_nonnegative", all(x >= 0.0 for x in v), f"min V {min(v)!r}"))
        out.append(
            Check("timeseries.dissipation_nonpositive", all(x <= 0.0 for x in d), f"max D {max(d)!r}")
        )
    return out


def _sup_distance(rows: list[dict[str, str]], point: tuple[float, float, float]) -> float:
    return max(abs(float(r[f"u{i}"]) - point[i - 1]) for r in rows for i in (1, 2, 3))


def check_snapshots(snap_path: Path, ts_path: Path, doc: dict) -> list[Check]:
    """The sup distance to u*, recomputed from the first and last snapshot,
    matches dist_endemic there, and the last is below the first."""
    facts = model_facts(doc)
    if facts.endemic is None:
        return [Check("snapshots.has_endemic", False, "R0 <= 1: no endemic state")]
    ts = _read_csv(ts_path)
    by_time: dict[str, list] = {}
    for r in _read_csv(snap_path):
        by_time.setdefault(r["t"], []).append(r)
    first, last = ts[0], ts[-1]
    out = []
    dists = []
    for label, row in (("first", first), ("last", last)):
        snap = by_time.get(row["t"], [])
        if len(snap) != doc["n"]:
            out.append(Check(f"snapshots.{label}_profile", False, f"{len(snap)} points at t={row['t']}"))
            dists.append(math.nan)
            continue
        recomputed = _sup_distance(snap, facts.endemic)
        written = float(row["dist_endemic"])
        dists.append(written)
        out.append(
            Check(
                f"snapshots.{label}_distance",
                _close(recomputed, written),
                f"recomputed {recomputed!r}, written {written!r}",
            )
        )
    out.append(Check("snapshots.distance_decreased", dists[1] < dists[0], f"{dists[0]!r} -> {dists[1]!r}"))
    return out


def check_certificate(path: Path) -> list[Check]:
    cert = json.loads(Path(path).read_text())
    return [
        Check(
            "certificate.passed",
            cert["passed"] is True and not cert["violations"],
            f"passed={cert['passed']}, {len(cert['violations'])} violations",
        )
    ]


def check_sweep(path: Path, spec: dict) -> list[Check]:
    """One row per value, in order, with r0 and regime from the closed form."""
    rows = _read_csv(path)
    out = [Check("sweep.rows", len(rows) == len(spec["values"]), f"{len(rows)} rows")]
    for i, (row, value) in enumerate(zip(rows, spec["values"])):
        facts = model_facts(dict(spec["base"], **{spec["parameter"]: value}))
        written_r0 = float(row["r0"]) if row["r0"] else math.nan
        final = float(row["final_dist"]) if row["final_dist"] else math.nan
        out.append(
            Check(
                f"sweep.row{i}",
                float(row["value"]) == value
                and _close(written_r0, facts.r0)
                and row["regime"] == facts.regime
                and math.isfinite(final)
                and final >= 0.0
                and row["certified"] == ""
                and row["error"] == "",
                f"row {row} against r0={facts.r0!r}, regime={facts.regime}",
            )
        )
    return out


def check_identical(first: Path, second: Path, names: tuple[str, ...]) -> Check:
    """Two invocations with the same seed wrote byte-identical files."""
    differ = [n for n in names if (first / n).read_bytes() != (second / n).read_bytes()]
    return Check("repeat.identical_bytes", not differ, f"differing files: {differ}")


def check_outputs(workload, out_dir: Path) -> list[Check]:
    """Every check that applies to one invocation's output directory."""
    missing = [n for n in workload.outputs if not (out_dir / n).is_file()]
    if missing:
        return [Check("outputs.present", False, f"missing {missing}")]
    if workload.subcommand == "sweep":
        return check_sweep(out_dir / "sweep.csv", workload.document)
    doc = workload.document
    ts = out_dir / "timeseries.csv"
    certified = workload.subcommand == "certify"
    out = check_timeseries(ts, doc, workload.n_steps, certified)
    out += check_snapshots(out_dir / "snapshots.csv", ts, doc)
    if certified:
        out += check_certificate(out_dir / "certificate.json")
    return out
