"""Deterministic emission of run artifacts.

Every float is written with 17 significant digits, enough to round-trip
a double exactly, and files carry no timestamps or environment state, so
identical configurations and seeds produce bit-identical files.  Each
file is produced by a single writer call.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .config import SimConfig
from .equilibria import compute_equilibria
from .core import bound_vector
from .integrator import Trajectory, stability_dt_bound

__all__ = [
    "equilibria_report",
    "fmt_float",
    "write_json",
    "write_snapshots",
    "write_sweep",
    "write_timeseries",
]

TIMESERIES_HEADER = (
    "t,dist_endemic,dist_dfe,V,dVdt_fd,dissipation,"
    "min_u1,max_u1,min_u2,max_u2,min_u3,max_u3"
)


FLOAT_FMT = "%.17g"


def fmt_float(value: float) -> str:
    """17-significant-digit decimal form; NaN prints as 'nan'."""
    return FLOAT_FMT % float(value)


def _write_table(handle, table: np.ndarray) -> None:
    """Writes a 2-D float table as CSV rows, each value as fmt_float would."""
    row = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
    handle.writelines(row % tuple(values) for values in table.tolist())


def write_timeseries(path: Path, traj: Trajectory) -> None:
    bounds = np.stack((traj.comp_min, traj.comp_max), axis=2).reshape(-1, 6)
    table = np.column_stack(
        (traj.times, traj.dist_endemic, traj.dist_dfe, traj.V, traj.dVdt_fd, traj.dissipation, bounds)
    )
    with open(path, "w") as handle:
        handle.write(TIMESERIES_HEADER + "\n")
        _write_table(handle, table)


def write_snapshots(path: Path, traj: Trajectory) -> None:
    x = traj.config.domain.grid
    with open(path, "w") as handle:
        handle.write("t,x,u1,u2,u3\n")
        for t, state in traj.snapshots:
            _write_table(handle, np.column_stack((np.full(x.size, t), x, state.T)))


def write_sweep(path: Path, rows: list[dict]) -> None:
    """Sweep summary, one row per swept value in input order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["value", "r0", "regime", "final_dist", "certified", "error"])
        for row in rows:
            writer.writerow(
                [
                    fmt_float(row["value"]),
                    "" if row["r0"] is None else fmt_float(row["r0"]),
                    row["regime"] or "",
                    "" if row["final_dist"] is None else fmt_float(row["final_dist"]),
                    "" if row["certified"] is None else str(row["certified"]).lower(),
                    row["error"] or "",
                ]
            )


def write_json(path: Path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def equilibria_report(config: SimConfig) -> dict:
    """JSON-ready summary of R0, regime, equilibria and residuals."""
    eqs = compute_equilibria(config.params)
    report = {
        "r0": eqs.r0,
        "regime": eqs.regime,
        "bound_vector": list(bound_vector(config.params)),
        "dfe": list(eqs.dfe),
        "dfe_residual": list(eqs.dfe_residual),
        "endemic": None if eqs.endemic is None else list(eqs.endemic),
        "endemic_residual": (
            None if eqs.endemic_residual is None else list(eqs.endemic_residual)
        ),
        "stability_dt_bound": stability_dt_bound(config.params),
    }
    # JSON has no NaN; the report should never contain one, but guard so
    # emitted documents always parse.
    for key, value in report.items():
        if isinstance(value, float) and not math.isfinite(value):
            report[key] = None
    return report
