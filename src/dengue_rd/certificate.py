"""Attractivity checks on a recorded Lyapunov trajectory, and their report.

A certifying run keeps one lyapunov.RECORD_DTYPE row per step (see the
lyapunov module).  certify checks whole columns of that record, never
step by step, and reads nothing else of the run.  It returns a
Certificate, which certificate.json holds.  The kernels' unit column
mass, which the record's W integrals rest on, is a property of the heat
flow that the tests hold on every path, not a check of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from .lyapunov import CHECKED_TERMS, RECORD_DTYPE

if TYPE_CHECKING:  # pragma: no cover
    from .integrator import Trajectory

__all__ = ["Certificate", "certify", "check_tolerances"]

# The columns certify requires finite at every step, in violation order.
FINITE_COLUMNS = ("V", *CHECKED_TERMS)

# Default certification tolerances.  The per-step slack on monotonicity is
# relative to V at the start; the dissipation sign slack is absolute.
DEFAULT_V_TOL = 1e-8
DEFAULT_D_TOL = 1e-12

# A start counts as off-equilibrium, and must strictly decrease V, when
# V(0) exceeds this absolute level.
EQUILIBRIUM_V_FLOOR = 1e-12


def check_tolerances(**tolerances: float) -> None:
    """Raises ValueError unless every named tolerance is finite and >= 0.

    A NaN slack would pass every comparison vacuously, and it could not
    be written to the certificate's JSON.
    """
    for name, value in tolerances.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class Certificate:
    """Outcome of the attractivity checks on one recorded trajectory."""

    passed: bool
    v_monotone: bool
    dissipation_nonpositive: bool
    v_decreased: bool | None
    v_initial: float
    v_final: float
    v_tol: float
    d_tol: float
    violations: list[dict]
    term_ranges: dict[str, tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "v_monotone": self.v_monotone,
            "dissipation_nonpositive": self.dissipation_nonpositive,
            "v_decreased": self.v_decreased,
            "v_initial": self.v_initial,
            "v_final": self.v_final,
            "tolerances": {
                "v_step_slack": self.v_tol,
                "dissipation_sign": self.d_tol,
            },
            "violations": self.violations,
            "term_ranges": {k: list(v) for k, v in self.term_ranges.items()},
        }


def _violations(times: np.ndarray, kinds, steps, values, threshold: float) -> list[dict]:
    """One violation dict per step, with its kind and value, from .tolist() values."""
    steps = np.asarray(steps, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    rows = zip(kinds, steps.tolist(), times[steps].tolist(), values.tolist())
    return [
        {"kind": kind, "step": k, "time": t, "value": v, "threshold": float(threshold)}
        for kind, k, t, v in rows
    ]


def certify(
    trajectory: "Trajectory",
    *,
    v_tol: float = DEFAULT_V_TOL,
    d_tol: float = DEFAULT_D_TOL,
) -> Certificate:
    """Checks the recorded Lyapunov data for the attractivity conditions.

    Asserts, with the given slacks, that (i) V never increases from one
    step to the next by more than v_tol * max(V(0), the equilibrium
    floor), (ii) the dissipation and
    each of its eight terms stay below d_tol at every step, and (iii) V
    strictly decreased over the run when the start was off equilibrium.
    A NaN or infinity in a FINITE_COLUMNS column fails its check.

    Five of the eight sign checks cannot fail on a finite value, by
    construction: grad_u1, grad_u2, grad_u3, quad_u2 and g_u2 are each a
    negative constant times a trapezoid sum, with nonnegative weights, of
    a nonnegative integrand (a squared ratio, a square over the positive
    u2, and g, which is nonnegative in floating point too).  Only a NaN or
    an infinity fails them.  quad_u1, g_delay_b and g_delay_a read the
    smoothed delayed fields, and can turn positive: by roundoff near
    equilibrium, and because the n-mode kernel is not positive at small
    times.

    Each check reads columns of trajectory.lyapunov, the record that
    timeseries.csv prints V and dissipation from.  Violations come by
    check, non-finite values, V increases and then positive terms, each
    by step, the columns of one step in FINITE_COLUMNS order.

    Args:
        trajectory: A run recorded with Lyapunov evaluation enabled.
        v_tol: Per-step monotonicity slack, relative to V(0).
        d_tol: Absolute sign slack for dissipation terms.

    Returns:
        The certificate; passed is True only if every check holds.

    Raises:
        ValueError: on a negative or non-finite tolerance, or a trajectory
            without Lyapunov data.
    """
    check_tolerances(v_tol=v_tol, d_tol=d_tol)
    record = trajectory.lyapunov
    v = record["V"]
    if np.isnan(v).all():
        raise ValueError("trajectory carries no Lyapunov data; rerun with certify")
    times = trajectory.times

    # One float column per field; np.nonzero runs by step, then by column.
    table = record.view((np.float64, len(RECORD_DTYPE.names)))
    columns = table[:, [RECORD_DTYPE.names.index(name) for name in FINITE_COLUMNS]]
    finite = np.isfinite(columns)
    steps, cols = np.nonzero(~finite)
    kinds = [f"nonfinite_{FINITE_COLUMNS[c]}" for c in cols.tolist()]
    violations = _violations(times, kinds, steps, columns[steps, cols], math.inf)

    # Floor the slack so runs started at (numerical) equilibrium, where
    # V(0) is pure roundoff, are not failed on jitter at that scale.
    slack = v_tol * max(v[0], EQUILIBRIUM_V_FLOOR)
    rises = np.flatnonzero(v[1:] > v[:-1] + slack)
    violations += _violations(times, repeat("v_increase"), rises + 1, v[rises + 1] - v[rises], slack)

    terms = columns[:, 1:]
    steps, cols = np.nonzero(terms > d_tol)
    kinds = [f"positive_{CHECKED_TERMS[c]}" for c in cols.tolist()]
    violations += _violations(times, kinds, steps, terms[steps, cols], d_tol)

    v_decreased: bool | None = None
    if v[0] > EQUILIBRIUM_V_FLOOR:
        v_decreased = bool(v[-1] < v[0])
        if not v_decreased:
            violations += _violations(times, ["v_not_decreased"], [v.size - 1], [v[-1] - v[0]], 0.0)

    lows, highs = terms.min(axis=0).tolist(), terms.max(axis=0).tolist()
    v_monotone = rises.size == 0 and bool(finite[:, 0].all())
    dissipation_nonpositive = steps.size == 0 and bool(finite[:, 1:].all())
    passed = v_monotone and dissipation_nonpositive and v_decreased is not False
    return Certificate(
        passed=passed,
        v_monotone=v_monotone,
        dissipation_nonpositive=dissipation_nonpositive,
        v_decreased=v_decreased,
        v_initial=float(v[0]),
        v_final=float(v[-1]),
        v_tol=v_tol,
        d_tol=d_tol,
        violations=violations,
        term_ranges=dict(zip(CHECKED_TERMS, zip(lows, highs))),
    )
