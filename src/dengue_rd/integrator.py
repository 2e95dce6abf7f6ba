"""Time stepping for the delayed reaction-diffusion system.

One step advances the newest history entry by first-order splitting: an
explicit Euler substep for the reaction, with the delayed nonlocal
infection terms read exactly off the history grid, followed by the exact
spectral heat flow over dt for each component,

    u1: d_m diffusion,  reaction  I1 - mu_m u1
    u2: d_h diffusion,  reaction  H - beta_h u1 u2 - mu_h u2
    u3: d_h diffusion,  reaction  I3 - rho_h u3

where I1 = beta_m (A - u1) [Gamma(d_m tau_a) u3(t - tau_a)] and
I3 = beta_h exp(-mu_h tau_b) [Gamma(d_h tau_b) (u1 u2)(t - tau_b)]; the
delayed product u1 u2 is formed pointwise on the grid before the kernel
is applied.  Spatially constant equilibria are fixed points of the step
to roundoff because constants are exact fixed points of the heat flow.

The explicit reaction substep keeps states in the invariant box when

    dt <= 0.2 / max(mu_m, mu_h + beta_h M1, rho_h, beta_m M3),

the net loss coefficient of each component at the box ceiling; SimConfig
rejects larger steps.  A spatially homogeneous reduction of the step
doubles as an oracle: on constant data the split step coincides with an
explicit Euler step of the underlying delay differential system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    BOX_SLACK,
    Domain,
    History,
    ModelParams,
    bound_vector,
    lag_steps,
    sup_distance,
    validate_initial_history,
)
from .equilibria import EquilibriumSet, compute_equilibria
from .lyapunov import LagIntegrals, LyapunovBreakdown, eval_V, prepare_kernels
from .spectral import _heat_decay, _heat_rows, heat_apply

if TYPE_CHECKING:
    from .config import SimConfig

__all__ = [
    "SimulationError",
    "Trajectory",
    "dde_oracle_step",
    "infection_term_u1",
    "infection_term_u3",
    "run",
    "run_homogeneous",
    "stability_dt_bound",
    "step",
]


class SimulationError(RuntimeError):
    """A run left the admissible region or produced non-finite values."""


def stability_dt_bound(params: ModelParams) -> float:
    """Largest admissible Euler step, 0.2 over the stiffest loss rate."""
    m = bound_vector(params)
    stiffest = max(
        params.mu_m,
        params.mu_h + params.beta_h * m[0],
        params.rho_h,
        params.beta_m * m[2],
    )
    return float(0.2 / stiffest)


def _mosquito_infection(
    u1_now: np.ndarray, smoothed: np.ndarray, params: ModelParams
) -> np.ndarray:
    return params.beta_m * (params.A - u1_now) * smoothed


def _human_infection(smoothed: np.ndarray, params: ModelParams) -> np.ndarray:
    return params.beta_h * params.survival_b * smoothed


def infection_term_u1(
    u1_now: np.ndarray, u3_lagged: np.ndarray, params: ModelParams, domain: Domain
) -> np.ndarray:
    """New mosquito infections beta_m (A - u1) [Gamma(d_m tau_a) u3(t - tau_a)].

    u3_lagged is the infectious-human field one extrinsic delay ago; the
    kernel average accounts for mosquito movement during incubation.
    """
    smoothed = heat_apply(u3_lagged, params.d_m, params.tau_a, domain)
    return _mosquito_infection(u1_now, smoothed, params)


def infection_term_u3(
    u1_lagged: np.ndarray, u2_lagged: np.ndarray, params: ModelParams, domain: Domain
) -> np.ndarray:
    """New human cases surviving incubation, from the delayed force of infection.

    The product u1 u2 is taken pointwise at time t - tau_b before the
    kernel average, then scaled by beta_h exp(-mu_h tau_b).
    """
    smoothed = heat_apply(u1_lagged * u2_lagged, params.d_h, params.tau_b, domain)
    return _human_infection(smoothed, params)


@dataclass(frozen=True)
class _StepPlan:
    """What step derives from (params, domain, dt) alone, built once per run.

    decay holds the heat flow over dt for the rows u1, u2, u3.  The
    delayed fields (u3 at lag k_a, u1 u2 at lag k_b) are smoothed by the
    kernels over tau_a and tau_b; lag_rows lists which of the two have a
    nonzero delay, with their decays in lag_decay, so a zero delay skips
    its transform.
    """

    k_a: int
    k_b: int
    decay: np.ndarray      # (3, N)
    lag_rows: tuple[int, ...]
    lag_decay: np.ndarray  # (len(lag_rows), N)


@lru_cache(maxsize=32)
def _step_plan(params: ModelParams, domain: Domain, dt: float) -> _StepPlan:
    kernels = ((params.d_m, params.tau_a), (params.d_h, params.tau_b))
    lag_rows = tuple(i for i, (_, tau) in enumerate(kernels) if tau > 0.0)
    plan = _StepPlan(
        k_a=lag_steps(params.tau_a, dt),
        k_b=lag_steps(params.tau_b, dt),
        decay=np.array([_heat_decay(d, dt, domain) for d in (params.d_m, params.d_h, params.d_h)]),
        lag_rows=lag_rows,
        lag_decay=np.array([_heat_decay(*kernels[i], domain) for i in lag_rows]),
    )
    plan.decay.flags.writeable = plan.lag_decay.flags.writeable = False
    return plan


def step(history: History, params: ModelParams, domain: Domain, dt: float) -> np.ndarray:
    """Advances the history by one split step and returns the new state.

    Equivalent to the reaction terms of infection_term_u1/u3 followed by
    one heat_apply per component.  The decays come from a plan cached per
    (params, domain, dt), and the two kernel averages, then the three heat
    flows, each go to the shared transform as one batch.

    The new state is a (3, n) array, rows u1, u2, u3: a read-only view of
    the history's ring slot, valid until the slot is reused n_lags + 1
    steps later.  Copy it to keep it longer.
    """
    if abs(dt - history.dt) > 1e-15 * max(dt, history.dt):
        raise ValueError(f"dt={dt!r} disagrees with the history step {history.dt!r}")
    plan = _step_plan(params, domain, dt)
    u1, u2, u3 = history.lookup_arrays(0)
    lag_b = history.lookup_arrays(plan.k_b)
    delayed = [history.lookup_arrays(plan.k_a)[2], lag_b[0] * lag_b[1]]
    rows = plan.lag_rows
    if rows:
        for i, row in zip(rows, _heat_rows([delayed[i] for i in rows], plan.lag_decay, domain)):
            delayed[i] = row

    r1 = _mosquito_infection(u1, delayed[0], params) - params.mu_m * u1
    r2 = params.H - params.beta_h * u1 * u2 - params.mu_h * u2
    r3 = _human_infection(delayed[1], params) - params.rho_h * u3

    post = (u1 + dt * r1, u2 + dt * r2, u3 + dt * r3)
    return history.append(_heat_rows(post, plan.decay, domain))


@dataclass
class Trajectory:
    """Per-step record of one run.

    Distances are sup-norm over components and grid; dist_endemic is NaN
    when no endemic state exists.  V, dVdt_fd and dissipation are NaN
    unless the run certified; dVdt_fd[k] is the backward difference
    (V[k] - V[k-1]) / dt.  snapshots holds (time, state) pairs at the
    configured stride plus the first and last step; each state, like
    final_state, is a (3, n) array, rows u1, u2, u3, owned by the
    trajectory.  kernel_mass_defect is the kernels' worst column-mass
    defect, recorded by certifying runs.
    """

    times: np.ndarray
    dist_endemic: np.ndarray
    dist_dfe: np.ndarray
    comp_min: np.ndarray
    comp_max: np.ndarray
    V: np.ndarray
    dVdt_fd: np.ndarray
    dissipation: np.ndarray
    lyapunov: list[LyapunovBreakdown]
    snapshots: list[tuple[float, np.ndarray]]
    bounds_ok: bool
    final_state: np.ndarray
    equilibria: EquilibriumSet
    config: SimConfig
    kernel_mass_defect: float | None = None


def run(config: SimConfig, initial: History) -> Trajectory:
    """Integrates from the initial history to t_end, recording every step.

    Certifying runs additionally evaluate the Lyapunov functional and the
    dissipation identity at every step, reading the W integrals from a
    ring of per-lag values that gains one entry per step.  At checkpoint
    steps, every min(k_a, k_b) steps (over the nonzero ones, and every
    step when both delays are zero) plus the first and the last, the
    ring is compared with W recomputed from the raw window.  Certifying
    runs require a strictly positive initial history; SimConfig checks R0.

    Raises:
        ValueError: on a history that does not fit the config, or one
            that is not strictly positive in a certifying run.
        SimulationError: on non-finite values, or on a box violation in
            strict mode.
    """
    params, domain, dt = config.params, config.domain, config.dt
    if initial.n != domain.n:
        raise ValueError(
            f"history grid size {initial.n} does not match domain n {domain.n}"
        )
    if abs(initial.dt - dt) > 1e-15 * max(initial.dt, dt):
        raise ValueError(f"history dt {initial.dt!r} does not match config dt {dt!r}")
    plan = _step_plan(params, domain, dt)
    k_a, k_b = plan.k_a, plan.k_b
    if initial.n_lags < max(k_a, k_b):
        raise ValueError(
            f"history spans {initial.n_lags} lags, need {max(k_a, k_b)}"
        )
    eqs = compute_equilibria(params)
    ceiling = bound_vector(params) * (1.0 + BOX_SLACK)

    kernels = ring = None
    if config.certify:
        report = validate_initial_history(initial, params, strict_positive=True)
        if not report.ok:
            raise ValueError(
                "certification requires a strictly positive admissible history: "
                + "; ".join(report.violations[:5])
            )
        kernels = prepare_kernels(params, domain, dt)
        ring = LagIntegrals(initial, params, eqs.endemic, domain)
        # A value pushed at step s weighs in a delay's W through step
        # s + k for that delay's k, so a stride of the shortest nonzero k
        # checks each cached value while it still counts in every W.
        checkpoint_stride = min((k for k in (k_a, k_b) if k), default=1)

    n_steps = int(math.floor(config.t_end / dt * (1.0 + 1e-12) + 1e-12))
    size = n_steps + 1
    times = np.arange(size) * dt
    dist_endemic = np.full(size, np.nan)
    dist_dfe = np.full(size, np.nan)
    comp_min = np.full((size, 3), np.nan)
    comp_max = np.full((size, 3), np.nan)
    v_arr = np.full(size, np.nan)
    d_arr = np.full(size, np.nan)
    breakdowns: list[LyapunovBreakdown] = []
    snapshots: list[tuple[float, np.ndarray]] = []
    bounds_ok = True

    def record(k: int, state: np.ndarray) -> None:
        nonlocal bounds_ok
        lo = comp_min[k] = state.min(axis=1)
        hi = comp_max[k] = state.max(axis=1)
        if eqs.endemic is not None:
            dist_endemic[k] = sup_distance(state, eqs.endemic)
        dist_dfe[k] = sup_distance(state, eqs.dfe)
        # min and max propagate NaN, so they see every non-finite value.
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise SimulationError(
                f"non-finite state at step {k}, t={times[k]:.6g}"
            )
        if (lo < 0.0).any() or (hi > ceiling).any():
            if config.box_strict:
                raise SimulationError(
                    f"state left the invariant box at step {k}, t={times[k]:.6g}"
                )
            bounds_ok = False
        if config.certify:
            if k:
                ring.push(initial)
            bd = eval_V(initial, params, eqs.endemic, domain, ring=ring)
            if k % checkpoint_stride == 0 or k == n_steps:
                bd = replace(bd, two_path_rel_err=ring.window_rel_err(initial))
            v_arr[k] = bd.V
            d_arr[k] = bd.dissipation
            breakdowns.append(bd)
        if k == 0 or k == n_steps or (
            config.snapshot_every and k % config.snapshot_every == 0
        ):
            snapshots.append((float(times[k]), state.copy()))

    record(0, initial.latest)
    for k in range(1, size):
        state = step(initial, params, domain, dt)
        record(k, state)

    dvdt = np.full(size, np.nan)
    if config.certify and size > 1:
        dvdt[1:] = np.diff(v_arr) / dt

    return Trajectory(
        times=times,
        dist_endemic=dist_endemic,
        dist_dfe=dist_dfe,
        comp_min=comp_min,
        comp_max=comp_max,
        V=v_arr,
        dVdt_fd=dvdt,
        dissipation=d_arr,
        lyapunov=breakdowns,
        snapshots=snapshots,
        bounds_ok=bounds_ok,
        final_state=initial.latest,
        equilibria=eqs,
        config=config,
        kernel_mass_defect=kernels.mass_defect if kernels else None,
    )


def dde_oracle_step(
    y: np.ndarray,
    u3_lag_a: float,
    u1_lag_b: float,
    u2_lag_b: float,
    params: ModelParams,
    dt: float,
) -> np.ndarray:
    """One explicit Euler step of the spatially homogeneous reduction.

    For spatially constant data the diffusion substep is the identity, so
    the full split step reduces to exactly this update.  Kept free of the
    spectral machinery so it can serve as an independent oracle.
    """
    y1, y2, y3 = (float(v) for v in y)
    f1 = params.beta_m * (params.A - y1) * u3_lag_a - params.mu_m * y1
    f2 = params.H - params.beta_h * y1 * y2 - params.mu_h * y2
    f3 = (
        params.beta_h * params.survival_b * u1_lag_b * u2_lag_b
        - params.rho_h * y3
    )
    return np.array([y1 + dt * f1, y2 + dt * f2, y3 + dt * f3])


def run_homogeneous(
    params: ModelParams, initial: np.ndarray, dt: float, t_end: float
) -> np.ndarray:
    """Integrates the homogeneous reduction from a constant initial history.

    Returns the full trace, shape (n_steps + 1, 3), with row k the state
    at time k dt.
    """
    k_a = lag_steps(params.tau_a, dt)
    k_b = lag_steps(params.tau_b, dt)
    n_lags = max(k_a, k_b)
    n_steps = int(math.floor(t_end / dt * (1.0 + 1e-12) + 1e-12))
    trace = np.empty((n_steps + 1, 3))
    window = [np.asarray(initial, dtype=float)] * (n_lags + 1)
    trace[0] = window[-1]
    for k in range(1, n_steps + 1):
        y = window[-1]
        lag_a = window[-1 - k_a]
        lag_b = window[-1 - k_b]
        y_new = dde_oracle_step(y, lag_a[2], lag_b[0], lag_b[1], params, dt)
        window.append(y_new)
        if len(window) > n_lags + 1:
            window.pop(0)
        trace[k] = y_new
    return trace
