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

The delayed fields of the next B steps already sit in the history: the
step from state s + j reads the states s + j - k_a and s + j - k_b, which
exist at step s while j is at most the smaller nonzero lag.  So run
smooths them a block at a time, B = min(block_rows(n), 1 + that lag)
steps in one transform call (25 steps on the sweep base at n = 48, one
on grids of more than 600 points), and hands each step its rows.  The
stacked transforms give each row the bytes of its own call (spectral
module docstring), so the split of a run into blocks moves no bit.

The explicit reaction substep keeps states in the invariant box when

    dt <= 0.2 / max(mu_m, mu_h + beta_h M1, rho_h, beta_m M3),

the net loss coefficient of each component at the box ceiling; SimConfig
rejects larger steps.  A spatially homogeneous reduction of the step
doubles as an oracle: on constant data the split step coincides with an
explicit Euler step of the underlying delay differential system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .lyapunov import RECORD_DTYPE, StateBlock, block_rows, eval_V, lag_values, prepare_kernels
from .lyapunov import two_path_rel_err, window_W
from .spectral import _heat_decay, _heat_rows, _live_modes
from .spectral import heat_apply  # unused here; perfbench/tracing.py wraps this binding

if TYPE_CHECKING:
    from .config import SimConfig

__all__ = [
    "SimulationError",
    "Trajectory",
    "dde_oracle_step",
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


@dataclass(frozen=True)
class _StepPlan:
    """What step derives from (params, domain, dt) alone, built once per run.

    decay holds the heat flow over dt for the rows u1, u2, u3.  The
    delayed fields (u3 at lag k_a, u1 u2 at lag k_b) are smoothed by the
    kernels over tau_a and tau_b; lag_rows lists which of the two have a
    nonzero delay, with their decays in lag_decay, so a zero delay skips
    its transform.  modes and lag_modes count the live cosine modes of
    each batch of flows (spectral._live_modes), so step never recounts
    them.  block is B, the steps whose delayed fields one smoothing call
    covers; with both delays zero it only groups run's loop.  beta_m,
    beta_h, gain_b = beta_h exp(-mu_h tau_b) and the loss column (mu_m,
    mu_h, rho_h) are the reaction's coefficients, so step reads no
    derived parameter.
    """

    k_a: int
    k_b: int
    decay: np.ndarray      # (3, n)
    modes: int
    lag_rows: tuple[int, ...]
    lag_decay: np.ndarray  # (len(lag_rows), n)
    lag_modes: int
    block: int
    beta_m: float
    beta_h: float
    gain_b: float
    loss: np.ndarray       # (3, 1)


@lru_cache(maxsize=32)
def _step_plan(params: ModelParams, domain: Domain, dt: float) -> _StepPlan:
    kernels = ((params.d_m, params.tau_a), (params.d_h, params.tau_b))
    lag_rows = tuple(i for i, (_, tau) in enumerate(kernels) if tau > 0.0)
    decay = np.array([_heat_decay(d, dt, domain) for d in (params.d_m, params.d_h, params.d_h)])
    lag_decay = np.array([_heat_decay(*kernels[i], domain) for i in lag_rows])
    k_a, k_b = lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt)
    # The step from state s + j reads states s + j - k, all in the history
    # at step s while j <= k for every nonzero k.
    reach = [1 + k for k in (k_a, k_b) if k]
    plan = _StepPlan(
        k_a=k_a,
        k_b=k_b,
        decay=decay,
        modes=_live_modes(decay),
        lag_rows=lag_rows,
        lag_decay=lag_decay,
        lag_modes=_live_modes(lag_decay),
        block=min([block_rows(domain.n), *reach]),
        beta_m=params.beta_m,
        beta_h=params.beta_h,
        gain_b=params.beta_h * params.survival_b,
        loss=np.array([[params.mu_m], [params.mu_h], [params.rho_h]]),
    )
    for array in (plan.decay, plan.lag_decay, plan.loss):
        array.flags.writeable = False
    return plan


def _smooth_delayed(history: History, plan: _StepPlan, domain: Domain, count: int) -> np.ndarray:
    """The smoothed delayed fields of the next count steps, (count, len(lag_rows), n).

    Row j holds those of the step from the history's newest state plus j:
    Gamma(d_m tau_a) u3 at lag k_a - j and Gamma(d_h tau_b) (u1 u2) at lag
    k_b - j, for the delays in plan.lag_rows, so count is at most
    plan.block.  All of them go through one transform call.
    """
    n, lags = domain.n, len(plan.lag_rows)
    fields = np.empty((lags, count, n))
    if plan.k_a:
        fields[0] = history.lookup_block(plan.k_a, count)[:, 2]
    if plan.k_b:
        lag_b = history.lookup_block(plan.k_b, count)
        np.multiply(lag_b[:, 0], lag_b[:, 1], out=fields[-1])
    decay = np.repeat(plan.lag_decay, count, axis=0)
    smoothed = _heat_rows(fields.reshape(lags * count, n), decay, domain, plan.lag_modes)
    return smoothed.reshape(lags, count, n).transpose(1, 0, 2)


def step(
    history: History,
    params: ModelParams,
    domain: Domain,
    dt: float,
    *,
    plan: _StepPlan | None = None,
    smoothed: np.ndarray | None = None,
) -> np.ndarray:
    """Advances the history by one split step and returns the new state.

    An explicit Euler substep of the reaction, with the delayed infection
    terms beta_m (A - u1) Gamma(d_m tau_a) u3(t - tau_a) and
    beta_h exp(-mu_h tau_b) Gamma(d_h tau_b) (u1 u2)(t - tau_b), then the
    heat flow over dt of each component.  The decays, their live mode
    counts and the reaction's coefficients come from a plan cached per
    (params, domain, dt); run passes the one it holds as plan, which must
    be _step_plan(params, domain, dt), and other callers leave it out.
    Without a plan, step first checks dt against the history's; run has
    checked it already.

    smoothed holds this step's smoothed delayed fields, one row per
    nonzero delay (u3's first).  run smooths them for a block of
    plan.block steps in one transform call and hands each step its rows;
    a step called without them smooths its own, as a block of one, and
    with both delays zero there is nothing to smooth.  The three heat
    flows go to the transform as one batch: one pair of stacked products
    on the dense and band paths, one rfft and one irfft call on the FFT
    path.  The substep runs in one (3, n) buffer, each product in the
    operand order of the terms above, so it keeps their bits.

    The new state is a (3, n) array, rows u1, u2, u3: a read-only view of
    the history's ring slot, valid until the slot is reused n_lags + 1
    steps later.  Copy it to keep it longer.
    """
    if plan is None:
        if abs(dt - history.dt) > 1e-15 * max(dt, history.dt):
            raise ValueError(f"dt={dt!r} disagrees with the history step {history.dt!r}")
        plan = _step_plan(params, domain, dt)
    if smoothed is None and plan.lag_rows:
        smoothed = _smooth_delayed(history, plan, domain, 1)[0]
    state = history.lookup_arrays(0)
    u1, u2, u3 = state

    # Euler substep u + dt r, formed as r * dt + u: the same two roundings
    # per element, so the same bits.  r is the gain less loss * state.
    post = np.empty_like(state)
    r1, r2, r3 = post
    np.subtract(params.A, u1, out=r1)
    r1 *= plan.beta_m
    r1 *= smoothed[0] if plan.k_a else u3
    np.multiply(u1, plan.beta_h, out=r2)
    r2 *= u2
    np.subtract(params.H, r2, out=r2)
    if plan.k_b:
        np.multiply(smoothed[-1], plan.gain_b, out=r3)
    else:
        np.multiply(u1, u2, out=r3)
        r3 *= plan.gain_b
    post -= plan.loss * state
    post *= dt
    post += state
    return history.append(_heat_rows(post, plan.decay, domain, plan.modes))


@dataclass
class Trajectory:
    """Per-step record of one run.

    Distances are sup-norm over components and grid; dist_endemic is NaN
    when no endemic state exists.  lyapunov holds one RECORD_DTYPE row per
    step: V, L1-L3, W1, W2, the eight TERM_NAMES, dissipation and
    two_path_rel_err (NaN off checkpoints); V and dissipation are views
    of it, so timeseries.csv and certify read one buffer.  Without
    certification it is one NaN row, broadcast read-only.  checkpoints
    marks the steps that record two_path_rel_err.  snapshots holds
    (time, state) pairs at the configured stride plus the first and last
    step; each state, like final_state, is a (3, n) array, rows u1, u2,
    u3, owned by the trajectory.  kernel_mass_defect is the kernels'
    worst column-mass defect, recorded by certifying runs.
    """

    times: np.ndarray
    dist_endemic: np.ndarray
    dist_dfe: np.ndarray
    comp_min: np.ndarray
    comp_max: np.ndarray
    lyapunov: np.ndarray
    checkpoints: np.ndarray
    snapshots: list[tuple[float, np.ndarray]]
    bounds_ok: bool
    final_state: np.ndarray
    equilibria: EquilibriumSet
    config: SimConfig
    kernel_mass_defect: float | None = None

    @property
    def V(self) -> np.ndarray:
        return self.lyapunov["V"]

    @property
    def dissipation(self) -> np.ndarray:
        return self.lyapunov["dissipation"]


def run(config: SimConfig, initial: History) -> Trajectory:
    """Integrates from the initial history to t_end, recording every step.

    Steps go in blocks of B (the module docstring): before a block's first
    step one call smooths the delayed fields of the whole block, and each
    step gets its rows.  Each recorded state takes one sup_distance call
    for its distances to the DFE and to u*.

    Certifying runs additionally evaluate the Lyapunov functional and the
    dissipation identity at every step: each step's state goes into a
    StateBlock, and one eval_V call evaluates the block and returns its
    record rows when it is full, at the last step or at a state that is
    not strictly positive, whose error then stops the run at its own step.
    eval_V reads the W integrals from lags, a column of per-lag values
    indexed by step that the initial window fills and eval_V extends.  At
    checkpoint steps, every min(k_a, k_b) steps (over the nonzero ones,
    and every step when both delays are zero) plus the first and the
    last, the run stores W1 and W2 recomputed from the raw window by
    separate code; at the end each checkpoint's two_path_rel_err compares
    them with the record.  Certifying runs require a strictly positive
    initial history; SimConfig checks R0.

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

    n_steps = int(math.floor(config.t_end / dt * (1.0 + 1e-12) + 1e-12))
    size = n_steps + 1
    checkpoints = np.zeros(size, dtype=bool)
    kernels = block = lags = fresh_W = None
    if config.certify:
        report = validate_initial_history(initial, params, strict_positive=True)
        if not report.ok:
            raise ValueError(
                "certification requires a strictly positive admissible history: "
                + "; ".join(report.violations[:5])
            )
        kernels = prepare_kernels(params, domain, dt)
        # Column K + s holds step s's per-lag values, K = max(k_a, k_b).
        window = lag_values(initial, eqs.endemic, domain, k_a, k_b)
        lags = np.concatenate((window, np.full((2, n_steps), np.nan)), axis=1)
        # A value of step s weighs in a delay's W through step s + k for
        # that delay's k, so a stride of the shortest nonzero k reads each
        # value in a recorded W before it leaves every window.
        checkpoints[:: min((k for k in (k_a, k_b) if k), default=1)] = True
        checkpoints[-1] = True
        block = StateBlock.empty(block_rows(domain.n), domain.n, dt, k_a, k_b)
        # W1 and W2 from the raw window at each checkpoint.
        fresh_W = np.full((size, 2), np.nan)

    times = np.arange(size) * dt
    # Row k holds step k's distances to the DFE and to u* (NaN without u*).
    points = np.array([eqs.dfe] if eqs.endemic is None else [eqs.dfe, eqs.endemic])
    distances = np.full((size, 2), np.nan)
    known = slice(0, len(points))
    # Row k holds the (3, 2) per-component minima and maxima of step k.
    extremes = np.full((size, 3, 2), np.nan)
    comp_min, comp_max = extremes[..., 0], extremes[..., 1]
    lyapunov = np.full(size if config.certify else 1, np.nan, dtype=RECORD_DTYPE)
    snapshots: list[tuple[float, np.ndarray]] = []
    bounds_ok = True
    filled = 0

    def record(k: int, state: np.ndarray) -> None:
        nonlocal bounds_ok, filled
        bounds = extremes[k]
        lo = state.min(axis=1, out=bounds[:, 0])
        hi = state.max(axis=1, out=bounds[:, 1])
        # Rounding u - p is monotone in u, so a row's sup |u - p| sits at
        # its min or max: the distance of bounds is that of state, bit for bit.
        distances[k, known] = sup_distance(bounds, points)
        # min and max propagate NaN, so a NaN anywhere fails the low test.
        low = lo.min()
        if not (low >= 0.0 and (hi <= ceiling).all()):
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                raise SimulationError(
                    f"non-finite state at step {k}, t={times[k]:.6g}"
                )
            if config.box_strict:
                raise SimulationError(
                    f"state left the invariant box at step {k}, t={times[k]:.6g}"
                )
            bounds_ok = False
        if config.certify:
            block.put(filled, k, initial)
            filled += 1
            # A nonpositive state fails eval_V's check at its own step.
            if filled == len(block) or k == n_steps or not low > 0.0:
                rows = eval_V(block[:filled], params, eqs.endemic, domain, lags=lags)
                lyapunov[k + 1 - filled : k + 1] = rows
                filled = 0
            if checkpoints[k]:
                fresh_W[k] = window_W(initial, params, eqs.endemic, domain, k_a, k_b)
        if k == 0 or k == n_steps or (
            config.snapshot_every and k % config.snapshot_every == 0
        ):
            snapshots.append((float(times[k]), state.copy()))

    record(0, initial.latest)
    for first in range(1, size, plan.block):
        count = min(plan.block, size - first)
        delayed = _smooth_delayed(initial, plan, domain, count) if plan.lag_rows else [None] * count
        for k, smoothed in enumerate(delayed, start=first):
            record(k, step(initial, params, domain, dt, plan=plan, smoothed=smoothed))

    if config.certify:
        lyapunov["two_path_rel_err"][checkpoints] = two_path_rel_err(
            lyapunov[checkpoints], fresh_W[checkpoints], params, eqs.endemic, domain
        )
    else:
        lyapunov = np.broadcast_to(lyapunov, (size,))

    return Trajectory(
        times=times,
        dist_endemic=distances[:, 1],
        dist_dfe=distances[:, 0],
        comp_min=comp_min,
        comp_max=comp_max,
        lyapunov=lyapunov,
        checkpoints=checkpoints,
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
