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

A run goes a block of B steps at a time, B = min(RUN_BLOCK_STEPS,
RUN_BLOCK_CELLS // n) and at least 1 (the constants say how they were
measured): 25 steps on grids of up to 327 points, 8 at n = 1024 and 4
at n = 2048.  Each state is copied once into the run's StateBlock, a
field-first (3, B, n) array, and after the block's last step the books
and, in a certifying run, eval_V read it.  The delayed fields of the
next steps already sit in the history: the step from state s + j reads
the states s + j - k_a and s + j - k_b, which exist at step s while j is
at most the smaller nonzero lag.  So run smooths them in one transform
call for each S = min(1 + that lag, B) steps of a block and hands each
step its rows.  The stacked transforms give each row the bytes of its
own call (spectral module docstring), and eval_V each state the bytes
of its own evaluation (lyapunov module docstring), so the split of a
run into blocks moves no bit.

A step resolves nothing and, on the matrix path, allocates no array.
Its heat flows are planned once per (params, domain, dt) in _step_plan,
each with its path, K, transform pair and decay block (spectral
_HeatFlow).  The reaction runs in a _Workspace of scratch buffers that
belongs to the run, not to the shared plan, and the flow's second
product is written straight into the history's next ring slot
(History.advance), so no state is copied on the way in.  The FFT path
copies its inverse transform into the slot once.  Outside certification
a step pays, besides step itself, only for an exact stop test of its new
state (run's docstring) and its one copy into the block.  What run
records of the states, their per-component bounds, their distances to
the equilibria and the snapshots, it derives once per block from the
block.

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
from .lyapunov import RECORD_DTYPE, StateBlock, eval_V, lag_values
from .lyapunov import prepare_kernels  # unused here; perfbench/tracing.py wraps this binding
from .spectral import _HeatFlow, _heat_decay, _heat_flow
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

# run's block B holds at most RUN_BLOCK_STEPS steps, and at most
# RUN_BLOCK_CELLS // n of them on an n-point grid (module docstring).  In
# process, plain runs of the sweep base (2-core x86-64, one BLAS thread,
# fastest of 7) gained nothing past 25 steps at n = 48 (B = 25, 50 and 101
# within 2%); at n = 1024 B = 8 took 156 against 191 us per step at B = 1,
# and B = 16 and 25 were within 5% of it.  A plain step of a block holds
# about 6n doubles: its state in the block, its delayed row and two
# transform rows.  Over B = 1 the run's traced peak rose 0.35 MB at B = 8
# and 1.16 MB at B = 25, at n = 1024.  The cell budget keeps that rise
# flat on wider grids: at n = 2048, B = 4 took 287 against 316 us, and
# its peak rose 0.24 MB.  These figures were taken when the band kept every
# mode above HEAT_DECAY_FLOOR (84 at n = 1024), not the modes its tail
# bound needs (28).  The same B sizes eval_V's blocks (README gives the
# certifying figures).
RUN_BLOCK_STEPS = 25
RUN_BLOCK_CELLS = 8192


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

    flow is the plan of the heat flow over dt for the rows u1, u2, u3.  The
    delayed fields (u3 at lag k_a, u1 u2 at lag k_b) are smoothed by the
    kernels over tau_a and tau_b; lag_rows lists which of the two have a
    nonzero delay, and lag_flow is the plan of their kernels, one decay
    row each, so a zero delay skips its transform (None with both delays
    zero).  Each plan holds its path, its K and its pair (spectral
    _HeatFlow), so step resolves nothing.  block is B, the steps of run's
    StateBlock: min(RUN_BLOCK_STEPS, RUN_BLOCK_CELLS // n), at least 1.
    smooth is S, the steps whose delayed fields one smoothing call covers:
    min(1 + the shortest nonzero lag, B), and B with both delays zero,
    where it only groups run's loop.  beta_m,
    beta_h, gain_b = beta_h exp(-mu_h tau_b) and the loss column (mu_m,
    mu_h, rho_h) are the reaction's coefficients, so step reads no
    derived parameter.  The plan is shared through its cache, so it holds
    no scratch: that is the run's _Workspace.
    """

    k_a: int
    k_b: int
    flow: _HeatFlow
    lag_rows: tuple[int, ...]
    lag_flow: _HeatFlow | None
    block: int
    smooth: int
    beta_m: float
    beta_h: float
    gain_b: float
    loss: np.ndarray       # (3, 1)

    @property
    def modes(self) -> int:
        """K of the step's flow."""
        return self.flow.modes

    @property
    def lag_modes(self) -> int:
        """K of the delays' flow, 0 without one."""
        return self.lag_flow.modes if self.lag_flow else 0


@lru_cache(maxsize=32)
def _step_plan(params: ModelParams, domain: Domain, dt: float) -> _StepPlan:
    kernels = ((params.d_m, params.tau_a), (params.d_h, params.tau_b))
    lag_rows = tuple(i for i, (_, tau) in enumerate(kernels) if tau > 0.0)
    decay = np.array([_heat_decay(d, dt, domain) for d in (params.d_m, params.d_h, params.d_h)])
    lag_decay = np.array([_heat_decay(*kernels[i], domain) for i in lag_rows])
    k_a, k_b = lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt)
    block = min(RUN_BLOCK_STEPS, max(1, RUN_BLOCK_CELLS // domain.n))
    # The step from state s + j reads states s + j - k, all in the history
    # at step s while j <= k for every nonzero k.
    reach = [1 + k for k in (k_a, k_b) if k]
    loss = np.array([[params.mu_m], [params.mu_h], [params.rho_h]])
    loss.flags.writeable = False
    return _StepPlan(
        k_a=k_a,
        k_b=k_b,
        flow=_heat_flow(decay, domain),
        lag_rows=lag_rows,
        lag_flow=_heat_flow(lag_decay, domain) if lag_rows else None,
        block=block,
        smooth=min([block, *reach]),
        beta_m=params.beta_m,
        beta_h=params.beta_h,
        gain_b=params.beta_h * params.survival_b,
        loss=loss,
    )


@dataclass(frozen=True)
class _Workspace:
    """Scratch of one run's steps, so that a step allocates no array.

    post holds the reaction substep and rows its three row views, lost
    the product loss * state, and spec the spectrum of the step's flow on
    the matrix path (None on the FFT path).  A run owns its workspace, as
    it owns its history; the shared _StepPlan holds none.
    """

    post: np.ndarray            # (3, n)
    rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    lost: np.ndarray            # (3, n)
    spec: np.ndarray | None     # (3, K, 1)

    @classmethod
    def of(cls, plan: _StepPlan, n: int) -> _Workspace:
        post = np.empty((3, n))
        spec = None if plan.flow.fwd is None else np.empty((3, plan.flow.modes, 1))
        return cls(post, (post[0], post[1], post[2]), np.empty((3, n)), spec)


def _smooth_delayed(history: History, plan: _StepPlan, domain: Domain, count: int) -> np.ndarray:
    """The smoothed delayed fields of the next count steps, (count, len(lag_rows), n).

    Row j holds those of the step from the history's newest state plus j:
    Gamma(d_m tau_a) u3 at lag k_a - j and Gamma(d_h tau_b) (u1 u2) at lag
    k_b - j, for the delays in plan.lag_rows, so count is at most
    plan.smooth.  All of them go through one transform call.  The history
    gathers only the rows a delay reads: u3 at lag k_a, u1 and u2 at k_b.
    """
    rows = np.empty((count, len(plan.lag_rows), domain.n))
    if plan.k_a:
        rows[:, 0] = history.lookup_block(plan.k_a, count, 2)
    if plan.k_b:
        lag_b = history.lookup_block(plan.k_b, count, slice(0, 2))
        np.multiply(lag_b[:, 0], lag_b[:, 1], out=rows[:, -1])
    return plan.lag_flow.apply(rows)


def step(
    history: History,
    params: ModelParams,
    domain: Domain,
    dt: float,
    *,
    plan: _StepPlan | None = None,
    smoothed: np.ndarray | None = None,
    work: _Workspace | None = None,
) -> np.ndarray:
    """Advances the history by one split step and returns the new state.

    An explicit Euler substep of the reaction, with the delayed infection
    terms beta_m (A - u1) Gamma(d_m tau_a) u3(t - tau_a) and
    beta_h exp(-mu_h tau_b) Gamma(d_h tau_b) (u1 u2)(t - tau_b), then the
    heat flow over dt of each component.  The flows' plans and the
    reaction's coefficients come from a plan cached per (params, domain,
    dt); run passes the one it holds as plan, which must be
    _step_plan(params, domain, dt), and other callers leave it out.
    Without a plan, step first checks dt against the history's; run has
    checked it already.

    smoothed holds this step's smoothed delayed fields, one row per
    nonzero delay (u3's first).  run smooths them for plan.smooth
    steps at a time in one transform call and hands each step its rows;
    a step called without them smooths its own, as a block of one, and
    with both delays zero there is nothing to smooth.  work is the run's
    scratch, _Workspace.of(plan, n); a step called without it makes its
    own.  The substep runs in work.post, each product in the operand order
    of the terms above, so it keeps their bits.  The three heat flows go
    to the transform as one batch: on the matrix path one pair of stacked
    products, the second written straight into the history's next ring
    slot, on the FFT path one rfft and one irfft call, copied into it
    once.  So with run's plan and workspace a matrix-path step allocates
    no array and copies no state.

    The new state is a (3, n) array, rows u1, u2, u3: a read-only view of
    the history's ring slot, valid until the slot is reused n_lags + 1
    steps later.  Copy it to keep it longer.
    """
    if plan is None:
        if abs(dt - history.dt) > 1e-15 * max(dt, history.dt):
            raise ValueError(f"dt={dt!r} disagrees with the history step {history.dt!r}")
        plan = _step_plan(params, domain, dt)
    if work is None:
        work = _Workspace.of(plan, domain.n)
    if smoothed is None and plan.lag_rows:
        smoothed = _smooth_delayed(history, plan, domain, 1)[0]
    state = history.lookup_arrays(0)
    # Indexing, not unpacking: iterating an array costs more per row.
    u1, u2, u3 = state[0], state[1], state[2]

    # Euler substep u + dt r, formed as r * dt + u: the same two roundings
    # per element, so the same bits.  r is the gain less loss * state.
    post = work.post
    r1, r2, r3 = work.rows
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
    post -= np.multiply(plan.loss, state, out=work.lost)
    post *= dt
    post += state
    return history.advance(lambda slot: plan.flow.apply(post, slot, work.spec))


@dataclass
class Trajectory:
    """Per-step record of one run.

    Distances are sup-norm over components and grid; dist_endemic is NaN
    when no endemic state exists.  lyapunov holds one RECORD_DTYPE row per
    step: V, L1-L3, W1, W2, the eight TERM_NAMES and dissipation; V and
    dissipation are views of it, so timeseries.csv and certify read one
    buffer.  Without certification it is one NaN row, broadcast
    read-only.  snapshots holds (time, state) pairs at the configured
    stride plus the first and last step; each state, like final_state,
    is a (3, n) array, rows u1, u2, u3, owned by the trajectory.
    """

    times: np.ndarray
    dist_endemic: np.ndarray
    dist_dfe: np.ndarray
    comp_min: np.ndarray
    comp_max: np.ndarray
    lyapunov: np.ndarray
    snapshots: list[tuple[float, np.ndarray]]
    bounds_ok: bool
    final_state: np.ndarray
    equilibria: EquilibriumSet
    config: SimConfig

    @property
    def V(self) -> np.ndarray:
        return self.lyapunov["V"]

    @property
    def dissipation(self) -> np.ndarray:
        return self.lyapunov["dissipation"]


def run(config: SimConfig, initial: History) -> Trajectory:
    """Integrates from the initial history to t_end, recording every step.

    Steps go in blocks of B = plan.block steps (the module docstring),
    and each state is copied once into a StateBlock of B rows, field
    first, (3, B, n).  Before every S = plan.smooth steps of a block one
    call smooths their delayed fields, and each step gets its rows.  After
    every step an exact stop test reads the new state: a non-finite value
    raises, and so does a value outside the invariant box in strict mode;
    otherwise such a value clears bounds_ok.  So a failing run stops at the
    step of its first failing state, and step is never called after it.
    After the block's last step the bookkeeping reads the block: one min
    and one max call give its per-component bounds, one sup_distance call
    their distances to the DFE and to u*, and the snapshots are copied
    from it.  State 0 is a block of one.  min and max are exact and each
    stacked distance is that of its state alone, so the split of a run
    into blocks moves no recorded bit.

    Certifying runs additionally evaluate the Lyapunov functional and the
    dissipation identity at every step: put copies the state with the two
    lag rows eval_V reads into its row of the block (a plain run copies the
    state alone), and the bookkeeping makes one eval_V call for the
    block's record rows.  A state that is not strictly positive gets an
    eval_V call of its block's rows up to it at once, whose check stops
    the run at that state's step.
    eval_V reads the W integrals from lags, a column of per-lag values
    indexed by step that one lag_values call fills from the initial
    window and eval_V extends.  Certifying runs require a strictly
    positive initial history; SimConfig checks R0.

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
    work = _Workspace.of(plan, domain.n)
    k_a, k_b = plan.k_a, plan.k_b
    if initial.n_lags < max(k_a, k_b):
        raise ValueError(
            f"history spans {initial.n_lags} lags, need {max(k_a, k_b)}"
        )
    eqs = compute_equilibria(params)
    # The box ceiling of every grid value: a full (3, n) operand compares
    # faster than a broadcast column.
    ceiling = np.repeat((bound_vector(params) * (1.0 + BOX_SLACK))[:, None], domain.n, axis=1)

    n_steps = int(math.floor(config.t_end / dt * (1.0 + 1e-12) + 1e-12))
    size = n_steps + 1
    lags = None
    if config.certify:
        report = validate_initial_history(initial, params, strict_positive=True)
        if not report.ok:
            raise ValueError(
                "certification requires a strictly positive admissible history: "
                + "; ".join(report.violations[:5])
            )
        # Column K + s holds step s's per-lag values, K = max(k_a, k_b).
        window = lag_values(initial, eqs.endemic, domain, k_a, k_b)
        lags = np.concatenate((window, np.full((2, n_steps), np.nan)), axis=1)

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
    # The states of the current block, for its books and eval_V.
    block = StateBlock.empty(plan.block, domain.n, dt, k_a, k_b)
    bounds_ok = True

    def check(k: int, row: int, state: np.ndarray) -> None:
        """Step k's stop test, then its copy into the block's row and its certifying work."""
        nonlocal bounds_ok
        # min propagates NaN and -inf fails the low test; +inf fails the
        # ceiling test.  Only a failing state takes the slow path.
        low = state.min()
        if not (low >= 0.0 and (state <= ceiling).all()):
            if not np.isfinite(state).all():
                raise SimulationError(
                    f"non-finite state at step {k}, t={times[k]:.6g}"
                )
            if config.box_strict:
                raise SimulationError(
                    f"state left the invariant box at step {k}, t={times[k]:.6g}"
                )
            bounds_ok = False
        if not config.certify:
            block.state[:, row] = state
            return
        block.put(row, k, state, initial)
        if not low > 0.0:  # eval_V's check fails at this state's own step
            eval_V(block[: row + 1], params, eqs.endemic, domain, lags=lags)

    def keep_books(first: int, count: int) -> None:
        """Records steps first to first + count - 1 from the block's first count rows."""
        steps = slice(first, first + count)
        states = block.state[:, :count]
        states.min(axis=2, out=comp_min[steps].T)
        states.max(axis=2, out=comp_max[steps].T)
        # Rounding u - p is monotone in u, so a row's sup |u - p| sits at
        # its min or max: the distance of bounds is that of state, bit for bit.
        distances[steps, known] = sup_distance(extremes[steps, None], points)
        if config.certify:
            lyapunov[steps] = eval_V(block[:count], params, eqs.endemic, domain, lags=lags)
        for k in range(first, first + count):
            if k == 0 or k == n_steps or (
                config.snapshot_every and k % config.snapshot_every == 0
            ):
                snapshots.append((float(times[k]), states[:, k - first].copy()))

    check(0, 0, initial.latest)
    keep_books(0, 1)
    for first in range(1, size, plan.block):
        count = min(plan.block, size - first)
        for lead in range(0, count, plan.smooth):
            width = min(plan.smooth, count - lead)
            delayed = _smooth_delayed(initial, plan, domain, width) if plan.lag_rows else [None] * width
            for row, smoothed in enumerate(delayed, lead):
                state = step(initial, params, domain, dt, plan=plan, smoothed=smoothed, work=work)
                check(first + row, row, state)
        keep_books(first, count)

    if not config.certify:
        lyapunov = np.broadcast_to(lyapunov, (size,))

    return Trajectory(
        times=times,
        dist_endemic=distances[:, 1],
        dist_dfe=distances[:, 0],
        comp_min=comp_min,
        comp_max=comp_max,
        lyapunov=lyapunov,
        snapshots=snapshots,
        bounds_ok=bounds_ok,
        final_state=initial.latest,
        equilibria=eqs,
        config=config,
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
