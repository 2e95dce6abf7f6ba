import dataclasses
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

import dengue_rd.integrator as integrator
import dengue_rd.spectral as spectral
from dengue_rd import Domain, History, ModelParams, g, heat_apply, kernel_matrix, lag_steps, run


# Worked parameter point: R0 = sqrt(2) exactly, endemic (1/2, 4/3, 1/3),
# box ceiling (2, 2, 2), sitting on the boundary of the stronger regime.
WORKED = dict(
    d_m=1.0,
    d_h=1.0,
    A=2.0,
    H=2.0,
    b=1.0,
    p=1.0,
    q=1.0,
    mu_m=1.0,
    mu_h=1.0,
    gamma_h=1.0,
    tau_a=0.5,
    tau_b=0.0,
)


@pytest.fixture
def worked_params() -> ModelParams:
    return ModelParams(**WORKED)


@pytest.fixture
def delayed_params() -> ModelParams:
    # Same point with the intrinsic delay switched on, so both kernel
    # paths and both W integrals are exercised.  R0^2 = 2 e^{-1/4} > 1.
    return ModelParams(**{**WORKED, "tau_b": 0.25})


@pytest.fixture
def domain() -> Domain:
    return Domain(L=1.0, n=48)


def config_doc(**overrides) -> dict:
    """Flat JSON-style configuration document for the worked point."""
    doc = dict(WORKED)
    doc.update({"L": 1.0, "n": 48, "dt": 0.05, "t_end": 2.0})
    doc.update(overrides)
    return doc


@contextmanager
def run_block_steps(steps: int):
    """Runs in blocks of at most steps steps: integrator.RUN_BLOCK_STEPS patched.

    The step plan, which holds the block, is cached, so the cache is
    cleared on the way in and on the way out.
    """
    integrator._step_plan.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "RUN_BLOCK_STEPS", steps)
            yield
    finally:
        integrator._step_plan.cache_clear()


def constant_state(values, n: int) -> np.ndarray:
    """Spatially constant (3, n) state, rows u1, u2, u3."""
    return np.repeat(np.asarray(values, dtype=float)[:, None], n, axis=1)


def to_grid(a: np.ndarray, domain: Domain) -> np.ndarray:
    """The cosine series sum_k a_k cos(k pi x / L) on the grid, k = 0 .. n - 1.

    A plain sum over the modes, independent of the package's transform
    matrices, against which to_modal and the heat flow are checked.
    """
    f = np.zeros(domain.n)
    for k, a_k in enumerate(a):
        f += a_k * np.cos(k * np.pi * domain.grid / domain.L)
    return f


def random_smooth_field(domain: Domain, rng: np.random.Generator, offset: float = 0.0) -> np.ndarray:
    """Random field in the lowest third of the grid's cosine modes."""
    x = domain.grid
    f = np.full(domain.n, offset)
    for k in range(domain.n // 3):
        f += rng.standard_normal() * np.exp(-0.5 * k) * np.cos(k * np.pi * x / domain.L)
    return f


def infection_term_u1(u1_now, u3_lagged, params: ModelParams, domain: Domain) -> np.ndarray:
    """New mosquito infections beta_m (A - u1) [Gamma(d_m tau_a) u3(t - tau_a)]."""
    smoothed = heat_apply(u3_lagged, params.d_m, params.tau_a, domain)
    return params.beta_m * (params.A - u1_now) * smoothed


def infection_term_u3(u1_lagged, u2_lagged, params: ModelParams, domain: Domain) -> np.ndarray:
    """New human cases beta_h exp(-mu_h tau_b) [Gamma(d_h tau_b) (u1 u2)(t - tau_b)].

    The product u1 u2 is taken pointwise at time t - tau_b before the
    kernel average.
    """
    smoothed = heat_apply(u1_lagged * u2_lagged, params.d_h, params.tau_b, domain)
    return params.beta_h * params.survival_b * smoothed


def written_out_heat_rows(rows, decay: np.ndarray, domain: Domain) -> np.ndarray:
    """The heat flow of each row, resolving its path on every call.

    decay is one (n,) vector or an (r, n) array.  The path follows the
    crossovers in force: the pair of the first K modes from _basis below
    FFT_MIN_N (K = n) or for a band of at most BAND_MAX_MODES modes, and
    otherwise rfft and irfft of the even extension.
    """
    n = domain.n
    f = np.asarray(rows)
    modes = n if n < spectral.FFT_MIN_N else spectral._live_modes(decay)
    if n < spectral.FFT_MIN_N or modes <= spectral.BAND_MAX_MODES:
        fwd, cos = spectral._basis(domain, modes)
        spec = np.matmul(fwd, f[:, :, None])
        spec *= decay[..., :modes, None]
        return np.matmul(cos, spec)[:, :, 0]
    spec = np.fft.rfft(np.concatenate((f, f[:, -2:0:-1]), axis=1), axis=1)
    spec *= decay
    return np.fft.irfft(spec, 2 * (n - 1), axis=1)[:, :n]


def written_out_step(history: History, params: ModelParams, domain: Domain, dt: float) -> np.ndarray:
    """One split step written out, with its flows resolved per call and appended as a copy.

    The reference the planned in-place step is held to byte for byte: the
    same products in the same order, each on fresh temporaries, the delayed
    fields smoothed as a stack of the nonzero delays' rows, and the new
    state copied into the history by History.append.
    """
    kernels = ((params.d_m, params.tau_a), (params.d_h, params.tau_b))
    k_a, k_b = lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt)
    fields = []
    if k_a:
        fields.append(history.lookup_block(k_a, 1, 2))
    if k_b:
        lag_b = history.lookup_block(k_b, 1, slice(0, 2))
        fields.append(lag_b[:, 0] * lag_b[:, 1])
    if fields:
        lag_decay = np.array([spectral._heat_decay(d, tau, domain) for d, tau in kernels if tau > 0.0])
        smoothed = written_out_heat_rows(np.concatenate(fields), lag_decay, domain)
    state = history.lookup_arrays(0)
    u1, u2, u3 = state
    post = np.empty_like(state)
    r1, r2, r3 = post
    np.subtract(params.A, u1, out=r1)
    r1 *= params.beta_m
    r1 *= smoothed[0] if k_a else u3
    np.multiply(u1, params.beta_h, out=r2)
    r2 *= u2
    np.subtract(params.H, r2, out=r2)
    gain_b = params.beta_h * params.survival_b
    if k_b:
        np.multiply(smoothed[-1], gain_b, out=r3)
    else:
        np.multiply(u1, u2, out=r3)
        r3 *= gain_b
    post -= np.array([[params.mu_m], [params.mu_h], [params.rho_h]]) * state
    post *= dt
    post += state
    decay = np.array([spectral._heat_decay(d, dt, domain) for d in (params.d_m, params.d_h, params.d_h)])
    return history.append(written_out_heat_rows(post, decay, domain))


@lru_cache(maxsize=None)
def _kernel(d: float, t: float, domain: Domain) -> np.ndarray:
    """kernel_matrix(d, t, domain), assembled once per argument triple and read-only."""
    matrix = kernel_matrix(d, t, domain)
    matrix.flags.writeable = False
    return matrix


def kernel_weighted_W(window, params: ModelParams, star, domain: Domain, dt: float) -> list[float]:
    """W1 and W2 of window[0] through assembled per-lag kernel matrices, without the collapse.

    window holds (3, n) states newest first, window[j] the state j steps
    back, as far back as the longer delay reaches.  Lag j contributes the
    x-integral of [K(d j dt) g(.)](x), the integral that the collapsed
    form replaces by a plain y-integral of g; lag 0 is the identity.  The
    time integral is the trapezoid rule, written out.  Nothing here reads
    the run's per-lag column or its trapezoid code.
    """
    w = domain.trapezoid_weights
    u1s, u2s, u3s = (float(v) for v in star)
    out = []
    for tau, d, field_at in (
        (params.tau_a, params.d_m, lambda s: s[2] / u3s),
        (params.tau_b, params.d_h, lambda s: s[0] * s[1] / (u1s * u2s)),
    ):
        k = lag_steps(tau, dt)
        per_lag = [float(w @ g(field_at(window[0])))]
        per_lag += [
            float(w @ (_kernel(d, j * dt, domain) @ g(field_at(window[j])))) for j in range(1, k + 1)
        ]
        acc = 0.5 * (per_lag[0] + per_lag[-1]) + sum(per_lag[1:-1]) if k else 0.0
        out.append(params.beta_h * u1s * u2s * dt * acc)
    return out


def column_mass_defect(config) -> float:
    """The worst relative column-mass defect ||w K - w||_inf / ||w||_inf of the assembled kernels.

    K runs over the kernel matrices at every lag j dt of both delays of
    config, the ones kernel_weighted_W weights the lags by, and w is the
    trapezoid weights.  Without a delay the defect is 0.
    """
    params, domain, dt = config.params, config.domain, config.dt
    w = domain.trapezoid_weights
    defects = [
        float(np.abs(w @ _kernel(d, j * dt, domain) - w).max() / w.max())
        for tau, d in ((params.tau_a, params.d_m), (params.tau_b, params.d_h))
        for j in range(1, lag_steps(tau, dt) + 1)
    ]
    return max(defects, default=0.0)


def run_every_state(config, initial: History):
    """A run of config from initial, with every state it saw, oldest first.

    The run takes a snapshot at every step (snapshot_every=1), which does
    not change its record.  The states start with the initial window's
    lags, copied before the run advances the history, so state s of the
    run sits at index initial.n_lags + s.
    """
    earlier = [initial.lookup_arrays(j).copy() for j in range(initial.n_lags, 0, -1)]
    traj = run(dataclasses.replace(config, snapshot_every=1), initial)
    assert len(traj.snapshots) == len(traj.times)
    return traj, earlier + [state for _, state in traj.snapshots]


def W_rel_errors(traj, states) -> np.ndarray:
    """Per step, the larger relative disagreement of the recorded W1, W2 with kernel_weighted_W.

    states are the run's, oldest first, as run_every_state gives them.  A
    W that is 0 on both sides (a delay of zero steps) disagrees by 0; a
    NaN on either side gives NaN.
    """
    config = traj.config
    params, dt = config.params, config.dt
    lead = len(states) - len(traj.times)
    reach = max(lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt))
    star = traj.equilibria.endemic
    oracle = np.array([
        kernel_weighted_W(states[lead + s - reach : lead + s + 1][::-1], params, star, config.domain, dt)
        for s in range(len(traj.times))
    ])
    recorded = np.stack((traj.lyapunov["W1"], traj.lyapunov["W2"]), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        errs = np.abs(recorded - oracle) / np.abs(oracle)
    errs[recorded == oracle] = 0.0
    return errs.max(axis=1)
