"""Property tests for the three heat-flow paths and the step plan.

Grids below spectral.FFT_MIN_N run the heat flow as dense products.  At
or above it, a flow with at most spectral.BAND_MAX_MODES live modes runs
against a cosine basis of those modes (the band path), and any other
through numpy.fft.  Small grids are pushed onto the band or the FFT path
by lowering FFT_MIN_N and setting BAND_MAX_MODES, so all three paths are
exercised cheaply; the grids next to the real crossovers are exercised as
they stand.  Heat factors below spectral.HEAT_DECAY_FLOOR are zeroed, and
the flows are held bit for bit against the same flows built from raw
np.exp factors.
"""

import dataclasses
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dengue_rd.integrator as integrator
import dengue_rd.spectral as spectral
from dengue_rd import (
    Domain,
    History,
    ModelParams,
    SimConfig,
    bound_vector,
    gradient_energy,
    heat_apply,
    lag_steps,
    run,
    step,
    to_grid,
    to_modal,
)
from dengue_rd.spectral import BAND_MAX_MODES, FFT_MIN_N

from conftest import WORKED, infection_term_u1, infection_term_u3, random_smooth_field

DT = 0.05

real_operators = spectral._operators

grid_sizes = st.one_of(
    st.integers(8, 40), st.sampled_from([FFT_MIN_N - 1, FFT_MIN_N, FFT_MIN_N + 65])
)
# None keeps the module's constants; "band" and "fft" send every flow on
# every grid down that path.
PATHS = (None, "band", "fft")
heat_paths = st.sampled_from(PATHS)


def fails(what: str):
    def fail(*args, **kwargs):
        raise AssertionError(f"the heat flow {what}")

    return fail


@contextmanager
def heat_path(n: int, path: str | None):
    """Sets the crossovers for path; off a path, its transform fails.

    Yields True when grids of n points take the dense path.  Off it,
    building the dense matrices fails; a forced "band" path fails on
    numpy.fft.rfft, a forced "fft" path on the band's cosine basis.
    """
    with pytest.MonkeyPatch.context() as mp:
        if path is not None:
            mp.setattr(spectral, "FFT_MIN_N", 8)
            mp.setattr(spectral, "BAND_MAX_MODES", n if path == "band" else 0)
            if path == "band":
                mp.setattr(np.fft, "rfft", fails("ran an rfft on the band path"))
            else:
                mp.setattr(spectral, "_band", fails("built a cosine band on the FFT path"))
        dense = n < spectral.FFT_MIN_N
        if not dense:
            mp.setattr(spectral, "_operators", fails("built the dense transform matrices"))
        yield dense


def cosine_flow(f: np.ndarray, decay: np.ndarray, domain: Domain) -> np.ndarray:
    """The cosine-basis flow with per-mode factors decay, from the trapezoid-consistent DCT-I."""
    n = domain.n
    m = n - 1
    k = np.arange(n)
    basis = np.cos(np.pi * (np.outer(k, k) % (2 * m)) / m)  # (mode, grid point)
    c = np.where((k == 0) | (k == m), 1.0, 2.0)
    eps = np.ones(n)
    eps[0] = eps[-1] = 0.5
    a = c / m * (basis @ (eps * f))
    return (a * decay) @ basis


def dense_reference(f: np.ndarray, d: float, t: float, domain: Domain) -> np.ndarray:
    """The heat flow over d t, written out from the trapezoid-consistent DCT-I."""
    k = np.arange(domain.n)
    return cosine_flow(f, np.exp(-d * t * (k * math.pi / domain.L) ** 2), domain)


@st.composite
def domains(draw):
    return Domain(L=draw(st.sampled_from([1.0, 2.5])), n=draw(grid_sizes))


@settings(max_examples=40, deadline=None)
@given(
    domain=domains(),
    path=heat_paths,
    d=st.floats(0.01, 10.0),
    t=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_heat_apply_matches_dense_reference(domain, path, d, t, seed):
    f = np.random.default_rng(seed).standard_normal(domain.n)
    with heat_path(domain.n, path):
        got = heat_apply(f, d, t, domain)
    if t == 0.0:
        assert np.array_equal(got, f) and got is not f
        return
    scale = np.abs(f).max()
    assert np.abs(got - dense_reference(f, d, t, domain)).max() <= 1e-13 * scale


@settings(max_examples=25, deadline=None)
@given(
    domain=domains(),
    path=heat_paths,
    d=st.floats(0.01, 10.0),
    t=st.floats(0.0, 1.0),
    value=st.floats(1e-3, 1e3),
)
def test_constants_are_fixed_points_on_both_paths(domain, path, d, t, value):
    f = np.full(domain.n, value)
    with heat_path(domain.n, path):
        got = heat_apply(f, d, t, domain)
    assert np.abs(got - value).max() <= 1e-13 * value


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("t", [0.0, 0.1])
def test_a_stack_of_fields_diffuses_row_by_row_bit_for_bit(path, t):
    domain = Domain(L=1.0, n=24)
    rows = np.random.default_rng(5).standard_normal((3, domain.n))
    with heat_path(domain.n, path):
        got = heat_apply(rows, 0.8, t, domain)
        assert got.shape == rows.shape
        for row, out in zip(rows, got):
            assert np.array_equal(out, heat_apply(row, 0.8, t, domain))
    with pytest.raises(ValueError, match="shape"):
        heat_apply(rows[:, 1:], 0.8, t, domain)


@settings(max_examples=40, deadline=None)
@given(domain=domains(), r=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_a_stack_of_gradient_energies_equals_its_rows_bit_for_bit(domain, r, seed):
    rng = np.random.default_rng(seed)
    rows = np.exp(rng.uniform(-2.0, 2.0) * rng.standard_normal((r, domain.n)))
    got = gradient_energy(rows, domain)
    singles = [gradient_energy(row, domain) for row in rows]
    assert isinstance(got, np.ndarray) and got.shape == (r,)
    assert all(type(value) is float for value in singles)
    assert [value.hex() for value in got.tolist()] == [value.hex() for value in singles]
    bad = rows.copy()
    bad[-1, rng.integers(domain.n)] = 0.0
    with pytest.raises(ValueError, match="strictly positive"):
        gradient_energy(bad, domain)
    with pytest.raises(ValueError, match="shape"):
        gradient_energy(rows[:, 1:], domain)


def test_crossover_neighbours_take_the_expected_path():
    for n, dense in ((FFT_MIN_N - 1, True), (FFT_MIN_N, False), (FFT_MIN_N + 1, False)):
        with heat_path(n, None) as on_dense:
            assert on_dense is dense
            heat_apply(np.linspace(0.0, 1.0, n), 1.0, 0.1, Domain(L=1.0, n=n))


@pytest.mark.parametrize("modes", [BAND_MAX_MODES, BAND_MAX_MODES + 1])
def test_band_limit_neighbours_take_the_expected_path(modes):
    domain = Domain(L=1.0, n=FFT_MIN_N)
    rows = np.random.default_rng(modes).standard_normal((2, domain.n))
    decay = np.zeros(domain.n)
    decay[:modes] = np.linspace(1.0, spectral.HEAT_DECAY_FLOOR, modes)
    assert spectral._live_modes(decay) == modes
    on_band = modes <= BAND_MAX_MODES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_operators", fails("built the dense transform matrices"))
        if on_band:
            mp.setattr(np.fft, "rfft", fails("ran an rfft on the band path"))
        else:
            mp.setattr(spectral, "_band", fails("built a cosine band on the FFT path"))
        counted = spectral._heat_rows(rows, decay, domain)
        given_k = spectral._heat_rows(rows, decay, domain, modes)
    assert np.array_equal(counted, given_k)
    for row, got in zip(rows, counted):
        expected = cosine_flow(row, decay, domain)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(row).max()


@pytest.mark.parametrize("d, t", [(1.0, 0.005), (0.5, 0.005), (1.0, 0.5)])
def test_prime_wide_grid_runs_the_band_path(d, t):
    """n - 1 = 263 is prime, where numpy.fft would fall back to Bluestein."""
    domain = Domain(L=1.0, n=264)
    rows = np.random.default_rng(7).standard_normal((3, domain.n))
    decay, modes = spectral._cached_heat_flow(d, t, domain)
    assert modes <= BAND_MAX_MODES
    with heat_path(domain.n, None) as dense:
        assert not dense
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.fft, "rfft", fails("ran an rfft on the band path"))
            got = heat_apply(rows, d, t, domain)
            singles = [heat_apply(row, d, t, domain) for row in rows]
    for row, out, single in zip(rows, got, singles):
        assert np.array_equal(out, single)
        assert np.abs(out - dense_reference(row, d, t, domain)).max() <= 1e-13 * np.abs(row).max()


def test_band_basis_is_cached_and_read_only():
    band = spectral._band(FFT_MIN_N, 9)
    assert spectral._band(FFT_MIN_N, 9) is band
    assert band.cos.shape == (FFT_MIN_N, 9) and band.weight.shape == (9,)
    for array in (band.cos, band.eps, band.weight):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 2.0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, FFT_MIN_N - 1),
    d=st.floats(0.01, 10.0),
    t=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_products_equal_their_matmul_form_bit_for_bit(n, d, t, seed):
    """The dense path's products, held against the same matrices applied with @."""
    domain = Domain(L=1.0, n=n)
    ops = spectral._operators(domain)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-8, 9, size=(3, 1))
    decay = spectral._heat_decay(np.array([d, 0.5 * d, 2.0 * d])[:, None], t, domain)
    flows = spectral._heat_rows(rows, decay, domain)
    for row, scale, got in zip(rows, decay, flows):
        assert np.array_equal(got, ops.cos @ (scale * (ops.fwd @ row)))
    assert np.array_equal(to_modal(rows[0], domain), ops.fwd @ rows[0])
    assert np.array_equal(to_grid(rows[1], domain), ops.cos @ rows[1])
    positive = np.exp(rows[2] / np.abs(rows[2]).max())
    ratio = (ops.dcos @ (ops.fwd @ positive)) / positive
    assert gradient_energy(positive, domain) == float(ops.w @ (ratio * ratio))


def random_history(params: ModelParams, domain: Domain, rng) -> History:
    n_lags = max(lag_steps(params.tau_a, DT), lag_steps(params.tau_b, DT))
    return History(rng.uniform(0.1, 1.0, (n_lags + 1, 3, domain.n)), DT)


def reference_step(history: History, params: ModelParams, domain: Domain) -> np.ndarray:
    """The split step from the infection terms and one heat_apply per row."""
    k_a = lag_steps(params.tau_a, DT)
    k_b = lag_steps(params.tau_b, DT)
    u1, u2, u3 = history.lookup_arrays(0)
    lag_b = history.lookup_arrays(k_b)
    u3_lag = history.lookup_arrays(k_a)[2]
    r1 = infection_term_u1(u1, u3_lag, params, domain) - params.mu_m * u1
    r2 = params.H - params.beta_h * u1 * u2 - params.mu_h * u2
    r3 = infection_term_u3(lag_b[0], lag_b[1], params, domain) - params.rho_h * u3
    return np.stack([
        heat_apply(u1 + DT * r1, params.d_m, DT, domain),
        heat_apply(u2 + DT * r2, params.d_h, DT, domain),
        heat_apply(u3 + DT * r3, params.d_h, DT, domain),
    ])


@st.composite
def model_params(draw):
    # Lag counts 0..3 cover tau_b > 0, tau_b > tau_a and tau_a = tau_b = 0.
    k_a, k_b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return ModelParams(**{
        **WORKED,
        "d_m": draw(st.floats(0.05, 5.0)),
        "d_h": draw(st.floats(0.05, 5.0)),
        "tau_a": k_a * DT,
        "tau_b": k_b * DT,
    })


@settings(max_examples=40, deadline=None)
@given(
    params=model_params(),
    domain=domains(),
    path=heat_paths,
    seed=st.integers(0, 2**32 - 1),
)
def test_step_matches_reference_step(params, domain, path, seed):
    rng = np.random.default_rng(seed)
    history = random_history(params, domain, rng)
    with heat_path(domain.n, path) as dense:
        for _ in range(3):
            expected = reference_step(history, params, domain)
            got = step(history, params, domain, DT)
            if dense:
                assert np.array_equal(got, expected)
            else:
                assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
            assert np.array_equal(history.lookup_arrays(0), got)


def test_parameter_sets_do_not_share_a_plan():
    domain = Domain(L=1.0, n=16)
    p1 = ModelParams(**{**WORKED, "tau_b": 0.1})
    p2 = dataclasses.replace(p1, d_m=3.0, tau_a=0.0)
    plan1 = integrator._step_plan(p1, domain, DT)
    plan2 = integrator._step_plan(p2, domain, DT)
    assert plan1 is not plan2
    assert (plan1.k_a, plan1.k_b, plan1.lag_rows) == (10, 2, (0, 1))
    assert (plan2.k_a, plan2.k_b, plan2.lag_rows) == (0, 2, (1,))
    assert not np.array_equal(plan1.decay[0], plan2.decay[0])
    for plan in (plan1, plan2):
        assert plan.modes == spectral._live_modes(plan.decay)
        assert plan.lag_modes == spectral._live_modes(plan.lag_decay)
    assert integrator._step_plan(dataclasses.replace(p1), domain, DT) is plan1

    rng = np.random.default_rng(3)
    h1 = random_history(p1, domain, rng)
    h2 = random_history(p2, domain, rng)
    for _ in range(4):  # interleaved, so a stale plan would show
        for params, history in ((p1, h1), (p2, h2)):
            expected = reference_step(history, params, domain)
            assert np.array_equal(step(history, params, domain, DT), expected)


def test_run_derives_lag_counts_once(monkeypatch):
    calls = []
    real = integrator.lag_steps
    monkeypatch.setattr(integrator, "lag_steps", lambda *a: calls.append(a) or real(*a))
    integrator._step_plan.cache_clear()
    params = ModelParams(**{**WORKED, "tau_b": 0.1})
    domain = Domain(L=1.0, n=16)
    config = SimConfig(params=params, domain=domain, dt=DT, t_end=0.5)
    traj = run(config, random_history(params, domain, np.random.default_rng(0)))
    assert len(traj.times) == 11
    assert len(calls) == 2  # tau_a and tau_b, when the plan is built


def test_run_looks_its_plan_up_once_and_steps_through_the_module(monkeypatch):
    """run hands step the plan it holds, and still calls integrator.step once a step."""
    plans, steps = [], []
    real_plan, real_step = integrator._step_plan, integrator.step
    monkeypatch.setattr(integrator, "_step_plan", lambda *a: plans.append(a) or real_plan(*a))
    monkeypatch.setattr(integrator, "step", lambda *a, **kw: steps.append(kw) or real_step(*a, **kw))
    params = ModelParams(**{**WORKED, "tau_b": 0.1})
    domain = Domain(L=1.0, n=16)
    config = SimConfig(params=params, domain=domain, dt=DT, t_end=0.5)
    traj = run(config, random_history(params, domain, np.random.default_rng(0)))
    plain = random_history(params, domain, np.random.default_rng(0))
    assert len(plans) == 1 and len(steps) == 10
    assert all(kw["plan"] is real_plan(params, domain, DT) for kw in steps)
    for _ in range(10):  # the positional form looks the same plan up itself
        real_step(plain, params, domain, DT)
    assert np.array_equal(plain.latest, traj.final_state)


def box_window(params: ModelParams, domain: Domain, rng) -> list[np.ndarray]:
    """A smooth window of states, oldest first, inside the box and off its walls."""
    n_lags = max(lag_steps(params.tau_a, DT), lag_steps(params.tau_b, DT))
    ceilings = bound_vector(params)
    return [
        np.array([smooth_box_rows(domain, rng, 1, m)[0] for m in ceilings]) for _ in range(n_lags + 1)
    ]


def trajectory_bytes(traj) -> list[bytes]:
    arrays = (traj.times, traj.dist_endemic, traj.dist_dfe, traj.comp_min, traj.comp_max,
              traj.lyapunov, traj.checkpoints, traj.final_state)
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@settings(max_examples=40, deadline=None)
@given(
    k_a=st.integers(0, 6),
    k_b=st.integers(0, 6),
    n=st.integers(8, 40),
    path=heat_paths,
    certify=st.booleans(),
    n_steps=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_hands_each_step_the_rows_it_would_smooth_alone(k_a, k_b, n, path, certify, n_steps, seed):
    """Smoothing a block of steps at once moves no bit of the run."""
    params = ModelParams(**{**WORKED, "tau_a": k_a * DT, "tau_b": k_b * DT})
    domain = Domain(L=1.0, n=n)
    block = integrator._step_plan(params, domain, DT).block
    if n_steps % block == 0:
        n_steps += 1  # a short last block
    config = SimConfig(
        params=params, domain=domain, dt=DT, t_end=n_steps * DT, snapshot_every=3, certify=certify
    )
    window = box_window(params, domain, np.random.default_rng(seed))
    counts = []
    real_smooth, real_step = integrator._smooth_delayed, integrator.step
    with heat_path(n, path) as dense, pytest.MonkeyPatch.context() as mp:
        if not dense:  # certification's gradients and mass defect run dense on every grid
            mp.setattr(spectral, "_operators", real_operators)
        mp.setattr(integrator, "_smooth_delayed", lambda *a: counts.append(a[-1]) or real_smooth(*a))
        blocked = run(config, History(window, DT))
        block_counts = counts[:]
        alone = History(window, DT)
        states = [alone.latest] + [step(alone, params, domain, DT).copy() for _ in range(n_steps)]
        mp.setattr(integrator, "step", lambda *a, smoothed, **kw: real_step(*a, **kw))
        looped = run(config, History(window, DT))
    assert trajectory_bytes(blocked) == trajectory_bytes(looped)
    assert [t for t, _ in blocked.snapshots] == [t for t, _ in looped.snapshots]
    for (t, got), (_, expected) in zip(blocked.snapshots, looped.snapshots):
        assert got.tobytes() == expected.tobytes() == states[round(t / DT)].tobytes()
    if k_a or k_b:
        assert block_counts == [block] * (n_steps // block) + [n_steps % block]
    else:
        assert block_counts == []


@pytest.mark.parametrize("certify", [False, True])
@pytest.mark.parametrize("tau_a, calls", [(0.5, math.ceil(60 / 25)), (0.0, 0)])
def test_one_smoothing_call_per_block_of_steps(monkeypatch, tau_a, calls, certify):
    """At n = 48 with 100 lags a block holds 25 steps; with no delay nothing is smoothed.

    The full 25-row blocks, smoothed in one dense product, move no bit of the
    run against steps that each smooth their own rows.
    """
    params = ModelParams(**{**WORKED, "tau_a": tau_a})
    domain = Domain(L=1.0, n=48)
    dt = 0.005
    assert integrator._step_plan(params, domain, dt).block == 25
    counts = []
    real_smooth, real_step = integrator._smooth_delayed, integrator.step
    monkeypatch.setattr(integrator, "_smooth_delayed", lambda *a: counts.append(a[-1]) or real_smooth(*a))
    config = SimConfig(
        params=params, domain=domain, dt=dt, t_end=60 * dt, snapshot_every=7, certify=certify
    )
    window = [smooth_box_rows(domain, np.random.default_rng(k), 3) for k in range(101)]
    traj = run(config, History(window, dt))
    assert len(traj.times) == 61
    assert len(counts) == calls and sum(counts) == (60 if calls else 0)
    monkeypatch.setattr(integrator, "step", lambda *a, smoothed, **kw: real_step(*a, **kw))
    looped = run(config, History(window, dt))
    assert trajectory_bytes(traj) == trajectory_bytes(looped)
    assert [(t, s.tobytes()) for t, s in traj.snapshots] == [(t, s.tobytes()) for t, s in looped.snapshots]


def test_wide_run_builds_no_dense_operators():
    params = ModelParams(**{**WORKED, "tau_b": 0.1})
    domain = Domain(L=1.0, n=FFT_MIN_N)
    with heat_path(domain.n, None) as dense:
        assert not dense
        config = SimConfig(params=params, domain=domain, dt=DT, t_end=0.25)
        traj = run(config, random_history(params, domain, np.random.default_rng(1)))
    assert np.isfinite(traj.final_state).all()


def test_wide_simulate_runs_without_rfft_or_dense_operators():
    """The benchmark's wide shape: every flow of a plain run at n = 1024 takes the band."""
    params = ModelParams(**WORKED)
    domain = Domain(L=1.0, n=1024)
    dt = 0.005
    plan = integrator._step_plan(params, domain, dt)
    assert (plan.modes, plan.lag_modes) == (84, 9)
    config = SimConfig(params=params, domain=domain, dt=dt, t_end=0.05)
    window = np.array([smooth_box_rows(domain, np.random.default_rng(k), 3) for k in range(101)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "rfft", fails("ran an rfft on the band path"))
        mp.setattr(spectral, "_operators", fails("built the dense transform matrices"))
        traj = run(config, History(window, dt))
    assert len(traj.times) == 11 and traj.bounds_ok
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "BAND_MAX_MODES", 0)
        on_fft = run(config, History(window, dt))
    assert np.abs(traj.final_state - on_fft.final_state).max() <= 1e-13 * 2.0


# ------------------------------------------------------------ the decay floor


def raw_decay(d, t, domain: Domain) -> np.ndarray:
    """The heat factors without the floor, as np.exp gives them."""
    return np.exp(-d * t * spectral._eigenvalues(domain))


@st.composite
def kernel_times(draw, d: float, domain: Domain):
    """A time from the kernel floor up to where every mode k >= 1 underflows."""
    lo = spectral.min_resolvable_time(d, domain)
    hi = 800.0 / (d * (math.pi / domain.L) ** 2)
    return lo * (hi / lo) ** draw(st.floats(0.0, 1.0))


def around(t: float, spread: list[float]) -> np.ndarray:
    """t, then one time within 1.5 decades of it per entry of spread."""
    return np.array([t] + [t * 10.0 ** (3.0 * u - 1.5) for u in spread])


@st.composite
def decay_cases(draw):
    domain = draw(domains())
    d = draw(st.floats(0.01, 10.0))
    return domain, d, draw(kernel_times(d, domain))


def smooth_box_rows(domain: Domain, rng, count: int, ceiling: float = 2.0) -> np.ndarray:
    """count smooth fields with values in [0.1, 0.9] * ceiling, (count, n)."""
    rows = []
    for _ in range(count):
        g = random_smooth_field(domain, rng)
        g = (g - g.min()) / max(g.max() - g.min(), 1e-300)
        rows.append(ceiling * (0.1 + 0.8 * g))
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(case=decay_cases(), extra=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_heat_decay_is_the_raw_factor_or_zero_never_subnormal(case, extra):
    domain, d, t = case
    times = around(t, extra)
    for got, raw in (
        (spectral._heat_decay(d, t, domain), raw_decay(d, t, domain)),
        (spectral._heat_decay(d, times[:, None], domain), raw_decay(d, times[:, None], domain)),
    ):
        assert got.shape == raw.shape
        assert not np.any((got > 0.0) & (got < np.finfo(float).tiny))
        assert np.all((got == 0.0) | (got >= spectral.HEAT_DECAY_FLOOR))
        assert np.array_equal(got, np.where(raw < spectral.HEAT_DECAY_FLOOR, 0.0, raw))


@settings(max_examples=40, deadline=None)
@given(case=decay_cases())
def test_heat_apply_reads_a_cached_read_only_decay(case):
    domain, d, t = case
    cached, modes = spectral._cached_heat_flow(d, t, domain)
    assert spectral._cached_heat_flow(d, t, domain)[0] is cached
    assert modes == spectral._live_modes(cached) == np.count_nonzero(cached)
    assert not cached.flags.writeable
    assert np.array_equal(cached, spectral._heat_decay(d, t, domain))
    with pytest.raises(ValueError, match="read-only"):
        cached[0] = 2.0
    f = np.linspace(1.0, 2.0, domain.n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_heat_decay", None)  # a recomputation would fail
        got = heat_apply(f, d, t, domain)
    assert np.array_equal(got, spectral._heat_rows(f[None, :], cached, domain)[0])


@settings(max_examples=40, deadline=None)
@given(case=decay_cases(), path=heat_paths, seed=st.integers(0, 2**32 - 1))
def test_floor_moves_no_bit_of_heat_apply(case, path, seed):
    domain, d, t = case
    rows = smooth_box_rows(domain, np.random.default_rng(seed), 3)
    with heat_path(domain.n, path):
        got = heat_apply(rows, d, t, domain)
        raw = np.broadcast_to(raw_decay(d, t, domain), rows.shape)
        expected = np.asarray(spectral._heat_rows(rows, raw, domain))
    assert np.array_equal(got, expected)


@settings(max_examples=30, deadline=None)
@given(
    params=model_params(),
    domain=domains(),
    path=heat_paths,
    seed=st.integers(0, 2**32 - 1),
)
def test_floor_moves_no_bit_of_step(params, domain, path, seed):
    rng = np.random.default_rng(seed)
    n_lags = max(lag_steps(params.tau_a, DT), lag_steps(params.tau_b, DT))
    window = np.array([smooth_box_rows(domain, rng, 3) for _ in range(n_lags + 1)])
    floored, unfloored = History(window, DT), History(window, DT)
    try:
        with heat_path(domain.n, path), pytest.MonkeyPatch.context() as mp:
            integrator._step_plan.cache_clear()
            got = [step(floored, params, domain, DT).copy() for _ in range(3)]
            mp.setattr(integrator, "_heat_decay", raw_decay)
            integrator._step_plan.cache_clear()
            expected = [step(unfloored, params, domain, DT).copy() for _ in range(3)]
    finally:
        integrator._step_plan.cache_clear()  # no unfloored plan outlives the test
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def raw_mass_defect(d: float, times: np.ndarray, domain: Domain) -> float:
    """kernel_mass_defect's formula with its own unfloored np.exp factors."""
    ops = spectral._operators(domain)
    decay = ops.weight * np.exp(-d * times[:, None] * spectral._eigenvalues(domain)[None, :])
    col = ops.w * ((decay * (ops.cos.T @ ops.w)) @ ops.cos.T)
    return float(np.abs(col - ops.w).max() / ops.w.max())


@settings(max_examples=40, deadline=None)
@given(case=decay_cases(), extra=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_kernel_mass_defect_matches_its_unfloored_formula(case, extra):
    domain, d, t = case
    times = around(t, extra)
    assert spectral.kernel_mass_defect(d, times, domain) == raw_mass_defect(d, times, domain)
