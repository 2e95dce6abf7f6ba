"""Property tests for the two heat-flow paths and the step plan.

Grids below spectral.FFT_MIN_N run the heat flow as dense products, grids
at or above it through numpy.fft.  Small grids are pushed onto the FFT
path by lowering FFT_MIN_N, so both paths are exercised cheaply; the
grids next to the real crossover are exercised as they stand.  Heat
factors below spectral.HEAT_DECAY_FLOOR are zeroed, and the flows are
held bit for bit against the same flows built from raw np.exp factors.
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
    gradient_energy,
    heat_apply,
    infection_term_u1,
    infection_term_u3,
    lag_steps,
    run,
    step,
    to_grid,
    to_modal,
)
from dengue_rd.spectral import FFT_MIN_N

from conftest import WORKED, random_smooth_field

DT = 0.05

grid_sizes = st.one_of(
    st.integers(8, 40), st.sampled_from([FFT_MIN_N - 1, FFT_MIN_N, FFT_MIN_N + 65])
)
# None keeps the module's crossover; 8 sends every grid through the FFT.
fft_from = st.sampled_from([None, 8])


@contextmanager
def heat_path(n: int, fft_min_n: int | None):
    """Sets the crossover; on the FFT path, building dense operators fails."""
    with pytest.MonkeyPatch.context() as mp:
        if fft_min_n is not None:
            mp.setattr(spectral, "FFT_MIN_N", fft_min_n)
        use_fft = n >= spectral.FFT_MIN_N
        if use_fft:
            def no_dense(domain):
                raise AssertionError("the FFT path built the dense transform matrices")

            mp.setattr(spectral, "_operators", no_dense)
        yield use_fft


def dense_reference(f: np.ndarray, d: float, t: float, domain: Domain) -> np.ndarray:
    """The cosine-basis heat flow, written out from the trapezoid-consistent DCT-I."""
    n, L = domain.n, domain.L
    m = n - 1
    k = np.arange(n)
    basis = np.cos(np.pi * (np.outer(k, k) % (2 * m)) / m)  # (mode, grid point)
    c = np.where((k == 0) | (k == m), 1.0, 2.0)
    eps = np.ones(n)
    eps[0] = eps[-1] = 0.5
    a = c / m * (basis @ (eps * f))
    return (a * np.exp(-d * t * (k * math.pi / L) ** 2)) @ basis


@st.composite
def domains(draw):
    return Domain(L=draw(st.sampled_from([1.0, 2.5])), n=draw(grid_sizes))


@settings(max_examples=40, deadline=None)
@given(
    domain=domains(),
    fft_min_n=fft_from,
    d=st.floats(0.01, 10.0),
    t=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_heat_apply_matches_dense_reference(domain, fft_min_n, d, t, seed):
    f = np.random.default_rng(seed).standard_normal(domain.n)
    with heat_path(domain.n, fft_min_n):
        got = heat_apply(f, d, t, domain)
    if t == 0.0:
        assert np.array_equal(got, f) and got is not f
        return
    scale = np.abs(f).max()
    assert np.abs(got - dense_reference(f, d, t, domain)).max() <= 1e-13 * scale


@settings(max_examples=25, deadline=None)
@given(
    domain=domains(),
    fft_min_n=fft_from,
    d=st.floats(0.01, 10.0),
    t=st.floats(0.0, 1.0),
    value=st.floats(1e-3, 1e3),
)
def test_constants_are_fixed_points_on_both_paths(domain, fft_min_n, d, t, value):
    f = np.full(domain.n, value)
    with heat_path(domain.n, fft_min_n):
        got = heat_apply(f, d, t, domain)
    assert np.abs(got - value).max() <= 1e-13 * value


@pytest.mark.parametrize("fft_min_n", [None, 8])
@pytest.mark.parametrize("t", [0.0, 0.1])
def test_a_stack_of_fields_diffuses_row_by_row_bit_for_bit(fft_min_n, t):
    domain = Domain(L=1.0, n=24)
    rows = np.random.default_rng(5).standard_normal((3, domain.n))
    with heat_path(domain.n, fft_min_n):
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
    for n, fft in ((FFT_MIN_N - 1, False), (FFT_MIN_N, True), (FFT_MIN_N + 1, True)):
        with heat_path(n, None) as use_fft:
            assert use_fft is fft
            heat_apply(np.linspace(0.0, 1.0, n), 1.0, 0.1, Domain(L=1.0, n=n))


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
    """The split step from the public infection terms and one heat_apply per row."""
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
    fft_min_n=fft_from,
    seed=st.integers(0, 2**32 - 1),
)
def test_step_matches_reference_step(params, domain, fft_min_n, seed):
    rng = np.random.default_rng(seed)
    history = random_history(params, domain, rng)
    with heat_path(domain.n, fft_min_n) as use_fft:
        for _ in range(3):
            expected = reference_step(history, params, domain)
            got = step(history, params, domain, DT)
            if use_fft:
                assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
            else:
                assert np.array_equal(got, expected)
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


def test_wide_run_builds_no_dense_operators():
    params = ModelParams(**{**WORKED, "tau_b": 0.1})
    domain = Domain(L=1.0, n=FFT_MIN_N)
    with heat_path(domain.n, None) as use_fft:
        assert use_fft
        config = SimConfig(params=params, domain=domain, dt=DT, t_end=0.25)
        traj = run(config, random_history(params, domain, np.random.default_rng(1)))
    assert np.isfinite(traj.final_state).all()


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
    cached = spectral._cached_heat_decay(d, t, domain)
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
@given(case=decay_cases(), fft_min_n=fft_from, seed=st.integers(0, 2**32 - 1))
def test_floor_moves_no_bit_of_heat_apply(case, fft_min_n, seed):
    domain, d, t = case
    rows = smooth_box_rows(domain, np.random.default_rng(seed), 3)
    with heat_path(domain.n, fft_min_n):
        got = heat_apply(rows, d, t, domain)
        raw = np.broadcast_to(raw_decay(d, t, domain), rows.shape)
        expected = np.asarray(spectral._heat_rows(rows, raw, domain))
    assert np.array_equal(got, expected)


@settings(max_examples=30, deadline=None)
@given(
    params=model_params(),
    domain=domains(),
    fft_min_n=fft_from,
    seed=st.integers(0, 2**32 - 1),
)
def test_floor_moves_no_bit_of_step(params, domain, fft_min_n, seed):
    rng = np.random.default_rng(seed)
    n_lags = max(lag_steps(params.tau_a, DT), lag_steps(params.tau_b, DT))
    window = np.array([smooth_box_rows(domain, rng, 3) for _ in range(n_lags + 1)])
    floored, unfloored = History(window, DT), History(window, DT)
    try:
        with heat_path(domain.n, fft_min_n), pytest.MonkeyPatch.context() as mp:
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
