"""Property tests for the two heat-flow paths and the step plan.

Grids below spectral.FFT_MIN_N run the heat flow as dense products, grids
at or above it through numpy.fft.  Small grids are pushed onto the FFT
path by lowering FFT_MIN_N, so both paths are exercised cheaply; the
grids next to the real crossover are exercised as they stand.
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
    heat_apply,
    infection_term_u1,
    infection_term_u3,
    lag_steps,
    run,
    step,
)
from dengue_rd.spectral import FFT_MIN_N

from conftest import WORKED

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


def test_crossover_neighbours_take_the_expected_path():
    for n, fft in ((FFT_MIN_N - 1, False), (FFT_MIN_N, True), (FFT_MIN_N + 1, True)):
        with heat_path(n, None) as use_fft:
            assert use_fft is fft
            heat_apply(np.linspace(0.0, 1.0, n), 1.0, 0.1, Domain(L=1.0, n=n))


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
