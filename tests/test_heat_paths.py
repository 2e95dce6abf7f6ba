"""Property tests for the two heat-flow paths and the step plan.

The heat flow runs as products with the transform pair of the first K
cosine modes, spectral._basis: K = n on grids below spectral.FFT_MIN_N,
and on wider grids the band, a flow's K live modes, when K is at most
spectral.BAND_MAX_MODES.  Any other flow runs through numpy.fft.  Small
grids are pushed onto the band or the FFT path by lowering FFT_MIN_N and
setting BAND_MAX_MODES, so every path is exercised cheaply; the grids
next to the real crossovers are exercised as they stand.  Heat factors
below spectral.HEAT_DECAY_FLOOR are zeroed, and the flows are held bit
for bit against the same flows built from raw np.exp factors.  The band
keeps the fewest modes its tail bound allows, is held to the all-mode
series within that bound, and no grid below FFT_MIN_N reads its mode
count.
"""

import dataclasses
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    to_modal,
)
from dengue_rd.spectral import BAND_MAX_MODES, FFT_MIN_N

from conftest import (
    WORKED,
    infection_term_u1,
    infection_term_u3,
    random_smooth_field,
    run_block_steps,
    written_out_step,
)

DT = 0.05

real_basis = spectral._basis

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


def guarded_basis(domain: Domain, modes: int):
    """_basis, failing on more than BAND_MAX_MODES modes of a grid of FFT_MIN_N points or more."""
    if domain.n >= spectral.FFT_MIN_N and modes > spectral.BAND_MAX_MODES:
        raise AssertionError(f"the heat flow built {modes} cosine modes of a {domain.n}-point grid")
    return real_basis(domain, modes)


def clear_plans():
    """Drops every cached heat flow plan, so the next one resolves under the crossovers in force."""
    spectral._cached_heat_flow.cache_clear()
    integrator._step_plan.cache_clear()


@contextmanager
def heat_path(n: int, path: str | None):
    """Sets the crossovers for path; off a path, its transform fails.

    Yields True when grids of n points keep all n modes.  Off that,
    _basis fails on more than BAND_MAX_MODES modes, so a forced "fft"
    path fails on any basis; a forced "band" path fails on numpy.fft.rfft.
    Plans resolve their path once, so the cached ones are dropped on the
    way in and on the way out.
    """
    clear_plans()
    try:
        with pytest.MonkeyPatch.context() as mp:
            if path is not None:
                mp.setattr(spectral, "FFT_MIN_N", 8)
                mp.setattr(spectral, "BAND_MAX_MODES", n if path == "band" else 0)
                if path == "band":
                    mp.setattr(np.fft, "rfft", fails("ran an rfft on the band path"))
            mp.setattr(spectral, "_basis", guarded_basis)
            yield n < spectral.FFT_MIN_N
    finally:
        clear_plans()


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


# ------------------------------------------- mass of every flow a run applies

# The largest |integral of P f - integral of f| / integral of |f| a planned
# flow P may show on a field f.  Over 20 000 draws of run_configs, grids of 8
# to 2048 points on all three paths, the worst read 2.6e-14; a mode 0 factor
# off by 1e-12 reads 1e-12.
MASS_TOL = 1e-13


@st.composite
def run_configs(draw):
    """A config SimConfig accepts, and the heat path to plan it on.

    Every grid from 8 to 2048 points keeps the module's crossovers, so it
    takes the dense, band or FFT path as a run would; the forced band and
    FFT paths take grids of at most FFT_MIN_N + 65 points.  dt runs from
    1e-6 of the stability bound up to it, and each delay from zero to
    1e6 steps, below the kernel's resolvable floor and far above it.
    """
    path = draw(heat_paths)
    domain = Domain(L=draw(st.sampled_from([1.0, 2.5])), n=draw(grid_sizes if path else st.integers(8, 2048)))
    params = ModelParams(**{**WORKED, "d_m": draw(st.floats(0.01, 10.0)), "d_h": draw(st.floats(0.01, 10.0))})
    # A delay only lowers the box ceiling of u3, so dt stays under the bound.
    dt = integrator.stability_dt_bound(params) * 10.0 ** -draw(st.floats(0.0, 6.0))
    lags = st.one_of(st.just(0), st.integers(1, 4), st.integers(1, 10**6))
    params = dataclasses.replace(params, tau_a=draw(lags) * dt, tau_b=draw(lags) * dt)
    return SimConfig(params=params, domain=domain, dt=dt, t_end=0.0, perturb_amplitude=0.0), path


def run_flow_mass_defect(config: SimConfig, rng) -> float:
    """The worst relative mass defect of the flows a run of config applies.

    Each flow diffuses fields of uniform random values in [0, 1), so every
    cosine mode carries weight and mode 0 carries the mass: the step
    plan's flow over dt, its delays' flow over their lag times, and
    heat_apply's cached plan over each nonzero delay, as eval_V applies it.
    """
    params, domain = config.params, config.domain
    plan = integrator._step_plan(params, domain, config.dt)
    w = domain.trapezoid_weights
    rows = rng.uniform(0.0, 1.0, (3, domain.n))
    pairs = [(rows, plan.flow.apply(rows))]
    if plan.lag_flow is not None:
        lagged = rows[: len(plan.lag_rows)]
        pairs.append((lagged, plan.lag_flow.apply(lagged)))
    for d, tau in ((params.d_m, params.tau_a), (params.d_h, params.tau_b)):
        if tau > 0.0:
            pairs.append((rows, heat_apply(rows, d, tau, domain)))
    return max(float(np.max(np.abs(out @ w - f @ w) / (np.abs(f) @ w))) for f, out in pairs)


@settings(max_examples=50, deadline=None)
@given(case=run_configs(), seed=st.integers(0, 2**32 - 1))
def test_every_flow_a_run_applies_conserves_trapezoid_mass(case, seed):
    config, path = case
    try:
        with heat_path(config.domain.n, path):
            defect = run_flow_mass_defect(config, np.random.default_rng(seed))
    finally:
        spectral._basis.cache_clear()  # no 2048-point pair outlives the example
    assert defect <= MASS_TOL


def mode_zero_times(factor: float):
    """_heat_decay with the factor of mode 0, exactly 1 in the flow, multiplied by factor."""
    real = spectral._heat_decay

    def decay(d, t, domain):
        out = real(d, t, domain)
        out[..., 0] *= factor
        return out

    return decay


# Each case's step flow takes one path: dense on a small grid, and at 2048
# points the band over a long dt and the FFT over a short one.
MASS_CASES = [(48, 0.05, "dense"), (2048, 0.05, "band"), (2048, 1e-7, "fft")]


@pytest.mark.parametrize("n, dt, taken", MASS_CASES)
@pytest.mark.parametrize("factor", [1.0 - 1e-12, 0.0])
def test_the_mass_property_fails_when_mode_zero_is_off_or_dropped(n, dt, taken, factor):
    params = ModelParams(**{**WORKED, "tau_b": 3 * dt})
    config = SimConfig(params=params, domain=Domain(L=1.0, n=n), dt=dt, t_end=0.0, perturb_amplitude=0.0)
    defects = []
    try:
        for mutate in (False, True):
            with heat_path(n, None), pytest.MonkeyPatch.context() as mp:
                if mutate:
                    for module in (spectral, integrator):
                        mp.setattr(module, "_heat_decay", mode_zero_times(factor))
                flow = integrator._step_plan(params, config.domain, dt).flow
                defects.append(run_flow_mass_defect(config, np.random.default_rng(n)))
    finally:
        spectral._basis.cache_clear()
    on = "fft" if flow.fwd is None else "dense" if flow.modes == n else "band"
    assert on == taken
    assert defects[0] <= MASS_TOL < defects[1]


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
    for value in (0.0, np.nan):
        bad = rows.copy()
        bad[-1, rng.integers(domain.n)] = value
        with pytest.raises(ValueError, match="strictly positive"):
            gradient_energy(bad, domain)
    with pytest.raises(ValueError, match="shape"):
        gradient_energy(rows[:, 1:], domain)


def test_crossover_neighbours_take_the_expected_path():
    for n, dense in ((FFT_MIN_N - 1, True), (FFT_MIN_N, False), (FFT_MIN_N + 1, False)):
        with heat_path(n, None) as on_dense:
            assert on_dense is dense
            heat_apply(np.linspace(0.0, 1.0, n), 1.0, 0.1, Domain(L=1.0, n=n))


def band_tail(decay: np.ndarray, modes: int) -> float:
    """2 sum_{k >= modes} decay_k, summed exactly: the band's bound on what it leaves out."""
    return 2.0 * math.fsum(decay[modes:])


@pytest.mark.parametrize("modes", [BAND_MAX_MODES, BAND_MAX_MODES + 1])
def test_band_limit_neighbours_take_the_expected_path(modes):
    """Decays whose tail rule keeps exactly BAND_MAX_MODES modes, and one more.

    Each mode from K on has a nonzero factor, but together they stay under
    the tail bound, so the band leaves them out.
    """
    domain = Domain(L=1.0, n=FFT_MIN_N)
    rows = np.random.default_rng(modes).standard_normal((2, domain.n))
    decay = np.full(domain.n, 1e-20)
    decay[:modes] = np.geomspace(1.0, 2.0**-50, modes)
    assert band_tail(decay, modes) <= 2.0**-53 < band_tail(decay, modes - 1)
    assert spectral._live_modes(decay) == modes
    on_band = modes <= BAND_MAX_MODES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_basis", guarded_basis)
        if on_band:
            mp.setattr(np.fft, "rfft", fails("ran an rfft on the band path"))
        flow = spectral._heat_flow(decay, domain)
        counted = flow.apply(rows)
    assert (flow.fwd is not None) is on_band
    assert flow.modes == (modes if on_band else domain.n)
    for row, got in zip(rows, counted):
        expected = cosine_flow(row, decay, domain)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(row).max()


@pytest.mark.parametrize("d, t", [(1.0, 0.005), (0.5, 0.005), (1.0, 0.5)])
def test_prime_wide_grid_runs_the_band_path(d, t):
    """n - 1 = 263 is prime, where numpy.fft would fall back to Bluestein."""
    domain = Domain(L=1.0, n=264)
    rows = np.random.default_rng(7).standard_normal((3, domain.n))
    assert spectral._live_modes(spectral._heat_decay(d, t, domain)) <= BAND_MAX_MODES
    with heat_path(domain.n, None) as dense:
        assert not dense
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.fft, "rfft", fails("ran an rfft on the band path"))
            got = heat_apply(rows, d, t, domain)
            singles = [heat_apply(row, d, t, domain) for row in rows]
    for row, out, single in zip(rows, got, singles):
        assert np.array_equal(out, single)
        assert np.abs(out - dense_reference(row, d, t, domain)).max() <= 1e-13 * np.abs(row).max()


def test_basis_is_cached_and_read_only():
    domain = Domain(L=1.0, n=FFT_MIN_N)
    fwd, cos = spectral._basis(domain, 9)
    assert spectral._basis(domain, 9)[0] is fwd
    assert fwd.shape == (9, FFT_MIN_N) and cos.shape == (FFT_MIN_N, 9)
    for array in (fwd, cos):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 2.0
    small = Domain(L=1.0, n=24)
    ops, (fwd, cos) = spectral._operators(small), spectral._basis(small, 24)
    assert ops.fwd is fwd and ops.cos is cos


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(8, 1100), st.sampled_from([FFT_MIN_N - 1, FFT_MIN_N, 1024])),
    L=st.sampled_from([1.0, 2.5]),
    data=st.data(),
)
def test_basis_is_the_leading_modes_of_the_dense_pair_bit_for_bit(n, L, data):
    """K modes are the first K columns of the dense basis and rows of its forward matrix.

    The dense pair itself is held to its entrywise expression, in the
    operand order that every small-grid byte rests on.
    """
    modes = data.draw(st.integers(1, min(n, BAND_MAX_MODES + 1)), label="modes")
    domain = Domain(L=L, n=n)
    fwd, cos = spectral._basis.__wrapped__(domain, modes)
    dense_fwd, dense_cos = spectral._basis.__wrapped__(domain, n)
    k = np.arange(n)
    entry_cos = np.cos(np.outer(domain.grid, k * math.pi / L))
    eps = np.where((k == 0) | (k == n - 1), 0.5, 1.0)
    entry_fwd = (2.0 * eps / (n - 1))[:, None] * (entry_cos.T * eps)
    assert dense_cos.tobytes() == entry_cos.tobytes()
    assert dense_fwd.tobytes(order="F") == entry_fwd.tobytes(order="F")
    assert fwd.shape == (modes, n) and cos.shape == (n, modes)
    # The dense path's bytes rest on this order: products sum by it.
    assert fwd.flags.f_contiguous and dense_fwd.flags.f_contiguous
    assert cos.flags.c_contiguous and dense_cos.flags.c_contiguous
    assert fwd.tobytes(order="F") == dense_fwd[:modes].tobytes(order="F")
    assert cos.tobytes() == dense_cos[:, :modes].tobytes()


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
    flows = spectral._heat_flow(decay, domain).apply(rows)
    for row, scale, got in zip(rows, decay, flows):
        assert np.array_equal(got, ops.cos @ (scale * (ops.fwd @ row)))
    assert np.array_equal(to_modal(rows[0], domain), ops.fwd @ rows[0])
    positive = np.exp(rows[2] / np.abs(rows[2]).max())
    ratio = (ops.dcos @ (ops.fwd @ positive)) / positive
    assert gradient_energy(positive, domain) == float(domain.trapezoid_weights @ (ratio * ratio))


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
    assert not np.array_equal(plan1.flow.decay[0], plan2.flow.decay[0])
    for plan in (plan1, plan2):
        assert plan.flow.decay.shape == (3, domain.n, 1)
        assert plan.lag_flow.decay.shape == (len(plan.lag_rows), domain.n, 1)
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


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(8, 300), st.just(1024)),
    path=heat_paths,
    lags=st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
    k=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    d=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
    b=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_planned_step_writes_the_written_out_step_into_its_slot(n, path, lags, k, d, b, seed):
    """run's form of step, plan and workspace, against the per-call form, byte for byte.

    The new state is the history's next ring slot, read-only, and every
    other slot keeps its state, one lag older.
    """
    (on_a, on_b), (k_a, k_b) = lags, k
    params = ModelParams(
        **{**WORKED, "d_m": d[0], "d_h": d[1], "b": b, "tau_a": on_a * k_a * DT, "tau_b": on_b * k_b * DT}
    )
    domain = Domain(L=1.0, n=n)
    rng = np.random.default_rng(seed)
    n_lags = max(lag_steps(params.tau_a, DT), lag_steps(params.tau_b, DT))
    window = np.array([smooth_box_rows(domain, rng, 3) for _ in range(n_lags + 1)])
    planned, written = History(window, DT), History(window, DT)
    try:
        with heat_path(n, path):
            plan = integrator._step_plan(params, domain, DT)
            work = integrator._Workspace.of(plan, n)
            for _ in range(3):
                before = [planned.lookup(j) for j in range(n_lags + 1)]
                got = step(planned, params, domain, DT, plan=plan, work=work)
                expected = written_out_step(written, params, domain, DT)
                assert got.tobytes() == expected.tobytes()
                assert np.shares_memory(got, planned.lookup_arrays(0))
                assert not got.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    got[0, 0] = 0.0
                for j in range(n_lags):
                    assert planned.lookup(j + 1).tobytes() == before[j].tobytes()
    finally:
        spectral._basis.cache_clear()  # the forced band caches bases no run uses


def plan_arrays(plan) -> list[np.ndarray]:
    """Every array a step plan or a heat flow plan holds."""
    if isinstance(plan, spectral._HeatFlow):
        return [a for a in (plan.fwd, plan.cos, plan.decay) if a is not None]
    flows = [f for f in (plan.flow, plan.lag_flow) if f is not None]
    return [plan.loss] + [a for flow in flows for a in plan_arrays(flow)]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", [24, FFT_MIN_N + 8])
def test_every_array_a_cached_plan_holds_is_read_only(path, n):
    domain = Domain(L=1.0, n=n)
    params = ModelParams(**{**WORKED, "tau_b": 0.1})
    with heat_path(n, path):
        plans = [integrator._step_plan(params, domain, DT), spectral._cached_heat_flow(0.7, 0.3, domain)]
        arrays = [a for plan in plans for a in plan_arrays(plan)]
    assert len(arrays) >= 4
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 2.0


def test_heat_path_resolves_plans_under_its_crossovers():
    """The plans cached outside heat_path are not those its forced path uses."""
    domain = Domain(L=1.0, n=24)
    assert spectral._cached_heat_flow(1.0, 0.1, domain).fwd is not None
    with heat_path(domain.n, "fft"):
        assert spectral._cached_heat_flow(1.0, 0.1, domain).fwd is None
        assert integrator._step_plan(ModelParams(**WORKED), domain, DT).flow.fwd is None
    assert spectral._cached_heat_flow(1.0, 0.1, domain).fwd is not None
    assert integrator._step_plan(ModelParams(**WORKED), domain, DT).flow.fwd is not None


@pytest.mark.parametrize("n", [16, FFT_MIN_N + 8])
def test_histories_stepped_alternately_equal_their_solo_runs(n):
    """Two runs' states, stepped in turn through one cached plan, keep the bytes of each run alone."""
    params = ModelParams(**{**WORKED, "tau_b": 0.1})
    domain = Domain(L=1.0, n=n)
    config = SimConfig(params=params, domain=domain, dt=DT, t_end=12 * DT, snapshot_every=1)
    windows = [box_window(params, domain, np.random.default_rng(seed)) for seed in (1, 2)]
    solo = [[s.tobytes() for _, s in run(config, History(w, DT)).snapshots] for w in windows]
    plan = integrator._step_plan(params, domain, DT)
    for planned in (True, False):  # run's form, and step's own plan and workspace
        histories = [History(w, DT) for w in windows]
        works = [integrator._Workspace.of(plan, n) for _ in windows]
        states = [[h.latest.tobytes()] for h in histories]
        for _ in range(12):
            for h, work, kept in zip(histories, works, states):
                form = {"plan": plan, "work": work} if planned else {}
                kept.append(step(h, params, domain, DT, **form).tobytes())
        assert states == solo


@pytest.mark.parametrize("n", [48, 1024])
def test_a_planned_run_needs_no_basis_and_no_flow_cache(n):
    """Once run's plan exists, its steps resolve nothing: _basis and the flow cache may fail."""
    params = ModelParams(**WORKED)
    domain = Domain(L=1.0, n=n)
    dt = 0.005
    config = SimConfig(params=params, domain=domain, dt=dt, t_end=10 * dt, snapshot_every=5)
    window = np.array([smooth_box_rows(domain, np.random.default_rng(k), 3) for k in range(101)])
    first = run(config, History(window, dt))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_basis", fails("built a transform pair"))
        mp.setattr(spectral, "_cached_heat_flow", fails("looked a flow up"))
        again = run(config, History(window, dt))
    assert len(again.times) == 11
    assert trajectory_bytes(again) == trajectory_bytes(first)


def box_window(params: ModelParams, domain: Domain, rng, dt: float = DT) -> list[np.ndarray]:
    """A smooth window of states, oldest first, inside the box and off its walls."""
    n_lags = max(lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt))
    ceilings = bound_vector(params)
    return [
        np.array([smooth_box_rows(domain, rng, 1, m)[0] for m in ceilings]) for _ in range(n_lags + 1)
    ]


def trajectory_bytes(traj) -> list[bytes]:
    arrays = (traj.times, traj.dist_endemic, traj.dist_dfe, traj.comp_min, traj.comp_max,
              traj.lyapunov, traj.final_state)
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def smoothing_counts(n_steps: int, block: int, smooth: int) -> list[int]:
    """The steps each of run's smoothing calls covers: every block in calls of up to smooth steps."""
    counts = []
    for first in range(0, n_steps, block):
        size = min(block, n_steps - first)
        counts += [min(smooth, size - lead) for lead in range(0, size, smooth)]
    return counts


@settings(max_examples=40, deadline=None)
@given(
    k_a=st.integers(0, 6),
    k_b=st.integers(0, 6),
    n=st.integers(8, 40),
    path=heat_paths,
    certify=st.booleans(),
    n_steps=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_hands_each_step_the_rows_it_would_smooth_alone(k_a, k_b, n, path, certify, n_steps, seed):
    """Smoothing the steps of a block a few at a time moves no bit of the run."""
    params = ModelParams(**{**WORKED, "tau_a": k_a * DT, "tau_b": k_b * DT})
    domain = Domain(L=1.0, n=n)
    plan = integrator._step_plan(params, domain, DT)
    block = plan.block
    if n_steps % block == 0:
        n_steps += 1  # a short last block
    config = SimConfig(
        params=params, domain=domain, dt=DT, t_end=n_steps * DT, snapshot_every=3, certify=certify
    )
    window = box_window(params, domain, np.random.default_rng(seed))
    counts = []
    real_smooth, real_step = integrator._smooth_delayed, integrator.step
    spectral._operators(domain)  # certification's gradients and mass defect run dense on every grid
    with heat_path(n, path), pytest.MonkeyPatch.context() as mp:
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
        assert plan.smooth == 1 + min(k for k in (k_a, k_b) if k)
        assert block_counts == smoothing_counts(n_steps, block, plan.smooth)
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


@settings(max_examples=24, deadline=None)
@given(
    k_a=st.integers(0, 30),
    k_b=st.integers(0, 30),
    n=st.sampled_from([48, 48, 48, 1024]),
    certify=st.booleans(),
    tail=st.integers(1, 28),
    second=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(k_a=3, k_b=0, n=1024, certify=True, tail=11, second=True, seed=1)
@example(k_a=4, k_b=9, n=48, certify=True, tail=28, second=False, seed=2)
def test_lags_shorter_than_the_block_keep_the_bytes_of_standalone_steps(
    k_a, k_b, n, certify, tail, second, seed
):
    """Blocks of 25 steps (8 at n = 1024) that span several smoothing calls.

    The run, record and snapshots included, equals a run of one step per
    block, and its snapshots equal a loop of standalone steps, byte for
    byte.  In a certifying run a zero at the first, a middle, a
    stride-edge or the last row of a block stops the run at its own step,
    and step is called exactly that many times.
    """
    dt = 0.01  # tau_b up to 0.3 keeps R0 above 1
    params = ModelParams(**{**WORKED, "tau_a": k_a * dt, "tau_b": k_b * dt})
    domain = Domain(L=1.0, n=n)
    plan = integrator._step_plan(params, domain, dt)
    block, smooth = plan.block, plan.smooth
    assert block == (25 if n == 48 else 8)
    n_steps = block + min(tail, block + 3)  # a full block, then a short or full one and more
    config = SimConfig(
        params=params, domain=domain, dt=dt, t_end=n_steps * dt, snapshot_every=2, certify=certify
    )
    window = box_window(params, domain, np.random.default_rng(seed), dt)
    blocked = run(config, History(window, dt))
    with run_block_steps(1):
        one = run(config, History(window, dt))
    alone = History(window, dt)
    states = [alone.latest] + [step(alone, params, domain, dt).copy() for _ in range(n_steps)]
    assert trajectory_bytes(blocked) == trajectory_bytes(one)
    assert [t for t, _ in blocked.snapshots] == [t for t, _ in one.snapshots]
    for (t, got), (_, expected) in zip(blocked.snapshots, one.snapshots):
        assert got.tobytes() == expected.tobytes() == states[round(t / dt)].tobytes()
    if not certify:
        return
    first = 1 + block * second  # the first step of the first or the second block
    real_step = integrator.step
    for row in sorted({0, block // 2, smooth - 1, min(smooth, block - 1), block - 1}):
        k, calls = first + row, []

        def zero_u1_at_k(history, *args, **kwargs):
            calls.append(1)
            if len(calls) < k:
                return real_step(history, *args, **kwargs)
            state = history.latest
            state[0, 3] = 0.0
            return history.append(state)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "step", zero_u1_at_k)
            with pytest.raises(ValueError, match="strictly positive u1; min value is 0$"):
                run(dataclasses.replace(config, t_end=(2 * block + 1) * dt), History(window, dt))
        assert len(calls) == k


def test_wide_run_builds_no_dense_operators():
    params = ModelParams(**{**WORKED, "tau_b": 0.1})
    domain = Domain(L=1.0, n=FFT_MIN_N)
    with heat_path(domain.n, None) as dense:
        assert not dense
        config = SimConfig(params=params, domain=domain, dt=DT, t_end=0.25)
        traj = run(config, random_history(params, domain, np.random.default_rng(1)))
    assert np.isfinite(traj.final_state).all()


def test_wide_simulate_runs_without_rfft_or_dense_operators():
    """The benchmark's wide shape: every flow of a plain run at n = 1024 takes the band.

    Blocks hold 8 steps there, so the 10 steps run as 8 + 2, and the run
    equals a loop of standalone steps byte for byte.
    """
    params = ModelParams(**WORKED)
    domain = Domain(L=1.0, n=1024)
    dt = 0.005
    plan = integrator._step_plan(params, domain, dt)
    # 84 and 9 modes lie above HEAT_DECAY_FLOOR; the tail rule keeps 28 and 3.
    assert (plan.modes, plan.lag_modes) == (28, 3)
    assert plan.block == integrator.RUN_BLOCK_CELLS // domain.n == 8
    config = SimConfig(params=params, domain=domain, dt=dt, t_end=0.05, snapshot_every=3)
    window = np.array([smooth_box_rows(domain, np.random.default_rng(k), 3) for k in range(101)])
    counts = []
    real_smooth, real_step = integrator._smooth_delayed, integrator.step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "rfft", fails("ran an rfft on the band path"))
        mp.setattr(spectral, "_basis", guarded_basis)
        mp.setattr(integrator, "_smooth_delayed", lambda *a: counts.append(a[-1]) or real_smooth(*a))
        traj = run(config, History(window, dt))
        block_counts = counts[:]
        alone = History(window, dt)
        states = [alone.latest] + [step(alone, params, domain, dt).copy() for _ in range(10)]
        mp.setattr(integrator, "step", lambda *a, smoothed, **kw: real_step(*a, **kw))
        looped = run(config, History(window, dt))
    assert len(traj.times) == 11 and traj.bounds_ok
    assert block_counts == [8, 2]
    assert trajectory_bytes(traj) == trajectory_bytes(looped)
    assert traj.final_state.tobytes() == states[-1].tobytes()
    assert [t for t, _ in traj.snapshots] == [t for t, _ in looped.snapshots]
    for (t, got), (_, expected) in zip(traj.snapshots, looped.snapshots):
        assert got.tobytes() == expected.tobytes() == states[round(t / dt)].tobytes()
    with heat_path(domain.n, "fft"):
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
    flow = spectral._cached_heat_flow(d, t, domain)
    assert spectral._cached_heat_flow(d, t, domain) is flow
    decay = spectral._heat_decay(d, t, domain)
    modes = spectral._live_modes(decay)
    assert band_tail(decay, modes) <= 2.0**-53 < band_tail(decay, modes - 1)
    if domain.n < FFT_MIN_N or modes > BAND_MAX_MODES:
        modes = domain.n
    assert flow.modes == modes
    assert flow.decay.shape == (1, modes, 1) and flow.decay.flags.c_contiguous
    assert np.array_equal(flow.decay[0, :, 0], decay[:modes])
    for array in (flow.decay, flow.fwd, flow.cos):
        if array is not None:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0
    f = np.linspace(1.0, 2.0, domain.n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_heat_decay", None)  # a recomputation would fail
        mp.setattr(spectral, "_basis", None)
        got = heat_apply(f, d, t, domain)
    assert np.array_equal(got, spectral._heat_flow(decay, domain).apply(f[None, :])[0])


# Against the all-mode cosine_flow, the band's error is its tail, at most
# 2^-53 sup |f|, plus the roundoff of both sides, BAND_ROUNDOFF
# ulps of sup |f|.  Over 1200 draws of wide_decay_cases (3600 rows, n from
# 256 to 1100) the roundoff reached 5.8 ulps.
BAND_ROUNDOFF = 16


@st.composite
def wide_decay_cases(draw):
    domain = Domain(L=draw(st.sampled_from([1.0, 2.5])), n=draw(st.integers(FFT_MIN_N, 1100)))
    d = draw(st.floats(0.01, 10.0))
    return domain, d, draw(kernel_times(d, domain))


@settings(max_examples=30, deadline=None)
@given(case=wide_decay_cases(), seed=st.integers(0, 2**32 - 1))
def test_band_keeps_the_fewest_modes_its_tail_bound_allows(case, seed):
    """The band is within its tail bound of the full series; one mode fewer breaks the bound."""
    domain, d, t = case
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3, domain.n)) * 10.0 ** rng.integers(-8, 9, size=(3, 1))
    decay = spectral._heat_decay(d, t, domain)
    modes = spectral._live_modes(decay)
    assert band_tail(decay, modes) <= 2.0**-53 < band_tail(decay, modes - 1)
    try:
        with heat_path(domain.n, "band"):
            got = heat_apply(rows, d, t, domain)
            assert spectral._cached_heat_flow(d, t, domain).modes == modes
    finally:
        spectral._basis.cache_clear()  # the forced band caches bases no run uses
    allowed = 2.0**-53 + BAND_ROUNDOFF * np.finfo(float).eps
    for row, out in zip(rows, got):
        expected = cosine_flow(row, raw_decay(d, t, domain), domain)
        assert np.abs(out - expected).max() <= allowed * np.abs(row).max()


@settings(max_examples=30, deadline=None)
@given(
    params=model_params(),
    n=st.integers(8, FFT_MIN_N - 1),
    d=st.floats(0.01, 10.0),
    t=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_small_grids_never_read_the_band_cut(params, n, d, t, seed):
    """Below FFT_MIN_N the bytes of heat_apply and step are those of any K."""
    domain = Domain(L=1.0, n=n)
    rng = np.random.default_rng(seed)
    n_lags = max(lag_steps(params.tau_a, DT), lag_steps(params.tau_b, DT))
    window = np.array([smooth_box_rows(domain, rng, 3) for _ in range(n_lags + 1)])
    rows = rng.standard_normal((3, n))

    def flows() -> list[bytes]:
        spectral._cached_heat_flow.cache_clear()
        integrator._step_plan.cache_clear()
        history = History(window, DT)
        states = [step(history, params, domain, DT).tobytes() for _ in range(3)]
        return [heat_apply(rows, d, t, domain).tobytes(), *states]

    expected = flows()
    for live in (lambda decay: decay.shape[-1], lambda decay: 1):
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral, "_live_modes", live)
                assert flows() == expected
        finally:  # no cached K of the stand-in outlives the test
            spectral._cached_heat_flow.cache_clear()
            integrator._step_plan.cache_clear()


@settings(max_examples=40, deadline=None)
@given(case=decay_cases(), path=heat_paths, seed=st.integers(0, 2**32 - 1))
def test_floor_moves_no_bit_of_heat_apply(case, path, seed):
    domain, d, t = case
    rows = smooth_box_rows(domain, np.random.default_rng(seed), 3)
    with heat_path(domain.n, path):
        got = heat_apply(rows, d, t, domain)
        raw = np.broadcast_to(raw_decay(d, t, domain), rows.shape)
        expected = spectral._heat_flow(raw, domain).apply(rows)
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
    ops, w = spectral._operators(domain), domain.trapezoid_weights
    decay = ops.weight * np.exp(-d * times[:, None] * spectral._eigenvalues(domain)[None, :])
    col = w * ((decay * (ops.cos.T @ w)) @ ops.cos.T)
    return float(np.abs(col - w).max() / w.max())


@settings(max_examples=40, deadline=None)
@given(case=decay_cases(), extra=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_kernel_mass_defect_matches_its_unfloored_formula(case, extra):
    domain, d, t = case
    times = around(t, extra)
    assert spectral.kernel_mass_defect(d, times, domain) == raw_mass_defect(d, times, domain)
