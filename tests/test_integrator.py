import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dengue_rd.integrator as integrator
from dengue_rd import (
    BOX_SLACK,
    Domain,
    History,
    ModelParams,
    SimConfig,
    SimulationError,
    bound_vector,
    dde_oracle_step,
    disease_free_equilibrium,
    endemic_equilibrium,
    run,
    run_homogeneous,
    stability_dt_bound,
    step,
    sup_distance,
)

from conftest import WORKED, constant_state, infection_term_u1, infection_term_u3


def constant_history(values, params, domain, dt):
    state = constant_state(values, domain.n)
    from dengue_rd import lag_steps

    n_lags = max(lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt))
    return History.constant(state, n_lags, dt)


def test_stability_bound_worked_point(worked_params):
    # stiffest loss: mu_h + beta_h M1 = 1 + 2 = 3
    assert stability_dt_bound(worked_params) == pytest.approx(0.2 / 3.0, rel=1e-15)


def test_infection_u1_balances_at_endemic(worked_params, domain):
    star = endemic_equilibrium(worked_params)
    u1 = np.full(domain.n, star[0])
    u3 = np.full(domain.n, star[2])
    term = infection_term_u1(u1, u3, worked_params, domain)
    assert term.shape == (domain.n,)
    assert np.abs(term - worked_params.mu_m * star[0]).max() < 1e-13


def test_infection_u1_vanishes_without_infectious(worked_params, domain):
    u1 = np.full(domain.n, 0.7)
    term = infection_term_u1(u1, np.zeros(domain.n), worked_params, domain)
    assert np.abs(term).max() == 0.0


def test_infection_u1_no_delay_is_pointwise(domain):
    p = ModelParams(**{**WORKED, "tau_a": 0.0})
    rng = np.random.default_rng(3)
    u1 = 0.5 + 0.1 * np.cos(np.pi * domain.grid)
    u3 = 0.4 + 0.05 * np.cos(2 * np.pi * domain.grid) + 0.01 * rng.standard_normal(domain.n) * 0
    term = infection_term_u1(u1, u3, p, domain)
    assert np.abs(term - p.beta_m * (p.A - u1) * u3).max() < 1e-14


def test_infection_u1_monotone_in_lagged_field(worked_params, domain):
    u1 = np.full(domain.n, 0.5)
    u3_lo = 0.2 + 0.05 * np.cos(np.pi * domain.grid)
    u3_hi = u3_lo + 0.1
    lo = infection_term_u1(u1, u3_lo, worked_params, domain)
    hi = infection_term_u1(u1, u3_hi, worked_params, domain)
    assert np.all(hi - lo >= -1e-12)


def test_infection_u3_balances_at_endemic(delayed_params, domain):
    star = endemic_equilibrium(delayed_params)
    u1 = np.full(domain.n, star[0])
    u2 = np.full(domain.n, star[1])
    term = infection_term_u3(u1, u2, delayed_params, domain)
    assert np.abs(term - delayed_params.rho_h * star[2]).max() < 1e-13


def test_infection_u3_vanishes_without_vectors(delayed_params, domain):
    term = infection_term_u3(
        np.zeros(domain.n), np.full(domain.n, 2.0), delayed_params, domain
    )
    assert np.abs(term).max() == 0.0


def test_infection_u3_constant_fields_exact(domain):
    # constants are kernel fixed points so the delay only contributes the
    # survival factor
    for tau_b in (0.25, 1.0):
        p = ModelParams(**{**WORKED, "tau_b": tau_b})
        term = infection_term_u3(
            np.full(domain.n, 0.4), np.full(domain.n, 1.1), p, domain
        )
        expected = p.beta_h * p.survival_b * 0.4 * 1.1
        assert np.abs(term - expected).max() < 1e-15


@pytest.mark.parametrize("which", ["endemic", "dfe"])
def test_equilibria_are_step_fixed_points(delayed_params, domain, which):
    if which == "endemic":
        point = endemic_equilibrium(delayed_params)
    else:
        point = disease_free_equilibrium(delayed_params)
    hist = constant_history(point, delayed_params, domain, 0.05)
    new = step(hist, delayed_params, domain, 0.05)
    assert np.abs(new - point[:, None]).max() < 1e-13


def test_step_rejects_mismatched_dt(worked_params, domain):
    hist = constant_history([0.3, 1.0, 0.5], worked_params, domain, 0.05)
    with pytest.raises(ValueError, match="dt"):
        step(hist, worked_params, domain, 0.025)


def test_step_matches_homogeneous_oracle(delayed_params, domain):
    y0 = np.array([0.3, 1.0, 0.5])
    hist = constant_history(y0, delayed_params, domain, 0.05)
    new = step(hist, delayed_params, domain, 0.05)
    expected = dde_oracle_step(y0, y0[2], y0[0], y0[1], delayed_params, 0.05)
    assert np.abs(new - expected[:, None]).max() < 1e-12


def test_run_constant_data_tracks_oracle(delayed_params, domain):
    y0 = np.array([0.3, 1.0, 0.5])
    hist = constant_history(y0, delayed_params, domain, 0.05)
    config = SimConfig(params=delayed_params, domain=domain, dt=0.05, t_end=1.0)
    traj = run(config, hist)
    trace = run_homogeneous(delayed_params, y0, 0.05, 1.0)
    assert traj.comp_min.shape == trace.shape
    assert np.abs(traj.comp_min - trace).max() < 1e-12
    assert np.abs(traj.comp_max - trace).max() < 1e-12


def test_run_homogeneous_equilibrium_is_stationary(delayed_params):
    star = endemic_equilibrium(delayed_params)
    trace = run_homogeneous(delayed_params, star, 0.05, 2.0)
    assert trace.shape == (41, 3)
    assert np.abs(trace - star).max() < 1e-13


def test_run_zero_horizon(worked_params, domain):
    hist = constant_history([0.3, 1.0, 0.5], worked_params, domain, 0.05)
    traj = run(
        SimConfig(params=worked_params, domain=domain, dt=0.05, t_end=0.0), hist
    )
    assert len(traj.times) == 1 and traj.times[0] == 0.0
    assert len(traj.snapshots) == 1
    assert np.array_equal(traj.final_state, hist.latest)


def test_run_record_lengths_and_snapshots(worked_params, domain):
    hist = constant_history([0.3, 1.0, 0.5], worked_params, domain, 0.05)
    config = SimConfig(
        params=worked_params, domain=domain, dt=0.05, t_end=1.0, snapshot_every=8
    )
    traj = run(config, hist)
    size = 21
    for arr in (traj.times, traj.dist_endemic, traj.dist_dfe, traj.V,
                traj.dissipation):
        assert len(arr) == size
    assert traj.comp_min.shape == (size, 3) and traj.comp_max.shape == (size, 3)
    assert [t for t, _ in traj.snapshots] == [0.0, 0.4, 0.8, 1.0]
    assert np.isnan(traj.V).all()  # not a certifying run
    assert traj.bounds_ok


def test_run_rejects_grid_mismatch(worked_params, domain):
    small = Domain(L=domain.L, n=24)
    hist = constant_history([0.3, 1.0, 0.5], worked_params, small, 0.05)
    with pytest.raises(ValueError, match="grid"):
        run(SimConfig(params=worked_params, domain=domain, dt=0.05, t_end=0.5), hist)


def test_run_rejects_short_history(worked_params, domain):
    state = constant_state([0.3, 1.0, 0.5], domain.n)
    hist = History.constant(state, 3, 0.05)  # tau_a = 0.5 needs 10 lags
    with pytest.raises(ValueError, match="lags"):
        run(SimConfig(params=worked_params, domain=domain, dt=0.05, t_end=0.5), hist)


def test_certify_requires_supercritical(domain):
    p = ModelParams(**{**WORKED, "b": 0.5})
    hist = constant_history([0.1, 1.0, 0.1], p, domain, 0.05)
    with pytest.raises(ValueError, match="R0"):
        run(SimConfig(params=p, domain=domain, dt=0.05, t_end=0.5, certify=True), hist)


def test_certify_requires_positive_history(worked_params, domain):
    hist = constant_history([0.3, 1.0, 0.0], worked_params, domain, 0.05)
    with pytest.raises(ValueError, match="strictly positive"):
        run(
            SimConfig(
                params=worked_params, domain=domain, dt=0.05, t_end=0.5, certify=True
            ),
            hist,
        )


def test_subcritical_run_reports_nan_endemic_distance(domain):
    p = ModelParams(**{**WORKED, "b": 0.5})
    hist = constant_history([0.1, 1.5, 0.1], p, domain, 0.05)
    traj = run(SimConfig(params=p, domain=domain, dt=0.05, t_end=0.5), hist)
    assert np.isnan(traj.dist_endemic).all()
    assert np.isfinite(traj.dist_dfe).all()
    assert traj.equilibria.endemic is None


def test_box_violation_strictness(worked_params, domain):
    over = 1.1 * bound_vector(worked_params)
    hist = constant_history(over, worked_params, domain, 0.05)
    lax = SimConfig(params=worked_params, domain=domain, dt=0.05, t_end=0.2)
    assert not run(lax, hist).bounds_ok
    strict = SimConfig(
        params=worked_params, domain=domain, dt=0.05, t_end=0.2, strict_box=True
    )
    hist2 = constant_history(over, worked_params, domain, 0.05)
    with pytest.raises(SimulationError, match="box"):
        run(strict, hist2)


def test_record_box_check_at_the_ceiling(delayed_params, domain):
    bound = bound_vector(delayed_params)  # M3 < M1 = M2, so rows are told apart
    config = SimConfig(params=delayed_params, domain=domain, dt=0.05, t_end=0.0)

    def bounds_ok(values):
        return run(config, constant_history(values, delayed_params, domain, 0.05)).bounds_ok

    assert bounds_ok(bound)  # the ceiling itself is inside
    for i in range(3):
        above = bound.copy()
        above[i] *= 1.0 + 2.0 * BOX_SLACK
        assert not bounds_ok(above)
        negative = bound.copy()
        negative[i] = -1e-12
        assert not bounds_ok(negative)


def run_through_states(states, strict_box=False, calls=None):
    """Runs the worked point with step replaced by appending the given states.

    k_a = 10 at dt = 0.05 on grids of up to 327 points, so run's blocks
    hold 25 steps, and one smoothing call covers 11 of them.  calls, a
    list, collects the states the stand-in step appended.
    """
    params = ModelParams(**WORKED)
    domain = Domain(L=1.0, n=states[0].shape[1])
    hist = constant_history(endemic_equilibrium(params), params, domain, 0.05)
    calls = [] if calls is None else calls
    config = SimConfig(
        params=params, domain=domain, dt=0.05, t_end=len(states) * 0.05, strict_box=strict_box
    )

    def stand_in(history, *_, **__):
        calls.append(states[len(calls)])
        return history.append(calls[-1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "step", stand_in)
        return run(config, hist)


# Rows relative to a centre value: all on it, wholly above or below it
# (by magnitudes from subnormal to near overflow), or anything at all.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, 1e300, -1e300, 1.7e308, -1.7e308]
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-16, 1.0, 1e300, 1.7e308]),
    st.floats(0.0, 1e300),
)


@st.composite
def state_rows(draw, centre: float, n: int) -> list[float]:
    kind = draw(st.sampled_from(["on", "above", "below", "any"]))
    if kind == "on":
        return [centre] * n
    if kind == "any":
        values = st.one_of(st.sampled_from([centre, *SPECIAL]), st.floats(-1e300, 1e300))
        return draw(st.lists(values, min_size=n, max_size=n))
    sign = 1.0 if kind == "above" else -1.0
    return [centre + sign * m for m in draw(st.lists(MAGNITUDES, min_size=n, max_size=n))]


@st.composite
def wild_runs(draw) -> list[np.ndarray]:
    """One to 28 (3, n) states, each row centred on u* or the DFE.

    The states are picked in any order from one to three drawn ones.  28
    states are one of run_through_states' 25-step blocks and a short one.
    """
    params = ModelParams(**WORKED)
    points = (endemic_equilibrium(params), disease_free_equilibrium(params))
    n = draw(st.integers(8, 12))
    pool = [
        np.array([draw(state_rows(float(draw(st.sampled_from(points))[i]), n)) for i in range(3)])
        for _ in range(draw(st.integers(1, 3)))
    ]
    size = draw(st.one_of(st.sampled_from([25, 28]), st.integers(1, 28)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    return [pool[i].copy() for i in picks]


@settings(max_examples=60, deadline=None)
@given(states=wild_runs())
def test_record_distances_from_row_bounds_match_the_full_state(states):
    traj = run_through_states(states)
    params = ModelParams(**WORKED)
    ceiling = bound_vector(params) * (1.0 + BOX_SLACK)
    for k, state in enumerate(states, start=1):
        for got, point in ((traj.dist_endemic[k], endemic_equilibrium(params)),
                           (traj.dist_dfe[k], disease_free_equilibrium(params))):
            assert float(got).hex() == sup_distance(state, point).hex()
        assert np.array_equal(traj.comp_min[k], state.min(axis=1))
        assert np.array_equal(traj.comp_max[k], state.max(axis=1))
    inside = all((s >= 0.0).all() and (s <= ceiling[:, None]).all() for s in states)
    assert traj.bounds_ok is inside


# Runs of up to 25 + 3 states: blocks of 25 steps begin at 1 and 26, and
# smoothing calls of 11 steps begin at 1, 12, 23 and 26.  The first and
# last steps of each are 1, 11, 12, 22, 23, 25, 26 and 28.
BLOCK_EDGES = st.sampled_from([1, 11, 12, 22, 23, 25, 26, 28])


@settings(max_examples=60, deadline=None)
@given(
    k=st.one_of(BLOCK_EDGES, st.integers(1, 28)),
    data=st.data(),
    where=st.tuples(st.integers(0, 2), st.integers(0, 7)),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    also=st.sampled_from([None, -1.0, 10.0]),
)
def test_non_finite_state_is_reported_before_a_box_violation(k, data, where, bad, also):
    params = ModelParams(**WORKED)
    plan = integrator._step_plan(params, Domain(L=1.0, n=8), 0.05)
    assert (plan.block, plan.smooth) == (25, 11)
    length = data.draw(st.one_of(st.sampled_from([k, 28]), st.integers(k, 28)), label="length")
    states = [constant_state(endemic_equilibrium(params), 8) for _ in range(length)]
    states[k - 1][where] = bad
    if also is not None:  # a second entry outside the box at the same step
        states[k - 1][(where[0] + 1) % 3, (where[1] + 1) % 8] = also
    calls, starts = [], []
    real_smooth = integrator._smooth_delayed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_smooth_delayed", lambda *a: starts.append(len(calls) + 1) or real_smooth(*a))
        with pytest.raises(SimulationError, match=rf"^non-finite state at step {k}, t="):
            run_through_states(states, strict_box=True, calls=calls)
    assert len(calls) == k
    assert starts == [s for s in (1, 12, 23, 26) if s <= k]


def test_sim_config_enforces_stability_bound(domain):
    params = ModelParams(**{**WORKED, "tau_a": 1.0})  # 15 steps of the bound
    bound = stability_dt_bound(params)  # 0.2 / 3
    SimConfig(params=params, domain=domain, dt=bound, t_end=1.0)
    with pytest.raises(ValueError, match="stability bound"):
        SimConfig(params=params, domain=domain, dt=0.25, t_end=1.0)
    with pytest.raises(ValueError, match="stability bound"):
        SimConfig(params=params, domain=domain, dt=bound * (1 + 1e-12), t_end=1.0)


def test_snapshots_do_not_alias_the_ring(worked_params, domain):
    params = ModelParams(**{**WORKED, "tau_a": 0.1})  # 2 lags: a ring of 3 slots
    hist = constant_history([0.3, 1.0, 0.5], params, domain, 0.05)
    hist.append(hist.latest * (1.0 + 0.1 * np.cos(np.pi * domain.grid)))
    config = SimConfig(params=params, domain=domain, dt=0.05, t_end=0.6, snapshot_every=1)
    traj = run(config, hist)
    assert len(traj.snapshots) == len(traj.times) == 13  # four wraps of the ring
    for k, (t, state) in enumerate(traj.snapshots):
        assert t == traj.times[k]
        assert np.array_equal(state.min(axis=1), traj.comp_min[k])
        assert np.array_equal(state.max(axis=1), traj.comp_max[k])
    final = traj.final_state.copy()
    new = step(hist, params, domain, 0.05)
    assert np.array_equal(traj.final_state, final)
    assert not np.array_equal(new, final)
    with pytest.raises(ValueError, match="read-only"):
        new[0, 0] = 0.0


def test_box_strict_defaults_follow_certify(worked_params, domain):
    base = dict(params=worked_params, domain=domain, dt=0.05, t_end=0.5)
    assert SimConfig(**base).box_strict is False
    assert SimConfig(**base, certify=True).box_strict is True
    assert SimConfig(**base, certify=True, strict_box=False).box_strict is False


def test_certifying_run_records_lyapunov_series(worked_params, domain, tmp_path):
    from dengue_rd.output import write_timeseries

    star = endemic_equilibrium(worked_params)
    hist = constant_history(0.9 * star, worked_params, domain, 0.05)
    config = SimConfig(
        params=worked_params, domain=domain, dt=0.05, t_end=0.5, certify=True
    )
    traj = run(config, hist)
    assert np.isfinite(traj.V).all() and np.isfinite(traj.dissipation).all()
    assert traj.V[0] > 0.0
    assert len(traj.lyapunov) == len(traj.times)
    assert np.shares_memory(traj.V, traj.lyapunov)
    assert np.shares_memory(traj.dissipation, traj.lyapunov)
    write_timeseries(tmp_path / "timeseries.csv", traj)
    table = np.genfromtxt(tmp_path / "timeseries.csv", delimiter=",", names=True)
    assert np.isnan(table["dVdt_fd"][0])
    assert np.array_equal(table["dVdt_fd"][1:], np.diff(traj.V) / 0.05)
