import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dengue_rd import (
    Certificate,
    Domain,
    History,
    LagIntegrals,
    SimConfig,
    TERM_NAMES,
    certify,
    endemic_equilibrium,
    eval_V,
    g,
    gradient_energy,
    heat_apply,
    kernel_matrix,
    ModelParams,
    build_initial_history,
    lag_steps,
    prepare_kernels,
    run,
    step,
)

from conftest import WORKED, constant_state


def endemic_history(params, domain, dt, transform=lambda a: a):
    """Constant-in-time history whose fields come from the endemic triple."""
    star = endemic_equilibrium(params)
    n_lags = max(lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt))
    state = transform(constant_state(star, domain.n))
    return History.constant(state, n_lags, dt), star


def test_g_zero_only_at_one():
    assert g(1.0) == 0.0
    assert g(math.e) == pytest.approx(math.e - 2.0, abs=1e-15)
    assert g(1e-12) > 26.0
    assert g(1e12) > 1e11


def test_g_nonnegative_near_one():
    for w in (1.0 + 1e-8, 1.0 - 1e-8, 1.0 + 1e-13, 1.0 - 1e-13):
        assert g(w) >= 0.0


def test_g_array_shape_and_values():
    arr = np.array([[0.5, 1.0], [2.0, 4.0]])
    out = g(arr)
    assert out.shape == arr.shape
    assert out[0, 1] == 0.0
    assert out[1, 0] == pytest.approx(1.0 - math.log(2.0), rel=1e-14)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_g_rejects_nonpositive_or_nonfinite(bad):
    with pytest.raises(ValueError):
        g(bad)
    with pytest.raises(ValueError):
        g(np.array([1.0, bad]))


def test_eval_V_vanishes_at_endemic(delayed_params, domain):
    hist, star = endemic_history(delayed_params, domain, 0.05)
    ring = LagIntegrals(hist, delayed_params, star, domain)
    bd = eval_V(hist, delayed_params, star, domain, ring=ring)
    assert bd.V == 0.0
    assert (bd.L1, bd.L2, bd.L3, bd.W1, bd.W2) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert abs(bd.dissipation) < 1e-15
    for value in bd.terms.values():
        assert abs(value) < 1e-15
    assert bd.two_path_rel_err is None  # set by certifying runs at checkpoints
    assert ring.window_rel_err(hist) < 1e-12
    assert prepare_kernels(delayed_params, domain, 0.05).mass_defect < 1e-12


def test_eval_V_scaled_infectious_component(delayed_params, domain):
    c = 1.3

    def scale_u3(arr):
        arr = arr.copy()
        arr[2] *= c
        return arr

    hist, star = endemic_history(delayed_params, domain, 0.05, scale_u3)
    bd = eval_V(hist, delayed_params, star, domain)
    p = delayed_params
    bstar = p.beta_h * star[0] * star[1]
    assert bd.L1 == 0.0 and bd.L2 == 0.0
    assert bd.L3 == pytest.approx(
        math.exp(p.mu_h * p.tau_b) * star[2] * g(c) * domain.L, rel=1e-13
    )
    assert bd.W1 == pytest.approx(bstar * p.tau_a * g(c) * domain.L, rel=1e-13)
    assert bd.W2 == 0.0
    assert bd.V == pytest.approx(bd.L3 + bd.W1, rel=1e-14)


def test_eval_V_terms_sum_matches(delayed_params, domain):
    rng = np.random.default_rng(7)
    hist, star = endemic_history(
        delayed_params, domain, 0.05,
        lambda arr: arr * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, arr.shape)),
    )
    bd = eval_V(hist, delayed_params, star, domain)
    assert bd.V == pytest.approx(bd.L1 + bd.L2 + bd.L3 + bd.W1 + bd.W2, rel=1e-14)
    assert bd.dissipation == pytest.approx(
        sum(bd.grad_terms) + sum(bd.quad_terms) + sum(bd.g_terms), rel=1e-14
    )
    assert set(bd.terms) == set(TERM_NAMES)


def test_eval_V_quadrature_consistency_under_refinement(delayed_params):
    # same smooth continuous data sampled on two grids; cosine profiles
    # have vanishing odd derivatives at the walls so the trapezoid rule
    # converges fast
    def build(n):
        dom = Domain(L=1.0, n=n)
        x = dom.grid
        amps = (0.12, -0.08, 0.1)
        star = endemic_equilibrium(delayed_params)
        arr = np.stack(
            [
                star[i] * (1.0 + amps[i] * np.cos(math.pi * x / dom.L))
                for i in range(3)
            ]
        )
        n_lags = max(
            lag_steps(delayed_params.tau_a, 0.05),
            lag_steps(delayed_params.tau_b, 0.05),
        )
        hist = History.constant(arr, n_lags, 0.05)
        return eval_V(hist, delayed_params, star, dom).V

    assert build(48) == pytest.approx(build(95), abs=1e-6)


def kernel_weighted_W(history, params, star, domain, dt):
    """W1 and W2 through assembled per-lag kernel matrices, without the collapse.

    Lag j contributes the x-integral of [K(d j dt) g(.)](x), the integral
    the collapsed form replaces by a plain y-integral of g.
    """
    w = domain.trapezoid_weights
    bstar = params.beta_h * star[0] * star[1]
    out = []
    for tau, d, field_at in (
        (params.tau_a, params.d_m, lambda s: s[2] / star[2]),
        (params.tau_b, params.d_h, lambda s: s[0] * s[1] / (star[0] * star[1])),
    ):
        k = lag_steps(tau, dt)
        per_lag = [float(w @ g(field_at(history.lookup_arrays(0))))]
        per_lag += [
            float(w @ (kernel_matrix(d, j * dt, domain) @ g(field_at(history.lookup_arrays(j)))))
            for j in range(1, k + 1)
        ]
        acc = 0.5 * (per_lag[0] + per_lag[-1]) + sum(per_lag[1:-1]) if k else 0.0
        out.append(bstar * dt * acc)
    return out


def test_eval_V_two_path_agreement(delayed_params, domain):
    rng = np.random.default_rng(21)
    hist, star = endemic_history(
        delayed_params, domain, 0.05,
        lambda arr: arr * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, arr.shape)),
    )
    ring = LagIntegrals(hist, delayed_params, star, domain)
    bd = eval_V(hist, delayed_params, star, domain, ring=ring)
    assert bd == eval_V(hist, delayed_params, star, domain)
    assert ring.window_rel_err(hist) < 1e-12
    w1, w2 = kernel_weighted_W(hist, delayed_params, star, domain, 0.05)
    assert bd.W1 > 0.0 and bd.W2 > 0.0
    assert abs(bd.W1 - w1) / bd.W1 < 1e-12
    assert abs(bd.W2 - w2) / bd.W2 < 1e-12


def test_prepare_kernels_column_mass_defect(delayed_params):
    dt = 0.05
    for domain in (Domain(L=1.3, n=24), Domain(L=1.3, n=24, N=9)):
        kernels = prepare_kernels(delayed_params, domain, dt)
        assert kernels.theta_a == [] and kernels.theta_b == []
        w = domain.trapezoid_weights
        dense = max(
            float(np.abs(w @ kernel_matrix(d, j * dt, domain) - w).max() / w.max())
            for tau, d in ((delayed_params.tau_a, delayed_params.d_m),
                           (delayed_params.tau_b, delayed_params.d_h))
            for j in range(1, lag_steps(tau, dt) + 1)
        )
        assert kernels.mass_defect < 1e-12
        assert abs(kernels.mass_defect - dense) < 1e-15


def test_eval_V_constant_fields_have_no_gradient_terms(delayed_params, domain):
    hist, star = endemic_history(delayed_params, domain, 0.05, lambda a: 0.8 * a)
    bd = eval_V(hist, delayed_params, star, domain)
    assert bd.V > 0.0
    assert max(abs(t) for t in bd.grad_terms) < 1e-24  # constant up to transform roundoff
    for value in bd.terms.values():
        assert value <= 1e-12
    assert bd.dissipation <= 1e-12


def test_eval_V_rejects_nonpositive_history(delayed_params, domain):
    def zero_u2(arr):
        arr = arr.copy()
        arr[1, 3] = 0.0
        return arr

    hist, star = endemic_history(delayed_params, domain, 0.05, zero_u2)
    with pytest.raises(ValueError, match="positive"):
        eval_V(hist, delayed_params, star, domain)
    good, _ = endemic_history(delayed_params, domain, 0.05)
    with pytest.raises(ValueError, match="positive"):
        eval_V(good, delayed_params, np.array([0.5, 0.0, 0.3]), domain)


def test_eval_V_rejects_short_history(delayed_params, domain):
    star = endemic_equilibrium(delayed_params)
    hist = History.constant(constant_state(star, domain.n), 2, 0.05)
    with pytest.raises(ValueError, match="lags"):
        eval_V(hist, delayed_params, star, domain)


def certifying_trajectory(params, domain, scale=0.9, t_end=1.0):
    star = endemic_equilibrium(params)
    n_lags = max(lag_steps(params.tau_a, 0.05), lag_steps(params.tau_b, 0.05))
    hist = History.constant(
        constant_state(scale * star, domain.n), n_lags, 0.05
    )
    config = SimConfig(params=params, domain=domain, dt=0.05, t_end=t_end, certify=True)
    return run(config, hist)


def test_certify_passes_on_decaying_run(worked_params, domain):
    traj = certifying_trajectory(worked_params, domain)
    cert = certify(traj)
    assert cert.passed
    assert cert.v_monotone and cert.dissipation_nonpositive
    assert cert.v_decreased is True
    assert cert.two_path_ok is True
    assert cert.v_final < cert.v_initial
    assert cert.violations == []
    assert set(cert.term_ranges) == set(TERM_NAMES) | {"dissipation"}


def test_certify_flags_artificial_v_increase(worked_params, domain):
    traj = certifying_trajectory(worked_params, domain)
    bd = traj.lyapunov[5]
    traj.lyapunov[5] = dataclasses.replace(bd, V=2.0 * traj.lyapunov[0].V)
    cert = certify(traj)
    assert not cert.passed
    kinds = {(v["kind"], v["step"]) for v in cert.violations}
    assert ("v_increase", 5) in kinds
    assert cert.v_monotone is False


def test_certify_flags_positive_dissipation(worked_params, domain):
    traj = certifying_trajectory(worked_params, domain)
    bd = traj.lyapunov[3]
    traj.lyapunov[3] = dataclasses.replace(bd, dissipation=1e-6)
    cert = certify(traj)
    assert not cert.passed
    assert {"positive_dissipation"} == {
        v["kind"] for v in cert.violations if v["step"] == 3
    }


def test_certify_equilibrium_start_trivially_passes(worked_params, domain):
    traj = certifying_trajectory(worked_params, domain, scale=1.0, t_end=0.5)
    cert = certify(traj)
    assert cert.passed
    assert cert.v_decreased is None  # started below the off-equilibrium floor
    assert cert.v_initial <= 1e-12


def test_certify_rejects_nonfinite_or_negative_tolerances(worked_params, domain):
    traj = certifying_trajectory(worked_params, domain, t_end=0.2)
    for name in ("v_tol", "d_tol", "two_path_tol"):
        for bad in (math.nan, math.inf, -1e-12):
            with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
                certify(traj, **{name: bad})
        certify(traj, **{name: 0.0})  # zero slack is allowed


def test_certify_requires_lyapunov_data(worked_params, domain):
    star = endemic_equilibrium(worked_params)
    hist = History.constant(constant_state(0.9 * star, domain.n), 10, 0.05)
    traj = run(SimConfig(params=worked_params, domain=domain, dt=0.05, t_end=0.2), hist)
    with pytest.raises(ValueError, match="Lyapunov"):
        certify(traj)


def test_certificate_round_trips_through_json(worked_params, domain):
    cert = certify(certifying_trajectory(worked_params, domain, t_end=0.5))
    doc = json.loads(json.dumps(cert.to_dict()))
    assert doc["passed"] is True
    assert doc["tolerances"] == {
        "v_step_slack": cert.v_tol,
        "dissipation_sign": cert.d_tol,
        "two_path": cert.two_path_tol,
    }
    assert doc["v_initial"] == cert.v_initial
    assert set(doc["term_ranges"]) == set(cert.term_ranges)


# ------------------------------------------------- cached lag integrals


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_certify_flags_corrupted_lag_cache_at_next_checkpoint(
    worked_params, domain, monkeypatch, tmp_path
):
    import dengue_rd.integrator as integrator
    from dengue_rd.output import write_json

    real_eval_V = integrator.eval_V
    corrupt_step = 13  # k_a = 10, so checkpoints fall on 0, 10, 20, ...

    def corrupting(history, *args, ring, **kwargs):
        if round(history.t_now / history.dt) == corrupt_step:
            ring.a[0] += 1.0
        return real_eval_V(history, *args, ring=ring, **kwargs)

    monkeypatch.setattr(integrator, "eval_V", corrupting)
    traj = certifying_trajectory(worked_params, domain, t_end=2.0)
    cert = certify(traj)
    assert not cert.passed and cert.two_path_ok is False
    [violation] = [v for v in cert.violations if v["kind"] == "two_path_disagreement"]
    assert violation["step"] == 20
    assert violation["time"] == traj.times[20]
    assert violation["value"] == cert.two_path_max_rel_err > cert.two_path_tol
    # the corrupted value left the window before the next checkpoint
    assert traj.lyapunov[30].two_path_rel_err == 0.0

    write_json(tmp_path / "certificate.json", cert.to_dict())
    doc = json.loads(
        (tmp_path / "certificate.json").read_text(), parse_constant=_reject_constant
    )
    assert doc["violations"] == cert.violations


def checkpoint_steps(traj):
    return [k for k, bd in enumerate(traj.lyapunov) if bd.two_path_rel_err is not None]


def test_checkpoint_stride_covers_the_shorter_delay(worked_params, monkeypatch):
    # k_a = 2, k_b = 5: a value of the shorter delay's cache weighs in W1
    # for two steps only, so the stride must be 2, not 5.
    import dengue_rd.integrator as integrator

    params = dataclasses.replace(worked_params, tau_a=0.1, tau_b=0.25)
    domain = Domain(L=1.0, n=12)
    real_eval_V = integrator.eval_V

    def corrupting(history, *args, ring, **kwargs):
        if round(history.t_now / history.dt) == 6:
            ring.a[0] += 1.0
        return real_eval_V(history, *args, ring=ring, **kwargs)

    monkeypatch.setattr(integrator, "eval_V", corrupting)
    traj = certifying_trajectory(params, domain, t_end=0.75)  # 15 steps
    assert checkpoint_steps(traj) == [0, 2, 4, 6, 8, 10, 12, 14, 15]
    cert = certify(traj)
    assert cert.two_path_ok is False
    [violation] = [v for v in cert.violations if v["kind"] == "two_path_disagreement"]
    assert violation["step"] == 6
    assert traj.lyapunov[6].two_path_rel_err > cert.two_path_tol
    # it still sits at lag k_a = 2 at step 8 and has left W1's window by 10
    assert traj.lyapunov[8].two_path_rel_err > cert.two_path_tol
    assert traj.lyapunov[10].two_path_rel_err == 0.0


def test_ring_zero_delays_has_one_slot_and_no_W(worked_params):
    params = dataclasses.replace(worked_params, tau_a=0.0, tau_b=0.0)
    domain = Domain(L=1.0, n=12)
    star = endemic_equilibrium(params)
    hist = History.constant(constant_state(0.9 * star, domain.n), 0, 0.05)
    ring = LagIntegrals(hist, params, star, domain)
    assert (ring.k_a, ring.k_b) == (0, 0)
    assert ring.a.maxlen == ring.b.maxlen == 1
    assert ring.integrals() == (0.0, 0.0)
    config = SimConfig(params=params, domain=domain, dt=0.05, t_end=0.3, certify=True)
    traj = run(config, hist)
    assert all(bd.W1 == 0.0 and bd.W2 == 0.0 for bd in traj.lyapunov)
    assert checkpoint_steps(traj) == list(range(7))  # stride 1
    assert traj.kernel_mass_defect == 0.0
    assert certify(traj).passed


def test_ring_sized_for_the_longer_delay(worked_params):
    params = dataclasses.replace(worked_params, tau_a=0.1, tau_b=0.25)
    domain = Domain(L=1.0, n=12)
    star = endemic_equilibrium(params)
    rng = np.random.default_rng(5)
    window = [
        np.outer(star, np.ones(domain.n)) * (1.0 + 0.2 * rng.uniform(-1, 1, (3, domain.n)))
        for _ in range(8)
    ]
    hist = History(window, 0.05)  # 7 lags, more than the 5 the delays need
    ring = LagIntegrals(hist, params, star, domain)
    assert (ring.k_a, ring.k_b) == (2, 5)
    assert ring.a.maxlen == ring.b.maxlen == 6
    assert len(ring.a) == len(ring.b) == 6
    w = domain.trapezoid_weights
    for j in range(6):
        lag = hist.lookup_arrays(j)
        assert ring.a[j] == float(w @ g(lag[2] / star[2]))
        assert ring.b[j] == float(w @ g(lag[0] * lag[1] / (star[0] * star[1])))
    bd = eval_V(hist, params, star, domain, ring=ring)
    w1, w2 = kernel_weighted_W(hist, params, star, domain, 0.05)
    assert bd.W1 == pytest.approx(w1, rel=1e-12)
    assert bd.W2 == pytest.approx(w2, rel=1e-12)


def test_ring_out_of_step_with_history_is_rejected(delayed_params, domain):
    hist, star = endemic_history(delayed_params, domain, 0.05, lambda a: 0.9 * a)
    ring = LagIntegrals(hist, delayed_params, star, domain)
    hist.append(hist.latest)
    with pytest.raises(ValueError, match="push"):
        eval_V(hist, delayed_params, star, domain, ring=ring)
    ring.push(hist)
    assert eval_V(hist, delayed_params, star, domain, ring=ring).V > 0.0


def test_checkpoints_follow_the_stride_and_end_on_the_last_step(worked_params):
    domain = Domain(L=1.0, n=12)
    traj = certifying_trajectory(worked_params, domain, t_end=1.35)  # 27 steps
    stride = lag_steps(worked_params.tau_a, 0.05)
    assert stride == 10
    steps = checkpoint_steps(traj)
    assert steps == [0, 10, 20, 27]
    assert len(steps) == 27 // stride + 2  # multiples of the stride, plus the last
    assert all(traj.lyapunov[k].two_path_rel_err == 0.0 for k in steps)


@pytest.mark.parametrize("seed", range(6))
def test_ring_V_matches_window_V_at_every_step(seed, monkeypatch):
    # Random delays (including zero and unequal ones), grid sizes with
    # N < n, and time-varying histories.
    import dengue_rd.integrator as integrator
    from dengue_rd import ModelParams, build_initial_history

    from conftest import WORKED

    rng = np.random.default_rng(seed)
    dt = 0.05
    k_a, k_b = (int(k) for k in rng.integers(0, 6, size=2))
    params = ModelParams(**{**WORKED, "tau_a": k_a * dt, "tau_b": k_b * dt})
    n = int(rng.integers(8, 20))
    domain = Domain(L=1.0, n=n, N=int(rng.integers(4, n + 1)))
    config = SimConfig(
        params=params, domain=domain, dt=dt, t_end=0.6, certify=True,
        history_mode="modulated",
    )
    pairs = []
    real_eval_V = integrator.eval_V

    def both(history, p, star, dom, *, ring):
        bd = real_eval_V(history, p, star, dom, ring=ring)
        pairs.append((bd, real_eval_V(history, p, star, dom)))
        return bd

    monkeypatch.setattr(integrator, "eval_V", both)
    traj = run(config, build_initial_history(config, seed))
    assert len(pairs) == len(traj.times) == 13
    for cached, window in pairs:
        for name in ("V", "W1", "W2"):
            a, b = getattr(cached, name), getattr(window, name)
            assert abs(a - b) <= 1e-13 * max(abs(b), 1e-300), (name, a, b)
        assert cached.dissipation == window.dissipation
    assert certify(traj).passed


def dense_delay_g_integral(d, tau, numer, denom, domain):
    """The delay term's double integral through an assembled kernel matrix."""
    w = domain.trapezoid_weights
    if tau == 0.0:
        return float(w @ g(numer / denom))
    ratio = numer[None, :] / denom[:, None]
    return float(w @ (kernel_matrix(d, tau, domain) * g(ratio)).sum(axis=1))


@st.composite
def delay_windows(draw):
    """A random window of states around the endemic state, with its params and domain."""
    dt = 0.05
    k_a, k_b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    params = ModelParams(**{
        **WORKED,
        "d_m": draw(st.floats(0.1, 2.0)),
        "d_h": draw(st.floats(0.1, 2.0)),
        "tau_a": k_a * dt,
        "tau_b": k_b * dt,
    })
    n = draw(st.integers(8, 24))
    domain = Domain(L=draw(st.floats(0.5, 3.0)), n=n, N=draw(st.integers(1, 3) | st.integers(1, n)))
    amplitude = draw(st.sampled_from([0.9, 0.1, 1e-3, 1e-8, 0.0]) | st.floats(0.0, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Grid noise, or the first cosine mode with random signs: with few
    # modes kept, the smoothed product of the latter can dip below zero.
    if draw(st.booleans()):
        shape = lambda: rng.uniform(-1.0, 1.0, (3, n))
    else:
        mode = np.cos(math.pi * domain.grid / domain.L)
        shape = lambda: rng.choice([-1.0, 1.0], (3, 1)) * mode
    star = endemic_equilibrium(params)
    window = [
        constant_state(star, n) * (1.0 + amplitude * shape())
        for _ in range(max(k_a, k_b) + 1)
    ]
    return History(window, dt), params, star, domain


@settings(max_examples=60, deadline=None)
@given(delay_windows())
def test_separated_delay_terms_match_the_dense_double_integral(window):
    hist, params, star, domain = window
    bd = eval_V(hist, params, star, domain)
    u1s, u2s, u3s = star
    bstar = params.beta_h * u1s * u2s
    cur = hist.lookup_arrays(0)
    lag_a = hist.lookup_arrays(lag_steps(params.tau_a, hist.dt))
    lag_b = hist.lookup_arrays(lag_steps(params.tau_b, hist.dt))
    for term, d, tau, numer, denom in (
        ("g_delay_a", params.d_m, params.tau_a, u1s * lag_a[2] / u3s, cur[0]),
        ("g_delay_b", params.d_h, params.tau_b, lag_b[0] * lag_b[1] * (u3s / (u1s * u2s)), cur[2]),
    ):
        dense = -bstar * dense_delay_g_integral(d, tau, numer, denom, domain)
        if tau == 0.0:
            assert bd.terms[term] == dense
        else:
            assert abs(bd.terms[term] - dense) <= 1e-14 * domain.L, (term, bd.terms[term], dense)


def test_certifying_run_builds_no_kernel_matrix(delayed_params, monkeypatch):
    import dengue_rd.lyapunov as lyapunov
    import dengue_rd.spectral as spectral

    def refuse(*args, **kwargs):
        raise AssertionError("a certifying run assembled a kernel matrix")

    monkeypatch.setattr(lyapunov, "kernel_matrix", refuse)
    monkeypatch.setattr(spectral, "kernel_matrix", refuse)
    config = SimConfig(
        params=delayed_params, domain=Domain(L=1.0, n=16), dt=0.05, t_end=1.0,
        certify=True, history_mode="modulated",
    )
    traj = run(config, build_initial_history(config, 3))
    cert = certify(traj)
    assert cert.passed, cert.violations
    assert all(b.g_terms[1] < 0.0 and b.g_terms[2] < 0.0 for b in traj.lyapunov)


@pytest.mark.parametrize("seed", [1, 4])
def test_delay_terms_allow_a_smoothed_numerator_below_zero(seed):
    # With N = 2 the truncated kernel is not positive: these seeds start
    # with (u1 u2)(-tau_b) ~ (1 + 0.9 cos)^2, whose two-mode smoothing dips
    # below zero, so g(K N / D) is undefined while the delay term is not.
    config = SimConfig(
        params=ModelParams(**{**WORKED, "tau_b": 0.02}), domain=Domain(L=1.0, n=8, N=2),
        dt=0.01, t_end=0.5, certify=True, perturb_amplitude=0.9, perturb_modes=1,
    )
    hist = build_initial_history(config, seed)
    lag_b = hist.lookup_arrays(lag_steps(config.params.tau_b, config.dt))
    assert heat_apply(lag_b[0] * lag_b[1], 1.0, 0.02, config.domain).min() < 0.0
    cert = certify(run(config, hist))
    assert cert.passed, cert.violations


# ------------------------------------------------------- batched evaluation


def reference_eval_V(history, params, star, domain):
    """eval_V term by term: one g, gradient_energy and heat_apply call per use."""
    dt = history.dt
    k_a, k_b = lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt)
    u1s, u2s, u3s = (float(v) for v in star)
    w = domain.trapezoid_weights
    bstar = params.beta_h * u1s * u2s
    expb = math.exp(params.mu_h * params.tau_b)
    u1, u2, u3 = history.lookup_arrays(0)

    def lag_values(j):
        lag = history.lookup_arrays(j)
        return float(w @ g(lag[2] / u3s)), float(w @ g(lag[0] * lag[1] / (u1s * u2s)))

    def trapezoid(values):
        if len(values) <= 1:
            return 0.0
        return dt * (0.5 * (values[0] + values[-1]) + sum(values[1:-1]))

    def delay_term(numer, smoothed, denom, nstar, d, tau):
        log_n = np.log(numer / nstar)
        values = g(numer / denom)
        values += (smoothed - numer) / denom
        values += log_n - heat_apply(log_n, d, tau, domain)
        return -bstar * float(w @ values)

    u3_lag_a = history.lookup_arrays(k_a)[2]
    smoothed = heat_apply(u3_lag_a, params.d_m, params.tau_a, domain)
    lag_b = history.lookup_arrays(k_b)
    numer_b = lag_b[0] * lag_b[1] * (u3s / (u1s * u2s))
    terms = {
        "L1": bstar / params.mu_m * float(w @ g(u1 / u1s)),
        "L2": u2s * float(w @ g(u2 / u2s)),
        "L3": expb * u3s * float(w @ g(u3 / u3s)),
        "W1": bstar * trapezoid([lag_values(j)[0] for j in range(k_a + 1)]),
        "W2": bstar * trapezoid([lag_values(j)[1] for j in range(k_b + 1)]),
        "grad_u1": -(params.d_m * bstar / params.mu_m) * gradient_energy(u1, domain),
        "grad_u2": -(params.d_h * u2s) * gradient_energy(u2, domain),
        "grad_u3": -(expb * params.d_h * u3s) * gradient_energy(u3, domain),
        "quad_u1": -(params.beta_m * params.beta_h * u2s / params.mu_m)
        * float(w @ ((u1 - u1s) ** 2 / u1 * smoothed)),
        "quad_u2": -params.mu_h * float(w @ ((u2 - u2s) ** 2 / u2)),
        "g_u2": -bstar * float(w @ g(u2s / u2)),
        "g_delay_b": delay_term(
            numer_b, heat_apply(numer_b, params.d_h, params.tau_b, domain), u3, u3s,
            params.d_h, params.tau_b,
        ),
        "g_delay_a": delay_term(
            u1s * u3_lag_a / u3s, u1s * smoothed / u3s, u1, u1s, params.d_m, params.tau_a
        ),
    }
    terms["V"] = terms["L1"] + terms["L2"] + terms["L3"] + terms["W1"] + terms["W2"]
    terms["dissipation"] = (
        sum(terms[name] for name in TERM_NAMES[:3])
        + sum(terms[name] for name in TERM_NAMES[3:5])
        + sum(terms[name] for name in TERM_NAMES[5:])
    )
    return terms


@pytest.mark.parametrize(
    "tau_a, tau_b",
    [(0.15, 0.0), (0.0, 0.1), (0.15, 0.1), (0.0, 0.0)],
    ids=["tau_a-only", "tau_b-only", "both-delays", "no-delay"],
)
@pytest.mark.parametrize("N", [16, 5])
def test_eval_V_matches_the_term_by_term_reference_bit_for_bit(tau_a, tau_b, N):
    params = ModelParams(**{**WORKED, "tau_a": tau_a, "tau_b": tau_b})
    domain = Domain(L=1.0, n=16, N=N)
    config = SimConfig(
        params=params, domain=domain, dt=0.05, t_end=0.4, certify=True,
        history_mode="modulated", perturb_modes=min(3, N - 1),
    )
    hist = build_initial_history(config, 2)
    star = endemic_equilibrium(params)
    ring = LagIntegrals(hist, params, star, domain)
    for _ in range(6):
        bd = eval_V(hist, params, star, domain, ring=ring)
        got = {**bd.terms, **{k: getattr(bd, k) for k in ("V", "L1", "L2", "L3", "W1", "W2")}}
        got["dissipation"] = bd.dissipation
        assert got == reference_eval_V(hist, params, star, domain)
        step(hist, params, domain, 0.05)
        ring.push(hist)


def test_window_rel_err_is_exactly_zero_after_many_pushes(worked_params):
    params = dataclasses.replace(worked_params, tau_a=0.1, tau_b=0.25)
    domain = Domain(L=1.0, n=12)
    config = SimConfig(
        params=params, domain=domain, dt=0.05, t_end=1.0, certify=True,
        history_mode="modulated",
    )
    hist = build_initial_history(config, 7)
    star = endemic_equilibrium(params)
    ring = LagIntegrals(hist, params, star, domain)
    for _ in range(40):  # the 6-slot ring wraps several times
        step(hist, params, domain, 0.05)
        ring.push(hist)
    fresh = LagIntegrals(hist, params, star, domain)
    assert (list(ring.a), list(ring.b)) == (list(fresh.a), list(fresh.b))
    assert ring.window_rel_err(hist) == 0.0


@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_eval_V_names_the_nonpositive_state_row(worked_params, row, bad):
    params = dataclasses.replace(worked_params, tau_a=0.0)  # the ring checks nothing
    domain = Domain(L=1.0, n=12)
    star = endemic_equilibrium(params)
    state = constant_state(0.9 * star, domain.n)
    state[row, 5] = bad
    hist = History.constant(state, 0, 0.05)
    with pytest.raises(ValueError, match=rf"strictly positive u{row + 1};"):
        eval_V(hist, params, star, domain)


@pytest.mark.parametrize("lag", [0, 1, 3, 5])
@pytest.mark.parametrize("row, name", [(2, "u3"), (0, "u1\\*u2")])
def test_lag_ring_names_the_nonpositive_lag(worked_params, lag, row, name):
    params = dataclasses.replace(worked_params, tau_a=0.1, tau_b=0.25)  # 6 slots
    domain = Domain(L=1.0, n=12)
    star = endemic_equilibrium(params)
    window = [constant_state(0.9 * star, domain.n) for _ in range(6)]
    window[5 - lag][row, 4] = -0.5  # oldest first, so lag j sits at 5 - j
    bad = window[5 - lag].copy()
    window[5][1, 7] = 0.0  # a newer bad u1*u2 at lag 0; the oldest is named
    hist = History(window, 0.05)
    with pytest.raises(ValueError, match=rf"{name} at lag {lag};"):
        LagIntegrals(hist, params, star, domain)

    good = History([constant_state(0.9 * star, domain.n)] * 6, 0.05)
    ring = LagIntegrals(good, params, star, domain)
    good.append(bad)
    with pytest.raises(ValueError, match=rf"{name} at lag 0;"):
        ring.push(good)
