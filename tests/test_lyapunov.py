import dataclasses
import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dengue_rd import (
    Certificate,
    Domain,
    History,
    SimConfig,
    TERM_NAMES,
    basic_reproduction_number,
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
    stability_dt_bound,
    step,
)

import dengue_rd.lyapunov as lyapunov
from dengue_rd.certificate import DEFAULT_V_TOL, FINITE_COLUMNS
from dengue_rd.lyapunov import (
    CHECKED_TERMS,
    G_DIRECT_BELOW,
    RECORD_DTYPE,
    StateBlock,
    lag_values,
)

from dengue_rd.spectral import FFT_MIN_N

from conftest import (
    WORKED,
    W_rel_errors,
    constant_state,
    kernel_weighted_W,
    run_block_steps,
    run_every_state,
)


def endemic_history(params, domain, dt, transform=lambda a: a):
    """Constant-in-time history whose fields come from the endemic triple."""
    star = endemic_equilibrium(params)
    n_lags = max(lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt))
    state = transform(constant_state(star, domain.n))
    return History.constant(state, n_lags, dt), star


def values(row):
    """A record row's fields as a dict."""
    return {name: row[name] for name in RECORD_DTYPE.names}


def lag_counts(params, dt):
    return lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt)


def window_rel_err(row, hist, params, star, domain):
    """The larger relative disagreement of a row's W1 and W2 with W recomputed from the history's window.

    The recomputation is reference_eval_V's: per-lag integrals of the raw
    window and a written-out trapezoid, without a per-lag column.  A W
    that is 0 on both sides disagrees by 0, and a NaN gives NaN.
    """
    expected = reference_eval_V(hist, params, star, domain)
    return float(np.max([
        0.0 if row[name] == expected[name] else abs(row[name] - expected[name]) / abs(expected[name])
        for name in ("W1", "W2")
    ]))


def newest_first(hist):
    """The history's states, newest first: element j is the state at lag j."""
    return [hist.lookup_arrays(j) for j in range(hist.n_lags + 1)]


def start_column(hist, params, star, domain, n_steps):
    """A run's lags column: the window's values, then room for n_steps more steps."""
    window = lag_values(hist, star, domain, *lag_counts(params, hist.dt))
    return np.concatenate((window, np.full((2, n_steps), np.nan)), axis=1)


def column_eval_V(hist, params, star, domain, lags, step):
    """eval_V of the history's newest state, that of step, as a run evaluates it.

    A block of one over lags, which the call extends by that state's column.
    """
    block = StateBlock.empty(1, domain.n, hist.dt, *lag_counts(params, hist.dt))
    block.put(0, step, hist.lookup_arrays(0), hist)
    return eval_V(block, params, star, domain, lags=lags)[0]


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


def elementwise_g(omega):
    """g element by element: a sign and finiteness check, then e - log1p(e)
    from G_DIRECT_BELOW up and w - 1 - ln w below it."""
    w = np.asarray(omega, dtype=float)
    if (w <= 0.0).any() or not np.isfinite(w).all():
        raise ValueError("g is defined for strictly positive finite arguments only")
    small = w < G_DIRECT_BELOW
    e = np.where(small, 1.0, w) - 1.0
    e -= np.log1p(e)
    x = np.where(small, w, 1.0)
    out = np.where(small, x - 1.0 - np.log(x), e)[()]
    return float(out) if np.isscalar(omega) else out


def g_outcome(fn, omega):
    """fn's result as (type, shape, bytes), or the error it raises.

    Warnings are errors in the tests, so a RuntimeWarning would fail too.
    """
    try:
        out = fn(omega)
    except (ValueError, RuntimeWarning) as err:
        return type(err), str(err)
    return type(out), np.shape(out), np.asarray(out).tobytes()


special_floats = st.sampled_from([0.0, -0.0, 5e-324, 1.0, math.inf, -math.inf, math.nan, 1e308])


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats() | special_floats, max_size=7),
    form=st.sampled_from(["float", "float64", "0-d", "list", "1-d", "2-d"]),
)
def test_g_behaves_as_its_elementwise_definition_on_every_input(values, form):
    # Empty arrays included: they pass the check and give an empty result.
    if form in ("float", "float64", "0-d"):
        if not values:
            return
        omega = {"float": float, "float64": np.float64, "0-d": np.array}[form](values[0])
    elif form == "2-d":
        omega = np.array(values[: len(values) // 2 * 2]).reshape(2, -1)
    else:
        omega = values if form == "list" else np.array(values, dtype=float)
    assert g_outcome(g, omega) == g_outcome(elementwise_g, omega)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(1e-300, 1e300) | st.sampled_from([1e-300, 5e-324, 2.0**-53, 1e-17, 0.5, 1e300]),
        min_size=1,
        max_size=6,
    )
)
def test_g_is_finite_nonnegative_and_direct_where_that_is_well_conditioned(values):
    w = np.array(values)
    got = g(w)
    assert np.isfinite(got).all() and (got >= 0.0).all()
    for x, value in zip(values, got.tolist()):
        assert g(x) == value
        if x <= 0.25 or x >= 4.0:  # the direct form's terms cancel by at most 3.4x
            direct = x - 1.0 - math.log(x)
            assert abs(value - direct) <= 1e-14 * direct


def test_g_near_zero_is_finite_without_warnings():
    assert g(1e-17) == pytest.approx(1e-17 - 1.0 + 17.0 * math.log(10.0), rel=1e-15)
    assert g(5e-324) == pytest.approx(743.4400719213812, rel=1e-15)
    assert g(G_DIRECT_BELOW) == pytest.approx(math.log(2.0) - 0.5, rel=1e-15)


def test_eval_V_vanishes_at_endemic(delayed_params, domain):
    hist, star = endemic_history(delayed_params, domain, 0.05)
    row = eval_V(hist, delayed_params, star, domain)
    assert row.dtype == RECORD_DTYPE
    assert row["V"] == 0.0
    assert tuple(row[k] for k in ("L1", "L2", "L3", "W1", "W2")) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert abs(row["dissipation"]) < 1e-15
    for name in TERM_NAMES:
        assert abs(row[name]) < 1e-15
    assert window_rel_err(row, hist, delayed_params, star, domain) < 1e-12
    assert prepare_kernels(delayed_params, domain, 0.05) < 1e-12


def test_eval_V_scaled_infectious_component(delayed_params, domain):
    c = 1.3

    def scale_u3(arr):
        arr = arr.copy()
        arr[2] *= c
        return arr

    hist, star = endemic_history(delayed_params, domain, 0.05, scale_u3)
    row = eval_V(hist, delayed_params, star, domain)
    p = delayed_params
    bstar = p.beta_h * star[0] * star[1]
    assert row["L1"] == 0.0 and row["L2"] == 0.0
    assert row["L3"] == pytest.approx(
        math.exp(p.mu_h * p.tau_b) * star[2] * g(c) * domain.L, rel=1e-13
    )
    assert row["W1"] == pytest.approx(bstar * p.tau_a * g(c) * domain.L, rel=1e-13)
    assert row["W2"] == 0.0
    assert row["V"] == pytest.approx(row["L3"] + row["W1"], rel=1e-14)


def test_eval_V_terms_sum_matches(delayed_params, domain):
    rng = np.random.default_rng(7)
    hist, star = endemic_history(
        delayed_params, domain, 0.05,
        lambda arr: arr * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, arr.shape)),
    )
    row = eval_V(hist, delayed_params, star, domain)
    assert row["V"] == pytest.approx(
        row["L1"] + row["L2"] + row["L3"] + row["W1"] + row["W2"], rel=1e-14
    )
    assert row["dissipation"] == pytest.approx(sum(row[name] for name in TERM_NAMES), rel=1e-14)
    assert set(TERM_NAMES) <= set(row.dtype.names)


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
        return eval_V(hist, delayed_params, star, dom)["V"]

    assert build(48) == pytest.approx(build(95), abs=1e-6)


def test_eval_V_two_path_agreement(delayed_params, domain):
    rng = np.random.default_rng(21)
    hist, star = endemic_history(
        delayed_params, domain, 0.05,
        lambda arr: arr * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, arr.shape)),
    )
    row = eval_V(hist, delayed_params, star, domain)
    lags = start_column(hist, delayed_params, star, domain, 0)
    assert values(row) == values(column_eval_V(hist, delayed_params, star, domain, lags, 0))
    assert window_rel_err(row, hist, delayed_params, star, domain) == 0.0
    w1, w2 = kernel_weighted_W(newest_first(hist), delayed_params, star, domain, 0.05)
    assert row["W1"] > 0.0 and row["W2"] > 0.0
    assert abs(row["W1"] - w1) / row["W1"] < 1e-12
    assert abs(row["W2"] - w2) / row["W2"] < 1e-12


def test_prepare_kernels_column_mass_defect(delayed_params):
    dt = 0.05
    for domain in (Domain(L=1.3, n=24), Domain(L=1.3, n=9)):
        defect = prepare_kernels(delayed_params, domain, dt)
        w = domain.trapezoid_weights
        dense = max(
            float(np.abs(w @ kernel_matrix(d, j * dt, domain) - w).max() / w.max())
            for tau, d in ((delayed_params.tau_a, delayed_params.d_m),
                           (delayed_params.tau_b, delayed_params.d_h))
            for j in range(1, lag_steps(tau, dt) + 1)
        )
        assert defect < 1e-12
        assert abs(defect - dense) < 1e-15


def test_eval_V_constant_fields_have_no_gradient_terms(delayed_params, domain):
    hist, star = endemic_history(delayed_params, domain, 0.05, lambda a: 0.8 * a)
    row = eval_V(hist, delayed_params, star, domain)
    assert row["V"] > 0.0
    # constant up to transform roundoff
    assert max(abs(row[name]) for name in TERM_NAMES[:3]) < 1e-24
    for name in TERM_NAMES:
        assert row[name] <= 1e-12
    assert row["dissipation"] <= 1e-12


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
    assert cert.v_final < cert.v_initial
    assert cert.violations == []
    assert set(cert.term_ranges) == set(TERM_NAMES) | {"dissipation"}


def test_certify_flags_artificial_v_increase(worked_params, domain, tmp_path):
    # V is a view of the run's record: one write reaches both the
    # certificate and timeseries.csv.
    from dengue_rd.output import write_timeseries

    traj = certifying_trajectory(worked_params, domain)
    write_timeseries(tmp_path / "before.csv", traj)
    traj.V[5] = 2.0 * traj.V[0]
    assert traj.lyapunov["V"][5] == 2.0 * traj.V[0]
    write_timeseries(tmp_path / "after.csv", traj)
    cert = certify(traj)
    assert not cert.passed
    kinds = {(v["kind"], v["step"]) for v in cert.violations}
    assert ("v_increase", 5) in kinds
    assert cert.v_monotone is False
    before = (tmp_path / "before.csv").read_text().splitlines()
    after = (tmp_path / "after.csv").read_text().splitlines()
    changed = [k - 1 for k, (a, b) in enumerate(zip(before, after)) if a != b]
    assert changed == [5, 6]  # row k of the data, after the header line
    columns = [
        k for k, (a, b) in enumerate(zip(before[6].split(","), after[6].split(","))) if a != b
    ]
    assert columns == [3, 4]  # V and its backward difference dVdt_fd
    assert [a != b for a, b in zip(before[7].split(","), after[7].split(","))].count(True) == 1
    rows = [[float(v) for v in line.split(",")] for line in after[6:8]]
    assert rows[0][3] == traj.V[5]
    assert rows[0][4] == (traj.V[5] - traj.V[4]) / 0.05
    assert rows[1][4] == (traj.V[6] - traj.V[5]) / 0.05


def test_certify_flags_positive_dissipation(worked_params, domain):
    traj = certifying_trajectory(worked_params, domain)
    traj.dissipation[3] = 1e-6
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
    for name in ("v_tol", "d_tol"):
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
    }
    assert not any("kernel_mass" in key for key in doc)
    assert doc["v_initial"] == cert.v_initial
    assert set(doc["term_ranges"]) == set(cert.term_ranges)


# ------------------------------------------- certify on synthetic records


@st.composite
def clean_records(draw):
    """A passing certifying run's stand-in: V strictly decreasing, every term negative."""
    size = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    record = np.full(size, np.nan, dtype=RECORD_DTYPE)
    record["V"] = draw(st.floats(1e-6, 1e3)) * np.exp(-np.cumsum(rng.uniform(0.0, 1.0, size)))
    for name in TERM_NAMES:
        record[name] = -rng.uniform(1e-9, 1.0, size)
    record["dissipation"] = sum(record[name] for name in TERM_NAMES)
    times = np.arange(size) * 0.05
    return SimpleNamespace(lyapunov=record, times=times)


@settings(max_examples=80, deadline=None)
@given(clean_records(), st.data())
def test_certify_names_exactly_the_positive_term(traj, data):
    assert certify(traj).violations == []
    step = data.draw(st.integers(0, len(traj.times) - 1))
    name = data.draw(st.sampled_from(CHECKED_TERMS))
    value = data.draw(st.floats(2e-12, 1e3))
    traj.lyapunov[name][step] = value
    cert = certify(traj)
    assert not cert.passed and not cert.dissipation_nonpositive and cert.v_monotone
    assert cert.violations == [{
        "kind": f"positive_{name}", "step": step, "time": traj.times[step],
        "value": value, "threshold": cert.d_tol,
    }]
    assert cert.term_ranges[name][1] == value


@settings(max_examples=80, deadline=None)
@given(clean_records(), st.data())
def test_certify_names_exactly_the_v_increase(traj, data):
    v = traj.lyapunov["V"]
    step = data.draw(st.integers(1, len(v) - 1))
    slack = DEFAULT_V_TOL * v[0]
    v[step] = v[step - 1] + slack + v[0] * data.draw(st.floats(1e-6, 10.0))
    cert = certify(traj)
    assert not cert.passed and not cert.v_monotone and cert.dissipation_nonpositive
    rises = [viol for viol in cert.violations if viol["kind"] == "v_increase"]
    assert rises == [{
        "kind": "v_increase", "step": step, "time": traj.times[step],
        "value": v[step] - v[step - 1], "threshold": slack,
    }]
    # raising the last step may also leave V above where it started
    assert {viol["kind"] for viol in cert.violations} - {"v_increase"} <= {"v_not_decreased"}


@settings(max_examples=80, deadline=None)
@given(clean_records(), st.data())
def test_certify_fails_on_a_nonfinite_value_at_its_step(traj, data):
    step = data.draw(st.integers(0, len(traj.times) - 1))
    name = data.draw(st.sampled_from(FINITE_COLUMNS))
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    traj.lyapunov[name][step] = bad
    cert = certify(traj)
    assert not cert.passed
    assert (cert.v_monotone if name == "V" else cert.dissipation_nonpositive) is False
    nonfinite = [v for v in cert.violations if v["kind"].startswith("nonfinite_")]
    value = nonfinite[0]["value"]
    assert value == bad or math.isnan(value) and math.isnan(bad)
    assert nonfinite == [{
        "kind": f"nonfinite_{name}", "step": step, "time": traj.times[step],
        "value": value, "threshold": math.inf,
    }]
    assert cert.violations[0] is nonfinite[0]  # the first check in the list


def loop_certify(traj, v_tol, d_tol):
    """certify's V and sign checks and term ranges, one step at a time."""
    v, times = traj.lyapunov["V"], traj.times
    slack = v_tol * max(v[0], 1e-12)
    violations = [
        {"kind": "v_increase", "step": k + 1, "time": float(times[k + 1]),
         "value": float(v[k + 1] - v[k]), "threshold": float(slack)}
        for k in range(len(v) - 1)
        if v[k + 1] > v[k] + slack
    ]
    ranges = {name: (math.inf, -math.inf) for name in CHECKED_TERMS}
    for k, row in enumerate(traj.lyapunov):
        for name in CHECKED_TERMS:
            value = float(row[name])
            ranges[name] = (min(ranges[name][0], value), max(ranges[name][1], value))
            if value > d_tol:
                violations.append({"kind": f"positive_{name}", "step": k, "time": float(times[k]),
                                   "value": value, "threshold": float(d_tol)})
    return violations, ranges


@settings(max_examples=60, deadline=None)
@given(clean_records(), st.data())
def test_certify_matches_a_loop_over_steps(traj, data):
    size = len(traj.times)
    record = traj.lyapunov
    for _ in range(data.draw(st.integers(0, 12))):
        step = data.draw(st.integers(0, size - 1))
        name = data.draw(st.sampled_from(("V", *CHECKED_TERMS)))
        record[name][step] = data.draw(st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 1e-12]))
    v_tol, d_tol = data.draw(st.sampled_from([(0.0, 0.0), (DEFAULT_V_TOL, 1e-12)]))
    cert = certify(traj, v_tol=v_tol, d_tol=d_tol)
    violations, ranges = loop_certify(traj, v_tol, d_tol)
    # the loop covers the per-step checks, which come first in the list
    assert cert.violations[: len(violations)] == violations
    rest = {viol["kind"] for viol in cert.violations[len(violations):]}
    assert rest <= {"v_not_decreased"}
    assert cert.term_ranges == ranges


# ------------------------------------------------ the per-lag column


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def corrupt_after_eval_V(monkeypatch, at_step, corrupt):
    """Makes run's eval_V call corrupt(lags, column) right after it writes the column of step at_step.

    lags is the run's per-lag array and column the index of the column
    that holds that step's a and b values.  The block that holds step
    at_step is evaluated in two calls, split after that step, with the
    corruption between them.  The row of that step is already formed, so
    a corrupted value first reaches V and W one step later.
    """
    import dengue_rd.integrator as integrator

    real_eval_V = integrator.eval_V

    def corrupting(block, *args, lags, **kwargs):
        steps = block.step.tolist()
        if at_step not in steps:
            return real_eval_V(block, *args, lags=lags, **kwargs)
        cut = steps.index(at_step) + 1
        rows = [real_eval_V(block[:cut], *args, lags=lags, **kwargs)]
        corrupt(lags, max(block.k_a, block.k_b) + at_step)
        if cut < len(block):
            rows.append(real_eval_V(block[cut:], *args, lags=lags, **kwargs))
        return np.concatenate(rows)

    monkeypatch.setattr(integrator, "eval_V", corrupting)


def shift_by_one_step(lags, column):
    """An indexing slip: the values of every step up to column's sit one column later."""
    lags[:, 1 : column + 1] = lags[:, :column].copy()


def add_at(row, bad):
    """A corruption that adds bad to the column's value in the given row (0 for a, 1 for b)."""
    def corrupt(lags, column):
        lags[row, column] += bad
    return corrupt


def flagged_steps(monkeypatch, params, domain, n_steps, at_step, corrupt):
    """The steps at which criterion 8's comparison flags a run corrupted after step at_step.

    The run certifies a seeded modulated history, so consecutive states,
    and their per-lag values, differ from the first lag on.
    """
    corrupt_after_eval_V(monkeypatch, at_step, corrupt)
    config = SimConfig(
        params=params, domain=domain, dt=0.05, t_end=n_steps * 0.05, certify=True,
        history_mode="modulated",
    )
    traj, states = run_every_state(config, build_initial_history(config, 5))
    assert len(traj.times) == n_steps + 1
    return np.flatnonzero(~(W_rel_errors(traj, states) <= 1e-12)).tolist()


@pytest.mark.parametrize("tau_a, tau_b", [(0.5, 0.0), (0.1, 0.25)], ids=["k_a=10", "k_a=2,k_b=5"])
def test_criterion_8_flags_a_lag_column_shifted_by_one_step(worked_params, monkeypatch, tau_a, tau_b):
    # Step s's values weigh in a delay's W from step s + 1 through step
    # s + k, so a slip in the values up to step 13 shows from step 14 until
    # the longer delay's window has left them behind.
    params = dataclasses.replace(worked_params, tau_a=tau_a, tau_b=tau_b)
    reach = max(lag_counts(params, 0.05))
    flagged = flagged_steps(monkeypatch, params, Domain(L=1.0, n=12), 30, 13, shift_by_one_step)
    assert flagged == list(range(14, 14 + reach))


@pytest.mark.parametrize("row", [0, 1], ids=["a", "b"])
@pytest.mark.parametrize("tau_a, tau_b", [(0.5, 0.0), (0.1, 0.25)], ids=["k_a=10", "k_a=2,k_b=5"])
def test_criterion_8_flags_a_lag_value_raised_by_one(worked_params, monkeypatch, row, tau_a, tau_b):
    # The value stays in the row's W for that delay's k steps: two for a
    # at k_a = 2, not the five of the longer delay.  A delay of zero steps
    # reads no value, so its row can hold anything.
    params = dataclasses.replace(worked_params, tau_a=tau_a, tau_b=tau_b)
    k = lag_counts(params, 0.05)[row]
    flagged = flagged_steps(monkeypatch, params, Domain(L=1.0, n=12), 30, 13, add_at(row, 1.0))
    assert flagged == list(range(14, 14 + k))


def test_certify_fails_closed_on_a_nan_lag_cache(worked_params, domain, monkeypatch, tmp_path):
    # A NaN per-lag value makes V NaN until it leaves the window: the run
    # fails there, and certificate.json stays strict JSON, with null for
    # each NaN.
    from dengue_rd.output import write_json

    corrupt_after_eval_V(monkeypatch, 13, add_at(0, math.nan))
    traj = certifying_trajectory(worked_params, domain, t_end=2.0)
    cert = certify(traj)
    assert not cert.passed and cert.v_monotone is False
    nan_steps = np.flatnonzero(np.isnan(traj.V)).tolist()
    # step 13's value counts in W1 from step 14 on, and while at lag <= k_a = 10
    assert nan_steps == list(range(14, 24))
    assert [v["step"] for v in cert.violations if v["kind"] == "nonfinite_V"] == nan_steps

    write_json(tmp_path / "certificate.json", cert.to_dict())
    doc = json.loads(
        (tmp_path / "certificate.json").read_text(), parse_constant=_reject_constant
    )
    assert doc["passed"] is False
    assert doc["violations"][0] == {
        "kind": "nonfinite_V", "step": 14, "time": traj.times[14],
        "value": None, "threshold": None,
    }


@settings(max_examples=30, deadline=None)
@given(
    k_a=st.integers(0, 6),
    k_b=st.integers(0, 6),
    n_steps=st.integers(2, 20),
    data=st.data(),
)
def test_a_corrupted_lag_value_is_flagged_from_the_first_step_that_reads_it(k_a, k_b, n_steps, data):
    # A value of step s weighs in its delay's W at steps s + 1 .. s + k,
    # and criterion 8's comparison flags each of those steps, NaN included.
    assume(k_a or k_b)
    at_step = data.draw(st.integers(0, n_steps - 1))
    row = data.draw(st.sampled_from([r for r, k in enumerate((k_a, k_b)) if k]))
    bad = data.draw(st.sampled_from([1.0, math.nan]))
    params = ModelParams(**{**WORKED, "tau_a": k_a * 0.05, "tau_b": k_b * 0.05})
    domain = Domain(L=1.0, n=data.draw(st.integers(8, 16)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        flagged = flagged_steps(monkeypatch, params, domain, n_steps, at_step, add_at(row, bad))
    last = min(at_step + (k_a, k_b)[row], n_steps)
    assert flagged == list(range(at_step + 1, last + 1))


def test_ring_zero_delays_has_one_slot_and_no_W(worked_params):
    params = dataclasses.replace(worked_params, tau_a=0.0, tau_b=0.0)
    domain = Domain(L=1.0, n=12)
    star = endemic_equilibrium(params)
    hist = History.constant(constant_state(0.9 * star, domain.n), 0, 0.05)
    assert lag_counts(params, 0.05) == (0, 0)
    window = lag_values(hist, star, domain, 0, 0)
    assert window.shape == (2, 1) and np.isnan(window).all()  # no W reads it
    config = SimConfig(params=params, domain=domain, dt=0.05, t_end=0.3, certify=True)
    traj = run(config, hist)
    assert (traj.lyapunov["W1"] == 0.0).all() and (traj.lyapunov["W2"] == 0.0).all()
    assert prepare_kernels(params, domain, 0.05) == 0.0
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
    assert lag_counts(params, 0.05) == (2, 5)
    values = lag_values(hist, star, domain, 2, 5)
    assert values.shape == (2, 6)
    w = domain.trapezoid_weights
    for j in range(6):  # oldest first: lag j sits in column 5 - j
        lag = hist.lookup_arrays(j)
        assert values[0, 5 - j] == float(w @ g(lag[2] / star[2]))
        assert values[1, 5 - j] == float(w @ g(lag[0] * lag[1] / (star[0] * star[1])))
    row = eval_V(hist, params, star, domain)
    w1, w2 = kernel_weighted_W(newest_first(hist), params, star, domain, 0.05)
    assert row["W1"] == pytest.approx(w1, rel=1e-12)
    assert row["W2"] == pytest.approx(w2, rel=1e-12)


@pytest.mark.parametrize("k_a", [1, 10])
def test_a_certifying_run_reads_the_initial_window_once(worked_params, monkeypatch, k_a):
    # lag_values fills the per-lag column from the initial window, and
    # eval_V extends it by each new state's values: no later call goes
    # back to the raw window.  Calls are counted through the integrator's
    # and the lyapunov module's bindings.  The run still evaluates its
    # states in full blocks, one eval_V call per block of its books: state
    # 0 alone, then blocks of 25 steps.
    import dengue_rd.integrator as integrator

    real_lag_values, real_eval_V = lyapunov.lag_values, integrator.eval_V
    windows, sizes = [], []

    def counting_lag_values(history, *args, **kwargs):
        windows.append(history.n_lags)
        return real_lag_values(history, *args, **kwargs)

    def counting_eval_V(block, *args, **kwargs):
        sizes.append(len(block))
        return real_eval_V(block, *args, **kwargs)

    monkeypatch.setattr(integrator, "lag_values", counting_lag_values)
    monkeypatch.setattr(lyapunov, "lag_values", counting_lag_values)
    monkeypatch.setattr(integrator, "eval_V", counting_eval_V)
    params = dataclasses.replace(worked_params, tau_a=k_a * 0.05)
    domain = Domain(L=1.0, n=48)
    assert integrator._step_plan(params, domain, 0.05).block == 25
    traj = certifying_trajectory(params, domain, t_end=3.0)  # 60 steps
    assert windows == [k_a]
    assert sizes == [1, 25, 25, 10]
    assert certify(traj).passed


@pytest.mark.parametrize("seed", range(6))
def test_ring_V_matches_window_V_at_every_step(seed, monkeypatch):
    # Random delays (including zero and unequal ones), random grid sizes
    # and time-varying histories.
    import dengue_rd.integrator as integrator
    from dengue_rd import ModelParams, build_initial_history

    from conftest import WORKED

    rng = np.random.default_rng(seed)
    dt = 0.05
    k_a, k_b = (int(k) for k in rng.integers(0, 6, size=2))
    params = ModelParams(**{**WORKED, "tau_a": k_a * dt, "tau_b": k_b * dt})
    domain = Domain(L=1.0, n=int(rng.integers(8, 20)))
    config = SimConfig(
        params=params, domain=domain, dt=dt, t_end=0.6, certify=True,
        history_mode="modulated",
    )
    hist = build_initial_history(config, seed)
    # Every state of the run, oldest first, from the history's first lag on.
    states = [hist.lookup(j) for j in range(hist.n_lags, -1, -1)]
    pairs = []
    real_eval_V, real_step = integrator.eval_V, integrator.step

    def keep(*args, **kwargs):
        state = real_step(*args, **kwargs)
        states.append(state.copy())
        return state

    def both(block, p, star, dom, *, lags):
        rows = real_eval_V(block, p, star, dom, lags=lags)
        for row, s in zip(rows, block.step.tolist()):
            window = History(states[s : s + hist.n_lags + 1], dt, t_now=s * dt)
            pairs.append((row, real_eval_V(window, p, star, dom)))
        return rows

    monkeypatch.setattr(integrator, "step", keep)
    monkeypatch.setattr(integrator, "eval_V", both)
    traj = run(config, hist)
    assert len(pairs) == len(traj.times) == 13
    for cached, window in pairs:
        for name in ("V", "W1", "W2"):
            a, b = cached[name], window[name]
            assert abs(a - b) <= 1e-13 * max(abs(b), 1e-300), (name, a, b)
        assert cached["dissipation"] == window["dissipation"]
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
    domain = Domain(L=draw(st.floats(0.5, 3.0)), n=n)
    amplitude = draw(st.sampled_from([0.9, 0.1, 1e-3, 1e-8, 0.0]) | st.floats(0.0, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Grid noise, or the first cosine mode with random signs.
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
    row = eval_V(hist, params, star, domain)
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
            assert row[term] == dense
        else:
            assert abs(row[term] - dense) <= 1e-14 * domain.L, (term, row[term], dense)


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
    assert (traj.lyapunov["g_delay_b"] < 0.0).all() and (traj.lyapunov["g_delay_a"] < 0.0).all()


def test_certifying_run_checks_no_column_mass(delayed_params, monkeypatch):
    # The kernels' column mass is a property of the heat flow, held in
    # tests/test_heat_paths.py, not a check of each run.
    import dengue_rd.integrator as integrator
    import dengue_rd.spectral as spectral

    def refuse(*args, **kwargs):
        raise AssertionError("a certifying run checked the kernels' column mass")

    for module, name in ((integrator, "prepare_kernels"), (lyapunov, "kernel_mass_defect"),
                         (spectral, "kernel_mass_defect")):
        monkeypatch.setattr(module, name, refuse)
    config = SimConfig(params=delayed_params, domain=Domain(L=1.0, n=16), dt=0.05, t_end=0.5, certify=True)
    traj = run(config, build_initial_history(config, 0))
    assert certify(traj).passed


@pytest.mark.parametrize("seed", [1, 4])
def test_delay_terms_allow_a_smoothed_numerator_below_zero(seed):
    # The n-mode kernel is not positive at small times, even with every
    # mode kept.  The delayed u2 is a spike at the ceiling on grid point
    # `seed` over a floor of 1e-6; its smoothing over tau_b = dt, about
    # twice the kernel floor, dips below zero, so g(K N / D) is undefined
    # while the delay term is not.  The current state sits at u*.
    dt = 2e-4
    params = ModelParams(**{**WORKED, "tau_a": 0.0, "tau_b": dt})
    domain = Domain(L=1.0, n=8)
    current = constant_state(endemic_equilibrium(params), domain.n)
    delayed = current.copy()
    delayed[1] = 1e-6
    delayed[1, seed] = 2.0
    hist = History([delayed, current], dt)
    assert heat_apply(delayed[0] * delayed[1], params.d_h, dt, domain).min() < 0.0
    config = SimConfig(params=params, domain=domain, dt=dt, t_end=50 * dt, certify=True)
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
        interior = 0.0
        for value in values[1:-1]:
            interior += value
        return dt * (0.5 * (values[0] + values[-1]) + interior)

    def left_to_right(names):
        total = 0.0
        for name in names:
            total += terms[name]
        return total

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
        left_to_right(TERM_NAMES[:3])
        + left_to_right(TERM_NAMES[3:5])
        + left_to_right(TERM_NAMES[5:])
    )
    return terms


@pytest.mark.parametrize(
    "tau_a, tau_b",
    [(0.15, 0.0), (0.0, 0.1), (0.15, 0.1), (0.0, 0.0)],
    ids=["tau_a-only", "tau_b-only", "both-delays", "no-delay"],
)
@pytest.mark.parametrize("seed", [16, 5])
def test_eval_V_matches_the_term_by_term_reference_bit_for_bit(tau_a, tau_b, seed):
    params = ModelParams(**{**WORKED, "tau_a": tau_a, "tau_b": tau_b})
    domain = Domain(L=1.0, n=16)
    config = SimConfig(
        params=params, domain=domain, dt=0.05, t_end=0.4, certify=True,
        history_mode="modulated",
    )
    hist = build_initial_history(config, seed)
    star = endemic_equilibrium(params)
    lags = start_column(hist, params, star, domain, 5)
    for k in range(6):
        row = column_eval_V(hist, params, star, domain, lags, k)  # extends the column
        assert values(row) == reference_eval_V(hist, params, star, domain)
        step(hist, params, domain, 0.05)


@st.composite
def reference_windows(draw):
    """Lag counts 0 .. 5 each, a small grid or one on the FFT path, and a random positive window."""
    dt = 0.05
    k_a, k_b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    params = ModelParams(**{
        **WORKED,
        "d_m": draw(st.floats(0.2, 2.0)),
        "d_h": draw(st.floats(0.2, 2.0)),
        "tau_a": k_a * dt,
        "tau_b": k_b * dt,
    })
    n = draw(st.integers(8, 24) | st.sampled_from([FFT_MIN_N, FFT_MIN_N + 4]))
    star = endemic_equilibrium(params)
    amplitude = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = [
        constant_state(star, n) * (1.0 + amplitude * rng.uniform(-1.0, 1.0, (3, n)))
        for _ in range(max(k_a, k_b) + 1)
    ]
    return History(window, dt), params, star, Domain(L=draw(st.floats(0.5, 3.0)), n=n)


@settings(max_examples=40, deadline=None)
@given(reference_windows(), st.integers(1, 3))
def test_eval_V_matches_the_term_by_term_reference_on_random_windows(window, rounds):
    # Both transform paths: n from 8 to 24 runs dense products, FFT_MIN_N
    # and FFT_MIN_N + 4 (n - 1 = 259 = 7 * 37) run numpy.fft.
    hist, params, star, domain = window
    lags = start_column(hist, params, star, domain, rounds)
    for k in range(rounds + 1):
        if k:
            step(hist, params, domain, hist.dt)
        row = column_eval_V(hist, params, star, domain, lags, k)  # extends the column
        expected = reference_eval_V(hist, params, star, domain)
        assert {name: value.hex() for name, value in values(row).items()} == {
            name: float(expected[name]).hex() for name in values(row)
        }


def test_W_adds_the_interior_left_to_right(worked_params):
    # Compensated summation (the built-in sum from Python 3.12 on) would
    # carry the two 1e-16 terms into 1 + 2.2e-16; left to right, each is
    # below half an ulp of 1 and drops.
    params = dataclasses.replace(worked_params, tau_a=0.2, tau_b=0.0)  # k_a = 4
    domain = Domain(L=1.0, n=8)
    star = endemic_equilibrium(params)
    hist = History.constant(constant_state(star, 8), 4, 0.05)
    interior = [1.0, 1e-16, 1e-16]
    assert math.fsum(interior) != 1.0
    # Column 4 + s holds step s.  The endemic state of step 1 writes
    # a = g(1) = 0 into column 5 and reads W1 from columns 1 .. 5.
    lags = np.full((2, 6), np.nan)
    lags[0, 1:5] = [0.25, *interior[::-1]]
    bstar = params.beta_h * float(star[0]) * float(star[1])
    expected = bstar * (0.05 * (0.5 * (0.0 + 0.25) + 1.0))
    assert column_eval_V(hist, params, star, domain, lags, 1)["W1"] == expected
    assert lags[0, 5] == 0.0
    # The read alone, and each row of a stack of windows, add the same way.
    assert lyapunov._delay_W(lags, 1, 4, 0, 0.05, bstar).tolist() == [[expected], [0.0]]
    with pytest.raises(ValueError, match="lags holds 4 columns, need 5"):
        lyapunov._delay_W(lags[:, 2:], 1, 4, 0, 0.05, bstar)
    windows = np.array([[0.5, *interior, 0.25], [0.25, 1e-16, 1.0, 1e-16, 0.5], [-0.0] * 5])
    theta = lyapunov._theta_trapezoids(windows, 4, 0.05).tolist()
    assert [v.hex() for v in theta] == [
        (0.05 * (0.5 * 0.75 + 1.0)).hex(), (0.05 * (0.5 * 0.75 + 1.0)).hex(), (0.0).hex(),
    ]
    # Past eight values numpy's sum runs in eight lanes, which would keep them.
    long_window = np.array([[0.5, 1.0, *[1e-16] * 18, 0.25]])
    assert lyapunov._theta_trapezoids(long_window, 20, 0.05).tolist() == [0.05 * (0.5 * 0.75 + 1.0)]
    # The sums start from 0.0, so terms that are all -0.0 (the gradient
    # terms of constant fields) add up to 0.0, as a term-by-term sum does,
    # alone or as the rows of a block.
    assert lyapunov._add_left_to_right([-0.0, -0.0, -0.0]).hex() == (0.0).hex()
    assert lyapunov._add_left_to_right([]).hex() == (0.0).hex()
    column = lyapunov._add_left_to_right([np.array([-0.0, 1.0])] * 3)
    assert [v.hex() for v in column.tolist()] == [(0.0).hex(), (3.0).hex()]


def test_window_rel_err_is_exactly_zero_after_many_pushes(worked_params):
    params = dataclasses.replace(worked_params, tau_a=0.1, tau_b=0.25)
    domain = Domain(L=1.0, n=12)
    config = SimConfig(
        params=params, domain=domain, dt=0.05, t_end=1.0, certify=True,
        history_mode="modulated",
    )
    hist = build_initial_history(config, 7)
    star = endemic_equilibrium(params)
    lags = start_column(hist, params, star, domain, 40)
    for k in range(1, 41):  # the 6-slot history wraps several times
        step(hist, params, domain, 0.05)
        row = column_eval_V(hist, params, star, domain, lags, k)
    assert lags[:, 40:].tobytes() == lag_values(hist, star, domain, 2, 5).tobytes()
    assert window_rel_err(row, hist, params, star, domain) == 0.0
    # a NaN per-lag value of either delay reaches its W and the
    # disagreement, whichever of the two delays it is
    for delay in (0, 1):
        kept, lags[delay, 44] = lags[delay, 44], math.nan
        row = column_eval_V(hist, params, star, domain, lags, 40)
        assert math.isnan(row[("W1", "W2")[delay]]) and math.isnan(row["V"])
        assert math.isnan(window_rel_err(row, hist, params, star, domain))
        lags[delay, 44] = kept


@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_eval_V_names_the_nonpositive_state_row(worked_params, row, bad):
    params = dataclasses.replace(worked_params, tau_a=0.0)  # lag_values checks nothing
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
        lag_values(hist, star, domain, 2, 5)

    # A bad new state is named by eval_V's check of the current state,
    # and never enters the column.
    good = History([constant_state(0.9 * star, domain.n)] * 6, 0.05)
    lags = start_column(good, params, star, domain, 1)
    cached = lags.tobytes()
    good.append(bad)
    with pytest.raises(ValueError, match=rf"strictly positive u{row + 1};"):
        column_eval_V(good, params, star, domain, lags, 1)
    assert lags.tobytes() == cached


# ------------------------------------------------- boundary properties


@st.composite
def random_windows(draw):
    """Lag counts 0 .. 5 each, n in [8, 20] and a random positive window around u*."""
    dt = 0.05
    k_a, k_b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    params = ModelParams(**{**WORKED, "tau_a": k_a * dt, "tau_b": k_b * dt})
    n = draw(st.integers(8, 20))
    star = endemic_equilibrium(params)
    amplitude = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = [
        constant_state(star, n) * (1.0 + amplitude * rng.uniform(-1.0, 1.0, (3, n)))
        for _ in range(max(k_a, k_b) + 1)
    ]
    return History(window, dt), params, star, Domain(L=1.0, n=n)


@settings(max_examples=60, deadline=None)
@given(random_windows(), st.integers(1, 4))
def test_eval_V_keeps_the_ring_equal_to_a_fresh_one_at_any_lag_count(window, rounds):
    # Zero delays included: a zero lag count leaves its row NaN and its W is 0.
    # eval_V's entries are a fresh lag_values of the window, bit for bit.
    hist, params, star, domain = window
    k_max = max(lag_counts(params, hist.dt))
    lags = start_column(hist, params, star, domain, rounds)
    for k in range(rounds + 1):
        if k:
            step(hist, params, domain, hist.dt)
        row = column_eval_V(hist, params, star, domain, lags, k)
        fresh = lag_values(hist, star, domain, *lag_counts(params, hist.dt))
        assert lags[:, k : k + k_max + 1].tobytes() == fresh.tobytes()
        assert row.tobytes() == eval_V(hist, params, star, domain).tobytes()
        cached = lags.tobytes()
        assert column_eval_V(hist, params, star, domain, lags, k).tobytes() == row.tobytes()
        assert lags.tobytes() == cached


@settings(max_examples=100, deadline=None)
@given(
    excess=st.floats(math.log(1e-6), math.log(10.0)).map(math.exp),
    b=st.floats(0.5, 1.3),
    d_m=st.floats(0.2, 2.0),
    d_h=st.floats(0.2, 2.0),
    k_a=st.integers(0, 5),
    k_b=st.integers(0, 5),
    dt_fraction=st.just(1.0) | st.floats(0.01, 1.0),
    n=st.integers(8, 20),
    history_mode=st.sampled_from(["constant", "modulated"]),
    amplitude=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**16),
)
def test_certify_passes_at_random_supercritical_points(
    excess, b, d_m, d_h, k_a, k_b, dt_fraction, n, history_mode, amplitude, seed
):
    # R0^2 - 1 is log-uniform in [1e-6, 10], set through mu_m, to which
    # R0^2 is inversely proportional.  For b <= 1.3 the stiffest loss
    # rate is mu_h + beta_h A = 1 + 2 b whatever mu_m and tau_b, so the
    # stability bound is known before the delays are: dt may sit on it.
    base = {**WORKED, "b": b, "d_m": d_m, "d_h": d_h}
    bound = stability_dt_bound(ModelParams(**base))
    dt = dt_fraction * bound
    delays = {"tau_a": k_a * dt, "tau_b": k_b * dt}
    r0_squared = basic_reproduction_number(ModelParams(**{**base, **delays})) ** 2
    params = ModelParams(**{**base, **delays, "mu_m": r0_squared / (1.0 + excess)})
    assert stability_dt_bound(params) == bound
    assert basic_reproduction_number(params) ** 2 - 1.0 == pytest.approx(excess, rel=1e-6)
    config = SimConfig(
        params=params, domain=Domain(L=1.0, n=n), dt=dt, t_end=30 * dt, certify=True,
        history_mode=history_mode, perturb_amplitude=amplitude,
    )
    traj = run(config, build_initial_history(config, seed))
    assert len(traj.times) == 31
    cert = certify(traj)
    assert cert.passed, cert.violations


def certifying_record(config, seed, block_steps=None):
    """The run's Lyapunov record, with integrator.RUN_BLOCK_STEPS patched when given."""
    if block_steps is None:
        return run(config, build_initial_history(config, seed)).lyapunov
    with run_block_steps(block_steps):
        return run(config, build_initial_history(config, seed)).lyapunov


@settings(max_examples=12, deadline=None)
@given(
    k_a=st.integers(0, 6),
    k_b=st.integers(0, 6),
    n=st.integers(8, 24),
    rows=st.integers(2, 5),
    blocks=st.integers(0, 4),
    rest=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@example(k_a=0, k_b=0, n=8, rows=3, blocks=2, rest=1, seed=1)
@example(k_a=6, k_b=3, n=256, rows=4, blocks=2, rest=3, seed=2)
@example(k_a=60, k_b=0, n=48, rows=2, blocks=65, rest=1, seed=3)  # default blocks fill
def test_blocks_give_the_bytes_of_one_state_at_a_time(k_a, k_b, n, rows, blocks, rest, seed):
    # The record is the same with one state per eval_V call, with blocks
    # of a few states and at the default bound.  Blocks end when full and
    # at the last step, which the step count puts inside a block.
    dt = 0.05 if k_a < 10 else 0.005
    params = ModelParams(**{**WORKED, "tau_a": k_a * dt, "tau_b": k_b * dt})
    steps = blocks * rows + min(rest, rows - 1)
    config = SimConfig(
        params=params, domain=Domain(L=1.0, n=n), dt=dt, t_end=steps * dt, certify=True,
        history_mode="modulated",
    )
    one = certifying_record(config, seed, block_steps=1)
    assert len(one) == steps + 1
    assert certifying_record(config, seed).tobytes() == one.tobytes()
    few = certifying_record(config, seed, block_steps=rows)
    assert few.tobytes() == one.tobytes()


@pytest.mark.parametrize("at_step", [1, 7, 30])
def test_a_nonpositive_state_stops_the_run_at_its_step(worked_params, monkeypatch, at_step):
    # Checkpoints every k_a = 40 steps, and at n = 48 blocks of 25 steps
    # end before them: the state of step at_step, with one zero of u1, is
    # still evaluated before step runs again.
    import dengue_rd.integrator as integrator

    real_step = integrator.step
    calls = 0

    def zero_u1_at(history, *args, **kwargs):
        nonlocal calls
        calls += 1
        if calls < at_step:
            return real_step(history, *args, **kwargs)
        state = history.latest
        state[0, 3] = 0.0
        return history.append(state)

    monkeypatch.setattr(integrator, "step", zero_u1_at)
    domain = Domain(L=1.0, n=48)
    params = dataclasses.replace(worked_params, tau_a=2.0)
    config = SimConfig(params=params, domain=domain, dt=0.05, t_end=5.0, certify=True)
    with pytest.raises(ValueError, match="strictly positive u1; min value is 0$"):
        run(config, build_initial_history(config, 1))
    assert calls == at_step
