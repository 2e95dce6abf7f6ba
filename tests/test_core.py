import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dengue_rd import (
    Domain,
    History,
    ModelParams,
    bound_vector,
    lag_steps,
    sup_distance,
    validate_initial_history,
)

from conftest import WORKED, constant_state


def test_derived_rates_are_exact_products(worked_params):
    p = worked_params
    assert p.beta_m == p.b * p.p
    assert p.beta_h == p.b * p.q
    assert p.rho_h == p.mu_h + p.gamma_h
    assert p.survival_b == math.exp(-p.mu_h * p.tau_b)


@pytest.mark.parametrize(
    "field,value",
    [
        ("d_m", 0.0),
        ("A", -1.0),
        ("H", float("inf")),
        ("mu_m", 0.0),
        ("mu_h", float("nan")),
        ("p", 0.0),
        ("p", 1.5),
        ("q", -0.1),
        ("gamma_h", -1.0),
        ("tau_a", -0.5),
        ("tau_b", float("inf")),
    ],
)
def test_params_validation_rejects(field, value):
    with pytest.raises(ValueError, match=field):
        ModelParams(**{**WORKED, field: value})


def test_zero_delays_and_zero_recovery_allowed():
    p = ModelParams(**{**WORKED, "tau_a": 0.0, "tau_b": 0.0, "gamma_h": 0.0})
    assert p.rho_h == p.mu_h
    assert p.survival_b == 1.0


def test_bound_vector_unit_point():
    p = ModelParams(
        d_m=1.0, d_h=1.0, A=1.0, H=1.0, b=1.0, p=1.0, q=1.0,
        mu_m=1.0, mu_h=1.0, gamma_h=0.0, tau_a=0.0, tau_b=0.0,
    )
    assert np.array_equal(bound_vector(p), [1.0, 1.0, 1.0])


def test_bound_vector_worked_point(worked_params):
    assert np.allclose(bound_vector(worked_params), [2.0, 2.0, 2.0], rtol=0, atol=0)


def test_bound_vector_m3_decays_with_tau_b():
    values = [
        bound_vector(ModelParams(**{**WORKED, "tau_b": tb}))[2]
        for tb in (0.0, 1.0, 5.0, 25.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-10


def test_bound_vector_monotone_in_each_parameter():
    # increasing in A, H, beta_h (via q); decreasing in tau_b, mu_h
    base_doc = {**WORKED, "q": 0.5, "tau_b": 0.5}
    base = bound_vector(ModelParams(**base_doc))
    for name, delta, direction in (
        ("A", 0.1, 1),
        ("H", 0.1, 1),
        ("q", 0.1, 1),
        ("tau_b", 0.1, -1),
        ("mu_h", 0.1, -1),
    ):
        bumped = bound_vector(ModelParams(**{**base_doc, name: base_doc[name] + delta}))
        moved = bumped - base
        nonzero = moved[np.abs(moved) > 0]
        assert nonzero.size > 0
        assert np.all(direction * nonzero > 0), f"{name} moved M the wrong way"


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(L=0.0, n=16)
    with pytest.raises(ValueError):
        Domain(L=1.0, n=4)
    # every run keeps all n cosine modes: there is no mode count to set
    assert [f.name for f in dataclasses.fields(Domain)] == ["L", "n"]
    with pytest.raises(TypeError):
        Domain(L=1.0, n=16, N=8)


def test_domain_grid_and_weights(domain):
    x = domain.grid
    assert x[0] == 0.0 and x[-1] == domain.L
    assert np.allclose(np.diff(x), domain.L / (domain.n - 1))
    w = domain.trapezoid_weights
    assert w.sum() == pytest.approx(domain.L, rel=1e-14)
    assert w[0] == w[-1] == 0.5 * w[1]


@pytest.mark.parametrize("name", ["grid", "trapezoid_weights"])
def test_domain_arrays_are_built_once_and_read_only(name):
    domain = Domain(L=2.0, n=16)
    arr = getattr(domain, name)
    assert getattr(domain, name) is arr
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = 1.0


def test_domain_cache_leaves_equality_and_hash_alone():
    warm, cold = Domain(L=2.0, n=16), Domain(L=2.0, n=16)
    warm.grid, warm.trapezoid_weights
    assert warm == cold and hash(warm) == hash(cold)
    assert {warm: 1}[cold] == 1
    assert warm != Domain(L=2.0, n=8)
    assert warm != Domain(L=2.5, n=16)


def test_domain_keyed_caches_still_hit(worked_params):
    from dengue_rd.integrator import _step_plan
    from dengue_rd.spectral import _operators

    first = Domain(L=1.5, n=20)
    ops, plan = _operators(first), _step_plan(worked_params, first, 0.05)
    twin = Domain(L=1.5, n=20)
    twin.trapezoid_weights  # its own cached arrays, same fields
    ops_hits, plan_hits = _operators.cache_info().hits, _step_plan.cache_info().hits
    assert _operators(twin) is ops
    assert _step_plan(worked_params, twin, 0.05) is plan
    assert _operators.cache_info().hits == ops_hits + 1
    assert _step_plan.cache_info().hits == plan_hits + 1


def test_history_state_layout(domain):
    rng = np.random.default_rng(3)
    arr = rng.uniform(0.1, 1.0, size=(3, domain.n))
    h = History.constant(arr, 2, 0.1)
    got = h.lookup(1)
    assert got.shape == (3, domain.n) and np.array_equal(got, arr)
    got[0, 0] = -1.0  # lookups are copies
    assert h.lookup(1)[0, 0] == arr[0, 0]
    with pytest.raises(ValueError, match="same grid size"):
        History([arr, arr[:, : domain.n - 1]], 0.1)
    with pytest.raises(ValueError, match=r"\(3, n\)"):
        History([arr[:2]], 0.1)
    with pytest.raises(ValueError, match="3 rows"):
        h.append(arr[0])  # one row would broadcast over all three


def test_sup_distance(domain):
    s = constant_state((1.0, 2.0, 3.0), domain.n)
    assert sup_distance(s, np.array([1.0, 2.0, 3.0])) == 0.0
    assert sup_distance(s, np.array([1.0, 2.5, 3.0])) == 0.5
    s[2, 5] = 3.75
    assert sup_distance(s, np.array([1.0, 2.5, 3.0])) == 0.75


VALUES = st.one_of(st.floats(-1e300, 1e300), st.just(math.nan))


@settings(max_examples=80, deadline=None)
@given(
    state=st.integers(1, 6).flatmap(lambda n: arrays(float, (3, n), elements=VALUES)),
    points=st.integers(1, 4).flatmap(lambda p: arrays(float, (p, 3), elements=VALUES)),
    nan_row=st.booleans(),
)
def test_stacked_sup_distance_equals_one_call_per_point(state, points, nan_row):
    if nan_row:
        points[-1] = math.nan
    stacked = sup_distance(state, points)
    alone = [float(np.abs(state - p[:, None]).max()) for p in points]
    assert stacked.shape == (len(points),)
    assert [d.hex() for d in stacked.tolist()] == [d.hex() for d in alone]
    assert [float(sup_distance(state, p)).hex() for p in points] == [d.hex() for d in alone]


def test_lag_steps_accepts_exact_multiples():
    assert lag_steps(0.5, 0.05) == 10
    assert lag_steps(0.0, 0.1) == 0
    assert lag_steps(0.3, 0.1) == 3  # 0.3/0.1 is not exact in binary but within rtol


def test_lag_steps_rejects_and_suggests():
    with pytest.raises(ValueError, match="nearest admissible"):
        lag_steps(0.5, 0.07)
    # the suggested dt must itself be admissible
    try:
        lag_steps(0.5, 0.07)
    except ValueError as exc:
        suggested = float(str(exc).rsplit("is ", 1)[1])
    assert lag_steps(0.5, suggested) >= 1
    with pytest.raises(ValueError, match="dt must be positive"):
        lag_steps(0.5, 0.0)


def test_history_lookup_round_trip(domain):
    dt = 0.1
    states = [constant_state((float(j), 0.5, 1.0), domain.n) for j in range(5)]
    h = History(states, dt)
    assert h.n_lags == 4 and h.n == domain.n
    # lag 0 is the newest entry, bit-exact
    assert np.array_equal(h.lookup(0), states[-1])
    for k in range(5):
        assert h.lookup(k)[0, 0] == float(4 - k)
    # push a full window of fresh states and read them all back
    for j in range(5, 10):
        h.append(constant_state((float(j), 0.5, 1.0), domain.n))
    for k in range(5):
        assert h.lookup(k)[0, 0] == float(9 - k)
    with pytest.raises(ValueError):
        h.lookup(5)
    with pytest.raises(ValueError):
        h.lookup(-1)
    # a block of lags reads oldest first, across the ring's wrap
    h.append(constant_state((10.0, 0.5, 1.0), domain.n))
    for k in range(5):
        for count in range(1, k + 2):
            block = h.lookup_block(k, count)
            assert block.shape == (count, 3, domain.n)
            assert [s[0, 0] for s in block] == [h.lookup(k - j)[0, 0] for j in range(count)]
    for k, count in ((5, 1), (2, 4), (2, 0)):
        with pytest.raises(ValueError, match="outside stored window"):
            h.lookup_block(k, count)


def test_history_from_function_samples_lag_times(domain):
    dt = 0.25

    def phi(s: float) -> np.ndarray:
        return constant_state((s, 1.0, 1.0), domain.n)

    h = History.from_function(phi, n_lags=4, dt=dt)
    for k in range(5):
        assert h.lookup(k)[0, 0] == -k * dt


def test_history_append_advances_time(domain):
    h = History.constant(constant_state((1.0, 1.0, 1.0), domain.n), 2, 0.5)
    assert h.t_now == 0.0
    h.append(constant_state((1.0, 1.0, 1.0), domain.n))
    assert h.t_now == 0.5


def test_validate_history_endemic_ok(worked_params, domain):
    h = History.constant(constant_state((0.5, 4 / 3, 1 / 3), domain.n), 10, 0.05)
    report = validate_initial_history(h, worked_params)
    assert report.ok and not report.degenerate and report.violations == []


def test_validate_history_flags_box_breach(worked_params, domain):
    m3 = bound_vector(worked_params)[2]
    u3 = np.full(domain.n, 0.1)
    u3[7] = 1.5 * m3
    state = np.array([np.full(domain.n, 0.1), np.full(domain.n, 1.0), u3])
    report = validate_initial_history(
        History.constant(state, 10, 0.05), worked_params
    )
    assert not report.ok
    assert any("u3" in v and "ceiling" in v for v in report.violations)


def test_validate_history_flags_negative_and_nonfinite(worked_params, domain):
    u1 = np.full(domain.n, 0.1)
    u1[0] = -0.01
    u3 = np.full(domain.n, 0.1)
    u3[3] = np.nan
    state = np.array([u1, np.full(domain.n, 1.0), u3])
    report = validate_initial_history(
        History.constant(state, 10, 0.05), worked_params
    )
    assert not report.ok
    assert any("negative" in v for v in report.violations)
    assert any("non-finite" in v for v in report.violations)


def test_validate_history_degenerate_start(worked_params, domain):
    state = np.array([np.zeros(domain.n), np.full(domain.n, 1.0), np.zeros(domain.n)])
    report = validate_initial_history(History.constant(state, 10, 0.05), worked_params)
    assert report.ok  # admissible, but flagged
    assert report.degenerate


def test_validate_history_strict_positivity(worked_params, domain):
    state = constant_state((1e-14, 1.0, 0.1), domain.n)
    h = History.constant(state, 10, 0.05)
    assert validate_initial_history(h, worked_params).ok
    strict = validate_initial_history(h, worked_params, strict_positive=True)
    assert not strict.ok
    assert any("floor" in v for v in strict.violations)
