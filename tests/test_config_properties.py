"""Property tests for SimConfig, the one place a run's rules are checked.

A SimConfig built in code must reject exactly the documents load_config
rejects, with the same message and before anything is integrated; and a
run at the largest step SimConfig admits must stay in the invariant box.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dengue_rd import (
    BOX_SLACK,
    ConfigError,
    Domain,
    ModelParams,
    SimConfig,
    bound_vector,
    build_initial_history,
    load_config,
    run,
    stability_dt_bound,
)
from dengue_rd.config import PARAM_KEYS

from conftest import config_doc

# At the worked point R0 = sqrt(2) b exp(-tau_b / 2), so b in [0.5, 1.5]
# falls on both sides of the threshold for every drawn tau_b.
biting_rates = st.floats(0.5, 1.5)


@st.composite
def run_documents(draw) -> dict:
    doc = config_doc(
        n=draw(st.sampled_from([8, 16, 48])),
        b=draw(biting_rates),
        tau_a=draw(st.sampled_from([0.0, 5e-5, 0.1, 0.5])),
        tau_b=draw(st.sampled_from([0.0, 0.05, 0.25])),
        certify=draw(st.booleans()),
    )
    bound = stability_dt_bound(ModelParams(**{k: doc[k] for k in PARAM_KEYS}))
    delay = draw(st.sampled_from([doc["tau_a"], doc["tau_b"]])) or 0.5
    k = draw(st.integers(1, 4000))
    doc["dt"] = draw(
        st.sampled_from([
            bound,
            bound * (1.0 + 1e-12),
            bound * (1.0 - 1e-12),
            delay / k,  # divides this delay, maybe not the other one
            delay / k * (1.0 + 1e-9),  # divides neither
            5e-5,  # below the kernel floor of certification
        ])
        | st.floats(1e-5, 0.2)
    )
    return doc


def build_in_code(doc: dict) -> SimConfig:
    return SimConfig(
        params=ModelParams(**{k: doc[k] for k in PARAM_KEYS}),
        domain=Domain(L=doc["L"], n=doc["n"]),
        dt=doc["dt"],
        t_end=doc["t_end"],
        certify=doc.get("certify", False),
    )


def outcome(build, doc):
    try:
        return build(doc), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=80, deadline=None)
@given(run_documents())
@example(config_doc(dt=5e-5, t_end=1e-4, certify=True))
@example(config_doc(dt=0.03))
def test_sim_config_rejects_exactly_what_load_config_rejects(doc):
    loaded, load_error = outcome(load_config, doc)
    built, build_error = outcome(build_in_code, doc)
    assert build_error == load_error
    assert built == loaded


@pytest.mark.parametrize(
    "doc, message",
    [
        (config_doc(dt=5e-5, t_end=1e-4, certify=True), "certification needs dt >= "),
        (config_doc(dt=0.03), "does not divide the delay tau=0.5"),
    ],
)
def test_sim_config_rejects_before_any_run(doc, message):
    with pytest.raises(ConfigError) as loaded:
        load_config(doc)
    with pytest.raises(ValueError) as built:
        build_in_code(doc)
    assert str(built.value) == str(loaded.value)
    assert message in str(built.value)


@st.composite
def configs_at_the_stability_bound(draw) -> SimConfig:
    rate = st.floats(0.2, 3.0)
    rates = dict(
        d_m=draw(st.floats(0.01, 2.0)),
        d_h=draw(st.floats(0.01, 2.0)),
        A=draw(st.floats(0.5, 5.0)),
        H=draw(st.floats(0.5, 5.0)),
        b=draw(rate),
        p=draw(st.floats(0.1, 1.0)),
        q=draw(st.floats(0.1, 1.0)),
        mu_m=draw(rate),
        mu_h=draw(rate),
        gamma_h=draw(st.floats(0.0, 3.0)),
        tau_a=0.0,
    )
    k_a, k_b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    # The bound rises with tau_b (M3 decays with it) and tau_b = k_b dt,
    # so dt is the fixed point of dt -> bound(tau_b = k_b dt), a
    # contraction with ratio below 0.2 k_b.  The last pass sets dt to the
    # bound exactly, with tau_b within roundoff of k_b dt.
    dt = tau_b = 0.0
    for _ in range(100):
        tau_b = k_b * dt
        dt = stability_dt_bound(ModelParams(**rates, tau_b=tau_b))
    params = ModelParams(**{**rates, "tau_a": k_a * dt, "tau_b": tau_b})
    n = draw(st.integers(8, 16))
    return SimConfig(
        params=params,
        domain=Domain(L=draw(st.floats(0.5, 3.0)), n=n),
        dt=dt,
        t_end=60 * dt,
        strict_box=False,
        history_mode=draw(st.sampled_from(["constant", "modulated"])),
        perturb_amplitude=0.9,
        perturb_modes=draw(st.integers(1, n - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(configs_at_the_stability_bound(), st.integers(0, 2**16))
def test_run_at_the_stability_bound_stays_in_the_box(config, seed):
    assert config.dt == stability_dt_bound(config.params)
    traj = run(config, build_initial_history(config, seed))
    assert len(traj.times) == 61
    ceiling = bound_vector(config.params) * (1.0 + BOX_SLACK)
    assert (traj.comp_min >= 0.0).all(), traj.comp_min.min(axis=0)
    assert (traj.comp_max <= ceiling).all(), (traj.comp_max.max(axis=0), ceiling)
    assert traj.bounds_ok
    assert np.isfinite(traj.final_state).all()


def test_perturb_modes_must_be_below_the_grid_size():
    # Mode n - 1 is the highest cosine mode the grid carries.
    with pytest.raises(ConfigError) as loaded:
        load_config(config_doc(n=8, perturb_modes=8))
    assert str(loaded.value) == "perturb_modes=8 must be below the number of cosine modes n=8"
    config = load_config(config_doc(n=8, perturb_modes=7))
    assert config.perturb_modes == 7
    assert np.isfinite(build_initial_history(config, 0).latest).all()
    # The rule binds only where the perturbation exists.
    assert load_config(config_doc(n=8, perturb_modes=8, perturb_amplitude=0.0)).perturb_modes == 8
