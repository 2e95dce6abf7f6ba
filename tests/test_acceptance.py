"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines; every check is asserted, so the suite also gates CI.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dengue_rd import (
    Domain,
    History,
    ModelParams,
    SimConfig,
    basic_reproduction_number,
    bound_vector,
    build_initial_history,
    certify,
    endemic_equilibrium,
    heat_apply,
    lag_steps,
    load_config,
    rhs_residual,
    run,
    run_homogeneous,
    solve_endemic_newton,
)

from conftest import WORKED, W_rel_errors, column_mass_defect, constant_state, run_every_state

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# The seed of the initial histories of cert_run and halved_runs.
SEED = 42


def _criterion(number, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {title}: {status} -- {detail}")
    assert ok, f"criterion {number} ({title}) failed: {detail}"


@pytest.fixture(scope="module")
def cert_run():
    """The shipped certification scenario, shared by criteria 4 and 8."""
    config = load_config(CONFIG_DIR / "worked_sqrt2.json")
    initial = build_initial_history(config, seed=SEED)
    start = time.perf_counter()
    traj = run(config, initial)
    elapsed = time.perf_counter() - start
    return traj, certify(traj), elapsed


@pytest.fixture(scope="module")
def halved_runs():
    """Certifying runs at the default step and three halvings (criteria 5, 8)."""
    out = {}
    for dt in (0.05, 0.025, 0.0125, 0.00625):
        doc = dict(WORKED)
        doc.update({"L": 1.0, "n": 48, "dt": dt, "t_end": 2.0, "certify": True})
        config = load_config(doc)
        out[dt] = run(config, build_initial_history(config, seed=SEED))
    return out


def test_criterion_1_kernel_suite():
    start = time.perf_counter()
    domain = Domain(L=1.3, n=96)
    rng = np.random.default_rng(1)
    x = domain.grid
    f = 1.0 + 0.5 * np.cos(math.pi * x / domain.L) + 0.2 * np.cos(
        3 * math.pi * x / domain.L
    ) + 0.01 * rng.standard_normal(domain.n)
    d = 0.7
    w = domain.trapezoid_weights

    identity_exact = np.array_equal(heat_apply(f, d, 0.0, domain), f)

    mass0 = float(w @ f)
    mass_err = max(
        abs(float(w @ heat_apply(f, d, t, domain)) / mass0 - 1.0)
        for t in (1e-3, 0.05, 1.0, 20.0)
    )

    two_step = heat_apply(heat_apply(f, d, 0.4, domain), d, 0.35, domain)
    semigroup_err = float(np.abs(two_step - heat_apply(f, d, 0.75, domain)).max())

    mode = np.cos(math.pi * x / domain.L)
    t = 0.3
    factor = math.exp(-d * t * (math.pi / domain.L) ** 2)
    decay_err = float(np.abs(heat_apply(mode, d, t, domain) - factor * mode).max())

    elapsed = time.perf_counter() - start
    ok = (
        identity_exact
        and mass_err <= 1e-12
        and semigroup_err <= 1e-10
        and decay_err <= 1e-12
        and elapsed < 1.0
    )
    _criterion(
        1,
        "kernel identity, mass, semigroup, eigenmode decay",
        ok,
        f"identity_exact={identity_exact}, mass={mass_err:.2e}, "
        f"semigroup={semigroup_err:.2e}, decay={decay_err:.2e}, "
        f"elapsed={elapsed:.2f}s (<1s)",
    )


def test_criterion_2_equilibrium_suite():
    params = ModelParams(**WORKED)
    star = endemic_equilibrium(params)
    triple_err = float(
        np.abs(star - np.array([0.5, 4.0 / 3.0, 1.0 / 3.0])).max()
    )
    worked_residual = float(rhs_residual(star, params).max())

    rng = np.random.default_rng(2)

    def lu(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    worst_rel = 0.0
    mismatches = 0
    n_endemic = 0
    for _ in range(1000):
        p = ModelParams(
            d_m=lu(1e-2, 1e2), d_h=lu(1e-2, 1e2),
            A=lu(1e-1, 1e3), H=lu(1e-1, 1e3),
            b=lu(1e-2, 1e2),
            p=float(rng.uniform(0.05, 1.0)), q=float(rng.uniform(0.05, 1.0)),
            mu_m=lu(1e-2, 1e2), mu_h=lu(1e-2, 1e2), gamma_h=lu(1e-2, 1e2),
            tau_a=lu(1e-3, 1e1), tau_b=lu(1e-3, 1e1),
        )
        closed = endemic_equilibrium(p)
        if (closed is not None) != (basic_reproduction_number(p) > 1.0):
            mismatches += 1
            continue
        if closed is None:
            continue
        n_endemic += 1
        x0 = rng.uniform(0.05, 0.95, 3) * bound_vector(p)
        root = solve_endemic_newton(p, x0)
        if root is None:
            mismatches += 1
            continue
        worst_rel = max(worst_rel, float(np.max(np.abs(root - closed) / closed)))

    ok = (
        triple_err <= 1e-13
        and worked_residual <= 1e-12
        and worst_rel <= 1e-10
        and mismatches == 0
    )
    _criterion(
        2,
        "worked equilibrium, Newton oracle, existence threshold",
        ok,
        f"triple={triple_err:.2e}, residual={worked_residual:.2e}, "
        f"newton_rel={worst_rel:.2e} over {n_endemic} endemic draws, "
        f"exceptions={mismatches}/1000",
    )


def test_criterion_3_homogeneous_reduction():
    start = time.perf_counter()
    params = ModelParams(**{**WORKED, "tau_b": 0.25})
    y0 = np.array([0.3, 1.0, 0.5])
    domain = Domain(L=1.0, n=32)
    dt0 = 0.05
    reference = run_homogeneous(params, y0, dt0 / 128.0, 10.0)[-1]

    errors = []
    for dt in (dt0, dt0 / 2.0, dt0 / 4.0):
        n_lags = max(lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt))
        hist = History.constant(constant_state(y0, domain.n), n_lags, dt)
        traj = run(SimConfig(params=params, domain=domain, dt=dt, t_end=10.0), hist)
        final = traj.final_state[:, 0]
        errors.append(float(np.abs(final - reference).max()))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - start

    ok = min(orders) >= 0.9 and elapsed < 30.0
    _criterion(
        3,
        "splitting converges to the homogeneous delay oracle",
        ok,
        f"errors={[f'{e:.2e}' for e in errors]}, "
        f"orders={[f'{o:.3f}' for o in orders]} (>=0.9), "
        f"elapsed={elapsed:.1f}s (<30s)",
    )


def test_criterion_4_certified_attraction(cert_run):
    traj, cert, elapsed = cert_run
    final_dist = float(traj.dist_endemic[-1])
    worst_term = max(hi for _, hi in cert.term_ranges.values())
    ok = (
        cert.v_monotone
        and cert.dissipation_nonpositive
        and cert.passed
        and final_dist <= 1e-4
        and elapsed < 120.0
    )
    _criterion(
        4,
        "Lyapunov certificate on the perturbed endemic run",
        ok,
        f"V {cert.v_initial:.3e} -> {cert.v_final:.3e}, "
        f"monotone={cert.v_monotone} (slack 1e-8*V0), "
        f"max_term={worst_term:.2e} (<=1e-12), "
        f"dist(u*)={final_dist:.2e} (<=1e-4 by t=10), elapsed={elapsed:.1f}s",
    )


def test_criterion_5_dissipation_identity(halved_runs):
    # The prescribed constant history meets the evolving solution with a
    # corner at t = 0, and while that corner traverses the delay window
    # the discrete W quadrature carries a non-uniform startup artifact
    # (O(dt) with a large constant on the straddling interval).  The
    # identity is a statement about solutions, so the metric starts once
    # every state in the window was produced by the dynamics, at
    # t >= max(tau_a, tau_b); the startup values are reported alongside.
    rels, rels_startup = {}, {}
    for dt, traj in halved_runs.items():
        v, d = traj.V, traj.dissipation
        fd = np.diff(v) / dt
        mid = 0.5 * (d[:-1] + d[1:])
        defect = np.abs(fd - mid) / np.abs(mid).max()
        p = traj.config.params
        settled = traj.times[:-1] >= max(p.tau_a, p.tau_b) - 1e-12
        rels[dt] = float(defect[settled].max())
        rels_startup[dt] = float(defect[~settled].max())
    steps = sorted(rels, reverse=True)
    ok = rels[0.0125] <= 0.05 and rels[0.00625] < rels[0.0125]
    ladder = ", ".join(f"dt={dt}: {rels[dt]:.2e}" for dt in steps)
    _criterion(
        5,
        "finite-difference dV/dt matches the dissipation terms",
        ok,
        f"{ladder}; <=5% at 0.0125 and still improving "
        f"(startup window alone: "
        f"{', '.join(f'{rels_startup[dt]:.2e}' for dt in steps)})",
    )


def test_criterion_6_box_invariance():
    rng = np.random.default_rng(2026)
    bs = np.exp(rng.uniform(math.log(0.3), math.log(3.0), 20))
    domain = Domain(L=1.0, n=32)
    n_below = n_above = 0
    global_min = math.inf
    worst_excess = 0.0
    all_ok = True
    for i, b in enumerate(bs):
        params = ModelParams(**{**WORKED, "b": float(b)})
        if basic_reproduction_number(params) > 1.0:
            n_above += 1
        else:
            n_below += 1
        config = SimConfig(params=params, domain=domain, dt=0.01, t_end=2.0)
        traj = run(config, build_initial_history(config, seed=i))
        all_ok = all_ok and traj.bounds_ok
        global_min = min(global_min, float(traj.comp_min.min()))
        ceiling = bound_vector(params) * (1.0 + 1e-9)
        worst_excess = max(worst_excess, float((traj.comp_max / ceiling).max()))
    ok = all_ok and global_min >= 0.0 and worst_excess <= 1.0 and n_below > 0 and n_above > 0
    _criterion(
        6,
        "trajectories stay in the invariant box on both sides of R0=1",
        ok,
        f"{n_below} subcritical + {n_above} supercritical runs, "
        f"min={global_min:.2e} (>=0), max/ceiling={worst_excess:.6f} (<=1)",
    )


def test_criterion_7_extinction():
    config = load_config(CONFIG_DIR / "below_threshold.json")
    traj = run(config, build_initial_history(config, seed=0))
    u1_final = float(traj.comp_max[-1, 0])
    u3_final = float(traj.comp_max[-1, 2])
    ok = u1_final <= 1e-4 and u3_final <= 1e-4
    _criterion(
        7,
        "infected components die out below threshold",
        ok,
        f"sup u1={u1_final:.2e}, sup u3={u3_final:.2e} "
        f"(<=1e-4 by t={config.t_end:g})",
    )


def test_criterion_8_two_path_agreement(cert_run, halved_runs):
    # Two paths to the delay integrals: the run's record, which collapses
    # W1 and W2 to one scalar per lag, and a recomputation at every step
    # through assembled kernel matrices and a written-out trapezoid that
    # shares no code with the run.  Each run is repeated with a snapshot
    # at every step, which gives the states and the same record bytes.
    # The column mass of those kernel matrices, which lets the integrals
    # collapse, holds at every lag of each run's config.
    runs = [cert_run[0], *halved_runs.values()]
    errs, same_bytes = [], True
    for traj in runs:
        again, states = run_every_state(traj.config, build_initial_history(traj.config, seed=SEED))
        same_bytes = same_bytes and again.lyapunov.tobytes() == traj.lyapunov.tobytes()
        errs.append(W_rel_errors(again, states))
    errs = np.concatenate(errs)
    worst, steps = float(np.max(errs)), errs.size  # np.max keeps a NaN
    worst_mass = max(column_mass_defect(traj.config) for traj in runs)
    ok = same_bytes and worst <= 1e-12 and worst_mass <= 1e-8
    _criterion(
        8,
        "recorded delay integrals agree with a kernel-matrix recomputation",
        ok,
        f"max relative disagreement {worst:.2e} (<=1e-12) over {steps} steps of "
        f"{len(runs)} runs, records repeat byte for byte: {same_bytes}; kernel "
        f"column-mass defect {worst_mass:.2e} (<=1e-8) across all certification runs",
    )
