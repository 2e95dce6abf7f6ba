"""Reproduction number, equilibria and threshold classification.

Spatially constant equilibria of the model solve the reaction balance

    beta_m (A - u1) u3 = mu_m u1
    H = beta_h u1 u2 + mu_h u2
    beta_h exp(-mu_h tau_b) u1 u2 = rho_h u3.

The disease-free state (0, H / mu_h, 0) always exists.  A unique endemic
state exists exactly when the basic reproduction number

    R0 = sqrt( beta_h beta_m A H exp(-mu_h tau_b) / (mu_h mu_m rho_h) )

exceeds one, and then it is the global attractor of all non-degenerate
admissible initial data.  Next to the closed form this module carries a
damped Newton solver for the same balance, kept deliberately independent
so the closed form can be cross-checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, bound_vector

__all__ = [
    "EquilibriumSet",
    "basic_reproduction_number",
    "compute_equilibria",
    "disease_free_equilibrium",
    "endemic_equilibrium",
    "endemic_newton_multistart",
    "regime_classify",
    "rhs_residual",
    "solve_endemic_newton",
]

BELOW_THRESHOLD = "below_threshold"
NEW_REGIME = "new_regime"
OLD_REGIME = "old_regime"


def _r0_squared(params: ModelParams) -> float:
    return (
        params.beta_h
        * params.beta_m
        * params.A
        * params.H
        * params.survival_b
        / (params.mu_h * params.mu_m * params.rho_h)
    )


def basic_reproduction_number(params: ModelParams) -> float:
    """R0, the mean number of secondary infections from one case.

    R0^2 multiplies the two transmission legs: a human case infects
    beta_m A / rho_h mosquitoes over its infectious period, and a
    mosquito case infects beta_h (H / mu_h) exp(-mu_h tau_b) / mu_m
    humans surviving intrinsic incubation.
    """
    return math.sqrt(_r0_squared(params))


def disease_free_equilibrium(params: ModelParams) -> np.ndarray:
    """The infection-free steady state (0, H / mu_h, 0)."""
    return np.array([0.0, params.H / params.mu_h, 0.0])


def endemic_equilibrium(params: ModelParams) -> np.ndarray | None:
    """Closed-form positive steady state, or None when R0 <= 1.

    Eliminating u2 and u3 from the balance equations leaves a linear
    equation for u1 with the positive root

        u1* = (beta_m beta_h A H s - mu_m rho_h mu_h)
              / (beta_m beta_h H s + mu_m rho_h beta_h),   s = exp(-mu_h tau_b),

    then u2* = H / (beta_h u1* + mu_h) and
    u3* = beta_h s u1* u2* / rho_h.  The numerator of u1* is positive
    exactly when R0 > 1; at or below the threshold no positive steady
    state exists.  Threshold comparisons use R0^2 to avoid the square
    root's rounding at the boundary.
    """
    if _r0_squared(params) <= 1.0:
        return None
    s = params.survival_b
    num = params.beta_m * params.beta_h * params.A * params.H * s - (
        params.mu_m * params.rho_h * params.mu_h
    )
    den = params.beta_m * params.beta_h * params.H * s + (
        params.mu_m * params.rho_h * params.beta_h
    )
    u1 = num / den
    u2 = params.H / (params.beta_h * u1 + params.mu_h)
    u3 = params.beta_h * s * u1 * u2 / params.rho_h
    return np.array([u1, u2, u3])


def rhs_residual(values: np.ndarray, params: ModelParams) -> np.ndarray:
    """Absolute reaction residuals of a spatially constant state.

    Evaluates the three balance equations at (u1, u2, u3) and returns the
    componentwise absolute values; all three vanish exactly at an
    equilibrium.
    """
    u1, u2, u3 = (float(v) for v in np.asarray(values, dtype=float))
    r1 = params.beta_m * (params.A - u1) * u3 - params.mu_m * u1
    r2 = params.H - params.beta_h * u1 * u2 - params.mu_h * u2
    r3 = params.beta_h * params.survival_b * u1 * u2 - params.rho_h * u3
    return np.abs(np.array([r1, r2, r3]))


def regime_classify(params: ModelParams) -> str:
    """Classifies the parameter point by which attractivity result covers it.

    below_threshold: R0 <= 1; the disease-free state is the attractor.
    old_regime: R0 > max(1, sqrt(A beta_h / mu_h)); the stronger
        sufficient condition for endemic attractivity holds.
    new_regime: 1 < R0 <= sqrt(A beta_h / mu_h); only the sharp R0 > 1
        condition certifies endemic attractivity.  Boundary points of the
        stronger condition fall here, since it is a strict inequality.

    Comparisons are made on R0^2, which is exact at both boundaries.
    """
    r0_sq = _r0_squared(params)
    if r0_sq <= 1.0:
        return BELOW_THRESHOLD
    if r0_sq > max(1.0, params.A * params.beta_h / params.mu_h):
        return OLD_REGIME
    return NEW_REGIME


def _percapita_and_jacobian(
    v: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Per-capita balance residuals and their Jacobian in log variables.

    The first and third balance equations are divided by u1 and u3, which
    leaves the endemic root untouched but removes the disease-free root:
    along u1, u3 -> 0 the third residual tends to rho_h (R0^2 - 1) != 0.
    Variables are v = log u, so positivity is automatic.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u1, u2, u3 = np.exp(v)
        s = params.survival_b
        bm, bh = params.beta_m, params.beta_h
        ratio13 = u3 / u1
        ratio12_3 = u1 * u2 / u3
        f = np.array(
            [
                bm * (params.A - u1) * ratio13 - params.mu_m,
                params.H - bh * u1 * u2 - params.mu_h * u2,
                bh * s * ratio12_3 - params.rho_h,
            ]
        )
        jac = np.array(
            [
                [-bm * params.A * ratio13, 0.0, bm * (params.A - u1) * ratio13],
                [-bh * u1 * u2, -(bh * u1 + params.mu_h) * u2, 0.0],
                [bh * s * ratio12_3, bh * s * ratio12_3, -bh * s * ratio12_3],
            ]
        )
    return f, jac


def solve_endemic_newton(
    params: ModelParams,
    x0: np.ndarray,
    *,
    rtol: float = 1e-11,
    step_tol: float = 1e-11,
    max_iter: int = 400,
) -> np.ndarray | None:
    """Damped Newton solve of the constant balance equations.

    Independent cross-check for the closed form: damped Newton on the
    balance residuals in per-capita, log-variable form (see
    _percapita_and_jacobian), with the analytic Jacobian.  The line
    search backtracks on the scaled least-squares merit, for which the
    Newton direction is always a descent direction, and the iteration
    runs until it stalls at the roundoff floor.

    Convergence is declared on either of two conditions: the scaled
    residual falls below rtol, or the iteration stalls while the Newton
    step (the standard a-posteriori error estimate in the log
    variables, i.e. componentwise relative error) is below step_tol.
    The second condition matters when u1 sits very close to the
    recruitment ceiling A: the factor A/(A - u1) then amplifies the
    residual floor and the Jacobian alike, so the root is still located
    to machine precision even though the residual cannot reach rtol.

    Returns the endemic root, or None when neither condition is met;
    the disease-free root is not a root of the per-capita form, so it
    cannot be returned.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,) or np.any(x0 <= 0.0):
        raise ValueError("Newton seed must be a positive triple")
    # Warm start: Gauss-Seidel sweeps through the balance equations.
    # Eliminating u2 and u3 leaves a 1-d update u1 -> g(u1) that is
    # increasing, concave and bounded with g(0) = 0, so the sweeps
    # approach the unique positive fixed point from any positive seed
    # (or slide to zero when no such point exists).  This keeps raw
    # Newton from chasing the residual infimum at the u1, u3 -> 0
    # boundary, where the per-capita residual stays bounded away from
    # zero but still decreases without limit toward it.
    bm, bh, s = params.beta_m, params.beta_h, params.survival_b
    u1 = float(x0[0])
    for _ in range(30):
        u2 = params.H / (bh * u1 + params.mu_h)
        u3 = bh * s * u1 * u2 / params.rho_h
        u1 = bm * params.A * u3 / (params.mu_m + bm * u3)
    # Each equation balances against its constant term at the root.
    scales = np.array([params.mu_m, params.H, params.rho_h])
    tiny = np.finfo(float).tiny
    v = np.log(np.maximum(np.array([u1, u2, u3]), tiny))
    f, jac = _percapita_and_jacobian(v, params)
    merit = float(np.linalg.norm(f / scales))
    step = np.inf
    stalled = False
    for _ in range(max_iter):
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        step = float(np.abs(delta).max())
        # Cap the log step so a wild Newton direction cannot overflow.
        if step > 5.0:
            delta *= 5.0 / step
        alpha = 1.0
        while alpha >= 1e-14:
            trial = v + alpha * delta
            f_trial, jac_trial = _percapita_and_jacobian(trial, params)
            merit_trial = float(np.linalg.norm(f_trial / scales))
            if merit_trial < merit:
                v, f, jac, merit = trial, f_trial, jac_trial, merit_trial
                break
            alpha *= 0.5
        else:
            stalled = True  # at the roundoff floor; step sizes the error
            break
    converged = np.abs(f / scales).max() <= rtol or (stalled and step <= step_tol)
    if not converged:
        return None
    return np.exp(v)


def endemic_newton_multistart(
    params: ModelParams, n_seeds: int = 32, seed: int = 0
) -> list[np.ndarray]:
    """Runs the Newton solver from random positive seeds inside the box.

    Returns every endemic root found, one entry per converged seed; with
    R0 > 1 they should all coincide.
    """
    rng = np.random.default_rng(seed)
    bound = bound_vector(params)
    roots = []
    for _ in range(n_seeds):
        x0 = rng.uniform(0.05, 0.95, size=3) * bound
        root = solve_endemic_newton(params, x0)
        if root is not None:
            roots.append(root)
    return roots


@dataclass(frozen=True)
class EquilibriumSet:
    """R0, regime tag, both equilibria and their balance residuals."""

    r0: float
    regime: str
    dfe: np.ndarray
    endemic: np.ndarray | None
    dfe_residual: np.ndarray
    endemic_residual: np.ndarray | None


def compute_equilibria(params: ModelParams) -> EquilibriumSet:
    """Evaluates everything reportable about the constant steady states."""
    dfe = disease_free_equilibrium(params)
    endemic = endemic_equilibrium(params)
    return EquilibriumSet(
        r0=basic_reproduction_number(params),
        regime=regime_classify(params),
        dfe=dfe,
        endemic=endemic,
        dfe_residual=rhs_residual(dfe, params),
        endemic_residual=None if endemic is None else rhs_residual(endemic, params),
    )
