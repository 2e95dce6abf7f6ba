import numpy as np
import pytest

from dengue_rd import Domain, ModelParams, heat_apply


# Worked parameter point: R0 = sqrt(2) exactly, endemic (1/2, 4/3, 1/3),
# box ceiling (2, 2, 2), sitting on the boundary of the stronger regime.
WORKED = dict(
    d_m=1.0,
    d_h=1.0,
    A=2.0,
    H=2.0,
    b=1.0,
    p=1.0,
    q=1.0,
    mu_m=1.0,
    mu_h=1.0,
    gamma_h=1.0,
    tau_a=0.5,
    tau_b=0.0,
)


@pytest.fixture
def worked_params() -> ModelParams:
    return ModelParams(**WORKED)


@pytest.fixture
def delayed_params() -> ModelParams:
    # Same point with the intrinsic delay switched on, so both kernel
    # paths and both W integrals are exercised.  R0^2 = 2 e^{-1/4} > 1.
    return ModelParams(**{**WORKED, "tau_b": 0.25})


@pytest.fixture
def domain() -> Domain:
    return Domain(L=1.0, n=48)


def config_doc(**overrides) -> dict:
    """Flat JSON-style configuration document for the worked point."""
    doc = dict(WORKED)
    doc.update({"L": 1.0, "n": 48, "dt": 0.05, "t_end": 2.0})
    doc.update(overrides)
    return doc


def constant_state(values, n: int) -> np.ndarray:
    """Spatially constant (3, n) state, rows u1, u2, u3."""
    return np.repeat(np.asarray(values, dtype=float)[:, None], n, axis=1)


def random_smooth_field(domain: Domain, rng: np.random.Generator, offset: float = 0.0) -> np.ndarray:
    """Random field in the lowest third of the grid's cosine modes."""
    x = domain.grid
    f = np.full(domain.n, offset)
    for k in range(domain.n // 3):
        f += rng.standard_normal() * np.exp(-0.5 * k) * np.cos(k * np.pi * x / domain.L)
    return f


def infection_term_u1(u1_now, u3_lagged, params: ModelParams, domain: Domain) -> np.ndarray:
    """New mosquito infections beta_m (A - u1) [Gamma(d_m tau_a) u3(t - tau_a)]."""
    smoothed = heat_apply(u3_lagged, params.d_m, params.tau_a, domain)
    return params.beta_m * (params.A - u1_now) * smoothed


def infection_term_u3(u1_lagged, u2_lagged, params: ModelParams, domain: Domain) -> np.ndarray:
    """New human cases beta_h exp(-mu_h tau_b) [Gamma(d_h tau_b) (u1 u2)(t - tau_b)].

    The product u1 u2 is taken pointwise at time t - tau_b before the
    kernel average.
    """
    smoothed = heat_apply(u1_lagged * u2_lagged, params.d_h, params.tau_b, domain)
    return params.beta_h * params.survival_b * smoothed
