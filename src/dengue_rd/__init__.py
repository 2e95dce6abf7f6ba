"""Nonlocal delayed dengue reaction-diffusion model: simulation and certification.

The package integrates a three-component mosquito-human transmission
model with diffusing populations and incubation delays, computes its
reproduction number and equilibria in closed form, and numerically
certifies global attractivity by evaluating a Lyapunov functional and
its dissipation identity along trajectories.
"""

from .core import (
    BOX_SLACK,
    Domain,
    History,
    HistoryValidation,
    ModelParams,
    bound_vector,
    lag_steps,
    sup_distance,
    validate_initial_history,
)
from .equilibria import (
    EquilibriumSet,
    basic_reproduction_number,
    compute_equilibria,
    disease_free_equilibrium,
    endemic_equilibrium,
    endemic_newton_multistart,
    regime_classify,
    rhs_residual,
    solve_endemic_newton,
)
from .spectral import (
    gradient_energy,
    heat_apply,
    kernel_matrix,
    min_resolvable_time,
    to_grid,
    to_modal,
)
from .integrator import (
    SimulationError,
    Trajectory,
    dde_oracle_step,
    run,
    run_homogeneous,
    stability_dt_bound,
    step,
)
from .lyapunov import (
    TERM_NAMES,
    eval_V,
    g,
    prepare_kernels,
)
from .certificate import Certificate, certify
from .config import (
    ConfigError,
    SimConfig,
    build_initial_history,
    load_config,
    predicted_attractor,
    validate_for_certification,
)

__version__ = "0.1.0"

__all__ = [
    "BOX_SLACK",
    "Certificate",
    "ConfigError",
    "Domain",
    "EquilibriumSet",
    "History",
    "HistoryValidation",
    "ModelParams",
    "SimConfig",
    "SimulationError",
    "TERM_NAMES",
    "Trajectory",
    "basic_reproduction_number",
    "bound_vector",
    "build_initial_history",
    "certify",
    "compute_equilibria",
    "dde_oracle_step",
    "disease_free_equilibrium",
    "endemic_equilibrium",
    "endemic_newton_multistart",
    "eval_V",
    "g",
    "gradient_energy",
    "heat_apply",
    "kernel_matrix",
    "lag_steps",
    "load_config",
    "min_resolvable_time",
    "predicted_attractor",
    "prepare_kernels",
    "regime_classify",
    "rhs_residual",
    "run",
    "run_homogeneous",
    "solve_endemic_newton",
    "stability_dt_bound",
    "step",
    "sup_distance",
    "to_grid",
    "to_modal",
    "validate_for_certification",
    "validate_initial_history",
]
