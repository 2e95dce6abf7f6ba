"""Configuration documents: schema, validation and run assembly.

A run is described by one flat JSON object whose keys are exactly the
model parameter names plus the domain and stepping fields; unknown keys
are rejected by name.  Validation goes beyond types: the step size must
divide both delays exactly (delayed values are buffer reads, never
interpolated), stay under the explicit-Euler stability bound, and, for
certifying runs, keep every kernel time above the resolvable floor of
the truncated series.  SimConfig checks all of these when it is built.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .core import Domain, History, ModelParams, bound_vector, lag_steps
from .equilibria import compute_equilibria
from .integrator import stability_dt_bound
from .spectral import min_resolvable_time

__all__ = [
    "ConfigError",
    "SimConfig",
    "build_initial_history",
    "load_config",
    "predicted_attractor",
    "validate_for_certification",
]

PARAM_KEYS = tuple(f.name for f in dataclass_fields(ModelParams))
DOMAIN_KEYS = ("L", "n", "dt")
RUN_KEYS = (
    "t_end",
    "snapshot_every",
    "certify",
    "strict_box",
    "history_mode",
    "perturb_amplitude",
    "perturb_modes",
)
REQUIRED_KEYS = PARAM_KEYS + ("L", "n", "dt", "t_end")
ALL_KEYS = PARAM_KEYS + DOMAIN_KEYS + RUN_KEYS


class ConfigError(ValueError):
    """A configuration document failed validation."""


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs besides the initial history.

    Construction checks every run rule, in order: the fields, dt within
    stability_dt_bound(params), dt dividing both delays, then, if certify,
    validate_for_certification.  strict_box None defers to certify:
    certification runs stop on a box violation, exploratory runs record
    it and continue.  The perturbation fields control the seeded initial
    history built for CLI runs: a smooth low-mode relative perturbation
    of the predicted attractor, constant or modulated in time, in cosine
    modes 1 .. perturb_modes, all of which must be below the grid size
    domain.n unless perturb_amplitude is 0.
    """

    params: ModelParams
    domain: Domain
    dt: float
    t_end: float
    snapshot_every: int = 0
    certify: bool = False
    strict_box: bool | None = None
    history_mode: str = "constant"
    perturb_amplitude: float = 0.2
    perturb_modes: int = 3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        bound = stability_dt_bound(self.params)
        if self.dt > bound:
            raise ValueError(
                f"dt={self.dt!r} exceeds the explicit-Euler stability bound {bound!r}"
            )
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end!r}")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be nonnegative")
        if self.history_mode not in ("constant", "modulated"):
            raise ValueError(
                f"history_mode must be 'constant' or 'modulated', got {self.history_mode!r}"
            )
        if not (0.0 <= self.perturb_amplitude < 1.0):
            raise ValueError("perturb_amplitude must lie in [0, 1)")
        if self.perturb_modes < 1:
            raise ValueError("perturb_modes must be at least 1")
        if self.perturb_amplitude > 0.0 and self.perturb_modes >= self.domain.n:
            raise ValueError(
                f"perturb_modes={self.perturb_modes} must be below the number "
                f"of cosine modes n={self.domain.n}"
            )
        for tau in (self.params.tau_a, self.params.tau_b):
            lag_steps(tau, self.dt)
        if self.certify:
            validate_for_certification(self)

    @property
    def box_strict(self) -> bool:
        return self.certify if self.strict_box is None else self.strict_box


def _as_number(doc: dict, key: str) -> float:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} must be a number, got {value!r}")
    return float(value)


def _as_int(doc: dict, key: str, default: int | None = None) -> int:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
    return value


def _as_bool(doc: dict, key: str, default: bool) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"key {key!r} must be a boolean, got {value!r}")
    return value


def load_config(source: str | Path | dict) -> SimConfig:
    """Parses and validates a configuration document.

    Accepts a path to a JSON file or an already-decoded dict; SimConfig
    checks the run rules.  Raises ConfigError naming the offending key or
    constraint, with the nearest admissible dt or the stability bound.
    """
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read configuration: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")

    unknown = sorted(set(doc) - set(ALL_KEYS))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    missing = sorted(set(REQUIRED_KEYS) - set(doc))
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    try:
        params = ModelParams(**{k: _as_number(doc, k) for k in PARAM_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        domain = Domain(L=_as_number(doc, "L"), n=_as_int(doc, "n"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    strict_box = doc.get("strict_box", None)
    if strict_box is not None and not isinstance(strict_box, bool):
        raise ConfigError(f"key 'strict_box' must be a boolean, got {strict_box!r}")

    try:
        return SimConfig(
            params=params,
            domain=domain,
            dt=_as_number(doc, "dt"),
            t_end=_as_number(doc, "t_end"),
            snapshot_every=_as_int(doc, "snapshot_every", default=0),
            certify=_as_bool(doc, "certify", default=False),
            strict_box=strict_box,
            history_mode=doc.get("history_mode", "constant"),
            perturb_amplitude=(
                _as_number(doc, "perturb_amplitude") if "perturb_amplitude" in doc else 0.2
            ),
            perturb_modes=_as_int(doc, "perturb_modes", default=3),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def validate_for_certification(config: SimConfig) -> None:
    """Checks the extra constraints a certifying run needs.

    SimConfig calls this last when certify is set.  An endemic state must
    exist, and for each nonzero delay min(dt, tau) must sit above the
    minimal resolvable time of the truncated series, so that every kernel
    V weights by is resolved: the one at tau, which eval_V applies to the
    delay terms, and those at the lags j dt, which W reads only through
    their unit mass (true at any time) and the tests assemble as kernel
    matrices to recompute W.  Raises ConfigError naming the first
    failure.
    """
    params, domain = config.params, config.domain
    eqs = compute_equilibria(params)
    if eqs.endemic is None:
        raise ConfigError(
            f"certification requires R0 > 1, got R0={eqs.r0!r}"
        )
    for tau, d, label in (
        (params.tau_a, params.d_m, "extrinsic (tau_a, d_m)"),
        (params.tau_b, params.d_h, "intrinsic (tau_b, d_h)"),
    ):
        if tau == 0.0:
            continue
        floor = min_resolvable_time(d, domain)
        if min(config.dt, tau) < floor:
            raise ConfigError(
                f"certification needs dt >= {floor!r}, and the {label} delay "
                "no shorter, so the truncated series resolves the kernel at "
                f"every lag; got dt={config.dt!r}, tau={tau!r}"
            )


def predicted_attractor(config: SimConfig) -> np.ndarray:
    """The constant state the run should approach: endemic if R0 > 1."""
    eqs = compute_equilibria(config.params)
    return eqs.dfe if eqs.endemic is None else eqs.endemic


def build_initial_history(config: SimConfig, seed: int = 0) -> History:
    """Seeded admissible initial history around the predicted attractor.

    Each component is the attractor value times 1 + amplitude * xi(x),
    where xi is a random combination of cosine modes 1 .. perturb_modes
    normalised to unit sup; components crossing the box ceiling are
    rescaled back inside.  The coefficients come from the standard
    library's Mersenne Twister, random.Random(seed), as
    2 * random() - 1: uniform on [-1, 1) and exact in binary.  They are
    drawn for u1, then u2, then u3, each in mode order, and Python
    promises the same random() sequence for an int seed in every
    version.  Earlier versions drew standard normals from numpy's
    default_rng, so their histories differ from these wherever the
    amplitude is nonzero.  Below threshold the infected components start
    at a tenth of their ceiling instead of zero, so extinction runs start
    strictly positive.  history_mode "modulated" multiplies the
    perturbation by cos(omega s) in the time argument, exercising
    genuinely time-varying histories; "constant" freezes it.

    Raises:
        ValueError: if seed is negative.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    params, domain, dt = config.params, config.domain, config.dt
    rng = random.Random(seed)
    bound = bound_vector(params)
    eqs = compute_equilibria(params)
    if eqs.endemic is not None:
        base = eqs.endemic
    else:
        base = np.array([0.1 * bound[0], bound[1], 0.1 * bound[2]])

    x = domain.grid
    amp = config.perturb_amplitude
    shapes = []
    for i in range(3):
        coeffs = [2.0 * rng.random() - 1.0 for _ in range(config.perturb_modes)]
        xi = np.zeros_like(x)
        for k, c in enumerate(coeffs, start=1):
            xi += c * np.cos(k * math.pi * x / domain.L)
        peak = np.abs(xi).max()
        if peak > 0.0:
            xi /= peak
        # Rescale so the ceiling is respected at the perturbation peak.
        scale = 1.0
        top = base[i] * (1.0 + amp * xi.max())
        if top > bound[i]:
            scale = bound[i] / top
        shapes.append((xi, scale))

    n_lags = max(lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt))

    def state_at(s: float) -> np.ndarray:
        factor = 1.0
        if config.history_mode == "modulated":
            tau_max = max(params.tau_a, params.tau_b, dt)
            factor = math.cos(math.pi * s / (2.0 * tau_max))
        comps = []
        for i in range(3):
            xi, scale = shapes[i]
            comps.append(base[i] * scale * (1.0 + amp * factor * xi))
        return np.array(comps)

    if config.history_mode == "constant":
        return History.constant(state_at(0.0), n_lags, dt)
    return History.from_function(state_at, n_lags, dt)
