"""Model parameters, spatial domain, state containers and delay history.

The model tracks three densities on an interval habitat: infectious
mosquitoes u1, susceptible humans u2 and infectious humans u3.  Incubation
is modelled by two fixed delays, tau_a (extrinsic, in the mosquito) and
tau_b (intrinsic, in the human), during which the carrier diffuses, so the
delayed terms enter through heat-kernel averages rather than point values.

This module holds everything the numerics share: validated parameter and
domain records, the invariant box that bounds all admissible states, and
the ring buffer of past states that feeds the delayed terms.  A state is
a float (3, n) array on the grid, rows u1, u2, u3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "BOX_SLACK",
    "Domain",
    "History",
    "HistoryValidation",
    "ModelParams",
    "NONNEGATIVE_PARAMS",
    "bound_vector",
    "lag_steps",
    "sup_distance",
    "validate_initial_history",
]

# Relative slack allowed above the invariant box ceiling (roundoff margin).
BOX_SLACK = 1e-9

# Model parameters for which zero is admissible: no recovery, no delay.
NONNEGATIVE_PARAMS = ("gamma_h", "tau_a", "tau_b")

# Divisibility tolerance for dt against the delays, relative.
DT_DIVISIBILITY_RTOL = 1e-12

# Certification demands history bounded away from zero by this fraction of
# the box ceiling, so the logarithmic terms of the Lyapunov functional are
# defined from the first step.
STRICT_POSITIVITY_FLOOR = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """Biological parameters of the dengue transmission model.

    Rates are per unit time, densities per unit habitat length.  The
    composite transmission rates are beta_m = b * p (human to mosquito)
    and beta_h = b * q (mosquito to human); rho_h = mu_h + gamma_h is the
    total exit rate from the infectious human class.

    Attributes:
        d_m: Mosquito diffusivity.
        d_h: Human diffusivity.
        A: Mosquito carrying capacity (ceiling of u1).
        H: Constant human recruitment rate.
        b: Mosquito biting rate.
        p: Probability a bite on an infectious human infects the mosquito.
        q: Probability a bite by an infectious mosquito infects the human.
        mu_m: Mosquito mortality rate.
        mu_h: Human mortality rate.
        gamma_h: Human recovery rate.
        tau_a: Extrinsic incubation delay (mosquito side).
        tau_b: Intrinsic incubation delay (human side).
    """

    d_m: float
    d_h: float
    A: float
    H: float
    b: float
    p: float
    q: float
    mu_m: float
    mu_h: float
    gamma_h: float
    tau_a: float
    tau_b: float

    def __post_init__(self) -> None:
        for name in ("d_m", "d_h", "A", "H", "b", "mu_m", "mu_h"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("p", "q"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
        # gamma_h = 0 (no recovery) is admissible: rho_h = mu_h stays positive.
        for name in NONNEGATIVE_PARAMS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")

    @property
    def beta_m(self) -> float:
        """Human-to-mosquito transmission rate b * p."""
        return self.b * self.p

    @property
    def beta_h(self) -> float:
        """Mosquito-to-human transmission rate b * q."""
        return self.b * self.q

    @property
    def rho_h(self) -> float:
        """Exit rate from the infectious human class, mu_h + gamma_h."""
        return self.mu_h + self.gamma_h

    @property
    def survival_b(self) -> float:
        """Probability exp(-mu_h * tau_b) of surviving intrinsic incubation."""
        return math.exp(-self.mu_h * self.tau_b)


def bound_vector(params: ModelParams) -> np.ndarray:
    """Componentwise ceiling M of the invariant box [0, M1]x[0, M2]x[0, M3].

    M1 = A, M2 = H / mu_h, and
    M3 = A * H * beta_h * exp(-mu_h * tau_b) / (mu_h * rho_h),
    the steady infectious-human level sustained by saturated inputs.
    Admissible states live in the box and the dynamics keep them there.
    """
    m1 = params.A
    m2 = params.H / params.mu_h
    m3 = params.A * params.H * params.beta_h * params.survival_b / (
        params.mu_h * params.rho_h
    )
    return np.array([m1, m2, m3])


@dataclass(frozen=True)
class Domain:
    """Interval habitat [0, L] sampled on a closed uniform grid.

    The grid x_j = j * L / (n - 1) includes both endpoints; spatial
    integrals use trapezoid weights on it and the cosine transform pair is
    built to be exactly consistent with those weights, keeping all n
    cosine modes.

    Attributes:
        L: Habitat length, positive.
        n: Number of grid points, at least 8.
    """

    L: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise ValueError(f"L must be positive and finite, got {self.L!r}")
        if self.n < 8:
            raise ValueError(f"n must be at least 8, got {self.n}")

    # Built once, read-only, and outside the fields that eq and hash see.
    @cached_property
    def grid(self) -> np.ndarray:
        x = np.linspace(0.0, self.L, self.n)
        x.flags.writeable = False
        return x

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights w with sum(w * f) the trapezoid rule on [0, L]."""
        h = self.L / (self.n - 1)
        w = np.full(self.n, h)
        w[0] = w[-1] = 0.5 * h
        w.flags.writeable = False
        return w


def sup_distance(state: np.ndarray, point: np.ndarray) -> float | np.ndarray:
    """Sup-norm distance max_i sup_x |u_i(x) - point_i| to a constant state.

    point is one (3,) state, which gives a float, or a (P, 3) stack, which
    gives the P distances in one pass.  max is exact and propagates NaN, so
    each stacked distance is bit for bit that of its row passed alone.
    """
    return np.abs(state - point[..., None]).max(axis=(-2, -1))


def lag_steps(tau: float, dt: float, rtol: float = DT_DIVISIBILITY_RTOL) -> int:
    """Number of whole steps in the delay tau, requiring dt to divide it.

    Delayed values are read straight out of the ring buffer, never
    interpolated, so tau must be an integer multiple of dt up to relative
    tolerance rtol.  On failure the error names the nearest admissible dt.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if tau == 0.0:
        return 0
    k = round(tau / dt)
    if k < 1 or abs(k * dt - tau) > rtol * max(tau, dt):
        suggestion = tau / max(1, round(tau / dt))
        raise ValueError(
            f"dt={dt!r} does not divide the delay tau={tau!r}; "
            f"nearest admissible dt is {suggestion!r}"
        )
    return k


class History:
    """Ring buffer of the most recent states, spanning the longest delay.

    Each state is a float (3, n) array, rows u1, u2, u3.  Holds n_lags + 1
    states at times t_now, t_now - dt, ..., t_now - n_lags * dt, where
    n_lags * dt >= max(tau_a, tau_b).  Lag lookups are exact grid reads;
    appending advances time by dt and overwrites the oldest slot.  A
    simulation owns its history exclusively.
    """

    def __init__(self, window: Sequence[np.ndarray], dt: float, t_now: float = 0.0):
        """Builds the buffer from a full window of states ordered oldest to newest."""
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        if not len(window):
            raise ValueError("history window must contain at least one state")
        shapes = {np.shape(s) for s in window}
        if len(shapes) != 1:
            raise ValueError("all history states must share the same grid size")
        (shape,) = shapes
        if len(shape) != 2 or shape[0] != 3:
            raise ValueError(f"history states must be (3, n) arrays, got shape {shape}")
        self._dt = float(dt)
        self._t_now = float(t_now)
        self._buf = np.array(window, dtype=float)
        self._head = len(window) - 1  # index of the newest snapshot

    @classmethod
    def constant(
        cls, state: np.ndarray, n_lags: int, dt: float, t_now: float = 0.0
    ) -> History:
        """Window holding the same state at every lag (time-constant history)."""
        return cls([state] * (n_lags + 1), dt, t_now)

    @classmethod
    def from_function(
        cls,
        phi: Callable[[float], np.ndarray],
        n_lags: int,
        dt: float,
        t_now: float = 0.0,
    ) -> History:
        """Window sampled from phi(s) at s = -n_lags*dt, ..., -dt, 0."""
        window = [phi(-(n_lags - j) * dt) for j in range(n_lags + 1)]
        return cls(window, dt, t_now)

    @property
    def dt(self) -> float:
        return self._dt

    @property
    def t_now(self) -> float:
        return self._t_now

    @property
    def n_lags(self) -> int:
        return self._buf.shape[0] - 1

    @property
    def n(self) -> int:
        return self._buf.shape[2]

    @property
    def latest(self) -> np.ndarray:
        return self.lookup(0)

    def lookup(self, k: int) -> np.ndarray:
        """Copy of the state recorded k steps ago, at time t_now - k * dt."""
        return self.lookup_arrays(k).copy()

    def lookup_arrays(self, k: int) -> np.ndarray:
        """Raw (3, n) view of the state k steps ago; callers must not write."""
        if not (0 <= k <= self.n_lags):
            raise ValueError(f"lag {k} outside stored window 0..{self.n_lags}")
        return self._buf[(self._head - k) % self._buf.shape[0]]

    def lookup_block(self, k: int, count: int) -> np.ndarray:
        """Copies of the count states from lag k down to lag k - count + 1, oldest first.

        One gather, shaped (count, 3, n): row j is the state at time
        t_now - (k - j) * dt.
        """
        if not (1 <= count <= k + 1 and k <= self.n_lags):
            raise ValueError(f"lags {k - count + 1}..{k} outside stored window 0..{self.n_lags}")
        size = self._buf.shape[0]
        return self._buf[np.arange(self._head - k, self._head - k + count) % size]

    def append(self, state: Sequence[np.ndarray]) -> np.ndarray:
        """Writes the state at time t_now + dt over the oldest slot.

        state is a (3, n) array or a sequence of three length-n rows.
        Returns the stored state as a read-only view of its slot, valid
        until the slot is reused n_lags + 1 appends later.
        """
        if len(state) != 3:
            raise ValueError(f"a state has 3 rows, got {len(state)}")
        head = (self._head + 1) % self._buf.shape[0]
        slot = self._buf[head]
        slot[...] = state
        self._head = head
        self._t_now += self._dt
        slot.flags.writeable = False
        return slot

    def entries(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yields (lag, state copy) pairs from lag 0 back to the oldest."""
        for k in range(self.n_lags + 1):
            yield k, self.lookup(k)


@dataclass(frozen=True)
class HistoryValidation:
    """Outcome of admissibility checks on an initial history.

    ok is True when no violation was found.  degenerate flags the special
    start with no infection at time zero (u1 and u3 both identically
    zero), from which the disease can never take off; it is reported
    separately because such data is admissible but cannot converge to the
    endemic state.
    """

    ok: bool
    degenerate: bool
    violations: list[str] = field(default_factory=list)


def validate_initial_history(
    history: History,
    params: ModelParams,
    *,
    strict_positive: bool = False,
) -> HistoryValidation:
    """Checks an initial history against the invariant box.

    Every stored snapshot must be finite and lie in [0, M_i * (1 + slack)]
    componentwise.  With strict_positive set (required for certification,
    whose functional takes logarithms of the state) every component must
    also stay above STRICT_POSITIVITY_FLOOR * M_i.  Returns a report and
    never raises.
    """
    bound = bound_vector(params)
    floor = STRICT_POSITIVITY_FLOOR * bound
    violations: list[str] = []
    for k, state in history.entries():
        for i, u in enumerate(state):
            label = f"u{i + 1} at lag {k}"
            if not np.isfinite(u).all():
                violations.append(f"{label}: non-finite values")
                continue
            if u.min() < 0.0:
                violations.append(f"{label}: negative value {u.min():.6g}")
            ceiling = bound[i] * (1.0 + BOX_SLACK)
            if u.max() > ceiling:
                violations.append(
                    f"{label}: value {u.max():.6g} above box ceiling {ceiling:.6g}"
                )
            if strict_positive and u.min() < floor[i]:
                violations.append(
                    f"{label}: value {u.min():.6g} below strict positivity "
                    f"floor {floor[i]:.6g}"
                )
    latest = history.latest
    degenerate = bool(np.all(latest[0] == 0.0) and np.all(latest[2] == 0.0))
    return HistoryValidation(ok=not violations, degenerate=degenerate, violations=violations)
