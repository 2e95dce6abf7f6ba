"""Lyapunov functional, dissipation identity and certification report.

Global attractivity of the endemic state (u1*, u2*, u3*) is certified by
the Volterra-type functional built from g(w) = w - 1 - ln w,

    V(t) = integral over the habitat of  L1 + L2 + L3 + W1 + W2,

    L1 = (beta_h u1* u2* / mu_m) g(u1 / u1*)
    L2 = u2* g(u2 / u2*)
    L3 = exp(mu_h tau_b) u3* g(u3 / u3*)
    W1 = beta_h u1* u2* int_{-tau_a}^0 int Gamma(d_m (-s), x, y)
         g(u3(t + s, y) / u3*) dy ds
    W2 = beta_h u1* u2* int_{-tau_b}^0 int Gamma(d_h (-s), x, y)
         g((u1 u2)(t + s, y) / (u1* u2*)) dy ds.

Differentiating along solutions and eliminating the reaction terms with
the steady-state balance collapses everything, by the unit mass of the
kernel, into eight nonpositive pieces:

    dV/dt = - (d_m beta_h u1* u2* / mu_m) int |grad u1|^2 / u1^2
            - d_h u2* int |grad u2|^2 / u2^2
            - exp(mu_h tau_b) d_h u3* int |grad u3|^2 / u3^2
            - (beta_m beta_h u2* / mu_m) int (u1 - u1*)^2 / u1
              * [Gamma(d_m tau_a) u3(t - tau_a)](x) dx
            - mu_h int (u2 - u2*)^2 / u2
            - beta_h u1* u2* int g(u2* / u2)
            - beta_h u1* u2* int int Gamma(d_h tau_b, x, y)
              g( (u1 u2)(t - tau_b, y) u3* / (u1* u2* u3(t, x)) ) dy dx
            - beta_h u1* u2* int int Gamma(d_m tau_a, x, y)
              g( u1* u3(t - tau_a, y) / (u1(t, x) u3*) ) dy dx.

The two quadratic pieces come from the same expansion as the rest; they
are kept so the identity is exact, which is what the finite-difference
consistency check validates.  Everything on the right is a nonpositive
integral, so V is non-increasing, and V = 0 only at the endemic state.

The delay terms need no kernel matrix.  With K = Gamma(d tau) of unit
row mass, each equals int g(KN / D) + int [ln KN - K ln N] for the
numerator N(y) and denominator D(x) of its ratio; the second piece is a
Jensen gap, nonnegative for a positive kernel: the sign argument that
drops the extra condition of Xu and Zhao (2015, Thm 3.3).

The time integrals in W1, W2 are discretised by the trapezoid rule on
the integrator's step grid; the s = 0 endpoint uses the identity
operator, which is exact.  The inner y-integrals collapse, by the
kernel's unit column mass, to plain integrals of g over y, so W1 and W2
need one scalar per lag: the integral of g(u3 / u3*) and of
g(u1 u2 / (u1* u2*)) over the state that many steps ago.  Those scalars
never change once a state enters the delay window, so LagIntegrals keeps
them in a ring aligned with the history and computes each one once.

Two checks stand behind the shortcut.  The column mass is checked once
per run at every lag, in the cosine basis, and reported in the
certificate.  At checkpoint steps W1 and W2 are recomputed from the raw
window and compared with the ring's values, so a stale, misaligned or
corrupted cache fails certification.

Evaluation is stacked, because on small grids numpy's fixed cost per
call, not the arithmetic, sets the price of a step.  eval_V checks the
(3, n) state once, and writes every integrand into one (r, n) buffer: the
ratio rows of L1, L2, g_u2 and the two delay terms, and the newest
state's lag values, go through one g call; each nonzero delay smooths
its numerator and its log in one heat_apply call; the two quadratic
integrands fill the buffer's last free rows.  Rows that share an
operation share the call: u / u* for the three fields, N / D for both
delays, both quadratic rows.  One stacked product then reduces every row
against the quadrature weights, and one gradient_energy call takes the
whole (3, n) state.  The stacked products are the forms that equal a
row-by-row evaluation bit for bit (see the spectral module docstring),
and each element sees the same operations in the same order, so every
number is bit for bit that of a term-by-term evaluation.  Sums of
scalars run left to right from 0.0, as Python 3.11's sum does, so the
bits do not depend on the Python version.  Only a failed check goes back
row by row, so its message still names the field or the lag.
eval_V is also the ring's only writer after construction: the newest
g(u3 / u3*) integral is L3's and the ring's newest a value, and with the
newest g(u1 u2 / (u1* u2*)) integral it enters the ring once per step.
LagIntegrals, when built or on a checkpoint recompute, writes the ratios
of every lag it needs from views of the history's states into one
buffer, which it checks once, passes to g once and reduces in one
stacked product; that is code of its own, so the checkpoint compares
two independent paths.

A certifying run keeps one RECORD_DTYPE row per step: V, L1-L3, W1, W2,
the eight TERM_NAMES, dissipation and two_path_rel_err (NaN off
checkpoints).  timeseries.csv and certificate.json both read that
buffer, and certify checks whole columns of it, never step by step.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import TYPE_CHECKING

import numpy as np

from .core import Domain, History, ModelParams, lag_steps
from .spectral import gradient_energy, heat_apply, kernel_mass_defect
from .spectral import kernel_matrix  # unused here; perfbench/tracing.py wraps this binding

if TYPE_CHECKING:  # pragma: no cover
    from .integrator import Trajectory

__all__ = [
    "Certificate",
    "LagIntegrals",
    "LyapunovKernels",
    "RECORD_DTYPE",
    "TERM_NAMES",
    "certify",
    "check_tolerances",
    "eval_V",
    "g",
    "prepare_kernels",
]

TERM_NAMES = (
    "grad_u1",
    "grad_u2",
    "grad_u3",
    "quad_u1",
    "quad_u2",
    "g_u2",
    "g_delay_b",
    "g_delay_a",
)

# The quantities certify checks for sign, and those it requires finite
# at every step, in violation order.
CHECKED_TERMS = (*TERM_NAMES, "dissipation")
FINITE_COLUMNS = ("V", *CHECKED_TERMS)

# One row per step of a certifying run: integrator.Trajectory.lyapunov.
RECORD_DTYPE = np.dtype([
    (name, np.float64)
    for name in ("V", "L1", "L2", "L3", "W1", "W2", *CHECKED_TERMS, "two_path_rel_err")
])

# The integrand rows eval_V reduces in one call: the a and b rows are the
# current state's per-lag values; b's row exists only when tau_b has lag
# steps.
_ROWS = ("L1", "L2", "a", "g_delay_a", "g_delay_b", "g_u2", "quad_u1", "quad_u2", "b")

# Default certification tolerances.  The per-step slack on monotonicity is
# relative to V at the start; the dissipation sign slack is absolute.
DEFAULT_V_TOL = 1e-8
DEFAULT_D_TOL = 1e-12
DEFAULT_TWO_PATH_TOL = 1e-8

# A start counts as off-equilibrium, and must strictly decrease V, when
# V(0) exceeds this absolute level.
EQUILIBRIUM_V_FLOOR = 1e-12

# g takes w - 1 - ln w as it stands below this argument (see g).
G_DIRECT_BELOW = 0.5


def g(omega):
    """Volterra comparison function g(w) = w - 1 - ln w, zero only at w = 1.

    Accepts scalars or arrays; arguments must be strictly positive.
    Computed as e - log1p(e) with e = w - 1, which keeps the result
    nonnegative down to roundoff near w = 1.  From G_DIRECT_BELOW = 0.5
    up, w - 1 is exact.  Below it w - 1 rounds, and below 2**-53 it
    rounds to -1, where log1p(-1) is -inf; there g is w - 1 - ln w as
    written, which is finite and well-conditioned.  Those entries are
    patched only when the minimum, which the positivity check reads
    anyway, lies below the cutoff.  No shipped run reaches it: the
    smallest argument of their certifying runs is 0.617.
    """
    w = np.asarray(omega, dtype=float)
    lo = w.min() if w.size else math.inf
    if w.size and not (lo > 0.0 and w.max() < math.inf):  # lo is NaN if any value is
        raise ValueError("g is defined for strictly positive finite arguments only")
    e = w - 1.0
    if lo < G_DIRECT_BELOW:
        # The clamp keeps log1p finite on the entries the direct form replaces.
        kept = e - np.log1p(np.maximum(e, G_DIRECT_BELOW - 1.0))
        e = np.where(w < G_DIRECT_BELOW, w - 1.0 - np.log(w), kept)[()]
    else:
        e -= np.log1p(e)
    if isinstance(omega, np.ndarray) or not np.isscalar(omega):  # isscalar is slow on arrays
        return e
    return float(e)


@dataclass(frozen=True)
class LyapunovKernels:
    """Kernel data a certification run needs, computed once.

    mass_defect is the worst relative column-mass defect of the kernels
    at lags dt, 2 dt, ..., tau of both delays (see
    spectral.kernel_mass_defect); it bounds how far the collapsed W
    integrals can stray from the kernel-weighted ones.

    delay_a, delay_b (always None) and theta_a, theta_b (always empty)
    are tracing-only fields.  They once held kernel matrices for the
    delay dissipation terms and for a second evaluation of W; they stay
    only because the benchmark's tracing sums the sizes of all four.
    """

    mass_defect: float
    delay_a: None = None
    delay_b: None = None
    theta_a: list[np.ndarray] = field(default_factory=list)
    theta_b: list[np.ndarray] = field(default_factory=list)


def prepare_kernels(params: ModelParams, domain: Domain, dt: float) -> LyapunovKernels:
    """Checks the kernels' column mass at every lag of both delays."""
    k_a = lag_steps(params.tau_a, dt)
    k_b = lag_steps(params.tau_b, dt)
    mass_defect = max(
        kernel_mass_defect(params.d_m, np.arange(1, k_a + 1) * dt, domain),
        kernel_mass_defect(params.d_h, np.arange(1, k_b + 1) * dt, domain),
    )
    return LyapunovKernels(mass_defect=mass_defect)


def _all_positive(values: np.ndarray) -> bool:
    """True if every value is finite and strictly positive (min is NaN if any value is)."""
    return bool(values.min() > 0.0 and values.max() < math.inf)


def _require_positive(name: str, values: np.ndarray) -> None:
    if not _all_positive(values):
        raise ValueError(
            f"Lyapunov evaluation requires strictly positive {name}; "
            f"min value is {values.min():.6g}"
        )


def _add_left_to_right(values: Iterable[float]) -> float:
    """0.0 plus each value in turn, one rounding per term.

    The built-in sum does this up to Python 3.11 and compensates its
    rounding from 3.12 on; this gives the same bits on every version,
    including 0.0 for values that are all -0.0.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _theta_trapezoid(values: Sequence[float], k: int, dt: float) -> float:
    """Composite trapezoid of the per-lag values 0 .. k over [-k dt, 0]."""
    if k == 0:
        return 0.0
    return dt * (0.5 * (values[0] + values[k]) + _add_left_to_right(islice(values, 1, k)))


class LagIntegrals:
    """Per-lag integrals of g over the delay window, in a ring aligned with History.

    a[j] is the trapezoid integral of g(u3 / u3*) and b[j] that of
    g(u1 u2 / (u1* u2*)), both over the state j steps before t_now.  The
    ring has max(k_a, k_b) + 1 slots, newest first; a delay of zero
    steps caches nothing and its W is zero.  A state's values, and its
    positivity check, are computed once, when it enters the window:
    built from the whole window here, then appended by the eval_V call
    that follows each History.append.  t_now is the time of the newest
    cached state.

    Raises:
        ValueError: if the history spans fewer lags than the longer
            delay, the endemic triple is not strictly positive, or a
            cached state is not strictly positive.
    """

    def __init__(
        self, history: History, params: ModelParams, ustar: np.ndarray, domain: Domain
    ):
        dt = history.dt
        self.k_a = lag_steps(params.tau_a, dt)
        self.k_b = lag_steps(params.tau_b, dt)
        if history.n_lags < max(self.k_a, self.k_b):
            raise ValueError(
                f"history spans {history.n_lags} lags, need {max(self.k_a, self.k_b)}"
            )
        u1s, u2s, u3s = (float(v) for v in ustar)
        if min(u1s, u2s, u3s) <= 0.0:
            raise ValueError("endemic triple must be strictly positive")
        self._dt = dt
        self._w = domain.trapezoid_weights
        self._u3s = u3s
        self._u12s = u1s * u2s
        self._bstar = params.beta_h * u1s * u2s
        self._floors = tuple(
            1e-12 * self._bstar * tau * domain.L + 1e-300
            for tau in (params.tau_a, params.tau_b)
        )
        self.a, self.b = self._window(history)
        self.t_now = history.t_now

    def _window(self, history: History) -> tuple[deque, deque]:
        """Per-lag values computed afresh from every state in the window."""
        size = max(self.k_a, self.k_b) + 1
        a, b = self._lag_values(history, size)
        return deque(a, maxlen=size), deque(b, maxlen=size)

    def _lag_values(self, history: History, size: int) -> tuple[list[float], list[float]]:
        """The a and b values of the states at lags 0 .. size - 1, newest first.

        The ratios of both delays are written from views of the history's
        states into one buffer, which takes one check, one g pass and one
        stacked product, each lag's integral equal to its own dot product.
        On a failed check the states are checked again one by one, oldest
        first, so the error names the lag.
        """
        delays = [k > 0 for k in (self.k_a, self.k_b)]
        if not any(delays):
            return [], []
        ratio = np.empty((sum(delays), size, self._w.size))
        a_ratio, b_ratio = ratio[0], ratio[-1]
        for j in range(size):
            state = history.lookup_arrays(j)
            if self.k_a:
                np.divide(state[2], self._u3s, out=a_ratio[j])
            if self.k_b:
                np.multiply(state[0], state[1], out=b_ratio[j])
        if self.k_b:
            b_ratio /= self._u12s
        if not _all_positive(ratio):
            for j in range(size - 1, -1, -1):
                state = history.lookup_arrays(j)
                if self.k_a:
                    _require_positive(f"u3 at lag {j}", state[2])
                if self.k_b:
                    _require_positive(f"u1*u2 at lag {j}", state[0] * state[1])
        per_lag = np.matmul(g(ratio)[:, :, None, :], self._w[:, None]).reshape(-1, size).tolist()
        return (per_lag[0] if self.k_a else [], per_lag[-1] if self.k_b else [])

    def _w_values(self, a: deque, b: deque) -> tuple[float, float]:
        w1 = self._bstar * _theta_trapezoid(a, self.k_a, self._dt)
        w2 = self._bstar * _theta_trapezoid(b, self.k_b, self._dt)
        return w1, w2

    def integrals(self) -> tuple[float, float]:
        """W1 and W2 from the cached per-lag values."""
        return self._w_values(self.a, self.b)

    def window_rel_err(self, history: History) -> float:
        """Relative disagreement of the cached W1, W2 with the raw window's.

        Recomputes every per-lag value from the states stored in history,
        so this costs as much as building the ring; 0.0 when no delay
        has lag steps.
        """
        errs = [
            abs(cached - fresh) / max(abs(fresh), floor)
            for cached, fresh, floor, k in zip(
                self.integrals(),
                self._w_values(*self._window(history)),
                self._floors,
                (self.k_a, self.k_b),
            )
            if k
        ]
        return float(np.max(errs, initial=0.0))  # NaN propagates


def eval_V(
    history: History,
    params: ModelParams,
    ustar: np.ndarray,
    domain: Domain,
    *,
    ring: LagIntegrals | None = None,
) -> np.void:
    """Evaluates V and the dissipation identity on the current history.

    The delay terms use int int Gamma(x, y) g(N(y) / D(x)) dy dx =
    int [g(N / D) + (KN - N) / D + ln N - K ln N] dx, with K = Gamma(d tau)
    of unit row mass; the form needs only N, D > 0, not KN > 0 (the
    n-mode kernel is not positive at small times).  Logs of N over its
    endemic value keep the bracket small near equilibrium, and at tau = 0
    the integrand is exactly g(N / D).  KN for g_delay_a is quad_u1's
    smoothed field.

    Each call makes one g call, one gradient_energy call on the whole
    (3, n) state and one heat_apply call per nonzero delay, through this
    module's names, where the benchmark's tracing counts them.

    The ring advances here: when it sits one step behind the history,
    the current state's per-lag values, from this call's g pass, enter
    it; when it is level, nothing does, so a repeated call leaves it as
    it was.

    Args:
        history: Delay window whose newest entry is the current state;
            every stored state must be strictly positive.
        params: Model parameters; R0 > 1 is assumed (ustar exists).
        ustar: The endemic triple (u1*, u2*, u3*).
        domain: Spatial discretisation.
        ring: Cached per-lag integrals, at most one step behind the
            history; built from the whole window if omitted.

    Returns:
        One RECORD_DTYPE row, with two_path_rel_err NaN; V equals
        L1 + L2 + L3 + W1 + W2 by construction.

    Raises:
        ValueError: on a nonpositive state or endemic triple, a history
            shorter than the delays, or a ring neither level with the
            history nor one step behind it.
    """
    if ring is None:
        ring = LagIntegrals(history, params, ustar, domain)
    advance = ring.t_now + history.dt == history.t_now
    if not advance and ring.t_now != history.t_now:
        raise ValueError(
            f"lag ring is at t={ring.t_now!r}, history at t={history.t_now!r}; "
            "evaluate V after every append"
        )
    k_a, k_b = ring.k_a, ring.k_b
    star = np.asarray(ustar, dtype=float)[:, None]
    u1s, u2s, u3s = star[:, 0].tolist()
    w = domain.trapezoid_weights
    bstar = params.beta_h * u1s * u2s
    expb = math.exp(params.mu_h * params.tau_b)

    cur = history.lookup_arrays(0)
    if not _all_positive(cur):
        for name, values in zip(("u1", "u2", "u3"), cur):
            _require_positive(name, values)
    u1, u2, u3 = cur
    u3_lag_a = history.lookup_arrays(k_a)[2]
    lag_b = history.lookup_arrays(k_b)
    # The delay numerators N, over the denominators D = (u1, u3).
    numer = np.empty((2, domain.n))
    np.multiply(u1s, u3_lag_a, out=numer[0])
    numer[0] /= u3s
    np.multiply(lag_b[0], lag_b[1], out=numer[1])
    numer[1] *= u3s / (u1s * u2s)

    # One row per integrand, in _ROWS order.  The two quadratic rows hold
    # 1.0 through g and are written after it.
    rows = np.empty((len(_ROWS) if k_b else len(_ROWS) - 1, domain.n))
    np.divide(cur, star, out=rows[:3])
    np.divide(numer, cur[::2], out=rows[3:5])
    np.divide(u2s, u2, out=rows[5])
    rows[6:8] = 1.0
    if k_b:
        np.multiply(u1, u2, out=rows[8])
        rows[8] /= u1s * u2s
    rows = g(rows)

    # Each nonzero delay smooths its numerator and the log of it in one
    # heat_apply call, and adds the bracket (KN - N) / D + [ln N - K ln N]
    # to its g(N / D) row; a zero delay has KN = N and a zero bracket.
    smoothed = u3_lag_a
    if k_a:
        log_a = np.log(numer[0] / u1s)
        smoothed, log_a_smoothed = heat_apply(
            np.array((u3_lag_a, log_a)), params.d_m, params.tau_a, domain
        )
        rows[3] += (u1s * smoothed / u3s - numer[0]) / u1
        rows[3] += log_a - log_a_smoothed
    if k_b:
        log_b = np.log(numer[1] / u3s)
        numer_b_smoothed, log_b_smoothed = heat_apply(
            np.array((numer[1], log_b)), params.d_h, params.tau_b, domain
        )
        rows[4] += (numer_b_smoothed - numer[1]) / u3
        rows[4] += log_b - log_b_smoothed
    quad = rows[6:8]
    np.subtract(cur[:2], star[:2], out=quad)
    quad *= quad
    quad /= cur[:2]
    quad[0] *= smoothed

    # Every integral in one stacked call: a row times the weights is the
    # same dot product as float(w @ row), bit for bit (spectral docstring).
    l1_int, l2_int, a_now, delay_a, delay_b, g_u2, quad_u1, quad_u2, *b_now = (
        np.matmul(rows[:, None, :], w[:, None]).ravel().tolist()
    )
    if advance:
        if k_a:
            ring.a.appendleft(a_now)
        if k_b:
            ring.b.appendleft(b_now[0])
        ring.t_now = history.t_now
    l1 = bstar / params.mu_m * l1_int
    l2 = u2s * l2_int
    l3 = expb * u3s * a_now
    w1, w2 = ring.integrals()

    grad_u1, grad_u2, grad_u3 = gradient_energy(cur, domain).tolist()
    # Dissipation terms, in TERM_NAMES order.
    terms = (
        -(params.d_m * bstar / params.mu_m) * grad_u1,
        -(params.d_h * u2s) * grad_u2,
        -(expb * params.d_h * u3s) * grad_u3,
        -(params.beta_m * params.beta_h * u2s / params.mu_m) * quad_u1,
        -params.mu_h * quad_u2,
        -bstar * g_u2,
        -bstar * delay_b,
        -bstar * delay_a,
    )
    # Gradient, quadratic and g terms are summed apart, then added, to keep
    # the bits of a term-by-term evaluation.
    dissipation = (
        _add_left_to_right(terms[:3])
        + _add_left_to_right(terms[3:5])
        + _add_left_to_right(terms[5:])
    )
    return np.void(
        (l1 + l2 + l3 + w1 + w2, l1, l2, l3, w1, w2, *terms, dissipation, math.nan),
        RECORD_DTYPE,
    )


def check_tolerances(**tolerances: float) -> None:
    """Raises ValueError unless every named tolerance is finite and >= 0.

    A NaN slack would pass every comparison vacuously, and it could not
    be written to the certificate's JSON.
    """
    for name, value in tolerances.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class Certificate:
    """Outcome of the attractivity checks on one recorded trajectory.

    two_path_max_rel_err is the worst checkpoint disagreement between the
    cached and the recomputed W integrals; kernel_mass_max_rel_err is the
    kernels' worst column-mass defect over the lags (None when the run
    did not record it).
    """

    passed: bool
    v_monotone: bool
    dissipation_nonpositive: bool
    v_decreased: bool | None
    two_path_ok: bool | None
    v_initial: float
    v_final: float
    two_path_max_rel_err: float | None
    kernel_mass_max_rel_err: float | None
    v_tol: float
    d_tol: float
    two_path_tol: float
    violations: list[dict]
    term_ranges: dict[str, tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "v_monotone": self.v_monotone,
            "dissipation_nonpositive": self.dissipation_nonpositive,
            "v_decreased": self.v_decreased,
            "two_path_ok": self.two_path_ok,
            "v_initial": self.v_initial,
            "v_final": self.v_final,
            "two_path_max_rel_err": self.two_path_max_rel_err,
            "kernel_mass_max_rel_err": self.kernel_mass_max_rel_err,
            "tolerances": {
                "v_step_slack": self.v_tol,
                "dissipation_sign": self.d_tol,
                "two_path": self.two_path_tol,
            },
            "violations": self.violations,
            "term_ranges": {k: list(v) for k, v in self.term_ranges.items()},
        }


def _violations(times: np.ndarray, kinds, steps, values, threshold: float) -> list[dict]:
    """One violation dict per step, with its kind and value, from .tolist() values."""
    steps = np.asarray(steps, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    rows = zip(kinds, steps.tolist(), times[steps].tolist(), values.tolist())
    return [
        {"kind": kind, "step": k, "time": t, "value": v, "threshold": float(threshold)}
        for kind, k, t, v in rows
    ]


def certify(
    trajectory: "Trajectory",
    *,
    v_tol: float = DEFAULT_V_TOL,
    d_tol: float = DEFAULT_D_TOL,
    two_path_tol: float = DEFAULT_TWO_PATH_TOL,
) -> Certificate:
    """Checks the recorded Lyapunov data for the attractivity conditions.

    Asserts, with the given slacks, that (i) V never increases from one
    step to the next by more than v_tol * max(V(0), the equilibrium
    floor), (ii) the dissipation and
    each of its eight terms stay below d_tol at every step, and (iii) V
    strictly decreased over the run when the start was off equilibrium.
    The worst checkpoint disagreement between the cached and the
    recomputed W integrals, and the kernels' column-mass defect, must
    each stay within two_path_tol when recorded.  A NaN or infinity in
    a FINITE_COLUMNS column, or a NaN disagreement at a checkpoint,
    fails its check.

    Each check reads columns of trajectory.lyapunov, the record that
    timeseries.csv prints V and dissipation from.  Violations come by
    check, non-finite values, V increases and then positive terms, each
    by step, the columns of one step in FINITE_COLUMNS order.

    Args:
        trajectory: A run recorded with Lyapunov evaluation enabled.
        v_tol: Per-step monotonicity slack, relative to V(0).
        d_tol: Absolute sign slack for dissipation terms.
        two_path_tol: Relative agreement required of the cached W
            integrals with the raw window, and of the kernels' column
            mass with the quadrature weights.

    Returns:
        The certificate; passed is True only if every check holds.

    Raises:
        ValueError: on a negative or non-finite tolerance, or a trajectory
            without Lyapunov data.
    """
    check_tolerances(v_tol=v_tol, d_tol=d_tol, two_path_tol=two_path_tol)
    record = trajectory.lyapunov
    v = record["V"]
    if np.isnan(v).all():
        raise ValueError("trajectory carries no Lyapunov data; rerun with certify")
    times = trajectory.times

    # One float column per field; np.nonzero runs by step, then by column.
    table = record.view((np.float64, len(RECORD_DTYPE.names)))
    columns = table[:, [RECORD_DTYPE.names.index(name) for name in FINITE_COLUMNS]]
    finite = np.isfinite(columns)
    steps, cols = np.nonzero(~finite)
    kinds = [f"nonfinite_{FINITE_COLUMNS[c]}" for c in cols.tolist()]
    violations = _violations(times, kinds, steps, columns[steps, cols], math.inf)

    # Floor the slack so runs started at (numerical) equilibrium, where
    # V(0) is pure roundoff, are not failed on jitter at that scale.
    slack = v_tol * max(v[0], EQUILIBRIUM_V_FLOOR)
    rises = np.flatnonzero(v[1:] > v[:-1] + slack)
    violations += _violations(times, repeat("v_increase"), rises + 1, v[rises + 1] - v[rises], slack)

    terms = columns[:, 1:]
    steps, cols = np.nonzero(terms > d_tol)
    kinds = [f"positive_{CHECKED_TERMS[c]}" for c in cols.tolist()]
    violations += _violations(times, kinds, steps, terms[steps, cols], d_tol)

    v_decreased: bool | None = None
    if v[0] > EQUILIBRIUM_V_FLOOR:
        v_decreased = bool(v[-1] < v[0])
        if not v_decreased:
            violations += _violations(times, ["v_not_decreased"], [v.size - 1], [v[-1] - v[0]], 0.0)

    checkpoints = np.flatnonzero(trajectory.checkpoints)
    two_path_ok: bool | None = None
    max_rel = None
    if checkpoints.size:
        # argmax takes the first NaN, else the first of equal maxima.
        worst_step = int(checkpoints[np.argmax(record["two_path_rel_err"][checkpoints])])
        max_rel = float(record["two_path_rel_err"][worst_step])
        two_path_ok = max_rel <= two_path_tol
        if not two_path_ok:
            violations += _violations(
                times, ["two_path_disagreement"], [worst_step], [max_rel], two_path_tol
            )

    mass = trajectory.kernel_mass_defect
    mass_ok = mass is None or mass <= two_path_tol
    if not mass_ok:
        violations += _violations(times, ["kernel_mass_defect"], [0], [mass], two_path_tol)

    lows, highs = terms.min(axis=0).tolist(), terms.max(axis=0).tolist()
    v_monotone = rises.size == 0 and bool(finite[:, 0].all())
    dissipation_nonpositive = steps.size == 0 and bool(finite[:, 1:].all())
    passed = (
        v_monotone
        and dissipation_nonpositive
        and v_decreased is not False
        and two_path_ok is not False
        and mass_ok
    )
    return Certificate(
        passed=passed,
        v_monotone=v_monotone,
        dissipation_nonpositive=dissipation_nonpositive,
        v_decreased=v_decreased,
        two_path_ok=two_path_ok,
        v_initial=float(v[0]),
        v_final=float(v[-1]),
        two_path_max_rel_err=max_rel,
        kernel_mass_max_rel_err=mass,
        v_tol=v_tol,
        d_tol=d_tol,
        two_path_tol=two_path_tol,
        violations=violations,
        term_ranges=dict(zip(CHECKED_TERMS, zip(lows, highs))),
    )
