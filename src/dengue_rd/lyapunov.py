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
(3, n) state once, hands the ratio rows of L1, L2, g_u2 and the two
delay terms to one g call, and smooths the numerator of each nonzero
delay and its log in one heat_apply call.  L3's integral is the ring's
newest a value when tau_a has lag steps, and one more g row otherwise.
LagIntegrals, on a push or a checkpoint recompute, writes the ratios of
every lag it needs from views of the history's states into one buffer,
which it checks once and passes to g once.  Every scalar is still its
own dot product over its own row, so the numbers are bit for bit those
of a term-by-term evaluation, and only a failed check goes back row by
row, so its message still names the field or the lag.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
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
    "LyapunovBreakdown",
    "LyapunovKernels",
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

# Default certification tolerances.  The per-step slack on monotonicity is
# relative to V at the start; the dissipation sign slack is absolute.
DEFAULT_V_TOL = 1e-8
DEFAULT_D_TOL = 1e-12
DEFAULT_TWO_PATH_TOL = 1e-8

# A start counts as off-equilibrium, and must strictly decrease V, when
# V(0) exceeds this absolute level.
EQUILIBRIUM_V_FLOOR = 1e-12


def g(omega):
    """Volterra comparison function g(w) = w - 1 - ln w, zero only at w = 1.

    Accepts scalars or arrays; arguments must be strictly positive.
    Computed as e - log1p(e) with e = w - 1, which keeps the result
    nonnegative down to roundoff near w = 1.
    """
    w = np.asarray(omega, dtype=float)
    if (w <= 0.0).any() or not np.isfinite(w).all():
        raise ValueError("g is defined for strictly positive finite arguments only")
    e = w - 1.0
    e -= np.log1p(e)
    return float(e) if np.isscalar(omega) else e


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


@dataclass(frozen=True, slots=True)
class LyapunovBreakdown:
    """V, its five component integrals and the eight dissipation terms.

    dissipation is the full right-hand side of the identity, the sum of
    grad_terms, quad_terms and g_terms; every summand is nonpositive up
    to roundoff.  two_path_rel_err is set only at checkpoint steps of a
    certifying run, where it records the relative disagreement between
    the cached W1, W2 and their recomputation from the raw window.
    """

    V: float
    L1: float
    L2: float
    L3: float
    W1: float
    W2: float
    dissipation: float
    grad_terms: tuple[float, float, float]
    g_terms: tuple[float, float, float]
    quad_terms: tuple[float, float]
    two_path_rel_err: float | None = None

    @property
    def terms(self) -> dict[str, float]:
        """All eight dissipation terms keyed by TERM_NAMES."""
        values = self.grad_terms + self.quad_terms + self.g_terms
        return dict(zip(TERM_NAMES, values))


def _all_positive(values: np.ndarray) -> bool:
    """True if every value is finite and strictly positive (min is NaN if any value is)."""
    return bool(values.min() > 0.0 and values.max() < math.inf)


def _require_positive(name: str, values: np.ndarray) -> None:
    if not _all_positive(values):
        raise ValueError(
            f"Lyapunov evaluation requires strictly positive {name}; "
            f"min value is {values.min():.6g}"
        )


def _theta_trapezoid(values: list[float], dt: float) -> float:
    """Composite trapezoid of per-lag values over [-k dt, 0]."""
    if len(values) <= 1:
        return 0.0
    acc = 0.5 * (values[0] + values[-1]) + sum(values[1:-1])
    return dt * acc


class LagIntegrals:
    """Per-lag integrals of g over the delay window, in a ring aligned with History.

    a[j] is the trapezoid integral of g(u3 / u3*) and b[j] that of
    g(u1 u2 / (u1* u2*)), both over the state j steps before t_now.  The
    ring has max(k_a, k_b) + 1 slots, newest first; a delay of zero
    steps caches nothing and its W is zero.  A state's values, and its
    positivity check, are computed once, when it enters the window:
    built from the whole window here, then one push after every
    History.append.

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
        states into one buffer, which takes one check and one g pass; each
        lag's integral is its own dot product.  On a failed check the
        states are checked again one by one, oldest first, so the error
        names the lag.
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
        per_lag = [[float(self._w @ row) for row in rows] for rows in g(ratio)]
        return (per_lag[0] if self.k_a else [], per_lag[-1] if self.k_b else [])

    def push(self, history: History) -> None:
        """Caches the newest state's values; call after each History.append."""
        a, b = self._lag_values(history, 1)
        self.a.extendleft(a)
        self.b.extendleft(b)
        self.t_now = history.t_now

    def _w_values(self, a: deque, b: deque) -> tuple[float, float]:
        w1 = self._bstar * _theta_trapezoid(list(islice(a, self.k_a + 1)), self._dt)
        w2 = self._bstar * _theta_trapezoid(list(islice(b, self.k_b + 1)), self._dt)
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
        return max(errs, default=0.0)


def eval_V(
    history: History,
    params: ModelParams,
    ustar: np.ndarray,
    domain: Domain,
    *,
    ring: LagIntegrals | None = None,
) -> LyapunovBreakdown:
    """Evaluates V and the dissipation identity on the current history.

    The delay terms use int int Gamma(x, y) g(N(y) / D(x)) dy dx =
    int [g(N / D) + (KN - N) / D + ln N - K ln N] dx, with K = Gamma(d tau)
    of unit row mass; the form needs only N, D > 0, not KN > 0 (the
    truncated kernel is not positive).  Logs of N over its endemic value
    keep the bracket small near equilibrium, and at tau = 0 the integrand
    is exactly g(N / D).  KN for g_delay_a is quad_u1's smoothed field.

    Args:
        history: Delay window whose newest entry is the current state;
            every stored state must be strictly positive.
        params: Model parameters; R0 > 1 is assumed (ustar exists).
        ustar: The endemic triple (u1*, u2*, u3*).
        domain: Spatial discretisation.
        ring: Cached per-lag integrals, pushed up to the current state;
            built from the whole window if omitted.

    Returns:
        The full breakdown; V equals L1 + L2 + L3 + W1 + W2 by
        construction.

    Raises:
        ValueError: on a nonpositive state or endemic triple, a history
            shorter than the delays, or a ring out of step with it.
    """
    if ring is None:
        ring = LagIntegrals(history, params, ustar, domain)
    elif ring.t_now != history.t_now:
        raise ValueError(
            f"lag ring is at t={ring.t_now!r}, history at t={history.t_now!r}; "
            "push the ring after every append"
        )
    k_a, k_b = ring.k_a, ring.k_b
    u1s, u2s, u3s = (float(v) for v in ustar)
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
    numer_a = u1s * u3_lag_a / u3s
    numer_b = lag_b[0] * lag_b[1] * (u3s / (u1s * u2s))
    # Rows: L1, L2, g_u2, g(N / D) of g_delay_a and g_delay_b, then L3's
    # unless the ring holds it already (a[0], when tau_a has lag steps).
    rows = [u1 / u1s, u2 / u2s, u2s / u2, numer_a / u1, numer_b / u3]
    if not k_a:
        rows.append(u3 / u3s)
    gs = g(np.array(rows))

    # Each nonzero delay smooths its numerator and the log of it in one
    # heat_apply call, and adds the bracket (KN - N) / D + [ln N - K ln N]
    # to its g(N / D) row; a zero delay has KN = N and a zero bracket.
    smoothed = u3_lag_a
    if k_a:
        log_a = np.log(numer_a / u1s)
        smoothed, log_a_smoothed = heat_apply(
            np.array((u3_lag_a, log_a)), params.d_m, params.tau_a, domain
        )
        gs[3] += (u1s * smoothed / u3s - numer_a) / u1
        gs[3] += log_a - log_a_smoothed
    if k_b:
        log_b = np.log(numer_b / u3s)
        numer_b_smoothed, log_b_smoothed = heat_apply(
            np.array((numer_b, log_b)), params.d_h, params.tau_b, domain
        )
        gs[4] += (numer_b_smoothed - numer_b) / u3
        gs[4] += log_b - log_b_smoothed

    l1 = bstar / params.mu_m * float(w @ gs[0])
    l2 = u2s * float(w @ gs[1])
    l3 = expb * u3s * (ring.a[0] if k_a else float(w @ gs[5]))
    w1, w2 = ring.integrals()

    # Dissipation terms.
    grad1 = -(params.d_m * bstar / params.mu_m) * gradient_energy(u1, domain)
    grad2 = -(params.d_h * u2s) * gradient_energy(u2, domain)
    grad3 = -(expb * params.d_h * u3s) * gradient_energy(u3, domain)
    quad1 = -(params.beta_m * params.beta_h * u2s / params.mu_m) * float(
        w @ ((u1 - u1s) ** 2 / u1 * smoothed)
    )
    quad2 = -params.mu_h * float(w @ ((u2 - u2s) ** 2 / u2))
    g_u2 = -bstar * float(w @ gs[2])
    g_delay_b = -bstar * float(w @ gs[4])
    g_delay_a = -bstar * float(w @ gs[3])

    grad_terms = (grad1, grad2, grad3)
    quad_terms = (quad1, quad2)
    g_terms = (g_u2, g_delay_b, g_delay_a)
    return LyapunovBreakdown(
        V=l1 + l2 + l3 + w1 + w2,
        L1=l1,
        L2=l2,
        L3=l3,
        W1=w1,
        W2=w2,
        dissipation=sum(grad_terms) + sum(quad_terms) + sum(g_terms),
        grad_terms=grad_terms,
        g_terms=g_terms,
        quad_terms=quad_terms,
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
    each stay within two_path_tol when recorded.

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
    breakdowns = trajectory.lyapunov
    if not breakdowns:
        raise ValueError("trajectory carries no Lyapunov data; rerun with certify")
    v = np.asarray([b.V for b in breakdowns])
    violations: list[dict] = []
    times = trajectory.times

    # Floor the slack so runs started at (numerical) equilibrium, where
    # V(0) is pure roundoff, are not failed on jitter at that scale.
    slack = v_tol * max(v[0], EQUILIBRIUM_V_FLOOR)
    v_monotone = True
    for k in range(len(v) - 1):
        if v[k + 1] > v[k] + slack:
            v_monotone = False
            violations.append(
                {
                    "kind": "v_increase",
                    "step": k + 1,
                    "time": float(times[k + 1]),
                    "value": float(v[k + 1] - v[k]),
                    "threshold": float(slack),
                }
            )

    dissipation_nonpositive = True
    ranges = {name: [math.inf, -math.inf] for name in TERM_NAMES}
    ranges["dissipation"] = [math.inf, -math.inf]
    for k, b in enumerate(breakdowns):
        checked = dict(b.terms)
        checked["dissipation"] = b.dissipation
        for name, value in checked.items():
            lo, hi = ranges[name]
            ranges[name] = [min(lo, value), max(hi, value)]
            if value > d_tol:
                dissipation_nonpositive = False
                violations.append(
                    {
                        "kind": f"positive_{name}",
                        "step": k,
                        "time": float(times[k]),
                        "value": float(value),
                        "threshold": float(d_tol),
                    }
                )

    v_decreased: bool | None = None
    if v[0] > EQUILIBRIUM_V_FLOOR:
        v_decreased = bool(v[-1] < v[0])
        if not v_decreased:
            violations.append(
                {
                    "kind": "v_not_decreased",
                    "step": len(v) - 1,
                    "time": float(times[-1]),
                    "value": float(v[-1] - v[0]),
                    "threshold": 0.0,
                }
            )

    checkpoints = [
        (k, b.two_path_rel_err)
        for k, b in enumerate(breakdowns)
        if b.two_path_rel_err is not None
    ]
    two_path_ok: bool | None = None
    max_rel = None
    if checkpoints:
        worst_step, max_rel = max(checkpoints, key=lambda item: item[1])
        max_rel = float(max_rel)
        two_path_ok = max_rel <= two_path_tol
        if not two_path_ok:
            violations.append(
                {
                    "kind": "two_path_disagreement",
                    "step": worst_step,
                    "time": float(times[worst_step]),
                    "value": max_rel,
                    "threshold": float(two_path_tol),
                }
            )

    mass = trajectory.kernel_mass_defect
    mass_ok = mass is None or mass <= two_path_tol
    if not mass_ok:
        violations.append(
            {
                "kind": "kernel_mass_defect",
                "step": 0,
                "time": float(times[0]),
                "value": float(mass),
                "threshold": float(two_path_tol),
            }
        )

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
        term_ranges={k: (v2[0], v2[1]) for k, v2 in ranges.items()},
    )
