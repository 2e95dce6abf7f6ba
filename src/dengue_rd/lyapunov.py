"""Lyapunov functional and dissipation identity, evaluated along a run.

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
call, not the arithmetic, sets the price of a step.  A certifying run
copies what eval_V reads of each state (the (3, n) state, u3 at lag k_a,
u1 u2 at lag k_b) into a StateBlock of B = BLOCK_CELLS // n rows, and
evaluates it in one eval_V call when it is full, at a checkpoint that
reads the ring, at the last step or at a state that is not strictly
positive.  The call checks the (B, 3, n) states once and writes every
integrand of every state into one (r, B, n) buffer: the ratio rows of
L1, L2, g_u2 and the two delay terms, and the lag values, go through
one g call, in place; each nonzero delay smooths its numerators and
their logs in one heat_apply call on a (2B, n) stack; one
gradient_energy call takes the (3B, n) stack; one stacked product
reduces every row against the quadrature weights.  These stacked forms equal a row-by-row evaluation
bit for bit (spectral module docstring), each element sees the same
operations in the same order, and each state's scalar sums run left to
right from 0.0, as Python 3.11's sum does.  So every number is that of
a term-by-term evaluation of one state, bit for bit, whatever B and
whatever the Python version.  Only a failed check goes back field by
field, so its message still names the field.  eval_V is the ring's only
writer after construction: a block's states that are newer than the
ring enter it from the same g pass.  LagIntegrals, when built or on a
checkpoint recompute, reads the history's states in code of its own, so
the checkpoint compares two independent paths.  README gives the cost
of B.

A certifying run keeps one RECORD_DTYPE row per step: V, L1-L3, W1, W2,
the eight TERM_NAMES, dissipation and two_path_rel_err (NaN off
checkpoints).  timeseries.csv and certificate.json both read that
buffer, and certificate.certify checks whole columns of it, never step
by step.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .core import Domain, History, ModelParams, lag_steps
from .spectral import gradient_energy, heat_apply, kernel_mass_defect
from .spectral import kernel_matrix  # unused here; perfbench/tracing.py wraps this binding

__all__ = [
    "LagIntegrals",
    "LyapunovKernels",
    "RECORD_DTYPE",
    "StateBlock",
    "TERM_NAMES",
    "block_rows",
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

# The quantities certify checks for sign, in violation order.
CHECKED_TERMS = (*TERM_NAMES, "dissipation")

# One row per step of a certifying run: integrator.Trajectory.lyapunov.
RECORD_DTYPE = np.dtype([
    (name, np.float64)
    for name in ("V", "L1", "L2", "L3", "W1", "W2", *CHECKED_TERMS, "two_path_rel_err")
])

# The integrand rows eval_V reduces for each state: the a and b rows are
# the state's per-lag values; b's row exists only when tau_b has lag
# steps.  Every row but the last two goes through g.
_ROWS = ("L1", "L2", "a", "g_delay_a", "g_delay_b", "g_u2", "b", "quad_u1", "quad_u2")

# g takes w - 1 - ln w as it stands below this argument (see g).
G_DIRECT_BELOW = 0.5

# A certifying run evaluates its states in blocks of at most this many
# grid values per field, B n, which bounds the memory of a block's
# stacked pass (README gives the measurements).
BLOCK_CELLS = 1200


def g(omega, out=None):
    """Volterra comparison function g(w) = w - 1 - ln w, zero only at w = 1.

    Accepts scalars or arrays; arguments must be strictly positive.  out,
    an array of omega's shape, receives the result when given, and may be
    omega itself.
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
    if lo < G_DIRECT_BELOW:
        e = w - 1.0
        # The clamp keeps log1p finite on the entries the direct form replaces.
        kept = e - np.log1p(np.maximum(e, G_DIRECT_BELOW - 1.0))
        e = np.where(w < G_DIRECT_BELOW, w - 1.0 - np.log(w), kept)[()]
        if out is not None:
            out[...] = e
            e = out
    else:
        e = np.subtract(w, 1.0, out=out)
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


def _add_left_to_right(values: Iterable) -> float | np.ndarray:
    """0.0 plus each value in turn, one rounding per term.

    The values are floats, or arrays of one shape that add elementwise.
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


def _theta_trapezoids(windows: np.ndarray, k: int, dt: float) -> np.ndarray:
    """_theta_trapezoid of each row of a (B, k + 1) stack, bit for bit.

    The interior of a row adds left to right from 0.0: np.add.accumulate
    is sequential, where sum and np.add.reduce add pairwise.
    """
    interior = np.zeros((len(windows), k))
    interior[:, 1:] = windows[:, 1:k]
    interior_sum = np.add.accumulate(interior, axis=1)[:, -1]
    return dt * (0.5 * (windows[:, 0] + windows[:, k]) + interior_sum)


def block_rows(n: int) -> int:
    """The rows B of the StateBlock a certifying run fills on an n-point grid."""
    return max(1, BLOCK_CELLS // n)


@dataclass(frozen=True)
class StateBlock:
    """Consecutive states of a certifying run, held for one eval_V pass.

    Row i holds what eval_V reads of the history at its i-th state, copied
    out because the history reuses its slots: the time t, the (3, n)
    state, u3 at lag k_a and u1 u2 at lag k_b.  Slicing gives a block of
    views of the rows.
    """

    t: np.ndarray      # (B,)
    state: np.ndarray  # (B, 3, n)
    lag_a: np.ndarray  # (B, n)
    lag_b: np.ndarray  # (B, n)

    @classmethod
    def empty(cls, rows: int, n: int) -> StateBlock:
        return cls(*(np.empty(shape) for shape in (rows, (rows, 3, n), (rows, n), (rows, n))))

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, rows: slice) -> StateBlock:
        return StateBlock(self.t[rows], self.state[rows], self.lag_a[rows], self.lag_b[rows])

    def put(self, i: int, history: History, k_a: int, k_b: int) -> None:
        """Copies what eval_V reads of the history's newest state into row i."""
        self.t[i] = history.t_now
        self.state[i] = history.lookup_arrays(0)
        self.lag_a[i] = history.lookup_arrays(k_a)[2]
        np.multiply(*history.lookup_arrays(k_b)[:2], out=self.lag_b[i])


class LagIntegrals:
    """Per-lag integrals of g over the delay window, in a ring aligned with History.

    a[j] is the trapezoid integral of g(u3 / u3*) and b[j] that of
    g(u1 u2 / (u1* u2*)), both over the state j steps before t_now.  The
    ring has max(k_a, k_b) + 1 slots, newest first; a delay of zero
    steps caches nothing and its W is zero.  A state's values, and its
    positivity check, are computed once, when it enters the window:
    built from the whole window here, then entered by the eval_V call
    whose block holds the state.  t_now is the time of the newest cached
    state.

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

    def _enter(
        self, t_last: float, level: int, a_new: np.ndarray, b_new: np.ndarray | None
    ) -> list[np.ndarray]:
        """W1 and W2 at each of B consecutive states, oldest first.

        a_new and b_new hold the states' per-lag values.  The first state
        is the ring's newest when level is 1; every other one enters the
        ring, which then ends at t_last.
        """
        size = len(a_new)
        per_delay = []
        for cache, new, k in ((self.a, a_new, self.k_a), (self.b, b_new, self.k_b)):
            if not k:
                per_delay.append(np.zeros(size))
                continue
            fresh = new[level:]
            chain = np.concatenate((fresh[::-1], np.fromiter(cache, float, len(cache))))
            # Row i, newest first, starts at chain[size - 1 - i]: a
            # read-only strided view of the new values and the ring.
            stride = chain.itemsize
            windows = np.lib.stride_tricks.as_strided(
                chain[size - 1 :], (size, k + 1), (-stride, stride), writeable=False
            )
            per_delay.append(self._bstar * _theta_trapezoids(windows, k, self._dt))
            cache.extendleft(fresh.tolist())
        self.t_now = t_last
        return per_delay

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
    history: History | StateBlock,
    params: ModelParams,
    ustar: np.ndarray,
    domain: Domain,
    *,
    ring: LagIntegrals | None = None,
) -> np.ndarray:
    """Evaluates V and the dissipation identity on a block of consecutive states.

    The delay terms use int int Gamma(x, y) g(N(y) / D(x)) dy dx =
    int [g(N / D) + (KN - N) / D + ln N - K ln N] dx, with K = Gamma(d tau)
    of unit row mass; the form needs only N, D > 0, not KN > 0 (the
    n-mode kernel is not positive at small times).  Logs of N over its
    endemic value keep the bracket small near equilibrium, and at tau = 0
    the integrand is exactly g(N / D).  KN for g_delay_a is quad_u1's
    smoothed field.

    Each call, whatever the block's length B, makes one positivity check,
    one g call, one gradient_energy call on the (3B, n) stack of states
    and one heat_apply call per nonzero delay, through this module's
    names, where the benchmark's tracing counts them.  Each row is bit
    for bit the row of its state evaluated alone (module docstring).  A
    History is a block of one: its newest state.

    The ring advances here: the states newer than the ring's newest enter
    it, their per-lag values from this call's g pass.  The block's first
    state must be the ring's newest or the one after it, so a repeated
    call on a History leaves the ring as it was.

    Args:
        history: The states to evaluate: a StateBlock, or a History whose
            newest entry is the current state.  Every stored state must
            be strictly positive.
        params: Model parameters; R0 > 1 is assumed (ustar exists).
        ustar: The endemic triple (u1*, u2*, u3*).
        domain: Spatial discretisation.
        ring: Cached per-lag integrals, level with the block's first
            state or one step behind it; required with a StateBlock, and
            built from the whole window of a History if omitted.

    Returns:
        One RECORD_DTYPE row per state of a StateBlock, or the single row
        of a History, with two_path_rel_err NaN; V equals
        L1 + L2 + L3 + W1 + W2 by construction.

    Raises:
        ValueError: on a nonpositive state or endemic triple, a history
            shorter than the delays, or a ring neither level with the
            block's first state nor one step behind it.
    """
    single = isinstance(history, History)
    block = history
    if single:
        if ring is None:
            ring = LagIntegrals(history, params, ustar, domain)
        block = StateBlock.empty(1, history.n)
        block.put(0, history, ring.k_a, ring.k_b)
    t_first = float(block.t[0])
    level = int(t_first == ring.t_now)
    if not level and t_first != ring.t_now + ring._dt:
        raise ValueError(
            f"lag ring is at t={ring.t_now!r}, history at t={t_first!r}; "
            "evaluate V after every append"
        )
    k_a, k_b = ring.k_a, ring.k_b
    star = np.asarray(ustar, dtype=float)[:, None, None]
    u1s, u2s, u3s = star.ravel().tolist()
    w = domain.trapezoid_weights
    bstar = params.beta_h * u1s * u2s
    expb = math.exp(params.mu_h * params.tau_b)

    # Arrays here run field (or integrand) first: (3, B, n) and the like.
    cur = block.state.swapaxes(0, 1)
    if not _all_positive(block.state):
        for name, values in zip(("u1", "u2", "u3"), cur):
            _require_positive(name, values)
    size, n = len(block), domain.n
    # The gradients first, while the block's other buffers do not exist yet.
    grads = gradient_energy(block.state.reshape(-1, n), domain)
    grad_u1, grad_u2, grad_u3 = grads.reshape(size, 3).T
    u1, u2, u3 = cur
    # The delay numerators N, over the denominators D = (u1, u3).
    numer = np.empty((2, size, n))
    np.multiply(u1s, block.lag_a, out=numer[0])
    numer[0] /= u3s
    np.multiply(block.lag_b, u3s / (u1s * u2s), out=numer[1])

    # One row per integrand and state, in _ROWS order; g takes the ratio
    # rows in place, and the two quadratic rows are written after it.
    rows = np.empty((len(_ROWS) if k_b else len(_ROWS) - 1, size, n))
    np.divide(cur, star, out=rows[:3])
    np.divide(numer, cur[::2], out=rows[3:5])
    np.divide(u2s, u2, out=rows[5])
    if k_b:
        np.multiply(u1, u2, out=rows[6])
        rows[6] /= u1s * u2s
    g(rows[:-2], out=rows[:-2])

    # Each nonzero delay smooths its numerators and their logs in one
    # heat_apply call, and adds the bracket (KN - N) / D + [ln N - K ln N]
    # to its g(N / D) rows; a zero delay has KN = N and a zero bracket.
    smoothed = block.lag_a
    if k_a:
        log_a = np.log(numer[0] / u1s)
        smoothed, log_a_smoothed = heat_apply(
            np.concatenate((block.lag_a, log_a)), params.d_m, params.tau_a, domain
        ).reshape(2, size, n)
        rows[3] += (u1s * smoothed / u3s - numer[0]) / u1
        rows[3] += log_a - log_a_smoothed
    if k_b:
        log_b = np.log(numer[1] / u3s)
        numer_b_smoothed, log_b_smoothed = heat_apply(
            np.concatenate((numer[1], log_b)), params.d_h, params.tau_b, domain
        ).reshape(2, size, n)
        rows[4] += (numer_b_smoothed - numer[1]) / u3
        rows[4] += log_b - log_b_smoothed
    quad = rows[-2:]
    np.subtract(cur[:2], star[:2], out=quad)
    quad *= quad
    quad /= cur[:2]
    quad[0] *= smoothed

    # Every integral in one stacked call: a row times the weights is the
    # same dot product as float(w @ row), bit for bit (spectral docstring).
    integrals = np.matmul(rows.reshape(-1, 1, n), w[:, None]).reshape(len(rows), size)
    l1_int, l2_int, a_now, delay_a, delay_b, g_u2, *b_now, quad_u1, quad_u2 = integrals
    w1, w2 = ring._enter(float(block.t[-1]), level, a_now, b_now[0] if k_b else None)
    l1 = bstar / params.mu_m * l1_int
    l2 = u2s * l2_int
    l3 = expb * u3s * a_now

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
    out = np.empty(size, RECORD_DTYPE)
    columns = (l1 + l2 + l3 + w1 + w2, l1, l2, l3, w1, w2, *terms, dissipation, math.nan)
    for name, column in zip(RECORD_DTYPE.names, columns):
        out[name] = column
    return out[0] if single else out
