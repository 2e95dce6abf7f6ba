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
never change once a state is computed, so a certifying run keeps them in
lags, a (2, K + n_steps + 1) array with K = max(k_a, k_b) whose column
K + s holds the values of step s.  lag_values fills the first K + 1
columns from the initial window; after that eval_V is the only writer,
and each state's values are computed once.

The shortcut rests on the column mass, a property of the heat flow, not
of a run: the tests require every flow a run applies to conserve
trapezoid mass, on every path and grid, at dt and at every lag time a
config accepts.  The column's indexing is a property of the code too:
the tests hold the recorded W1 and W2 to a recomputation through
assembled kernel matrices that reads neither the column nor its
trapezoid code.

Evaluation is stacked, because on small grids numpy's fixed cost per
call, not the arithmetic, sets the price of a step.  A certifying run
copies what eval_V reads of each state (the (3, n) state, u3 at lag k_a,
u1 u2 at lag k_b) into a row of its StateBlock, the run's one block of B
states (integrator module docstring), and evaluates the block in one
eval_V call after its last step.  A state that is not strictly positive
is evaluated at once, with the rows before it, so its error stops the
run at its own step.  The call checks the (3, B, n) states once and
writes every integrand of every state into one (r, B, n) buffer: the
ratio rows of L1, L2, g_u2 and the two delay terms, and the per-lag
values, go through one g call, in place; each nonzero delay smooths its
numerators and their logs in one heat_apply call on a (2B, n) stack; one
gradient_energy call takes the (3B, n) stack; one stacked product
reduces every row against the quadrature weights.  These stacked forms
equal a row-by-row evaluation bit for bit (spectral module docstring),
each element sees the same operations in the same order, and each
state's scalar sums run left to right from 0.0, as Python 3.11's sum
does.  So every number is that of a term-by-term evaluation of one
state, bit for bit, whatever B and whatever the Python version.  Only a
failed check goes back field by field, so its message still names the
field.  README gives the cost of B.

A certifying run keeps one RECORD_DTYPE row per step: V, L1-L3, W1, W2,
the eight TERM_NAMES and dissipation.  timeseries.csv and
certificate.json both read that buffer, and certificate.certify checks
whole columns of it, never step by step.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import Domain, History, ModelParams, lag_steps
from .spectral import gradient_energy, heat_apply, kernel_mass_defect
from .spectral import kernel_matrix  # unused here; perfbench/tracing.py wraps this binding

__all__ = [
    "RECORD_DTYPE",
    "StateBlock",
    "TERM_NAMES",
    "eval_V",
    "g",
    "lag_values",
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
    (name, np.float64) for name in ("V", "L1", "L2", "L3", "W1", "W2", *CHECKED_TERMS)
])

# The integrand rows eval_V reduces for each state: the a and b rows are
# the state's per-lag values; b's row exists only when tau_b has lag
# steps.  Every row but the last two goes through g.
_ROWS = ("L1", "L2", "a", "g_delay_a", "g_delay_b", "g_u2", "b", "quad_u1", "quad_u2")

# g takes w - 1 - ln w as it stands below this argument (see g).
G_DIRECT_BELOW = 0.5


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


def prepare_kernels(params: ModelParams, domain: Domain, dt: float) -> float:
    """The kernels' worst relative column-mass defect at every lag of both delays.

    The lags are dt, 2 dt, ..., tau (see spectral.kernel_mass_defect).  No
    run calls it; the benchmark's tracing wraps the name.
    """
    k_a = lag_steps(params.tau_a, dt)
    k_b = lag_steps(params.tau_b, dt)
    return max(
        kernel_mass_defect(params.d_m, np.arange(1, k_a + 1) * dt, domain),
        kernel_mass_defect(params.d_h, np.arange(1, k_b + 1) * dt, domain),
    )


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


def _theta_trapezoids(windows: np.ndarray, k: int, dt: float) -> np.ndarray:
    """Composite trapezoid over [-k dt, 0] of each row of a (B, k + 1) stack.

    A row holds the per-lag values 0 .. k, newest first.  Its interior
    adds left to right from 0.0: np.add.accumulate is sequential, where
    sum and np.add.reduce add pairwise.
    """
    interior = np.zeros((len(windows), k))
    interior[:, 1:] = windows[:, 1:k]
    interior_sum = np.add.accumulate(interior, axis=1)[:, -1]
    return dt * (0.5 * (windows[:, 0] + windows[:, k]) + interior_sum)


def _delay_W(
    lags: np.ndarray, size: int, k_a: int, k_b: int, dt: float, bstar: float
) -> np.ndarray:
    """W1 and W2, as a (2, size) array, of the states in lags' last size columns.

    A state's window is its own column and the k before it, newest first:
    row i of a read-only strided view that starts at the i-th of those
    columns and steps back, so lags must hold size + k columns or more.
    A delay of zero steps has W = 0.
    """
    out = np.zeros((2, size))
    for r, k in enumerate((k_a, k_b)):
        if k:
            if lags.shape[1] < size + k:
                raise ValueError(f"lags holds {lags.shape[1]} columns, need {size + k}")
            newest = lags[r, -size:]
            stride = newest.strides[0]
            windows = np.lib.stride_tricks.as_strided(
                newest, (size, k + 1), (stride, -stride), writeable=False
            )
            out[r] = bstar * _theta_trapezoids(windows, k, dt)
    return out


@dataclass(frozen=True)
class StateBlock:
    """Consecutive states of a run, held for its books and one eval_V pass.

    Row i holds what eval_V reads of the history at its i-th state, copied
    out because the history reuses its slots: the state's step index, the
    state itself (field first: state[:, i] is the (3, n) state), u3 at lag
    k_a and u1 u2 at lag k_b.  A plain run fills only the states.  dt, k_a
    and k_b are the run's.  Slicing gives a block of views of the rows.
    """

    dt: float
    k_a: int
    k_b: int
    step: np.ndarray   # (B,)
    state: np.ndarray  # (3, B, n)
    lag_a: np.ndarray  # (B, n)
    lag_b: np.ndarray  # (B, n)

    @classmethod
    def empty(cls, rows: int, n: int, dt: float, k_a: int, k_b: int) -> StateBlock:
        step, state = np.empty(rows, dtype=int), np.empty((3, rows, n))
        return cls(dt, k_a, k_b, step, state, np.empty((rows, n)), np.empty((rows, n)))

    def __len__(self) -> int:
        return self.step.size

    def __getitem__(self, rows: slice) -> StateBlock:
        arrays = (self.step[rows], self.state[:, rows], self.lag_a[rows], self.lag_b[rows])
        return StateBlock(self.dt, self.k_a, self.k_b, *arrays)

    def put(self, i: int, step: int, state: np.ndarray, history: History) -> None:
        """Copies what eval_V reads of the history's newest state, that of step, into row i.

        state is that newest state, as step returned it; the two lag rows
        are read from views of the history's ring.
        """
        self.step[i] = step
        self.state[:, i] = state
        self.lag_a[i] = history.lookup_arrays(self.k_a)[2]
        np.multiply(*history.lookup_arrays(self.k_b)[:2], out=self.lag_b[i])


def lag_values(
    history: History, ustar: np.ndarray, domain: Domain, k_a: int, k_b: int
) -> np.ndarray:
    """The per-lag values of the history's window, oldest first: a (2, K + 1) array.

    K = max(k_a, k_b), and column i holds the values of the state at lag
    K - i: row 0 the integral of g(u3 / u3*), row 1 that of
    g(u1 u2 / (u1* u2*)).  The row of a delay of zero steps is NaN, as no
    W reads it.  Each delay that has lag steps gathers the rows it reads
    of the whole window in one call and writes its ratios into one
    buffer, which takes one check, one g pass and one stacked product,
    each value equal to its own dot product.  On a failed check the states
    are checked again one by one, oldest first, so the error names the lag.

    Raises:
        ValueError: if the history spans fewer than K lags, the endemic
            triple is not strictly positive, or a state the delays read
            is not.
    """
    size = max(k_a, k_b) + 1
    if history.n_lags < size - 1:
        raise ValueError(f"history spans {history.n_lags} lags, need {size - 1}")
    u1s, u2s, u3s = (float(v) for v in ustar)
    if min(u1s, u2s, u3s) <= 0.0:
        raise ValueError("endemic triple must be strictly positive")
    values = np.full((2, size), math.nan)
    delays = [r for r, k in enumerate((k_a, k_b)) if k]
    if not delays:
        return values
    w = domain.trapezoid_weights
    ratio = np.empty((len(delays), size, w.size))
    # One gather per delay, oldest first: row i is the state at lag K - i.
    if k_a:
        u3 = history.lookup_block(size - 1, size, 2)
        np.divide(u3, u3s, out=ratio[0])
    if k_b:
        u12 = history.lookup_block(size - 1, size, slice(0, 2))
        np.multiply(u12[:, 0], u12[:, 1], out=ratio[-1])
        ratio[-1] /= u1s * u2s
    if not _all_positive(ratio):
        for i in range(size):
            lag = size - 1 - i
            if k_a:
                _require_positive(f"u3 at lag {lag}", u3[i])
            if k_b:
                _require_positive(f"u1*u2 at lag {lag}", u12[i, 0] * u12[i, 1])
    values[delays] = np.matmul(g(ratio)[:, :, None, :], w[:, None]).reshape(-1, size)
    return values


def eval_V(
    history: History | StateBlock,
    params: ModelParams,
    ustar: np.ndarray,
    domain: Domain,
    *,
    lags: np.ndarray | None = None,
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
    for bit the row of its state evaluated alone (module docstring).

    The call writes each state's per-lag values into column K + s of lags
    for its step s, K = max(k_a, k_b), from its own g pass, and reads the
    state's W1 and W2 from the k + 1 columns that end there.  A History is
    a block of one, step 0, over lag_values of its own window.

    Args:
        history: The states to evaluate: a StateBlock, or a History whose
            newest entry is the current state.  Every stored state must
            be strictly positive.
        params: Model parameters; R0 > 1 is assumed (ustar exists).
        ustar: The endemic triple (u1*, u2*, u3*).
        domain: Spatial discretisation.
        lags: A (2, K + n_steps + 1) array whose columns up to the
            block's first step hold the values of the steps before it;
            required with a StateBlock, unused with a History.

    Returns:
        One RECORD_DTYPE row per state of a StateBlock, or the single row
        of a History; V equals L1 + L2 + L3 + W1 + W2 by construction.

    Raises:
        ValueError: on a nonpositive state or endemic triple, or a
            history shorter than the delays.
    """
    single = isinstance(history, History)
    block = history
    if single:
        dt = history.dt
        k_a, k_b = lag_steps(params.tau_a, dt), lag_steps(params.tau_b, dt)
        lags = lag_values(history, ustar, domain, k_a, k_b)
        block = StateBlock.empty(1, history.n, dt, k_a, k_b)
        block.put(0, 0, history.lookup_arrays(0), history)
    k_a, k_b = block.k_a, block.k_b
    star = np.asarray(ustar, dtype=float).tolist()
    u1s, u2s, u3s = star
    w = domain.trapezoid_weights
    bstar = params.beta_h * u1s * u2s
    expb = math.exp(params.mu_h * params.tau_b)

    # Arrays here run field (or integrand) first: (3, B, n) and the like.
    cur = block.state
    if not _all_positive(cur):
        for name, values in zip(("u1", "u2", "u3"), cur):
            _require_positive(name, values)
    size, n = len(block), domain.n
    # The gradients first, while the block's other buffers do not exist yet.
    grad_u1, grad_u2, grad_u3 = gradient_energy(cur.reshape(-1, n), domain).reshape(3, size)
    u1, u2, u3 = cur
    # The delay numerators N, over the denominators D = (u1, u3).
    numer = np.empty((2, size, n))
    np.multiply(u1s, block.lag_a, out=numer[0])
    numer[0] /= u3s
    np.multiply(block.lag_b, u3s / (u1s * u2s), out=numer[1])

    # One row per integrand and state, in _ROWS order; g takes the ratio
    # rows in place, and the two quadratic rows are written after it.
    # Fields are divided one at a time by scalars, which needs no temporaries.
    rows = np.empty((len(_ROWS) if k_b else len(_ROWS) - 1, size, n))
    for row, field_values, value in zip(rows, cur, star):
        np.divide(field_values, value, out=row)
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
    for row, field_values, value in zip(quad, cur, star):
        np.subtract(field_values, value, out=row)
    quad *= quad
    quad /= cur[:2]
    quad[0] *= smoothed

    # Every integral in one stacked call: a row times the weights is the
    # same dot product as float(w @ row), bit for bit (spectral docstring).
    integrals = np.matmul(rows.reshape(-1, 1, n), w[:, None]).reshape(len(rows), size)
    l1_int, l2_int, a_now, delay_a, delay_b, g_u2, *b_now, quad_u1, quad_u2 = integrals
    end = max(k_a, k_b) + int(block.step[-1]) + 1
    for row, k, now in zip(lags, (k_a, k_b), (a_now, *b_now)):
        if k:
            row[end - size : end] = now
    w1, w2 = _delay_W(lags[:, :end], size, k_a, k_b, block.dt, bstar)
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
    columns = (l1 + l2 + l3 + w1 + w2, l1, l2, l3, w1, w2, *terms, dissipation)
    for name, column in zip(RECORD_DTYPE.names, columns):
        out[name] = column
    return out[0] if single else out
