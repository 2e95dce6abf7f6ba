"""Neumann heat semigroup on [0, L] in a trapezoid-consistent cosine basis.

The operators here discretise the no-flux heat flow that transports the
delayed infection terms.  Eigenfunctions of the Laplacian with Neumann
conditions on [0, L] are cos(k pi x / L) with eigenvalues
lam_k = (k pi / L)^2, so the semigroup acts diagonally in the cosine
basis: mode k is multiplied by exp(-d t lam_k).  The kernel of the
semigroup is

    Gamma(d t, x, y) = 1/L + (2/L) sum_{k>=1} exp(-d t lam_k)
                       cos(k pi x / L) cos(k pi y / L),

symmetric in (x, y), with unit mass in each argument.

Discretisation uses the closed uniform grid x_j = j L / (n - 1) and
trapezoid quadrature.  The forward transform uses the discrete cosine
orthogonality on that grid, which matches the continuous normalisation
2/L for every mode except the top one (k = n - 1), where the grid sees
cos^2 with weight 1/L instead of 2/L.
With that single weight adjusted, the transform pair inverts exactly,
constants are exact fixed points of the semigroup, mode 0 equals the
trapezoid mean (mass conservation becomes an identity), and the
assembled kernel matrix reproduces heat_apply to roundoff at every t.

The heat flow is one transform pair, shared by heat_apply and the
integrator's step: forward to the cosine basis, scale mode k by its
decay, back to the grid.  It runs on one of two paths, which agree to
about 1e-14 of sup |f|:

- matrix products: two stacked products with the pair of the first K
  cosine modes from _basis, the forward (K, n) matrix
  (c_k / m) eps_j cos(k pi x_j / L) and the inverse (n, K) basis
  cos(k pi x_j / L), O(n K) per row.  Below FFT_MIN_N grid points K = n,
  the dense pair, which is the fastest there.  At and above it the path
  takes a flow whose band keeps at most BAND_MAX_MODES modes: the band
  is the first K, K the smallest count with
  2 sum_{k >= K} decay_k <= BAND_TAIL_BOUND = 2^-53 (the factors fall
  with k, because lam_k grows with k).  The flow is then the truncated
  cosine series (Trefethen, Spectral Methods in MATLAB, 2000, ch. 8).
  Leaving the modes from K on out moves each grid value by at most
  2^-53 sup |f|, half an ulp of the field's scale: each coefficient
  a_k = (c_k / m) sum_j eps_j cos(k pi x_j / L) f_j is at most
  c_k sup |f| <= 2 sup |f| in size, because c_k <= 2 and the trapezoid
  end-point halving eps sums to m = n - 1.  So the band agrees with the
  all-mode flow to roundoff, not bit for bit.
- FFT: any other flow at and above FFT_MIN_N.  The pair is exactly the
  DCT-I, so it runs as irfft(rfft(e) * decay) of the even extension
  e = (f_0, ..., f_{n-1}, f_{n-2}, ..., f_1), whose n spectral bins are
  the n cosine modes (Makhoul, IEEE Trans. ASSP 28, 1980), at O(n log n)
  per row.

_basis builds every pair from the same elementwise expressions, so the
K-mode pair is bit for bit the first K columns of the dense basis and
the first K rows of the dense forward matrix.  The forward matrix keeps
the Fortran order its expression leaves: the order decides how BLAS sums
a product, and a C-ordered copy changed the dense spectrum on every
draw.  Small grids keep all n modes: cutting their pair to the modes
whose factors are nonzero moved bytes in 235 of 238 draws that kept 1
to 3 modes (in none of 2762 that kept more; n from 8 to 255).

No wide flow forms the n x n matrices.  On the sweep base at n = 1024
(d = 1) the step's flow over dt = 0.005 keeps 28 modes and the flow over
tau_a = 0.5 keeps 3 (84 and 9 of their factors are at least
HEAT_DECAY_FLOOR), so a plain wide step runs on K-mode products only.
Only wide grids read K: smaller ones and the FFT path keep every mode,
so no grid below FFT_MIN_N points moves a bit with the rule for K.

The path is resolved where a flow is planned, not where it runs.
_heat_flow turns a decay into a read-only _HeatFlow: the path, K, the
K-mode pair from _basis and the factors of the first K modes as one
contiguous (r, K, 1) block.  heat_apply's cache keeps one plan per
(d, t, grid), and the integrator's step plan keeps those of the step's
flow and of the delays' kernels, so a call of _HeatFlow.apply makes no
cache lookup, counts no K and slices no decay.  apply writes into a
caller's out and spectrum buffers when given them: the step writes its
flow straight into the history's ring slot.  A plan is shared through
its cache, so it holds no scratch.  The plan reads FFT_MIN_N and
BAND_MAX_MODES when it is built; a cached plan keeps the path it took.

Stacks keep the bits of single rows.  On small grids a product's cost is
numpy's fixed cost per call, so a stack of r fields goes through one call
rather than r, and it must give each row's bytes exactly.  Two stacked
forms do: np.matmul(M, X[..., None]) runs the same BLAS matrix-vector
product (gemv) per row as M.dot(x), whatever the stack's leading shape
and whether or not it writes into an out array, and
np.matmul(R[:, None, :], w[:, None]) the same dot product per row as
float(w @ r).  Two forms do
not: a matrix-matrix product (gemm) such as M.dot(X.T), and R @ w, a
single gemv over the whole stack, both sum in another order, and they
differed from the per-row values on nearly every draw.  Never batch the
matrix products that way: every output byte would move.  (numpy
2.4.6, one OpenBLAS thread, 50 random draws for each n from 8 to 255.)
On the FFT path a batched rfft or irfft equals per-row calls, so it
keeps its stacks.

FFT_MIN_N comes from timing the fused (3, n) heat flow of one step over
dt = 0.005 (d = 1, L = 1, decay floor applied) dense and through the FFT
at n = 64, 72, ..., 448 (2-core x86-64, numpy 2.4, one OpenBLAS thread,
best of 21 repeats).  The FFT's cost depends on the factors of n - 1.
When n - 1 has no prime factor above about 150 the FFT was level or
faster from n = 176 on (level at 136 and 184, slower at 144 and 160),
1.35-2.3x faster from n = 208 to 304, and 1.6-5.4x faster above.  When
n - 1 is prime, numpy.fft falls back to Bluestein's algorithm, and the
FFT stayed slower than dense up to n = 368 (2.1x slower at n = 264 and
272, level at 360 and 368).  At n = 256 the FFT took 37 us against
72 us dense, and at n = 1024 it was 19x faster (122 against 2365 us).
The constant stays at 256 although the smooth sizes from 208 on would
gain too: moving it moves the bytes of every grid in between, and no
shipped workload runs one.

BAND_MAX_MODES comes from timing the same fused (3, n) flow on the band
and the FFT path with K live modes, rounds interleaved, median of 9
(same machine and settings).  The band then ran an older form of the
same products, the n x K basis and its transpose with the weights
applied to the spectrum.  The K-mode pair is a little faster: at
n = 1024, 30.5 against 33.7 us for the step's (3, n) flow (K = 28) and
18.1 against 27.2 us for a block of 8 rows over tau_a (K = 3), best of
15.  Band time over FFT time, old form:

    n       K = 9    32    64    96   128   160   192
    256        0.33  0.47  0.63  0.90  0.78  1.25  1.46
    264        0.08  0.09  0.14  0.15  0.22  0.25  0.30
    512        0.21  0.24  0.46  0.65  0.82  0.90  1.16
    1024       0.22  0.26  0.48  0.68  0.88  1.12  1.58
    2048       0.11  0.17  0.31  0.56  0.95  1.32  1.67

The band was faster up to K = 128 on every grid and crossed over
between K = 128 and 192 wherever n - 1 is smooth; one (1, n) row gave
the same picture.  With a prime n - 1 (n = 264) the band stays well
ahead, so Bluestein's slowdown now costs only flows of more than
BAND_MAX_MODES live modes, where the FFT path still runs it.  Grids of
256 to about 370 points with a prime n - 1 are better served by a
neighbouring n only for such flows.

Subnormal floor: exp(-d t lam_k) passes through the subnormal range
(below 2.2e-308) on its way to zero, and so do its products with the
spectrum.  Subnormal operands are slow on x86-64, and the FFT's
butterflies carry a subnormal bin through every stage.  On the shipped
workloads the factor itself is subnormal for k = 120-122 of the step's
flow over dt = 0.005 at n = 1024, k = 38 of the flow over dt = 0.05 at
n = 64, and k = 12 of the flow over tau_a = 0.5 on every grid of more
than 12 points; its products with a spectrum go subnormal from lower
modes still.
_heat_decay therefore sets every factor below HEAT_DECAY_FLOOR = 1e-150
to exactly 0.0 (k >= 84 of the dt = 0.005 flow, k >= 9 of the tau_a
flow).  That moves no bit of any result: a dropped term is below 1e-150
of its mode's coefficient, so it could reach the last bit of a grid
value only if that value were some 1e-134 of the field's scale, more
than 100 orders of magnitude below anything the model holds (certifying
runs keep states above 1e-10 of the box ceiling).  Every sum the term
would have entered rounds to the same double, and the tests hold
heat_apply, step and kernel_mass_defect bit for bit against unfloored
factors, on both paths.  The floor does not set the band, and the
factors below it are far too small to move K, so _heat_flow picks the
same band from a raw decay as from its floored form.  On the sweep base
at n = 1024 (dt = 0.005, tau_a = 0.5) the subnormals cost about a third
of an FFT-path step: step took 285 us with the floor against 412 us
without, median of 60 interleaved repeats, faster in 58 of them,
identical states.

Truncation caveat: the n-term kernel series is not pointwise positive
at small times.  A unit spike at mid-grid diffused for min_resolvable_time
dips to about -3e-3 at n = 8 and n = 48, and for three times that to
-9e-3 at n = 8 and -4e-5 at n = 48.  kernel_matrix refuses times below
min_resolvable_time, where the series cannot represent the near-delta
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Domain

__all__ = [
    "gradient_energy",
    "heat_apply",
    "kernel_mass_defect",
    "kernel_matrix",
    "min_resolvable_time",
    "to_modal",
]

# Below d * t = KERNEL_TIME_FLOOR_FACTOR * (L / pi)^2 the kernel is too
# close to a delta for the n grid modes to resolve.
KERNEL_TIME_FLOOR_FACTOR = 1e-3

# Grids of at least this many points run the heat flow through numpy.fft;
# smaller ones use the dense transform matrices (see the module docstring).
FFT_MIN_N = 256

# Heat factors below this are set to exactly 0.0: far above the subnormal
# range, and far below any half-ulp the flow can move (module docstring).
HEAT_DECAY_FLOOR = 1e-150

# The band leaves out the modes whose factors, doubled, sum to at most
# this, half an ulp of 1: together they move no grid value by more than
# this fraction of sup |f| (module docstring).
BAND_TAIL_BOUND = 2.0**-53

# On grids of FFT_MIN_N points or more, a flow with at most this many live
# modes runs as two products with the pair of its first K cosine modes
# rather than through numpy.fft (module docstring).
BAND_MAX_MODES = 128


@dataclass(frozen=True)
class _Operators:
    """Precomputed transform matrices for one domain."""

    cos: np.ndarray      # cos(k pi x_j / L), (n, n)
    fwd: np.ndarray      # forward transform matrix, (n, n)
    dcos: np.ndarray     # d/dx of the basis columns, (n, n)
    weight: np.ndarray   # per-mode series weights c_k / L, (n,)


@lru_cache(maxsize=32)
def _eigenvalues(domain: Domain) -> np.ndarray:
    """Laplacian eigenvalues (k pi / L)^2 of the n cosine modes, read-only."""
    lam = (np.arange(domain.n) * math.pi / domain.L) ** 2
    lam.flags.writeable = False
    return lam


@lru_cache(maxsize=32)
def _basis(domain: Domain, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The transform pair of the first K = modes cosine modes, read-only.

    Returns the forward (K, n) matrix, which maps a grid field to its
    first K cosine coefficients, and the inverse (n, K) basis
    cos(k pi x_j / L).  Any K gives bit for bit the first K rows and
    columns of the dense pair, and the forward matrix stays in the
    Fortran order its expression leaves (module docstring).
    """
    n = domain.n
    freq = np.arange(n) * math.pi / domain.L
    cos = np.cos(np.outer(domain.grid, freq[:modes]))
    # Discrete orthogonality weight c_k: 2 everywhere except mode 0 and the
    # top mode, where the closed grid sums cos^2 to the full mass rather
    # than half of it.
    c = np.full(n, 2.0)
    c[0] = c[-1] = 1.0
    eps = np.full(n, 1.0)
    eps[0] = eps[-1] = 0.5
    fwd = (c / (n - 1))[:modes, None] * (cos.T * eps[None, :])
    for a in (fwd, cos):
        a.flags.writeable = False
    return fwd, cos


@lru_cache(maxsize=32)
def _operators(domain: Domain) -> _Operators:
    n, L = domain.n, domain.L
    fwd, cos = _basis(domain, n)
    freq = np.arange(n) * math.pi / L
    dcos = -np.sin(np.outer(domain.grid, freq)) * freq[None, :]
    weight = np.full(n, 2.0 / L)  # c_k / L, with the c_k of _basis
    weight[0] = weight[-1] = 1.0 / L
    return _Operators(cos=cos, fwd=fwd, dcos=dcos, weight=weight)


def _check_field(f: np.ndarray, domain: Domain) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (domain.n,):
        raise ValueError(f"field has shape {f.shape}, expected ({domain.n},)")
    return f


def to_modal(f: np.ndarray, domain: Domain) -> np.ndarray:
    """Cosine coefficients a_k of a grid field, k = 0 .. n - 1.

    Coefficient 0 is exactly the trapezoid spatial mean of f, and the
    cosine series sum_k a_k cos(k pi x / L) gives f back on the grid to
    roundoff.
    """
    return _operators(domain).fwd.dot(_check_field(f, domain))


def _heat_decay(d: float, t: float | np.ndarray, domain: Domain) -> np.ndarray:
    """Per-mode factors exp(-d t lam_k) of the heat flow, k = 0 .. n - 1.

    Every heat factor comes from here.  t is a time or an array of times,
    which gains a trailing mode axis.  Factors below HEAT_DECAY_FLOOR are
    exactly 0.0, so no transform carries a subnormal (see the module
    docstring).
    """
    decay = np.exp(-d * t * _eigenvalues(domain))
    decay[decay < HEAT_DECAY_FLOOR] = 0.0
    return decay


def _live_modes(decay: np.ndarray) -> int:
    """K, the number of leading cosine modes the band keeps.

    K is the smallest count with 2 sum_{k >= K} decay_k <= BAND_TAIL_BOUND:
    every cosine coefficient is at most 2 sup |f|, so the modes from K on
    move no grid value by more than BAND_TAIL_BOUND sup |f| (module
    docstring).  An (r, n) decay gives the largest K over its rows.  The
    factors below HEAT_DECAY_FLOOR sum to far less than an ulp of the
    bound, so a raw, unfloored decay gives the K of its floored form.
    Only grids of FFT_MIN_N points or more read K; smaller grids and the
    FFT path keep every mode.
    """
    # Summed from the top mode down, so the tails fall with k exactly.
    tail = np.cumsum(decay[..., ::-1], axis=-1)[..., ::-1]
    return int(np.count_nonzero(2.0 * tail > BAND_TAIL_BOUND, axis=-1).max())


@dataclass(frozen=True)
class _HeatFlow:
    """A heat flow resolved once into its path, K, pair and factors, read-only.

    On the matrix path fwd and cos are the K-mode pair from _basis, K = n
    on grids below FFT_MIN_N and the band's live modes above.  On the FFT
    path both are None and K = n.  decay holds the factors of the first K
    modes as a contiguous (r, K, 1) block: one row per field of an
    (..., r, n) stack, or a single row for any stack.  A plan is shared
    through the caches that build it, so it holds no scratch.
    """

    modes: int
    fwd: np.ndarray | None   # (K, n)
    cos: np.ndarray | None   # (n, K)
    decay: np.ndarray        # (r, K, 1)

    def apply(
        self, rows: np.ndarray, out: np.ndarray | None = None, spec: np.ndarray | None = None
    ) -> np.ndarray:
        """Scales the cosine modes of each grid field in rows by its decay.

        rows is an (..., r, n) stack of grid fields, r the rows of decay,
        or any (..., m, n) stack when decay has a single row; each field's
        flow has the bytes of its own call (module docstring).  The result
        has the shape of rows.  out, when given, receives it: the matrix path
        writes its second product straight into out, the FFT path copies
        its inverse transform once.  spec, when given, holds the matrix
        path's (..., r, K, 1) spectrum, so the call allocates no array.
        """
        if self.fwd is None:
            n = rows.shape[-1]
            spectrum = np.fft.rfft(np.concatenate((rows, rows[..., -2:0:-1]), axis=-1), axis=-1)
            spectrum *= self.decay[..., 0]
            flow = np.fft.irfft(spectrum, 2 * (n - 1), axis=-1)[..., :n]
            if out is None:
                return flow
            out[...] = flow
            return out
        # A stacked matrix-vector product equals the per-row ndarray.dot,
        # bit for bit (module docstring), in one call for every row.
        spec = np.matmul(self.fwd, rows[..., None], out=spec)
        spec *= self.decay
        if out is None:
            return np.matmul(self.cos, spec)[..., 0]
        np.matmul(self.cos, spec, out=out[..., None])
        return out


def _heat_flow(decay: np.ndarray, domain: Domain) -> _HeatFlow:
    """Resolves the flow with per-mode factors decay into a plan.

    decay is one (n,) vector for every field or an (r, n) array with a
    vector per field.  A grid below FFT_MIN_N points, or a wider one whose
    band keeps K (see _live_modes) at most BAND_MAX_MODES modes, takes the
    matrix path with the pair of its first K modes, K = n on the small
    grid.  Any other flow takes the FFT path.
    """
    n = domain.n
    modes = n if n < FFT_MIN_N else _live_modes(decay)
    if n < FFT_MIN_N or modes <= BAND_MAX_MODES:
        fwd, cos = _basis(domain, modes)
    else:
        modes, fwd, cos = n, None, None
    block = np.array(np.reshape(decay, (-1, n))[:, :modes, None])
    block.flags.writeable = False
    return _HeatFlow(modes, fwd, cos, block)


@lru_cache(maxsize=64)
def _cached_heat_flow(d: float, t: float, domain: Domain) -> _HeatFlow:
    """The plan of the heat flow over d t, one decay row for every field."""
    return _heat_flow(_heat_decay(d, t, domain), domain)


def heat_apply(f: np.ndarray, d: float, t: float, domain: Domain) -> np.ndarray:
    """Applies the Neumann heat semigroup exp(d t Laplacian) to f.

    Diagonal in the cosine basis: mode k picks up exp(-d t lam_k), so the
    semigroup property in time is exact and constants are fixed points for
    every t.  t = 0 returns f unchanged.  The flow for each (d, t,
    domain) is planned once and kept read-only, so a repeated flow, one
    delay's smoothing at every certifying step, computes no exp and
    resolves no path.

    Args:
        f: Grid field of length n, or an (r, n) stack of fields, each of
            which is diffused as if passed alone.
        d: Diffusivity, positive.
        t: Elapsed time, nonnegative.

    Returns:
        The diffused grid field or fields, shaped like f.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != domain.n:
        raise ValueError(
            f"field has shape {f.shape}, expected ({domain.n},) or (r, {domain.n})"
        )
    if not (math.isfinite(d) and d > 0.0):
        raise ValueError(f"diffusivity must be positive and finite, got {d!r}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be nonnegative and finite, got {t!r}")
    if t == 0.0:
        return f.copy()
    out = _cached_heat_flow(float(d), float(t), domain).apply(f if f.ndim == 2 else f[None, :])
    return out if f.ndim == 2 else out[0]


def min_resolvable_time(d: float, domain: Domain) -> float:
    """Smallest kernel time the n-term series resolves, for diffusivity d."""
    return KERNEL_TIME_FLOOR_FACTOR * (domain.L / math.pi) ** 2 / d


def kernel_matrix(d: float, t: float, domain: Domain) -> np.ndarray:
    """Heat kernel Gamma(d t, x_i, y_j) with y-quadrature weights folded in.

    Row i approximates the integral operator: (K f)_i ~ integral of
    Gamma(d t, x_i, y) f(y) dy.  By construction K f equals
    heat_apply(f, d, t) to roundoff, every row sums to one exactly (unit
    mass), and K(t1) K(t2) = K(t1 + t2).  Dividing out the weights leaves
    a symmetric matrix.  No run builds it: it is the dense oracle that
    the tests hold heat_apply and the delay dissipation terms against.

    Raises:
        ValueError: if t is below min_resolvable_time(d, domain), where
            the n-term series cannot represent the kernel pointwise.
    """
    if not (math.isfinite(d) and d > 0.0):
        raise ValueError(f"diffusivity must be positive and finite, got {d!r}")
    floor = min_resolvable_time(d, domain)
    if not (math.isfinite(t) and t >= floor):
        raise ValueError(
            f"kernel time t={t!r} below the minimal resolvable time {floor!r} "
            f"for d={d!r}; increase t"
        )
    ops = _operators(domain)
    decay = ops.weight * _heat_decay(d, t, domain)
    gamma = (ops.cos * decay[None, :]) @ ops.cos.T
    return gamma * domain.trapezoid_weights[None, :]


def kernel_mass_defect(d: float, times: np.ndarray, domain: Domain) -> float:
    """Worst column-mass defect max_t ||w^T K(t) - w||_inf / ||w||_inf.

    K(t) is kernel_matrix(d, t, domain) and w the trapezoid weights;
    w^T K = w says the kernel integrates to one in its first argument,
    which lets a double integral of Gamma(x, y) f(y) collapse to the
    plain integral of f.  Evaluated in the cosine basis as
    w * (cos @ (c * decay)) with c = cos^T w, so no n x n matrix is
    formed.  An empty set of times has no defect.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return 0.0
    ops, w = _operators(domain), domain.trapezoid_weights
    decay = ops.weight * _heat_decay(d, times[:, None], domain)
    col = w * ((decay * (ops.cos.T @ w)) @ ops.cos.T)
    return float(np.abs(col - w).max() / w.max())


def gradient_energy(f: np.ndarray, domain: Domain) -> float | np.ndarray:
    """Trapezoid value of the relative Fisher-type integral of |grad f|^2 / f^2.

    Differentiates the cosine interpolant of f, so the derivative of the
    interpolant is exact and the trapezoid rule on the smooth even
    extension converges spectrally.  f is one grid field, which gives a
    float, or an (r, n) stack, which gives r values in one pass, each bit
    for bit the value of its row passed alone.

    Raises:
        ValueError: if f is not strictly positive everywhere.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != domain.n:
        raise ValueError(
            f"field has shape {f.shape}, expected ({domain.n},) or (r, {domain.n})"
        )
    if not f.min() > 0.0:  # a NaN fails too
        raise ValueError(
            f"gradient_energy requires a strictly positive field, min is {f.min():.6g}"
        )
    ops = _operators(domain)
    rows = f if f.ndim == 2 else f[None, :]
    ratio = np.matmul(ops.dcos, np.matmul(ops.fwd, rows[:, :, None]))[:, :, 0]
    ratio /= rows
    ratio *= ratio
    energy = np.matmul(ratio[:, None, :], domain.trapezoid_weights[:, None]).ravel()
    return energy if f.ndim == 2 else float(energy[0])
