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
2/L for every mode except the top one (k = n - 1, when all modes are
retained), where the grid sees cos^2 with weight 1/L instead of 2/L.
With that single weight adjusted, the transform pair inverts exactly,
constants are exact fixed points of the semigroup, mode 0 equals the
trapezoid mean (mass conservation becomes an identity), and the
assembled kernel matrix reproduces heat_apply to roundoff at every t.

The heat flow is one transform pair, shared by heat_apply and the
integrator's step: forward to the cosine basis, scale mode k by its
decay, back to the grid.  That pair is exactly the DCT-I, so on grids of
FFT_MIN_N points or more it runs as irfft(rfft(e) * decay) of the even
extension e = (f_0, ..., f_{n-1}, f_{n-2}, ..., f_1), with the modes
from N on set to zero (Makhoul, IEEE Trans. ASSP 28, 1980).  That costs
O(n log n) per row and never forms the n x n matrices.  Below FFT_MIN_N
the dense matrix-vector products, one row at a time, are faster.  The
two paths agree to about 1e-14 of sup |f|.

FFT_MIN_N comes from timing the fused (3, n) heat flow of one step both
ways at n = 64, 72, ..., 448 (2-core x86-64, numpy 2.4, one OpenBLAS
thread, best of 21 repeats).  The FFT's cost depends on the factors of
n - 1.  When n - 1 has no prime factor above about 150 the FFT was
faster from n = 136 on, and 2-3x faster from n = 208 on.  When n - 1 is
prime, numpy.fft falls back to Bluestein's algorithm, and the FFT stayed
slower up to n = 312 (about 3x slower at n = 264 and 272).  From 256 on
the FFT was faster on every size with a smooth n - 1, and at n = 1024 it
was 13x faster; grids of 256 to about 360 points with a prime n - 1
are better served by a neighbouring n.

Truncation caveat: the spectrally truncated kernel is not pointwise
positive for very small times.  Applying the semigroup to a nonnegative
field can undershoot zero by about 1e-9 of its sup for rough data;
kernel_matrix additionally refuses times below min_resolvable_time,
where the truncated series cannot represent the near-delta kernel.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
    "to_grid",
    "to_modal",
]

# Below d * t = KERNEL_TIME_FLOOR_FACTOR * (L / pi)^2 the truncated series
# is too close to a delta for the retained modes to resolve.
KERNEL_TIME_FLOOR_FACTOR = 1e-3

# Grids of at least this many points run the heat flow through numpy.fft;
# smaller ones use the dense transform matrices (see the module docstring).
FFT_MIN_N = 256


@dataclass(frozen=True)
class _Operators:
    """Precomputed grid and transform matrices for one domain."""

    x: np.ndarray        # grid points, (n,)
    w: np.ndarray        # trapezoid weights, (n,)
    lam: np.ndarray      # Laplacian eigenvalues (k pi / L)^2, (N,)
    cos: np.ndarray      # cos(k pi x_j / L), (n, N)
    fwd: np.ndarray      # forward transform matrix, (N, n)
    dcos: np.ndarray     # d/dx of the basis columns, (n, N)
    weight: np.ndarray   # per-mode series weights c_k / L, (N,)


@lru_cache(maxsize=32)
def _eigenvalues(domain: Domain) -> np.ndarray:
    """Laplacian eigenvalues (k pi / L)^2 of the retained modes, read-only."""
    lam = (np.arange(domain.N) * math.pi / domain.L) ** 2
    lam.flags.writeable = False
    return lam


@lru_cache(maxsize=32)
def _operators(domain: Domain) -> _Operators:
    n, N, L = domain.n, domain.N, domain.L
    m = n - 1
    x = domain.grid
    w = domain.trapezoid_weights
    freq = np.arange(N) * math.pi / L
    lam = _eigenvalues(domain)
    cos = np.cos(np.outer(x, freq))
    # Discrete orthogonality weight: 2 everywhere except mode 0 and, when
    # all n modes are retained, the top mode, where the closed grid sums
    # cos^2 to the full mass rather than half of it.
    c = np.full(N, 2.0)
    c[0] = 1.0
    if N == n:
        c[-1] = 1.0
    eps = np.full(n, 1.0)
    eps[0] = eps[-1] = 0.5
    fwd = (c / m)[:, None] * (cos.T * eps[None, :])
    dcos = -np.sin(np.outer(x, freq)) * freq[None, :]
    return _Operators(x=x, w=w, lam=lam, cos=cos, fwd=fwd, dcos=dcos, weight=c / L)


def _check_field(f: np.ndarray, domain: Domain) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (domain.n,):
        raise ValueError(f"field has shape {f.shape}, expected ({domain.n},)")
    return f


def to_modal(f: np.ndarray, domain: Domain) -> np.ndarray:
    """Cosine coefficients a_k of a grid field, k = 0 .. N - 1.

    Coefficient 0 is exactly the trapezoid spatial mean of f.  For fields
    resolved by the retained modes, to_grid inverts this transform to
    roundoff.
    """
    ops = _operators(domain)
    return ops.fwd @ _check_field(f, domain)


def to_grid(a: np.ndarray, domain: Domain) -> np.ndarray:
    """Evaluates sum_k a_k cos(k pi x / L) on the grid."""
    a = np.asarray(a, dtype=float)
    ops = _operators(domain)
    if a.shape != (domain.N,):
        raise ValueError(f"modal vector has shape {a.shape}, expected ({domain.N},)")
    return ops.cos @ a


def _heat_decay(d: float, t: float, domain: Domain) -> np.ndarray:
    """Per-mode factors exp(-d t lam_k) of the heat flow, k = 0 .. N - 1."""
    return np.exp(-d * t * _eigenvalues(domain))


def _heat_rows(
    rows: Sequence[np.ndarray], decay: np.ndarray, domain: Domain
) -> Sequence[np.ndarray]:
    """Scales the cosine modes of each grid field in rows by that row of decay, (r, N).

    The transform pair behind every heat flow: dense products row by row
    below FFT_MIN_N grid points, the DCT-I through rfft at and above it.
    rows is a sequence of r fields of length n; so is the result.
    """
    n, N = domain.n, domain.N
    if n < FFT_MIN_N:
        ops = _operators(domain)
        return [ops.cos @ (decay[i] * (ops.fwd @ row)) for i, row in enumerate(rows)]
    f = np.asarray(rows)
    spec = np.fft.rfft(np.concatenate((f, f[:, -2:0:-1]), axis=1), axis=1)
    spec[:, :N] *= decay
    spec[:, N:] = 0.0
    return np.fft.irfft(spec, 2 * (n - 1), axis=1)[:, :n]


def heat_apply(f: np.ndarray, d: float, t: float, domain: Domain) -> np.ndarray:
    """Applies the Neumann heat semigroup exp(d t Laplacian) to f.

    Diagonal in the cosine basis: mode k picks up exp(-d t lam_k), so the
    semigroup property in time is exact and constants are fixed points for
    every t.  t = 0 returns f unchanged.

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
    rows = f if f.ndim == 2 else f[None, :]
    decay = np.broadcast_to(_heat_decay(d, t, domain), (len(rows), domain.N))
    out = _heat_rows(rows, decay, domain)
    return np.asarray(out) if f.ndim == 2 else out[0]


def min_resolvable_time(d: float, domain: Domain) -> float:
    """Smallest kernel time the truncated series resolves, for diffusivity d."""
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
            the truncated series cannot represent the kernel pointwise.
    """
    if not (math.isfinite(d) and d > 0.0):
        raise ValueError(f"diffusivity must be positive and finite, got {d!r}")
    floor = min_resolvable_time(d, domain)
    if not (math.isfinite(t) and t >= floor):
        raise ValueError(
            f"kernel time t={t!r} below the minimal resolvable time {floor!r} "
            f"for d={d!r}; increase t or the mode count"
        )
    ops = _operators(domain)
    decay = ops.weight * _heat_decay(d, t, domain)
    gamma = (ops.cos * decay[None, :]) @ ops.cos.T
    return gamma * ops.w[None, :]


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
    ops = _operators(domain)
    decay = ops.weight * np.exp(-d * times[:, None] * ops.lam[None, :])
    col = ops.w * ((decay * (ops.cos.T @ ops.w)) @ ops.cos.T)
    return float(np.abs(col - ops.w).max() / ops.w.max())


def gradient_energy(f: np.ndarray, domain: Domain) -> float:
    """Trapezoid value of the relative Fisher-type integral of |grad f|^2 / f^2.

    Differentiates the cosine interpolant of f, so for fields resolved by
    the retained modes the derivative is exact and the trapezoid rule on
    the smooth even extension converges spectrally.

    Raises:
        ValueError: if f is not strictly positive everywhere.
    """
    f = _check_field(f, domain)
    if f.min() <= 0.0:
        raise ValueError(
            f"gradient_energy requires a strictly positive field, min is {f.min():.6g}"
        )
    ops = _operators(domain)
    df = ops.dcos @ (ops.fwd @ f)
    ratio = df / f
    return float(ops.w @ (ratio * ratio))
