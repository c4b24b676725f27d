"""Dense linear-algebra kernels used by every estimator.

All routines are pure functions on float64 numpy arrays and never mutate
their arguments, so they are safe to call from concurrent area estimators.
Importing the module runs numpy's and scipy's OpenBLAS on one thread.
"""

from __future__ import annotations

import ctypes
import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import DimensionMismatch, NotPositiveDefinite, RankDeficient

_EPS = np.finfo(float).eps

# (package, library glob in <site-packages>/<package>.libs, thread-count setter)
_OPENBLAS_POOLS = (
    (np, "libscipy_openblas64_*.so*", "scipy_openblas_set_num_threads64_"),
    (scipy, "libscipy_openblas-*.so*", "scipy_openblas_set_num_threads"),
)


def _pin_blas_threads():
    """Set every loaded OpenBLAS pool to one thread, unless the caller chose.

    The estimator's matrices are a few dozen rows at most; handing each
    product or factorisation to a second thread costs more than the
    arithmetic it saves. A set ``OPENBLAS_NUM_THREADS`` has already been
    applied by OpenBLAS itself, so the pools are then left alone.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS"):
        return
    pinned = False
    for package, pattern, setter in _OPENBLAS_POOLS:
        libs_dir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs_dir.glob(pattern)):
            fn = getattr(ctypes.CDLL(str(path)), setter, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)
                pinned = True
    if not pinned:
        logging.getLogger("dsie").debug("no OpenBLAS pool found; BLAS threading left as it is")


_pin_blas_threads()


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-D float64 array, rejecting NaN/Inf."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def as_vector(a, name="vector"):
    """Coerce to a finite 1-D float64 array, rejecting NaN/Inf."""
    v = np.asarray(a, dtype=float).reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return v


def as_covariance(p, dim: int) -> np.ndarray:
    """A covariance given as a scalar (times I_dim), a diagonal vector or a full matrix."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        return float(p) * np.eye(dim)
    return np.diag(p) if p.ndim == 1 else p


@dataclass(frozen=True)
class WlsResult:
    """Solution of a weighted least-squares problem.

    ``estimate`` has one entry per unknown; ``covariance`` is the
    (unknowns x unknowns) estimate covariance.
    """

    estimate: np.ndarray
    covariance: np.ndarray


def cholesky(a, name="matrix"):
    """Lower Cholesky factor of the symmetric ``a``; raises NotPositiveDefinite if it has none.

    This and the two kernels below call LAPACK directly: the per-step
    gains pass them matrices they built themselves, so numpy's and scipy's
    per-call argument handling is skipped.
    """
    if a.size == 0:
        return np.zeros(a.shape)
    factor, info = lapack.dpotrf(a, lower=1, clean=1)
    if info:
        raise NotPositiveDefinite(f"{name} is not positive definite")
    return factor


def cho_solve(factor, b):
    """Solve (L L') x = b for the lower Cholesky factor L = ``factor``."""
    x, _ = lapack.dpotrs(factor, b, lower=1)
    return x


def triangular_inverse(t, lower: bool):
    """Inverse of the nonsingular triangular ``t``."""
    if t.size == 0:
        return np.zeros(t.shape)
    inv, info = lapack.dtrtri(t, lower=int(lower))
    if info:
        raise np.linalg.LinAlgError("singular triangular matrix")
    return inv


def full_rank_inverse(rf, rows: int):
    """R^{-1} of the triangular QR factor ``rf`` of a ``rows``-row matrix.

    Raises RankDeficient when a diagonal entry of R is at or below
    max(rows, columns) * eps * max |diag R|.
    """
    p = rf.shape[1]
    diag = np.abs(np.diag(rf))
    tol = max(rows, p) * _EPS * (diag.max() if diag.size else 0.0)
    if diag.size == 0 or np.any(diag <= tol):
        bad = [int(i) for i in np.nonzero(diag <= tol)[0]]
        raise RankDeficient(
            f"H has column rank < {p}", rank=int(np.sum(diag > tol)), deficient_columns=bad
        )
    return triangular_inverse(rf, lower=False)


def whitened_qr(h, r):
    """Whiten H by the Cholesky factor L of R and QR-factor it.

    Returns (L, Q, R_qr^{-1}, covariance), where covariance = (H'R^{-1}H)^{-1}.
    """
    q, p = h.shape
    if r.shape != (q, q):
        raise DimensionMismatch(f"R must be {q}x{q}, got {r.shape}")
    if q < p:
        raise RankDeficient(f"underdetermined system: {q} rows < {p} unknowns", rank=q)
    l = cholesky(r, "R")
    qf, rf = np.linalg.qr(sla.solve_triangular(l, h, lower=True))
    rinv = full_rank_inverse(rf, q)
    covariance = rinv @ rinv.T
    return l, qf, rinv, 0.5 * (covariance + covariance.T)


def wls_solve(h, r, z) -> WlsResult:
    """Solve min_x (z - Hx)' R^{-1} (z - Hx) for x and its covariance.

    Internally whitens by the Cholesky factor of R and solves the stacked
    system by QR, which is better conditioned than forming the normal
    equations. The result still satisfies
    estimate = (H'R^{-1}H)^{-1} H'R^{-1} z and covariance = (H'R^{-1}H)^{-1}.
    """
    h = as_matrix(h, "H")
    z = as_vector(z, "z")
    if z.shape[0] != h.shape[0]:
        raise DimensionMismatch(f"z must have length {h.shape[0]}, got {z.shape[0]}")
    l, qf, rinv, covariance = whitened_qr(h, as_matrix(r, "R"))
    estimate = rinv @ (qf.T @ sla.solve_triangular(l, z, lower=True))
    return WlsResult(estimate=estimate, covariance=covariance)


def mahalanobis(r, s) -> float:
    """Return sqrt(r' S^{-1} r) via a Cholesky solve.

    S is symmetrized before factorization; a failed factorization raises
    NotPositiveDefinite.
    """
    r = as_vector(r, "r")
    s = as_matrix(s, "S")
    if s.shape != (r.shape[0], r.shape[0]):
        raise DimensionMismatch(f"S must be {r.shape[0]}x{r.shape[0]}, got {s.shape}")
    if r.size == 0:
        return 0.0
    s = 0.5 * (s + s.T)
    try:
        factor = sla.cho_factor(s, lower=True)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("S is not positive definite") from None
    y = sla.cho_solve(factor, r)
    return float(np.sqrt(max(float(r @ y), 0.0)))


def discretize_zoh(a, b, t_s):
    """Exact zero-order-hold discretization of dx/dt = Ax + Bu.

    Computes the matrix exponential of the augmented [[A, B], [0, 0]]
    block at t_s (scaling-and-squaring Pade via scipy) and reads the
    discrete state and input matrices from the top blocks.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"A must be square, got {a.shape}")
    if b.shape[0] != n:
        raise DimensionMismatch(f"B must have {n} rows, got {b.shape}")
    if not (np.isscalar(t_s) or np.ndim(t_s) == 0) or not t_s > 0:
        raise ValueError(f"t_s must be a positive scalar, got {t_s!r}")
    m = b.shape[1]
    if m == 0:
        return sla.expm(a * float(t_s)), np.zeros((n, 0))
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = b
    e = sla.expm(aug * float(t_s))
    return e[:n, :n], e[:n, n:]


def symmetrize_psd(p) -> np.ndarray:
    """Symmetrize P and clamp negative eigenvalues to zero if needed.

    The eigen-decomposition route is only taken when a Cholesky probe of
    the symmetrized matrix fails; otherwise the symmetrized matrix is
    returned unchanged.
    """
    p = as_matrix(p, "P")
    if p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"P must be square, got {p.shape}")
    s = 0.5 * (p + p.T)
    if s.shape[0] == 0:
        return s
    try:
        np.linalg.cholesky(s)
        return s
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(s)
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.T
    return 0.5 * (out + out.T)


def clamp_eigenvalues(s, floor) -> np.ndarray:
    """Symmetrize S and raise eigenvalues below ``floor`` up to it."""
    s = 0.5 * (s + s.T)
    w, v = np.linalg.eigh(s)
    w = np.maximum(w, floor)
    out = (v * w) @ v.T
    return 0.5 * (out + out.T)
