"""Field-generic dense linear algebra for small measurement matrices.

Matrices are plain numpy arrays of shape (m, d); the scalar field is carried
by the dtype (float64 for the real field, complex128 for the complex field).
Row i of a matrix is the i-th measurement functional, i.e. the map applies as
``A @ x`` and the i-th magnitude is ``abs((A @ x)[i])``.
"""

from __future__ import annotations

import enum

import numpy as np

DEFAULT_EIG_TOL = 1e-12
JACOBI_SWEEP_FACTOR = 100  # iteration cap = 100 * d**2 sweeps


class Field(enum.Enum):
    REAL = "real"
    COMPLEX = "complex"


class FieldMismatchError(ValueError):
    """Operands live over different scalar fields or dimensions."""


class EigenConvergenceError(RuntimeError):
    """Jacobi iteration exhausted its sweep cap.

    Carries the remaining off-diagonal residual for diagnostics.
    """

    def __init__(self, residual: float, sweeps: int):
        super().__init__(
            f"eigensolver did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {residual:.3e})"
        )
        self.residual = residual
        self.sweeps = sweeps


def field_of(a: np.ndarray) -> Field:
    return Field.COMPLEX if np.iscomplexobj(a) else Field.REAL


def as_matrix(rows, field: Field | None = None) -> np.ndarray:
    """Coerce to a 2-d measurement matrix, optionally forcing a field tag.

    Raises ValueError on a wrong shape or a non-finite entry.
    """
    raw = np.asarray(rows)
    if field is Field.REAL and np.iscomplexobj(raw):
        raise FieldMismatchError("complex entries under a real field tag")
    dtype = np.complex128 if field is Field.COMPLEX else None
    a = np.asarray(raw, dtype=dtype)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected an m x d matrix with m, d >= 1, got shape {a.shape}")
    if not np.iscomplexobj(a):
        a = a.astype(np.float64)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (got nan or inf)")
    return a


def _check_pair(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise FieldMismatchError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if field_of(x) is not field_of(y):
        raise FieldMismatchError("mixed real/complex operands")


def gram(A: np.ndarray) -> np.ndarray:
    """Return the d x d Hermitian Gram matrix (sum of row outer products).

    Symmetrized after assembly so iterated constructions cannot drift.
    """
    H = A.conj().T @ A
    return (H + H.conj().T) / 2


def phaseless_map(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Componentwise magnitudes of the measurements, ``abs(A @ x)``."""
    x = np.asarray(x)
    if A.shape[1] != x.shape[0]:
        raise FieldMismatchError(f"matrix is {A.shape}, vector has length {x.shape[0]}")
    if field_of(x) is Field.COMPLEX and field_of(A) is Field.REAL:
        raise FieldMismatchError("complex vector applied to a real matrix")
    return np.abs(A @ x)


def dist(x: np.ndarray, y: np.ndarray) -> float:
    """Distance between signals modulo a global unimodular factor.

    Real field: min(||x - y||, ||x + y||).  Complex field: the minimizing
    phase is conj(<x, y>)/|<x, y>| in closed form (no phase search); the
    norm of x - c*y is then taken directly, which stays accurate when the
    distance is near zero, unlike expanding the square.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    _check_pair(x, y)
    if field_of(x) is Field.REAL:
        return float(min(np.linalg.norm(x - y), np.linalg.norm(x + y)))
    inner = np.vdot(x, y)
    c = np.conj(inner) / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(x - c * y))


def dist_batch(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Columnwise `dist` for (d, n) stacks of vectors."""
    if np.iscomplexobj(X) or np.iscomplexobj(Y):
        inner = np.sum(np.conj(X) * Y, axis=0)
        mag = np.abs(inner)
        c = np.where(mag > 0, np.conj(inner) / np.where(mag > 0, mag, 1.0), 1.0)
        return np.linalg.norm(X - c[None, :] * Y, axis=0)
    return np.minimum(np.linalg.norm(X - Y, axis=0), np.linalg.norm(X + Y, axis=0))


def _offdiag_norm(H: np.ndarray) -> float:
    off = H - np.diag(np.diag(H))
    return float(np.linalg.norm(off))


def _eigh_jacobi(H: np.ndarray, tol: float, want_vectors: bool):
    """Cyclic Jacobi diagonalization for a Hermitian matrix.

    Rotations carry a phase so the complex case reduces to the classical
    real plane rotation.  Converges unconditionally for Hermitian input.
    """
    d = H.shape[0]
    cplx = np.iscomplexobj(H)
    a = H.astype(np.complex128 if cplx else np.float64).copy()
    V = np.eye(d, dtype=a.dtype) if want_vectors else None
    scale = max(float(np.linalg.norm(H)), 1.0)
    max_sweeps = JACOBI_SWEEP_FACTOR * d * d
    for sweep in range(max_sweeps):
        if _offdiag_norm(a) <= tol * scale:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= tol * scale / (d * d):
                    continue
                phase = apq / abs(apq) if cplx else (1.0 if apq > 0 else -1.0)
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # columns p, q of the rotation: [c, s*conj(phase); -s*phase, c]
                col_p = a[:, p] * c - a[:, q] * s * np.conj(phase)
                col_q = a[:, p] * s * phase + a[:, q] * c
                a[:, p], a[:, q] = col_p, col_q
                row_p = a[p, :] * c - a[q, :] * s * phase
                row_q = a[p, :] * s * np.conj(phase) + a[q, :] * c
                a[p, :], a[q, :] = row_p, row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                if want_vectors:
                    vp = V[:, p] * c - V[:, q] * s * np.conj(phase)
                    vq = V[:, p] * s * phase + V[:, q] * c
                    V[:, p], V[:, q] = vp, vq
    else:
        raise EigenConvergenceError(_offdiag_norm(a), max_sweeps)
    w = np.real(np.diag(a))
    order = np.argsort(w, kind="stable")
    if want_vectors:
        return w[order], V[:, order]
    return w[order], None


def _eigh_small(H: np.ndarray, want_vectors: bool):
    """Closed forms for d <= 2."""
    d = H.shape[0]
    if d == 1:
        w = np.array([H[0, 0].real])
        return (w, np.ones((1, 1), dtype=H.dtype)) if want_vectors else (w, None)
    a = H[0, 0].real
    c = H[1, 1].real
    b = H[0, 1]
    half = (a - c) / 2
    rad = np.hypot(half, abs(b))
    mean = (a + c) / 2
    w = np.array([mean - rad, mean + rad])
    if not want_vectors:
        return w, None
    if abs(b) == 0.0:
        V = np.eye(2, dtype=H.dtype)
        if a > c:
            V = V[:, ::-1]
        return w, V
    # eigenvector for the larger eigenvalue, then its orthogonal complement
    v1 = np.array([b, w[1] - a], dtype=np.complex128 if np.iscomplexobj(H) else np.float64)
    v1 = v1 / np.linalg.norm(v1)
    v0 = np.array([-np.conj(v1[1]), np.conj(v1[0])], dtype=v1.dtype)
    V = np.stack([v0, v1], axis=1)
    return w, V


def eig_hermitian(H: np.ndarray, tol: float = DEFAULT_EIG_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Uses the quadratic closed form for d <= 2 and cyclic Jacobi sweeps for
    d >= 3.  `tol` bounds the final off-diagonal norm relative to ||H||_F.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] <= 2:
        return _eigh_small(H, want_vectors=False)[0]
    return _eigh_jacobi(H, tol, want_vectors=False)[0]


def eigh_with_vectors(H: np.ndarray, tol: float = DEFAULT_EIG_TOL):
    """Like `eig_hermitian` but also returns the eigenvector columns."""
    H = np.asarray(H)
    if H.shape[0] <= 2:
        return _eigh_small(H, want_vectors=True)
    return _eigh_jacobi(H, tol, want_vectors=True)


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value, computed as sqrt(lambda_max(gram(A)))."""
    w = eig_hermitian(gram(A))
    return float(np.sqrt(max(w[-1], 0.0)))


def top_right_singular_vector(A: np.ndarray) -> np.ndarray:
    """Unit vector x maximizing ||A x||; eigenvector of the Gram matrix."""
    w, V = eigh_with_vectors(gram(A))
    v = V[:, -1]
    return v / np.linalg.norm(v)


def lambda_min_2x2_batch(g: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of many symmetric 2x2 matrices.

    `g` has rows (g00, g01, g11); negatives from roundoff are clamped to 0
    (the inputs are Gram matrices, hence PSD).
    """
    half = (g[..., 0] - g[..., 2]) / 2
    rad = np.sqrt(np.maximum(half * half + g[..., 1] ** 2, 0.0))
    return np.maximum((g[..., 0] + g[..., 2]) / 2 - rad, 0.0)


def lambda_min_3x3_batch(g: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of many symmetric 3x3 matrices.

    `g` has rows (g00, g11, g22, g01, g02, g12); trigonometric solution of
    the characteristic cubic, clamped to [0, inf) for PSD inputs.
    """
    a, b, c = g[..., 0], g[..., 1], g[..., 2]
    de, f, h = g[..., 3], g[..., 4], g[..., 5]
    q = (a + b + c) / 3
    p2 = (a - q) ** 2 + (b - q) ** 2 + (c - q) ** 2 + 2 * (de**2 + f**2 + h**2)
    p = np.sqrt(np.maximum(p2 / 6, 0.0))
    safe = p > 0
    ps = np.where(safe, p, 1.0)
    ba, bb, bc = (a - q) / ps, (b - q) / ps, (c - q) / ps
    bd, bf, bh = de / ps, f / ps, h / ps
    detB = ba * (bb * bc - bh * bh) - bd * (bd * bc - bh * bf) + bf * (bd * bh - bb * bf)
    r = np.clip(detB / 2, -1.0, 1.0)
    phi = np.arccos(r) / 3
    lam = q + 2 * ps * np.cos(phi + 2 * np.pi / 3)
    return np.maximum(np.where(safe, lam, q), 0.0)
