"""Field-generic dense linear algebra for small measurement matrices.

Matrices are plain numpy arrays of shape (m, d); the scalar field is carried
by the dtype (float64 for the real field, complex128 for the complex field).
Row i of a matrix is the i-th measurement functional, i.e. the map applies as
``A @ x`` and the i-th magnitude is ``abs((A @ x)[i])``.  Hermitian
eigenproblems go through LAPACK (``numpy.linalg.eigvalsh``/``eigh``); a
batched 2x2 closed form scores row splits and frames in bulk.
"""

from __future__ import annotations

import enum

import numpy as np

# Largest accepted sum |a_ij|^2.  That sum bounds every Gram entry and every
# |Ax|^2 for a unit x; the eigenvalue closed forms and the pair-ratio kernel
# square such values and add a few of them, so it must stay well below the
# square root of the largest float.
GRAM_LIMIT = float(np.sqrt(np.finfo(np.float64).max)) / 4


class Field(enum.Enum):
    REAL = "real"
    COMPLEX = "complex"


class FieldMismatchError(ValueError):
    """Operands live over different scalar fields or dimensions."""


def field_of(a: np.ndarray) -> Field:
    return Field.COMPLEX if np.iscomplexobj(a) else Field.REAL


def as_matrix(rows, field: Field | None = None) -> np.ndarray:
    """Coerce to a 2-d measurement matrix, optionally forcing a field tag.

    Raises ValueError on a wrong shape, a non-finite entry, or entries whose
    sum of squared magnitudes exceeds GRAM_LIMIT.
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
    with np.errstate(over="ignore"):
        if not np.sum(np.abs(a) ** 2) <= GRAM_LIMIT:
            raise ValueError(
                f"matrix entries too large: sum of squared entries exceeds {GRAM_LIMIT:.3e}, "
                "so squared Gram entries would overflow"
            )
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


def eig_hermitian(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending (LAPACK via numpy)."""
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    return np.linalg.eigvalsh(H)


def eigh_with_vectors(H: np.ndarray):
    """Like `eig_hermitian` but also returns the eigenvector columns."""
    return np.linalg.eigh(H)


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value, computed as sqrt(lambda_max(gram(A)))."""
    w = eig_hermitian(gram(A))
    return float(np.sqrt(max(w[-1], 0.0)))


def top_right_singular_vector(A: np.ndarray) -> np.ndarray:
    """Unit vector x maximizing ||A x||; eigenvector of the Gram matrix."""
    w, V = eigh_with_vectors(gram(A))
    v = V[:, -1]
    return v / np.linalg.norm(v)


def eigvals_2x2_batch(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalues of many symmetric 2x2 matrices.

    `g` has rows (g00, g01, g11), the upper triangle row by row.  The
    eigenvalues are center -/+ radius; the smallest is clamped at 0 (the
    inputs are Gram matrices, hence PSD).
    """
    center = (g[..., 0] + g[..., 2]) / 2
    half = (g[..., 0] - g[..., 2]) / 2
    radius = np.sqrt(half * half + g[..., 1] ** 2)
    return np.maximum(center - radius, 0.0), center + radius
