"""Reference values computed with plain numpy, apart from the program.

Nothing here imports prstab.  The split oracle enumerates every
complementary pair of row subsets and takes smallest eigenvalues with
`np.linalg.eigvalsh`; the floors and closed forms are the paper's formulas
written out again.
"""

from __future__ import annotations

import numpy as np

BETA0_REAL = float(np.sqrt(np.pi / (np.pi - 2)))
BETA0_COMPLEX = float(np.sqrt(4.0 / (4.0 - np.pi)))
ORACLE_CHUNK = 1 << 15


def beta0(complex_field: bool) -> float:
    """Universal condition-number floor of the field."""
    return BETA0_COMPLEX if complex_field else BETA0_REAL


def md_floor(m: int) -> float:
    """Floor 1/sqrt(1 - 1/(m sin(pi/2m))) on beta of every real m-row matrix."""
    return float(1.0 / np.sqrt(1.0 - 1.0 / (m * np.sin(np.pi / (2 * m)))))


def harmonic_beta(m: int) -> float:
    """Condition number of the equidistant frame E_m, by the parity of m."""
    if m % 2 == 0:
        return float(1.0 / np.sqrt(1.0 - 2.0 / (m * np.sin(np.pi / m))))
    return md_floor(m)


def harmonic_rows(m: int) -> np.ndarray:
    """E_m: m unit rows at angles j*pi/m."""
    ang = np.arange(m) * np.pi / m
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def abs_sine_sum(m: int, theta: np.ndarray) -> np.ndarray:
    """sum_j |sin(2j*pi/m + 2*theta)| by direct summation."""
    j = np.arange(m)
    return np.abs(np.sin(2 * j * np.pi / m + 2 * np.asarray(theta)[..., None])).sum(axis=-1)


def abs_sine_sum_grid_max(m: int, points: int = 20001) -> float:
    """Dense-grid maximum of `abs_sine_sum` over one period pi/m."""
    return float(abs_sine_sum(m, np.linspace(0.0, np.pi / m, points)).max())


def real_kernel(t: float) -> float:
    """E|<y,a><a,x>| for real unit x, y at angle t in [0, pi/2]."""
    return float((2 / np.pi) * (np.sin(t) + (np.pi / 2 - t) * np.cos(t)))


def _lambda_min(G: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(G)[..., 0]


def split_value_sq(A: np.ndarray, subset) -> float:
    """lambda_min(G_I) + lambda_min(G_{I^c}) for one subset I; an empty side gives 0."""
    A = np.asarray(A, dtype=float)
    inside = np.zeros(A.shape[0], dtype=bool)
    inside[list(subset)] = True
    total = 0.0
    for rows in (A[inside], A[~inside]):
        if len(rows):
            total += float(_lambda_min(rows.T @ rows))
    return total


def lower_exact(A: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exact lower Lipschitz constant of a real matrix by brute force.

    Returns sqrt(min over splits of lambda_min(G_I) + lambda_min(G_{I^c}))
    and a minimizing subset.  Subsets of the first m-1 rows stand for the
    2^(m-1) complementary pairs.
    """
    A = np.asarray(A, dtype=float)
    m, d = A.shape
    outer = np.einsum("mi,mj->mij", A, A).reshape(m, d * d)
    total = outer.sum(axis=0)
    nrep = 1 << (m - 1)
    shifts = np.arange(m - 1)
    best_val, best_mask = np.inf, 0
    for lo in range(0, nrep, ORACLE_CHUNK):
        masks = np.arange(lo, min(lo + ORACLE_CHUNK, nrep))
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(float)
        g_in = bits @ outer[: m - 1]
        vals = _lambda_min(g_in.reshape(-1, d, d)) + _lambda_min(
            (total[None, :] - g_in).reshape(-1, d, d)
        )
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best_mask = float(vals[k]), int(masks[k])
    subset = tuple(i for i in range(m - 1) if (best_mask >> i) & 1)
    return float(np.sqrt(max(best_val, 0.0))), subset


def beta_exact(A: np.ndarray) -> float:
    """Exact condition number ||A||_2 / L of a real matrix by brute force."""
    lower, _ = lower_exact(A)
    upper = float(np.linalg.norm(A, 2))
    return upper / lower if lower > 0 else float("inf")


def frame_from_polar(radii, angles) -> np.ndarray:
    """Rows r_i (cos f_i, sin f_i) of a real m x 2 frame."""
    radii = np.asarray(radii, dtype=float)
    angles = np.asarray(angles, dtype=float)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


def pair_dist(x: np.ndarray, y: np.ndarray) -> float:
    """min over unimodular c of ||x - c y||, via ||x||^2 + ||y||^2 - 2|<x, y>|."""
    sq = np.vdot(x, x).real + np.vdot(y, y).real - 2 * abs(np.vdot(x, y))
    return float(np.sqrt(max(sq, 0.0)))


def pair_ratio(A: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """|| |Ax| - |Ay| || / dist(x, y) for one pair of signals."""
    return float(np.linalg.norm(np.abs(A @ x) - np.abs(A @ y)) / pair_dist(x, y))
