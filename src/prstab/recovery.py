"""Least-squares recovery from noisy magnitude measurements.

Solves min_x || |Ax| - b ||_2 by alternating phase updates with linear least
squares, multi-started and seeded from a spectral initializer.
The residual certificate (residual <= ||noise||) marks runs where the global-
minimizer error bound applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import sample_gaussian_matrix, stream_rng
from .linalg import Field, dist, eigh_with_vectors, field_of, phaseless_map
from .stability import universal_lower_bound

DELTA_CEILING = 0.05


class ConditioningError(RuntimeError):
    """The least-squares step met a rank-deficient system."""

    def __init__(self, iteration: int):
        super().__init__(f"rank-deficient least-squares system at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class RecoveryProblem:
    """Measurements b observed as |A x0| + eta (x0, eta optional for scoring)."""

    matrix: np.ndarray
    b: np.ndarray
    x0: np.ndarray | None = None
    eta: np.ndarray | None = None

    def __post_init__(self):
        if self.b.shape[0] != self.matrix.shape[0]:
            raise ValueError("b must have one entry per matrix row")


@dataclass(frozen=True)
class RecoveryResult:
    x_hat: np.ndarray
    residual: float
    dist_to_truth: float | None
    certified: bool
    iterations: int
    best_start: int
    residual_history: tuple[float, ...]


def make_problem_for_matrix(
    A: np.ndarray, noise_level: float, seed: int, stream: int = 0
) -> RecoveryProblem:
    """Seeded synthetic problem on a given matrix: random truth, scaled noise.

    ||eta|| = noise_level * || |A x0| ||.  Noise entries that would push an
    observation negative get their sign flipped, which preserves the noise
    norm and keeps b = |A x0| + eta exact.
    """
    gen = stream_rng(seed, stream, 17)
    m, d = A.shape
    if field_of(A) is Field.REAL:
        x0 = gen.standard_normal(d)
    else:
        x0 = (gen.standard_normal(d) + 1j * gen.standard_normal(d)) / np.sqrt(2)
    b0 = phaseless_map(A, x0)
    if noise_level > 0:
        eta = gen.standard_normal(m)
        eta *= noise_level * np.linalg.norm(b0) / np.linalg.norm(eta)
        flip = b0 + eta < 0
        eta[flip] = -eta[flip]
    else:
        eta = np.zeros(m)
    return RecoveryProblem(matrix=A, b=b0 + eta, x0=x0, eta=eta)


def make_gaussian_problem(
    m: int, d: int, field: Field, noise_level: float, seed: int, stream: int = 0
) -> RecoveryProblem:
    """Synthetic problem on a fresh standard Gaussian matrix."""
    A = sample_gaussian_matrix(m, d, field, seed, stream)
    return make_problem_for_matrix(A, noise_level, seed, stream)


def _phases(z: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(z):
        mag = np.abs(z)
        out = np.ones_like(z)
        nz = mag > 0
        out[nz] = z[nz] / mag[nz]  # zero measurements pin the phase to +1
        return out
    out = np.sign(z)
    out[out == 0] = 1.0
    return out


def _spectral_start(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Top eigenvector of the magnitude-weighted covariance, scaled to match b."""
    M = (A.conj().T * (b**2)[None, :]) @ A / max(len(b), 1)
    M = (M + M.conj().T) / 2
    _, V = eigh_with_vectors(M)
    v = V[:, -1]
    scale = np.sqrt(np.mean(b**2))
    return v * (scale / max(np.linalg.norm(v), 1e-300))


def solve_quadratic_model(
    problem: RecoveryProblem,
    restarts: int = 16,
    max_iters: int = 200,
    tol: float = 1e-12,
    seed: int = 0,
) -> RecoveryResult:
    """Alternating minimization for the magnitude least-squares model.

    One Householder QR of A per problem serves every start.  Each start
    repeats: fix the measurement phases at the current iterate, solve the
    phased linear least-squares problem through that QR, stop when the
    residual decrease falls below `tol`.  The residual is nonincreasing
    within a start.  The spectral start runs first, then `restarts` random
    ones; the best (residual, start index) wins.
    """
    if restarts < 0 or max_iters < 1:
        raise ValueError("need restarts >= 0 and max_iters >= 1")
    A, b = problem.matrix, problem.b
    d = A.shape[1]
    cplx = field_of(A) is Field.COMPLEX

    Q, R = np.linalg.qr(A)
    r_diag = np.abs(np.diag(R))
    if r_diag.min() <= 1e-13 * r_diag.max():
        raise ConditioningError(0)
    Qh = Q.conj().T

    starts = [_spectral_start(A, b)]
    gen = stream_rng(seed, 23)
    for _ in range(restarts):
        v = gen.standard_normal(d)
        if cplx:
            v = (v + 1j * gen.standard_normal(d)) / np.sqrt(2)
        starts.append(v)

    total_iters = 0
    for si, x in enumerate(starts):
        z = A @ x
        hist = []
        prev = np.inf
        for _ in range(max_iters):
            x = np.linalg.solve(R, Qh @ (_phases(z) * b))
            z = A @ x
            res = float(np.linalg.norm(np.abs(z) - b))
            hist.append(res)
            if prev - res < tol:
                break
            prev = res
        total_iters += len(hist)
        if si == 0 or hist[-1] < best_hist[-1]:
            best_si, best_x, best_hist = si, x, tuple(hist)

    residual = best_hist[-1]
    certified = problem.eta is not None and residual <= float(np.linalg.norm(problem.eta)) + 1e-12
    d_truth = dist(best_x, problem.x0) if problem.x0 is not None else None
    return RecoveryResult(
        x_hat=best_x,
        residual=residual,
        dist_to_truth=d_truth,
        certified=bool(certified),
        iterations=total_iters,
        best_start=best_si,
        residual_history=best_hist,
    )


def check_error_bound(result: RecoveryResult, problem: RecoveryProblem, delta: float = 0.05) -> dict:
    """Compare the achieved distance against 2 beta0/(1-delta) * ||eta||/sqrt(m).

    Requires the ground truth and noise vector on the problem; delta must lie
    in (0, 0.05].  `holds` allows an absolute 1e-10 slack so that exact
    noiseless recoveries (bound 0, achieved at roundoff level) register.
    """
    if problem.x0 is None or problem.eta is None:
        raise ValueError("bound check needs both x0 and eta on the problem")
    if not (0 < delta <= DELTA_CEILING):
        raise ValueError(f"delta must lie in (0, {DELTA_CEILING}]")
    m = problem.matrix.shape[0]
    b0 = universal_lower_bound(field_of(problem.matrix))
    bound = 2 * b0 / (1 - delta) * float(np.linalg.norm(problem.eta)) / np.sqrt(m)
    achieved = (
        result.dist_to_truth
        if result.dist_to_truth is not None
        else dist(result.x_hat, problem.x0)
    )
    return {
        "bound": float(bound),
        "achieved": float(achieved),
        "holds": bool(achieved <= bound + 1e-10),
    }
