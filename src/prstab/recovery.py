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
CERTIFY_SLACK = 4096  # certified: residual <= ||eta|| + CERTIFY_SLACK * eps * ||b||


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

    One Householder QR of A per problem serves every start.  The spectral
    start (column 0) and `restarts` seeded random starts (columns 1..S-1) run
    as one (d x S) iterate.  Each iteration fixes the measurement phases of
    every active column at the current iterate (a zero measurement takes
    phase +1), solves the phased linear least-squares problems through that
    QR in one block, and takes each column's residual.  A column whose
    residual decrease falls below `tol` is frozen and leaves the active set,
    so every start stops where it would stop alone; the residual is
    nonincreasing within a start.  `iterations` sums the per-start counts.

    Tie rule: the winner is the lowest start index whose final residual is
    within 8*eps*||b|| of the least one, so starts that end at the same point
    up to roundoff resolve to the earliest, the spectral start first.

    Certificate: `certified` is residual <= ||eta|| + CERTIFY_SLACK*eps*||b||,
    a slack that scales with the problem.  It is sized from the final
    residuals of exact noiseless recoveries (dist <= 1e-8 ||x0||) on
    seeded Gaussian problems, 4 to 30 seeds per shape: real 8 x 2 to
    2000 x 20 end within 6.4 eps ||b||, complex ones farther out, because
    the absolute stop `tol` settles a slowly converging start some 1e-12
    short of its limit: 1649 eps ||b|| at 40 x 3, 572 at 80 x 4, 258 at
    200 x 8, 51 at 1000 x 10 and 25 at 2000 x 20.  4096 covers those shapes
    with room to spare; complex problems with fewer rows per unknown (8 x 2:
    up to 3.4e4 eps ||b||) can still end uncertified.
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

    S = 1 + restarts
    X = np.empty((d, S), dtype=complex if cplx else float)
    X[:, 0] = _spectral_start(A, b)
    gen = stream_rng(seed, 23)
    for s in range(1, S):
        v = gen.standard_normal(d)
        if cplx:
            v = (v + 1j * gen.standard_normal(d)) / np.sqrt(2)
        X[:, s] = v

    bcol = b[:, None]
    hist = np.empty((max_iters, S))
    counts = np.full(S, max_iters)
    prev = np.full(S, np.inf)
    active = np.arange(S)
    Z = A @ X
    mag = np.abs(Z)
    for it in range(max_iters):
        P = np.divide(Z, mag, out=np.ones_like(Z), where=mag > 0)
        Xa = np.linalg.solve(R, Qh @ (P * bcol))
        Z = A @ Xa
        mag = np.abs(Z)
        res = np.linalg.norm(mag - bcol, axis=0)
        X[:, active] = Xa
        hist[it, active] = res
        stop = prev[active] - res < tol
        prev[active] = res
        if stop.any():
            counts[active[stop]] = it + 1
            keep = ~stop
            active, Z, mag = active[keep], Z[:, keep], mag[:, keep]
            if active.size == 0:
                break

    # prev now holds each start's final residual
    best = int(np.argmax(prev <= prev.min() + 8 * np.finfo(float).eps * np.linalg.norm(b)))
    best_x = X[:, best].copy()
    best_hist = tuple(float(r) for r in hist[: counts[best], best])
    residual = best_hist[-1]
    slack = CERTIFY_SLACK * np.finfo(float).eps * np.linalg.norm(b)
    certified = problem.eta is not None and residual <= float(np.linalg.norm(problem.eta)) + slack
    d_truth = dist(best_x, problem.x0) if problem.x0 is not None else None
    return RecoveryResult(
        x_hat=best_x,
        residual=residual,
        dist_to_truth=d_truth,
        certified=bool(certified),
        iterations=int(counts.sum()),
        best_start=best,
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
