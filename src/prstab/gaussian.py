"""Seeded Gaussian ensembles, kernel expectation closed forms, and the
condition-number convergence experiment.

All randomness flows through a counter-based (Philox) generator addressed by
(seed, stream), so every draw is reproducible independent of scheduling.
Normal variates are produced by Box-Muller on the uniform stream rather than
the generator's native method, which pins the exact bit stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Field
from .stability import (
    beta_from_constants,
    lower_lipschitz_numeric,
    universal_lower_bound,
    upper_lipschitz,
)

DEFAULT_QUADRATURE = (512, 1024)  # polar-cosine nodes x azimuth nodes


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for the given (seed, stream...) address."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(stream)))
    )


def box_muller(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via Box-Muller on the generator's uniform stream."""
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    u1 = gen.random(pairs)
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1] keeps log finite
    z = np.concatenate([radius * np.cos(2 * np.pi * u2), radius * np.sin(2 * np.pi * u2)])
    return z[:n].reshape(shape)


def sample_gaussian_matrix(m: int, d: int, field: Field, seed: int, stream: int = 0) -> np.ndarray:
    """i.i.d. standard Gaussian rows; complex entries have unit mean square.

    Real field: entries N(0, 1).  Complex field: N(0, 1/2) + i N(0, 1/2).
    """
    if m < 1 or d < 1:
        raise ValueError("m and d must be >= 1")
    gen = stream_rng(seed, stream)
    if field is Field.REAL:
        return box_muller(gen, (m, d))
    re = box_muller(gen, (m, d))
    im = box_muller(gen, (m, d))
    return (re + 1j * im) / np.sqrt(2.0)


def _fold_angle(theta: float) -> float:
    # reduce to [0, pi/2] via the symmetry E depends only on |cos(theta)|
    return float(np.arccos(np.clip(abs(np.cos(theta)), 0.0, 1.0)))


def kernel_expectation_real(theta: float) -> float:
    """E |<y, a><a, x>| for unit real vectors at angle theta, a ~ N(0, I).

    Closed form (2/pi) (sin t + (pi/2 - t) cos t) on [0, pi/2]; other angles
    are folded in by symmetry.
    """
    t = _fold_angle(theta)
    return float((2 / np.pi) * (np.sin(t) + (np.pi / 2 - t) * np.cos(t)))


def kernel_expectation_complex(
    theta: float, n_polar: int = DEFAULT_QUADRATURE[0], n_azimuth: int = DEFAULT_QUADRATURE[1]
) -> float:
    """E |<y, a><a, x>| for unit complex vectors at angle theta.

    Evaluated as a sphere surface integral of
    sqrt(1 + x cos t - y sin t) * sqrt(1 + x cos t + y sin t) / (4 pi),
    using Gauss-Legendre nodes in the polar cosine crossed with a uniform
    trapezoid in azimuth (periodic, so the trapezoid is spectral).
    """
    if n_polar < 16 or n_azimuth < 16:
        raise ValueError("quadrature sizes must be >= 16")
    t = _fold_angle(theta)
    s, w = np.polynomial.legendre.leggauss(int(n_polar))
    psi = 2 * np.pi * np.arange(int(n_azimuth)) / int(n_azimuth)
    rho = np.sqrt(np.maximum(1 - s**2, 0.0))
    x = rho[:, None] * np.cos(psi)[None, :]
    y = rho[:, None] * np.sin(psi)[None, :]
    integrand = np.sqrt(np.maximum(1 + x * np.cos(t) - y * np.sin(t), 0.0)) * np.sqrt(
        np.maximum(1 + x * np.cos(t) + y * np.sin(t), 0.0)
    )
    integral = float((w[:, None] * integrand).sum() * (2 * np.pi / n_azimuth))
    return integral / (4 * np.pi)


def kernel_expectation_bound(field: Field, theta: float) -> float:
    """Upper bound cos t + (1 - 1/beta0^2)(1 - cos t) on the kernel expectation."""
    t = _fold_angle(theta)
    b0 = universal_lower_bound(field)
    return float(np.cos(t) + (1 - 1 / b0**2) * (1 - np.cos(t)))


def mc_kernel_expectation(
    field: Field, theta: float, n: int, seed: int, stream: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of the kernel expectation with its standard error.

    Uses x = e1 and y = (cos t, sin t) in dimension 2; the expectation only
    depends on the angle.
    """
    if n < 1000:
        raise ValueError("need at least 1e3 samples")
    t = _fold_angle(theta)
    A = sample_gaussian_matrix(int(n), 2, field, seed, stream)
    ax = A[:, 0]
    ay = A[:, 0] * np.cos(t) + A[:, 1] * np.sin(t)
    vals = np.abs(np.conj(ax) * ay)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n))
    return est, se


@dataclass(frozen=True)
class GaussianExperiment:
    """Seeded sweep over row counts: per-trial condition-number estimates."""

    field: Field
    d: int
    m_values: tuple[int, ...]
    trials: int
    seed: int
    restarts: int = 32
    max_iters: int = 4000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        ms = tuple(int(m) for m in self.m_values)
        if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("m_values must be non-empty and strictly increasing")
        object.__setattr__(self, "m_values", ms)
        object.__setattr__(self, "restarts", max(self.restarts, 8 * self.d))


@dataclass(frozen=True)
class BetaEstimateRow:
    m: int
    trial: int
    upper: float
    lower: float
    beta: float
    beta_floor: float
    excess: float


def gaussian_beta_experiment(cfg: GaussianExperiment) -> list[BetaEstimateRow]:
    """Sample matrices per (m, trial) cell and estimate the condition number.

    Each cell derives its own stream from (seed, m-index, trial).  Cells run
    one after another, in (m, trial) order.
    """
    beta0 = universal_lower_bound(cfg.field)
    rows = []
    for mi, m in enumerate(cfg.m_values):
        for trial in range(cfg.trials):
            stream = mi * cfg.trials + trial
            A = sample_gaussian_matrix(m, cfg.d, cfg.field, cfg.seed, stream=stream)
            upper = upper_lipschitz(A)
            lower, _ = lower_lipschitz_numeric(
                A,
                restarts=cfg.restarts,
                max_iters=cfg.max_iters,
                seed=cfg.seed + 7919 * (stream + 1),
            )
            beta = beta_from_constants(upper, lower)
            rows.append(
                BetaEstimateRow(
                    m=m,
                    trial=trial,
                    upper=upper,
                    lower=lower,
                    beta=beta,
                    beta_floor=beta0,
                    excess=beta - beta0,
                )
            )
    return rows
