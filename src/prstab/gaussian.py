"""Seeded Gaussian ensembles, kernel expectation closed forms, and the
condition-number convergence experiment.

All randomness flows through a counter-based (Philox) generator addressed by
(seed, stream), so every draw is reproducible independent of scheduling.
Normal variates are produced by Box-Muller on the uniform stream rather than
the generator's native method, which pins the exact bit stream; the transform
runs in one pass over all pairs, written into one output array.

The Monte Carlo check of the kernel expectation never builds an n-length
array.  One sample serves the whole grid of angles: row i takes the
Box-Muller pair of uniform draws (2i, 2i + 1) on the (seed, 0) address, or
the two pairs 4i..4i + 3 for the complex field, so a row's draws are
consecutive and the sample does not depend on the block size.  Blocks of
``BM_CHUNK`` Box-Muller pairs are transformed in buffers allocated once per
call, every angle is scored on each block, and the block's mean and squared
deviations are merged into that angle's running statistics.  A call holds
about 768 KB of buffers, whatever the sample count or the grid length.

Both kernel expectations ``E |<y, a><a, x>|`` are exact closed forms.  For
unit complex vectors at angle t it is the hypergeometric value
``(pi/4) 2F1(-1/2, -1/2; 1; cos^2 t) = E(k) - (1 - k^2) K(k) / 2`` with
``k = cos t`` and K, E the complete elliptic integrals, evaluated through the
arithmetic-geometric mean (DLMF 19.8) in a few microseconds; it agrees with
mpmath to 8e-16 relative on [0, pi/2] and to 2.3e-15 at angles near 1e-8.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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


def _box_muller_block(u1: np.ndarray, u2: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray):
    """One block of Box-Muller: u1 and u2 become the radius and phase in place."""
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)  # 1 - u1 in (0, 1] keeps log finite
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2 * np.pi
    np.cos(u2, out=cos_out)
    cos_out *= u1
    np.sin(u2, out=sin_out)
    sin_out *= u1


def box_muller(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via Box-Muller on the generator's uniform stream."""
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    u1 = gen.random(pairs)
    u2 = gen.random(pairs)
    # z[:pairs] holds the cosine halves and z[pairs:] the sine halves
    z = np.empty(2 * pairs)
    _box_muller_block(u1, u2, z[:pairs], z[pairs:])
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
    field: Field, thetas: Iterable[float], n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimates of the kernel expectation at each angle, with standard errors.

    Uses x = e1 and y = (cos t, sin t) in dimension 2; the expectation only
    depends on the angle.  Row i of the sample is a = r (cos phi, sin phi)
    from the Box-Muller pair of uniform draws (2i, 2i + 1) of
    `stream_rng(seed, 0)`.  For the complex field a row takes the four
    draws 4i..4i + 3: the first pair gives the real parts and the second the
    imaginary parts, and a = (re + i im) / sqrt(2).  Every angle is scored
    on the same rows, so the estimates' errors are correlated.

    The sample is drawn in blocks of BM_CHUNK Box-Muller pairs into three
    buffers allocated once per call.  For each angle, a block's mean and sum
    of squared deviations are taken in two passes and merged into that
    angle's running (count, mean, M2) by Chan's update, so the buffers grow
    with neither n nor the grid.  Each estimate and `sqrt(M2 / (n - 1)) / sqrt(n)`
    agree with numpy's `mean()` and `std(ddof=1) / sqrt(n)` of the whole
    sample to summation roundoff.
    """
    if n < 1000:
        raise ValueError("need at least 1e3 samples")
    n = int(n)
    pairs, dtype = (1, np.float64) if field is Field.REAL else (2, np.complex128)
    # a complex row is (re + i im) / sqrt(2): the factor 1/2 this puts on
    # conj(<a, x>) <a, y> goes exactly into the weights of y = (cos t, sin t)
    weights = [(np.cos(t) / pairs, np.sin(t) / pairs) for t in map(_fold_angle, thetas)]
    gen = stream_rng(seed, 0)
    rows = BM_CHUNK // pairs  # per block, which holds BM_CHUNK Box-Muller pairs
    u = np.empty((rows, 2 * pairs))
    # entries 1 and 2 of the rows; Box-Muller pair k of a row gives their part k
    a = np.empty((2, rows, pairs))
    x, y = a.view(dtype)[..., 0]
    xc, z = np.empty((2, BM_CHUNK)).view(dtype)  # conj(x), then <a, y> and its product
    # a transformed block's uniforms are spent: u then holds c x and the values
    w = u.reshape(-1)[:BM_CHUNK].view(dtype)
    v = u.reshape(-1)[BM_CHUNK : BM_CHUNK + rows]
    mean, m2 = np.zeros(len(weights)), np.zeros(len(weights))
    for lo in range(0, n, rows):
        size = min(rows, n - lo)
        block = gen.random(out=u[:size])
        for k in range(pairs):
            _box_muller_block(block[:, 2 * k], block[:, 2 * k + 1], a[0, :size, k], a[1, :size, k])
        xb, yb, xcb, zb, wb, vb = x[:size], y[:size], xc[:size], z[:size], w[:size], v[:size]
        np.conjugate(xb, out=xcb)
        for g, (c, s) in enumerate(weights):
            np.multiply(xb, c, out=wb)
            np.multiply(yb, s, out=zb)
            zb += wb  # <a, y>, up to that factor
            np.multiply(xcb, zb, out=zb)
            np.abs(zb, out=vb)
            block_mean = vb.sum() / size
            vb -= block_mean
            vb *= vb
            delta = block_mean - mean[g]  # merge the block's `size` rows into the first `lo`
            mean[g] += delta * size / (lo + size)
            m2[g] += vb.sum() + delta * delta * lo * size / (lo + size)
    return mean, np.sqrt(m2 / (n - 1)) / np.sqrt(n)


@dataclass(frozen=True)
class GaussianExperiment:
    """Seeded sweep over row counts: per-trial condition-number estimates."""

    field: Field
    d: int
    m_values: tuple[int, ...]
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        ms = tuple(int(m) for m in self.m_values)
        if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("m_values must be non-empty and strictly increasing")
        object.__setattr__(self, "m_values", ms)


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

    Each cell derives its own stream from (seed, m-index, trial) and runs
    the numeric search with max(32, 8 d) restarts at its default iteration
    budget.  Cells run one after another, in (m, trial) order.
    """
    beta0 = universal_lower_bound(cfg.field)
    rows = []
    for mi, m in enumerate(cfg.m_values):
        for trial in range(cfg.trials):
            stream = mi * cfg.trials + trial
            A = sample_gaussian_matrix(m, cfg.d, cfg.field, cfg.seed, stream=stream)
            upper = upper_lipschitz(A)
            lower, _ = lower_lipschitz_numeric(
                A, restarts=max(32, 8 * cfg.d), seed=cfg.seed + 7919 * (stream + 1)
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
