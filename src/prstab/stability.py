"""Optimal Lipschitz bounds and condition numbers of phaseless measurement maps.

Two routes to the lower constant: the exact minimum over row splits (real
field) and constrained numerical minimization over orthogonal pairs (both
fields).  Real d = 2 is exact for every m on both routes: the m quarter
windows of the rows sorted by angle mod pi hold an optimal split, scored in
O(m log m), and the numeric route reports that value with the pair it
yields (stop_reason "closed_form").  Real d = 1 is ||a|| in closed form.
For d >= 3 (capped at ENUMERATION_CAP rows), for `split_bound` and for the
frame optimizer's objective, the Gram sums of all 2^(m-1) splits come from
one subset-sum table built by doubling, one vectorized add per row, and
each sum adds its rows in increasing index order.  Complex d = 2 searches
an angle grid and then polls, both through one ratio kernel built per
matrix: the squared moduli come from the 2 x 2 Gram, the cross term from
one real (2m x 6) product per batch of pairs.  The upper constant is always
the spectral norm.  Also provides the universal condition-number floors and
a derivative-free optimizer probing the best m x 2 real frame.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import workers
from .linalg import (
    Field,
    FieldMismatchError,
    dist,
    eigh_with_vectors,
    field_of,
    lambda_min_2x2_batch,
    lambda_min_3x3_batch,
    phaseless_map,
    spectral_norm,
)

ENUMERATION_CAP = 24
FRAME_ROW_CAP = 16  # optimize_frame_r2 scores 2^(m-1) splits of every candidate frame
ENUM_CHUNK_BITS = 16  # masks per enumeration chunk: 2^ENUM_CHUNK_BITS
ENUM_CHUNK = 1 << ENUM_CHUNK_BITS
D2_GRID = 64  # complex d = 2 seeds: D2_GRID x 2*D2_GRID angle grid
D2_GRID_CHUNK = 1 << 20  # grid columns per chunk times rows
PACE_WINDOW = 10  # _poll: iterations over which a state's pace is measured
ZERO_LOWER_FACTOR = 1e-10  # lower <= factor * upper declares beta = inf
ZERO_ROUNDOFF_FACTOR = 8  # d = 2: L^2 <= factor * eps * ||A||_F^2 is reported as L = 0

METHOD_EXACT = "exact_real_subset"
METHOD_NUMERIC = "numeric_orth_pair"


class EnumerationCapError(ValueError):
    """Split enumeration requested beyond a row cap."""

    def __init__(
        self,
        m: int,
        cap: int = ENUMERATION_CAP,
        task: str = "exact subset enumeration",
        advice: str = "use the numeric orthogonal-pair method instead",
    ):
        super().__init__(f"{task} is capped at m={cap} rows (got m={m}); {advice}")


@dataclass(frozen=True)
class PairCertificate:
    """Orthogonal pair achieving a candidate lower-constant value.

    x is unit, y = t*u for a unit u orthogonal to x and t in [0, 1]; `ratio`
    is |||Ax| - |Ay||| / dist(x, y) at the pair.  `stop_reason` says how the
    search ended: "closed_form" (d = 1 and real d = 2, no search: the ratio
    is the exact lower constant up to roundoff), "converged" (the search's
    best state has converged, and every other restart has converged too or
    could no longer catch it at its pace) or "budget" (the pattern search
    hit its iteration cap with such a step still above its floor).
    `evaluations` counts the pair-objective columns scored, the complex
    d = 2 angle grid included; it is 0 for "closed_form".
    """

    x: np.ndarray
    y: np.ndarray
    ratio: float
    iterations: int
    evaluations: int
    restarts: int
    stop_reason: str


@dataclass(frozen=True)
class StabilityReport:
    upper: float
    lower: float
    beta: float
    method: str
    lower_certificate: tuple[int, ...] | PairCertificate | None = None
    bounds: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class FramePolar:
    """Polar parameterization of a real m x 2 frame: rows t_i (cos f_i, sin f_i)."""

    radii: np.ndarray
    angles: np.ndarray

    def rows(self) -> np.ndarray:
        return np.stack(
            [self.radii * np.cos(self.angles), self.radii * np.sin(self.angles)], axis=1
        )


def upper_lipschitz(A: np.ndarray) -> float:
    """Optimal upper constant: the spectral norm of the matrix."""
    return spectral_norm(A)


def _subset_gram_terms(A: np.ndarray) -> np.ndarray:
    """Per-row rank-1 Gram terms packed for the batch lambda_min closed forms."""
    d = A.shape[1]
    if d == 1:
        return (A[:, 0] ** 2)[:, None]
    if d == 2:
        return np.stack([A[:, 0] ** 2, A[:, 0] * A[:, 1], A[:, 1] ** 2], axis=1)
    if d == 3:
        return np.stack(
            [
                A[:, 0] ** 2,
                A[:, 1] ** 2,
                A[:, 2] ** 2,
                A[:, 0] * A[:, 1],
                A[:, 0] * A[:, 2],
                A[:, 1] * A[:, 2],
            ],
            axis=1,
        )
    return np.einsum("mi,mj->mij", A, A).reshape(A.shape[0], d * d)


def _lambda_min_batch(g: np.ndarray, d: int) -> np.ndarray:
    if d == 1:
        return np.maximum(g[:, 0], 0.0)
    if d == 2:
        return lambda_min_2x2_batch(g)
    if d == 3:
        return lambda_min_3x3_batch(g)
    return np.maximum(np.linalg.eigvalsh(g.reshape(-1, d, d))[:, 0], 0.0)


def _subset_sums(terms: np.ndarray) -> np.ndarray:
    """Sums of the row terms over every subset of the rows, by doubling.

    `terms` has shape (..., k), one term per row in the last axis; entry
    [..., mask] of the result sums the terms of the rows set in `mask`.  The
    table doubles once per row, g[mask | 1<<j] = g[mask] + terms[j] for
    mask < 1<<j, so each sum adds its rows in increasing index order: the
    order a 0/1 matrix product over the same rows uses, to the last bit.
    """
    *lead, k = terms.shape
    g = np.zeros((*lead, 1 << k))
    for j in range(k):
        g[..., 1 << j : 2 << j] = g[..., : 1 << j] + terms[..., j : j + 1]
    return g


def _reduce_over_splits(A: np.ndarray, reduce_chunk, threads: int = 1) -> list:
    """Apply a chunk reducer over all complementary-pair representatives.

    Masks range over subsets of the first m-1 rows, so each pair {I, I^c} is
    visited exactly once (the last row always sits in the complement).  The
    reducer sees (masks, lam_I, lam_C) for one contiguous chunk and returns a
    small summary, keeping memory flat for the largest enumerations.  A chunk
    copies the subset-sum table of the low rows and adds the rows set in its
    high bits.
    """
    m, d = A.shape
    terms = _subset_gram_terms(A)
    total = terms.sum(axis=0)
    nrep = 1 << (m - 1)
    low_rows = min(m - 1, ENUM_CHUNK_BITS)
    low = _subset_sums(terms[:low_rows].T)

    def do_chunk(rng: tuple[int, int]):
        lo, hi = rng
        g_subset = low.copy()
        for j in range(low_rows, m - 1):
            if (lo >> j) & 1:
                g_subset += terms[j][:, None]
        g_complement = total[:, None] - g_subset
        return reduce_chunk(
            np.arange(lo, hi, dtype=np.uint64),
            _lambda_min_batch(g_subset.T, d),
            _lambda_min_batch(g_complement.T, d),
        )

    chunks = workers.chunk_ranges(nrep, ENUM_CHUNK)
    return workers.run_indexed(do_chunk, chunks, threads)


def _require_real_enumerable(A: np.ndarray, capped: bool = True) -> None:
    if field_of(A) is Field.COMPLEX:
        raise FieldMismatchError(
            "exact subset enumeration is defined for the real field only; "
            "use the numeric orthogonal-pair method for complex matrices"
        )
    if capped and A.shape[0] > ENUMERATION_CAP:
        raise EnumerationCapError(A.shape[0])


def _below_roundoff(lower_sq, fro_sq):
    """Whether L^2 is at most ZERO_ROUNDOFF_FACTOR * eps * ||A||_F^2, zero to roundoff.

    That is the roundoff of the d = 2 split sums and their closed-form
    lambda_min, and of the complex d = 2 ratio kernel, so such a lower
    constant is reported as 0 (beta = inf).
    """
    return lower_sq <= ZERO_ROUNDOFF_FACTOR * np.finfo(float).eps * fro_sq


def _lower_exact_windows(A: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exact lower constant of a real m x 2 matrix over quarter windows, O(m log m).

    With u = x + y and v = x - y, ||<a,x>| - |<a,y>|| = min(|<a,u>|, |<a,v>|)
    and dist(x, y) = min(|u|, |v|), so L^2 is the least value, over u, v
    with min(|u|, |v|) = 1, of sum_i min(<a_i,u>^2, <a_i,v>^2).  That sum is
    at least lambda_min(G_I) + lambda_min(G_{I^c}) for I = {i : <a_i,u>^2 <=
    <a_i,v>^2}, and unit lambda_min eigenvectors of the best split attain the
    bound; so the sets I of unit u, v hold an optimal split.  For a row at
    angle f and u, v at angles p, q, <a,u>^2 - <a,v>^2 = -|a|^2 sin(2f - p -
    q) sin(q - p): I is a closed window of width pi/2 in angle mod pi.  Rows
    on its edges score the same on either side, so a half-open window
    [s, s + pi/2) is optimal too.  It changes only when s or s + pi/2 passes
    a row angle, and the one from f_k + pi/2 is the complement of the one
    from f_k, so the m windows from the row angles, each scored with its
    complement, reach L^2.

    Both window ends come from `searchsorted` over the stably sorted angles
    and their copy shifted by pi, so tied rows stay together; window sums
    are differences of prefix sums of the doubled Gram terms.  A value below
    their roundoff (`_below_roundoff`) is reported as L = 0.
    """
    m = A.shape[0]
    angle = np.mod(np.arctan2(A[:, 1], A[:, 0]), np.pi)
    order = np.argsort(angle, kind="stable")
    angle = angle[order]
    terms = _subset_gram_terms(A[order])
    prefix = np.zeros((2 * m + 1, 3))
    np.cumsum(np.concatenate([terms, terms]), axis=0, out=prefix[1:])
    start = np.searchsorted(angle, angle, side="left")
    end = np.searchsorted(np.concatenate([angle, angle + np.pi]), angle + np.pi / 2, side="left")
    window = prefix[end] - prefix[start]
    tot = lambda_min_2x2_batch(window) + lambda_min_2x2_batch(prefix[m] - window)
    k = int(np.argmin(tot))
    rows = order[np.arange(start[k], end[k]) % m]
    if m - 1 in rows:
        rows = np.setdiff1d(np.arange(m), rows)
    best = tot[k]
    if _below_roundoff(best, prefix[m, 0] + prefix[m, 2]):
        best = 0.0
    return float(np.sqrt(best)), tuple(int(i) for i in np.sort(rows))


def lower_lipschitz_exact_real(A: np.ndarray, threads: int = 1) -> tuple[float, tuple[int, ...]]:
    """Exact optimal lower constant of a real matrix, with a minimizing subset.

    Minimizes sqrt(lambda_min(G_I) + lambda_min(G_{I^c})) over row splits;
    the empty side contributes 0.  Returns (value, subset indices): sorted,
    0-based, with row m-1 always in the complement.  d = 1 is ||a|| (every
    split has the value sum a_i^2; the subset is empty) and d = 2 scores
    quarter windows in O(m log m), both for any m.  d >= 3 enumerates the
    splits over `threads` workers, up to ENUMERATION_CAP rows.
    """
    m, d = A.shape
    _require_real_enumerable(A, capped=d >= 3)
    if d == 1:
        return float(np.linalg.norm(A)), ()
    if d == 2:
        return _lower_exact_windows(A)

    def chunk_min(masks, lam_i, lam_c):
        tot = lam_i + lam_c
        k = int(np.argmin(tot))
        return float(tot[k]), int(masks[k])

    best_val, best_mask = min(_reduce_over_splits(A, chunk_min, threads))
    subset = tuple(i for i in range(m - 1) if (best_mask >> i) & 1)
    return float(np.sqrt(max(best_val, 0.0))), subset


def split_bound(A: np.ndarray, threads: int = 1) -> float:
    """Min over row splits of the larger of the two smallest-eigenvalue roots.

    Sandwiches the exact lower constant within a factor of sqrt(2).
    """
    _require_real_enumerable(A)

    def chunk_min(masks, lam_i, lam_c):
        return float(np.maximum(np.sqrt(lam_i), np.sqrt(lam_c)).min())

    return min(_reduce_over_splits(A, chunk_min, threads))


def _min_over_scale(p: np.ndarray, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Columnwise min over t in [0,1] of (p - 2tq + t^2 r)/(1 + t^2).

    The interior critical point solves q t^2 + (r - p) t - q = 0; the
    positive root is taken in closed form and clamped to [0, 1].
    """
    disc = np.sqrt((p - r) ** 2 + 4 * q * q)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(q > 0, ((p - r) + disc) / (2 * q), 0.0)
    t_star = np.clip(np.nan_to_num(t_star), 0.0, 1.0)

    def val(t):
        return (p - 2 * t * q + t * t * r) / (1 + t * t)

    ones = np.ones_like(p)
    return np.minimum(np.minimum(p, val(ones)), val(t_star))


def _ratio_sq_min_over_scale(A: np.ndarray, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Columnwise min over t in [0,1] of |||Ax| - t|Au|||^2 / (1 + t^2).

    X, U hold unit orthogonal pairs.  With p = ||Ax||^2, r = ||Au||^2 and
    q = sum_i |a_i x||a_i u|, the objective is (p - 2tq + t^2 r)/(1 + t^2).
    """
    AX = np.abs(A @ X)
    AU = np.abs(A @ U)
    p = (AX**2).sum(axis=0)
    r = (AU**2).sum(axis=0)
    q = (AX * AU).sum(axis=0)
    return _min_over_scale(p, r, q)


def _complex_d2_ratio(A: np.ndarray):
    """The columnwise kernel of `_ratio_sq_min_over_scale` for one complex m x 2 A.

    p and r are quadratic forms of the 2 x 2 Gram M = A^H A, O(1) per
    column.  For q, |a x||a u| = |a_1^2 x_1 u_1 + a_1 a_2 (x_1 u_2 + x_2 u_1)
    + a_2^2 x_2 u_2|, so one real (2m x 6) @ (6 x cols) product gives the
    real and imaginary parts of every row's product, and q is the column sum
    of their moduli.  Each row keeps the roundoff of about eps |a_i|^2 of
    the direct form, also for rows orthogonal to x or u.
    """
    m = A.shape[0]
    M = A.conj().T @ A
    b = np.stack([A[:, 0] ** 2, A[:, 0] * A[:, 1], A[:, 1] ** 2], axis=1)
    B = np.block([[b.real, -b.imag], [b.imag, b.real]])
    ones = np.ones(m)

    def form(X):
        return (
            M[0, 0].real * np.abs(X[0]) ** 2
            + M[1, 1].real * np.abs(X[1]) ** 2
            + 2 * (np.conj(X[0]) * M[0, 1] * X[1]).real
        )

    def ratio(X: np.ndarray, U: np.ndarray) -> np.ndarray:
        c = np.stack([X[0] * U[0], X[0] * U[1] + X[1] * U[0], X[1] * U[1]])
        w = B @ np.concatenate([c.real, c.imag])
        w *= w
        w = w[:m] + w[m:]
        np.sqrt(w, out=w)
        return _min_over_scale(form(X), form(U), ones @ w)

    return ratio


def _best_scale(A: np.ndarray, x: np.ndarray, u: np.ndarray) -> float:
    AX = np.abs(A @ x)
    AU = np.abs(A @ u)
    p = float((AX**2).sum())
    r = float((AU**2).sum())
    q = float((AX * AU).sum())
    cands = [0.0, 1.0]
    if q > 0:
        disc = np.sqrt((p - r) ** 2 + 4 * q * q)
        cands.append(float(np.clip(((p - r) + disc) / (2 * q), 0.0, 1.0)))
    vals = [(p - 2 * t * q + t * t * r) / (1 + t * t) for t in cands]
    return cands[int(np.argmin(vals))]


def _orthonormalize_batch(Z: np.ndarray, d: int):
    """Rows (x_raw | u_raw) -> unit x, unit u with <x, u> = 0; flags failures."""
    X = Z[:, :d].copy()
    U = Z[:, d:].copy()
    nx = np.linalg.norm(X, axis=1)
    ok = nx > 1e-12
    X[ok] /= nx[ok, None]
    proj = np.sum(np.conj(X) * U, axis=1)
    U = U - proj[:, None] * X
    nu = np.linalg.norm(U, axis=1)
    ok &= nu > 1e-12
    U[ok] /= nu[ok, None]
    return X, U, ok


def _pair_objective(ratio, d: int):
    """Squared pair ratio of raw (x_raw | u_raw) rows; inf where they degenerate.

    `ratio(X, U)` is the columnwise kernel of the matrix, d the row length.
    """

    def objective(Z: np.ndarray) -> np.ndarray:
        X, U, ok = _orthonormalize_batch(Z, d)
        v = ratio(X.T, U.T)
        v[~ok] = np.inf
        return v

    return objective


def _poll(objective, Z0, rng, h0, hmin, max_iter, shrink, expand=1.0, sets=1, keep=None):
    """Batched randomized pattern search, one state per row of Z0.

    Each iteration polls +/- the columns of `sets` random orthonormal bases
    (and i times those directions for complex states) around every state
    whose step is still above `hmin`.  A state moves to its best candidate
    when that improves its value and its step grows by `expand`; otherwise
    the step shrinks by `shrink`.  The objectives are non-smooth, so
    randomized polling avoids coordinate-direction stalls.

    With `keep` None every state runs until its step falls to `hmin`.  With
    `keep` = k only the k lowest values matter: any other state is dropped
    (its step set to 0) once, at its pace over the last PACE_WINDOW
    iterations, it could not get below the k-th lowest value in the
    iterations left.  So with keep=1 the search ends when its best state has
    converged and each other state has converged or can no longer catch it.
    A lagging state still closing on the best keeps running, because it may
    end in a lower basin.  The random draws of an iteration do not depend on
    which states are live, so every state's path up to its stop is the same
    for every `keep`.

    Returns (Z, vals, iterations, stop_reason, evaluations): stop_reason is
    "budget" if a state is still live at `max_iter`, else "converged";
    evaluations counts the objective's columns, the start included.
    """
    Z = Z0.copy()
    ns, n = Z.shape
    vals = objective(Z)
    evaluations = ns
    h = np.full(ns, h0)
    recent = deque([vals.copy()], maxlen=PACE_WINDOW + 1)
    it = 0
    while it < max_iter and (h > hmin).any():
        it += 1
        blocks = []
        for _ in range(sets):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            blocks.extend([Q.T, -Q.T])
        dirs = np.vstack(blocks)
        if np.iscomplexobj(Z):
            dirs = np.vstack([dirs, 1j * dirs])
        act = np.flatnonzero(h > hmin)
        cand = (Z[act, None, :] + h[act, None, None] * dirs[None, :, :]).reshape(-1, n)
        v = objective(cand).reshape(len(act), -1)
        evaluations += cand.shape[0]
        kb = np.argmin(v, axis=1)
        vb = v[np.arange(len(act)), kb]
        impr = vb < vals[act] - 1e-15
        took = act[impr]
        Z[took] = cand.reshape(len(act), -1, n)[impr, kb[impr]]
        vals[took] = vb[impr]
        h[took] *= expand
        h[act[~impr]] *= shrink
        if keep is not None:
            recent.append(vals.copy())
            if len(recent) > PACE_WINDOW:
                target = np.sort(vals)[keep - 1]
                reach = (recent[0] - vals) / PACE_WINDOW * (max_iter - it)
                h[vals - reach > target] = 0.0
    return Z, vals, it, "budget" if (h > hmin).any() else "converged", evaluations


def _pairs_complex_d2(theta: np.ndarray, gamma: np.ndarray):
    ct, st = np.cos(theta), np.sin(theta)
    eg = np.exp(1j * gamma)
    X = np.stack([ct.astype(complex), st * eg])
    U = np.stack([st.astype(complex), -ct * eg])
    return X, U


def _numeric_lower_d2_complex(A: np.ndarray, rng: np.random.Generator):
    m = A.shape[0]
    ratio = _complex_d2_ratio(A)
    th = np.linspace(0.0, np.pi / 2, D2_GRID)
    ga = np.linspace(0.0, 2 * np.pi, 2 * D2_GRID, endpoint=False)
    T, G = np.meshgrid(th, ga, indexing="ij")
    tt, gg = T.ravel(), G.ravel()
    # chunk the grid so 2m x ncols work arrays stay modest at large m
    cols = tt.size
    chunk = max(1, min(cols, D2_GRID_CHUNK // max(m, 1)))
    vals = np.empty(cols)
    for lo, hi in workers.chunk_ranges(cols, chunk):
        vals[lo:hi] = ratio(*_pairs_complex_d2(tt[lo:hi], gg[lo:hi]))
    seeds = np.argsort(vals)[:12]
    X0, U0 = _pairs_complex_d2(tt[seeds], gg[seeds])
    Z0 = np.concatenate([X0.T, U0.T], axis=1)
    Z, v2, it, stop, evaluations = _poll(
        _pair_objective(ratio, 2),
        Z0,
        rng,
        h0=0.1,
        hmin=1e-9,
        max_iter=2500,
        shrink=0.5,
        expand=1.0,
        keep=1,
    )
    k = int(np.argmin(v2))
    X, U, _ = _orthonormalize_batch(Z[k : k + 1], 2)
    return X[0], U[0], it, stop, cols + evaluations


def _pair_from_split(A: np.ndarray, subset: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Unit x and y = t*u (t in [0, 1], u unit, <x, u> = 0) attaining a split's value.

    From unit lambda_min eigenvectors u of G_I and v of G_{I^c}: x = (u+v)/2
    and y = (u-v)/2 are orthogonal, with x + y = u and x - y = v, so the
    squared ratio is sum_i min(<a_i,u>^2, <a_i,v>^2) <= lambda_min(G_I) +
    lambda_min(G_{I^c}).  Swapping or scaling the pair keeps the ratio.
    """
    inside = np.zeros(A.shape[0], dtype=bool)
    inside[list(subset)] = True
    u, v = (eigh_with_vectors(A[rows].T @ A[rows])[1][:, 0] for rows in (inside, ~inside))
    x, y = (u + v) / 2, (u - v) / 2
    if np.linalg.norm(y) > np.linalg.norm(x):
        x, y = y, x
    scale = np.linalg.norm(x)
    return x / scale, y / scale


def lower_lipschitz_numeric(
    A: np.ndarray,
    restarts: int = 32,
    max_iters: int = 4000,
    tol: float = 1e-9,
    seed: int = 0,
) -> tuple[float, PairCertificate]:
    """Best found value of the constrained orthogonal-pair minimization.

    Searches pairs (x, u) with ||x|| = 1, ||u|| = 1, <x, u> = 0 and resolves
    the scale of y = t*u in closed form; the returned value is always an
    upper bound on the true optimal lower constant.  Real d = 2 needs no
    search: the value is the exact one from the quarter windows, and the pair
    comes from the lambda_min eigenvectors of the best split (stop_reason
    "closed_form", as for d = 1).  Complex d = 2 seeds the pattern search
    from a dense angle grid, and both score pairs with the kernel of
    `_complex_d2_ratio`, one real (2m x 6) product per batch of pairs; a
    value below that kernel's roundoff (`_below_roundoff`) is reported as 0.
    Higher d uses random orthonormal restarts plus pattern search over
    `_ratio_sq_min_over_scale`.  Only the best state is returned, so both
    searches end once it has converged and the other restarts have either
    converged or fallen too far behind to catch it in the iterations left
    (stop_reason "converged"), or at `max_iters` ("budget"); the
    certificate counts the pair-objective columns scored, the grid included.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    m, d = A.shape
    if d == 1:
        # the only admissible pair is (x, 0); the ratio is ||A|| for any unit x
        x = np.ones(1, dtype=A.dtype)
        y = np.zeros(1, dtype=A.dtype)
        ratio = float(np.linalg.norm(phaseless_map(A, x)))
        return ratio, PairCertificate(
            x=x,
            y=y,
            ratio=ratio,
            iterations=0,
            evaluations=0,
            restarts=restarts,
            stop_reason="closed_form",
        )
    if d == 2 and field_of(A) is Field.REAL:
        lower, subset = _lower_exact_windows(A)
        x, y = _pair_from_split(A, subset)
        ratio = float(np.linalg.norm(phaseless_map(A, x) - phaseless_map(A, y)) / dist(x, y))
        return lower, PairCertificate(
            x=x,
            y=y,
            ratio=ratio,
            iterations=0,
            evaluations=0,
            restarts=restarts,
            stop_reason="closed_form",
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    if d == 2:
        best_x, best_u, iterations, stop, evaluations = _numeric_lower_d2_complex(A, rng)
    else:
        cplx = field_of(A) is Field.COMPLEX
        n = 2 * d
        Z0 = rng.standard_normal((restarts, n))
        if cplx:
            Z0 = Z0 + 1j * rng.standard_normal((restarts, n))
        # coordinate pairs are cheap, deterministic extra seeds
        extra = []
        for i in range(d):
            for j in range(d):
                if i != j:
                    z = np.zeros(n, dtype=complex if cplx else float)
                    z[i] = 1.0
                    z[d + j] = 1.0
                    extra.append(z)
        Z0 = np.vstack([Z0] + [np.array(extra)]) if extra else Z0
        Z, vals, iterations, stop, evaluations = _poll(
            _pair_objective(lambda X, U: _ratio_sq_min_over_scale(A, X, U), d),
            Z0,
            rng,
            h0=0.5,
            hmin=tol * 1e-2,
            max_iter=max_iters,
            shrink=0.5,
            expand=1.0,
            keep=1,
        )
        k = int(np.argmin(vals))
        # coordinate seeds start finite and only improve: the best state is not degenerate
        X, U, _ = _orthonormalize_batch(Z[k : k + 1], d)
        best_x, best_u = X[0], U[0]
    t = _best_scale(A, best_x, best_u)
    y = t * best_u
    denom = dist(best_x, y)
    ratio = float(np.linalg.norm(phaseless_map(A, best_x) - phaseless_map(A, y)) / denom)
    cert = PairCertificate(
        x=best_x,
        y=y,
        ratio=ratio,
        iterations=iterations,
        evaluations=evaluations,
        restarts=restarts,
        stop_reason=stop,
    )
    if d == 2 and _below_roundoff(ratio**2, np.linalg.norm(A) ** 2):
        return 0.0, cert
    return ratio, cert


def universal_lower_bound(field: Field) -> float:
    """Field-dependent floor on every condition number.

    sqrt(pi/(pi-2)) for the real field, sqrt(4/(4-pi)) for the complex one.
    """
    if field is Field.REAL:
        return float(np.sqrt(np.pi / (np.pi - 2)))
    if field is Field.COMPLEX:
        return float(np.sqrt(4.0 / (4.0 - np.pi)))
    raise ValueError(f"unknown field {field!r}")


def real_beta_lower_bound(m: int) -> float:
    """Row-count-dependent floor for real matrices: 1/sqrt(1 - 1/(m sin(pi/2m))).

    Monotone decreasing in m; tends to the real universal floor.
    """
    m = int(m)
    if m < 3:
        raise ValueError(f"bound requires m >= 3, got {m}")
    return float(1.0 / np.sqrt(1.0 - 1.0 / (m * np.sin(np.pi / (2 * m)))))


def beta_from_constants(upper: float, lower: float) -> float:
    """beta = upper / lower, or inf when lower <= ZERO_LOWER_FACTOR * upper."""
    if lower <= ZERO_LOWER_FACTOR * upper:
        return float("inf")
    return float(upper / lower)


def condition_number(
    A: np.ndarray,
    method: str = METHOD_EXACT,
    restarts: int = 32,
    max_iters: int = 4000,
    tol: float = 1e-9,
    seed: int = 0,
    threads: int = 1,
) -> StabilityReport:
    """Assemble upper and lower constants into a stability report.

    `method` is "exact_real_subset" (real matrices; d >= 3 up to the
    enumeration cap) or "numeric_orth_pair".  beta is +inf when the lower
    constant sits below the scale-invariant zero threshold.
    """
    upper = upper_lipschitz(A)
    if method == METHOD_EXACT:
        lower, cert = lower_lipschitz_exact_real(A, threads=threads)
        certificate: tuple[int, ...] | PairCertificate = cert
    elif method == METHOD_NUMERIC:
        lower, certificate = lower_lipschitz_numeric(
            A, restarts=restarts, max_iters=max_iters, tol=tol, seed=seed
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    beta = beta_from_constants(upper, lower)
    bounds = {"beta0": universal_lower_bound(field_of(A))}
    if field_of(A) is Field.REAL and A.shape[0] >= 3:
        bounds["real_md_bound"] = real_beta_lower_bound(A.shape[0])
    return StabilityReport(
        upper=upper,
        lower=lower,
        beta=beta,
        method=method,
        lower_certificate=certificate,
        bounds=bounds,
    )


def _frame_beta_batch(rows: np.ndarray) -> np.ndarray:
    """Exact condition numbers for a batch of m x 2 real frames; inf where L is zero to roundoff."""
    B, m, _ = rows.shape
    terms = np.stack(
        [rows[:, :, 0] ** 2, rows[:, :, 0] * rows[:, :, 1], rows[:, :, 1] ** 2], axis=2
    )
    tot = terms.sum(axis=1)
    g_subset = _subset_sums(np.moveaxis(terms[:, : m - 1], 2, 0))
    g_complement = tot.T[:, :, None] - g_subset
    delta_sq = (
        lambda_min_2x2_batch(np.moveaxis(g_subset, 0, -1))
        + lambda_min_2x2_batch(np.moveaxis(g_complement, 0, -1))
    ).min(axis=1)
    lam_max = (tot[:, 0] + tot[:, 2]) / 2 + np.sqrt(
        ((tot[:, 0] - tot[:, 2]) / 2) ** 2 + tot[:, 1] ** 2
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            _below_roundoff(delta_sq, tot[:, 0] + tot[:, 2]), np.inf, np.sqrt(lam_max / delta_sq)
        )


def _frames_from_params(P: np.ndarray, m: int) -> np.ndarray:
    """Gauge-fixed frames: first angle 0, radii scaled to sum of squares m."""
    B = P.shape[0]
    ang = np.concatenate([np.zeros((B, 1)), P[:, : m - 1]], axis=1)
    rad = np.abs(P[:, m - 1 :])
    rad = rad * np.sqrt(m) / np.maximum(np.linalg.norm(rad, axis=1, keepdims=True), 1e-12)
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=2)


def _frames_angles_only(P: np.ndarray, m: int) -> np.ndarray:
    B = P.shape[0]
    ang = np.concatenate([np.zeros((B, 1)), P], axis=1)
    return np.stack([np.cos(ang), np.sin(ang)], axis=2)


def optimize_frame_r2(
    m: int, restarts: int = 48, seed: int = 0, budget: int = 8000
) -> tuple[FramePolar, float]:
    """Search for the m x 2 real frame with the smallest condition number.

    Multi-start derivative-free minimization over gauge-fixed polar
    parameters, with the exact subset-enumeration condition number as the
    objective.  Runs a joint multistart, an angles-only multistart at unit
    radii, then an expansion-polish of the best incumbents.
    """
    m = int(m)
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    if m > FRAME_ROW_CAP:
        raise EnumerationCapError(
            m,
            FRAME_ROW_CAP,
            "optimize_frame_r2",
            "each candidate frame is scored over all 2^(m-1) row splits",
        )
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(202,)))

    def joint(P):
        return _frame_beta_batch(_frames_from_params(P, m))

    def angles_only(P):
        return _frame_beta_batch(_frames_angles_only(P, m))

    P_joint = np.concatenate(
        [
            rng.uniform(0, np.pi, (restarts, m - 1)),
            np.abs(1 + 0.3 * rng.standard_normal((restarts, m))),
        ],
        axis=1,
    )
    P_joint, v_joint, _, _, _ = _poll(
        joint, P_joint, rng, h0=0.6, hmin=1e-5, max_iter=budget, shrink=0.6
    )

    P_ang = rng.uniform(0, np.pi, (restarts, m - 1))
    P_ang, v_ang, _, _, _ = _poll(
        angles_only, P_ang, rng, h0=0.6, hmin=1e-5, max_iter=budget, shrink=0.6
    )
    P_ang_full = np.concatenate([P_ang, np.ones((P_ang.shape[0], m))], axis=1)

    P_all = np.vstack([P_joint, P_ang_full])
    v_all = np.concatenate([v_joint, v_ang])
    top = np.argsort(v_all)[:6]
    polish, v_pol, _, _, _ = _poll(
        joint,
        P_all[top],
        rng,
        h0=0.05,
        hmin=1e-12,
        max_iter=int(1.5 * budget),
        shrink=0.65,
        expand=1.8,
        sets=2,
    )
    k = int(np.argmin(v_pol))
    rows = _frames_from_params(polish[k : k + 1], m)[0]
    radii = np.linalg.norm(rows, axis=1)
    angles = np.mod(np.arctan2(rows[:, 1], rows[:, 0]), np.pi)
    return FramePolar(radii=radii, angles=angles), float(v_pol[k])
