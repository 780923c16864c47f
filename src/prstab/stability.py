"""Optimal Lipschitz bounds and condition numbers of phaseless measurement maps.

Two routes to the lower constant: the exact minimum over row splits (real
field) and constrained numerical minimization over orthogonal pairs (both
fields).  Real d = 2 is exact for every m on both routes: the m quarter
windows of the rows sorted by angle mod pi hold an optimal split, scored in
O(m log m) per matrix by one batched routine that also scores the frame
optimizer's candidates, and the numeric route reports that value with the
pair it yields (stop_reason "closed_form").  Real d = 1 is ||a|| in closed
form.  For d >= 3 (capped at ENUMERATION_CAP rows) and for `split_bound`,
the Gram sums of all 2^(m-1) splits come from one subset-sum table built by
doubling, one vectorized add per row, and each sum adds its rows in
increasing index order.  Gram sums, windows included, hold the upper
triangle row by row for every d (`_packed_gram_index`).  Every split gets
the AM-GM determinant bound lambda_min >= det G / (tr G/(d-1))^(d-1) on
both sides, and the exact lambda_min is taken only where that bound comes
within a roundoff margin of its chunk's best exact value: the same bits as
scoring every split, while on Gaussian matrices of 16 to 21 rows 0.1-5% of
the splits get an exact lambda_min.  Complex d = 2 searches an angle grid
and then polls, both through one ratio kernel built per matrix: the squared
moduli come from the 2 x 2 Gram, the cross term from one real (2m x 6)
product per batch of pairs.  The pair search accepts a move only when it
gains more than the matrix's roundoff scale eps * ||A||_F^2, so its results
scale with A.  Every route reports L^2 <= 8 eps ||A||_F^2 as L = 0, the one
case of beta = inf.  The upper constant is always the spectral norm.  Also
provides the universal condition-number floors and a derivative-free
optimizer probing the best m x 2 real frame.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import cache

import numpy as np

from . import workers
from .linalg import (
    Field,
    FieldMismatchError,
    dist,
    eigh_with_vectors,
    eigvals_2x2_batch,
    field_of,
    phaseless_map,
    spectral_norm,
)

ENUMERATION_CAP = 24
FRAME_ROW_CAP = 16  # optimize_frame_r2: the largest frames its search has been run at
ENUM_CHUNK_BITS = 16  # masks per enumeration chunk: 2^ENUM_CHUNK_BITS
ENUM_CHUNK = 1 << ENUM_CHUNK_BITS
PRUNE_PROBES = 64  # splits per chunk scored exactly to set its incumbent
PRUNE_MARGIN = 8  # bound pruning slack: PRUNE_MARGIN * d^2 * eps * ||A||_F^2
D2_GRID = 64  # complex d = 2 seeds: D2_GRID x 2*D2_GRID angle grid
D2_GRID_CHUNK = 1 << 20  # grid columns per chunk times rows
PACE_WINDOW = 10  # _poll: iterations over which a state's pace is measured
POLL_BLOCK = 32  # _poll: iterations whose bases are drawn and factored at once
ZERO_ROUNDOFF_FACTOR = 8  # L^2 <= factor * eps * ||A||_F^2 is reported as L = 0: `_below_roundoff`

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
    """`splits_scored` (exact method only): splits whose exact lambda_min was taken."""

    upper: float
    lower: float
    beta: float
    method: str
    lower_certificate: tuple[int, ...] | PairCertificate | None = None
    bounds: dict = dc_field(default_factory=dict)
    splits_scored: int | None = None


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


@cache
def _packed_gram_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the entries of a d x d Gram matrix sit in a packed row: the upper triangle, row by row.

    Entry k is G[rows[k], cols[k]] (np.triu_indices(d)), and at[i, j] =
    at[j, i] is the position of G[i, j], so g[..., at] unpacks packed rows
    to full symmetric matrices.  Read-only, shared by every caller.
    """
    rows, cols = np.triu_indices(d)
    at = np.empty((d, d), dtype=np.intp)
    at[rows, cols] = at[cols, rows] = np.arange(rows.size)
    for index in (rows, cols, at):
        index.setflags(write=False)
    return rows, cols, at


def _subset_gram_terms(A: np.ndarray) -> np.ndarray:
    """Per-row rank-1 Gram terms of real A (..., m, d), packed: shape (..., m, d(d+1)/2).

    C-contiguous, unlike the product of fancy indexing on the last axis, so
    a sum over the rows adds them one after another in index order, not
    pairwise.
    """
    rows, cols, _ = _packed_gram_index(A.shape[-1])
    return np.ascontiguousarray(A[..., rows] * A[..., cols])


def _packed_trace(g: np.ndarray, d: int) -> np.ndarray:
    """Traces of packed Gram rows g (..., d(d+1)/2), the diagonal added in order."""
    return sum(g[..., k] for k in _packed_gram_index(d)[2].diagonal())


def _lambda_min_batch(g: np.ndarray, d: int) -> np.ndarray:
    """lambda_min, clamped at 0, of many Gram sums packed as by `_subset_gram_terms`.

    d = 2 in closed form, every other d by batched eigvalsh of the unpacked
    matrices (exact for d = 1).
    """
    if d == 2:
        return eigvals_2x2_batch(g)[0]
    return np.maximum(np.linalg.eigvalsh(g[:, _packed_gram_index(d)[2]])[:, 0], 0.0)


def _lambda_min_lower_batch(g: np.ndarray, d: int) -> np.ndarray:
    """Lower bounds on lambda_min of many PSD Gram sums, packed as for `_lambda_min_batch`.

    By AM-GM on the other d-1 eigenvalues, whose sum is at most the trace t,
    det G <= lambda_min (t/(d-1))^(d-1).  The bound t (d-1)^(d-1) det(G/t)
    is taken on G/t, whose entries are at most 1, so it cannot overflow or
    underflow at any accepted scale; d = 1 is exact, and a zero or negative
    trace gives 0.  No trigonometry and no eigensolver: d <= 3 by cofactors,
    d >= 4 by a batched LU determinant of the unpacked matrices.
    """
    if d == 1:
        return g[:, 0]
    at = _packed_gram_index(d)[2]
    t = _packed_trace(g, d)
    x = g * np.divide(1.0, t, out=np.zeros_like(t), where=t > 0)[:, None]
    if d == 2:
        det = x[:, at[0, 0]] * x[:, at[1, 1]] - x[:, at[0, 1]] ** 2
    elif d == 3:
        entries = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
        a, b, c, p, q, s = (x[:, at[i, j]] for i, j in entries)
        det = a * (b * c - s * s) - p * (p * c - s * q) + q * (p * s - b * q)
    else:
        det = np.linalg.det(x[:, at])
    return t * det * float((d - 1) ** (d - 1))


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


def _chunk_gram_sums(terms: np.ndarray, low: np.ndarray, lo: int) -> np.ndarray:
    """Packed Gram sums, shape (2, k, n), of the n subsets in the chunk of masks
    from `lo` and of their complements.

    `low` is the subset-sum table of the first log2(n) rows; the chunk copies
    it and adds the rows set in the high bits of `lo`, so every sum still
    adds its rows in increasing index order.  A complement's sum is the total
    of all rows less its subset's.  Both sides share one block: glibc raises
    its trim threshold to twice the largest block it has unmapped, and a
    chunk's temporaries stay under twice this block, so a worker's next chunk
    reuses their pages instead of faulting them in again (about 5,100 minor
    faults per 19 x 3 call with two separate blocks).
    """
    g = np.empty((2,) + low.shape)
    subset, complement = g
    np.copyto(subset, low)
    for j in range(low.shape[1].bit_length() - 1, terms.shape[0] - 1):
        if (lo >> j) & 1:
            subset += terms[j][:, None]
    np.subtract(terms.sum(axis=0)[:, None], subset, out=complement)
    return g


def _reduce_over_splits(A: np.ndarray, combine, threads: int = 1) -> tuple[float, int, int]:
    """Least combine(lambda_min(G_I), lambda_min(G_{I^c})) over all row splits.

    Masks range over subsets of the first m-1 rows, so each pair {I, I^c} is
    visited exactly once (the last row always sits in the complement), in
    fixed chunks of ENUM_CHUNK masks, over `threads` workers for d <= 3 and
    serially for d >= 4: there the bound's batched np.linalg.det does not
    overlap across threads, so a pool loses time.  `combine` is
    np.add (the exact L^2) or np.maximum (`split_bound`).  Returns (value,
    mask, scored): the least value, the first mask attaining it, and the
    number of splits whose exact lambda_min was taken.

    A chunk is pruned before any exact eigenvalue is taken.  Every split
    gets the determinant bound of both sides (`_lambda_min_lower_batch`),
    combined the same way; the PRUNE_PROBES splits with the smallest
    combined bound are scored exactly, and their best value is the chunk's
    incumbent.  Only splits whose bound is at most incumbent + margin are
    scored exactly, and the first least value among them in mask order is
    the chunk's.  The pruning uses the chunk's own incumbent only, so the
    result and the count do not depend on `threads`.

    Exactness: with margin = PRUNE_MARGIN * d^2 * eps * ||A||_F^2, every
    split's computed bound is at most its computed exact value plus the
    margin, so every split attaining the chunk's least computed value is
    kept, and the value and mask are bit-identical to scoring every split.
    Per side with trace t, the bound t (d-1)^(d-1) det(G/t) is rounded by at
    most about 2 d^2 eps t: det(G/t) is a cofactor form (d <= 3) or a
    partial-pivoting LU of the unpacked matrix (d >= 4), of entries at most
    1, and a determinant error is at most d times the backward error of G/t
    times the product of the other eigenvalues, which AM-GM bounds by
    (d-1)^-(d-1).  The 2 x 2 form and eigvalsh are backward stable, within
    about d eps t of the true lambda_min.  The traces of the two sides sum
    to ||A||_F^2, and the combine rounds by at most 2 eps ||A||_F^2, so a
    factor of 2 d^2 + d + 2 suffices and 8 d^2 leaves room.  Measured on
    10^6 stressed Gram matrices (d = 2..8; coincident, clustered, singular
    and graded spectra), the computed bound never exceeded the computed
    lambda_min by more than 1.2 eps t.
    """
    m, d = A.shape
    terms = _subset_gram_terms(A)
    low = _subset_sums(terms[: min(m - 1, ENUM_CHUNK_BITS)].T)
    margin = PRUNE_MARGIN * d * d * np.finfo(float).eps * float(np.sum(A * A))

    def do_chunk(rng: tuple[int, int]):
        lo, _ = rng
        g_subset, g_complement = _chunk_gram_sums(terms, low, lo)

        def exact(cols):
            return combine(
                _lambda_min_batch(g_subset[:, cols].T, d),
                _lambda_min_batch(g_complement[:, cols].T, d),
            )

        bound = combine(
            _lambda_min_lower_batch(g_subset.T, d), _lambda_min_lower_batch(g_complement.T, d)
        )
        probes = np.argpartition(bound, min(PRUNE_PROBES, bound.size) - 1)[:PRUNE_PROBES]
        keep = bound <= exact(probes).min() + margin
        kept = np.flatnonzero(keep)
        values = exact(kept)
        k = int(np.argmin(values))
        scored = kept.size + int(np.count_nonzero(~keep[probes]))
        return float(values[k]), lo + int(kept[k]), scored

    chunks = workers.chunk_ranges(1 << (m - 1), ENUM_CHUNK)
    results = workers.run_indexed(do_chunk, chunks, threads if d <= 3 else 1)
    value, mask = min((value, mask) for value, mask, _ in results)
    return value, mask, sum(scored for _, _, scored in results)


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

    That is the roundoff of the split sums and their lambda_min, and of the
    pair kernels' sums over the rows, so such a lower constant is reported
    as 0 (beta = inf) by both routes for every d.  A nonzero L thus has
    L/U > sqrt(8 eps), about 4.2e-8.
    """
    return lower_sq <= ZERO_ROUNDOFF_FACTOR * np.finfo(float).eps * fro_sq


def _lower_exact_windows(A: np.ndarray):
    """Exact lower constants of a batch of real m x 2 matrices over quarter windows.

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

    A has shape (B, m, 2), at O(m log m) per matrix.  The rows are sorted
    stably by angle; window sums are differences of prefix sums of the
    doubled Gram terms.  A window starts at the first row of its tie group
    (a running maximum) and ends at the first angle, or angle + pi, that
    reaches its start + pi/2: one stable argsort per matrix of the queries
    followed by the angles, so a query sorts before the angles it ties with.
    Returns (lower_sq, gram, split): per matrix the least window value L^2,
    0 below its roundoff (`_below_roundoff`), and the packed Gram of all
    rows (`_subset_gram_terms`); `split(b)` is an optimal split of matrix b,
    sorted row indices with row m-1 in the complement.
    """
    B, m, _ = A.shape
    angle = np.mod(np.arctan2(A[..., 1], A[..., 0]), np.pi)
    order = np.argsort(angle, axis=1, kind="stable")
    index = np.arange(m)
    frame = np.arange(B)
    flat = (order + m * frame[:, None]).T  # layout (position, frame) from here on
    angle = angle.ravel()[flat]
    rows = A.reshape(-1, 2)[flat]
    terms = _subset_gram_terms(rows)
    prefix = np.zeros((2 * m + 1, B, 3))
    np.cumsum(np.concatenate([terms, terms]), axis=0, out=prefix[1:])
    gram = prefix[m]
    start = np.zeros((m, B), dtype=np.intp)
    start[1:] = np.where(angle[1:] > angle[:-1], index[1:, None], 0)
    np.maximum.accumulate(start, axis=0, out=start)
    keys = np.concatenate([angle + np.pi / 2, angle, angle + np.pi]).T
    queries = np.flatnonzero(np.argsort(keys, axis=1, kind="stable") < m).reshape(B, m).T
    end = queries - (3 * m * frame + index[:, None])
    prefix = prefix.reshape(-1, 3)
    window = prefix.take(end * B + frame, axis=0) - prefix.take(start * B + frame, axis=0)
    tot = eigvals_2x2_batch(window)[0] + eigvals_2x2_batch(gram - window)[0]
    lower_sq = tot.min(axis=0)
    lower_sq[_below_roundoff(lower_sq, _packed_trace(gram, 2))] = 0.0

    def split(b: int) -> tuple[int, ...]:
        k = int(np.argmin(tot[:, b]))
        inside = np.zeros(m, dtype=bool)
        inside[order[b, np.arange(start[k, b], end[k, b]) % m]] = True
        if inside[m - 1]:
            inside = ~inside
        return tuple(np.flatnonzero(inside).tolist())

    return lower_sq, gram, split


def lower_lipschitz_exact_real(
    A: np.ndarray, threads: int = 1, stats: dict | None = None
) -> tuple[float, tuple[int, ...]]:
    """Exact optimal lower constant of a real matrix, with a minimizing subset.

    Minimizes sqrt(lambda_min(G_I) + lambda_min(G_{I^c})) over row splits;
    the empty side contributes 0.  Returns (value, subset indices): sorted,
    0-based, with row m-1 always in the complement.  d = 1 is ||a|| (every
    split has the value sum a_i^2; the subset is empty) and d = 2 scores
    quarter windows in O(m log m), both for any m.  d >= 3 enumerates the
    splits (over `threads` workers for d = 3, serially for d >= 4), up to
    ENUMERATION_CAP rows, and takes the exact lambda_min only of the splits
    whose determinant bound,
    lambda_min >= det G / (tr G / (d-1))^(d-1) on each side, comes within
    the roundoff margin of `_reduce_over_splits` of the best exact value in
    its chunk; value and subset are bit-identical to scoring every split.
    For every d, an L^2 below roundoff (`_below_roundoff`) is reported as
    0.  If `stats` is a dict, stats["splits_scored"] is set to the number of
    splits whose exact lambda_min was taken: 0 for d = 1, the m windows for
    d = 2.
    """
    m, d = A.shape
    _require_real_enumerable(A, capped=d >= 3)
    if d == 1:
        value, subset, scored = float(np.linalg.norm(A)), (), 0
    elif d == 2:
        lower_sq, _, split = _lower_exact_windows(A[None])
        value, subset, scored = float(np.sqrt(lower_sq[0])), split(0), m
    else:
        best_val, best_mask, scored = _reduce_over_splits(A, np.add, threads)
        value = 0.0 if _below_roundoff(best_val, float(np.sum(A * A))) else float(np.sqrt(best_val))
        subset = tuple(i for i in range(m - 1) if (best_mask >> i) & 1)
    if stats is not None:
        stats["splits_scored"] = scored
    return value, subset


def split_bound(A: np.ndarray, threads: int = 1) -> float:
    """Min over row splits of the larger of the two smallest-eigenvalue roots.

    Sandwiches the exact lower constant within a factor of sqrt(2).  The
    same pruned enumeration as `lower_lipschitz_exact_real`, with the two
    sides' lambda_min and their determinant bounds combined by max rather
    than sum; sqrt is monotone and correctly rounded, so the root of the
    least max is bit-identical to the least max of the roots.
    """
    _require_real_enumerable(A)
    return float(np.sqrt(_reduce_over_splits(A, np.maximum, threads)[0]))


def _scale_step(p, r, q):
    """Values of (p - 2tq + t^2 r)/(1 + t^2) at t = 0, 1 and t*, and t*.

    The interior critical point solves q t^2 + (r - p) t - q = 0; t* is its
    positive root in closed form, clamped to [0, 1] (0 where q = 0 and where
    the root is NaN, 1 where it overflows).  Works on arrays and on scalars.
    """
    pr = p - r
    disc = np.sqrt(pr * pr + 4 * q * q)
    t_star = np.zeros_like(q)
    np.divide(pr + disc, 2 * q, out=t_star, where=q > 0)
    t_star = np.minimum(np.fmax(t_star, 0.0), 1.0)
    tt = t_star * t_star
    at_star = p - 2 * t_star * q
    at_star += tt * r
    at_star /= 1 + tt
    return (p, (p - 2.0 * q + r) / 2.0, at_star), t_star


def _min_over_scale(p: np.ndarray, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Columnwise min over t in [0,1] of (p - 2tq + t^2 r)/(1 + t^2)."""
    (at_zero, at_one, at_star), _ = _scale_step(p, r, q)
    return np.minimum(np.minimum(at_zero, at_one), at_star)


def _ratio_sq_min_over_scale(A: np.ndarray, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Columnwise min over t in [0,1] of |||Ax| - t|Au|||^2 / (1 + t^2).

    X, U hold unit orthogonal pairs.  With p = ||Ax||^2, r = ||Au||^2 and
    q = sum_i |a_i x||a_i u|, the objective is (p - 2tq + t^2 r)/(1 + t^2).
    """
    AX = np.abs(A @ X)
    AU = np.abs(A @ U)
    q = (AX * AU).sum(axis=0)
    AX *= AX
    AU *= AU
    return _min_over_scale(AX.sum(axis=0), AU.sum(axis=0), q)


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
        w_top = w[:m]
        w_top += w[m:]
        np.sqrt(w_top, out=w_top)
        return _min_over_scale(form(X), form(U), ones @ w_top)

    return ratio


def _orthonormalize_batch(W: np.ndarray, d: int):
    """Columns (x_raw ; u_raw) of W, (2d, cols) -> unit x, unit u with <x, u> = 0; flags failures.

    X and U come back as (d, cols), column j orthonormalized from column j
    of W.  A failed column is divided by 1.0 instead of its norm, which
    leaves it unchanged, so no masked gather or scatter is needed.  Every
    operation runs along the columns, and the sums over the d entries of a
    column are plain numpy reductions over axis 0.
    """
    X0, U0 = W[:d], W[d:]
    nx = np.linalg.norm(X0, axis=0)
    ok = nx > 1e-12
    X = X0 / np.where(ok, nx, 1.0)
    U = (X.conj() * U0).sum(axis=0) * X
    np.subtract(U0, U, out=U)
    nu = np.linalg.norm(U, axis=0)
    ok &= nu > 1e-12
    U /= np.where(ok, nu, 1.0)
    return X, U, ok


def _pair_objective(ratio, d: int):
    """Squared pair ratio of raw (x_raw ; u_raw) columns; inf where they degenerate.

    `ratio(X, U)` is the columnwise kernel of the matrix, d the length of x.
    """

    def objective(W: np.ndarray) -> np.ndarray:
        X, U, ok = _orthonormalize_batch(W, d)
        return np.where(ok, ratio(X, U), np.inf)

    return objective


def _poll_directions(rng, iterations: int, sets: int, n: int, complex_states: bool):
    """Poll directions of `iterations` consecutive `_poll` iterations, one block.

    One rng.standard_normal((iterations * sets, n, n)) call and one stacked
    QR: the same draws and the same bases, bit for bit, as `sets` separate
    (n, n) draws and QRs per iteration.  Entry i is the (n, D) matrix of
    iteration i's directions as columns: +Q and -Q of each basis in turn,
    then i times all of those for complex states.
    """
    Q, _ = np.linalg.qr(rng.standard_normal((iterations * sets, n, n)))
    Q = Q.reshape(iterations, sets, 1, n, n)
    dirs = np.concatenate([Q, -Q], axis=2).transpose(0, 3, 1, 2, 4)
    dirs = dirs.reshape(iterations, n, 2 * sets * n)
    if complex_states:
        dirs = np.concatenate([dirs, 1j * dirs], axis=2)
    return dirs


def _poll(objective, Z0, rng, h0, hmin, max_iter, shrink, min_gain, expand=1.0, sets=1, keep=None):
    """Batched randomized pattern search, one state per row of Z0.

    Each iteration polls +/- the columns of `sets` random orthonormal bases
    (and i times those directions for complex states) around every state
    whose step is still above `hmin`.  A state moves to its best candidate
    when that lowers its value by more than `min_gain`, and its step grows
    by `expand`; otherwise the step shrinks by `shrink`.  `min_gain` is in
    the objective's units: the pair searches pass their matrix's roundoff
    scale eps * ||A||_F^2, which scales with the objective, and the frame
    optimizer, whose objective beta has no units, passes 1e-15.  The
    objectives are non-smooth, so
    randomized polling avoids coordinate-direction stalls.  `objective(C)`
    scores the columns of C, shape (n, count): inside the search the states
    and their candidates are columns, so each step runs along the long axis.
    Candidates are ordered by state, then by direction.

    The bases are drawn in blocks of up to POLL_BLOCK iterations, never past
    `max_iter` (`_poll_directions`).  The generator state is saved before
    each block; if the search stops inside one, the state is restored and
    exactly the matrices of the iterations run are drawn again.  So the
    search uses, and leaves `rng` where, one standard_normal((n, n)) draw per
    basis per iteration would: callers that draw again afterwards see the
    same numbers.

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

    Returns (Z, vals, iterations, stop_reason, evaluations): Z has the
    states as rows, like Z0; stop_reason is "budget" if a state is still
    live at `max_iter`, else "converged"; evaluations counts the objective's
    columns, the start included.
    """
    ns, n = Z0.shape
    Z = np.array(Z0.T, order="C")
    vals = objective(Z)
    evaluations = ns
    h = np.full(ns, h0)
    recent = deque([vals.copy()], maxlen=PACE_WINDOW + 1)
    it = 0
    block, used, saved = (), 0, None
    live = h > hmin
    while it < max_iter and live.any():
        if used == len(block):
            saved = rng.bit_generator.state
            block = _poll_directions(
                rng, min(POLL_BLOCK, max_iter - it), sets, n, np.iscomplexobj(Z)
            )
            used = 0
        dirs = block[used]
        used += 1
        it += 1
        act = np.flatnonzero(live)
        cand = h[act, None] * dirs[:, None, :]
        cand += Z[:, act, None]
        v = objective(cand.reshape(n, -1)).reshape(len(act), -1)
        evaluations += v.size
        kb = np.argmin(v, axis=1)
        vb = v[np.arange(len(act)), kb]
        impr = vb < vals[act] - min_gain
        took = act[impr]
        Z[:, took] = cand[:, impr, kb[impr]]
        vals[took] = vb[impr]
        h[took] *= expand
        h[act[~impr]] *= shrink
        if keep is not None:
            recent.append(vals.copy())
            if len(recent) > PACE_WINDOW:
                target = np.partition(vals, keep - 1)[keep - 1]
                reach = (recent[0] - vals) / PACE_WINDOW * (max_iter - it)
                h[vals - reach > target] = 0.0
        live = h > hmin
    if used < len(block):
        rng.bit_generator.state = saved
        rng.standard_normal((used * sets, n, n))
    stop = "budget" if live.any() else "converged"
    return np.ascontiguousarray(Z.T), vals, it, stop, evaluations


def _pairs_complex_d2(theta: np.ndarray, gamma: np.ndarray):
    ct, st = np.cos(theta), np.sin(theta)
    eg = np.exp(1j * gamma)
    X = np.stack([ct.astype(complex), st * eg])
    U = np.stack([st.astype(complex), -ct * eg])
    return X, U


def _complex_d2_grid_seeds(ratio, m: int) -> tuple[np.ndarray, int]:
    """Search starts for complex d = 2: the 12 best pairs of a D2_GRID x 2*D2_GRID angle grid.

    Returns the starts as (x ; u) rows and the number of grid pairs scored.
    """
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
    return np.concatenate([X0.T, U0.T], axis=1), cols


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
    upper bound on the true optimal lower constant.  d = 1 and real d = 2
    need no search (stop_reason "closed_form"): d = 1 has the one pair
    (x, 0), and real d = 2 takes the exact value from the quarter windows
    and the pair from the lambda_min eigenvectors of the best split.
    Otherwise one pattern search runs; only its seeding differs.  Complex
    d = 2 starts from the 12 best pairs of a dense angle grid, scored like
    the search with the kernel of `_complex_d2_ratio`, one real (2m x 6)
    product per batch of pairs; d >= 3 starts from `restarts` random pairs
    and the coordinate pairs, scored by `_ratio_sq_min_over_scale`.  A move
    must gain more than the roundoff scale eps * ||A||_F^2, so the search
    of c*A takes the steps of the search of A, up to roundoff (exactly
    when c is a power of 2), and reports |c| times its value.  A value
    below roundoff (`_below_roundoff`) is reported as 0.  Only the best
    state is returned, so the search ends once it has converged and the
    other restarts have either converged or fallen too far behind to catch
    it in the iterations left (stop_reason "converged"), or at `max_iters`
    ("budget"); the certificate counts the pair-objective columns scored,
    the grid included.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    m, d = A.shape
    cplx = field_of(A) is Field.COMPLEX
    if d == 1 or (d == 2 and not cplx):
        if d == 1:
            # the only admissible pair is (x, 0); the ratio is ||A|| for any unit x
            x, y = np.ones(1, dtype=A.dtype), np.zeros(1, dtype=A.dtype)
        else:
            lower_sq, _, split = _lower_exact_windows(A[None])
            x, y = _pair_from_split(A, split(0))
        ratio = float(np.linalg.norm(phaseless_map(A, x) - phaseless_map(A, y)) / dist(x, y))
        lower = ratio if d == 1 else float(np.sqrt(lower_sq[0]))
        return lower, PairCertificate(
            x=x,
            y=y,
            ratio=ratio,
            iterations=0,
            evaluations=0,
            restarts=restarts,
            stop_reason="closed_form",
        )
    fro_sq = np.linalg.norm(A) ** 2
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    if d == 2:
        ratio_kernel = _complex_d2_ratio(A)
        Z0, grid = _complex_d2_grid_seeds(ratio_kernel, m)
        h0, hmin = 0.1, 1e-9
    else:
        n = 2 * d
        Z0 = rng.standard_normal((restarts, n))
        if cplx:
            Z0 = Z0 + 1j * rng.standard_normal((restarts, n))
        # coordinate pairs (e_i ; e_j), i != j, are cheap, deterministic extra seeds
        i, j = np.nonzero(~np.eye(d, dtype=bool))
        coord = np.zeros((i.size, n), dtype=Z0.dtype)
        coord[np.arange(i.size), i] = 1.0
        coord[np.arange(i.size), d + j] = 1.0
        Z0 = np.vstack([Z0, coord])

        def ratio_kernel(X, U):
            return _ratio_sq_min_over_scale(A, X, U)

        h0, hmin, grid = 0.5, tol * 1e-2, 0
    Z, vals, iterations, stop, evaluations = _poll(
        _pair_objective(ratio_kernel, d),
        Z0,
        rng,
        h0=h0,
        hmin=hmin,
        max_iter=max_iters,
        shrink=0.5,
        min_gain=np.finfo(float).eps * fro_sq,
        keep=1,
    )
    k = int(np.argmin(vals))
    # grid and coordinate seeds start finite and only improve: the best state is not degenerate
    X, U, _ = _orthonormalize_batch(Z[k : k + 1].T, d)
    best_x, best_u = X[:, 0], U[:, 0]
    AX, AU = np.abs(A @ best_x), np.abs(A @ best_u)
    values, t_star = _scale_step(*(float(v.sum()) for v in (AX**2, AU**2, AX * AU)))
    y = (0.0, 1.0, float(t_star))[int(np.argmin(values))] * best_u  # ties: 0, then 1, then t*
    ratio = float(np.linalg.norm(phaseless_map(A, best_x) - phaseless_map(A, y)) / dist(best_x, y))
    cert = PairCertificate(
        x=best_x,
        y=y,
        ratio=ratio,
        iterations=iterations,
        evaluations=grid + evaluations,
        restarts=restarts,
        stop_reason=stop,
    )
    if _below_roundoff(ratio**2, fro_sq):
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
    """beta = upper / lower, or inf when lower == 0: every route zeroes L by `_below_roundoff`."""
    if lower == 0:
        return float("inf")
    return float(upper / lower)


def condition_number(
    A: np.ndarray,
    method: str = METHOD_EXACT,
    restarts: int = 32,
    seed: int = 0,
    threads: int = 1,
) -> StabilityReport:
    """Assemble upper and lower constants into a stability report.

    `method` is "exact_real_subset" (real matrices; d >= 3 up to the
    enumeration cap) or "numeric_orth_pair".  beta is +inf when the lower
    constant is reported as 0, below the scale-invariant roundoff floor of
    `_below_roundoff`.
    """
    upper = upper_lipschitz(A)
    stats: dict = {}
    if method == METHOD_EXACT:
        lower, cert = lower_lipschitz_exact_real(A, threads=threads, stats=stats)
        certificate: tuple[int, ...] | PairCertificate = cert
    elif method == METHOD_NUMERIC:
        lower, certificate = lower_lipschitz_numeric(A, restarts=restarts, seed=seed)
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
        splits_scored=stats.get("splits_scored"),
    )


def _frame_beta_batch(rows: np.ndarray) -> np.ndarray:
    """Exact condition numbers of a batch of m x 2 real frames; inf where L is zero to roundoff."""
    lower_sq, g, _ = _lower_exact_windows(rows)
    _, lam_max = eigvals_2x2_batch(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lower_sq > 0, np.sqrt(lam_max / lower_sq), np.inf)


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
    parameters, with the exact condition number as the objective: the
    spectral norm over the lower constant from the quarter windows of
    `_lower_exact_windows`, O(m log m) per candidate frame.  Runs a joint
    multistart, an angles-only multistart at unit radii, then an
    expansion-polish of the best incumbents.
    """
    m = int(m)
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    if m > FRAME_ROW_CAP:
        raise EnumerationCapError(
            m,
            FRAME_ROW_CAP,
            "optimize_frame_r2",
            "its search has been run only up to that size",
        )
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(202,)))

    # _poll scores columns; the frame builders take (and reduce along) rows
    def joint(C):
        return _frame_beta_batch(_frames_from_params(np.ascontiguousarray(C.T), m))

    def angles_only(C):
        return _frame_beta_batch(_frames_angles_only(np.ascontiguousarray(C.T), m))

    P_joint = np.concatenate(
        [
            rng.uniform(0, np.pi, (restarts, m - 1)),
            np.abs(1 + 0.3 * rng.standard_normal((restarts, m))),
        ],
        axis=1,
    )
    P_joint, v_joint, _, _, _ = _poll(
        joint, P_joint, rng, h0=0.6, hmin=1e-5, max_iter=budget, shrink=0.6, min_gain=1e-15
    )

    P_ang = rng.uniform(0, np.pi, (restarts, m - 1))
    P_ang, v_ang, _, _, _ = _poll(
        angles_only, P_ang, rng, h0=0.6, hmin=1e-5, max_iter=budget, shrink=0.6, min_gain=1e-15
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
        min_gain=1e-15,
        expand=1.8,
        sets=2,
    )
    k = int(np.argmin(v_pol))
    rows = _frames_from_params(polish[k : k + 1], m)[0]
    radii = np.linalg.norm(rows, axis=1)
    angles = np.mod(np.arctan2(rows[:, 1], rows[:, 0]), np.pi)
    return FramePolar(radii=radii, angles=angles), float(v_pol[k])
