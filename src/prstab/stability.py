"""Optimal Lipschitz bounds and condition numbers of phaseless measurement maps.

Two routes to the lower constant: the exact minimum over row splits (real
field) and constrained numerical minimization over orthogonal pairs (both
fields).  Real d = 2 is exact for every m on both routes: the m quarter
windows of the rows sorted by angle mod pi hold an optimal split, scored in
O(m log m) per matrix by one batched routine that also scores the frame
optimizer's candidates, and the numeric route reports that value with the
pair it yields (stop_reason "closed_form").  Real d = 1 is ||a|| in closed
form.  For real d >= 3 (capped at ENUMERATION_CAP rows) on both routes, and
for `split_bound` at every d, one serial engine finds the least split; the
numeric route reports its value with the pair of the best split
(stop_reason "exact") and searches only above the cap.  A batched alternation
between splits and the lambda_min eigenvectors of their two sides gives an
incumbent, and a depth-first branch and bound over the rows in norm order
proves it, pruning every node whose lambda_min bound exceeds the best value
by more than a roundoff margin.  The splits that survive are scored again
with their rows added in increasing index order, so value and split are the
bits of scoring all 2^(m-1) splits.  Gram sums, windows included, hold the
upper triangle row by row for every d (`_packed_gram_index`).  Complex
d = 2 searches the Bloch sphere: the pair objective depends only on the
Bloch vector n of x, through per-row terms built once per matrix, so the
state is a 3-vector, seeded from a Fibonacci lattice, and a batch of
points costs two (m x 3) products; with at most 3 nonzero rows L = 0 in
closed form.  The pair search accepts a move only when it gains more than
the matrix's roundoff scale eps * ||A||_F^2, so its results scale with
A.  Every route reports L^2 <= 8 eps ||A||_F^2 as L = 0, the one case of
beta = inf.  The upper constant is always the spectral norm.  Also
provides the universal condition-number floors and a derivative-free
optimizer probing the best m x 2 real frame.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import cache

import numpy as np

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
SPLIT_STARTS = 64  # _split_incumbent: alternation starts, drawn from SPLIT_SEED
SPLIT_SEED = 303
SPLIT_BATCH = 2048  # _reduce_over_splits: nodes expanded per branch-and-bound step
PRUNE_MARGIN = 8  # branch-and-bound slack: PRUNE_MARGIN * (m + d^2) * eps * ||A||_F^2
D2_SPHERE_POINTS = 2048  # complex d = 2 seeds: Fibonacci lattice points on the Bloch sphere
D2_GRID_CHUNK = 1 << 20  # lattice columns per chunk times rows
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
    search ended: "closed_form" (no search: d = 1 and real d = 2, where the
    ratio is the exact lower constant up to roundoff, and complex d = 2 with
    at most 3 nonzero rows, where L = 0 and the ratio is 0 to roundoff),
    "exact" (no search: real d >= 3 up to ENUMERATION_CAP rows, where the
    split engine's value is the lower constant and the ratio is that of its
    best split's pair, equal to it up to roundoff), "converged" (the
    search's best state has converged, and every other restart has
    converged too or could no longer catch it at its pace) or "budget" (the
    pattern search hit its iteration cap with such a step still above its
    floor).  `iterations` is 0 without a search.  `evaluations` counts the
    pair-objective columns scored, the complex d = 2 sphere lattice
    included; it is 0 for "closed_form" and the split engine's
    `nodes_scored` for "exact".  `restarts` counts the random restarts that
    ran: the requested number for the (x ; u) search, 0 for "closed_form",
    for "exact" and for the complex d = 2 search, which starts from a
    lattice.
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
    """`nodes_scored` (exact method only): the nodes `lower_lipschitz_exact_real` scored."""

    upper: float
    lower: float
    beta: float
    method: str
    lower_certificate: tuple[int, ...] | PairCertificate | None = None
    bounds: dict = dc_field(default_factory=dict)
    nodes_scored: int | None = None


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


def _split_values(terms: np.ndarray, masks: np.ndarray, combine, d: int) -> np.ndarray:
    """combine(lambda_min(G_I), lambda_min(G_{I^c})) of the splits I in `masks`, summed in index order.

    `terms` are the packed row terms of `_subset_gram_terms`, and bit i of a
    mask puts row i in I (row m-1 is never in I).  I's rows are added one
    by one in increasing index order, and G_{I^c} is terms.sum(axis=0) less
    G_I: the sums a subset-sum table built by doubling gives every split, so
    each value is the one scoring every split yields, to the last bit.
    """
    m, p = terms.shape
    g = np.zeros((masks.size, p))
    for j in range(m - 1):
        np.add(g, terms[j], out=g, where=((masks >> j) & 1).astype(bool)[:, None])
    return combine(_lambda_min_batch(g, d), _lambda_min_batch(terms.sum(axis=0) - g, d))


def _split_incumbent(A: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Masks of the splits a batched alternation ends at, from SPLIT_STARTS fixed random pairs.

    For unit u, v the split I = {i : <a_i,u>^2 <= <a_i,v>^2} has
    lambda_min(G_I) + lambda_min(G_{I^c}) <= sum_i min(<a_i,u>^2, <a_i,v>^2)
    (`_lower_exact_windows`), and the unit lambda_min eigenvectors of G_I and
    G_{I^c} score at most the split's value.  So alternating the two steps
    never raises the value.  Each step forms every start's two Gram sums by
    one 0/1 product against the row terms and takes their eigenvectors by
    one batched eigh; it stops when no start's split changes, or after
    m + SPLIT_STARTS steps.  The masks follow the split convention: row m-1
    sits in the complement.
    """
    m, d = A.shape
    W = np.random.default_rng(SPLIT_SEED).standard_normal((d, 2 * SPLIT_STARTS))
    W /= np.linalg.norm(W, axis=0)
    at = _packed_gram_index(d)[2]
    inside = None
    for _ in range(m + SPLIT_STARTS):
        AW = A @ W
        AW *= AW
        split = AW[:, :SPLIT_STARTS] <= AW[:, SPLIT_STARTS:]
        if inside is not None and np.array_equal(split, inside):
            break
        inside = split
        g = np.concatenate([inside, ~inside], axis=1).T.astype(float) @ terms
        W = eigh_with_vectors(g[:, at])[1][:, :, 0].T
    inside = inside[: m - 1] != inside[m - 1]
    return np.unique((inside.T.astype(np.int64) << np.arange(m - 1)).sum(axis=1))


def _reduce_over_splits(A: np.ndarray, combine) -> tuple[float, int, int]:
    """Least combine(lambda_min(G_I), lambda_min(G_{I^c})) over all row splits.

    `combine` is np.add (the exact L^2) or np.maximum (`split_bound`).
    Returns (value, mask, nodes): the least value, the least mask attaining
    it (row m-1 in the complement), bit-identical to scoring all 2^(m-1)
    splits by `_split_values`, and the number of nodes scored.

    The incumbent is the best of the alternation's splits
    (`_split_incumbent`), scored by `_split_values`; if it is zero to
    roundoff (`_below_roundoff`) it is returned at once, no node scored.
    Otherwise a depth-first branch and bound assigns the rows, sorted by
    norm (descending, stable), one at a time to side S (holding the first)
    or side T, expanding up to SPLIT_BATCH nodes per step.  A row adds a
    PSD term to its side's Gram sum, which by Weyl never lowers its
    lambda_min, so combine(lambda_min(G_S), lambda_min(G_T)) of the rows
    assigned so far, summed in norm order, bounds every completion.  A
    node whose bound exceeds the best value plus margin = PRUNE_MARGIN
    (m + d^2) eps ||A||_F^2 is pruned, and every surviving leaf is scored
    again by `_split_values`; only those values move the best value.  A
    node takes one new lambda_min and inherits its parent's for the other
    side; `nodes` counts them, the root included, and the leaves scored
    again.

    Exactness.  With u = eps/2 and F = ||A||_F^2, a Gram sum of k rows
    formed one add at a time, in any order, differs from the exact sum by
    a matrix with entries at most k u sum_r |a_ri a_rj| (the products'
    rounding included), so of 2-norm at most k u t, t the rows' trace; by
    Weyl, lambda_min moves by no more.  The complement's total of m rows,
    its subtraction and the combine add at most m u F, u F and u F, and
    the 2 x 2 closed form and eigvalsh are backward stable, within about
    d eps t.  Over both sides (traces adding to F, k <= m-1), a node's
    bound lies within (m/2 + d + 1/2) eps F of its exact value, and a
    leaf's `_split_values` value within (3m/2 + d + 1/2) eps F of its own.
    Every ancestor's exact bound is at most the leaf's exact value, and
    the best value is always some leaf's `_split_values` value, never
    below the least of them.  So no ancestor of a split attaining that
    least value exceeds the best value by more than (2m + 2d + 1) eps F,
    which the margin covers with room for the eigensolvers' constant:
    every such split is scored again, and the least (value, mask) among
    them is that of scoring every split.
    """
    m, d = A.shape
    terms = _subset_gram_terms(A)
    fro_sq = float(np.sum(A * A))
    margin = PRUNE_MARGIN * (m + d * d) * np.finfo(float).eps * fro_sq
    masks = _split_incumbent(A, terms)
    values = _split_values(terms, masks, combine, d)
    k = np.lexsort((masks, values))[0]
    best = (float(values[k]), int(masks[k]))
    if m == 1 or _below_roundoff(best[0], fro_sq):  # m = 1: the one split is the incumbent
        return (*best, 0)
    order = np.argsort(-np.sum(A * A, axis=1), kind="stable")
    root = np.stack([terms[order[0]], np.zeros_like(terms[0])])[None]
    lam = _lambda_min_batch(root.reshape(2, -1), d)[None]
    stack = [(1, root, lam, np.array([1 << int(order[0])], dtype=np.int64))]
    nodes = 1
    side = np.eye(2, dtype=bool)  # child c adds the next row to side c
    while stack:
        depth, g, lam, in_s = stack.pop()
        if in_s.size > SPLIT_BATCH:
            stack.append((depth, g[SPLIT_BATCH:], lam[SPLIT_BATCH:], in_s[SPLIT_BATCH:]))
            g, lam, in_s = g[:SPLIT_BATCH], lam[:SPLIT_BATCH], in_s[:SPLIT_BATCH]
        n, row = in_s.size, int(order[depth])
        grown = g + terms[row]
        lam_grown = _lambda_min_batch(grown.reshape(2 * n, -1), d).reshape(n, 2)
        g = np.where(side[:, None, :, None], grown, g).reshape(2 * n, 2, -1)
        lam = np.where(side[:, None, :], lam_grown, lam).reshape(2 * n, 2)
        in_s = np.concatenate([in_s | (1 << row), in_s])
        nodes += 2 * n
        keep = combine(lam[:, 0], lam[:, 1]) <= best[0] + margin
        if not keep.any():
            continue
        if depth + 1 < m:
            stack.append((depth + 1, g[keep], lam[keep], in_s[keep]))
            continue
        leaves = in_s[keep]
        leaves = np.where((leaves >> (m - 1)) & 1, leaves ^ ((1 << m) - 1), leaves)
        values = _split_values(terms, leaves, combine, d)
        nodes += leaves.size
        k = np.lexsort((leaves, values))[0]
        best = min(best, (float(values[k]), int(leaves[k])))
    return (*best, nodes)


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


def _lower_exact_real(A: np.ndarray) -> tuple[float, tuple[int, ...], int]:
    """(value, subset, nodes scored) of `lower_lipschitz_exact_real`, without its checks."""
    m, d = A.shape
    if d == 1:
        return float(np.linalg.norm(A)), (), 0
    if d == 2:
        lower_sq, _, split = _lower_exact_windows(A[None])
        return float(np.sqrt(lower_sq[0])), split(0), m
    best_val, best_mask, nodes = _reduce_over_splits(A, np.add)
    value = 0.0 if _below_roundoff(best_val, float(np.sum(A * A))) else float(np.sqrt(best_val))
    return value, tuple(i for i in range(m - 1) if (best_mask >> i) & 1), nodes


def lower_lipschitz_exact_real(
    A: np.ndarray, stats: dict | None = None
) -> tuple[float, tuple[int, ...]]:
    """Exact optimal lower constant of a real matrix, with a minimizing subset.

    Minimizes sqrt(lambda_min(G_I) + lambda_min(G_{I^c})) over row splits;
    the empty side contributes 0.  Returns (value, subset indices): sorted,
    0-based, with row m-1 always in the complement.  d = 1 is ||a|| (every
    split has the value sum a_i^2; the subset is empty) and d = 2 scores
    quarter windows in O(m log m), both for any m.  d >= 3, up to
    ENUMERATION_CAP rows, runs the split engine of `_reduce_over_splits`: an
    alternation for the incumbent, then a branch and bound over the rows in
    norm order, with every surviving split scored again in index order, so
    value and subset are bit-identical to scoring all 2^(m-1) splits.  For
    every d, an L^2 below roundoff (`_below_roundoff`) is reported as 0; if
    the incumbent is already there, so is its subset, and no node is
    scored.  If `stats` is a dict, stats["nodes_scored"] is set to the
    number of nodes scored: 0 for d = 1, the m windows for d = 2, and for
    d >= 3 the branch-and-bound nodes and the leaves scored again.  The
    work is done by `_lower_exact_real`, which the numeric route calls too.
    """
    _require_real_enumerable(A, capped=A.shape[1] >= 3)
    value, subset, nodes = _lower_exact_real(A)
    if stats is not None:
        stats["nodes_scored"] = nodes
    return value, subset


def split_bound(A: np.ndarray) -> float:
    """Min over row splits of the larger of the two smallest-eigenvalue roots.

    Sandwiches the exact lower constant within a factor of sqrt(2).  The
    split engine of `lower_lipschitz_exact_real` for every d, with the two
    sides' lambda_min and the branch and bound's bounds combined by max
    rather than sum; sqrt is monotone and correctly rounded, so the root of
    the least max is bit-identical to the least max of the roots.  A least
    max below roundoff (`_below_roundoff`) is reported as 0.
    """
    _require_real_enumerable(A)
    value = _reduce_over_splits(A, np.maximum)[0]
    return 0.0 if _below_roundoff(value, float(np.sum(A * A))) else float(np.sqrt(value))


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


def _bloch_terms(A: np.ndarray) -> np.ndarray:
    """Rows T_i = w_i s_i of complex m x 2 A, shape (m, 3), with no division.

    w_i = |a_i|^2 / 2 and s_i is the Bloch vector of conj(a_i)/|a_i|, so T_i
    = (|a_i1|^2 - |a_i2|^2, 2 Re(a_i1 conj a_i2), 2 Im(a_i1 conj a_i2)) / 2.
    For unit x with Bloch vector n (x x^H = (I + n0 sz + n1 sx + n2 sy)/2)
    and unit u orthogonal to x, |a_i x|^2 = w_i + T_i.n and |a_i u|^2 =
    w_i - T_i.n.
    """
    cross = A[:, 0] * A[:, 1].conj()
    return np.stack(
        [(np.abs(A[:, 0]) ** 2 - np.abs(A[:, 1]) ** 2) / 2, cross.real, cross.imag], axis=1
    )


def _bloch_objective(A: np.ndarray):
    """The squared pair ratio of one complex m x 2 A as a function of the Bloch vector of x.

    In C^2 the unit u orthogonal to x is fixed by x up to a phase, which no
    term sees, so the objective of `_ratio_sq_min_over_scale` depends only
    on the Bloch vector n of x: with P = ||A||_F^2 / 2 and c = sum_i T_i
    (`_bloch_terms`), p = P + c.n, r = P - c.n and q = sum_i |T_i x n| =
    sum_i sqrt((T_i.e1)^2 + (T_i.e2)^2) for the orthonormal tangent pair e1,
    e2 of n in the closed form of Duff et al. (JCGT 2017).  Each row keeps
    a roundoff of about eps |a_i|^2, also where n = +/-s_i, which the form
    w_i sqrt(1 - (s_i.n)^2) would lose to sqrt(eps).  The returned function
    scores raw (3, cols) columns, normalized inside: two (m x 3) @ (3 x
    cols) products per batch.
    """
    T = _bloch_terms(A)
    P = np.linalg.norm(A) ** 2 / 2
    c = T.sum(axis=0)

    def objective(V: np.ndarray) -> np.ndarray:
        N = V / np.linalg.norm(V, axis=0)
        n0, n1, n2 = N
        sign = np.copysign(1.0, n2)
        a = -1.0 / (sign + n2)
        b = n0 * n1 * a
        along_e1 = T @ np.stack([1.0 + sign * n0 * n0 * a, sign * b, -sign * n0])
        along_e2 = T @ np.stack([b, sign + n1 * n1 * a, -n1])
        along_e1 *= along_e1
        along_e2 *= along_e2
        along_e1 += along_e2
        np.sqrt(along_e1, out=along_e1)
        cn = c @ N
        return _min_over_scale(P + cn, P - cn, along_e1.sum(axis=0))

    return objective


def _bloch_pairs(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit x with Bloch vector n and unit u = (-conj x2, conj x1) orthogonal to it, per column.

    N holds unit Bloch vectors as columns (3, cols).  x is the larger
    column of the projector (I + n.sigma)/2, normalized: (1 + n0, n1 + i n2)
    where n0 >= 0, else (n1 - i n2, 1 - n0), so no angle is taken and x
    keeps its accuracy at the poles.
    """
    n0, n1, n2 = N
    X = np.where(n0 >= 0, np.stack([1 + n0, n1 + 1j * n2]), np.stack([n1 - 1j * n2, 1 - n0]))
    X /= np.linalg.norm(X, axis=0)
    return X, np.stack([-X[1].conj(), X[0].conj()])


def _bloch_zero_pair(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y = t*u with |Ax| = |Ay|, for complex m x 2 A with at most 3 nonzero rows.

    A unit n orthogonal to s_1 - s_2 and s_1 - s_3 (the nonzero rows' unit
    Bloch vectors) has s_i.n = kappa for every such row; flipped so that
    kappa <= 0, it gives |a_i x|^2 = w_i (1 + kappa) and |a_i u|^2 = w_i (1 -
    kappa) (`_bloch_terms`), so y = sqrt((1 + kappa)/(1 - kappa)) u, with
    t in [0, 1], matches every modulus.  n is the last right singular vector
    of the differences, which also covers zero rows and coincident s_i.
    """
    rows = A[np.linalg.norm(A, axis=1) > 0]
    S = 2 * _bloch_terms(rows / np.linalg.norm(rows, axis=1)[:, None])
    n = np.linalg.svd(np.vstack([S[1:] - S[:1], np.zeros((3, 3))]))[2][-1]
    kappa = float(S[0] @ n) if len(S) else 0.0
    if kappa > 0:
        n, kappa = -n, -kappa
    X, U = _bloch_pairs(n[:, None])
    return X[:, 0], np.sqrt((1 + kappa) / (1 - kappa)) * U[:, 0]


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


def _pair_objective(A: np.ndarray):
    """Squared pair ratio of A at raw (x_raw ; u_raw) columns; inf where they degenerate."""
    d = A.shape[1]

    def objective(W: np.ndarray) -> np.ndarray:
        X, U, ok = _orthonormalize_batch(W, d)
        return np.where(ok, _ratio_sq_min_over_scale(A, X, U), np.inf)

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


def _bloch_grid_seeds(objective, m: int) -> tuple[np.ndarray, int]:
    """Search starts for complex d = 2: the 12 best points of a Fibonacci lattice on S^2.

    The lattice has D2_SPHERE_POINTS points, scored in chunks of about
    D2_GRID_CHUNK / m columns.  Returns the starts as rows and the number of
    lattice points scored.
    """
    k = np.arange(D2_SPHERE_POINTS) + 0.5
    height = 1 - 2 * k / D2_SPHERE_POINTS
    radius = np.sqrt(1 - height * height)
    turn = np.pi * (3 - np.sqrt(5)) * k
    N = np.stack([height, radius * np.cos(turn), radius * np.sin(turn)])
    # chunk the lattice so m x cols work arrays stay modest at large m
    cols = N.shape[1]
    chunk = max(1, min(cols, D2_GRID_CHUNK // max(m, 1)))
    vals = np.empty(cols)
    for lo in range(0, cols, chunk):
        vals[lo : lo + chunk] = objective(N[:, lo : lo + chunk])
    return np.ascontiguousarray(N[:, np.argsort(vals)[:12]].T), cols


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


def _pair_search(A, restarts, max_iters, tol, seed):
    """Route 4 of `lower_lipschitz_numeric`: (x, y, iterations, evaluations, restarts, stop).

    Complex d = 2 searches 3-vector Bloch states (`_bloch_objective`) from
    the 12 best points of a lattice (`_bloch_grid_seeds`), which count as
    evaluations, and runs no random restart.  Other inputs search raw
    (x ; u) states from `restarts` random pairs and the coordinate pairs.  A
    move must gain more than eps * ||A||_F^2, so the search of c*A takes the
    steps of that of A, up to roundoff (exactly when c is a power of 2).
    Only the best state is returned, so the search stops once it has
    converged and the other restarts have converged or fallen too far
    behind to catch it in the iterations left ("converged"), or at
    `max_iters` ("budget").  y = t*u takes the best t in closed form.
    """
    m, d = A.shape
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    if d == 2:
        objective = _bloch_objective(A)
        Z0, grid = _bloch_grid_seeds(objective, m)
        h0, hmin, restarts = 0.1, 1e-9, 0
    else:
        n = 2 * d
        Z0 = rng.standard_normal((restarts, n))
        if field_of(A) is Field.COMPLEX:
            Z0 = Z0 + 1j * rng.standard_normal((restarts, n))
        # coordinate pairs (e_i ; e_j), i != j, are cheap, deterministic extra seeds
        i, j = np.nonzero(~np.eye(d, dtype=bool))
        coord = np.zeros((i.size, n), dtype=Z0.dtype)
        coord[np.arange(i.size), i] = 1.0
        coord[np.arange(i.size), d + j] = 1.0
        Z0 = np.vstack([Z0, coord])
        objective = _pair_objective(A)
        h0, hmin, grid = 0.5, tol * 1e-2, 0
    Z, vals, iterations, stop, evaluations = _poll(
        objective,
        Z0,
        rng,
        h0=h0,
        hmin=hmin,
        max_iter=max_iters,
        shrink=0.5,
        min_gain=np.finfo(float).eps * np.linalg.norm(A) ** 2,
        keep=1,
    )
    k = int(np.argmin(vals))
    best = Z[k : k + 1].T
    if d == 2:
        X, U = _bloch_pairs(best / np.linalg.norm(best))
    else:
        # coordinate seeds start finite and only improve: the best state is not degenerate
        X, U, _ = _orthonormalize_batch(best, d)
    x, u = X[:, 0], U[:, 0]
    AX, AU = np.abs(A @ x), np.abs(A @ u)
    values, t_star = _scale_step(*(float(v.sum()) for v in (AX**2, AU**2, AX * AU)))
    y = (0.0, 1.0, float(t_star))[int(np.argmin(values))] * u  # ties: 0, then 1, then t*
    return x, y, iterations, grid + evaluations, restarts, stop


def lower_lipschitz_numeric(
    A: np.ndarray,
    restarts: int = 32,
    max_iters: int = 4000,
    tol: float = 1e-9,
    seed: int = 0,
) -> tuple[float, PairCertificate]:
    """Best found value of the constrained orthogonal-pair minimization.

    Over pairs x, y = t*u with ||x|| = ||u|| = 1, <x, u> = 0 and t in [0, 1],
    the value is always an upper bound on the true optimal lower constant.
    The routes, in this order, each pick the pair:

    1. d = 1: the one pair (x, 0) ("closed_form").
    2. Real d = 2, and real d >= 3 up to ENUMERATION_CAP rows: the value of
       `lower_lipschitz_exact_real` to the bit and the pair of its split
       (`_pair_from_split`); "closed_form" for d = 2, and "exact", with the
       engine's nodes scored as evaluations, for d >= 3.
    3. Complex d = 2 with at most 3 nonzero rows, never injective (Bandeira,
       Cahill, Mixon and Nelson, ACHA 2014): 0 with the pair of
       `_bloch_zero_pair` ("closed_form").
    4. Otherwise one pattern search (`_pair_search`); `restarts`,
       `max_iters`, `tol` and `seed` reach only it.

    One tail scores the pair's ratio for the certificate; routes 1 and 4
    report it as the value, 0 below roundoff (`_below_roundoff`).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    m, d = A.shape
    lower, iterations, evaluations, ran, stop = None, 0, 0, 0, "closed_form"
    if d == 1:
        # the only admissible pair is (x, 0); the ratio is ||A|| for any unit x
        x, y = np.ones(1, dtype=A.dtype), np.zeros(1, dtype=A.dtype)
    elif field_of(A) is Field.REAL and (d == 2 or m <= ENUMERATION_CAP):
        lower, subset, nodes = _lower_exact_real(A)
        x, y = _pair_from_split(A, subset)
        if d > 2:
            evaluations, stop = nodes, "exact"
    elif d == 2 and np.count_nonzero(np.linalg.norm(A, axis=1)) <= 3:
        lower = 0.0
        x, y = _bloch_zero_pair(A)
    else:
        x, y, iterations, evaluations, ran, stop = _pair_search(A, restarts, max_iters, tol, seed)
    ratio = float(np.linalg.norm(phaseless_map(A, x) - phaseless_map(A, y)) / dist(x, y))
    if lower is None:
        lower = 0.0 if _below_roundoff(ratio**2, np.linalg.norm(A) ** 2) else ratio
    return lower, PairCertificate(x, y, ratio, iterations, evaluations, ran, stop)


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
) -> StabilityReport:
    """Assemble upper and lower constants into a stability report.

    `method` is "exact_real_subset" (real matrices; d >= 3 up to the
    enumeration cap) or "numeric_orth_pair", which gives the same lower
    constant, bit for bit, on real d = 2 and on real d >= 3 up to that cap,
    and searches otherwise.  beta is +inf when the lower constant is
    reported as 0, below the scale-invariant roundoff floor of
    `_below_roundoff`.
    """
    upper = upper_lipschitz(A)
    stats: dict = {}
    if method == METHOD_EXACT:
        lower, cert = lower_lipschitz_exact_real(A, stats=stats)
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
        nodes_scored=stats.get("nodes_scored"),
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
