import json
from collections import deque

import numpy as np
import pytest

from prstab import (
    Field,
    FieldMismatchError,
    condition_number,
    dist,
    harmonic_condition_number,
    harmonic_frame,
    harmonic_lower_constant,
    lower_lipschitz_exact_real,
    lower_lipschitz_numeric,
    optimize_frame_r2,
    phaseless_map,
    real_beta_lower_bound,
    sample_gaussian_matrix,
    split_bound,
    universal_lower_bound,
    upper_lipschitz,
    write_matrix,
)
from prstab.cli import main
from prstab.gaussian import GaussianExperiment, gaussian_beta_experiment
from prstab.linalg import GRAM_LIMIT
from prstab.stability import (
    METHOD_EXACT,
    METHOD_NUMERIC,
    PACE_WINDOW,
    POLL_BLOCK,
    ZERO_ROUNDOFF_FACTOR,
    EnumerationCapError,
    D2_SPHERE_POINTS,
    PairCertificate,
    _bloch_objective,
    _bloch_pairs,
    _bloch_terms,
    _frame_beta_batch,
    _lambda_min_batch,
    _lower_exact_windows,
    _orthonormalize_batch,
    _packed_gram_index,
    _pair_objective,
    _poll,
    _ratio_sq_min_over_scale,
    _reduce_over_splits,
    _scale_step,
    _split_values,
    _subset_gram_terms,
)
from prstab.linalg import eigvals_2x2_batch
from prstab.workers import chunk_ranges

THREE_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [2**-0.5, 2**-0.5]])
THREE_ROWS_LOWER = 0.5411961001461969  # sqrt(1 - 1/sqrt(2)), frozen from the
# brute-force oracle over all 2^3 subsets with reference eigenvalues


def brute_force_lower(A):
    """Independent oracle: all 2^m splits, reference eigensolver."""
    m = A.shape[0]
    best = np.inf
    best_I = ()
    for k in range(2**m):
        I = [i for i in range(m) if (k >> i) & 1]
        C = [i for i in range(m) if not (k >> i) & 1]
        lam_i = np.linalg.eigvalsh(A[I].conj().T @ A[I])[0] if I else 0.0
        lam_c = np.linalg.eigvalsh(A[C].conj().T @ A[C])[0] if C else 0.0
        val = max(lam_i, 0) + max(lam_c, 0)
        if val < best:
            best, best_I = val, tuple(I)
    return np.sqrt(best), best_I


def lower_exact_arcs(A):
    """Oracle for real m x 2: every cyclic run of the rows sorted by angle mod pi, O(m^2).

    A split realized by a signal pair is such a run, so the minimum over all
    runs equals the minimum over all splits.  Returns (value, subset) with
    the subset convention of `lower_lipschitz_exact_real`.
    """
    m = A.shape[0]
    order = np.argsort(np.mod(np.arctan2(A[:, 1], A[:, 0]), np.pi), kind="stable")
    terms = _subset_gram_terms(A[order])
    prefix = np.zeros((2 * m + 1, 3))
    np.cumsum(np.concatenate([terms, terms]), axis=0, out=prefix[1:])
    starts = np.arange(m)
    # run[s, k] sums the k sorted rows from position s on, cyclically
    run = prefix[starts[:, None] + starts[None, :]] - prefix[starts, None]
    tot = eigvals_2x2_batch(run)[0] + eigvals_2x2_batch(prefix[m] - run)[0]
    s, k = divmod(int(np.argmin(tot)), m)
    rows = order[(s + np.arange(k)) % m]
    if m - 1 in rows:
        rows = np.setdiff1d(np.arange(m), rows)
    return float(np.sqrt(tot[s, k])), tuple(int(i) for i in np.sort(rows))


def brute_force_split_bound(A):
    m = A.shape[0]
    best = np.inf
    for k in range(2**m):
        I = [i for i in range(m) if (k >> i) & 1]
        C = [i for i in range(m) if not (k >> i) & 1]
        lam_i = np.linalg.eigvalsh(A[I].conj().T @ A[I])[0] if I else 0.0
        lam_c = np.linalg.eigvalsh(A[C].conj().T @ A[C])[0] if C else 0.0
        best = min(best, max(np.sqrt(max(lam_i, 0)), np.sqrt(max(lam_c, 0))))
    return best


class TestUpperLipschitz:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_harmonic_frames(self, m):
        assert abs(upper_lipschitz(harmonic_frame(m).matrix) - np.sqrt(m / 2)) < 1e-12

    def test_zero_matrix(self):
        assert upper_lipschitz(np.zeros((3, 2))) == 0.0

    def test_three_row_example(self):
        assert abs(upper_lipschitz(THREE_ROWS) - np.sqrt(2)) < 1e-12


class TestExactLower:
    def test_harmonic_m3(self):
        val, _ = lower_lipschitz_exact_real(harmonic_frame(3).matrix)
        assert abs(val - np.sqrt(0.5)) < 1e-12

    def test_identity_has_no_phase_retrieval(self):
        val, _ = lower_lipschitz_exact_real(np.eye(2))
        assert val == 0.0

    def test_three_row_example_with_subset(self):
        val, subset = lower_lipschitz_exact_real(THREE_ROWS)
        assert abs(val - THREE_ROWS_LOWER) < 1e-12
        # rows 0 and 1 tie: either singleton is a minimizing split
        assert subset in {(0,), (1,)}
        assert abs(np.sqrt(split_value(THREE_ROWS, subset)) - THREE_ROWS_LOWER) < 1e-12

    def test_matches_brute_force_on_random_instances(self, real_corpus):
        for A in real_corpus[:40]:
            val, _ = lower_lipschitz_exact_real(A)
            ref, _ = brute_force_lower(A)
            assert abs(val - ref) < 1e-10

    def test_complex_rejected(self):
        with pytest.raises(FieldMismatchError):
            lower_lipschitz_exact_real(np.eye(2, dtype=complex))

    def test_cap_rejected(self):
        with pytest.raises(EnumerationCapError):
            lower_lipschitz_exact_real(np.ones((25, 3)))
        # d = 2 scores quarter windows, which need no cap
        val, _ = lower_lipschitz_exact_real(harmonic_frame(25).matrix)
        assert abs(val - harmonic_lower_constant(25)) < 1e-12

    def test_d1_closed_form(self):
        rng = np.random.default_rng(41)
        for m in range(1, 15):
            a = rng.standard_normal((m, 1))
            if m >= 3:
                a[1] = 0.0
            val, subset = lower_lipschitz_exact_real(a)
            assert subset == ()
            assert abs(val - brute_force_lower(a)[0]) <= 1e-13 * np.linalg.norm(a)
        a = rng.standard_normal((1000, 1))
        val, subset = lower_lipschitz_exact_real(a)
        assert val == pytest.approx(np.linalg.norm(a), rel=1e-15, abs=0) and subset == ()


def d2_corpus(seed: int = 2404):
    """Seeded m x 2 matrices, m = 1..14, two per m; the second of each pair
    carries a zero row and rows parallel and antiparallel to row 0."""
    rng = np.random.default_rng(seed)
    out = []
    for m in range(1, 15):
        out.append(rng.standard_normal((m, 2)))
        A = rng.standard_normal((m, 2))
        if m >= 2:
            A[m - 1] = 0.0
        if m >= 3:
            A[1] = 2.5 * A[0]
        if m >= 4:
            A[2] = -0.5 * A[0]
        out.append(A)
    return out


def split_value(A, subset):
    """lambda_min(G_I) + lambda_min(G_{I^c}) by a reference eigensolver."""
    C = [i for i in range(A.shape[0]) if i not in subset]
    lam = [np.linalg.eigvalsh(A[J].T @ A[J])[0] if J else 0.0 for J in (list(subset), C)]
    return max(lam[0], 0.0) + max(lam[1], 0.0)


class TestArcPath:
    """Real d = 2 exact lower constant over quarter windows, against the arc oracle."""

    def test_matches_brute_force_with_degenerate_rows(self):
        rng = np.random.default_rng(2405)
        for A0 in d2_corpus():
            for A in (A0, A0 * rng.uniform(0.01, 100.0, (A0.shape[0], 1))):
                U = upper_lipschitz(A)
                val, _ = lower_lipschitz_exact_real(A)
                for ref, _ in (lower_exact_arcs(A), brute_force_lower(A)):
                    assert abs(val**2 - ref**2) <= 1e-13 * U**2
                    # near L = 0 an oracle's own roundoff is of order sqrt(eps) U
                    if ref > 1e-6 * U:
                        assert abs(val - ref) <= 1e-13 * U

    def test_harmonic_frames(self):
        for m in range(3, 2001):
            val, _ = lower_lipschitz_exact_real(harmonic_frame(m).matrix)
            ref = harmonic_lower_constant(m)
            assert abs(val - ref) <= 1e-13 * ref

    def test_numeric_certificate(self):
        rng = np.random.default_rng(2406)
        for A in d2_corpus(seed=78) + [rng.standard_normal((m, 2)) for m in (50, 1000)]:
            U = upper_lipschitz(A)
            val, cert = lower_lipschitz_numeric(A)
            assert val == lower_lipschitz_exact_real(A)[0]
            assert (cert.iterations, cert.stop_reason) == (0, "closed_form")
            assert abs(np.linalg.norm(cert.x) - 1) <= 1e-15
            assert abs(cert.x @ cert.y) <= 1e-15
            assert 0.0 <= np.linalg.norm(cert.y) <= 1.0 + 1e-15
            num = np.linalg.norm(phaseless_map(A, cert.x) - phaseless_map(A, cert.y))
            ratio = num / dist(cert.x, cert.y)
            assert abs(ratio - val) <= 1e-13 * U
            assert cert.ratio == ratio

    def test_subset_certificate(self):
        for A in d2_corpus(seed=77):
            m = A.shape[0]
            val, subset = lower_lipschitz_exact_real(A)
            assert m - 1 not in subset
            assert list(subset) == sorted(set(subset))
            assert all(0 <= i < m for i in subset)
            assert abs(split_value(A, subset) - val**2) <= 1e-12 * upper_lipschitz(A) ** 2


class TestExactLowerHigherDim:
    """d >= 4 splits go through one batched eigensolver call."""

    @pytest.mark.parametrize("m,d", [(7, 4), (9, 4), (9, 5), (6, 6)])
    def test_matches_brute_force(self, m, d):
        A = np.random.default_rng(m * 10 + d).standard_normal((m, d))
        val, subset = lower_lipschitz_exact_real(A)
        ref, _ = brute_force_lower(A)
        assert abs(val**2 - ref**2) <= 1e-12 * upper_lipschitz(A) ** 2
        assert abs(split_value(A, subset) - val**2) <= 1e-12 * upper_lipschitz(A) ** 2
        assert abs(split_bound(A) - brute_force_split_bound(A)) < 1e-10


class TestExactD3NearlyEqualEigenvalues:
    """Exact d = 3 where the two smallest Gram eigenvalues nearly coincide below a large third.

    The tolerance is the enumeration's roundoff margin, 8 d^2 eps ||A||_F^2.
    """

    def test_clustered_rows_match_brute_force(self):
        # a trigonometric 3 x 3 closed form gave L^2 = 1.23e-7 here, 11x too high
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        g, g2 = rng.standard_normal(3), rng.standard_normal(3)
        A = np.array(
            [10 * q[:, 2], 1e-3 * q[:, 0], 1e-3 * q[:, 1], 10 * q[:, 2] + 1e-3 * g, 1e-3 * g2]
        )
        tol = 8 * 9 * np.finfo(float).eps * np.sum(A * A)
        val, subset = lower_lipschitz_exact_real(A)
        ref, _ = brute_force_lower(A)
        assert ref**2 < 2e-8
        assert abs(val**2 - ref**2) <= tol
        assert abs(split_value(A, subset) - val**2) <= tol

    def test_rotated_diagonal_gram(self):
        # diag(1e-6, 1e-6, 100) rotated: a trigonometric closed form returned 7.13e-7
        rng = np.random.default_rng(4)
        tol = 8 * 9 * np.finfo(float).eps * 100.0
        rows, cols, _ = _packed_gram_index(3)
        for _ in range(200):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            M = q @ np.diag([1e-6, 1e-6, 100.0]) @ q.T
            packed = M[rows, cols]
            assert abs(_lambda_min_batch(packed[None], 3)[0] - 1e-6) <= tol


ORACLE_CHUNK_BITS = 16  # masks per oracle chunk: 2^ORACLE_CHUNK_BITS


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


def oracle_split_sums(terms):
    """Packed Gram sums of the subsets of every split, one chunk of masks at a time.

    Yields (lo, sums), sums of shape (k, n) for the n masks from `lo`: the
    table of the first ORACLE_CHUNK_BITS rows, copied, with the rows set in
    the high bits of `lo` added, so every sum adds its rows in increasing
    index order.
    """
    m = terms.shape[0]
    low_rows = min(m - 1, ORACLE_CHUNK_BITS)
    low = _subset_sums(terms[:low_rows].T)
    for lo, _ in chunk_ranges(1 << (m - 1), 1 << ORACLE_CHUNK_BITS):
        g_subset = low.copy()
        for j in range(low_rows, m - 1):
            if (lo >> j) & 1:
                g_subset += terms[j][:, None]
        yield lo, g_subset


def unpruned_split_min(A):
    """Oracle: the split enumeration as it ran before pruning, every split scored exactly.

    The chunked subset-sum tables and lambda_min kernels of the enumeration
    the branch and bound replaced, reduced as it was: per chunk the first
    least value, then the least over chunks.  Returns ((L^2, first
    minimizing mask), split_bound).
    """
    m, d = A.shape
    terms = _subset_gram_terms(A)
    total = terms.sum(axis=0)
    exact, bound = [], []
    for lo, g_subset in oracle_split_sums(terms):
        lam_i = _lambda_min_batch(g_subset.T, d)
        lam_c = _lambda_min_batch((total[:, None] - g_subset).T, d)
        tot = lam_i + lam_c
        k = int(np.argmin(tot))
        exact.append((float(tot[k]), lo + k))
        bound.append(float(np.maximum(np.sqrt(lam_i), np.sqrt(lam_c)).min()))
    return min(exact), min(bound)


def pruning_corpus(m, d, rng):
    """Random rows; zero, parallel and repeated rows; integers with exact ties; m < 2d-1."""
    degenerate = rng.standard_normal((m, d))
    degenerate[0] = 0.0
    degenerate[1] = -2.5 * degenerate[2]
    degenerate[3] = degenerate[2]
    return [
        rng.standard_normal((m, d)),
        degenerate,
        rng.integers(-2, 3, (m, d)).astype(float),
        np.repeat(rng.integers(-1, 2, (m // 2 + 1, d)).astype(float), 2, axis=0)[:m],
        rng.standard_normal((min(m, 2 * d - 2), d)),
    ]


def zero_floor(A):
    return ZERO_ROUNDOFF_FACTOR * np.finfo(float).eps * np.sum(A * A)


def mask_of(subset):
    return sum(1 << i for i in subset)


class TestPrunedEnumeration:
    """The split engine, alternation and branch and bound, against the unpruned oracle, bit for bit."""

    @pytest.mark.parametrize(
        "m,d",
        [(m, d) for d in range(2, 6) for m in range(4, 20) if d <= 3 or m <= 13 or m in (16, 19)],
    )
    def test_matches_unpruned_oracle(self, m, d):
        rng = np.random.default_rng(1000 * d + m)
        corpus = pruning_corpus(m, d, rng)
        scales = (-12, -6, 0, 6, 12)
        if m > 13:
            # the oracle scores all 2^(m-1) splits, by eigvalsh for d >= 4
            corpus, scales = (corpus, (-12, 0, 12)) if d <= 3 else (corpus[2:3], (0,))
        for A0 in corpus:
            for k in scales:
                A = A0 * 10.0**k
                self.assert_matches_oracle(A)

    @staticmethod
    def assert_matches_oracle(A):
        m, d = A.shape
        floor = zero_floor(A)
        (oracle_sq, oracle_mask), oracle_bound = unpruned_split_min(A)
        value_sq, mask, scored = _reduce_over_splits(A, np.add)
        zero = oracle_sq <= floor
        if zero:
            # the incumbent may stop the search at any split below the floor
            assert value_sq <= floor
            assert _split_values(_subset_gram_terms(A), np.array([mask]), np.add, d)[0] == value_sq
        else:
            assert (value_sq, mask) == (oracle_sq, oracle_mask)
            assert scored > 0
        bound_sq = _reduce_over_splits(A, np.maximum)[0]
        if bound_sq > floor:
            assert np.sqrt(bound_sq) == oracle_bound
        assert split_bound(A) == (0.0 if bound_sq <= floor else oracle_bound)
        if d >= 3:
            stats = {}
            value, subset = lower_lipschitz_exact_real(A, stats=stats)
            assert value == (0.0 if zero else np.sqrt(oracle_sq))
            assert mask_of(subset) == mask
            assert stats == {"nodes_scored": scored}
        if m < 2 * d - 1:
            # below the injectivity count: some split has two rank-deficient sides
            assert value_sq <= 64 * np.finfo(float).eps * np.sum(A * A)

    @pytest.mark.parametrize("m,d,seed", [(14, 6, 3), (14, 4, 2), (16, 6, 4)])
    def test_matrices_the_numeric_route_misses(self, m, d, seed):
        # the gaussian sweep's pair search ends 10-47% above the exact L on these
        self.assert_matches_oracle(sample_gaussian_matrix(m, d, Field.REAL, seed=seed))

    def test_node_counts_are_pinned(self):
        # without the alternation's eigenvector step these take 1133 and 6506
        # nodes; without pruning, the whole tree (786431 and 1572863)
        for seed, shape, ceiling in ((19, (19, 3), 900), (20, (20, 5), 5000)):
            stats = {}
            lower_lipschitz_exact_real(np.random.default_rng(seed).standard_normal(shape), stats=stats)
            assert 0 < stats["nodes_scored"] <= ceiling

    def test_zero_incumbent_scores_no_node(self):
        # rank 2: scoring every split took 8,388,608 lambda_min pairs
        rng = np.random.default_rng(5)
        A = rng.standard_normal((24, 2)) @ rng.standard_normal((2, 3))
        stats = {}
        value, subset = lower_lipschitz_exact_real(A, stats=stats)
        assert value == 0.0 and stats == {"nodes_scored": 0}
        assert split_value(A, subset) <= zero_floor(A)
        assert split_bound(A) == 0.0 and _reduce_over_splits(A, np.maximum)[2] == 0

    def test_split_counts_of_closed_forms(self):
        rng = np.random.default_rng(20)
        for m, d, scored in ((9, 1, 0), (9, 2, 9), (40, 2, 40)):
            stats = {}
            lower_lipschitz_exact_real(rng.standard_normal((m, d)), stats=stats)
            assert stats == {"nodes_scored": scored}
        assert 0 < condition_number(rng.standard_normal((7, 3))).nodes_scored <= 64
        assert condition_number(rng.standard_normal((7, 3)), METHOD_NUMERIC).nodes_scored is None


class TestPackedLayout:
    """Packed Gram rows: the upper triangle, row by row, for every d."""

    @pytest.mark.parametrize("d", range(3, 7))
    def test_lambda_min_matches_eigvalsh_of_full_gram(self, d):
        # packed sums and full Grams add the same products in the same row order
        rng = np.random.default_rng(90 + d)
        A = rng.standard_normal((256, 2 * d, d)) * 10.0 ** rng.uniform(-6, 6, (256, 1, 1))
        A[:64, 1] = 0.0
        A[64:128, d:] = 0.0
        g = _subset_gram_terms(A).sum(axis=1)
        G = np.zeros((A.shape[0], d, d))
        for i in range(A.shape[1]):
            G += A[:, i, :, None] * A[:, i, None, :]
        rows, cols, at = _packed_gram_index(d)
        assert g.shape == (A.shape[0], d * (d + 1) // 2)
        assert np.array_equal(g, G[:, rows, cols]) and np.array_equal(g[:, at], G)
        expected = np.maximum(np.linalg.eigvalsh(G)[:, 0], 0.0)
        assert np.array_equal(_lambda_min_batch(g, d), expected)


def non_injective_corpus():
    """Real m x d matrices with m < 2d - 1 rows, d = 3..5: none separates signals."""
    for d in range(3, 6):
        for m in range(2, 2 * d - 1):
            for s in range(30):
                yield np.random.default_rng(1000 * d + 10 * m + s).standard_normal((m, d))


class TestExactZeroVerdict:
    """Exact d >= 3 reports L = 0 below roundoff, like every other route."""

    @pytest.mark.parametrize("shape,seed", [((2, 3), 3025), ((5, 4), 4062)])
    def test_found_matrices(self, shape, seed):
        # both reported a finite beta (2.3e9 and 1.3e9) from L of about 1e-9
        rep = condition_number(np.random.default_rng(seed).standard_normal(shape), METHOD_EXACT)
        assert rep.lower == 0.0 and rep.beta == np.inf

    def test_non_injective_corpus_at_every_scale(self):
        for A in non_injective_corpus():
            for k in (-6, 0, 6):
                rep = condition_number(A * 10.0**k, METHOD_EXACT)
                assert rep.lower == 0.0 and rep.beta == np.inf

    def test_injective_matrices_stay_nonzero(self, real_corpus):
        # A03's real corpus: Gaussian rows, m >= 2d - 1
        for A in real_corpus:
            for k in (-6, 0, 6):
                rep = condition_number(A * 10.0**k, METHOD_EXACT)
                assert rep.lower > 0.0 and np.isfinite(rep.beta)

    def test_cli_reports_inf(self, tmp_path, capsys):
        path = tmp_path / "a.mat"
        write_matrix(path, np.random.default_rng(3025).standard_normal((2, 3)))
        assert main(["analyze", "--matrix", str(path), "--method", "exact"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lower"] == 0.0 and report["beta"] == "inf"


def _split_bits(m: int) -> np.ndarray:
    """0/1 matrix of the 2^(m-1) split masks over the first m-1 rows."""
    n = 1 << (m - 1)
    return ((np.arange(n)[:, None] >> np.arange(m - 1)[None, :]) & 1).astype(float)


def einsum_split_min(rows):
    """Reference least split values L^2 of frames: split sums as an einsum over 0/1 masks."""
    m = rows.shape[1]
    terms = np.stack(
        [rows[:, :, 0] ** 2, rows[:, :, 0] * rows[:, :, 1], rows[:, :, 1] ** 2], axis=2
    )
    tot = terms.sum(axis=1)
    g_subset = np.einsum("nk,bkt->bnt", _split_bits(m), terms[:, : m - 1])
    g_complement = tot[:, None, :] - g_subset
    delta_sq = (eigvals_2x2_batch(g_subset)[0] + eigvals_2x2_batch(g_complement)[0]).min(axis=1)
    return delta_sq, tot


def einsum_frame_beta(rows):
    """Reference frame condition numbers over all 2^(m-1) splits."""
    delta_sq, tot = einsum_split_min(rows)
    lam_max = (tot[:, 0] + tot[:, 2]) / 2 + np.sqrt(
        ((tot[:, 0] - tot[:, 2]) / 2) ** 2 + tot[:, 1] ** 2
    )
    zero = delta_sq <= ZERO_ROUNDOFF_FACTOR * np.finfo(float).eps * (tot[:, 0] + tot[:, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(zero, np.inf, np.sqrt(lam_max / delta_sq))


def degenerate_frames(m, rng, count=64):
    """Random frames with a zero row, two parallel rows, rank one, half zero and tied angles."""
    rows = rng.standard_normal((count, m, 2)) * rng.uniform(0.1, 3.0, (count, m, 1))
    rows[1, m // 2] = 0.0
    rows[2, -1] = -2.5 * rows[2, 0]
    rows[3] = rows[3, :1] * rng.uniform(-2, 2, (m, 1))
    rows[4, : m // 2] = 0.0
    angles = rng.integers(0, 6, (8, m)) * np.pi / 6
    rows[8:16] = np.stack([np.cos(angles), np.sin(angles)], axis=2) * rng.integers(1, 4, (8, m, 1))
    return rows


class TestFrameWindows:
    """The batched quarter-window routine against B = 1 calls and the subset-sum oracle."""

    @pytest.mark.parametrize("m", range(3, 15))
    def test_batch_matches_single_calls_bitwise(self, m):
        rows = degenerate_frames(m, np.random.default_rng(600 + m))
        lower_sq, gram, split = _lower_exact_windows(rows)
        for b in range(rows.shape[0]):
            one_sq, one_gram, one_split = _lower_exact_windows(rows[b : b + 1])
            assert one_sq.tobytes() == lower_sq[b : b + 1].tobytes()
            assert one_gram.tobytes() == gram[b : b + 1].tobytes()
            assert one_split(0) == split(b)
            val, subset = lower_lipschitz_exact_real(rows[b])
            assert val == np.sqrt(lower_sq[b]) and subset == split(b)

    @pytest.mark.parametrize("m", range(3, 13))
    def test_matches_einsum_oracle(self, m):
        # the windows add rows in angle order, the oracle in index order: L^2
        # agrees to roundoff; beta's relative gap grows as L^2 shrinks, so only
        # its inf verdicts are compared
        rows = degenerate_frames(m, np.random.default_rng(500 + m))
        lower_sq, _, _ = _lower_exact_windows(rows)
        ref_sq, tot = einsum_split_min(rows)
        fro_sq = tot[:, 0] + tot[:, 2]
        assert np.all(np.abs(lower_sq - ref_sq) <= 8 * np.finfo(float).eps * fro_sq)
        beta = _frame_beta_batch(rows)
        assert np.array_equal(np.isinf(beta), np.isinf(einsum_frame_beta(rows)))
        assert np.isinf(beta[3]) and np.isfinite(beta[5:8]).all()


class TestSubsetSumTable:
    """The oracle's split sums add each split's rows as a 0/1 product does; `_split_values` agrees.

    The sums come from a subset-sum table built by doubling, and the
    engine's index-order rescoring reproduces the values scored from them.
    """

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("m", [4, 9, 19])
    def test_split_eigenvalues_match_matrix_product(self, m, d):
        rng = np.random.default_rng(70 * m + d)
        A = rng.standard_normal((m, d))
        A[1] = 0.0
        A[m // 2] = -1.5 * A[0]
        terms = _subset_gram_terms(A)
        total = terms.sum(axis=0)
        bits = _split_bits(m)
        for lo, sums in oracle_split_sums(terms):
            got = sums.T
            hi = lo + got.shape[0]
            sample = got[::61]
            values = _lambda_min_batch(sample, d) + _lambda_min_batch(total - sample, d)
            assert np.array_equal(_split_values(terms, np.arange(lo, hi)[::61], np.add, d), values)
            ref = bits[lo:hi] @ terms[: m - 1]
            assert got.shape == ref.shape
            if d == 1:
                # bits @ terms runs as a gemv here, whose summation order may differ
                assert np.max(np.abs(got - ref)) <= 1e-15 * total[0]
                continue
            assert np.array_equal(got, ref)
            for side, ref_side in ((got, ref), (total - got, total[None, :] - ref)):
                assert np.array_equal(_lambda_min_batch(side, d), _lambda_min_batch(ref_side, d))

    def test_rank_one_frame_is_infinite(self):
        # all rows parallel: L = 0, and the objective must not score roundoff as beta ~ 1e8
        rng = np.random.default_rng(507)
        rows = rng.standard_normal((9, 7, 2)) * rng.uniform(0.1, 3.0, (9, 7, 1))
        A = rows[3, :1] * rng.uniform(-2, 2, (7, 1))
        assert np.isinf(_frame_beta_batch(A[None])[0])
        assert np.isinf(condition_number(A).beta)


class TestBlochKernel:
    """The Bloch-sphere kernel against `_ratio_sq_min_over_scale`, column by column."""

    @staticmethod
    def assert_matches(A, N):
        got = _bloch_objective(A)(N)
        ref = _ratio_sq_min_over_scale(A, *_bloch_pairs(N))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.sum(np.abs(A) ** 2)

    @staticmethod
    def unit_columns(V):
        return V / np.linalg.norm(V, axis=0)

    def random_points(self, rng, n=64):
        return self.unit_columns(rng.standard_normal((3, n)))

    @staticmethod
    def complex_rows(rng, m):
        return (rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))) / np.sqrt(2)

    def test_random_matrices(self):
        rng = np.random.default_rng(71)
        for m in range(1, 201):
            self.assert_matches(self.complex_rows(rng, m), self.random_points(rng))

    def test_zero_and_parallel_rows(self):
        rng = np.random.default_rng(72)
        for m in (2, 5, 12, 40):
            A = self.complex_rows(rng, m)
            A[m // 2] = 0.0
            A[-1] = (0.3 - 1.7j) * A[0]
            self.assert_matches(A, self.random_points(rng))
            rank_one = A[:1] * (rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1)))
            self.assert_matches(rank_one, self.random_points(rng))

    def test_scaled_rows(self):
        rng = np.random.default_rng(73)
        for m in (3, 9, 30, 150):
            A = self.complex_rows(rng, m) * 10.0 ** rng.uniform(-3, 3, (m, 1))
            self.assert_matches(A, self.random_points(rng))

    def test_points_at_and_near_row_bloch_vectors(self):
        # at n = +/-s_i row i has |a_i u| = 0 or |a_i x| = 0: q keeps eps |a_i|^2 there
        rng = np.random.default_rng(74)
        poles = np.array([[1, 0], [0, 1], [1, 1j]], dtype=complex)
        for A in (poles, self.complex_rows(rng, 9), self.complex_rows(rng, 40)):
            S = self.unit_columns(_bloch_terms(A).T)
            tangent = np.cross(S.T, rng.standard_normal((S.shape[1], 3))).T
            near = self.unit_columns(S + 1e-10 * self.unit_columns(tangent))
            self.assert_matches(A, np.concatenate([S, -S, near, -near], axis=1))

    def test_pairs_have_their_bloch_vector(self):
        rng = np.random.default_rng(75)
        poles = np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])
        N = np.concatenate([self.random_points(rng), poles], axis=1)
        X, U = _bloch_pairs(N)
        assert np.allclose(np.linalg.norm(X, axis=0), 1.0, rtol=0, atol=1e-15)
        assert np.max(np.abs((X.conj() * U).sum(axis=0))) <= 1e-15
        bloch = np.stack(
            [np.abs(X[0]) ** 2 - np.abs(X[1]) ** 2, 2 * (X[0].conj() * X[1]).real,
             2 * (X[0].conj() * X[1]).imag]
        )
        assert np.max(np.abs(bloch - N)) <= 1e-15


class TestBlochSearch:
    """The complex d = 2 search on the Bloch sphere against the former angle-grid search."""

    # L of the former 64 x 128 angle grid and (x ; u) poll, recorded from
    # lower_lipschitz_numeric(sample_gaussian_matrix(m, 2, COMPLEX, seed=s), seed=s)
    FORMER_LOWER = [
        (4, 0, 0.09518564191550828),
        (4, 1, 0.10467576734229712),
        (4, 2, 0.12617394654720623),
        (5, 0, 0.33997419697115777),
        (5, 1, 0.458260141715696),
        (5, 2, 0.37406514172150196),
        (6, 0, 0.21957589288711826),
        (6, 1, 0.24831124012361266),
        (6, 2, 0.6214154898803019),
        (8, 0, 0.44011572372932484),
        (8, 1, 0.7470195362344206),
        (8, 2, 0.42055738568778966),
        (12, 0, 0.7698077402064918),
        (12, 1, 0.8385049548109611),
        (12, 2, 0.9441666568476172),
        (32, 0, 2.3993459796899654),
        (32, 1, 1.8965374522145888),
        (32, 2, 2.144390065755612),
        (128, 0, 4.897048604047257),
        (128, 1, 4.553750988974751),
        (128, 2, 4.744647352516249),
        (500, 0, 9.752642750513509),
        (500, 1, 9.679943039335475),
        (500, 2, 9.98900061601271),
    ]

    @pytest.mark.parametrize("m, seed, former", FORMER_LOWER)
    def test_not_above_former_search(self, m, seed, former):
        A = sample_gaussian_matrix(m, 2, Field.COMPLEX, seed=seed)
        lower, cert = lower_lipschitz_numeric(A, seed=seed)
        assert lower <= former * (1 + 1e-9)
        assert cert.stop_reason == "converged"
        assert cert.evaluations > D2_SPHERE_POINTS

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_below_four_rows_is_zero(self, m):
        # no complex m x 2 matrix with m < 4 is injective: L = 0 with a pair attaining it
        eps = np.finfo(float).eps
        for seed in range(40):
            for scale in (1.0, 1e-6, 1e6):
                A = scale * sample_gaussian_matrix(m, 2, Field.COMPLEX, seed=seed)
                lower, cert = lower_lipschitz_numeric(A, seed=seed)
                assert lower == 0.0
                assert cert.stop_reason == "closed_form"
                assert cert.ratio**2 <= 1e-12 * eps * np.sum(np.abs(A) ** 2)
                assert abs(np.vdot(cert.x, cert.y)) <= 1e-15
                assert np.linalg.norm(cert.y) <= 1.0

    def test_search_floor_case_is_zero(self):
        # the former search stopped at L^2 = 21 eps ||A||_F^2 here, beta = 1.3e7
        A = sample_gaussian_matrix(3, 2, Field.COMPLEX, seed=903, stream=3)
        assert lower_lipschitz_numeric(A, seed=3)[0] == 0.0
        assert np.isinf(condition_number(A, METHOD_NUMERIC, seed=3).beta)

    def test_zero_rows_and_coincident_bloch_vectors(self):
        rng = np.random.default_rng(76)
        a, b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for A in (
            np.zeros((4, 2), dtype=complex),
            np.array([a, 0 * a, 0 * a, 0 * a, 0 * a]),
            np.array([a, 2j * a, b, 0 * a, 0 * a, 0 * a]),
            np.array([a, -3 * a, (1 + 1j) * a]),
        ):
            lower, cert = lower_lipschitz_numeric(A)
            assert (lower, cert.stop_reason) == (0.0, "closed_form")
            assert cert.ratio <= 1e-15 * max(np.linalg.norm(A), 1.0)


class TestSplitBound:
    def test_harmonic_m3(self):
        assert abs(split_bound(harmonic_frame(3).matrix) - np.sqrt(0.5)) < 1e-12

    def test_identity(self):
        assert split_bound(np.eye(2)) == 0.0

    def test_three_row_example(self):
        assert abs(split_bound(THREE_ROWS) - THREE_ROWS_LOWER) < 1e-12

    def test_matches_brute_force(self, real_corpus):
        for A in real_corpus[:25]:
            assert abs(split_bound(A) - brute_force_split_bound(A)) < 1e-10

    def test_bracket_on_corpus(self, real_corpus):
        for A in real_corpus[:60]:
            sigma = split_bound(A)
            delta, _ = lower_lipschitz_exact_real(A)
            assert sigma <= delta + 1e-12
            assert delta <= np.sqrt(2) * sigma + 1e-9


class TestNumericLower:
    def test_harmonic_m3(self):
        E3 = harmonic_frame(3).matrix
        val, cert = lower_lipschitz_numeric(E3)
        assert abs(val - np.sqrt(0.5)) < 1e-7
        assert abs(np.linalg.norm(cert.x) - 1) < 1e-10
        assert np.linalg.norm(cert.y) <= 1 + 1e-10
        assert abs(np.vdot(cert.x, cert.y)) < 1e-10

    def test_certificate_reproduces_value(self):
        rng = np.random.default_rng(4)
        for A in [harmonic_frame(4).matrix, rng.standard_normal((7, 3))]:
            val, cert = lower_lipschitz_numeric(A, seed=1)
            num = np.linalg.norm(phaseless_map(A, cert.x) - phaseless_map(A, cert.y))
            ratio = num / dist(cert.x, cert.y)
            assert abs(ratio - val) <= 1e-8 * max(val, 1e-12)

    def test_non_phase_retrieval_matrix(self):
        val, _ = lower_lipschitz_numeric(np.eye(2))
        assert val < 1e-7

    def test_matches_exact_on_random_8x2(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            A = rng.standard_normal((8, 2))
            exact, _ = lower_lipschitz_exact_real(A)
            num, _ = lower_lipschitz_numeric(A)
            assert abs(num - exact) <= 1e-4 * max(exact, 1e-12)

    def test_is_upper_bound_of_exact(self, real_corpus):
        for i, A in enumerate(real_corpus[:20]):
            exact, _ = lower_lipschitz_exact_real(A)
            num, _ = lower_lipschitz_numeric(A, seed=i)
            assert num >= exact - 1e-6

    def test_complex_d2_close_to_real_embedding(self):
        # a real matrix viewed complexly can only have a smaller constant
        A = harmonic_frame(5).matrix
        real_val, _ = lower_lipschitz_numeric(A)
        cval, cert = lower_lipschitz_numeric(A.astype(complex), seed=2)
        assert cval <= real_val + 1e-8
        assert abs(np.vdot(cert.x, cert.y)) < 1e-10

    def test_d1_shortcut(self):
        A = np.array([[2.0], [1.0]])
        val, cert = lower_lipschitz_numeric(A)
        assert abs(val - np.sqrt(5)) < 1e-12
        assert np.linalg.norm(cert.y) == 0.0
        assert cert.stop_reason == "closed_form"

    def test_stop_reason_budget(self):
        # this 12 x 4 search converges after 446 iterations, so a 50-iteration
        # cap stops it with live steps
        rng = np.random.default_rng([1, 20240411])
        A = rng.standard_normal((12, 4))
        seed = int(rng.integers(0, 2**31 - 1))
        _, cert = lower_lipschitz_numeric(A, restarts=128, max_iters=50, seed=seed)
        assert cert.iterations == 50
        assert cert.stop_reason == "budget"

    def test_stop_reason_converged(self):
        rng = np.random.default_rng(8)
        _, cert = lower_lipschitz_numeric(rng.standard_normal((6, 3)), restarts=8, seed=2)
        assert cert.iterations < 4000
        assert cert.stop_reason == "converged"
        _, cert = lower_lipschitz_numeric(harmonic_frame(5).matrix)
        assert cert.stop_reason == "closed_form"

    def test_complex_d2_honours_max_iters(self):
        # this search converges after about 50 iterations; a cap of 5 stops it
        A = sample_gaussian_matrix(10, 2, Field.COMPLEX, seed=13)
        _, cert = lower_lipschitz_numeric(A, max_iters=5, seed=13)
        assert (cert.iterations, cert.stop_reason) == (5, "budget")

    def test_restart_closing_on_the_best_keeps_running(self):
        # the best state has settled at L = 0.01105 by iteration 220; a restart
        # 2.9x higher in L^2 is still descending then and ends in a lower basin
        A = sample_gaussian_matrix(8, 3, Field.COMPLEX, seed=3082)
        val, cert = lower_lipschitz_numeric(A, seed=2)
        assert val == pytest.approx(0.00829573111798177, rel=1e-12, abs=0)
        assert val < 0.01105
        assert cert.iterations < 4000 and cert.stop_reason == "converged"


class TestNumericScale:
    """The numeric route on c*A: L scales by c, so beta = U/L does not move."""

    CASES = [
        (12, 3, Field.REAL),
        (9, 4, Field.REAL),
        (12, 3, Field.COMPLEX),
        (10, 2, Field.COMPLEX),
    ]

    @pytest.mark.parametrize("m, d, field", CASES)
    def test_power_of_two_scale_is_exact(self, m, d, field):
        # scaling by 2^k rounds nothing, so the search takes the same path
        A = sample_gaussian_matrix(m, d, field, seed=0)
        val, cert = lower_lipschitz_numeric(A, seed=3)
        for k in (-40, 40):
            val_k, cert_k = lower_lipschitz_numeric(2.0**k * A, seed=3)
            assert val_k == 2.0**k * val
            assert (cert_k.iterations, cert_k.evaluations) == (cert.iterations, cert.evaluations)

    @pytest.mark.parametrize("m, d, field", CASES)
    def test_decimal_scale_keeps_ratio(self, m, d, field):
        A = sample_gaussian_matrix(m, d, field, seed=0)
        ratio = lower_lipschitz_numeric(A, seed=3)[0] / upper_lipschitz(A)
        for k in (-12, -6, 6, 12):
            c = 10.0**k
            ratio_k = lower_lipschitz_numeric(c * A, seed=3)[0] / upper_lipschitz(c * A)
            assert abs(ratio_k - ratio) <= 1e-12


class TestPollStopRule:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_best_state_stop_matches_full_run(self, d, field, seed):
        # dropping restarts that cannot catch the best state loses nothing of it
        A = sample_gaussian_matrix(3 * d, d, field, seed=seed)
        objective = _pair_objective(A)
        Z0 = np.random.default_rng(seed).standard_normal((8, 2 * d))
        if field is Field.COMPLEX:
            Z0 = Z0 + 1j * np.random.default_rng(seed + 100).standard_normal((8, 2 * d))
        runs = [
            _poll(
                objective, Z0, np.random.default_rng(seed), h0=0.5, hmin=1e-11,
                max_iter=2000, shrink=0.5, min_gain=np.finfo(float).eps * np.sum(abs(A) ** 2),
                keep=keep,
            )
            for keep in (None, 1)
        ]
        (_, v_all, it_all, _, _), (_, v_best, it_best, _, _) = runs
        assert v_best.min() == pytest.approx(v_all.min(), rel=1e-11, abs=0)
        assert it_best <= it_all


def orthonormalize_rows(Z, d):
    """Oracle: the pair orthonormalization on rows, with masked division."""
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


def scale_step_reference(p, r, q):
    """Oracle: `_scale_step` through np.where, nan_to_num and clip."""
    disc = np.sqrt((p - r) ** 2 + 4 * q * q)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(q > 0, ((p - r) + disc) / (2 * q), 0.0)
    t_star = np.clip(np.nan_to_num(t_star), 0.0, 1.0)

    def val(t):
        return (p - 2 * t * q + t * t * r) / (1 + t * t)

    return (p, val(1.0), val(t_star)), t_star


def poll_per_iteration(
    objective, Z0, rng, h0, hmin, max_iter, shrink, min_gain, expand=1.0, sets=1, keep=None
):
    """Oracle: `_poll` with one (n, n) draw and one QR per basis per iteration, states as rows.

    The objective still scores columns, so candidates are handed over transposed.
    """
    Z = Z0.copy()
    ns, n = Z.shape
    vals = objective(np.ascontiguousarray(Z.T))
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
        v = objective(np.ascontiguousarray(cand.T)).reshape(len(act), -1)
        evaluations += cand.shape[0]
        kb = np.argmin(v, axis=1)
        vb = v[np.arange(len(act)), kb]
        impr = vb < vals[act] - min_gain
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


def raw_pairs(rng, count, d, complex_field):
    """Random (x_raw | u_raw) rows with zero, tiny, parallel and exactly orthogonal ones."""
    Z = rng.standard_normal((count, 2 * d)) * 10.0 ** rng.uniform(-6, 6, (count, 1))
    if complex_field:
        Z = Z + 1j * rng.standard_normal((count, 2 * d))
    Z[0] = 0.0
    Z[1, :d] = 1e-13
    Z[2, d:] = (0.5 - 2j if complex_field else -3.0) * Z[2, :d]
    Z[3, :d] = 0.0
    Z[3, 0] = 1.0
    Z[3, d:] = 0.0
    Z[3, d + min(1, d - 1)] = 1.0
    Z[4, d:] = 0.0
    return Z


class TestPollKernels:
    """The column-layout pair kernels against their row-layout oracles.

    `_scale_step` keeps every bit; the orthonormalization sums in numpy's
    column order and is held to a per-column roundoff bound.
    """

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 9, 17, 70, 130])
    def test_orthonormalize_matches_rows(self, d, complex_field):
        # C-ordered columns, as `_poll` hands them over: their axis-0 sums add
        # in another order than the oracle's row sums, so the two agree per
        # column to 4 eps in x and to 4 eps times the cancellation
        # ||u_raw|| / ||u_raw - <x, u_raw> x|| in u
        Z = raw_pairs(np.random.default_rng(d), 200, d, complex_field)
        X, U, ok = _orthonormalize_batch(np.ascontiguousarray(Z.T), d)
        X_ref, U_ref, ok_ref = orthonormalize_rows(Z, d)
        assert not ok_ref.all() and (ok_ref.any() or d == 1)
        assert np.array_equal(ok, ok_ref)
        U0, X1 = Z[ok, d:], X_ref[ok]
        resid = U0 - np.sum(np.conj(X1) * U0, axis=1)[:, None] * X1
        cancel = np.linalg.norm(U0, axis=1) / np.linalg.norm(resid, axis=1)
        eps = np.finfo(float).eps
        assert np.all(np.abs(X.T[ok] - X1) <= 4 * eps)
        assert np.all(np.abs(U.T[ok] - U_ref[ok]) <= 4 * eps * cancel[:, None])

    def test_scale_step_matches_reference(self):
        rng = np.random.default_rng(32)
        p, r, q = np.abs(rng.standard_normal((3, 4000))) * 10.0 ** rng.uniform(-300, 300, (3, 4000))
        q[:400] = 0.0
        r[400:800] = p[400:800]
        q[800:900] = 5e-324
        p[900:1000], r[900:1000] = 1.0, 0.0
        q[1000:1010] = np.nan
        p[1010:1020] = np.inf
        r[1020:1030] = np.inf  # t* = (-inf + inf) / 2q is NaN: clamped to 0
        with np.errstate(all="ignore"):
            (a0, a1, a2), t = _scale_step(p, r, q)
            (b0, b1, b2), t_ref = scale_step_reference(p, r, q)
        assert np.all(t[1020:1030] == 0.0)
        for got, ref in ((a0, b0), (a1, b1), (a2, b2), (t, t_ref)):
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        for k in range(0, 1030, 7):
            with np.errstate(all="ignore"):
                (c0, c1, c2), tc = _scale_step(float(p[k]), float(r[k]), float(q[k]))
            got = np.array([c0, c1, c2, tc], dtype=float)
            ref = np.array([a0[k], a1[k], a2[k], t[k]])
            assert np.array_equal(got, ref, equal_nan=True)


class TestPollBlockDraws:
    """`_poll` with block-drawn bases against the per-iteration draws, bit for bit."""

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("sets", [1, 2])
    @pytest.mark.parametrize("keep", [None, 1])
    @pytest.mark.parametrize(
        "max_iter", [1, POLL_BLOCK - 1, POLL_BLOCK, POLL_BLOCK + 1, 3 * POLL_BLOCK + 5]
    )
    def test_matches_per_iteration_draws(self, field, sets, keep, max_iter):
        A = sample_gaussian_matrix(9, 3, field, seed=5)
        objective = _pair_objective(A)
        Z0 = raw_pairs(np.random.default_rng(6), 10, 3, field is Field.COMPLEX)[5:]
        kwargs = dict(
            h0=0.5, hmin=1e-6, max_iter=max_iter, shrink=0.5, min_gain=1e-15, sets=sets, keep=keep
        )
        rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
        Z, vals, *rest = _poll(objective, Z0, rng, **kwargs)
        Z_ref, vals_ref, *rest_ref = poll_per_iteration(objective, Z0, rng_ref, **kwargs)
        assert Z.tobytes() == Z_ref.tobytes() and vals.tobytes() == vals_ref.tobytes()
        assert rest == rest_ref
        assert rng.standard_normal(3).tobytes() == rng_ref.standard_normal(3).tobytes()
        iterations, stop_reason, _ = rest
        if keep is None:
            # some state is still live at every cap: the last block ends at the budget
            assert (iterations, stop_reason) == (max_iter, "budget")
        elif max_iter == 3 * POLL_BLOCK + 5:
            # converged inside a block: the generator was rewound and redrawn
            assert stop_reason == "converged" and iterations % POLL_BLOCK != 0

    def test_no_iteration_draws_nothing(self):
        objective = _pair_objective(np.eye(3))
        Z0 = np.random.default_rng(7).standard_normal((4, 6))
        rng, rng_ref = np.random.default_rng(12), np.random.default_rng(12)
        out = _poll(objective, Z0, rng, h0=1e-9, hmin=1e-6, max_iter=10, shrink=0.5, min_gain=0.0)
        assert out[2:] == (0, "converged", 4)
        assert rng.standard_normal() == rng_ref.standard_normal()


class TestPollCallerPins:
    """Seeded results of the three `_poll` callers, pinned exactly.

    The frame optimizer's pin was recorded with one basis draw and one QR
    per iteration and keeps every bit under block draws.  The pair-search
    pins were re-recorded when their acceptance threshold became the
    matrix's roundoff scale eps * ||A||_F^2, and the complex d = 2 pins
    again when that search moved to the Bloch sphere.
    """

    @pytest.mark.parametrize(
        "m, d, field, restarts, seed, lower, iterations, evaluations",
        [
            (12, 4, Field.REAL, 128, 11, 0.513805376618007, 487, 134396),
            (16, 3, Field.COMPLEX, 32, 12, 0.6422409645289653, 2133, 109430),
            (10, 2, Field.COMPLEX, 32, 13, 0.7645828407966988, 55, 5582),
        ],
    )
    def test_numeric_analyze(self, m, d, field, restarts, seed, lower, iterations, evaluations):
        A = sample_gaussian_matrix(m, d, field, seed=seed)
        rep = condition_number(A, METHOD_NUMERIC, restarts=restarts, seed=seed)
        cert = rep.lower_certificate
        assert rep.lower == lower
        assert (cert.iterations, cert.evaluations, cert.stop_reason) == (
            iterations,
            evaluations,
            "converged",
        )

    def test_frame_optimizer(self):
        # optimize --m 5 --restarts 24: three polls, with draws between them
        frame, beta = optimize_frame_r2(5, restarts=24, seed=0)
        assert beta == 1.6836200145571443
        assert frame.radii.tolist() == [
            0.999996523784366,
            0.9999982396650435,
            0.9999996119299341,
            1.0000032363508555,
            1.0000023882540452,
        ]
        assert frame.angles.tolist() == [
            0.0,
            1.8849538906973706,
            1.2566383170165527,
            2.513274452987824,
            0.628317033286654,
        ]

    def test_gaussian_complex_d2_cell(self):
        cfg = GaussianExperiment(field=Field.COMPLEX, d=2, m_values=(50,), trials=1, seed=5)
        assert gaussian_beta_experiment(cfg)[0].lower == 2.1419455240541465
        A = sample_gaussian_matrix(50, 2, Field.COMPLEX, 5, stream=0)
        lower, cert = lower_lipschitz_numeric(A, restarts=32, seed=5 + 7919)
        assert lower == 2.1419455240541465
        assert (cert.iterations, cert.evaluations, cert.stop_reason) == (55, 4646, "converged")


class TestConditionNumber:
    def test_harmonic_m3_exact(self):
        rep = condition_number(harmonic_frame(3).matrix, METHOD_EXACT)
        assert abs(rep.beta - np.sqrt(3)) < 1e-12
        assert rep.method == METHOD_EXACT
        assert isinstance(rep.lower_certificate, tuple)

    def test_identity_is_infinite(self):
        rep = condition_number(np.eye(2), METHOD_EXACT)
        assert np.isinf(rep.beta)
        assert rep.lower == 0.0

    def test_harmonic_m4_matches_closed_form(self):
        rep = condition_number(harmonic_frame(4).matrix, METHOD_EXACT)
        assert abs(rep.beta - harmonic_condition_number(4)) < 1e-12

    def test_numeric_method_certificate(self):
        rep = condition_number(harmonic_frame(3).matrix, METHOD_NUMERIC, seed=3)
        assert isinstance(rep.lower_certificate, PairCertificate)
        assert abs(rep.beta - np.sqrt(3)) < 1e-6

    def test_exact_complex_rejected(self):
        with pytest.raises(FieldMismatchError):
            condition_number(np.eye(2, dtype=complex), METHOD_EXACT)

    def test_rank_one_d2_is_infinite(self, rank_one_8x2):
        # L^2 at the roundoff of the window sums is reported as L = 0, so beta = inf
        for method in (METHOD_EXACT, METHOD_NUMERIC):
            rep = condition_number(rank_one_8x2, method)
            assert rep.lower == 0.0 and np.isinf(rep.beta)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            condition_number(np.eye(2), "magic")

    def test_bounds_attached(self):
        rep = condition_number(harmonic_frame(5).matrix, METHOD_EXACT)
        assert abs(rep.bounds["beta0"] - universal_lower_bound(Field.REAL)) < 1e-15
        assert abs(rep.bounds["real_md_bound"] - real_beta_lower_bound(5)) < 1e-15


class TestInvariances:
    def test_row_sign_flip_exact_equality(self):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((7, 2))
        B = A.copy()
        B[2] *= -1
        B[5] *= -1
        ra = condition_number(A, METHOD_EXACT)
        rb = condition_number(B, METHOD_EXACT)
        assert ra.beta == rb.beta and ra.lower == rb.lower and ra.upper == rb.upper

    def test_right_unitary_invariance(self):
        rng = np.random.default_rng(15)
        A = rng.standard_normal((8, 3))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        ra = condition_number(A, METHOD_EXACT)
        rb = condition_number(A @ Q, METHOD_EXACT)
        assert abs(ra.beta - rb.beta) < 1e-9

    def test_global_scaling(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((7, 2))
        c = 3.7
        ra = condition_number(A, METHOD_EXACT)
        rb = condition_number(c * A, METHOD_EXACT)
        assert abs(ra.beta - rb.beta) < 1e-10
        assert abs(rb.lower - c * ra.lower) < 1e-9
        assert abs(rb.upper - c * ra.upper) < 1e-9

    def test_scaling_up_to_gram_limit(self):
        # the largest scale as_matrix accepts must not overflow either route
        E = harmonic_frame(3).matrix
        c = np.sqrt(GRAM_LIMIT / 3) * (1 - 1e-9)
        with np.errstate(over="raise"):
            for method in (METHOD_EXACT, METHOD_NUMERIC):
                rep = condition_number(c * E, method)
                assert rep.beta == pytest.approx(np.sqrt(3), rel=1e-12)
                assert rep.lower / c == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_unimodular_row_scaling_complex(self):
        rng = np.random.default_rng(18)
        A = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) / np.sqrt(2)
        B = A.copy()
        B[1] *= np.exp(1j * 0.9)
        B[4] *= np.exp(-1j * 2.2)
        ra = condition_number(A, METHOD_NUMERIC, seed=5)
        rb = condition_number(B, METHOD_NUMERIC, seed=5)
        assert abs(ra.beta - rb.beta) < 1e-6


class TestUniversalBounds:
    def test_values(self):
        assert abs(universal_lower_bound(Field.REAL) - np.sqrt(np.pi / (np.pi - 2))) < 1e-15
        assert abs(universal_lower_bound(Field.COMPLEX) - np.sqrt(4 / (4 - np.pi))) < 1e-15
        assert round(universal_lower_bound(Field.REAL), 3) == 1.659
        assert round(universal_lower_bound(Field.COMPLEX), 3) == 2.159
        assert universal_lower_bound(Field.REAL) > 1
        assert universal_lower_bound(Field.COMPLEX) > 1

    def test_real_row_count_bound(self):
        assert abs(real_beta_lower_bound(3) - np.sqrt(3)) < 1e-12
        assert abs(real_beta_lower_bound(5) - 1.6836200145546485) < 1e-12
        vals = [real_beta_lower_bound(m) for m in range(3, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert abs(real_beta_lower_bound(10**6) - universal_lower_bound(Field.REAL)) < 1e-9

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            real_beta_lower_bound(2)

    def test_beta_respects_floors_on_sample(self, real_corpus):
        for A in real_corpus[:30]:
            rep = condition_number(A, METHOD_EXACT)
            assert rep.beta >= universal_lower_bound(Field.REAL) - 1e-9
            assert rep.beta >= real_beta_lower_bound(A.shape[0]) - 1e-9


class TestFrameOptimizer:
    def test_m3_recovers_harmonic(self):
        _, beta = optimize_frame_r2(3, restarts=32, seed=0)
        assert abs(beta - np.sqrt(3)) < 1e-6

    def test_m5_recovers_harmonic(self):
        _, beta = optimize_frame_r2(5, restarts=32, seed=0)
        assert abs(beta - harmonic_condition_number(5)) < 1e-4

    def test_m4_never_worse_than_harmonic(self):
        frame, beta = optimize_frame_r2(4, restarts=32, seed=0)
        assert beta <= harmonic_condition_number(4) + 1e-6
        # the found frame must be genuine: re-evaluate through the exact route
        rep = condition_number(frame.rows(), METHOD_EXACT)
        assert abs(rep.beta - beta) < 1e-8
        assert beta >= real_beta_lower_bound(4) - 1e-9

    def test_range_validation(self):
        with pytest.raises(ValueError):
            optimize_frame_r2(2)
        with pytest.raises(EnumerationCapError):
            optimize_frame_r2(17)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            optimize_frame_r2(4, restarts=0)

    def test_cap_error_names_frame_limit(self):
        with pytest.raises(EnumerationCapError, match=r"optimize_frame_r2 is capped at m=16 rows"):
            optimize_frame_r2(17)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_never_beats_paper_floors(self, m):
        # odd m: the harmonic frame is optimal; every m: beta >= 1/sqrt(1 - 1/(m sin(pi/2m)))
        frame, beta = optimize_frame_r2(m, restarts=4, seed=0, budget=300)
        if m % 2:
            assert beta >= harmonic_condition_number(m) - 1e-9
        assert beta >= real_beta_lower_bound(m) - 1e-9
        assert abs(condition_number(frame.rows(), METHOD_EXACT).beta - beta) <= 1e-8 * beta

    def test_polar_roundtrip(self):
        frame, beta = optimize_frame_r2(3, restarts=8, seed=1)
        rows = frame.rows()
        assert rows.shape == (3, 2)
        assert abs((frame.radii**2).sum() - 3.0) < 1e-9


class TestSearchEngineRegression:
    """Seeded search results pinned before the two pattern searches were merged.

    The complex 14 x 2 case was re-pinned when complex d = 2 got its own ratio
    kernel: the value kept every bit, the iterations went from 54 to 53.  The
    real 10 x 3 case was re-pinned when the pair searches began to drop
    restarts that cannot catch their best state: it went from 4000
    iterations ("budget") to 101 ("converged") with the same value.  The
    complex cases were re-pinned when the pair searches took their
    acceptance threshold from the matrix's roundoff scale: 16 x 3 went from
    1008 to 973 iterations, 14 x 2 from 53 to 52, both values within 5e-15.
    Complex 14 x 2 went from 52 to 56 iterations, its value one unit in the
    last place lower, when complex d = 2 moved to the Bloch sphere.
    """

    @pytest.mark.parametrize(
        "m, d, field, seed, value, iterations, stop_reason",
        [
            (10, 3, Field.REAL, 3, 0.9129430383835907, 101, "converged"),
            (16, 3, Field.COMPLEX, 5, 0.5135774570882671, 973, "converged"),
            (14, 2, Field.COMPLEX, 7, 1.3812372866456655, 56, "converged"),
        ],
    )
    def test_numeric_lower(self, m, d, field, seed, value, iterations, stop_reason):
        A = sample_gaussian_matrix(m, d, field, seed=seed)
        val, cert = lower_lipschitz_numeric(A, seed=seed)
        assert val == pytest.approx(value, rel=1e-12, abs=0)
        assert cert.iterations == iterations
        assert cert.stop_reason == stop_reason

    def test_frame_optimizer(self):
        frame, beta = optimize_frame_r2(5, restarts=8, budget=2000)
        assert beta == pytest.approx(1.6836200145679332, rel=1e-12, abs=0)
        radii = [1.0000011755711038, 0.9999938560083795, 1.000008765551018,
                 1.0000042419340636, 0.9999919608361416]
        angles = [0.0, 0.6283116922426535, 1.2566338313571668,
                  2.5132666663891445, 1.8849533620479766]
        assert frame.radii == pytest.approx(radii, rel=1e-12, abs=0)
        assert frame.angles == pytest.approx(angles, rel=1e-12, abs=1e-15)
