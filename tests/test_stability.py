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
)
from prstab.linalg import GRAM_LIMIT
from prstab.stability import (
    METHOD_EXACT,
    METHOD_NUMERIC,
    ZERO_ROUNDOFF_FACTOR,
    EnumerationCapError,
    PairCertificate,
    _complex_d2_ratio,
    _frame_beta_batch,
    _lambda_min_batch,
    _orthonormalize_batch,
    _pair_objective,
    _pairs_complex_d2,
    _poll,
    _ratio_sq_min_over_scale,
    _reduce_over_splits,
    _subset_gram_terms,
)
from prstab.linalg import lambda_min_2x2_batch

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
    tot = lambda_min_2x2_batch(run) + lambda_min_2x2_batch(prefix[m] - run)
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

    def test_threads_do_not_change_result(self):
        rng = np.random.default_rng(33)
        A = rng.standard_normal((12, 3))
        v1, s1 = lower_lipschitz_exact_real(A, threads=1)
        v4, s4 = lower_lipschitz_exact_real(A, threads=4)
        assert v1 == v4 and s1 == s4


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


def _split_bits(m: int) -> np.ndarray:
    """0/1 matrix of the 2^(m-1) split masks over the first m-1 rows."""
    n = 1 << (m - 1)
    return ((np.arange(n)[:, None] >> np.arange(m - 1)[None, :]) & 1).astype(float)


def einsum_frame_beta(rows):
    """Reference frame condition numbers: split sums as an einsum over 0/1 masks."""
    m = rows.shape[1]
    terms = np.stack(
        [rows[:, :, 0] ** 2, rows[:, :, 0] * rows[:, :, 1], rows[:, :, 1] ** 2], axis=2
    )
    tot = terms.sum(axis=1)
    g_subset = np.einsum("nk,bkt->bnt", _split_bits(m), terms[:, : m - 1])
    g_complement = tot[:, None, :] - g_subset
    delta_sq = (lambda_min_2x2_batch(g_subset) + lambda_min_2x2_batch(g_complement)).min(axis=1)
    lam_max = (tot[:, 0] + tot[:, 2]) / 2 + np.sqrt(
        ((tot[:, 0] - tot[:, 2]) / 2) ** 2 + tot[:, 1] ** 2
    )
    zero = delta_sq <= ZERO_ROUNDOFF_FACTOR * np.finfo(float).eps * (tot[:, 0] + tot[:, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(zero, np.inf, np.sqrt(lam_max / delta_sq))


class TestSubsetSumTable:
    """Split sums built by doubling add each split's rows in the order a 0/1 product does."""

    @pytest.mark.parametrize("m", range(3, 13))
    def test_frame_beta_matches_einsum_bitwise(self, m):
        rng = np.random.default_rng(500 + m)
        rows = rng.standard_normal((9, m, 2)) * rng.uniform(0.1, 3.0, (9, m, 1))
        rows[1, m // 2] = 0.0
        rows[2, -1] = -2.5 * rows[2, 0]
        rows[3] = rows[3, :1] * rng.uniform(-2, 2, (m, 1))
        rows[4, : m // 2] = 0.0
        assert np.array_equal(_frame_beta_batch(rows), einsum_frame_beta(rows))

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("m", [4, 9, 19])
    def test_split_eigenvalues_match_matrix_product(self, m, d):
        rng = np.random.default_rng(70 * m + d)
        A = rng.standard_normal((m, d))
        A[1] = 0.0
        A[m // 2] = -1.5 * A[0]
        terms = _subset_gram_terms(A)
        total = terms.sum(axis=0)
        lam_i = []
        lam_c = []
        for masks, li, lc in _reduce_over_splits(A, lambda *chunk: chunk):
            ref = _split_bits(m)[masks.astype(np.int64)] @ terms[: m - 1]
            lam_i.append((li, _lambda_min_batch(ref, d)))
            lam_c.append((lc, _lambda_min_batch(total[None, :] - ref, d)))
        assert sum(len(li) for li, _ in lam_i) == 1 << (m - 1)
        for got, ref in lam_i + lam_c:
            if d == 1:
                # bits @ terms runs as a gemv here, whose summation order may differ
                assert np.max(np.abs(got - ref)) <= 1e-15 * total[0]
            else:
                assert np.array_equal(got, ref)


    def test_rank_one_frame_is_infinite(self):
        # all rows parallel: L = 0, and the objective must not score roundoff as beta ~ 1e8
        rng = np.random.default_rng(507)
        rows = rng.standard_normal((9, 7, 2)) * rng.uniform(0.1, 3.0, (9, 7, 1))
        A = rows[3, :1] * rng.uniform(-2, 2, (7, 1))
        assert np.isinf(_frame_beta_batch(A[None])[0])
        assert np.isinf(condition_number(A).beta)


class TestComplexD2Kernel:
    """The complex d = 2 ratio kernel against `_ratio_sq_min_over_scale`, column by column."""

    @staticmethod
    def assert_matches(A, X, U):
        got = _complex_d2_ratio(A)(X, U)
        ref = _ratio_sq_min_over_scale(A, X, U)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.sum(np.abs(A) ** 2)

    @staticmethod
    def random_pairs(rng, n=64):
        Z = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        X, U, ok = _orthonormalize_batch(Z, 2)
        assert ok.all()
        return X.T, U.T

    @staticmethod
    def complex_rows(rng, m):
        return (rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))) / np.sqrt(2)

    def test_random_matrices(self):
        rng = np.random.default_rng(71)
        for m in range(1, 201):
            self.assert_matches(self.complex_rows(rng, m), *self.random_pairs(rng))

    def test_zero_and_parallel_rows(self):
        rng = np.random.default_rng(72)
        for m in (2, 5, 12, 40):
            A = self.complex_rows(rng, m)
            A[m // 2] = 0.0
            A[-1] = (0.3 - 1.7j) * A[0]
            self.assert_matches(A, *self.random_pairs(rng))
            rank_one = A[:1] * (rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1)))
            self.assert_matches(rank_one, *self.random_pairs(rng))

    def test_scaled_rows(self):
        rng = np.random.default_rng(73)
        for m in (3, 9, 30, 150):
            A = self.complex_rows(rng, m) * 10.0 ** rng.uniform(-3, 3, (m, 1))
            self.assert_matches(A, *self.random_pairs(rng))

    def test_rows_aligned_with_grid_pairs(self):
        # e2 is orthogonal to x at theta = 0 and nearly so at 1e-10: q keeps eps |a|^2 there
        A = np.array([[1, 0], [0, 1], [1, 1j]], dtype=complex)
        gamma = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        for theta in (0.0, 1e-10, np.pi / 4, np.pi / 2 - 1e-10, np.pi / 2):
            self.assert_matches(A, *_pairs_complex_d2(np.full(gamma.size, theta), gamma))


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

    def test_restart_closing_on_the_best_keeps_running(self):
        # the best state converges at iteration 220 with L = 0.01105; a restart
        # 2.9x higher in L^2 is still descending then and ends in a lower basin
        A = sample_gaussian_matrix(8, 3, Field.COMPLEX, seed=3082)
        val, cert = lower_lipschitz_numeric(A, seed=2)
        assert val == pytest.approx(0.008295731079847926, rel=1e-12, abs=0)
        assert cert.iterations < 4000 and cert.stop_reason == "converged"


class TestPollStopRule:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_best_state_stop_matches_full_run(self, d, field, seed):
        # dropping restarts that cannot catch the best state loses nothing of it
        A = sample_gaussian_matrix(3 * d, d, field, seed=seed)
        objective = _pair_objective(lambda X, U: _ratio_sq_min_over_scale(A, X, U), d)
        Z0 = np.random.default_rng(seed).standard_normal((8, 2 * d))
        if field is Field.COMPLEX:
            Z0 = Z0 + 1j * np.random.default_rng(seed + 100).standard_normal((8, 2 * d))
        runs = [
            _poll(
                objective, Z0, np.random.default_rng(seed), h0=0.5, hmin=1e-11,
                max_iter=2000, shrink=0.5, keep=keep,
            )
            for keep in (None, 1)
        ]
        (_, v_all, it_all, _, _), (_, v_best, it_best, _, _) = runs
        assert v_best.min() == pytest.approx(v_all.min(), rel=1e-11, abs=0)
        assert it_best <= it_all


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
    iterations ("budget") to 101 ("converged") with the same value.
    """

    @pytest.mark.parametrize(
        "m, d, field, seed, value, iterations, stop_reason",
        [
            (10, 3, Field.REAL, 3, 0.9129430383835907, 101, "converged"),
            (16, 3, Field.COMPLEX, 5, 0.5135774570882656, 1008, "converged"),
            (14, 2, Field.COMPLEX, 7, 1.3812372866456653, 53, "converged"),
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
