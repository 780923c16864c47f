import numpy as np
import pytest

from prstab import (
    Field,
    FieldMismatchError,
    dist,
    eig_hermitian,
    gram,
    harmonic_frame,
    phaseless_map,
    spectral_norm,
)
from prstab.linalg import (
    as_matrix,
    eigh_with_vectors,
    eigvals_2x2_batch,
    top_right_singular_vector,
)

THREE_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [2**-0.5, 2**-0.5]])


class TestGram:
    def test_orthonormal_rows_give_identity(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(gram(A), np.eye(2), atol=0)

    def test_harmonic_frame_is_tight(self):
        E3 = harmonic_frame(3).matrix
        assert np.allclose(gram(E3), 1.5 * np.eye(2), atol=1e-15)

    def test_outer_product_sum(self):
        assert np.allclose(gram(THREE_ROWS), [[1.5, 0.5], [0.5, 1.5]], atol=1e-15)

    def test_hermitian_for_complex_input(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        H = gram(A)
        assert np.array_equal(H, H.conj().T)


class TestEigHermitian:
    def test_identity(self):
        assert np.allclose(eig_hermitian(np.eye(2)), [1.0, 1.0], atol=0)

    def test_2x2_closed_form(self):
        w = eig_hermitian(np.array([[1.5, 0.5], [0.5, 1.5]]))
        assert np.allclose(w, [1.0, 2.0], atol=1e-14)

    def test_harmonic_gram_eigenvalues(self):
        w = eig_hermitian(gram(harmonic_frame(5).matrix))
        assert np.allclose(w, [2.5, 2.5], atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_against_reference_solver(self, d, cplx):
        rng = np.random.default_rng(d + 10 * cplx)
        for _ in range(20):
            B = rng.standard_normal((d, d))
            if cplx:
                B = B + 1j * rng.standard_normal((d, d))
            H = (B + B.conj().T) / 2
            assert np.allclose(eig_hermitian(H), np.linalg.eigvalsh(H), atol=1e-10)

    def test_eigenvalue_sum_matches_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            H = (B + B.conj().T) / 2
            w = eig_hermitian(H)
            tr = float(np.real(np.trace(H)))
            assert abs(w.sum() - tr) <= 1e-10 * max(abs(tr), 1.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_conjugation_invariance(self, d):
        rng = np.random.default_rng(d)
        for _ in range(10):
            B = rng.standard_normal((d, d))
            H = (B + B.T) / 2
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            assert np.allclose(eig_hermitian(H), eig_hermitian(Q.T @ H @ Q), atol=1e-10)

    def test_vectors_diagonalize(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        H = (B + B.conj().T) / 2
        w, V = eigh_with_vectors(H)
        assert np.allclose(H @ V, V @ np.diag(w), atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eig_hermitian(np.ones((2, 3)))


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((2, 2))) == 0.0

    def test_harmonic_frame(self):
        assert abs(spectral_norm(harmonic_frame(3).matrix) - np.sqrt(1.5)) < 1e-12

    def test_diagonal(self):
        assert abs(spectral_norm(np.array([[3.0, 0.0], [0.0, 4.0]])) - 4.0) < 1e-14

    def test_trace_bracketing(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.standard_normal((6, 3))
            tr = float(np.trace(gram(A)))
            s2 = spectral_norm(A) ** 2
            assert tr / 3 - 1e-9 <= s2 <= tr + 1e-9

    def test_top_singular_vector_attains_norm(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((8, 3))
        v = top_right_singular_vector(A)
        assert abs(np.linalg.norm(A @ v) - spectral_norm(A)) < 1e-10


class TestDist:
    def test_sign_ambiguity(self):
        assert dist(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 0.0

    def test_unimodular_phase(self):
        assert dist(np.array([1 + 0j, 0]), np.array([1j, 0])) < 1e-15

    def test_orthonormal_pair(self):
        assert abs(dist(np.array([1.0, 0.0]), np.array([0.0, 1.0])) - np.sqrt(2)) < 1e-15

    def test_distance_to_zero_is_norm(self):
        x = np.array([3.0, 4.0])
        assert dist(x, np.zeros(2)) == 5.0

    @pytest.mark.parametrize("cplx", [False, True])
    def test_metric_properties_on_random_triples(self, cplx):
        rng = np.random.default_rng(17 + cplx)
        for _ in range(50):
            pts = rng.standard_normal((3, 4))
            if cplx:
                pts = pts + 1j * rng.standard_normal((3, 4))
            x, y, z = pts
            assert dist(x, y) >= 0
            assert abs(dist(x, y) - dist(y, x)) <= 1e-12
            assert dist(x, z) <= dist(x, y) + dist(y, z) + 1e-12

    def test_zero_iff_unimodular_multiple(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = np.exp(1j * 0.7)
        assert dist(x, c * x) < 1e-12
        y = x + np.array([0.1, 0, 0])
        assert dist(x, y) > 1e-3

    def test_mismatch_rejected(self):
        with pytest.raises(FieldMismatchError):
            dist(np.array([1.0, 0.0]), np.array([1 + 0j, 0]))
        with pytest.raises(FieldMismatchError):
            dist(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


class TestPhaselessMap:
    def test_harmonic_frame_unit_vector(self):
        E3 = harmonic_frame(3).matrix
        assert np.allclose(phaseless_map(E3, np.array([1.0, 0.0])), [1.0, 0.5, 0.5], atol=1e-15)

    def test_zero_vector(self):
        A = np.random.default_rng(0).standard_normal((4, 2))
        assert np.array_equal(phaseless_map(A, np.zeros(2)), np.zeros(4))

    def test_sign_invariance_exact(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 3))
        x = rng.standard_normal(3)
        assert np.array_equal(phaseless_map(A, x), phaseless_map(A, -x))

    def test_phase_invariance_complex(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = np.exp(1j * 1.23)
        assert np.allclose(phaseless_map(A, c * x), phaseless_map(A, x), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(FieldMismatchError):
            phaseless_map(np.eye(2), np.ones(3))


class TestBatchClosedForms:
    def test_lambda_min_2x2(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((100, 2, 2))
        M = np.einsum("nij,nkj->nik", B, B)
        packed = np.stack([M[:, 0, 0], M[:, 0, 1], M[:, 1, 1]], axis=1)
        lam_min, lam_max = eigvals_2x2_batch(packed)
        assert np.allclose(lam_min, np.linalg.eigvalsh(M)[:, 0], atol=1e-12)
        assert np.allclose(lam_max, np.linalg.eigvalsh(M)[:, 1], atol=1e-12)


class TestAsMatrix:
    def test_real_tag_rejects_complex_entries(self):
        with pytest.raises(FieldMismatchError):
            as_matrix(np.array([[1j, 0]]), Field.REAL)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            as_matrix(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
    def test_non_finite_rejected(self, bad):
        rows = np.ones((3, 2), dtype=complex if isinstance(bad, complex) else float)
        rows[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            as_matrix(rows)

    @pytest.mark.parametrize("scale", [1e200, 1e100])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_overflowing_gram_rejected(self, scale, cplx):
        # finite entries whose Gram entries (1e200) or their squares (1e100) overflow
        rows = np.full((4, 3), scale, dtype=complex if cplx else float)
        with pytest.raises(ValueError, match="too large"):
            as_matrix(rows)
        as_matrix(np.full((4, 3), 1e70))
