import numpy as np
import pytest

from prstab import (
    ConditioningError,
    Field,
    RecoveryProblem,
    RecoveryResult,
    check_error_bound,
    dist,
    make_gaussian_problem,
    make_problem_for_matrix,
    phaseless_map,
    sample_gaussian_matrix,
    solve_quadratic_model,
    stream_rng,
    universal_lower_bound,
)
from prstab.linalg import field_of
from prstab.recovery import CERTIFY_SLACK, _spectral_start

EPS = np.finfo(float).eps


def serial_solve(problem, restarts=16, max_iters=200, tol=1e-12, seed=0):
    """Oracle: the starts of `solve_quadratic_model` run one after another.

    Each start is a matrix-vector loop with the same stop rule; the first
    strictly least final residual wins.  Returns the result and the final
    (residual, x) of every start.
    """
    A, b = problem.matrix, problem.b
    d = A.shape[1]
    cplx = field_of(A) is Field.COMPLEX
    Q, R = np.linalg.qr(A)
    Qh = Q.conj().T

    def phases(z):
        if cplx:
            mag = np.abs(z)
            out = np.ones_like(z)
            nz = mag > 0
            out[nz] = z[nz] / mag[nz]
            return out
        out = np.sign(z)
        out[out == 0] = 1.0
        return out

    starts = [_spectral_start(A, b)]
    gen = stream_rng(seed, 23)
    for _ in range(restarts):
        v = gen.standard_normal(d)
        if cplx:
            v = (v + 1j * gen.standard_normal(d)) / np.sqrt(2)
        starts.append(v)

    total_iters = 0
    finals = []
    for si, x in enumerate(starts):
        z = A @ x
        hist = []
        prev = np.inf
        for _ in range(max_iters):
            x = np.linalg.solve(R, Qh @ (phases(z) * b))
            z = A @ x
            res = float(np.linalg.norm(np.abs(z) - b))
            hist.append(res)
            if prev - res < tol:
                break
            prev = res
        total_iters += len(hist)
        finals.append((hist[-1], x))
        if si == 0 or hist[-1] < best_hist[-1]:
            best_si, best_x, best_hist = si, x, tuple(hist)

    residual = best_hist[-1]
    slack = CERTIFY_SLACK * EPS * np.linalg.norm(problem.b)
    certified = problem.eta is not None and residual <= float(np.linalg.norm(problem.eta)) + slack
    result = RecoveryResult(
        x_hat=best_x,
        residual=residual,
        dist_to_truth=dist(best_x, problem.x0) if problem.x0 is not None else None,
        certified=bool(certified),
        iterations=total_iters,
        best_start=best_si,
        residual_history=best_hist,
    )
    return result, finals


def ill_conditioned_matrix(sigma_min):
    U, _ = np.linalg.qr(sample_gaussian_matrix(80, 3, Field.REAL, seed=14))
    V, _ = np.linalg.qr(sample_gaussian_matrix(3, 3, Field.REAL, seed=15))
    return (U * np.array([1.0, 0.5, sigma_min])) @ V.T


def oracle_corpus():
    """(problem, seed) pairs: both fields, noisy and noiseless, ill-conditioned, fixed matrix."""
    for field, m, d in ((Field.REAL, 120, 4), (Field.COMPLEX, 80, 4)):
        for noise in (0.0, 0.1):
            for seed in range(3):
                yield make_gaussian_problem(m, d, field, noise, seed=seed), seed
    for sigma_min in (1e-6, 1e-8, 1e-10):
        yield make_problem_for_matrix(ill_conditioned_matrix(sigma_min), 0.0, seed=16), 16
    A = sample_gaussian_matrix(300, 4, Field.REAL, seed=21)
    for stream in range(3):
        yield make_problem_for_matrix(A, 0.1, seed=21, stream=stream), stream


class TestSolver:
    def test_noiseless_recovery(self):
        problem = make_gaussian_problem(50, 5, Field.REAL, noise_level=0.0, seed=1)
        result = solve_quadratic_model(problem, seed=1)
        assert result.dist_to_truth <= 1e-8
        assert result.certified
        assert result.residual <= 1e-8

    def test_noiseless_recovery_complex(self):
        problem = make_gaussian_problem(80, 4, Field.COMPLEX, noise_level=0.0, seed=2)
        result = solve_quadratic_model(problem, seed=2)
        assert result.dist_to_truth <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_complex_recovery_is_certified(self, seed):
        # the residual of an exact complex recovery sits some 100s of eps ||b|| above
        # zero, past an absolute 1e-12 slack; the relative slack certifies it
        problem = make_gaussian_problem(80, 4, Field.COMPLEX, 0.0, seed=seed)
        result = solve_quadratic_model(problem, seed=seed)
        assert result.dist_to_truth <= 1e-8 * np.linalg.norm(problem.x0)
        assert result.residual > 1e-12
        assert result.certified

    def test_zero_measurements_give_zero(self):
        A = sample_gaussian_matrix(20, 3, Field.REAL, seed=3)
        result = solve_quadratic_model(RecoveryProblem(matrix=A, b=np.zeros(20)))
        assert np.linalg.norm(result.x_hat) == 0.0
        assert result.residual == 0.0

    def test_residual_history_nonincreasing(self):
        problem = make_gaussian_problem(120, 4, Field.REAL, noise_level=0.1, seed=4)
        result = solve_quadratic_model(problem, seed=4)
        hist = result.residual_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_certified_implies_two_eta_identity(self):
        for trial in range(6):
            problem = make_gaussian_problem(150, 3, Field.REAL, noise_level=0.1, seed=trial)
            result = solve_quadratic_model(problem, seed=trial)
            if result.certified:
                gap = np.linalg.norm(
                    phaseless_map(problem.matrix, result.x_hat)
                    - phaseless_map(problem.matrix, problem.x0)
                )
                assert gap <= 2 * np.linalg.norm(problem.eta) + 1e-9

    def test_solution_only_defined_up_to_sign(self):
        problem = make_gaussian_problem(60, 3, Field.REAL, noise_level=0.0, seed=6)
        result = solve_quadratic_model(problem, seed=6)
        raw = np.linalg.norm(result.x_hat - problem.x0)
        flipped = np.linalg.norm(result.x_hat + problem.x0)
        assert min(raw, flipped) == pytest.approx(dist(result.x_hat, problem.x0), abs=1e-12)

    def test_noiseless_recovery_d12(self):
        problem = make_gaussian_problem(400, 12, Field.REAL, noise_level=0.0, seed=7)
        result = solve_quadratic_model(problem, seed=7)
        assert result.dist_to_truth <= 1e-7

    @pytest.mark.parametrize("sigma_min", [1e-6, 1e-8, 1e-10])
    def test_ill_conditioned_noiseless_recovery(self, sigma_min):
        # least squares through QR sees cond(A), not the cond(A)^2 of the normal equations
        problem = make_problem_for_matrix(ill_conditioned_matrix(sigma_min), 0.0, seed=16)
        result = solve_quadratic_model(problem, seed=16)
        assert result.dist_to_truth <= 1e-6 * np.linalg.norm(problem.x0)
        assert result.certified

    def test_complex_d12_pinned(self):
        # bit-exact values of one seeded run; any change to the arithmetic moves them
        problem = make_gaussian_problem(400, 12, Field.COMPLEX, noise_level=0.1, seed=7)
        result = solve_quadratic_model(problem, seed=7)
        assert result.residual == float.fromhex("0x1.e038ed1d84950p+2")
        assert result.iterations == 786
        assert result.best_start == 0

    def test_rank_deficient_matrix_raises(self):
        A = np.zeros((6, 2))
        A[:, 0] = np.arange(1, 7)
        with pytest.raises(ConditioningError):
            solve_quadratic_model(RecoveryProblem(matrix=A, b=np.ones(6)))

    def test_b_length_validated(self):
        A = sample_gaussian_matrix(5, 2, Field.REAL, seed=0)
        with pytest.raises(ValueError):
            RecoveryProblem(matrix=A, b=np.ones(4))

    def test_deterministic_given_seed(self):
        problem = make_gaussian_problem(100, 4, Field.REAL, noise_level=0.05, seed=8)
        r1 = solve_quadratic_model(problem, seed=8)
        r2 = solve_quadratic_model(problem, seed=8)
        assert np.array_equal(r1.x_hat, r2.x_hat)
        assert r1.residual == r2.residual


class TestBatchedStarts:
    def test_matches_serial_oracle(self):
        for problem, seed in oracle_corpus():
            result = solve_quadratic_model(problem, seed=seed)
            ref, _ = serial_solve(problem, seed=seed)
            scale = np.linalg.norm(problem.x0)
            assert abs(result.residual - ref.residual) <= 16 * EPS * np.linalg.norm(problem.b)
            assert abs(result.dist_to_truth - ref.dist_to_truth) <= 1e-6 * scale
            assert result.certified == ref.certified
            assert (
                check_error_bound(result, problem)["holds"] == check_error_bound(ref, problem)["holds"]
            )
            assert abs(result.iterations - ref.iterations) <= 17  # one per start

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_best_history_nonincreasing(self, field):
        for seed in range(4):
            problem = make_gaussian_problem(120, 4, field, noise_level=0.1, seed=seed)
            hist = solve_quadratic_model(problem, seed=seed).residual_history
            slack = 4 * EPS * np.linalg.norm(problem.b)
            assert all(a >= b - slack for a, b in zip(hist, hist[1:]))

    @pytest.mark.parametrize("max_iters", [1, 3, 200])
    def test_history_within_budget(self, max_iters):
        problem = make_gaussian_problem(120, 4, Field.COMPLEX, noise_level=0.1, seed=5)
        result = solve_quadratic_model(problem, max_iters=max_iters, seed=5)
        assert 1 <= len(result.residual_history) <= max_iters
        assert result.residual == result.residual_history[-1]
        assert result.iterations <= 17 * max_iters
        if max_iters == 1:
            assert result.iterations == 17

    def test_no_restarts_runs_spectral_start_alone(self):
        for field in (Field.REAL, Field.COMPLEX):
            problem = make_gaussian_problem(120, 4, field, noise_level=0.1, seed=6)
            result = solve_quadratic_model(problem, restarts=0, seed=6)
            ref, finals = serial_solve(problem, restarts=0, seed=6)
            assert len(finals) == 1
            assert result.best_start == 0
            assert result.iterations == len(result.residual_history)
            assert abs(result.iterations - ref.iterations) <= 1
            assert abs(result.residual - ref.residual) <= 16 * EPS * np.linalg.norm(problem.b)

    def test_tied_starts_resolve_to_spectral(self):
        checked = 0
        for seed in range(6):
            problem = make_gaussian_problem(200, 4, Field.REAL, noise_level=0.0, seed=seed)
            _, finals = serial_solve(problem, seed=seed)
            scale = np.linalg.norm(problem.x0)
            if all(dist(x, problem.x0) <= 1e-8 * scale for _, x in finals):
                checked += 1
                assert solve_quadratic_model(problem, seed=seed).best_start == 0
        assert checked >= 4


class TestProblemSynthesis:
    def test_exact_decomposition_and_nonnegativity(self):
        problem = make_gaussian_problem(200, 4, Field.REAL, noise_level=0.2, seed=9)
        b0 = phaseless_map(problem.matrix, problem.x0)
        assert np.array_equal(problem.b, b0 + problem.eta)
        assert (problem.b >= 0).all()

    def test_noise_norm_scaling(self):
        problem = make_gaussian_problem(200, 4, Field.REAL, noise_level=0.1, seed=10)
        b0 = phaseless_map(problem.matrix, problem.x0)
        assert np.linalg.norm(problem.eta) == pytest.approx(0.1 * np.linalg.norm(b0))


class TestErrorBound:
    def test_zero_noise_degenerates(self):
        problem = make_gaussian_problem(50, 5, Field.REAL, noise_level=0.0, seed=11)
        result = solve_quadratic_model(problem, seed=11)
        out = check_error_bound(result, problem, delta=0.05)
        assert out["bound"] == 0.0
        assert out["achieved"] <= 1e-8
        assert out["holds"] in (True, False)

    def test_real_coefficient(self):
        # 2 * beta0 matches the quoted 3.3178 prefactor
        assert 2 * universal_lower_bound(Field.REAL) == pytest.approx(3.3178, abs=2e-4)

    def test_complex_coefficient(self):
        assert 2 * universal_lower_bound(Field.COMPLEX) == pytest.approx(4.3173, abs=2e-4)

    def test_delta_validation(self):
        problem = make_gaussian_problem(50, 5, Field.REAL, noise_level=0.1, seed=12)
        result = solve_quadratic_model(problem, seed=12)
        with pytest.raises(ValueError):
            check_error_bound(result, problem, delta=0.2)
        with pytest.raises(ValueError):
            check_error_bound(result, problem, delta=0.0)
        check_error_bound(result, problem, delta=0.05)

    def test_requires_ground_truth(self):
        A = sample_gaussian_matrix(10, 2, Field.REAL, seed=13)
        problem = RecoveryProblem(matrix=A, b=np.abs(A @ np.ones(2)))
        result = solve_quadratic_model(problem)
        with pytest.raises(ValueError):
            check_error_bound(result, problem)

    def test_bound_holds_on_certified_trials(self):
        held = total = 0
        for trial in range(20):
            problem = make_gaussian_problem(300, 3, Field.REAL, noise_level=0.1, seed=trial)
            result = solve_quadratic_model(problem, seed=trial)
            if not result.certified:
                continue
            total += 1
            held += check_error_bound(result, problem, delta=0.05)["holds"]
        assert total >= 15
        assert held / total >= 0.9
