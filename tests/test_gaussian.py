import numpy as np
import pytest

from prstab import (
    Field,
    GaussianExperiment,
    box_muller,
    gaussian_beta_experiment,
    kernel_expectation_bound,
    kernel_expectation_complex,
    kernel_expectation_real,
    mc_kernel_expectation,
    sample_gaussian_matrix,
    stream_rng,
    universal_lower_bound,
)

THETAS = [k * np.pi / 12 for k in range(7)]


class TestSampling:
    def test_real_moments(self):
        A = sample_gaussian_matrix(10**5, 1, Field.REAL, seed=1)
        assert abs(A.mean()) < 4 / np.sqrt(10**5)
        assert abs(A.var() - 1.0) < 0.02

    def test_complex_unit_mean_square(self):
        A = sample_gaussian_matrix(10**5, 1, Field.COMPLEX, seed=2)
        assert abs(np.mean(np.abs(A) ** 2) - 1.0) < 0.02

    def test_fixed_seed_is_bit_identical(self):
        A = sample_gaussian_matrix(50, 3, Field.COMPLEX, seed=9, stream=4)
        B = sample_gaussian_matrix(50, 3, Field.COMPLEX, seed=9, stream=4)
        assert np.array_equal(A, B)

    def test_streams_are_distinct(self):
        A = sample_gaussian_matrix(20, 2, Field.REAL, seed=9, stream=0)
        B = sample_gaussian_matrix(20, 2, Field.REAL, seed=9, stream=1)
        assert not np.array_equal(A, B)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sample_gaussian_matrix(0, 2, Field.REAL, seed=0)

    def test_box_muller_moments_and_determinism(self):
        z1 = box_muller(stream_rng(5, 0), (10**5,))
        z2 = box_muller(stream_rng(5, 0), (10**5,))
        assert np.array_equal(z1, z2)
        assert abs(z1.mean()) < 0.02
        assert abs(z1.var() - 1) < 0.02
        assert abs(np.mean(z1**3)) < 0.05  # symmetric
        assert abs(np.mean(z1**4) - 3) < 0.15


class TestKernelClosedForms:
    def test_real_endpoints(self):
        assert abs(kernel_expectation_real(0.0) - 1.0) < 1e-15
        assert abs(kernel_expectation_real(np.pi / 2) - 2 / np.pi) < 1e-15

    def test_real_interior_value(self):
        # frozen from the formula; the independent Monte Carlo oracle with
        # 1e7 pairs gives 0.71779 +- 0.00031, bracketing this value
        assert abs(kernel_expectation_real(np.pi / 3) - 0.7179955620884588) < 1e-12

    def test_complex_endpoints(self):
        assert abs(kernel_expectation_complex(0.0) - 1.0) < 1e-12
        assert abs(kernel_expectation_complex(np.pi / 2) - np.pi / 4) < 1e-8

    def test_angle_folding(self):
        assert kernel_expectation_real(np.pi) == pytest.approx(kernel_expectation_real(0.0))
        assert kernel_expectation_real(-0.3) == pytest.approx(kernel_expectation_real(0.3))

    def test_quadrature_size_validation(self):
        with pytest.raises(ValueError):
            kernel_expectation_complex(0.5, n_polar=8)

    def test_quadrature_refinement_converges(self):
        coarse = kernel_expectation_complex(0.7, 64, 128)
        fine = kernel_expectation_complex(0.7, 512, 1024)
        finest = kernel_expectation_complex(0.7, 768, 1536)
        assert abs(fine - finest) < abs(coarse - finest) + 1e-12
        assert abs(fine - finest) < 1e-9

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_monotone_decreasing(self, field):
        grid = np.linspace(0, np.pi / 2, 40)
        if field is Field.REAL:
            vals = [kernel_expectation_real(t) for t in grid]
        else:
            vals = [kernel_expectation_complex(t, 128, 256) for t in grid]
        assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_bound_inequality_pointwise(self, field):
        for t in np.linspace(0, np.pi / 2, 25):
            closed = (
                kernel_expectation_real(t)
                if field is Field.REAL
                else kernel_expectation_complex(t)
            )
            assert closed <= kernel_expectation_bound(field, t) + 1e-8

    def test_bound_tightness_points(self):
        assert kernel_expectation_bound(Field.REAL, 0.0) == pytest.approx(1.0)
        assert kernel_expectation_bound(Field.REAL, np.pi / 2) == pytest.approx(2 / np.pi)
        assert kernel_expectation_bound(Field.COMPLEX, np.pi / 2) == pytest.approx(np.pi / 4)


class TestMonteCarlo:
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_matches_closed_form_within_four_se(self, field):
        for i, t in enumerate(THETAS):
            est, se = mc_kernel_expectation(field, t, 10**5, seed=42, stream=i)
            closed = (
                kernel_expectation_real(t)
                if field is Field.REAL
                else kernel_expectation_complex(t)
            )
            assert abs(est - closed) <= 4 * se

    def test_theta_zero_estimates_one(self):
        est, se = mc_kernel_expectation(Field.REAL, 0.0, 10**5, seed=0)
        assert abs(est - 1.0) <= 4 * se

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_kernel_expectation(Field.REAL, 0.1, 100, seed=0)


class TestExperiment:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaussianExperiment(Field.REAL, 2, (50, 50), 2, 0)
        with pytest.raises(ValueError):
            GaussianExperiment(Field.REAL, 2, (50,), 0, 0)
        cfg = GaussianExperiment(Field.REAL, 4, (10, 20), 1, 0, restarts=4)
        assert cfg.restarts == 32  # floor of 8 * d

    def test_rows_ordered_and_deterministic(self):
        cfg = GaussianExperiment(Field.REAL, 2, (20, 40), 2, seed=11)
        rows1 = gaussian_beta_experiment(cfg)
        rows2 = gaussian_beta_experiment(cfg)
        assert [(r.m, r.trial) for r in rows1] == [(20, 0), (20, 1), (40, 0), (40, 1)]
        assert rows1 == rows2

    def test_row_contents(self):
        cfg = GaussianExperiment(Field.REAL, 2, (60,), 3, seed=5)
        beta0 = universal_lower_bound(Field.REAL)
        for row in gaussian_beta_experiment(cfg):
            assert row.beta == pytest.approx(row.upper / row.lower)
            assert row.beta_floor == beta0
            assert row.excess == pytest.approx(row.beta - beta0)
            assert row.beta >= beta0 - 1e-6

    def test_scaled_constants_at_moderate_m(self):
        cfg = GaussianExperiment(Field.REAL, 2, (500,), 2, seed=3)
        for row in gaussian_beta_experiment(cfg):
            assert row.lower / np.sqrt(row.m) <= 1 + 0.05
            assert row.lower / np.sqrt(row.m) >= 1 / row.beta_floor - 0.15
            assert 0.8 <= row.upper / np.sqrt(row.m) <= 1.2
