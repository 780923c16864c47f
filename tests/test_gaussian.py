import math
import tracemalloc

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
from prstab.gaussian import BM_CHUNK, _fold_angle

THETAS = [k * np.pi / 12 for k in range(7)]


def box_muller_reference(gen, shape):
    """The unblocked transform: both halves built whole, then concatenated."""
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    u1 = gen.random(pairs)
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    z = np.concatenate([radius * np.cos(2 * np.pi * u2), radius * np.sin(2 * np.pi * u2)])
    return z[:n].reshape(shape)


def mc_kernel_reference(field, theta, n, seed, stream=0):
    """The unblocked estimate: the whole sample of the documented layout, then numpy's stats.

    Row i takes the uniform draws (2i, 2i + 1), or 4i..4i + 3 for the complex
    field, whose second pair gives the imaginary parts.
    """
    pairs = 1 if field is Field.REAL else 2
    u = stream_rng(seed, stream).random((n, 2 * pairs))
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    ax = radius * np.cos(2 * np.pi * u[:, 1::2])
    ay = radius * np.sin(2 * np.pi * u[:, 1::2])
    if field is Field.COMPLEX:
        ax = (ax[:, 0] + 1j * ax[:, 1]) / np.sqrt(2.0)
        ay = (ay[:, 0] + 1j * ay[:, 1]) / np.sqrt(2.0)
    else:
        ax, ay = ax[:, 0], ay[:, 0]
    t = _fold_angle(theta)
    vals = np.abs(np.conj(ax) * (ax * np.cos(t) + ay * np.sin(t)))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


def hypergeometric_series(theta):
    """(pi/4) sum_n [(-1/2)_n / n!]^2 k^(2n), k = cos theta; every term after n = 0 is positive."""
    k2 = math.cos(theta) ** 2
    assert k2 <= 0.9
    terms, coef, n = [1.0], 1.0, 0
    while terms[-1] > 1e-20:
        coef *= (n - 0.5) / (n + 1)
        n += 1
        terms.append(coef * coef * k2**n)
    return math.pi / 4 * math.fsum(terms)


def sphere_quadrature(thetas, n_polar=512, n_azimuth=1024):
    """The former complex closed_form: a sphere surface integral of
    sqrt(1 + x cos t - y sin t) sqrt(1 + x cos t + y sin t) / (4 pi), Gauss-Legendre
    in the polar cosine crossed with a periodic trapezoid in azimuth."""
    s, w = np.polynomial.legendre.leggauss(n_polar)
    psi = 2 * np.pi * np.arange(n_azimuth) / n_azimuth
    rho = np.sqrt(np.maximum(1 - s**2, 0.0))
    x = rho[:, None] * np.cos(psi)[None, :]
    y = rho[:, None] * np.sin(psi)[None, :]
    values = []
    for theta in thetas:
        t = _fold_angle(theta)
        integrand = np.sqrt(np.maximum(1 + x * np.cos(t) - y * np.sin(t), 0.0)) * np.sqrt(
            np.maximum(1 + x * np.cos(t) + y * np.sin(t), 0.0)
        )
        integral = float((w[:, None] * integrand).sum() * (2 * np.pi / n_azimuth))
        values.append(integral / (4 * np.pi))
    return np.array(values)


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

    @pytest.mark.parametrize(
        "shape",
        [1, 2, 3, BM_CHUNK - 1, BM_CHUNK, BM_CHUNK + 1, 2 * BM_CHUNK + 3, (10**6, 2)],
    )
    def test_box_muller_blocks_are_bit_identical(self, shape):
        z = box_muller(stream_rng(7, 3), shape)
        ref = box_muller_reference(stream_rng(7, 3), shape)
        assert z.shape == ref.shape
        assert z.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m, d", [(1, 1), (333, 3), (20000, 3)])
    def test_complex_matrix_is_bit_identical(self, m, d):
        gen = stream_rng(11, 2)
        re = box_muller_reference(gen, (m, d))
        im = box_muller_reference(gen, (m, d))
        ref = (re + 1j * im) / np.sqrt(2.0)
        A = sample_gaussian_matrix(m, d, Field.COMPLEX, seed=11, stream=2)
        assert A.tobytes() == ref.tobytes()


class TestKernelClosedForms:
    def test_real_endpoints(self):
        assert abs(kernel_expectation_real(0.0) - 1.0) < 1e-15
        assert abs(kernel_expectation_real(np.pi / 2) - 2 / np.pi) < 1e-15

    def test_real_interior_value(self):
        # frozen from the formula; the independent Monte Carlo oracle with
        # 1e7 pairs gives 0.71779 +- 0.00031, bracketing this value
        assert abs(kernel_expectation_real(np.pi / 3) - 0.7179955620884588) < 1e-12

    def test_complex_endpoints(self):
        assert abs(kernel_expectation_complex(0.0) - 1.0) < 1e-15
        assert abs(kernel_expectation_complex(np.pi / 2) - np.pi / 4) < 1e-15

    def test_angle_folding(self):
        assert kernel_expectation_real(np.pi) == pytest.approx(kernel_expectation_real(0.0))
        assert kernel_expectation_real(-0.3) == pytest.approx(kernel_expectation_real(0.3))

    def test_complex_angle_folding(self):
        for t in np.linspace(0.01, np.pi / 2, 50):
            value = kernel_expectation_complex(t)
            assert kernel_expectation_complex(-t) == value
            assert kernel_expectation_complex(np.pi - t) == pytest.approx(value, rel=1e-14, abs=0)

    def test_complex_nan_angle_is_nan(self):
        assert np.isnan(kernel_expectation_complex(np.nan))

    def test_complex_matches_hypergeometric_series(self):
        grid = np.linspace(-2 * np.pi, 2 * np.pi, 2001)
        grid = grid[np.cos(grid) ** 2 <= 0.9]
        assert len(grid) > 1000
        for t in grid:
            assert kernel_expectation_complex(t) == pytest.approx(
                hypergeometric_series(t), rel=1e-14, abs=0
            )

    def test_complex_matches_former_quadrature(self):
        grid = np.linspace(0, np.pi / 2, 401)
        closed = np.array([kernel_expectation_complex(t) for t in grid])
        assert np.abs(sphere_quadrature(grid) - closed).max() <= 3e-9

    def test_complex_strictly_decreasing(self):
        vals = [kernel_expectation_complex(t) for t in np.linspace(0, np.pi / 2, 2000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_monotone_decreasing(self, field):
        grid = np.linspace(0, np.pi / 2, 40)
        if field is Field.REAL:
            vals = [kernel_expectation_real(t) for t in grid]
        else:
            vals = [kernel_expectation_complex(t) for t in grid]
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
        estimates, ses = mc_kernel_expectation(field, THETAS, 10**5, seed=42)
        for t, est, se in zip(THETAS, estimates, ses):
            closed = (
                kernel_expectation_real(t)
                if field is Field.REAL
                else kernel_expectation_complex(t)
            )
            assert abs(est - closed) <= 4 * se

    def test_theta_zero_estimates_one(self):
        (est,), (se,) = mc_kernel_expectation(Field.REAL, [0.0], 10**5, seed=0)
        assert abs(est - 1.0) <= 4 * se

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_kernel_expectation(Field.REAL, [0.1], 100, seed=0)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize(
        "n", [1000, 1001, 1002, 1003, 2 * BM_CHUNK - 1, 2 * BM_CHUNK + 1, 10**5 + 3]
    )
    def test_matches_whole_sample_reference(self, field, n):
        # the blocks and the running merge sum in another order than numpy's
        # whole-array mean and std, so the two agree to roundoff, not bit for bit;
        # every angle of the grid is scored on the one sample of stream 0
        thetas = [0.0, 0.9, np.pi / 2]
        estimates, ses = mc_kernel_expectation(field, thetas, n, seed=13)
        assert estimates.shape == ses.shape == (len(thetas),)
        for t, est, se in zip(thetas, estimates, ses):
            ref_est, ref_se = mc_kernel_reference(field, t, n, seed=13, stream=0)
            assert est == pytest.approx(ref_est, rel=1e-13, abs=0)
            assert se == pytest.approx(ref_se, rel=1e-13, abs=0)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_repeated_call_gives_same_bits(self, field):
        thetas = [0.0, 0.7, 1.2]
        first = mc_kernel_expectation(field, thetas, 2 * BM_CHUNK + 5, seed=21)
        again = mc_kernel_expectation(field, thetas, 2 * BM_CHUNK + 5, seed=21)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("n", [10**6, 4 * 10**6])
    def test_memory_does_not_grow_with_n(self, field, n):
        # the block buffers, allocated once per call; nothing n-length or
        # grid-sized beyond the per-angle statistics is kept
        for grid in (1, 64):
            tracemalloc.start()
            try:
                mc_kernel_expectation(field, np.linspace(0.0, np.pi / 2, grid), n, seed=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 8 * BM_CHUNK


class TestExperiment:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaussianExperiment(Field.REAL, 2, (50, 50), 2, 0)
        with pytest.raises(ValueError):
            GaussianExperiment(Field.REAL, 2, (50,), 0, 0)

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
