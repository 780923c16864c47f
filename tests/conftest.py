import numpy as np
import pytest

from prstab import Field, sample_gaussian_matrix


def random_real_corpus(count: int, seed: int = 2024):
    """Seeded real matrices with d in {2, 3} and m in [2d-1, 10]."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2 * d - 1, 11))
        out.append(rng.standard_normal((m, d)))
    return out


def random_complex_corpus(count: int, seed: int = 4048):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2 * d - 1, 11))
        out.append((rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))) / np.sqrt(2))
    return out


@pytest.fixture(scope="session")
def real_corpus():
    return random_real_corpus(210)


@pytest.fixture(scope="session")
def complex_corpus():
    return random_complex_corpus(52)


@pytest.fixture(scope="session")
def small_gaussian_real():
    return sample_gaussian_matrix(40, 2, Field.REAL, seed=7)


@pytest.fixture
def rank_one_8x2():
    """Real 8 x 2 matrix whose rows are all parallel (lower constant 0), seed 508."""
    rng = np.random.default_rng(508)
    rows = rng.standard_normal((9, 8, 2)) * rng.uniform(0.1, 3.0, (9, 8, 1))
    return rows[3, :1] * rng.uniform(-2, 2, (8, 1))
