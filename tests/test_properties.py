"""Property tests of the d = 2 and real d = 3 lower constants and the condition-number floors.

Examples are derandomized and bounded, so every run checks the same inputs.
Real entries are multiples of 1/100, which makes zero, parallel and tied rows
common.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prstab import (
    Field,
    condition_number,
    lower_lipschitz_exact_real,
    lower_lipschitz_numeric,
    real_beta_lower_bound,
    sample_gaussian_matrix,
    universal_lower_bound,
    upper_lipschitz,
)
from prstab.stability import METHOD_NUMERIC

SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@st.composite
def real_m_by_2(draw, min_rows=1, max_rows=14):
    m = draw(st.integers(min_rows, max_rows))
    cells = draw(st.lists(st.integers(-1000, 1000), min_size=2 * m, max_size=2 * m))
    return np.array(cells, dtype=float).reshape(m, 2) / 100


def lower_sq(A):
    return lower_lipschitz_exact_real(A)[0] ** 2


def assert_same_lower(A, B):
    # both values carry roundoff of a few eps * ||A||_F^2 <= 2 eps U^2
    assert abs(lower_sq(A) - lower_sq(B)) <= 1e-13 * upper_lipschitz(A) ** 2


@SETTINGS
@given(real_m_by_2(), st.data())
def test_row_sign_flips(A, data):
    m = len(A)
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    assert_same_lower(A, signs[:, None] * A)


@SETTINGS
@given(real_m_by_2(), st.data())
def test_row_permutations(A, data):
    perm = data.draw(st.permutations(range(len(A))))
    assert_same_lower(A, A[list(perm)])


@SETTINGS
@given(real_m_by_2(), st.floats(0.0, 2 * np.pi))
def test_rotations(A, phi):
    Q = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    assert_same_lower(A, A @ Q)


@SETTINGS
@given(real_m_by_2(), st.floats(1e-3, 1e3))
def test_scaling(A, c):
    assert abs(lower_sq(c * A) / c**2 - lower_sq(A)) <= 1e-13 * upper_lipschitz(A) ** 2


@SETTINGS
@given(real_m_by_2(min_rows=3))
def test_beta_respects_floors(A):
    beta = condition_number(A).beta
    assert beta >= universal_lower_bound(Field.REAL) * (1 - 1e-12)
    assert beta >= real_beta_lower_bound(A.shape[0]) * (1 - 1e-12)


# Complex d = 2: the numeric search value.  Matrices are Gaussian with m >= 4 = 4d - 4 rows,
# so that generic instances do phase retrieval and L is far from 0; integer grids as above
# would give real or rank-one matrices, whose L is 0 and has no relative tolerance.
COMPLEX_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None, database=None)
COMPLEX_RTOL = 1e-9


@st.composite
def complex_m_by_2(draw):
    m = draw(st.integers(4, 24))
    return sample_gaussian_matrix(m, 2, Field.COMPLEX, seed=draw(st.integers(0, 2**32 - 1)))


def numeric_lower(A):
    return lower_lipschitz_numeric(A)[0]


def assert_same_numeric_lower(A, B):
    assert numeric_lower(B) == pytest.approx(numeric_lower(A), rel=COMPLEX_RTOL, abs=0)


@COMPLEX_SETTINGS
@given(complex_m_by_2(), st.data())
def test_complex_row_phases(A, data):
    m = len(A)
    phases = np.array(data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=m, max_size=m)))
    assert_same_numeric_lower(A, np.exp(1j * phases)[:, None] * A)


@COMPLEX_SETTINGS
@given(complex_m_by_2(), st.data())
def test_complex_row_permutations(A, data):
    perm = data.draw(st.permutations(range(len(A))))
    assert_same_numeric_lower(A, A[list(perm)])


@COMPLEX_SETTINGS
@given(complex_m_by_2(), st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_complex_right_unitary_maps(A, cells):
    Q, _ = np.linalg.qr(np.array(cells[:4]).reshape(2, 2) + 1j * np.array(cells[4:]).reshape(2, 2))
    assert_same_numeric_lower(A, A @ Q)


@COMPLEX_SETTINGS
@given(complex_m_by_2(), st.floats(1e-2, 1e2))
def test_complex_scaling(A, c):
    assert numeric_lower(c * A) / c == pytest.approx(numeric_lower(A), rel=COMPLEX_RTOL, abs=0)


@COMPLEX_SETTINGS
@given(complex_m_by_2())
def test_complex_beta_respects_floor(A):
    beta = condition_number(A, METHOD_NUMERIC).beta
    assert beta >= universal_lower_bound(Field.COMPLEX) * (1 - 1e-12)


# Real d = 3: the exact value by split enumeration, on the integer grid of the d = 2 tests.
# m = 3..10 keeps each matrix at most 512 splits, so the Tier-1 time stays bounded.
D3_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None, database=None)


@st.composite
def real_m_by_3(draw):
    m = draw(st.integers(3, 10))
    cells = draw(st.lists(st.integers(-1000, 1000), min_size=3 * m, max_size=3 * m))
    return np.array(cells, dtype=float).reshape(m, 3) / 100


@D3_SETTINGS
@given(real_m_by_3(), st.data())
def test_d3_row_sign_flips(A, data):
    m = len(A)
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    assert_same_lower(A, signs[:, None] * A)


@D3_SETTINGS
@given(real_m_by_3(), st.data())
def test_d3_row_permutations(A, data):
    perm = data.draw(st.permutations(range(len(A))))
    assert_same_lower(A, A[list(perm)])


@D3_SETTINGS
@given(real_m_by_3(), st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
def test_d3_right_orthogonal_maps(A, cells):
    Q, _ = np.linalg.qr(np.array(cells).reshape(3, 3))  # Householder Q is orthogonal for any cells
    assert_same_lower(A, A @ Q)


@D3_SETTINGS
@given(real_m_by_3(), st.floats(1e-3, 1e3))
def test_d3_scaling(A, c):
    assert abs(lower_sq(c * A) / c**2 - lower_sq(A)) <= 1e-13 * upper_lipschitz(A) ** 2


@D3_SETTINGS
@given(real_m_by_3())
def test_d3_beta_respects_floors(A):
    beta = condition_number(A).beta
    assert beta >= universal_lower_bound(Field.REAL) * (1 - 1e-12)
    assert beta >= real_beta_lower_bound(A.shape[0]) * (1 - 1e-12)
