import numpy as np
import pytest

from fvnlab import build_code_matrix, verify_orthogonality
from fvnlab.codes import averaging_block


def test_matrix_shape_and_entries():
    codes = build_code_matrix(3)
    assert len(codes) == 3
    assert codes.shape[1] == 4
    assert codes.shape == (3, 4)
    assert codes.dtype == np.int64
    assert set(np.unique(codes)) <= {-1.0, 1.0}


def test_row_zero_is_all_ones():
    for k in (1, 2, 5):
        assert np.all(build_code_matrix(k)[0] == 1.0)


def test_row_k_has_blocks_of_half_period():
    codes = build_code_matrix(3)
    # one period 4 of the longest row: row 1 in blocks of 1, row 2 of 2
    np.testing.assert_array_equal(codes[1], (-1.0) ** np.arange(4))
    np.testing.assert_array_equal(codes[2], np.repeat([1.0, -1.0], 2))


def test_rows_above_zero_sum_to_zero():
    codes = build_code_matrix(6)
    sums = codes.sum(axis=1)
    assert sums[0] == codes.shape[1]
    assert np.all(sums[1:] == 0.0)


def test_gram_matrix_is_exactly_scaled_identity():
    for k in range(1, 17):
        codes = build_code_matrix(k)
        assert codes.shape == (k, 2 ** max(k - 1, 0))  # one period of the rows
        gram = codes @ codes.T
        assert np.array_equal(gram, codes.shape[1] * np.eye(k))
        assert verify_orthogonality(codes)


def test_orthogonal_under_every_cyclic_shift():
    """Distinct rows stay orthogonal when the sequence start is unknown."""
    codes = build_code_matrix(4)
    n = codes.shape[1]
    for shift in range(n):
        shifted = np.roll(codes, shift, axis=1)
        gram = codes @ shifted.T
        off = gram[~np.eye(len(codes), dtype=bool)]
        assert np.all(off == 0.0)


def test_verify_detects_corruption():
    codes = build_code_matrix(2)
    bad = codes.copy()
    bad[1, 0] = -bad[1, 0]
    assert not verify_orthogonality(bad)


def test_build_bounds():
    with pytest.raises(ValueError):
        build_code_matrix(0)
    with pytest.raises(ValueError):
        build_code_matrix(17)


def test_averaging_block_centres_the_block_between_guards():
    # 12 periods, guards of 2: 8 left, the whole multiple of 2 codes
    assert averaging_block(52920, 4410, 2) == (2, 8)
    assert averaging_block(52920, 4410, 2, guard_periods=0) == (0, 12)


@pytest.mark.parametrize("guard", [-1, -3])
def test_averaging_block_refuses_negative_guards(guard):
    with pytest.raises(ValueError, match=f"guard_periods must be >= 0, got {guard}"):
        averaging_block(52920, 4410, 2, guard_periods=guard)


@pytest.mark.parametrize(
    "args, name",
    [
        ((52920, 4410, 2, 1.5), "guard_periods"),
        ((52920, 4410.0, 2), "period_no"),
        ((52920.0, 4410, 2), "length"),
        ((52920, np.float64(4410.0), 2), "period_no"),
    ],
)
def test_averaging_block_refuses_non_integers(args, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        averaging_block(*args)


def test_averaging_block_takes_numpy_integers():
    assert averaging_block(np.int64(52920), np.int32(4410), 2, np.int64(2)) == (2, 8)
