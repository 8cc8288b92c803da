"""Orthogonal binary codes for multiplexed measurements.

The matrix for k_codes sequences is a k_codes x n int64 array of +-1, one
period n = 2 ** max(k_codes - 1, 0) of its longest row.  Row 0 is all
ones; row k (k >= 1) alternates blocks of +1 then -1 of length 2 ** (k - 1).
Distinct rows are exactly orthogonal in integer arithmetic, and every row
other than row 0 sums to zero.  Emitter and receiver share two rules from
here: row_of says which row indices exist, and averaging_block which
periods of a plan the receiver averages and the emitter checks plans by.
"""

from __future__ import annotations

import numpy as np


def build_code_matrix(k_codes: int) -> np.ndarray:
    """Build the orthogonal code matrix for k_codes sequences."""
    if not 1 <= k_codes <= 16:
        raise ValueError(f"k_codes must be in 1..16, got {k_codes}")
    n = 2 ** max(k_codes - 1, 0)
    rows = [np.ones(n, dtype=np.int64)]
    for k in range(1, k_codes):
        block = 2 ** (k - 1)
        rows.append(np.tile(np.repeat([1, -1], block), n // (2 * block)))
    return np.vstack(rows, dtype=np.int64)


def verify_orthogonality(codes: np.ndarray) -> bool:
    """True when codes @ codes.T equals n * identity exactly."""
    rows, n = codes.shape
    return bool(np.array_equal(codes @ codes.T, n * np.eye(rows, dtype=np.int64)))


def row_of(codes: np.ndarray, index: int) -> np.ndarray:
    """Row `index` of a code matrix; numpy would wrap a negative index."""
    if not 0 <= index < len(codes):
        raise ValueError(f"code row index {index} out of range 0..{len(codes) - 1}")
    return codes[index]


def averaging_block(
    length: int,
    period_no: int,
    n: int,
    guard_periods: int = 2,
    total_periods: int | None = None,
) -> tuple[int, int]:
    """(start, count) in periods of the block a receiver averages.

    Of the length // period_no periods (capped at total_periods), guard
    periods at each end are discarded and the largest multiple of the code
    length n that fits is centred in what remains.  A plan with fewer than
    n + 2 * guard_periods periods leaves no block and is refused, as are a
    negative guard_periods and a length, period_no or guard_periods that is
    not an integer (numpy integers are).
    """
    for name, value in (
        ("length", length), ("period_no", period_no), ("guard_periods", guard_periods)
    ):
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if period_no < 1:
        raise ValueError(f"period_no must be >= 1, got {period_no}")
    if guard_periods < 0:
        raise ValueError(f"guard_periods must be >= 0, got {guard_periods}")
    total = length // period_no
    if total_periods is not None:
        total = min(total, total_periods)
    available = total - 2 * guard_periods
    count = (available // n) * n if available > 0 else 0
    if count < n:
        raise ValueError(
            f"too few periods: {total} repetitions, need at least "
            f"{n + 2 * guard_periods} for one code period plus guards"
        )
    return guard_periods + (available - count) // 2, count
