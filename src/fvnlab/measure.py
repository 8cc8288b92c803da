"""Pulse compression, synchronized averaging, and nonlinearity separation.

Compressing a recording with the time-reversed unit FVN collapses every
repetition into (a delayed copy of) the system impulse response.  Averaging
a code-aligned block of periods then cancels content carried by any other
code row exactly, while content carried by the matching row adds
coherently.  Both steps are linear, so demultiplex folds the code-weighted
periods first and then compresses one short buffer per code row.  Undoing
a shaping filter is linear and time-invariant too, so it runs on those
buffers, not on the recording.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codes import averaging_block, row_of
from .resample import fftconvolve
from .sequence import ShapingFilter, inverse_shape
from .signal import SampledSignal

FOLD_ROWS = 32  # periods per fold product; see _fold


@dataclass(frozen=True, eq=False)
class MeasurementResult:
    """Per-code impulse responses plus derived linear/nonlinear splits.

    linear_ir is the samplewise mean of per_code_irs.  deviations (per-code
    IR minus the mean), their per-code RMS and their RMS pooled over all
    codes are filled by separate_nonlinear.  periods_averaged counts the
    periods that went into each per-code average.
    """

    per_code_irs: list[SampledSignal]
    linear_ir: SampledSignal
    period_no: int
    periods_averaged: int
    deviations: list[SampledSignal] | None = None
    deviation_rms: np.ndarray | None = None
    pooled_deviation_rms: float | None = None


def pulse_compress(recorded: SampledSignal, unit: SampledSignal) -> SampledSignal:
    """Convolve with the time-reversed unit pulse, compensating its group delay.

    `unit` must be the pulse waveform as emitted, i.e. center_pulse of a
    synthesized unit FVN (the raw circular buffer splits its envelope at the
    buffer seam and does not compress cleanly under linear convolution).  A
    recording equal to the undelayed pulse compresses to a unit impulse at
    sample 0; any propagation delay shows up as a positive offset.  The
    output has the same length as the input (the leading transient of the
    linear convolution is cut off).
    """
    if recorded.fs != unit.fs:
        raise ValueError("sample rates of recording and unit FVN differ")
    reversed_unit = unit.samples[::-1]
    full = fftconvolve(recorded.samples, reversed_unit)
    return SampledSignal(full[unit.samples.size - 1 :], recorded.fs)


def synchronized_average(
    compressed: SampledSignal,
    code_row: np.ndarray,
    period_no: int,
    guard_periods: int = 2,
    total_periods: int | None = None,
) -> SampledSignal:
    """Average a centered, code-length-multiple block of periods.

    Segment r (absolute period index) is weighted by code_row[r mod n], so
    any contiguous block whose length is a multiple of n covers every code
    element equally often; content modulated by a different row cancels
    exactly.  guard_periods at each end are always discarded, and the
    averaged count is the largest multiple of n that fits, centered in what
    remains.  total_periods caps the period count at the number of actual
    pulse placements when the recording carries extra convolution tail
    (otherwise tail-only periods would dilute the average).
    """
    row = np.asarray(code_row, dtype=np.float64)
    if row.ndim != 1 or not np.all(np.abs(row) == 1):
        raise ValueError("code_row must be a 1-D +-1 sequence")
    start, count = averaging_block(
        len(compressed), period_no, row.size, guard_periods, total_periods
    )
    block = compressed.samples[start * period_no : (start + count) * period_no]
    segments = block.reshape(count, period_no)
    weights = row[(start + np.arange(count)) % row.size]
    return SampledSignal(weights @ segments / count, compressed.fs)


def _fold(x: np.ndarray, weights: np.ndarray, period_no: int, width: int) -> np.ndarray:
    """weights @ the rows x[r * period_no :][:width], r < weights.shape[1].

    One product per period_no columns and FOLD_ROWS rows: a row's share of
    those columns is a window view of x with row stride period_no, at
    least its width, which BLAS reads in place.  The row cap bounds the
    block OpenBLAS packs per product, whose pages stay resident for the
    rest of the process (on a SkylakeX build ~0.6 MB at 512 rows, ~50 KB
    at 32).
    """
    count = weights.shape[1]
    out = np.zeros((weights.shape[0], width))
    for a in range(0, width, period_no):
        b = min(a + period_no, width)
        rows = sliding_window_view(x[a : a + (count - 1) * period_no + b - a], b - a)
        rows = rows[::period_no]
        for r in range(0, count, FOLD_ROWS):
            out[:, a:b] += weights[:, r : r + FOLD_ROWS] @ rows[r : r + FOLD_ROWS]
    return out


def _unshaped(
    recorded: SampledSignal, filt: ShapingFilter | None, lo: int, hi: int
) -> np.ndarray:
    """Samples lo..hi - 1 of inverse_shape(recorded, filt), zero past its end."""
    x, p = recorded.samples, 0 if filt is None else filt.a.size
    span = np.zeros(hi - lo + p)
    a, b = max(lo - p, 0), min(hi, x.size)
    span[a - lo + p : b - lo + p] = x[a:b]
    if filt is not None:
        span = inverse_shape(SampledSignal(span, recorded.fs), filt).samples
    span = span[p:]
    span[max(x.size - lo, 0) :] = 0.0
    return span


def demultiplex(
    recorded: SampledSignal,
    units: list[SampledSignal],
    codes: np.ndarray,
    period_no: int,
    code_row_indices: list[int] | None = None,
    guard_periods: int = 2,
    total_periods: int | None = None,
    filt: ShapingFilter | None = None,
) -> MeasurementResult:
    """Recover one impulse response per (unit pulse, code row) pair.

    `units` are emission-form pulses, matching what assemble_sequence
    placed.  By default unit i is paired with code row i.  Pass the
    emission's repetition count as total_periods when the pulse is longer
    than two periods, so trailing tail-only periods are not averaged in.
    Pass the emission's shaping filter as `filt`: the result is then that
    of inverse_shape(recorded, filt), up to rounding.  The operation is
    linear in the recording, so scaled or summed recordings demultiplex to
    scaled or summed results.

    The result is pulse_compress then synchronized_average, up to rounding,
    in the other order; both stay as the reference, and averaging_block
    picks the block here as there.  Fold: that block is summed, each period
    times its code element and period_no + L - 1 samples long (L the
    longest unit), into one buffer per code; all codes' buffers are a
    (codes x periods) weight matrix times the periods, read in place.  With
    a filter of order p, the periods start p samples earlier and A(z) runs
    on each buffer instead of on the recording.  Periods that would read
    before the recording's start or past its end (zero there, and A's spill
    past the end cut as inverse_shape cuts it) are taken from
    inverse_shape of their own short span instead.  Compress: correlate
    each buffer with its unit once.
    """
    if not units:
        raise ValueError("need at least one unit FVN")
    if code_row_indices is None:
        code_row_indices = list(range(len(units)))
    if len(code_row_indices) != len(units):
        raise ValueError("one code row index per unit required")
    rows = [row_of(codes, index) for index in code_row_indices]
    if any(unit.fs != recorded.fs for unit in units):
        raise ValueError("sample rates of recording and unit FVN differ")
    n = codes.shape[1]
    start, count = averaging_block(
        len(recorded), period_no, n, guard_periods, total_periods
    )
    weights = np.array(rows, dtype=np.float64)[:, (start + np.arange(count)) % n]
    width = period_no + max(unit.samples.size for unit in units) - 1
    p = 0 if filt is None else filt.a.size
    first = start * period_no
    # periods lo..hi - 1 read p samples earlier and width past their start
    # without leaving the recording
    lo = min(count, -(-max(p - first, 0) // period_no))
    hi = max(lo, min(count, (len(recorded) - first - width) // period_no + 1))
    folds = np.zeros((len(units), width))
    if hi > lo:
        inner = recorded.samples[first - p + lo * period_no :]
        inner = _fold(inner, weights[:, lo:hi], period_no, width + p)
        for fold, f in zip(folds, inner):
            if filt is not None:
                f = inverse_shape(SampledSignal(f, recorded.fs), filt).samples
            fold += f[p:]
    for a, b in ((0, lo), (hi, count)):
        if b > a:
            end = first + (b - 1) * period_no + width
            span = _unshaped(recorded, filt, first + a * period_no, end)
            folds += _fold(span, weights[:, a:b], period_no, width)
    irs = []
    for unit, folded in zip(units, folds):
        size = unit.samples.size
        folded = folded[: period_no + size - 1]
        ir = fftconvolve(folded, unit.samples[::-1])[size - 1 : size - 1 + period_no]
        irs.append(SampledSignal(ir / count, recorded.fs))
    linear = SampledSignal(np.mean([ir.samples for ir in irs], axis=0), recorded.fs)
    return MeasurementResult(
        per_code_irs=irs,
        linear_ir=linear,
        period_no=period_no,
        periods_averaged=count,
    )


def separate_nonlinear(result: MeasurementResult) -> MeasurementResult:
    """Split per-code IRs into their mean and per-code deviations.

    The mean estimates the linear component; deviations collect what the
    time-frequency structure of each FVN spreads differently, i.e. the
    nonlinear (and noise) residue.  Requires at least two per-code IRs.
    Also reports the deviation RMS per code and pooled over all codes.
    """
    irs = result.per_code_irs
    if len(irs) < 2:
        raise ValueError("nonlinearity separation needs at least two code channels")
    stack = np.stack([ir.samples for ir in irs])
    mean, fs = result.linear_ir.samples, result.linear_ir.fs
    squared = (stack - mean) ** 2
    return replace(
        result,
        deviations=[SampledSignal(row - mean, fs) for row in stack],
        deviation_rms=np.sqrt(np.mean(squared, axis=1)),
        pooled_deviation_rms=float(np.sqrt(np.mean(squared))),
    )


def noise_floor(
    background: SampledSignal,
    units: list[SampledSignal],
    codes: np.ndarray,
    period_no: int,
    expected_length: int | None = None,
) -> SampledSignal:
    """Run the measurement pipeline on a background-only recording.

    The result is the level that the averaging pipeline would show with no
    stimulus: the effective noise floor of the measurement.  When
    expected_length is given, the background must match it so floor and
    measurement share the same averaging count.
    """
    if expected_length is not None and len(background) != expected_length:
        raise ValueError(
            f"background length {len(background)} does not match "
            f"measurement length {expected_length}"
        )
    return demultiplex(background, units, codes, period_no).linear_ir
