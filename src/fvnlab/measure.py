"""Pulse compression, synchronized averaging, and nonlinearity separation.

Compressing a recording with the time-reversed unit FVN collapses every
repetition into (a delayed copy of) the system impulse response.  Averaging
a code-aligned block of periods then cancels content carried by any other
code row exactly, while content carried by the matching row adds
coherently.  Both steps are linear, so demultiplex folds the code-weighted
periods first and then compresses one short buffer per code row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codes import averaging_block, row_of
from .resample import fftconvolve
from .signal import SampledSignal


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


def demultiplex(
    recorded: SampledSignal,
    units: list[SampledSignal],
    codes: np.ndarray,
    period_no: int,
    code_row_indices: list[int] | None = None,
    guard_periods: int = 2,
    total_periods: int | None = None,
) -> MeasurementResult:
    """Recover one impulse response per (unit pulse, code row) pair.

    `units` are emission-form pulses, matching what assemble_sequence
    placed.  By default unit i is paired with code row i.  Pass the
    emission's repetition count as total_periods when the pulse is longer
    than two periods, so trailing tail-only periods are not averaged in.
    The operation is linear in the recording, so scaled or summed
    recordings demultiplex to scaled or summed results.

    The result is pulse_compress then synchronized_average, up to rounding,
    in the other order; both stay as the reference, and averaging_block
    picks the block here as there.  Fold: that block is summed, each period
    times its code element and period_no + L - 1 samples long (L the unit
    length, zero-padded past the recording's end), into one buffer.
    Compress: correlate that buffer with the unit once.
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
    first, end = start * period_no, (start + count) * period_no
    end += max(unit.samples.size for unit in units) - 1
    block = recorded.samples[first:end]
    if block.size < end - first:
        block = np.concatenate([block, np.zeros(end - first - block.size)])
    phases = (start + np.arange(count)) % n
    irs = []
    for unit, row in zip(units, rows):
        size = unit.samples.size
        periods = sliding_window_view(block, period_no + size - 1)[::period_no][:count]
        folded = row[phases] @ periods
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
