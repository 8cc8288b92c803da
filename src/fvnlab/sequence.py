"""Test-signal assembly: repetition, code modulation, spectral shaping.

A measurement signal repeats one unit FVN every period_no samples with the
polarity of an orthogonal code row.  Where repetitions are closer than the
FVN buffer the tails simply add; the code structure is what later lets the
receiver separate overlapping content again.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .codes import averaging_block, row_of
from .fvn import FvnSpec, center_pulse, synthesize_unit_fvn
from .resample import _fast_len, fftconvolve
from .signal import SampledSignal


def _is_minimum_phase(a: np.ndarray) -> bool:
    """Schur-Cohn test: every step-down reflection coefficient inside (-1, 1).

    Numerically far more reliable than root finding for high orders, where
    np.roots can report a pole on the circle for a comfortably stable
    polynomial.
    """
    coeffs = np.array(a, dtype=np.float64)
    while coeffs.size:
        k = coeffs[-1]
        if abs(k) >= 1.0:
            return False
        head = coeffs[:-1]
        coeffs = (head - k * head[::-1]) / (1.0 - k * k)
    return True


def _all_pole_db(a: np.ndarray, freqs: np.ndarray, fs: float) -> np.ndarray:
    """20 log10 |1 / A(z)| at the given frequencies for A = 1 + a_1 z^-1 + ...

    np.polyval on the reversed coefficients evaluates A at z^-1 by Horner's
    rule from a_p down to 1, the operations and order scipy.signal.freqz
    takes at explicit frequencies, so the values are identical.
    """
    zm1 = np.exp(-1j * (2 * np.pi * np.asarray(freqs, dtype=np.float64) / fs))
    h = 1.0 / np.polyval(np.concatenate([[1.0], a])[::-1], zm1)
    return 20.0 * np.log10(np.abs(h))


@dataclass(frozen=True, eq=False)
class ShapingFilter:
    """All-pole shaping filter 1 / A(z) given by its recursive coefficients.

    `a` holds a_1..a_p of A(z) = 1 + a_1 z^-1 + ... + a_p z^-p.  The filter
    is applied as y[n] = x[n] - sum a_k y[n-k]; inverse_shape applies A(z)
    itself, which undoes the shaping exactly.  Construction rejects
    non-finite coefficients and poles on or outside the unit circle.
    """

    a: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=np.float64))
        if a.ndim != 1:
            raise ValueError("coefficients must be 1-D")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        if a.size and not _is_minimum_phase(a):
            raise ValueError("unstable filter: poles must lie inside the unit circle")
        object.__setattr__(self, "a", a)

    def magnitude_db(self, freqs: np.ndarray, fs: float) -> np.ndarray:
        """Magnitude of 1 / A at the given frequencies, in dB."""
        return _all_pole_db(self.a, freqs, fs)

    def range_db(self, fs: float) -> float:
        """Full-band range of gain: max - min of magnitude_db over [0, fs/2]."""
        level = self.magnitude_db(np.linspace(0.0, fs / 2, 2**14 + 1), fs)
        return float(level.max() - level.min())

    def impulse_response(self, length: int) -> np.ndarray:
        """Impulse response of 1 / A(z), cut after T samples or at `length`.

        T = ceil(log(1e-18) / log r), with r the largest root magnitude of
        A, is where the slowest pole has decayed to 1e-18.  The response is
        the inverse FFT of 1 / A at the next 5-smooth length M >= T, taken
        from T even when `length` is shorter: at a smaller M the periodic
        response would fold its own tail onto the kept samples.
        """
        a = np.concatenate([[1.0], self.a])
        r = np.max(np.abs(np.roots(a)), initial=0.0)
        if r >= 1.0:  # Schur-Cohn passed, but np.roots rounds onto the circle
            raise ValueError("a pole too close to the unit circle to truncate")
        with np.errstate(divide="ignore"):  # r = 0: A(z) = 1, T = 1
            decay = max(1, int(np.ceil(np.log(1e-18) / np.log(r))))
        m = _fast_len(max(decay, a.size), (2, 3, 5))
        return np.fft.irfft(1.0 / np.fft.rfft(a, m), m)[: min(decay, length)]


def assemble_sequence(
    unit: SampledSignal,
    codes: np.ndarray,
    code_row_index: int,
    period_no: int,
    repetitions: int,
) -> SampledSignal:
    """Place code-modulated copies of `unit` every period_no samples.

    Repetition r (0-based) starts at sample r * period_no with polarity
    row[r mod n] of code row code_row_index.  The buffer is repetitions *
    period_no samples plus whatever tail of the final copy sticks out.
    repetitions must leave the receiver a block to average (see
    codes.averaging_block): one full code period plus two guard periods at
    each end.  `unit` is placed exactly as given: the emission form of an
    FVN is center_pulse of the synthesized buffer.
    """
    row = row_of(codes, code_row_index)
    n = row.size
    averaging_block(repetitions * period_no, period_no, n)
    pulse = unit.samples
    p = period_no
    length = repetitions * p + max(0, pulse.size - p)
    out = np.zeros(length)
    for r in range(repetitions):
        out[r * p : r * p + pulse.size] += row[r % n] * pulse
    return SampledSignal(out, unit.fs)


def multiplex(signals: Iterable[SampledSignal]) -> SampledSignal:
    """Samplewise sum of the given signals, zero-padded to the longest.

    `signals` may be any iterable, a lazy one included: each signal is
    added as it arrives into a zero buffer that grows to the longest so
    far, so a generator's signals need never be held at once.  The sum runs
    in iteration order from zero, as a sum into a buffer of the final
    length would, and gives the same bits, signed zeros included.
    """
    out, fs = None, None
    for s in signals:
        if out is None:
            out, fs = np.zeros(len(s)), s.fs
        elif s.fs != fs:
            raise ValueError("cannot multiplex signals with different sample rates")
        elif len(s) > out.size:
            out = np.concatenate((out, np.zeros(len(s) - out.size)))
        out[: len(s)] += s.samples
        del s  # not alive while the iterable makes the next signal
    if out is None:
        raise ValueError("nothing to multiplex")
    return SampledSignal(out, fs)


def shape_spectrum(signal: SampledSignal, filt: ShapingFilter) -> SampledSignal:
    """Run the signal through 1 / A(z) from initial rest.

    The signal is convolved with filt.impulse_response, truncated where its
    slowest pole has decayed to 1e-18 and capped at the signal's length, and
    cut to that length.  So it matches the recursion y[n] = x[n] -
    sum a_k y[n-k] up to rounding and that truncation.
    """
    x = signal.samples
    shaped = fftconvolve(x, filt.impulse_response(x.size))[: x.size]
    return SampledSignal(shaped, signal.fs)


def inverse_shape(signal: SampledSignal, filt: ShapingFilter) -> SampledSignal:
    """Undo shape_spectrum by applying A(z); exact up to rounding.

    Rounding of the shaped signal comes back multiplied by |A|, so what
    limits the round trip is the filter's full-band range of gain: the
    float32 samples of a WAV file (relative step ~6e-8) survive a range of
    a few tens of dB with a relative error near 1e-7, but a filter that
    spans 150 dB or more between DC and Nyquist turns that rounding into
    errors of 1e-2 and worse.
    """
    # A goes first: with both equally long np.convolve sums in argument
    # order, and this order is that of scipy.signal.lfilter(A, [1], x).
    x = signal.samples
    restored = np.convolve(np.concatenate([[1.0], filt.a]), x)[: x.size]
    return SampledSignal(restored, signal.fs)


def check_plan(
    sigma_t: float,
    fs: float,
    code_rows: Sequence[int],
    codes: np.ndarray,
    period_no: int,
    repetitions: int,
) -> None:
    """Refuse what coded_channels refuses before synthesis: a pulse buffer
    longer than the whole emission, a plan that leaves the receiver no
    block to average and a code row outside `codes`."""
    pulse = FvnSpec(sigma_t=sigma_t, fs=fs).dft_size_k
    emission = period_no * repetitions
    if pulse > emission:
        raise ValueError(
            f"sigma_t {sigma_t} s at fs {fs} Hz needs a "
            f"2^{pulse.bit_length() - 1}-sample pulse buffer, "
            f"longer than the {emission}-sample emission (period_no x repetitions)"
        )
    averaging_block(emission, period_no, codes.shape[1])  # as assemble_sequence
    for row in code_rows:
        row_of(codes, row)


def coded_channels(
    sigma_t: float,
    fs: float,
    seeds: Sequence[int],
    code_rows: Sequence[int],
    codes: np.ndarray,
    period_no: int,
    repetitions: int,
    filt: ShapingFilter | None = None,
) -> tuple[list[SampledSignal], Iterator[SampledSignal]]:
    """Unit pulses and emitted signals of code-multiplexed channels.

    Channel i emits center_pulse(synthesize_unit_fvn(FvnSpec(sigma_t, fs,
    seeds[i]))) every period_no samples with the polarities of code row
    code_rows[i], through `filt` if one is given.  The units come back as a
    list and the emitted signals as a lazy iterator, so a receiver, which
    compresses with the units only, assembles and shapes nothing.  A pulse
    buffer longer than the whole emission, a plan that leaves the receiver
    no block to average and a code row outside `codes` are refused before
    synthesis (check_plan).

    Shaping is linear and time-invariant, so the unit is shaped, not the
    emission: each unit is convolved with filt.impulse_response (truncated
    where its slowest pole has decayed to 1e-18, capped at the emitted
    length, computed once when the first channel is emitted), assembled,
    and cut to the unshaped emission's length, repetitions * period_no plus
    the unit's tail past one period.  Where the response outlasts the
    emission, the cap makes this the whole emission through the filter.
    Assembly adds repetitions copies of the shaped unit, so a pole near the
    unit circle costs more than a recursion over the emission would.
    """
    check_plan(sigma_t, fs, code_rows, codes, period_no, repetitions)
    specs = [FvnSpec(sigma_t=sigma_t, fs=fs, seed=seed) for seed in seeds]
    emission = period_no * repetitions
    units = [center_pulse(synthesize_unit_fvn(spec)) for spec in specs]

    def emitted() -> Iterator[SampledSignal]:
        length = emission + max([0] + [len(unit) - period_no for unit in units])
        h = np.ones(1) if filt is None else filt.impulse_response(length)
        for row, unit in zip(code_rows, units):
            shaped = SampledSignal(fftconvolve(unit.samples, h), unit.fs)
            signal = assemble_sequence(shaped, codes, row, period_no, repetitions)
            yield SampledSignal(signal.samples[:length], unit.fs)

    return units, emitted()


def design_slope_filter(
    db_per_octave: float,
    fs: float,
    order: int = 32,
    f_lo: float = 50.0,
    f_hi: float = 10000.0,
) -> ShapingFilter:
    """Fit an all-pole filter to a constant dB/octave magnitude slope.

    Weighted least squares of the dB response on a log-spaced grid over
    [f_lo, f_hi], with the gain free (only the slope matters) and solved in
    closed form as the weighted mean misfit.  Flat shelves at a third of
    the in-band weight cover [0, f_lo / 4] at the slope's level there and
    [f_hi, fs/2] at its level at f_hi, leaving two octaves for the turn.  A
    misfit at DC (Nyquist) more than 2 dB above that at f_lo (f_hi) is
    penalised at ten times the in-band weight, since stable poles alone
    bound no gain.

    The start is convex: Levinson-Durbin linear prediction on the inverse
    FFT of the target power on a 2^18-point grid, minimum phase by
    construction.  At most 20 damped Gauss-Newton (Levenberg-Marquardt)
    steps on a_1..a_p refine it; a step is kept only if A stays minimum
    phase and the residual falls.  For falling slopes down to -12 dB/octave
    at the default order and band, the gain at DC then lies between the
    gain at f_lo and 2 * |db_per_octave| dB above it, and the gain at
    Nyquist at the gain at f_hi, each within 3 dB.  So the full-band range
    stays close to the in-band one, and a monic minimum-phase A(z), with a
    mean log-gain of 0 dB, bounds the emitted peak too.

    An all-pole response has no zeros to level off with, so it tracks a
    fractional slope as a staircase of gentle resonances (about 1 dB of
    maximum deviation at the default order and band).  A rising slope is
    out of reach (+3 and +6 dB/octave miss by 4.4 to 12 dB), so a positive
    db_per_octave raises ValueError.
    """
    if db_per_octave > 0:
        raise ValueError(
            f"db_per_octave must be <= 0, got {db_per_octave}: an all-pole "
            "filter cannot follow a rising slope"
        )
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0 < f_lo < f_hi < fs / 2:
        raise ValueError("need 0 < f_lo < f_hi < fs / 2")

    def slope_db(f: np.ndarray) -> np.ndarray:
        return db_per_octave * np.log2(np.clip(f, f_lo / 4, f_hi) / f_hi)

    n_grid = 384  # in-band fit points; each shelf gets an eighth as many
    n_shelf = n_grid // 8
    freqs = np.concatenate(
        [
            np.linspace(0.0, f_lo / 4, n_shelf),
            np.logspace(np.log10(f_lo), np.log10(f_hi), n_grid),
            np.linspace(f_hi, fs / 2, n_shelf + 1)[1:],
        ]
    )
    target = slope_db(freqs)
    weight = np.repeat([0.3, 1.0, 0.3], [n_shelf, n_grid, n_shelf])
    shelf, edge = [0, -1], [n_shelf, n_shelf + n_grid - 1]  # DC, Nyquist

    def residual(a: np.ndarray) -> np.ndarray:
        level = _all_pole_db(a, freqs, fs)
        gain = np.sum(weight**2 * (target - level)) / np.sum(weight**2)
        misfit = level + gain - target
        rise = misfit[shelf] - misfit[edge] - 2.0
        return np.concatenate([weight * misfit, 10.0 * np.maximum(rise, 0.0)])

    r = np.fft.irfft(10.0 ** (slope_db(np.fft.rfftfreq(2**18, 1.0 / fs)) / 10.0))
    a, err = np.zeros(0), r[0]
    for m in range(order):
        k = -(r[m + 1] + a @ r[m:0:-1]) / err
        a = np.concatenate([a + k * a[::-1], [k]])
        err *= 1.0 - k * k

    # d(20 log10 |1 / A|) / d a_k = -(20 / ln 10) Re(z^-k / A), plus the gain
    zk = np.exp(-2j * np.pi * np.outer(freqs / fs, np.arange(1, order + 1)))
    res = residual(a)
    damping = 1e-3
    for _ in range(20):
        dfit = -(20.0 / np.log(10.0)) * (zk / (1.0 + zk @ a)[:, None]).real
        dfit = np.column_stack([dfit, np.ones(freqs.size)])
        drise = 10.0 * (res[-2:] > 0)[:, None] * (dfit[shelf] - dfit[edge])
        jac = np.vstack([weight[:, None] * dfit, drise])
        jtj = jac.T @ jac
        step = np.linalg.solve(jtj + damping * np.diag(np.diag(jtj)), jac.T @ res)
        trial = a - step[:order]
        trial_res = residual(trial) if _is_minimum_phase(trial) else None
        if trial_res is not None and trial_res @ trial_res < res @ res:
            a, res, damping = trial, trial_res, damping / 10
        else:
            damping *= 10
    return ShapingFilter(a)
