"""Clock-drift estimation and correction.

The emitted reference and a recording of it run on independent playback
(DA) and capture (AD) clocks.  block_lags reads the delay of each block of
the reference inside the recording from their cross-spectrum (generalized
cross-correlation, Knapp & Carter 1976); track_block_delays fits a line
through those delays, and BlockDelays.warp turns the line's slope into the
warp that `fvnlab align` and selftest criterion 09 apply.  Both run over
ReferenceBlocks, a pre-pass that transforms each distinct reference block
once: fvnlab's emissions repeat every code cycle, so their blocks share a
few cached spectra and the reference need not be kept.  Both hold
block-sized buffers only, whether the reference repeats or not.
Resampling the recording through the warp puts both on a common clock;
apply_warp takes the warp as a function it calls once the recording is
upsampled, so `fvnlab align` can track the drift during the upsampling.

Fundamental-phase tracking (build_probe, track_phase, build_warp_map) is
the paper's method; no command or criterion runs it, and the package root
does not export it.  It stays only because the benchmark's layer tracer
times track_phase and build_warp_map, and is reachable only as
fvnlab.align.*.  The repetition rate puts a strong line at
f_o = fs / period_no, a complex probe selects that line, its instantaneous
frequency integrates to a phase trajectory, and matching the trajectory of
a recording against the trajectory of the reference gives the time warp.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fvn import SIX_TERM_COEFFS
from .resample import _fast_len, fftconvolve, resample_oversampled
from .signal import SampledSignal


@dataclass(frozen=True, eq=False)
class AnalyticProbe:
    """Complex band-pass probe centered on the repetition fundamental.

    taps = exp(2j pi f_o t) * sum_k a_k cos(2 pi c_mag k f_o t / 6) over
    t in [-3 / (c_mag f_o), 3 / (c_mag f_o)], with c_mag the bandwidth
    factor given to build_probe; the envelope reaches zero at both ends, so
    the support is 6 / (c_mag f_o) seconds.  The envelope's first spectral
    null falls on the neighboring harmonics when c_mag = 1, which is what
    keeps the tracker clean on pulse-train signals.
    """

    f_o: float
    fs: float
    taps: np.ndarray

    @property
    def half(self) -> int:
        """Group delay of the probe in samples."""
        return (self.taps.size - 1) // 2


@dataclass(frozen=True, eq=False)
class PhaseTrajectory:
    """Fundamental phase in radians at sample instants of one clock."""

    times: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        phase = np.asarray(self.phase, dtype=np.float64)
        if times.shape != phase.shape or times.ndim != 1 or times.size < 2:
            raise ValueError("times and phase must be matching 1-D arrays")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "phase", phase)


@dataclass(frozen=True, eq=False)
class WarpMap:
    """Pairs (t_ad, t_da): capture-clock time versus playback-clock time."""

    t_ad: np.ndarray
    t_da: np.ndarray

    def __post_init__(self):
        t_ad = np.asarray(self.t_ad, dtype=np.float64)
        t_da = np.asarray(self.t_da, dtype=np.float64)
        if t_ad.shape != t_da.shape or t_ad.ndim != 1 or t_ad.size < 2:
            raise ValueError("t_ad and t_da must be matching 1-D arrays")
        if np.any(np.diff(t_ad) <= 0) or np.any(np.diff(t_da) <= 0):
            raise ValueError("warp map must be strictly increasing on both axes")
        object.__setattr__(self, "t_ad", t_ad)
        object.__setattr__(self, "t_da", t_da)


def build_probe(f_o: float, c_mag: float, fs: float) -> AnalyticProbe:
    """Construct the analytic probe for fundamental frequency f_o."""
    if not 0 < f_o < fs / 2:
        raise ValueError(f"f_o must lie in (0, fs / 2), got {f_o}")
    if not 0 < c_mag <= 2:
        raise ValueError(f"c_mag must lie in (0, 2], got {c_mag}")
    half = int(round(3.0 * fs / (c_mag * f_o)))
    t = np.arange(-half, half + 1) / fs
    envelope = np.zeros_like(t)
    for k, a in enumerate(SIX_TERM_COEFFS):
        envelope += a * np.cos(2.0 * np.pi * c_mag * k * f_o * t / 6.0)
    taps = np.exp(2j * np.pi * f_o * t) * envelope
    return AnalyticProbe(f_o=f_o, fs=fs, taps=taps)


def _interval_frequency(y: np.ndarray, fs: float) -> np.ndarray:
    """angle(y[n+1] conj(y[n])) * fs / (2 pi) for every interval [n, n+1]."""
    product = np.conj(y[:-1])
    product *= y[1:]
    freq = np.angle(product)
    freq *= fs
    freq /= 2.0 * np.pi
    return freq


def track_phase(recorded: SampledSignal, probe: AnalyticProbe) -> PhaseTrajectory:
    """Track the unwrapped fundamental phase of a recording.

    The recording is convolved with the probe's real and imaginary taps
    (group delay compensated), probe-length edges are discarded, and the
    exact phase advance over each sample interval is summed into a phase
    trajectory.  Where the probe loses the line (digital silence), only the
    longest run that keeps it is tracked, less one probe length wherever it
    borders the loss.  The integration constant is the analytic phase angle
    at the strongest sample, with the whole-cycle count chosen closest to
    the nominal phase 2 pi f_o t; this pins the absolute phase as long as
    the initial offset between signal and nominal timing stays under half a
    period.
    """
    if recorded.fs != probe.fs:
        raise ValueError("sample rates of recording and probe differ")
    n = len(recorded)
    half = probe.half
    if n <= 2 * half + 16:
        raise ValueError("recording shorter than the probe plus its edges")
    # group delay compensated, convolution edge transients dropped
    y = 1j * fftconvolve(recorded.samples, probe.taps.imag)[2 * half : n]
    y += fftconvolve(recorded.samples, probe.taps.real)[2 * half : n]
    offset = half
    mag = np.abs(y)
    median = np.median(mag)
    if median <= 0.0:
        raise ValueError("fundamental not detected: band energy is zero")
    valid = mag >= 1e-6 * median  # below that the probe has lost the line
    if not np.all(valid):
        # keep the longest contiguous valid run, less the probe windows
        # that straddle an edge it shares with invalid samples
        edges = np.flatnonzero(np.diff(np.concatenate([[0], valid, [0]])))
        starts, stops = edges[::2], edges[1::2]
        best = np.argmax(stops - starts)
        lo, hi = int(starts[best]), int(stops[best])
        lo += 2 * half if lo > 0 else 0
        hi -= 2 * half if hi < y.size else 0
        if hi - lo < 16:
            raise ValueError("fundamental not detected: no stable band segment")
        y, mag = y[lo:hi], mag[lo:hi]
        offset += lo
    step = _interval_frequency(y, recorded.fs)
    step *= 2.0 * np.pi
    step /= recorded.fs
    # step[n] is the exact phase advance over [n, n+1] (its frequency is the
    # exact average there), so summing the steps integrates the trajectory
    # without further quadrature error.
    phase_rel = np.empty(y.size)
    phase_rel[0] = 0.0
    np.cumsum(step, out=phase_rel[1:])
    times = np.arange(y.size, dtype=np.float64)
    times += offset
    times /= recorded.fs
    anchor = int(np.argmax(mag))
    nominal = 2.0 * np.pi * probe.f_o * times[anchor]
    measured = np.angle(y[anchor])
    cycles = np.round((nominal - measured) / (2.0 * np.pi))
    phase_rel += measured + 2.0 * np.pi * cycles - phase_rel[anchor]
    return PhaseTrajectory(times, phase_rel)


def build_warp_map(
    reference: PhaseTrajectory, measured: PhaseTrajectory
) -> WarpMap:
    """Match phases: where the recording reached phase p, when did the
    reference reach the same p?

    Both trajectories must be strictly monotone (a non-monotone trajectory
    means the tracker lost the fundamental and is rejected).  The map is
    evaluated at every measured sample whose phase lies inside the
    reference's phase range.
    """
    for name, traj in (("reference", reference), ("measured", measured)):
        if np.any(np.diff(traj.phase) <= 0):
            raise ValueError(f"{name} phase trajectory is not strictly increasing")
    lo = max(reference.phase[0], measured.phase[0])
    hi = min(reference.phase[-1], measured.phase[-1])
    inside = (measured.phase >= lo) & (measured.phase <= hi)
    if np.count_nonzero(inside) < 2:
        raise ValueError("phase trajectories do not overlap")
    t_da = np.interp(measured.phase[inside], reference.phase, reference.times)
    return WarpMap(measured.times[inside], t_da)


@dataclass(frozen=True, eq=False)
class BlockDelays:
    """Delays of a reference's blocks inside a recording, in samples.

    lags[b] is the recording position minus the reference position at the
    centre of block b, NaN where the block holds no signal in band.  The
    fitted line puts reference sample n at recording position
    (1 + slope) n + intercept; used marks the lags it was fitted through
    and residual_rms is their RMS distance from it.
    """

    centres: np.ndarray
    lags: np.ndarray
    used: np.ndarray
    slope: float
    intercept: float
    residual_rms: float

    def warp(self, duration: float) -> WarpMap:
        """The warp that undoes the fitted drift over [0, duration] s.

        The intercept is left out, so the propagation delay stays in the
        IR.  A slope of -1 or less folds time, and WarpMap refuses it.
        """
        scale = 1.0 + self.slope  # recording samples per reference sample
        span = np.array([0.0, duration])
        return WarpMap(scale * span, span)


def _read_block(x: np.ndarray, start: int, out: np.ndarray) -> np.ndarray:
    """out = x[start : start + out.size], with zeros wherever that runs off x."""
    out[:] = 0.0
    lo, hi = max(start, 0), min(start + out.size, x.size)
    if hi > lo:
        out[lo - start : hi - start] = x[lo:hi]
    return out


def _median(x: np.ndarray) -> np.float64:
    """np.median(x)'s value, without the numpy.ma its first call imports."""
    s, h = np.sort(x), x.size // 2
    return s[h] if x.size % 2 else (s[h - 1] + s[h]) / 2


def _fit_lag_line(
    centres: np.ndarray, lags: np.ndarray
) -> tuple[float, float, np.ndarray, float]:
    """(slope, intercept, used, residual RMS): a Theil-Sen line, then least
    squares through the lags within 0.5 samples of it.  The Theil-Sen slope
    is the median (_median) over the pairs of blocks half the record apart,
    so it takes as many slopes as there are blocks, not their square."""
    finite = np.isfinite(lags)
    c, lag = centres[finite], lags[finite]
    if c.size < 3:
        raise ValueError(f"{c.size} block(s) hold signal in band; tracking needs 3")
    half = c.size // 2
    slope = _median((lag[half:] - lag[:-half]) / (c[half:] - c[:-half]))
    intercept = _median(lag - slope * c)
    used = finite.copy()
    used[finite] = np.abs(lag - slope * c - intercept) <= 0.5
    if np.count_nonzero(used) < 2:
        raise ValueError("fewer than two block lags lie on one line")
    c, lag = centres[used], lags[used]
    c_mean, lag_mean = c.mean(), lag.mean()
    c = c - c_mean
    lag = lag - lag_mean
    slope = np.dot(c, lag) / np.dot(c, c)
    lag -= slope * c
    rms = float(np.sqrt(np.mean(lag**2)))
    return float(slope), float(lag_mean - slope * c_mean), used, rms


_CACHED_SPECTRA = 8  # distinct reference blocks whose spectra are kept


class ReferenceBlocks:
    """A reference cut into blocks of 2 period_no samples, transformed once
    for block_lags' walk over a recording (lags, or delays with the line).

    Each distinct block is transformed once: a block whose samples are bit
    for bit those of an earlier one (a stride of its samples picks the
    candidates, np.array_equal on their bits decides) shares that block's
    Hann-weighted conjugate spectrum, so a periodic emission costs one
    transform per block of its code cycle.  At most _CACHED_SPECTRA spectra
    are kept; the reference itself is kept only if some block has none, and
    the walk transforms such a block as it reads it.  The walk's scratch is
    allocated here, block-sized, so a walk on another thread allocates no
    buffer of its own (glibc keeps a thread's allocations in that thread's
    own arena).  One walk at a time.
    """

    def __init__(self, reference: SampledSignal, period_no: int):
        if period_no < 1:
            raise ValueError(f"period_no must be positive, got {period_no}")
        x = reference.samples
        size = 2 * period_no
        count = x.size // size
        if count < 3:
            raise ValueError(
                f"the reference holds {count} block(s) of 2 x period_no samples; "
                "tracking needs 3"
            )
        self.fs, self.period_no, self.count = reference.fs, period_no, count
        self._window = np.hanning(size)
        freqs = np.fft.rfftfreq(size)
        lo, hi = np.searchsorted(freqs, 0.005), np.searchsorted(freqs, 0.4, "right")
        self._band, self._freqs = slice(lo, hi), freqs[lo:hi]
        self._freqs2 = self._freqs * self._freqs
        self._block = np.empty(size)  # a block read, then its correlation
        self._spec = np.empty(size // 2 + 1, dtype=np.complex128)
        self._padded = np.zeros(size // 2 + 1, dtype=np.complex128)
        # the band's cross-spectrum, middle block's conjugate and phase
        # ramp, then the weights and angles
        self._r, self._mid, self._phase = np.empty((3, hi - lo), np.complex128)
        self._weight, self._angle = np.empty((2, hi - lo))
        # the middle search's length, with no prime factor pocketfft would
        # run Bluestein's algorithm for; the padding wraps no lag it reads
        reach = period_no // 4
        self._segment = np.empty(_fast_len(size + 2 * reach, (2, 3, 5)))
        self._segment_spec = np.empty(self._segment.size // 2 + 1, np.complex128)
        mid = (count // 2) * size
        self._search = np.conj(
            np.fft.rfft(x[mid : mid + size] * self._window, self._segment.size)
        )
        self._spectra: list[np.ndarray] = []
        self._slots = np.full(count, -1)  # block -> its spectrum, -1 for none
        firsts: dict[bytes, list[int]] = {}  # fingerprint -> blocks with spectra
        # compared as int64, so equal means the same bits (-0.0 is not 0.0)
        blocks = x[: count * size].view(np.int64).reshape(count, size)
        for b, block in enumerate(blocks):
            key = block[:: max(size // 16, 1)].tobytes()
            same = [a for a in firsts.get(key, ()) if np.array_equal(block, blocks[a])]
            if same:
                self._slots[b] = self._slots[same[0]]
            elif len(self._spectra) < _CACHED_SPECTRA:
                firsts.setdefault(key, []).append(b)
                self._slots[b] = len(self._spectra)
                self._spectra.append(np.conj(self._spectrum(x, b * size)))
        # the reference, and a band for a block's conjugate, only if needed
        self._samples = self._ref = None
        if np.any(self._slots < 0):
            self._samples, self._ref = x, np.empty(hi - lo, np.complex128)

    def _spectrum(self, x: np.ndarray, start: int) -> np.ndarray:
        """The band of the Hann-weighted rfft of x[start : start + 2
        period_no], zeros past x: a view of scratch."""
        block = _read_block(x, start, self._block)
        block *= self._window
        return np.fft.rfft(block, out=self._spec)[self._band]

    def _cross(self, y: np.ndarray, b: int, k: int) -> np.ndarray:
        """conj(X_b) Y_b, with Y_b read from the start of block b plus k."""
        start, slot = b * self._block.size, self._slots[b]
        if slot >= 0:
            ref = self._spectra[slot]
        else:
            ref = np.conj(self._spectrum(self._samples, start), out=self._ref)
        return np.multiply(ref, self._spectrum(y, start + k), out=self._r)

    def lags(self, recorded: SampledSignal) -> tuple[np.ndarray, np.ndarray]:
        """block_lags(reference, recorded, period_no) for this reference."""
        if recorded.fs != self.fs:
            raise ValueError("sample rates of reference and recording differ")
        y, size, count = recorded.samples, self._block.size, self.count
        band, freqs, padded = self._band, self._freqs, self._padded
        mid = count // 2
        reach = self.period_no // 4
        segment = self._segment  # zero-padded, then the correlation
        _read_block(y, mid * size - reach, segment[: size + 2 * reach])
        segment[size + 2 * reach :] = 0.0
        spec = np.fft.rfft(segment, out=self._segment_spec)
        spec *= self._search
        corr = np.fft.irfft(spec, segment.size, out=segment)[: 2 * reach + 1]
        k_mid = int(np.argmax(np.abs(corr, out=corr))) - reach
        mid_conj = np.conj(self._cross(y, mid, k_mid), out=self._mid)
        lags = np.full(count, np.nan)
        lags[mid] = k_mid
        for direction in (1, -1):
            previous, step = float(k_mid), 0.0
            for b in range(mid + direction, count if direction > 0 else -1, direction):
                k = int(round(previous + step))
                r = self._cross(y, b, k)
                r *= mid_conj
                padded[band] = r
                shift = int(np.argmax(np.fft.irfft(padded, size, out=self._block)))
                shift -= size if shift > size // 2 else 0
                if shift:  # exp(0) is 1
                    ramp = np.multiply(2j * np.pi * shift, freqs, out=self._phase)
                    r *= np.exp(ramp, out=ramp)
                weight = np.abs(r, out=self._weight)
                norm = np.dot(weight, self._freqs2)
                if norm > 0.0:
                    angle = np.arctan2(r.imag, r.real, out=self._angle)  # np.angle(r)
                    slope = np.dot(np.multiply(weight, angle, out=angle), freqs) / norm
                    lags[b] = k + shift - slope / (2.0 * np.pi)
                    step, previous = lags[b] - previous, lags[b]
        centres = np.arange(count) * float(size) + (size - 1) / 2.0
        return centres, lags

    def delays(self, recorded: SampledSignal) -> BlockDelays:
        """track_block_delays(reference, recorded, period_no) for this
        reference."""
        centres, lags = self.lags(recorded)
        slope, intercept, used, rms = _fit_lag_line(centres, lags)
        return BlockDelays(centres, lags, used, slope, intercept, rms)


def block_lags(
    reference: SampledSignal, recorded: SampledSignal, period_no: int
) -> tuple[np.ndarray, np.ndarray]:
    """(centres, lags): the delay of each block of 2 period_no reference
    samples in the recording, at the block's centre, both in samples.

    Reference block b and the recording read from the same start plus an
    integer lag k_b are Hann-weighted; C_b = conj(X_b) Y_b is their
    cross-spectrum.  Multiplying by conj(C_mid), the middle block's, cancels
    the room's phase: R_b = C_b conj(C_mid) is a non-negative spectrum times
    exp(-2j pi f d), with d the block's delay beyond k_b counted from the
    middle block's.  So the peak of R_b's inverse transform sits at
    round(d), clear of room reflections, and the least-squares phase slope
    of R_b exp(2j pi f round(d)) through the origin over 0.005-0.4
    cycles/sample, weighted by its magnitude, gives the rest:
    lag_b = k_b + round(d) - slope / 2 pi.  Only the middle block takes k_b
    from the peak of |cross-correlation| (within +-period_no // 4); walking
    outward from it, each block reads at the previous lag plus the last
    step.  Reads past either end of a signal give zeros; a block with no
    signal in band reads NaN.  The reference is transformed once per
    distinct block (ReferenceBlocks), so a reference that repeats, as every
    fvnlab emission does, costs a transform per block of its cycle and the
    recording one per block.  Buffers are block-sized, a few cached spectra
    included.
    """
    return ReferenceBlocks(reference, period_no).lags(recorded)


def track_block_delays(
    reference: SampledSignal, recorded: SampledSignal, period_no: int
) -> BlockDelays:
    """The block lags (block_lags) and a line fitted through them
    (_fit_lag_line).

    Two limits.  Every lag is counted from the middle block's whole-sample
    correlation peak, so the intercept is only good to about a sample; the
    warp drops it.  Each block is read unwarped, so the drift inside a
    block decorrelates it from its reference: a reference that does not
    repeat block to block scatters the lags, and white noise read the drift
    0.2-1.6 ppm off at +-100-500 ppm.  fvnlab's emissions repeat every
    block, which cancels this.  A drift that is not linear leaves fewer
    than two lags on one line and is refused; block_lags still reads it.
    """
    return ReferenceBlocks(reference, period_no).delays(recorded)


def apply_warp(signal: SampledSignal, warp: Callable[[], WarpMap]) -> SampledSignal:
    """Resample a capture-clock recording onto the playback clock.

    Output sample m holds the input evaluated at the capture time that maps
    to playback time m / fs, so the result is what an ideal converter on the
    playback clock would have recorded.  warp is a function of no arguments
    that returns the WarpMap; it is called once the recording is upsampled,
    as are the positions built from it, so neither needs to exist while its
    transforms run (`fvnlab align` tracks the drift meanwhile).  The warp
    must cover the whole signal span, as BlockDelays.warp does.
    """
    n = len(signal)

    def positions():
        w = warp()
        end = (n - 1) / signal.fs  # the last of the output times below
        eps = 0.5 / signal.fs
        if w.t_da[0] > eps or w.t_da[-1] < end - eps:
            raise ValueError(
                "warp map does not cover the signal span "
                f"([{w.t_da[0]:.6f}, {w.t_da[-1]:.6f}] s versus "
                f"[0, {end:.6f}] s); build it over the whole span"
            )
        t_out = np.arange(n, dtype=np.float64)
        t_out /= signal.fs
        t_ad = np.interp(t_out, w.t_da, w.t_ad)
        t_ad *= signal.fs
        return t_ad

    return SampledSignal(resample_oversampled(signal.samples, positions), signal.fs)
