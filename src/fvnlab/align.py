"""Clock-drift estimation and correction via fundamental-phase tracking.

The repetition rate of a measurement signal puts a strong line at
f_o = fs / period_no.  A complex probe selects that line, its instantaneous
frequency integrates to a phase trajectory, and matching the trajectory of
a recording against the trajectory of the reference signal gives the time
warp between the playback (DA) and capture (AD) clocks.  Resampling the
recording through the warp puts both on a common clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fvn import SIX_TERM_COEFFS
from .resample import fftconvolve, resample_oversampled
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

    def deviation(self) -> np.ndarray:
        """t_da - t_ad: the accumulated clock offset at each grid point."""
        return self.t_da - self.t_ad

    def linear_fit(self) -> tuple[float, float]:
        """(slope, intercept) of t_da as a function of t_ad.

        Least squares in closed form on the centred t_ad and the centred
        deviation, whose small scale keeps the intercept from cancelling;
        it holds two arrays of the map's length, where np.polyfit holds
        about five.
        """
        t_mean = self.t_ad.mean()
        centred = self.t_ad - t_mean
        dev = self.deviation()
        dev_mean = dev.mean()
        dev -= dev_mean
        tilt = np.dot(centred, dev) / np.dot(centred, centred)
        return float(1.0 + tilt), float(dev_mean - tilt * t_mean)

    def extended(self, t_lo: float, t_hi: float) -> "WarpMap":
        """Extrapolate linearly (from the end segments) to cover [t_lo, t_hi]."""
        edge = max(2, self.t_ad.size // 20)
        t_ad, t_da = self.t_ad, self.t_da
        pre_ad, pre_da, post_ad, post_da = [], [], [], []
        if t_lo < t_ad[0]:
            s = np.polyfit(t_ad[:edge], t_da[:edge], 1)[0]
            pre_ad = [t_lo]
            pre_da = [t_da[0] + s * (t_lo - t_ad[0])]
        if t_hi > t_ad[-1]:
            s = np.polyfit(t_ad[-edge:], t_da[-edge:], 1)[0]
            post_ad = [t_hi]
            post_da = [t_da[-1] + s * (t_hi - t_ad[-1])]
        return WarpMap(
            np.concatenate([pre_ad, t_ad, post_ad]),
            np.concatenate([pre_da, t_da, post_da]),
        )


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

    The recording is convolved with the probe (group delay compensated),
    probe-length edges are discarded, and the exact phase advance over
    each sample interval is summed into a phase trajectory.  Where the
    probe loses the line (digital silence), only the longest run that keeps
    it is tracked, less one probe length wherever it borders the loss.  The
    integration constant is the analytic phase angle at the strongest
    sample, with the whole-cycle count chosen closest to the nominal phase
    2 pi f_o t; this pins the absolute phase as long as the initial offset
    between signal and nominal timing stays under half a period.
    """
    if recorded.fs != probe.fs:
        raise ValueError("sample rates of recording and probe differ")
    n = len(recorded)
    half = probe.half
    if n <= 2 * half + 16:
        raise ValueError("recording shorter than the probe plus its edges")
    y = fftconvolve(recorded.samples, probe.taps)[half : half + n]
    y = y[half : n - half]  # drop convolution edge transients
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


def apply_warp(signal: SampledSignal, warp: WarpMap) -> SampledSignal:
    """Resample a capture-clock recording onto the playback clock.

    Output sample m holds the input evaluated at the capture time that maps
    to playback time m / fs, so the result is what an ideal converter on the
    playback clock would have recorded.  The warp must cover the whole
    signal span; extend it first if the tracker trimmed the edges.
    """
    n = len(signal)
    t_out = np.arange(n, dtype=np.float64)
    t_out /= signal.fs
    eps = 0.5 / signal.fs
    if warp.t_da[0] > t_out[0] + eps or warp.t_da[-1] < t_out[-1] - eps:
        raise ValueError(
            "warp map does not cover the signal span "
            f"([{warp.t_da[0]:.6f}, {warp.t_da[-1]:.6f}] s versus "
            f"[0, {t_out[-1]:.6f}] s); use WarpMap.extended"
        )
    positions = np.interp(t_out, warp.t_da, warp.t_ad)
    del t_out
    positions *= signal.fs
    return SampledSignal(resample_oversampled(signal.samples, positions), signal.fs)
