"""Power spectra and one-third-octave smoothing.

Smoothing follows the definition Q(f) = mean of the power spectrum over
[f * 2**(-1/6), f * 2**(1/6)], evaluated by exact integration of the
piecewise-linear interpolant between bins (trapezoid rule with exact
partial-bin endpoints).  A constant spectrum therefore smooths to itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import SampledSignal

THIRD_OCTAVE_UP = 2.0 ** (1.0 / 6.0)
THIRD_OCTAVE_DOWN = 2.0 ** (-1.0 / 6.0)


@dataclass(frozen=True, eq=False)
class PowerSpectrum:
    """Non-negative power samples on a strictly increasing frequency grid."""

    freqs: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=np.float64)
        power = np.asarray(self.power, dtype=np.float64)
        if freqs.ndim != 1 or freqs.shape != power.shape or freqs.size < 2:
            raise ValueError("freqs and power must be matching 1-D arrays")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(power < 0) or not np.all(np.isfinite(power)):
            raise ValueError("power must be finite and non-negative")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "power", power)


@dataclass(frozen=True, eq=False)
class SmoothedSpectrum:
    """One-third-octave smoothed levels, defined only where the window fits."""

    freqs: np.ndarray
    level_db: np.ndarray

    def linear(self) -> np.ndarray:
        """Smoothed power on a linear scale (inverse of the dB mapping)."""
        return 10.0 ** (self.level_db / 10.0)


def power_spectrum(
    ir: SampledSignal, analysis_length: int | None = None
) -> PowerSpectrum:
    """Squared-magnitude DFT of the (optionally truncated) impulse response.

    Truncation is plain rectangular: only the first analysis_length samples
    enter the transform.  The grid runs from DC to fs / 2.
    """
    n = len(ir) if analysis_length is None else analysis_length
    if not 2 <= n <= len(ir):
        raise ValueError(
            f"analysis_length must be in 2..{len(ir)}, got {analysis_length}"
        )
    spec = np.fft.rfft(ir.samples[:n])
    return PowerSpectrum(np.fft.rfftfreq(n, 1.0 / ir.fs), np.abs(spec) ** 2)


def _integral_to(freqs: np.ndarray, power: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact integral of the piecewise-linear interpolant from freqs[0] to x."""
    cumulative = np.concatenate(
        [[0.0], np.cumsum(np.diff(freqs) * (power[1:] + power[:-1]) / 2.0)]
    )
    i = np.clip(np.searchsorted(freqs, x, side="right") - 1, 0, freqs.size - 2)
    slope = (power[i + 1] - power[i]) / (freqs[i + 1] - freqs[i])
    px = power[i] + slope * (x - freqs[i])
    return cumulative[i] + (x - freqs[i]) * (power[i] + px) / 2.0


def third_octave_smooth(spectrum: PowerSpectrum) -> SmoothedSpectrum:
    """One-third-octave smoothing of a power spectrum.

    Output bins keep the input grid but only where the full window
    [f * 2**(-1/6), f * 2**(1/6)] lies inside the analyzable band (at or
    above the first nonzero-frequency bin, at or below the top bin), and a
    grid on which no window fits is refused: a DFT grid of fewer than 6
    samples.  Levels are 10 log10(Q); zero power maps to -inf.
    """
    freqs = spectrum.freqs
    f_low = freqs[1] if freqs[0] == 0.0 else freqs[0]
    lo = freqs * THIRD_OCTAVE_DOWN
    hi = freqs * THIRD_OCTAVE_UP
    defined = (lo >= f_low) & (hi <= freqs[-1])
    if not defined.any():
        raise ValueError(
            "no third-octave window fits between the first nonzero bin and the top bin"
        )
    lo = lo[defined]
    hi = hi[defined]
    mean_power = (
        _integral_to(freqs, spectrum.power, hi)
        - _integral_to(freqs, spectrum.power, lo)
    ) / (hi - lo)
    mean_power = np.maximum(mean_power, 0.0)  # guard rounding at true zeros
    with np.errstate(divide="ignore"):
        level = 10.0 * np.log10(mean_power)
    return SmoothedSpectrum(freqs[defined], level)
