"""Simulated measurement targets: linear paths, memoryless nonlinearity,
additive noise, and converter clock drift.

Each path applies a memoryless polynomial to its input and convolves with
its FIR (a Hammerstein model); path outputs sum.  Drift then warps the
sampling clock and noise is added last, so the noise is clean of drift as
it would be in a real capture chain.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .resample import fftconvolve, resample_oversampled
from .sequence import multiplex
from .signal import SampledSignal


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise: kind 'white' or 'pink', level in dB re signal RMS.
    A level whose gain 10^(level_db / 20) passes the largest float (from
    20 log10 of it, ~6165.09 dB, on) is rejected."""

    kind: str
    level_db: float

    def __post_init__(self):
        if self.kind not in ("white", "pink"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.level_db / 20.0 >= np.log10(np.finfo(np.float64).max):
            raise ValueError(
                f"noise level_db {self.level_db:g} has a gain beyond the largest float"
            )


@dataclass(frozen=True)
class DriftSpec:
    """Clock drift: 'linear' (ppm) or 'sinusoidal' (depth_s, rate_hz).

    Linear drift reads the source at t * (1 + ppm * 1e-6); sinusoidal drift
    at t + depth_s * sin(2 pi rate_hz t).  Drift that would freeze time or
    run it backwards is rejected: a linear 1 + ppm * 1e-6 <= 0, or a
    sinusoidal |depth_s * 2 pi rate_hz| >= 1, which folds time back on
    itself.
    """

    kind: str
    ppm: float = 0.0
    depth_s: float = 0.0
    rate_hz: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "sinusoidal"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.kind == "linear" and 1.0 + self.ppm * 1e-6 <= 0.0:
            raise ValueError(
                "linear drift stops or reverses time: ppm must be above -1e6"
            )
        if self.kind == "sinusoidal":
            if abs(self.depth_s * 2.0 * np.pi * self.rate_hz) >= 1.0:
                raise ValueError(
                    "sinusoidal drift too deep: |depth_s * 2 pi rate_hz| must be < 1"
                )


@dataclass(frozen=True, eq=False)
class SimTarget:
    """A bank of Hammerstein paths plus capture-chain impairments.

    nonlinearity lists polynomial coefficients [c1, c2, ...] applied as
    c1 x + c2 x^2 + ...; the default [1] is the identity.  Path FIRs should
    fit in the measurement period they will be probed with; `fvnlab
    simulate` reports the longest and notes one that does not.
    """

    paths: list[np.ndarray]
    nonlinearity: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    noise: NoiseSpec | None = None
    drift: DriftSpec | None = None

    def __post_init__(self):
        if not self.paths:
            raise ValueError("target needs at least one path FIR")
        paths = [np.asarray(p, dtype=np.float64) for p in self.paths]
        if any(p.ndim != 1 or p.size < 1 for p in paths):
            raise ValueError("each path FIR must be a non-empty 1-D array")
        poly = np.atleast_1d(np.asarray(self.nonlinearity, dtype=np.float64))
        if poly.size < 1:
            raise ValueError("nonlinearity needs at least the linear coefficient")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "nonlinearity", poly)

    def to_json(self, path: str | Path) -> None:
        doc: dict = {
            "paths": [p.tolist() for p in self.paths],
            "nonlinearity": self.nonlinearity.tolist(),
        }
        if self.noise is not None:
            doc["noise"] = {"kind": self.noise.kind, "level_db": self.noise.level_db}
        if self.drift is not None:
            doc["drift"] = {
                "kind": self.drift.kind,
                "ppm": self.drift.ppm,
                "depth_s": self.drift.depth_s,
                "rate_hz": self.drift.rate_hz,
            }
        Path(path).write_text(json.dumps(doc, indent=2))

    @classmethod
    def from_dict(cls, doc: dict) -> "SimTarget":
        noise = doc.get("noise")
        drift = doc.get("drift")
        return cls(
            paths=[np.asarray(p, dtype=np.float64) for p in doc["paths"]],
            nonlinearity=np.asarray(doc.get("nonlinearity", [1.0])),
            noise=NoiseSpec(**noise) if noise else None,
            drift=DriftSpec(**drift) if drift else None,
        )


def _polynomial(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^(k+1) by Horner's rule, in the one buffer returned."""
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        acc += c
        acc *= x
    return acc


def apply_drift(signal: SampledSignal, drift: DriftSpec) -> SampledSignal:
    """Resample through the drifted clock (length preserved).

    The positions are built only once the record is upsampled, so they do
    not exist while its transforms run.
    """

    def positions():
        t = np.arange(len(signal), dtype=np.float64)  # made positions in place
        if drift.kind == "linear":
            t *= 1.0 + drift.ppm * 1e-6
        else:
            wobble = 2.0 * np.pi * drift.rate_hz * t
            wobble /= signal.fs
            np.sin(wobble, out=wobble)
            wobble *= drift.depth_s * signal.fs
            t += wobble
        return t

    return SampledSignal(resample_oversampled(signal.samples, positions), signal.fs)


def simulate(
    target: SimTarget, inputs: Iterable[SampledSignal], seed: int = 0
) -> SampledSignal:
    """Play the inputs through the target and capture the result.

    The inputs are consumed once, one per path, and may come from a lazy
    iterable; use the same signal object repeatedly to drive several paths
    from a common stimulus.  The output is long enough for every path's
    convolution tail.  Noise is seeded, so a run is reproducible bit for
    bit.  A path whose output is not finite raises OverflowError, naming
    the path, as does a sum of the paths that overflows.  This is _play
    then _capture; a caller that owns the inputs, as the CLI does, calls
    the two in turn and drops the inputs between them, so they are gone
    before the drift's buffers.
    """
    return _capture(target, _play(target, inputs), seed)


def _play(target: SimTarget, inputs: Iterable[SampledSignal]) -> SampledSignal:
    """The Hammerstein paths: each input through the nonlinearity and its
    path's FIR, summed by multiplex as it arrives, so a lazy `inputs` is
    read one input at a time.  Inputs that do not pair one to one with the
    paths raise zip's ValueError, mixed rates multiplex's, and a path whose
    output is not finite or finite outputs whose sum overflows an
    OverflowError, with no numpy warning; each is found when the stream
    reaches it."""
    try:
        with np.errstate(over="raise"):  # _path sets its own state inside
            return multiplex(
                _path(i, s, fir, target.nonlinearity)
                for i, (s, fir) in enumerate(zip(inputs, target.paths, strict=True))
            )
    except FloatingPointError:  # the sum; _path checks each output itself
        raise OverflowError("the sum of the paths' outputs is not finite") from None


def _path(i: int, s: SampledSignal, fir: np.ndarray, poly: np.ndarray) -> SampledSignal:
    """Path i's output for input s, or an OverflowError naming the path,
    with no numpy warning, where the output is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        out = fftconvolve(_polynomial(s.samples, poly), fir)
    try:
        return SampledSignal(out, s.fs)
    except ValueError:  # SampledSignal refuses only non-finite samples here
        raise OverflowError(f"paths[{i}] gives a non-finite output") from None


def _capture(target: SimTarget, captured: SampledSignal, seed: int) -> SampledSignal:
    """The capture chain: the target's drift, then its seeded noise."""
    fs = captured.fs
    if target.drift is not None:
        captured = apply_drift(captured, target.drift)
    if target.noise is not None:
        noise = _generate_noise(
            captured.samples.size, fs, target.noise, np.random.default_rng(seed)
        )
        noise *= captured.rms() * 10.0 ** (target.noise.level_db / 20.0)
        noise += captured.samples
        captured = SampledSignal(noise, fs)
    return captured


def _generate_noise(
    n: int, fs: float, spec: NoiseSpec, rng: np.random.Generator
) -> np.ndarray:
    """Unit-RMS noise; the pink variant tilts white noise by 1/sqrt(f)
    above a 20 Hz shelf."""
    white = rng.standard_normal(n)
    if spec.kind == "white":
        return white
    shaped = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    shaped /= np.sqrt(np.maximum(freqs, 20.0))
    pink = np.fft.irfft(shaped, n)
    return pink / np.sqrt(np.mean(pink**2))
