"""Sampled-signal container shared by every stage of the toolkit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """A finite real-valued sample sequence together with its rate in Hz.

    Construction refuses an empty or multi-dimensional sequence, any NaN or
    infinite sample, and a rate that is not positive and finite.  The
    samples are tested in one pass, a sum with no temporary: a finite sum
    holds no NaN or inf, and only a sum that overflows is followed by the
    samplewise test.  The caller's numpy error state does not reach that
    sum, so an overflow there raises nothing.
    """

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a non-empty 1-D array")
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.add.reduce(samples)) or np.isfinite(samples).all()
        if not finite:
            raise ValueError("samples must be finite")
        fs = float(self.fs)
        if not (fs > 0.0 and np.isfinite(fs)):
            raise ValueError(f"fs must be positive and finite, got {self.fs}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "fs", fs)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.fs

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.samples**2)))
