"""File formats: 32-bit float WAV audio, JSON manifests, CSV tables."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import scipy.io.wavfile

from .sequence import ShapingFilter
from .signal import SampledSignal


def write_wav(path: str | Path, signal: SampledSignal) -> None:
    """Write a mono 32-bit float RIFF WAVE file."""
    rate = int(round(signal.fs))
    if abs(rate - signal.fs) > 1e-9:
        raise ValueError(f"WAV files need an integer sample rate, got {signal.fs}")
    scipy.io.wavfile.write(path, rate, signal.samples.astype(np.float32))


def read_wav(path: str | Path) -> SampledSignal:
    """Read a mono WAV file into float64 samples."""
    rate, data = scipy.io.wavfile.read(path)
    if data.ndim != 1:
        raise ValueError(f"{path}: expected a mono file, got {data.ndim} channels")
    if np.issubdtype(data.dtype, np.integer):
        data = data / float(np.iinfo(data.dtype).max)
    return SampledSignal(np.asarray(data, dtype=np.float64), float(rate))


def write_json(path: str | Path, doc: dict) -> None:
    """A manifest or report as indented JSON."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_json(path: str | Path):
    """A JSON document; a malformed one raises a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from None


def write_filter(path: str | Path, filt: ShapingFilter) -> None:
    """Shaping-filter coefficients as a plain JSON array (a_1..a_p)."""
    Path(path).write_text(json.dumps(filt.a.tolist()) + "\n")


def read_filter(path: str | Path) -> ShapingFilter:
    doc = read_json(path)
    if not isinstance(doc, list):
        raise ValueError(f"{path}: expected a plain JSON array of coefficients")
    return ShapingFilter(np.asarray(doc, dtype=np.float64))


def write_spectrum_csv(
    path: str | Path, freqs: np.ndarray, level_db: np.ndarray
) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["frequency_hz", "level_db"])
        for f, level in zip(freqs, level_db):
            writer.writerow([f"{f:.6f}", f"{level:.6f}"])


def write_warp_csv(
    path: str | Path, t_ad: np.ndarray, t_da: np.ndarray, decimate: int = 1
) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_ad_s", "t_da_s"])
        for a, d in zip(t_ad[::decimate], t_da[::decimate]):
            writer.writerow([f"{a:.9f}", f"{d:.9f}"])
