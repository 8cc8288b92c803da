"""File formats: 32-bit float WAV audio, JSON manifests, CSV tables.

WAV files are read and written with `struct` and numpy alone, so importing
this module loads no scipy.  The writer's bytes equal those of
`scipy.io.wavfile.write` for a float32 mono signal, and the reader returns
the samples `scipy.io.wavfile.read` returns for each format it accepts.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .sequence import ShapingFilter
from .signal import SampledSignal

# (format tag, bits per sample) -> little-endian sample type: PCM 16/32, IEEE float 32/64
_WAV_DTYPES = {(1, 16): "<i2", (1, 32): "<i4", (3, 32): "<f4", (3, 64): "<f8"}
# highest sample rate whose byte rate 4 * fs fits the header's 32-bit field
MAX_WAV_RATE = (2**32 - 1) // 4
# most float32 samples whose RIFF size field 50 + 4 n fits 32 bits
MAX_WAV_SAMPLES = (2**32 - 1 - 50) // 4
# WAVE_FORMAT_EXTENSIBLE sub-format GUID after its leading format tag (RFC 2361)
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def write_wav(path: str | Path, signal: SampledSignal) -> None:
    """Write a mono 32-bit float RIFF WAVE file: an 18-byte fmt chunk, a
    fact chunk holding the sample count, then the data.  A signal beyond
    float32's range is refused before the file is opened.  The refusal
    comes from the float32 cast's overflow flag, whatever the caller's
    numpy error state, so the cast copy is not scanned again."""
    rate = int(round(signal.fs))
    if abs(rate - signal.fs) > 1e-9:
        raise ValueError(f"WAV files need an integer sample rate, got {signal.fs}")
    if rate > MAX_WAV_RATE:
        raise ValueError(
            f"{path}: sample rate {rate} Hz exceeds the WAV limit of {MAX_WAV_RATE} Hz"
        )
    if signal.samples.size > MAX_WAV_SAMPLES:
        raise ValueError(
            f"{path}: {signal.samples.size} samples exceed the WAV limit of "
            f"{MAX_WAV_SAMPLES}"
        )
    try:
        with np.errstate(all="ignore", over="raise"):  # not a second scan
            data = signal.samples.astype("<f4")
    except FloatingPointError:
        raise ValueError(f"{path}: samples must be finite as 32-bit floats") from None
    header = struct.pack(
        "<4sI4s4sIHHIIHHH4sII4sI",
        b"RIFF", 50 + data.nbytes, b"WAVE",
        b"fmt ", 18, 3, 1, rate, 4 * rate, 4, 32, 0,
        b"fact", 4, data.size,
        b"data", data.nbytes,
    )  # fmt: tag 3 (float), 1 channel, rate, bytes/s, block, bits, cbSize
    with open(path, "wb") as handle:
        handle.write(header)
        data.tofile(handle)


def read_wav(path: str | Path) -> SampledSignal:
    """Read a mono WAV file into float64 samples.  PCM 16/32-bit and IEEE
    float 32/64-bit are accepted, also inside WAVE_FORMAT_EXTENSIBLE, and
    integers are scaled by their type's maximum; anything else, or a file
    cut short, raises a ValueError naming the file."""
    with open(path, "rb") as handle:
        riff = handle.read(12)
        if riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise ValueError(f"{path}: not a RIFF WAVE file")
        fmt = b""
        while (head := handle.read(8))[:4] != b"data" or len(head) < 8:
            if len(head) < 8:
                raise ValueError(f"{path}: no data chunk")
            size = struct.unpack("<I", head[4:])[0]
            size += size & 1  # chunks are padded to even sizes
            if head[:4] == b"fmt ":
                fmt = handle.read(size)
            else:
                handle.seek(size, 1)
        if len(fmt) < 16:
            raise ValueError(f"{path}: no fmt chunk before the data chunk")
        tag, channels, rate, _, block, bits = struct.unpack("<HHIIHH", fmt[:16])
        if tag == 0xFFFE and len(fmt) >= 40 and fmt[28:40] == _GUID_TAIL:
            tag = struct.unpack("<I", fmt[24:28])[0]
        if channels != 1:
            raise ValueError(f"{path}: expected a mono file, got {channels} channels")
        dtype = _WAV_DTYPES.get((tag, bits))
        if dtype is None or block != bits // 8:
            raise ValueError(
                f"{path}: unsupported WAV format tag {tag} with {bits} bits"
                f" in {block}-byte blocks; fvnlab reads PCM 16/32 and float 32/64"
            )
        count = struct.unpack("<I", head[4:])[0] // block
        data = np.fromfile(handle, dtype=dtype, count=count)
    if data.size < count:
        raise ValueError(f"{path}: truncated, {data.size} of {count} samples present")
    if data.dtype.kind == "i":
        data = data / float(np.iinfo(data.dtype).max)
    try:
        return SampledSignal(data, float(rate))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


def write_spectrum_csv(
    path: str | Path, freqs: np.ndarray, level_db: np.ndarray
) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["frequency_hz", "level_db"])
        for f, level in zip(freqs, level_db):
            writer.writerow([f"{f:.6f}", f"{level:.6f}"])


def write_warp_csv(path: str | Path, t_ad: np.ndarray, t_da: np.ndarray) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_ad_s", "t_da_s"])
        for a, d in zip(t_ad, t_da):
            writer.writerow([f"{a:.9f}", f"{d:.9f}"])
