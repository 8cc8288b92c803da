import contextlib
import csv
import re
import struct

import numpy as np
import pytest
import scipy.io.wavfile

from fvnlab import SampledSignal, ShapingFilter, cli, fileio
from fvnlab.fileio import (
    MAX_WAV_RATE,
    read_json,
    read_wav,
    write_filter,
    write_json,
    write_spectrum_csv,
    write_warp_csv,
    write_wav,
)


def test_wav_roundtrip_is_float32_exact(tmp_path):
    rng = np.random.default_rng(0)
    sig = SampledSignal(rng.standard_normal(1000) * 0.1, 44100.0)
    f = tmp_path / "x.wav"
    write_wav(f, sig)
    back = read_wav(f)
    assert back.fs == 44100.0
    np.testing.assert_array_equal(
        back.samples, sig.samples.astype(np.float32).astype(np.float64)
    )


def test_wav_rejects_fractional_sample_rate(tmp_path):
    sig = SampledSignal(np.zeros(10), 44100.5)
    with pytest.raises(ValueError):
        write_wav(tmp_path / "x.wav", sig)


def test_wav_sample_rate_is_bounded_by_the_header(tmp_path):
    """The header stores the byte rate 4 * fs in 32 bits."""
    assert MAX_WAV_RATE == 1_073_741_823
    top = tmp_path / "top.wav"
    write_wav(top, SampledSignal(np.zeros(10), float(MAX_WAV_RATE)))
    assert read_wav(top).fs == MAX_WAV_RATE
    over = tmp_path / "over.wav"
    with pytest.raises(ValueError, match=f"{over}.*{MAX_WAV_RATE}"):
        write_wav(over, SampledSignal(np.zeros(10), MAX_WAV_RATE + 1.0))
    assert not over.exists()


def test_wav_sample_count_is_bounded_by_the_riff_size_field(tmp_path, monkeypatch):
    """The RIFF size field holds 50 + 4 n in 32 bits.  The limit is lowered
    here so that no test signal needs gigabytes."""
    assert fileio.MAX_WAV_SAMPLES == 1_073_741_811
    monkeypatch.setattr(fileio, "MAX_WAV_SAMPLES", 5)
    top = tmp_path / "top.wav"
    write_wav(top, SampledSignal(np.zeros(5), 44100.0))
    assert len(read_wav(top)) == 5
    over = tmp_path / "over.wav"
    with pytest.raises(ValueError, match=f"{over}: 6 samples .* 5"):
        write_wav(over, SampledSignal(np.zeros(6), 44100.0))
    assert not over.exists()


def test_wav_refuses_samples_beyond_the_float32_range(tmp_path):
    """A sample past float32's largest value would be written as inf; the
    largest itself is kept.  Nothing is written for a refused signal."""
    top = tmp_path / "top.wav"
    largest = float(np.finfo(np.float32).max)
    write_wav(top, SampledSignal(np.array([largest, -largest]), 44100.0))
    np.testing.assert_array_equal(read_wav(top).samples, [largest, -largest])
    over = tmp_path / "over.wav"
    with pytest.raises(ValueError, match=f"{over}: .*finite"):
        write_wav(over, SampledSignal(np.array([0.0, -1e39]), 44100.0))
    assert not over.exists()


@pytest.mark.parametrize("caller", ["default", "over ignore"])
def test_wav_refuses_1e39_whatever_the_callers_error_state(tmp_path, caller):
    """The refusal comes from the float32 cast's overflow, which a caller
    that ignores overflow does not silence."""
    over = tmp_path / "over.wav"
    message = f"^{re.escape(str(over))}: samples must be finite as 32-bit floats$"
    ignore = caller == "over ignore"
    with np.errstate(over="ignore") if ignore else contextlib.nullcontext():
        with pytest.raises(ValueError, match=message):
            write_wav(over, SampledSignal(np.array([1e39]), 44100.0))
    assert not over.exists()


def test_wav_keeps_float32_underflow_under_a_callers_raise(tmp_path):
    """Only overflow is a refusal: 1e-300 is written as 0 even when the
    caller's numpy errors all raise."""
    path = tmp_path / "tiny.wav"
    with np.errstate(all="raise"):
        write_wav(path, SampledSignal(np.array([1e-300, 1.0]), 44100.0))
    np.testing.assert_array_equal(read_wav(path).samples, [0.0, 1.0])


def test_wav_rejects_stereo(tmp_path):
    f = tmp_path / "stereo.wav"
    scipy.io.wavfile.write(f, 44100, np.zeros((100, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        read_wav(f)


def test_integer_wav_is_normalized(tmp_path):
    f = tmp_path / "int16.wav"
    data = np.array([0, 16384, 32767, -32767], dtype=np.int16)
    scipy.io.wavfile.write(f, 44100, data)
    back = read_wav(f)
    np.testing.assert_allclose(back.samples, data / 32767.0, atol=1e-12)


def riff(*chunks):
    """A RIFF WAVE file from (id, body) chunks; odd bodies get a pad byte."""
    body = b"".join(
        cid + struct.pack("<I", len(b)) + b + b"\0" * (len(b) & 1) for cid, b in chunks
    )
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def extensible_fmt(tag, bits, rate=44100):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk, mono, of sub-format `tag`."""
    block = bits // 8
    return struct.pack(
        "<HHIIHHHHII12s", 0xFFFE, 1, rate, rate * block, block, bits, 22, bits, 4,
        tag, b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
    )


def scipy_samples(path):
    """The samples scipy.io.wavfile reads, scaled as read_wav scales them."""
    rate, data = scipy.io.wavfile.read(path)
    if np.issubdtype(data.dtype, np.integer):
        data = data / float(np.iinfo(data.dtype).max)
    return float(rate), np.asarray(data, dtype=np.float64)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 4410, 100_003])
def test_wav_writer_matches_scipy_byte_for_byte(tmp_path, n):
    x = np.random.default_rng(n).standard_normal(n)
    ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    write_wav(ours, SampledSignal(x, 48000.0))
    scipy.io.wavfile.write(theirs, 48000, x.astype(np.float32))
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.int32])
def test_wav_reader_matches_scipy(tmp_path, dtype):
    x = np.random.default_rng(1).uniform(-1.0, 1.0, 999)
    if np.issubdtype(dtype, np.integer):
        x = x * np.iinfo(dtype).max
    f = tmp_path / "x.wav"
    scipy.io.wavfile.write(f, 22050, x.astype(dtype))
    got, (rate, expected) = read_wav(f), scipy_samples(f)
    assert got.fs == rate == 22050.0
    assert got.samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("tag, dtype", [(1, np.int16), (1, np.int32), (3, np.float32)])
def test_wav_reader_matches_scipy_on_extensible_files(tmp_path, tag, dtype):
    x = np.random.default_rng(2).uniform(-0.5, 0.5, 101)
    if np.issubdtype(dtype, np.integer):
        x = x * np.iinfo(dtype).max
    data = x.astype(dtype)
    f = tmp_path / "ext.wav"
    fmt = extensible_fmt(tag, 8 * data.itemsize)
    f.write_bytes(riff((b"fmt ", fmt), (b"data", data.tobytes())))
    got, (rate, expected) = read_wav(f), scipy_samples(f)
    assert got.fs == rate == 44100.0
    assert got.samples.tobytes() == expected.tobytes()


def test_wav_reader_skips_an_odd_sized_chunk_before_the_data(tmp_path):
    """A 5-byte LIST chunk takes a pad byte; the data after it must line up."""
    x = np.random.default_rng(3).standard_normal(77).astype(np.float32)
    f = tmp_path / "x.wav"
    scipy.io.wavfile.write(f, 44100, x)
    head = f.read_bytes()
    data_at = head.index(b"data")
    fmt = head[20 : 20 + 18]
    f.write_bytes(riff((b"fmt ", fmt), (b"LIST", b"INFOx"), (b"data", head[data_at + 8 :])))
    got, (_, expected) = read_wav(f), scipy_samples(f)
    assert got.samples.tobytes() == expected.tobytes() == x.astype(np.float64).tobytes()


@pytest.mark.parametrize(
    "tag, bits",
    [(1, 8), (1, 24), (3, 16), (7, 8)],  # unsigned 8, 24-bit PCM, half float, mu-law
)
def test_wav_formats_outside_the_table_are_refused(tmp_path, tag, bits):
    block = bits // 8
    fmt = struct.pack("<HHIIHH", tag, 1, 8000, 8000 * block, block, bits)
    f = tmp_path / "x.wav"
    f.write_bytes(riff((b"fmt ", fmt), (b"data", bytes(block * 10))))
    with pytest.raises(ValueError, match=f"format tag {tag} with {bits} bits"):
        read_wav(f)


def test_manifest_roundtrip(tmp_path):
    doc = {"fs": 44100.0, "channels": [{"seed": 3}], "shape": None}
    f = tmp_path / "manifest.json"
    write_json(f, doc)
    assert read_json(f) == doc


def test_filter_roundtrip(tmp_path):
    filt = ShapingFilter(np.array([1.8, 0.81]))
    f = tmp_path / "shape.json"
    write_filter(f, filt)
    back = cli._read_shape(f)
    assert back == filt.a.tolist()
    assert all(type(c) is float for c in back)


def test_filter_rejects_non_array_documents(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"a": [0.5]}')
    with pytest.raises(ValueError) as refused:
        cli._read_shape(f)
    assert str(refused.value) == f"{f}: expected a list of numbers"


def test_spectrum_csv_layout(tmp_path):
    f = tmp_path / "spectrum.csv"
    write_spectrum_csv(f, np.array([100.0, 200.0]), np.array([-3.5, -6.25]))
    rows = list(csv.reader(f.open()))
    assert rows[0] == ["frequency_hz", "level_db"]
    assert rows[1] == ["100.000000", "-3.500000"]
    assert float(rows[2][1]) == -6.25


def test_warp_csv_writes_a_header_and_every_pair(tmp_path):
    f = tmp_path / "warp.csv"
    t = np.linspace(0.0, 1.0, 11)
    write_warp_csv(f, t, 1.0001 * t)
    rows = list(csv.reader(f.open()))
    assert rows[0] == ["t_ad_s", "t_da_s"]
    assert len(rows) == 12  # header plus one row per pair
    assert rows[1] == ["0.000000000", "0.000000000"]
    assert rows[-1] == ["1.000000000", "1.000100000"]


def test_report_is_valid_json(tmp_path):
    f = tmp_path / "report.json"
    write_json(f, {"drift_ppm": 99.9, "slope": 1.0000999})
    assert read_json(f)["drift_ppm"] == 99.9
