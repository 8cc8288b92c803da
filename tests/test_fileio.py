import csv

import numpy as np
import pytest

from fvnlab import SampledSignal, ShapingFilter
from fvnlab.fileio import (
    read_filter,
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


def test_wav_rejects_stereo(tmp_path):
    import scipy.io.wavfile

    f = tmp_path / "stereo.wav"
    scipy.io.wavfile.write(f, 44100, np.zeros((100, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        read_wav(f)


def test_integer_wav_is_normalized(tmp_path):
    import scipy.io.wavfile

    f = tmp_path / "int16.wav"
    data = np.array([0, 16384, 32767, -32767], dtype=np.int16)
    scipy.io.wavfile.write(f, 44100, data)
    back = read_wav(f)
    np.testing.assert_allclose(back.samples, data / 32767.0, atol=1e-12)


def test_manifest_roundtrip(tmp_path):
    doc = {"fs": 44100.0, "channels": [{"seed": 3}], "shape": None}
    f = tmp_path / "manifest.json"
    write_json(f, doc)
    assert read_json(f) == doc


def test_filter_roundtrip(tmp_path):
    filt = ShapingFilter(np.array([1.8, 0.81]))
    f = tmp_path / "shape.json"
    write_filter(f, filt)
    back = read_filter(f)
    np.testing.assert_array_equal(back.a, filt.a)


def test_filter_rejects_non_array_documents(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"a": [0.5]}')
    with pytest.raises(ValueError):
        read_filter(f)


def test_spectrum_csv_layout(tmp_path):
    f = tmp_path / "spectrum.csv"
    write_spectrum_csv(f, np.array([100.0, 200.0]), np.array([-3.5, -6.25]))
    rows = list(csv.reader(f.open()))
    assert rows[0] == ["frequency_hz", "level_db"]
    assert rows[1] == ["100.000000", "-3.500000"]
    assert float(rows[2][1]) == -6.25


def test_warp_csv_decimation(tmp_path):
    f = tmp_path / "warp.csv"
    t = np.linspace(0.0, 1.0, 100)
    write_warp_csv(f, t, 1.0001 * t, decimate=10)
    rows = list(csv.reader(f.open()))
    assert rows[0] == ["t_ad_s", "t_da_s"]
    assert len(rows) == 11  # header plus every tenth point
    assert float(rows[1][0]) == 0.0


def test_report_is_valid_json(tmp_path):
    f = tmp_path / "report.json"
    write_json(f, {"drift_ppm": 99.9, "slope": 1.0000999})
    assert read_json(f)["drift_ppm"] == 99.9
