"""End-to-end runs of the console entry point, everything through files."""

import csv
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fvnlab
from fvnlab import (
    FvnSpec,
    NoiseSpec,
    SampledSignal,
    ShapingFilter,
    SimTarget,
    WarpMap,
    apply_warp,
    assemble_sequence,
    build_code_matrix,
    center_pulse,
    design_slope_filter,
    fileio,
    fvn,
    inverse_shape,
    selftest,
    sequence,
    shape_spectrum,
    synthesize_unit_fvn,
)
from fvnlab.cli import MAX_SHAPE_RANGE_DB, main
from fvnlab.fileio import read_json, read_wav, write_filter, write_wav
from fvnlab.resample import fftconvolve

FS = 44100.0


def run(*argv):
    return main([str(a) for a in argv])


def generate(out_dir, **kw):
    args = ["generate", "--out-dir", out_dir]
    for key, val in kw.items():
        args += ["--" + key.replace("_", "-"), str(val)]
    return run(*args)


def test_generate_writes_channel_and_manifest(tmp_path):
    d = tmp_path / "gen"
    assert generate(d, sigma_t=0.005, period_no=4410, reps=12) == 0
    assert (d / "channel_0.wav").is_file()
    assert not (d / "multiplexed.wav").exists()
    manifest = read_json(d / "manifest.json")
    assert manifest["codes"] == 1
    assert manifest["repetitions"] == 12
    assert manifest["channels"][0]["code_row"] == 0
    assert manifest["shape"] is None


def test_generate_multichannel_mix_is_the_sum(tmp_path):
    d = tmp_path / "gen"
    assert generate(d, sigma_t=0.005, period_no=2205, reps=36, codes=4) == 0
    channels = [read_wav(d / f"channel_{i}.wav").samples for i in range(4)]
    mix = read_wav(d / "multiplexed.wav").samples
    assert np.max(np.abs(mix - np.sum(channels, axis=0))) < 2e-6  # float32 files


def test_identity_pipeline_recovers_a_unit_impulse(tmp_path):
    gen, sim, meas = tmp_path / "gen", tmp_path / "sim", tmp_path / "meas"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, codes=2, seed=5) == 0
    assert run("simulate", gen, "--out-dir", sim) == 0
    assert run("measure", sim / "recording.wav", sim, "--out-dir", meas) == 0
    ir = read_wav(meas / "linear_ir.wav").samples
    assert abs(ir[0] - 1.0) < 1e-5
    assert np.max(np.abs(ir[1:])) < 1e-4
    report = json.loads((meas / "report.json").read_text())
    assert report["periods_averaged"] == 8
    assert report["code_rows"] == [0, 1]
    assert len(report["deviation_rms"]) == 2
    assert report["pooled_deviation_rms"] < 1e-5
    assert (meas / "per_code_ir_1.wav").is_file()
    assert (meas / "deviation_0.wav").is_file()


def test_single_channel_measure_skips_the_deviation_split(tmp_path):
    gen, sim, meas = tmp_path / "gen", tmp_path / "sim", tmp_path / "meas"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    assert run("simulate", gen, "--out-dir", sim) == 0
    assert run("measure", sim / "recording.wav", gen, "--out-dir", meas) == 0
    report = json.loads((meas / "report.json").read_text())
    assert "deviation_rms" not in report
    assert not (meas / "deviation_0.wav").exists()


def test_simulated_noise_tracks_the_requested_level(tmp_path):
    gen, sim = tmp_path / "gen", tmp_path / "sim"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, codes=2) == 0
    target = tmp_path / "target.json"
    SimTarget(paths=[np.array([1.0])], noise=NoiseSpec("white", -20.0)).to_json(target)
    assert run("simulate", gen, "--config", target, "--out-dir", sim) == 0
    mix = read_wav(gen / "multiplexed.wav")
    rec = read_wav(sim / "recording.wav")
    expected = mix.rms() * np.sqrt(1.0 + 10.0 ** (-20.0 / 10.0))
    assert rec.rms() == pytest.approx(expected, rel=0.02)


def test_shaped_generation_and_analysis(tmp_path):
    shape = tmp_path / "shape.json"
    write_filter(shape, design_slope_filter(-3.0, 44100.0))
    gen, sim, meas, ana = (tmp_path / n for n in ("gen", "sim", "meas", "ana"))
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, shape=shape) == 0
    manifest = read_json(gen / "manifest.json")
    assert len(manifest["shape"]) == 32

    assert run("analyze", gen / "channel_0.wav", "--out-dir", ana) == 0
    rows = list(csv.reader((ana / "spectrum.csv").open()))[1:]
    freqs = np.array([float(r[0]) for r in rows])
    levels = np.array([float(r[1]) for r in rows])
    band = (freqs > 100.0) & (freqs < 5000.0)
    slope = np.polyfit(np.log2(freqs[band]), levels[band], 1)[0]
    assert -4.5 < slope < -1.5  # an FVN sequence is flat; the tilt is the filter

    # the measurement loop undoes the shaping while demultiplexing
    assert run("simulate", gen, "--out-dir", sim) == 0
    assert run("measure", sim / "recording.wav", gen, "--out-dir", meas) == 0
    ir = read_wav(meas / "linear_ir.wav").samples
    assert abs(ir[0] - 1.0) < 1e-4
    assert np.max(np.abs(ir[1:])) < 1e-4


def test_measure_on_a_shaped_set_assembles_and_shapes_nothing(tmp_path, monkeypatch):
    """measure compresses with the unit pulses alone; rebuilding the emitted
    signals would cost an assembly and a filter pass per code.  It undoes
    the shaping on each code's fold, not on a record-length signal."""
    shape, gen, sim = tmp_path / "shape.json", tmp_path / "gen", tmp_path / "sim"
    write_filter(shape, ShapingFilter(np.array([-0.5])))
    kw = dict(sigma_t=0.005, period_no=4410, reps=12, codes=2, shape=shape)
    assert generate(gen, **kw) == 0
    assert run("simulate", gen, "--out-dir", sim) == 0
    length = len(read_wav(sim / "recording.wav"))

    def refuse(*args, **kwargs):
        raise AssertionError("measure rebuilt the emitted signals")

    def short_only(signal, filt):
        if len(signal) >= length:
            raise AssertionError("measure unshaped the whole recording")
        return inverse_shape(signal, filt)

    monkeypatch.setattr(sequence, "assemble_sequence", refuse)
    monkeypatch.setattr(sequence, "shape_spectrum", refuse)
    for module in (sequence, fvnlab.measure, fvnlab.cli):
        monkeypatch.setattr(module, "inverse_shape", short_only, raising=False)
    assert run("measure", sim / "recording.wav", gen, "--out-dir", tmp_path / "m") == 0


def test_generated_channels_are_the_public_recipe(tmp_path):
    """align and measure rebuild the emission from the manifest, so generate
    must write exactly what the public functions give for it: each unit
    convolved with the filter's truncated impulse response, assembled, and
    cut to the unshaped emission's length (12 periods plus the 4096-sample
    pulse's tail past one period)."""
    gen, shape = tmp_path / "gen", tmp_path / "shape.json"
    write_filter(shape, design_slope_filter(-3.0, 44100.0))
    kw = dict(sigma_t=0.005, period_no=2205, reps=12, codes=2, seed=21)
    assert generate(gen, shape=shape, **kw) == 0
    codes, filt = build_code_matrix(2), ShapingFilter(read_json(shape))
    length = 12 * 2205 + 4096 - 2205
    h = filt.impulse_response(length)
    for i in range(2):
        spec = FvnSpec(sigma_t=0.005, fs=44100.0, seed=21 + i)
        unit = center_pulse(synthesize_unit_fvn(spec))
        shaped = SampledSignal(fftconvolve(unit.samples, h), unit.fs)
        expected = assemble_sequence(shaped, codes, i, 2205, 12).samples[:length]
        written = read_wav(gen / f"channel_{i}.wav").samples
        assert np.array_equal(written, expected.astype(np.float32))


def test_align_reports_injected_drift(tmp_path):
    gen, sim, ali = tmp_path / "gen", tmp_path / "sim", tmp_path / "ali"
    assert generate(gen, sigma_t=0.005, period_no=2205, reps=40) == 0
    assert run("simulate", gen, "--drift-ppm", 100.0, "--out-dir", sim) == 0
    assert run("align", sim / "recording.wav", gen, "--out-dir", ali) == 0
    report = json.loads((ali / "report.json").read_text())
    assert report["drift_ppm"] == pytest.approx(100.0, abs=0.5)
    assert report["slope"] == pytest.approx(1.0001, abs=5e-7)
    aligned = read_wav(ali / "aligned.wav")
    assert len(aligned) == len(read_wav(sim / "recording.wav"))
    rows = list(csv.reader((ali / "warp.csv").open()))
    assert rows[0] == ["t_ad_s", "t_da_s"]
    assert len(rows) > 10


def test_align_and_measure_report_their_timings(tmp_path):
    gen, sim, ali, meas = (tmp_path / d for d in ("gen", "sim", "ali", "meas"))
    assert generate(gen, sigma_t=0.005, period_no=2205, reps=12, codes=2) == 0
    assert run("simulate", gen, "--drift-ppm", 100.0, "--out-dir", sim) == 0
    assert run("align", sim / "recording.wav", gen, "--out-dir", ali) == 0
    assert run("measure", ali / "aligned.wav", gen, "--out-dir", meas) == 0
    for out, keys in (
        (ali, ["track_s", "warp_s", "write_s"]),
        (meas, ["demultiplex_s", "write_s"]),
    ):
        timings = read_json(out / "report.json")["timings_s"]
        assert sorted(timings) == keys
        for value in timings.values():
            assert isinstance(value, float) and np.isfinite(value) and value >= 0.0


def check_generate_report(gen, drive, filt):
    """report.json beside the manifest: the peak and headroom of `drive`,
    the file that drives the target, the range of `filt` and the timings."""
    report = read_json(gen / "report.json")
    peak = float(np.max(np.abs(read_wav(gen / drive).samples)))
    assert report["emitted_peak"] == peak
    assert report["headroom_db"] == pytest.approx(-20.0 * np.log10(peak), abs=1e-12)
    if filt is None:
        assert report["shape_range_db"] is None
    else:
        assert report["shape_range_db"] == filt.range_db(FS)
    assert sorted(report["timings_s"]) == ["emit_s", "synthesize_s"]
    for value in report["timings_s"].values():
        assert isinstance(value, float) and np.isfinite(value) and value >= 0.0


def test_generate_reports_the_shaped_mix(tmp_path):
    gen, shape = tmp_path / "gen", tmp_path / "shape.json"
    filt = ShapingFilter(np.array(two_poles(0.8)))
    write_filter(shape, filt)
    kw = dict(sigma_t=0.005, period_no=2205, reps=12, codes=2, shape=shape)
    assert generate(gen, **kw) == 0
    check_generate_report(gen, "multiplexed.wav", filt)


def test_generate_reports_the_unshaped_channel(tmp_path):
    gen = tmp_path / "gen"
    assert generate(gen, sigma_t=0.005, period_no=2205, reps=12) == 0
    check_generate_report(gen, "channel_0.wav", None)


def test_an_empty_shape_file_is_no_filter(tmp_path):
    """[] is A(z) = 1: the manifest keeps the empty list, the report gives no
    range, as without a filter, the channel is the unshaped one, and measure
    runs on the set."""
    shape = tmp_path / "shape.json"
    shape.write_text("[]")
    gen, plain, sim, meas = (tmp_path / d for d in ("gen", "plain", "sim", "meas"))
    kw = dict(sigma_t=0.005, period_no=2205, reps=12)
    assert generate(gen, shape=shape, **kw) == 0
    assert generate(plain, **kw) == 0
    assert read_json(gen / "manifest.json")["shape"] == []
    check_generate_report(gen, "channel_0.wav", None)
    channel = (gen / "channel_0.wav").read_bytes()
    assert channel == (plain / "channel_0.wav").read_bytes()
    assert run("simulate", gen, "--out-dir", sim) == 0
    assert run("measure", sim / "recording.wav", gen, "--out-dir", meas) == 0
    assert read_wav(meas / "linear_ir.wav").samples[0] == pytest.approx(1.0, abs=1e-4)


def test_align_long_multiplexed_record_sharpens_drift(tmp_path):
    gen, sim, ali = tmp_path / "gen", tmp_path / "sim", tmp_path / "ali"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=24, codes=2, seed=11) == 0
    assert run("simulate", gen, "--drift-ppm", 100.0, "--out-dir", sim) == 0
    assert run("align", sim / "recording.wav", gen, "--out-dir", ali) == 0
    report = json.loads((ali / "report.json").read_text())
    # Two dozen periods make twelve blocks of 2 x period_no samples; the
    # line through their delays reads the drift to a hundredth of a ppm.
    assert report["drift_ppm"] == pytest.approx(100.0, abs=0.01)


def test_align_short_multiplexed_record_still_works(tmp_path):
    gen, sim, ali = tmp_path / "gen", tmp_path / "sim", tmp_path / "ali"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, codes=2, seed=11) == 0
    assert run("simulate", gen, "--drift-ppm", 100.0, "--out-dir", sim) == 0
    assert run("align", sim / "recording.wav", gen, "--out-dir", ali) == 0
    report = json.loads((ali / "report.json").read_text())
    # Twelve periods make six blocks.  Each block's cross-spectrum holds
    # every code's energy, so no code sideband blurs the delays.
    assert report["drift_ppm"] == pytest.approx(100.0, abs=0.05)


def room_run(tmp_path, ppm, seed=11):
    """generate, simulate and align the README shape (2 codes, period 4410,
    12 reps) through a room: the direct path after 40 samples, a random
    tail decaying over 250 samples, a mild cubic and white noise 40 dB
    down.  Returns the generate, simulate and align directories and the
    room's FIR."""
    gen, sim, ali = tmp_path / "gen", tmp_path / "sim", tmp_path / "ali"
    fir = np.zeros(1541)
    fir[40] = 1.0
    tail = np.arange(1, 1501)
    fir[41:] = 0.3 * np.random.default_rng(3).standard_normal(1500)
    fir[41:] *= np.exp(-tail / 250.0)
    target = tmp_path / "room.json"
    SimTarget(
        paths=[fir], nonlinearity=np.array([1.0, 0.0, 0.1]), noise=NoiseSpec("white", -40.0)
    ).to_json(target)
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, codes=2, seed=seed) == 0
    argv = ["simulate", gen, "--config", target, "--drift-ppm", ppm, "--out-dir", sim]
    assert run(*argv) == 0
    assert run("align", sim / "recording.wav", gen, "--out-dir", ali) == 0
    return gen, sim, ali, fir


def matched_ir(recording, gen, fir):
    """The linear IR measured from `recording`, rolled by the circular lag
    that matches the FIR best, and the FIR zero-padded to its length."""
    meas = recording.parent / f"{recording.stem}_measured"
    assert run("measure", recording, gen, "--out-dir", meas) == 0
    ir = read_wav(meas / "linear_ir.wav").samples
    padded = np.zeros(ir.size)
    padded[: fir.size] = fir
    xcorr = np.fft.irfft(np.fft.rfft(ir) * np.conj(np.fft.rfft(padded)), ir.size)
    return np.roll(ir, -int(np.argmax(np.abs(xcorr)))), padded


def ir_err_db(recording, gen, fir):
    """Error in dB re the FIR's energy of the linear IR measured from
    `recording`, after the circular lag and the gain that match it best."""
    ir = matched_ir(recording, gen, fir)[0][: fir.size]
    gain = (ir @ fir) / (ir @ ir)
    return 10.0 * np.log10(np.sum((gain * ir - fir) ** 2) / (fir @ fir))


def band_err_db(recording, gen, fir, band=0.45):
    """ir_err_db in the spectrum over the bins below band x fs, with the
    gain that matches the FIR best there."""
    ir, padded = matched_ir(recording, gen, fir)
    keep = np.fft.rfftfreq(ir.size) < band
    got, want = np.fft.rfft(ir)[keep], np.fft.rfft(padded)[keep]
    gain = np.vdot(got, want).real / np.vdot(got, got).real
    return 10.0 * np.log10(np.sum(np.abs(gain * got - want) ** 2) / np.sum(np.abs(want) ** 2))


def linear_run(tmp_path, ppm, shape=None):
    """The cli_short benchmark's chain at seed 1 (its room FIR and FVN seed,
    as perfbench/workloads.py derives them) through a linear, noiseless
    target, aligned when it drifts and shaped by `shape` if one is given:
    nothing but the float32 WAVs, with drift the resampler and the band
    edge, and with a shape its undoing stand between the FIR and the
    measured IR.  Returns the recording to measure, the generate directory
    and the FIR."""
    gen, sim, ali = tmp_path / "gen", tmp_path / "sim", tmp_path / "ali"
    rng = np.random.default_rng([1, 0])
    delay = int(rng.integers(16, 64))
    fir = np.zeros(delay + 1501)
    fir[delay] = 1.0
    fir[delay + 1 :] = 0.3 * rng.standard_normal(1500) * np.exp(-np.arange(1, 1501) / 250.0)
    seed = int(np.random.default_rng([1, 1]).integers(0, 2**31 - 64))
    target = tmp_path / "room.json"
    SimTarget(paths=[fir]).to_json(target)
    flags = {"sigma_t": 0.005, "period_no": 4410, "reps": 12, "codes": 2, "seed": seed}
    if shape is not None:
        flags["shape"] = tmp_path / "shape.json"
        write_filter(flags["shape"], shape)
    assert generate(gen, **flags) == 0
    argv = ["simulate", gen, "--config", target, "--out-dir", sim]
    if not ppm:
        assert run(*argv) == 0
        return sim / "recording.wav", gen, fir
    assert run(*argv, "--drift-ppm", ppm) == 0
    assert run("align", sim / "recording.wav", gen, "--out-dir", ali) == 0
    return ali / "aligned.wav", gen, fir


def test_linear_noiseless_chain_reaches_the_float32_floor(tmp_path):
    """With no cubic, no noise and no drift, only the WAVs' float32
    rounding is left (about -149 dB)."""
    assert ir_err_db(*linear_run(tmp_path, 0.0)) <= -140.0


def test_shaped_linear_noiseless_chain_reaches_the_float32_floor(tmp_path):
    """Shaping at -3 dB/oct, which measure undoes on the folds, keeps the
    chain at the float32 floor (about -147 dB); at -6 dB/oct the undoing
    lifts the WAVs' rounding to about -125 dB."""
    shape = design_slope_filter(-3.0, FS)
    assert ir_err_db(*linear_run(tmp_path, 0.0, shape)) <= -140.0


def test_linear_noiseless_chain_at_100_ppm_holds_the_band_below_045_fs(tmp_path):
    """Drift folds the top of the band, which align cannot restore; below
    0.45 fs the error is the resampler's and the alignment's (about -91
    dB), far under the -43 dB that a cubic of 0.1 sets."""
    assert band_err_db(*linear_run(tmp_path, 100.0)) <= -85.0


def test_align_without_drift_keeps_the_measurement(tmp_path):
    """A room record without drift measures as well aligned as it does raw."""
    gen, sim, ali, fir = room_run(tmp_path, 0.0)
    raw = ir_err_db(sim / "recording.wav", gen, fir)
    assert raw < -30.0
    assert ir_err_db(ali / "aligned.wav", gen, fir) <= raw + 0.1


def test_align_reads_a_short_room_record_like_the_true_warp(tmp_path):
    """The README shape through a room at 100 ppm: the drift reads within
    0.05 ppm, and the IR is within 1 dB of one aligned with the warp the
    injected drift gives."""
    gen, sim, ali, fir = room_run(tmp_path, 100.0)
    assert read_json(ali / "report.json")["drift_ppm"] == pytest.approx(100.0, abs=0.05)
    recorded = read_wav(sim / "recording.wav")
    span = np.array([0.0, recorded.duration])
    oracle = tmp_path / "oracle.wav"
    write_wav(oracle, apply_warp(recorded, WarpMap(span / (1.0 + 100e-6), span)))
    want = ir_err_db(oracle, gen, fir)
    assert want < -30.0
    assert ir_err_db(ali / "aligned.wav", gen, fir) == pytest.approx(want, abs=1.0)


def drift_commands(tmp_path):
    """generate a 6 s three-code record (period 22050, 12 reps) for the
    long_drift benchmark's chain: one path, a mild cubic, white noise 40 dB
    down and 20 ppm of drift.  Returns the simulate and align arguments."""
    gen, sim, target = tmp_path / "gen", tmp_path / "sim", tmp_path / "target.json"
    target.write_text(json.dumps({
        "paths": [[0.0, 1.0, 0.2, -0.1]],
        "nonlinearity": [1.0, 0.0, 0.1],
        "noise": {"kind": "white", "level_db": -40.0},
    }))
    assert generate(gen, sigma_t=0.01, period_no=22050, reps=12, codes=3, seed=2) == 0
    return (
        ["simulate", gen, "--config", target, "--drift-ppm", 20.0, "--out-dir", sim],
        ["align", sim / "recording.wav", gen, "--out-dir", tmp_path / "ali"],
    )


def test_drifted_simulate_holds_few_record_lengths(tmp_path, traced_peak):
    """The mix, the 2x upsampled copy, the positions and the output (~42
    B/sample).  The emission alive through the drift, or the positions
    through the transforms, reads 56."""
    simulate, _ = drift_commands(tmp_path)
    code, peak = traced_peak(run, *simulate)
    assert code == 0
    assert peak / read_wav(tmp_path / "sim" / "recording.wav").samples.size <= 49.0


def test_undrifted_simulate_holds_few_record_lengths(tmp_path, traced_peak):
    """drift_commands' cubic path with noise and no drift: the mix, the
    polynomial's one buffer and the path's output (~26 B/sample).  A sum
    allocated before the polynomial runs reads 34."""
    simulate, _ = drift_commands(tmp_path)
    simulate.remove("--drift-ppm")
    simulate.remove(20.0)
    code, peak = traced_peak(run, *simulate)
    assert code == 0
    assert peak / read_wav(tmp_path / "sim" / "recording.wav").samples.size <= 29.0


def test_one_path_per_channel_simulate_reads_one_channel_at_a_time(
    tmp_path, traced_peak
):
    """Four codes through four 200-tap FIRs, one per channel: the sum, one
    channel and its path's buffers (~35 B/sample).  Every channel read
    before the first path plays reads 59."""
    gen, target = tmp_path / "gen", tmp_path / "target.json"
    firs = np.random.default_rng(5).standard_normal((4, 200)) * 0.05
    target.write_text(json.dumps({"paths": firs.tolist()}))
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=40, codes=4) == 0
    sim = tmp_path / "sim"
    code, peak = traced_peak(run, "simulate", gen, "--config", target, "--out-dir", sim)
    assert code == 0
    assert peak / read_wav(sim / "recording.wav").samples.size <= 46.0


def test_align_holds_few_record_lengths(tmp_path, traced_peak):
    """The recording, the 2x upsampled copy, the positions and the output
    (~43 B/sample).  The positions alive through the transforms read 49."""
    simulate, align = drift_commands(tmp_path)
    assert run(*simulate) == 0
    code, peak = traced_peak(run, *align)
    assert code == 0
    assert peak / read_wav(tmp_path / "sim" / "recording.wav").samples.size <= 46.0


def test_align_loads_no_numpy_ma(tmp_path):
    """The lag line's medians sort the few block lags themselves: np.median
    would import numpy.ma (~0.5 MB, ~10 ms) on its first call in a fresh
    `fvnlab align`.  A fresh interpreter shows it, since this test process
    may have loaded numpy.ma already."""
    gen, sim, ali = tmp_path / "gen", tmp_path / "sim", tmp_path / "ali"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, codes=2, seed=5) == 0
    assert run("simulate", gen, "--drift-ppm", 100.0, "--out-dir", sim) == 0
    argv = [str(a) for a in ("align", sim / "recording.wav", gen, "--out-dir", ali)]
    code = (
        "import sys; from fvnlab.cli import main; "
        f"print(main({argv!r}), 'numpy.ma' in sys.modules)"
    )
    src = Path(fvnlab.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_simulate_reports_the_recorded_peak(tmp_path):
    """report.json beside recording.wav: its peak as the float32 file holds
    it, the headroom and the timings."""
    simulate, _ = drift_commands(tmp_path)
    assert run(*simulate) == 0
    sim = tmp_path / "sim"
    report = read_json(sim / "report.json")
    peak = float(np.max(np.abs(read_wav(sim / "recording.wav").samples)))
    assert report["recorded_peak"] == peak
    assert report["headroom_db"] == pytest.approx(-20.0 * np.log10(peak), abs=1e-12)
    assert sorted(report["timings_s"]) == ["capture_s", "paths_s", "write_s"]
    for value in report["timings_s"].values():
        assert isinstance(value, float) and np.isfinite(value) and value >= 0.0


def test_simulate_notes_a_path_that_outlasts_the_period(tmp_path, capsys):
    """A 5000-tap room at period 4410: report.json gives both lengths, and
    stdout says the tail folds into the next period; the run still
    succeeds."""
    gen, sim = tmp_path / "gen", tmp_path / "sim"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    target = tmp_path / "target.json"
    fir = np.zeros(5000)
    fir[0], fir[-1] = 1.0, 0.01
    SimTarget(paths=[fir]).to_json(target)
    capsys.readouterr()
    assert run("simulate", gen, "--config", target, "--out-dir", sim) == 0
    report = read_json(sim / "report.json")
    assert report["period_no"] == 4410
    assert report["longest_path_samples"] == 5000
    notes = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("note:")]
    assert notes == [
        "note: a path FIR of 5000 samples outlasts the 4410-sample period; "
        "its tail folds into the next period"
    ]


def test_identity_simulate_notes_nothing(tmp_path, capsys):
    gen, sim = tmp_path / "gen", tmp_path / "sim"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, codes=2) == 0
    capsys.readouterr()
    assert run("simulate", gen, "--out-dir", sim) == 0
    report = read_json(sim / "report.json")
    assert report["period_no"] == 4410
    assert report["longest_path_samples"] == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("wrote recording.wav")


def test_align_reports_its_blocks(tmp_path):
    """report.json says how well the line fits the block delays; warp.csv
    holds each block's centre on both clocks."""
    gen, sim, ali, fir = room_run(tmp_path, 100.0)
    report = read_json(ali / "report.json")
    assert report["blocks"] == 6  # 12 periods in blocks of 2
    assert report["blocks_used"] == report["blocks"]
    assert report["lag_residual_rms_samples"] < 0.01
    rows = list(csv.reader((ali / "warp.csv").open()))
    assert rows[0] == ["t_ad_s", "t_da_s"]
    t_ad, t_da = np.array(rows[1:], dtype=np.float64).T
    np.testing.assert_allclose(t_da, (np.arange(6) * 8820 + 4409.5) / FS, atol=1e-9)
    lag = t_ad - t_da
    # the capture clock runs 100 ppm slow, so the recording gains on the
    # reference by 100 ppm of a block per block
    np.testing.assert_allclose(np.diff(lag), -100e-6 * 8820 / FS, rtol=0.02)


def test_align_three_codes_keeps_the_linear_ir_peak(tmp_path):
    """Identity target, 3 codes, 20 s, 20 ppm: the aligned record measures
    a linear-IR peak of at least 0.999."""
    gen, sim, ali, meas = (tmp_path / d for d in ("gen", "sim", "ali", "meas"))
    assert generate(gen, sigma_t=0.010, period_no=22050, reps=40, codes=3, seed=4) == 0
    assert run("simulate", gen, "--drift-ppm", 20.0, "--out-dir", sim) == 0
    assert run("align", sim / "recording.wav", gen, "--out-dir", ali) == 0
    assert run("measure", ali / "aligned.wav", gen, "--out-dir", meas) == 0
    assert np.max(np.abs(read_wav(meas / "linear_ir.wav").samples)) >= 0.999


def test_align_refuses_a_record_of_two_blocks(tmp_path, capsys):
    """Five periods make two blocks of 2 x period_no samples, one fewer than
    a line through their delays needs: exit 2 with one line."""
    gen, sim = tmp_path / "gen", tmp_path / "sim"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=5) == 0
    assert run("simulate", gen, "--drift-ppm", 100.0, "--out-dir", sim) == 0
    capsys.readouterr()
    assert run("align", sim / "recording.wav", gen, "--out-dir", tmp_path / "ali") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alignment failed") and err.count("\n") == 1
    assert "Traceback" not in err


def test_measure_without_manifest_is_a_validation_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("measure", tmp_path / "nothing.wav", empty, "--out-dir", tmp_path) == 1


_DROP = object()


def check_manifest_rejected(tmp_path, capsys, command, key, value=_DROP, names=None):
    """Set `key` of a generated manifest to `value` (or drop it); `command`
    must then exit 1 with one error line that names the key (or `names`)."""
    gen = tmp_path / "gen"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, seed=2) == 0
    path = gen / "manifest.json"
    manifest = read_json(path)
    doc, name = manifest, key
    if key.startswith("channels["):
        doc, name = manifest["channels"][0], key.split(".")[1]
    if value is _DROP:
        del doc[name]
    else:
        doc[name] = value
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    if command == "simulate":
        argv = ["simulate", gen]
    else:
        argv = [command, gen / "channel_0.wav", gen]
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (key if names is None else names) in err
    return err


@pytest.mark.parametrize(
    "command, drop",
    [
        ("simulate", "period_no"),
        ("align", "sigma_t"),
        ("measure", "period_no"),
        ("measure", "channels[0].code_row"),
    ],
)
def test_manifest_missing_a_key_is_a_validation_error(tmp_path, capsys, command, drop):
    check_manifest_rejected(tmp_path, capsys, command, drop)


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("measure", "period_no", None),
        ("simulate", "channels", 5),
        ("align", "fs", "44100"),
        ("measure", "sigma_t", [0.005]),
        ("measure", "codes", True),
        ("simulate", "repetitions", 12.0),
        ("measure", "channels[0].seed", None),
        ("measure", "shape", {"a": [0.5]}),
        ("simulate", "channels", []),
        ("align", "channels", []),
        ("measure", "channels", []),
    ],
)
def test_manifest_value_of_the_wrong_type_is_a_validation_error(
    tmp_path, capsys, command, key, value
):
    check_manifest_rejected(tmp_path, capsys, command, key, value)


def test_negative_code_row_in_the_manifest_is_a_validation_error(tmp_path, capsys):
    """Row -1 would otherwise measure with the last code row."""
    check_manifest_rejected(
        tmp_path, capsys, "measure", "channels[0].code_row", -1, names="row index -1"
    )


@pytest.mark.parametrize("command", ["simulate", "align", "measure"])
@pytest.mark.parametrize("edit", ["moved", "duplicated"])
def test_channels_sharing_a_code_row_are_refused(tmp_path, capsys, command, edit):
    """Channels on one row cannot be told apart: moved to row 0, channel 1
    would measure as channel 0, and a duplicated entry twice over."""
    gen = tmp_path / "gen"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, codes=2, seed=5) == 0
    path = gen / "manifest.json"
    manifest = read_json(path)
    channels = manifest["channels"]
    if edit == "moved":
        channels[1]["code_row"], row, pair = 0, 0, "channels[0] and channels[1]"
    else:
        channels.append(dict(channels[1]))
        row, pair = 1, "channels[1] and channels[2]"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    argv = ["simulate", gen] if command == "simulate" else [command, gen / "multiplexed.wav", gen]
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {pair} share code_row {row}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, names",
    [("period_no", -1, "period_no"), ("codes", 0, "codes"), ("repetitions", 3, "too few")],
)
def test_simulate_refuses_a_plan_that_measure_refuses(tmp_path, capsys, key, value, names):
    """simulate reads only the channel files, but forwards the manifest:
    it checks the plan as measure does, rather than write a recording no
    receiver can read."""
    check_manifest_rejected(tmp_path, capsys, "simulate", key, value, names=names)
    assert not (tmp_path / "out").exists()
    check_manifest_rejected(tmp_path / "m", capsys, "measure", key, value, names=names)


@pytest.mark.parametrize("command", ["simulate", "measure", "align"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("codes", 0, "k_codes must be in 1..16, got 0"),
        ("codes", 17, "k_codes must be in 1..16, got 17"),
        ("period_no", -1, "period_no must be >= 1, got -1"),
        ("repetitions", 3, "too few periods: 3 repetitions"),
        ("sigma_t", -1, "sigma_t must be positive, got -1"),
    ],
    ids=["codes-0", "codes-17", "period_no--1", "repetitions-3", "sigma_t--1"],
)
def test_plan_refusals_name_the_manifest(
    tmp_path, capsys, command, key, value, message
):
    """Every plan refusal starts with the manifest's path, as its key
    refusals do; a period_no of -1 is refused as out of range, not as a
    pulse longer than a -12-sample emission."""
    err = check_manifest_rejected(tmp_path, capsys, command, key, value, names=message)
    assert err.startswith(f"error: {tmp_path / 'gen' / 'manifest.json'}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, names",
    [
        ({"codes": None}, "codes"),
        ([1, 2], "JSON object"),
        ({"reps": "x"}, "reps"),
        ({"fs": float("inf")}, "fs"),
        ({"sigma_t": True}, "sigma_t"),
        ({"period_no": 4410.0}, "period_no"),
        ({"seed": [1]}, "seed"),
        ({"shape": 3}, "shape"),
    ],
)
def test_config_value_of_the_wrong_type_is_a_validation_error(
    tmp_path, capsys, doc, names
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("generate", "--config", cfg, "--out-dir", tmp_path / "gen") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize(
    "doc, names",
    [
        ({}, "paths"),
        ([[1.0]], "JSON object"),
        ({"noise": {"kind": "white"}}, "noise.level_db"),
        ({"noise": {"kind": "white", "level_db": None}}, "noise.level_db"),
        ({"drift": {"kind": "linear", "pmm": 5.0}}, "drift.pmm"),
        ({"drift": {"kind": "sinusoidal", "depth_s": "1e-4"}}, "drift.depth_s"),
    ],
)
def test_target_value_of_the_wrong_type_is_a_validation_error(
    tmp_path, capsys, doc, names
):
    gen, target = tmp_path / "gen", tmp_path / "target.json"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    if doc and isinstance(doc, dict):  # {} stays without paths
        doc = {"paths": [[1.0]], **doc}
    target.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("simulate", gen, "--config", target, "--out-dir", tmp_path / "sim") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err and names in err
    assert not (tmp_path / "sim").exists()


def check_one_error_line(capsys, argv, *names):
    """`argv` exits 1 with one error line that holds each of `names`."""
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(name in err for name in names), err


@pytest.mark.parametrize("which", ["config", "manifest", "target", "shape"])
def test_malformed_json_is_a_validation_error_naming_the_file(tmp_path, capsys, which):
    gen, out = tmp_path / "gen", tmp_path / "out"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    text = (gen / "manifest.json").read_text()
    bad = gen / "manifest.json" if which == "manifest" else tmp_path / "bad.json"
    bad.write_text(text[: len(text) // 2])  # cut off mid-document
    argv = {
        "config": ["generate", "--config", bad],
        "manifest": ["simulate", gen],
        "target": ["simulate", gen, "--config", bad],
        "shape": ["generate", "--shape", bad],
    }[which]
    check_one_error_line(capsys, [*argv, "--out-dir", out], str(bad), "malformed JSON")
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, names",
    [
        ([{}], "a list of numbers"),
        (["a"], "a list of numbers"),
        ([[0.5]], "a list of numbers"),
        ([True], "a list of numbers"),
        ([2.0], "unstable filter"),
    ],
)
def test_bad_shape_file_is_a_validation_error_naming_the_file(
    tmp_path, capsys, doc, names
):
    """Every element of a --shape file is a number, as in a manifest's shape
    key: true is not read as 1.0."""
    shape, gen = tmp_path / "shape.json", tmp_path / "gen"
    shape.write_text(json.dumps(doc))
    argv = ["generate", "--shape", shape, "--out-dir", gen]
    check_one_error_line(capsys, argv, str(shape), names)
    assert not gen.exists()


@pytest.mark.parametrize("ppm", ["-1000000", "-2000000", "-1e6"])
def test_drift_flag_that_stops_or_reverses_time_is_refused(tmp_path, capsys, ppm):
    gen, out = tmp_path / "gen", tmp_path / "sim"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    argv = ["simulate", gen, "--drift-ppm", ppm, "--out-dir", out]
    check_one_error_line(capsys, argv, "ppm")
    assert not out.exists()


def test_drift_that_runs_out_of_source_is_refused(tmp_path, capsys):
    """At 1e9 ppm time runs 1001 times fast: a 1.2 s plan would leave all
    but 53 of its 52 920 recorded samples silent."""
    gen, out = tmp_path / "gen", tmp_path / "sim"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    argv = ["simulate", gen, "--drift-ppm", "1e9", "--out-dir", out]
    check_one_error_line(capsys, argv, "--drift-ppm", "52920", "4410")
    assert not out.exists()


def test_target_drift_that_runs_out_of_source_names_the_file(tmp_path, capsys):
    """A record may lose at most one period (4410 samples) to a source that
    runs out: of 52 920 samples, 92 000 ppm loses 4 458 and is refused,
    90 000 ppm loses 4 370 and is accepted."""
    gen, target = tmp_path / "gen", tmp_path / "target.json"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    for ppm, code in ((90000.0, 0), (92000.0, 1)):
        doc = {"paths": [[1.0]], "drift": {"kind": "linear", "ppm": ppm}}
        target.write_text(json.dumps(doc))
        argv = ["simulate", gen, "--config", target, "--out-dir", tmp_path / "sim"]
        if code:
            check_one_error_line(capsys, argv, f"{target}: drift.ppm", "4458")
        else:
            assert run(*argv) == 0


@pytest.mark.parametrize(
    "drift, names",
    [
        ({"kind": "linear", "ppm": -1e6}, "ppm"),
        ({"kind": "sinusoidal", "depth_s": 0.01, "rate_hz": -100.0}, "too deep"),
        ({"kind": "sinusoidal", "depth_s": -0.01, "rate_hz": 100.0}, "too deep"),
    ],
)
def test_target_drift_that_folds_time_is_refused_naming_the_file(
    tmp_path, capsys, drift, names
):
    gen, out, target = tmp_path / "gen", tmp_path / "sim", tmp_path / "target.json"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    target.write_text(json.dumps({"paths": [[1.0]], "drift": drift}))
    argv = ["simulate", gen, "--config", target, "--out-dir", out]
    check_one_error_line(capsys, argv, str(target), names)
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, names",
    [
        ({"noise": {"kind": "white", "level_db": 10000}}, ["target.json", "level_db"]),
        ({"noise": {"kind": "white", "level_db": 1000}}, ["recording.wav", "finite"]),
        ({"nonlinearity": [1.0, 1e308, 1e308]}, ["recording.wav", "finite"]),
    ],
)
def test_target_beyond_float_range_is_refused(tmp_path, capsys, doc, names):
    """A noise gain 10^(level_db / 20) past the largest float is refused with
    the target file.  Noise or a nonlinearity that takes the recording past
    float32's range would write inf samples and an Infinity peak, which
    measure and JSON readers refuse; simulate refuses it first, naming
    recording.wav, and writes nothing."""
    gen, out, target = tmp_path / "gen", tmp_path / "sim", tmp_path / "target.json"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=6) == 0
    target.write_text(json.dumps({"paths": [[1.0]], **doc}))
    argv = ["simulate", gen, "--config", target, "--out-dir", out]
    check_one_error_line(capsys, argv, *names)
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("drift", [[], ["--drift-ppm", 100]], ids=["still", "drift"])
def test_non_finite_path_is_refused_naming_the_target_without_warnings(
    tmp_path, capsys, drift
):
    """A tap of 1e308 overflows the path's convolution; simulate refuses it
    with one line naming the target file and the path, and numpy warns of
    nothing on the way."""
    gen, out, target = tmp_path / "gen", tmp_path / "sim", tmp_path / "target.json"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, codes=2) == 0
    target.write_text(json.dumps({"paths": [[1e308, 0.5]]}))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("simulate", gen, "--config", target, *drift, "--out-dir", out) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == f"error: {target}: paths[0] gives a non-finite output\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_truncation_is_a_validation_error(tmp_path, capsys, value):
    ir, out = tmp_path / "ir.wav", tmp_path / "ana"
    write_wav(ir, SampledSignal(np.r_[1.0, np.zeros(255)], 44100.0))
    argv = ["analyze", ir, "--truncate-ms", value, "--out-dir", out]
    check_one_error_line(capsys, argv, "truncate_ms")
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "0", "0.01", "1000", "1e308", "-1e308"])
def test_truncation_out_of_range_is_a_validation_error_naming_the_flag(
    tmp_path, capsys, value
):
    """-1, 0 and 0.01 ms give fewer than 2 samples, 1000 ms more than the IR;
    +-1e308 ms overflow to an infinite sample count.  The value is given
    both joined to the flag and as its own argument."""
    ir, out = tmp_path / "ir.wav", tmp_path / "ana"
    write_wav(ir, SampledSignal(np.r_[1.0, np.zeros(4409)], 44100.0))
    for flag in ([f"--truncate-ms={value}"], ["--truncate-ms", value]):
        argv = ["analyze", ir, *flag, "--out-dir", out]
        check_one_error_line(capsys, argv, "--truncate-ms", "2..4410")
        assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_drift_is_a_validation_error(tmp_path, capsys, value):
    gen, out = tmp_path / "gen", tmp_path / "sim"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    argv = ["simulate", gen, "--drift-ppm", value, "--out-dir", out]
    check_one_error_line(capsys, argv, "drift_ppm")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_fractional_sample_rate_is_refused_before_synthesis(tmp_path, capsys, source):
    """WAV files store a whole number of Hz; the rate is checked before any
    channel is synthesized, not when the first file is written."""
    out = tmp_path / "gen"
    argv = ["generate", "--sigma-t", 0.005, "--period-no", 4410, "--reps", 12]
    if source == "flag":
        argv += ["--fs", 44100.5]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fs": 44100.5}))
        argv += ["--config", cfg]
    check_one_error_line(capsys, [*argv, "--out-dir", out], "fs", "whole number")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_sample_rate_beyond_the_wav_header_is_refused_before_synthesis(
    tmp_path, capsys, source
):
    """A WAV header stores the byte rate 4 * fs in 32 bits; the rate is
    refused before any channel is assembled or written."""
    out = tmp_path / "gen"
    argv = ["generate", "--sigma-t", 1e-8, "--period-no", 64, "--reps", 8]
    if source == "flag":
        argv += ["--fs", 2000000000]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fs": 2000000000}))
        argv += ["--config", cfg]
    check_one_error_line(capsys, [*argv, "--out-dir", out], "fs", "1073741823")
    assert not out.exists()


@pytest.mark.parametrize("command", ["measure", "align"])
def test_code_row_beyond_the_matrix_is_a_validation_error(tmp_path, capsys, command):
    gen, out = tmp_path / "gen", tmp_path / "out"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, codes=2) == 0
    manifest = read_json(gen / "manifest.json")
    manifest["channels"][1]["code_row"] = 5
    (gen / "manifest.json").write_text(json.dumps(manifest))
    argv = [command, gen / "multiplexed.wav", gen, "--out-dir", out]
    check_one_error_line(capsys, argv, "code row index 5 out of range 0..1")
    assert not out.exists()


def refuse_synthesis(*args, **kwargs):
    raise AssertionError("a unit pulse was synthesized")


@pytest.mark.parametrize(
    "command, names",
    [
        ("generate", ["6 repetitions", "8"]),
        ("measure", ["code row index 5 out of range 0..1"]),
        pytest.param("generate --fs", ["fs", "1073741823"], id="generate-rate"),
    ],
)
def test_refused_plan_synthesizes_nothing(
    tmp_path, capsys, monkeypatch, command, names
):
    """3 codes need 4 + 4 periods, so 6 repetitions leave no block to
    average; that plan, a code row beyond the matrix and a rate beyond a
    WAV header are refused before any unit pulse is synthesized."""
    gen, out = tmp_path / "gen", tmp_path / "out"
    if command == "generate":
        argv = ["generate", "--codes", 3, "--reps", 6]
    elif command == "generate --fs":
        argv = ["generate", "--fs", 2000000000, "--sigma-t", 1e-8, "--period-no", 64]
        argv += ["--reps", 8]
    else:
        assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, codes=2) == 0
        manifest = read_json(gen / "manifest.json")
        manifest["channels"][1]["code_row"] = 5
        (gen / "manifest.json").write_text(json.dumps(manifest))
        argv = [command, gen / "multiplexed.wav", gen]
    monkeypatch.setattr(sequence, "synthesize_unit_fvn", refuse_synthesis)
    check_one_error_line(capsys, [*argv, "--out-dir", out], *names)
    assert not out.exists()


@pytest.mark.parametrize("command", ["measure", "align", "simulate"])
def test_recording_at_another_rate_is_a_validation_error(tmp_path, capsys, command):
    """simulate checks each channel file it plays, as measure and align
    check the recording, with the same message naming the file."""
    gen, rec, out = tmp_path / "gen", tmp_path / "rec.wav", tmp_path / "out"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12, codes=2) == 0
    if command == "simulate":
        for i in range(2):
            channel = gen / f"channel_{i}.wav"
            write_wav(channel, SampledSignal(read_wav(channel).samples, 48000.0))
        rec, argv = gen / "channel_0.wav", [command, gen]
    else:
        write_wav(rec, SampledSignal(read_wav(gen / "channel_0.wav").samples, 48000.0))
        argv = [command, rec, gen]
    argv += ["--out-dir", out]
    check_one_error_line(capsys, argv, str(rec), "48000", "does not match manifest")
    assert not out.exists()


def test_importing_the_cli_skips_scipy_signal_and_optimize():
    """WAV files, FFTs, shaping and filter design need numpy alone, so
    importing the CLI and designing a slope filter load no scipy module at
    all, nor concurrent.futures, which only a long resampling call needs,
    nor numpy.polynomial, nor the selftest, which only its own command runs.
    A fresh interpreter shows it, since this test process imports scipy."""
    src = Path(fvnlab.__file__).resolve().parents[1]
    skipped = ("scipy", "concurrent", "numpy.polynomial", "fvnlab.selftest")
    code = (
        "import sys, fvnlab.cli; fvnlab.design_slope_filter(-3.0, 44100.0); "
        f"print(sorted(m for m in sys.modules if m.startswith({skipped!r})))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


BLOCK_SCIPY = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
from fvnlab.cli import MAX_SHAPE_RANGE_DB, main

print([main(argv) for argv in json.loads(sys.argv[1])])
"""


def run_with_scipy_blocked(steps):
    """Exit codes of `main` on each argv of `steps`, and stderr, in a fresh
    interpreter whose import hook refuses every scipy module."""
    src = Path(fvnlab.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY, json.dumps(steps)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1], done.stderr


def exit_codes_with_scipy_blocked(tmp_path, *extra_generate_flags):
    """Exit codes of the README pipeline (generate, simulate with 100 ppm
    drift, align, measure, analyze) with every scipy import refused."""
    gen, sim, ali, meas, ana = (
        str(tmp_path / d) for d in ("gen", "sim", "ali", "meas", "ana")
    )
    steps = [
        ["generate", "--codes", "2", "--sigma-t", "0.005", "--period-no", "4410",
         "--reps", "12", "--seed", "5", *map(str, extra_generate_flags),
         "--out-dir", gen],
        ["simulate", gen, "--drift-ppm", "100", "--out-dir", sim],
        ["align", sim + "/recording.wav", gen, "--out-dir", ali],
        ["measure", ali + "/aligned.wav", gen, "--out-dir", meas],
        ["analyze", meas + "/linear_ir.wav", "--truncate-ms", "3.2",
         "--out-dir", ana],
    ]
    return run_with_scipy_blocked(steps)


def test_unshaped_pipeline_runs_with_scipy_blocked(tmp_path):
    """The README pipeline without --shape needs no scipy module: an import
    hook that refuses every one of them changes no exit code."""
    codes, stderr = exit_codes_with_scipy_blocked(tmp_path)
    assert codes == "[0, 0, 0, 0, 0]", stderr
    assert (tmp_path / "ana" / "spectrum.csv").is_file()


def test_selftest_passes_with_scipy_blocked():
    """Every criterion runs on numpy alone, criterion 07's slope design
    included: selftest exits 0 with every scipy import refused."""
    codes, stderr = run_with_scipy_blocked([["selftest"]])
    assert codes == "[0]", stderr


def test_shaped_pipeline_runs_with_scipy_blocked(tmp_path):
    """Shaping needs numpy alone: a --shape file of fixed coefficients (two
    poles at 0.8, 38 dB of range) takes generate, simulate with drift,
    align and measure through with every scipy import refused."""
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps(two_poles(0.8)))
    codes, stderr = exit_codes_with_scipy_blocked(tmp_path, "--shape", shape)
    assert codes == "[0, 0, 0, 0, 0]", stderr
    manifest = read_json(tmp_path / "gen" / "manifest.json")
    assert manifest["shape"] == two_poles(0.8)
    report = read_json(tmp_path / "ali" / "report.json")
    assert report["drift_ppm"] == pytest.approx(100.0, abs=0.05)


def riff(*chunks):
    """A RIFF WAVE file from (id, body) chunks."""
    body = b"".join(cid + struct.pack("<I", len(b)) + b for cid, b in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def mono_fmt(tag, bits, channels=1):
    block = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, 44100, 44100 * block, block, bits)


@pytest.mark.parametrize(
    "content, names",
    [
        pytest.param(b"hello world, not audio", ["not a RIFF WAVE file"], id="not-riff"),
        pytest.param(
            riff((b"fmt ", mono_fmt(3, 32)), (b"data", b"")), ["non-empty"], id="empty"
        ),
        pytest.param(
            riff((b"fmt ", mono_fmt(3, 32, channels=2)), (b"data", bytes(80))),
            ["mono", "2 channels"],
            id="stereo",
        ),
        pytest.param(
            riff((b"fmt ", mono_fmt(1, 8)), (b"data", bytes(10))),
            ["tag 1", "8 bits"],
            id="8-bit",
        ),
        pytest.param(
            riff((b"fmt ", mono_fmt(1, 24)), (b"data", bytes(30))),
            ["tag 1", "24 bits"],
            id="24-bit",
        ),
    ],
)
def test_unreadable_wav_is_a_validation_error_naming_the_file(
    tmp_path, capsys, content, names
):
    bad, out = tmp_path / "bad.wav", tmp_path / "ana"
    bad.write_bytes(content)
    argv = ["analyze", bad, "--out-dir", out]
    check_one_error_line(capsys, argv, f"error: {bad}: ", *names)  # path first
    assert not out.exists()


def test_truncated_wav_is_a_validation_error_naming_the_file(tmp_path, capsys):
    """A data chunk shorter than its header says used to be read, partly."""
    ir, out = tmp_path / "ir.wav", tmp_path / "ana"
    write_wav(ir, SampledSignal(np.r_[1.0, np.zeros(999)], 44100.0))
    assert ir.stat().st_size == 4058
    ir.write_bytes(ir.read_bytes()[:2000])
    argv = ["analyze", ir, "--out-dir", out]
    check_one_error_line(capsys, argv, f"error: {ir}: ", "truncated")
    assert not out.exists()


def test_missing_audio_is_a_processing_error(tmp_path):
    gen = tmp_path / "gen"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    (gen / "channel_0.wav").unlink()
    assert run("simulate", gen, "--out-dir", tmp_path / "sim") == 2


def test_unknown_flag_exits_one(tmp_path):
    with pytest.raises(SystemExit) as info:
        run("generate", "--bogus", "--out-dir", tmp_path)
    assert info.value.code == 1


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run("generate", "--config", cfg, "--out-dir", tmp_path / "gen") == 1


def test_invalid_parameter_is_a_validation_error(tmp_path):
    assert generate(tmp_path / "gen", sigma_t=-0.01) == 1


@pytest.mark.parametrize("key", ["sigma_t", "fs"])
def test_pulse_longer_than_the_emission_is_a_validation_error(tmp_path, capsys, key):
    """Refused before synthesis, which would otherwise size a buffer of some
    2^1000 samples and fail inside numpy without naming a key."""
    capsys.readouterr()
    assert generate(tmp_path / "cli", **{key: 1e300}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sigma_t" in err and "fs" in err


@pytest.mark.parametrize("sigma_t", [1e306, float("inf"), 1e-300])
def test_unsizable_pulse_buffer_is_a_validation_error(tmp_path, capsys, sigma_t):
    """10 sigma_t fs must be finite and above one sample, or the buffer size
    overflows or comes out odd before the emission check can run."""
    capsys.readouterr()
    assert generate(tmp_path / "gen", sigma_t=sigma_t) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sigma_t" in err and "fs" in err


def test_manifest_pulse_longer_than_the_emission_is_a_validation_error(
    tmp_path, capsys
):
    check_manifest_rejected(tmp_path, capsys, "measure", "sigma_t", 1e300)


def test_oversized_code_count_is_rejected_before_any_work(tmp_path):
    assert generate(tmp_path / "gen", codes=10**9) == 1
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize(
    "flags, names",
    [
        # 2 codes need 2 + 4 periods; the plan is checked before the pulses
        # are synthesized
        ({"codes": 2, "reps": 5}, ["5 repetitions", "6"]),
        ({"sigma_t": 1e300}, ["sigma_t", "fs"]),
    ],
    ids=["plan", "pulse"],
)
def test_refused_generate_creates_no_output_directory(tmp_path, capsys, flags, names):
    """The directory is made only after the last refusal.  The code-count
    and sample-rate refusals are checked the same way by their own tests."""
    out = tmp_path / "gen"
    argv = ["generate", "--out-dir", out]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), value]
    check_one_error_line(capsys, argv, *names)
    assert not out.exists()


def refuse_assembly(*args, **kwargs):
    raise AssertionError("a channel was assembled")


def test_plan_beyond_a_wav_file_is_refused_before_assembly(
    tmp_path, capsys, monkeypatch
):
    """2^20 samples x 2^10 periods is 13 samples more than a WAV file holds."""
    monkeypatch.setattr(sequence, "assemble_sequence", refuse_assembly)
    out = tmp_path / "gen"
    argv = ["generate", "--period-no", 2**20, "--reps", 2**10, "--out-dir", out]
    check_one_error_line(capsys, argv, "period_no", "repetitions", "1073741811")
    assert not out.exists()


def test_sixteen_code_plan_beyond_a_wav_file_is_refused_before_assembly(
    tmp_path, capsys, monkeypatch
):
    """16 codes need 32 772 periods; at 44 100 samples each that is
    1 445 245 200 samples, about 11.6 GB per float64 channel, so the
    refusal must come before a channel exists."""
    monkeypatch.setattr(sequence, "assemble_sequence", refuse_assembly)
    out = tmp_path / "gen"
    argv = ["generate", "--codes", 16, "--period-no", 44100, "--reps", 32772]
    check_one_error_line(
        capsys, [*argv, "--out-dir", out], "1445245200", "1073741811"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "measure", "align"])
def test_wav_limit_counts_the_pulse_tail(tmp_path, capsys, monkeypatch, command):
    """12 periods of 1000 samples and a 4096-sample pulse emit 15096
    samples; with the limit lowered to that, every command accepts the
    plan, and one sample lower each refuses it before assembly."""
    gen, out = tmp_path / "gen", tmp_path / "out"
    monkeypatch.setattr(fileio, "MAX_WAV_SAMPLES", 15096)
    assert generate(gen, sigma_t=0.005, period_no=1000, reps=12, codes=2) == 0
    assert len(read_wav(gen / "multiplexed.wav")) == 15096
    monkeypatch.setattr(fileio, "MAX_WAV_SAMPLES", 15095)
    monkeypatch.setattr(sequence, "assemble_sequence", refuse_assembly)
    if command == "generate":
        argv = ["generate", "--sigma-t", 0.005, "--period-no", 1000, "--reps", 12]
    else:
        argv = [command, gen / "multiplexed.wav", gen]
    check_one_error_line(capsys, [*argv, "--out-dir", out], "15096", "15095")
    assert not out.exists()


def two_poles(r):
    return np.poly([r, r])[1:].tolist()


@pytest.mark.parametrize("command", ["generate", "measure", "align"])
def test_shape_beyond_the_float32_range_is_refused(tmp_path, capsys, command):
    """Two poles at 0.995 span 104 dB, past the 90 dB the float32 files of
    a shaped run survive."""
    gen, out, shape = tmp_path / "gen", tmp_path / "out", tmp_path / "shape.json"
    shape.write_text(json.dumps(two_poles(0.995)))
    if command == "generate":
        argv = ["generate", "--shape", shape, "--sigma-t", 0.005, "--period-no", 4410]
    else:
        assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
        manifest = read_json(gen / "manifest.json")
        manifest["shape"] = two_poles(0.995)
        (gen / "manifest.json").write_text(json.dumps(manifest))
        argv = [command, gen / "channel_0.wav", gen]
    names = ["shape", "104.0 dB", "90 dB"]
    check_one_error_line(capsys, [*argv, "--out-dir", out], *names)
    assert not out.exists()


@pytest.mark.parametrize("command", ["measure", "align", "simulate"])
@pytest.mark.parametrize(
    "shape, names",
    [
        pytest.param([2.0], ["unstable filter"], id="unstable"),
        pytest.param(two_poles(0.995), ["104.0 dB", "90 dB"], id="range"),
    ],
)
def test_bad_manifest_shape_names_the_manifest_and_the_key(
    tmp_path, capsys, command, shape, names
):
    """simulate refuses the shape measure would refuse, rather than write
    a recording no receiver can read."""
    gen, out = tmp_path / "gen", tmp_path / "out"
    assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    manifest = read_json(gen / "manifest.json")
    manifest["shape"] = shape
    (gen / "manifest.json").write_text(json.dumps(manifest))
    if command == "simulate":
        argv = [command, gen, "--out-dir", out]
    else:
        argv = [command, gen / "channel_0.wav", gen, "--out-dir", out]
    check_one_error_line(capsys, argv, f"{gen / 'manifest.json'}: shape: ", *names)
    assert not out.exists()


def filter_at_the_range_limit(kind):
    """Two poles at +-r or a 100 Hz resonance of radius r, with r chosen so
    that the full-band range is MAX_SHAPE_RANGE_DB."""
    if kind == "resonance":
        c, lo, hi = np.cos(2 * np.pi * 100.0 / FS), 0.9, 1.0
        for _ in range(60):  # bisection: the range grows with r
            r = (lo + hi) / 2
            filt = ShapingFilter(np.array([-2 * r * c, r * r]))
            lo, hi = (r, hi) if filt.range_db(FS) < MAX_SHAPE_RANGE_DB else (lo, r)
        return filt
    q = 10 ** (MAX_SHAPE_RANGE_DB / 40)  # (1 + r) / (1 - r) per pole, DC over Nyquist
    r = (q - 1) / (q + 1)
    return ShapingFilter(np.poly([r if kind == "dc" else -r] * 2)[1:])


@pytest.mark.parametrize("kind", ["dc", "nyquist", "resonance"])
def test_filters_at_the_range_limit_survive_float32(kind):
    """The limit generate, align and measure enforce keeps the float32 round
    trip of these steep shapes within 5e-5; 10 dB more range would not."""
    filt = filter_at_the_range_limit(kind)
    assert filt.range_db(FS) == pytest.approx(MAX_SHAPE_RANGE_DB, abs=0.01)
    for seed in range(3):
        x = np.random.default_rng(seed).standard_normal(20000)
        shaped = shape_spectrum(SampledSignal(x, FS), filt).samples.astype(np.float32)
        back = inverse_shape(SampledSignal(shaped.astype(np.float64), FS), filt)
        assert np.linalg.norm(back.samples - x) / np.linalg.norm(x) < 5e-5


def test_no_subcommand_prints_help_and_fails():
    assert main([]) == 1


def test_env_seed_wins_over_flags(tmp_path, monkeypatch):
    monkeypatch.setenv("FVNLAB_SEED", "9")
    d = tmp_path / "gen"
    assert generate(d, sigma_t=0.005, period_no=4410, reps=12, seed=3) == 0
    manifest = read_json(d / "manifest.json")
    assert manifest["seed"] == 9
    assert manifest["channels"][0]["seed"] == 9


@pytest.mark.parametrize("command", ["generate", "simulate"])
@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_non_integer_env_seed_is_a_validation_error(
    tmp_path, capsys, monkeypatch, command, value
):
    gen = tmp_path / "gen"
    if command == "simulate":
        assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
    monkeypatch.setenv("FVNLAB_SEED", value)
    capsys.readouterr()
    if command == "generate":
        assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 1
    else:
        assert run("simulate", gen, "--out-dir", tmp_path / "sim") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "FVNLAB_SEED" in err


@pytest.mark.parametrize("command", ["generate", "simulate"])
def test_negative_seed_flag_is_a_validation_error(tmp_path, capsys, command):
    gen, out = tmp_path / "gen", tmp_path / "out"
    if command == "simulate":
        assert generate(gen, sigma_t=0.005, period_no=4410, reps=12) == 0
        target = tmp_path / "target.json"
        target.write_text(
            json.dumps({"paths": [[1.0]], "noise": {"kind": "white", "level_db": -40}})
        )
        argv = ["simulate", gen, "--config", target, "--seed", -1]
    else:
        argv = ["generate", "--sigma-t", 0.005, "--period-no", 4410, "--reps", 12]
        argv += ["--seed", -3]
    check_one_error_line(
        capsys, [*argv, "--out-dir", out], "command line", "seed", "non-negative"
    )
    assert not out.exists()


def test_negative_config_seed_is_a_validation_error(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "gen"
    cfg.write_text(json.dumps({"seed": -1}))
    argv = ["generate", "--config", cfg, "--out-dir", out]
    check_one_error_line(capsys, argv, str(cfg), "seed", "non-negative")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key", [("simulate", "seed"), ("measure", "channels[0].seed")]
)
def test_negative_manifest_seed_is_a_validation_error(tmp_path, capsys, command, key):
    check_manifest_rejected(tmp_path, capsys, command, key, -1)


@pytest.mark.parametrize("command", ["generate", "simulate"])
def test_negative_env_seed_is_a_validation_error(
    tmp_path, capsys, monkeypatch, command
):
    gen, out = tmp_path / "gen", tmp_path / "out"
    argv = ["generate", "--sigma-t", 0.005, "--period-no", 4410, "--reps", 12]
    if command == "simulate":
        assert run(*argv, "--out-dir", gen) == 0
        argv = ["simulate", gen]
    monkeypatch.setenv("FVNLAB_SEED", "-2")
    check_one_error_line(
        capsys, [*argv, "--out-dir", out], "FVNLAB_SEED", "non-negative", "'-2'"
    )
    assert not out.exists()


def test_generation_is_bit_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert generate(d, sigma_t=0.005, period_no=4410, reps=12, seed=4) == 0
    assert (a / "channel_0.wav").read_bytes() == (b / "channel_0.wav").read_bytes()


def test_selftest_notices_corrupted_coefficients(monkeypatch):
    bad = fvn.SIX_TERM_COEFFS.copy()
    bad[0] += 1e-6
    monkeypatch.setattr(fvn, "SIX_TERM_COEFFS", bad)
    ok, detail = selftest.criterion_coefficients()
    assert not ok
