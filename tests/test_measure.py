"""Pulse compression and code-averaged demultiplexing on synthetic chains."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fvnlab
from fvnlab import (
    FvnSpec,
    SampledSignal,
    assemble_sequence,
    build_code_matrix,
    center_pulse,
    demultiplex,
    design_slope_filter,
    inverse_shape,
    measure,
    multiplex,
    noise_floor,
    separate_nonlinear,
    synthesize_unit_fvn,
)
from fvnlab.measure import pulse_compress, synchronized_average

FS = 44100.0


def make_pulse(seed, sigma_t=0.005):
    return center_pulse(synthesize_unit_fvn(FvnSpec(sigma_t=sigma_t, seed=seed)))


def through_fir(emission, h):
    return SampledSignal(np.convolve(emission.samples, h), emission.fs)


def test_self_compression_peaks_at_sample_zero():
    pulse = make_pulse(0)
    out = pulse_compress(pulse, pulse)
    assert out.samples[0] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(out.samples[1:])) < 1e-8


def test_compression_recovers_a_short_fir():
    pulse = make_pulse(1)
    h = np.array([1.0, 0.5, 0.25])
    out = pulse_compress(through_fir(pulse, h), pulse)
    np.testing.assert_allclose(out.samples[:3], h, atol=1e-7)
    assert np.max(np.abs(out.samples[3:])) < 1e-7


def test_compressing_silence_gives_silence():
    pulse = make_pulse(2)
    out = pulse_compress(SampledSignal(np.zeros(10000), FS), pulse)
    assert np.all(out.samples == 0.0)


def test_compression_checks_sample_rate():
    pulse = make_pulse(0)
    with pytest.raises(ValueError):
        pulse_compress(SampledSignal(np.zeros(100), 48000.0), pulse)


def test_synchronized_average_recovers_modulated_template():
    rng = np.random.default_rng(8)
    template = rng.standard_normal(10)
    row = np.array([1.0, -1.0])
    x = np.concatenate([row[r % 2] * template for r in range(8)])
    out = synchronized_average(SampledSignal(x, FS), row, 10)
    np.testing.assert_array_equal(out.samples, template)


def test_synchronized_average_cancels_the_other_row():
    rng = np.random.default_rng(9)
    template = rng.standard_normal(10)
    mod = np.array([1.0, -1.0])
    x = np.concatenate([mod[r % 2] * template for r in range(8)])
    out = synchronized_average(SampledSignal(x, FS), np.ones(2), 10)
    assert np.max(np.abs(out.samples)) < 1e-12


def test_synchronized_average_needs_enough_periods():
    with pytest.raises(ValueError):
        synchronized_average(
            SampledSignal(np.zeros(50), FS), np.array([1.0, -1.0]), 10
        )


def test_synchronized_average_validation():
    sig = SampledSignal(np.zeros(100), FS)
    with pytest.raises(ValueError):
        synchronized_average(sig, np.array([1.0, 0.5]), 10)
    with pytest.raises(ValueError):
        synchronized_average(sig, np.array([1.0, -1.0]), 0)


@pytest.mark.parametrize("guard", [-1, -3])
def test_synchronized_average_refuses_negative_guards(guard):
    """A negative guard would average from before the first period."""
    sig = SampledSignal(np.zeros(120), FS)
    with pytest.raises(ValueError, match=f"guard_periods must be >= 0, got {guard}"):
        synchronized_average(sig, np.array([1.0, -1.0]), 10, guard_periods=guard)


def two_channel_recording(h_list, period_no=4410, repetitions=12):
    """Two code channels, each through its own FIR, summed at the mic."""
    codes = build_code_matrix(2)
    units = [make_pulse(60 + i) for i in range(2)]
    recorded = None
    for i, h in enumerate(h_list):
        emission = assemble_sequence(units[i], codes, i, period_no, repetitions)
        contribution = through_fir(emission, h)
        recorded = contribution if recorded is None else multiplex([recorded, contribution])
    return recorded, units, codes


def test_demultiplex_recovers_both_paths():
    rng = np.random.default_rng(12)
    paths = [rng.standard_normal(64) for _ in range(2)]
    paths = [h / np.linalg.norm(h) for h in paths]
    recorded, units, codes = two_channel_recording(paths)
    result = demultiplex(recorded, units, codes, 4410, total_periods=12)
    assert result.periods_averaged == 8
    for ir, h in zip(result.per_code_irs, paths):
        err = np.linalg.norm(ir.samples[:64] - h) / np.linalg.norm(h)
        assert err < 1e-9
        assert np.max(np.abs(ir.samples[64:])) < 1e-9


def test_wrong_code_row_rejects_the_other_channel():
    h = np.zeros(8)
    h[0] = 1.0
    codes = build_code_matrix(2)
    unit = make_pulse(60)
    recorded = through_fir(assemble_sequence(unit, codes, 0, 4410, 12), h)
    leak = demultiplex(
        recorded, [unit], codes, 4410, code_row_indices=[1], total_periods=12
    )
    assert np.max(np.abs(leak.linear_ir.samples)) < 1e-12


def test_demultiplex_is_linear_in_the_recording():
    rng = np.random.default_rng(13)
    paths = [rng.standard_normal(16) for _ in range(2)]
    recorded, units, codes = two_channel_recording(paths)
    doubled = SampledSignal(2.0 * recorded.samples, FS)
    a = demultiplex(recorded, units, codes, 4410, total_periods=12)
    b = demultiplex(doubled, units, codes, 4410, total_periods=12)
    peak = np.max(np.abs(b.linear_ir.samples))
    assert np.max(np.abs(2.0 * a.linear_ir.samples - b.linear_ir.samples)) < 1e-12 * peak


def test_separation_of_an_lti_system_leaves_no_deviation():
    """Same path for every code channel: per-code IRs must agree."""
    h = np.zeros(32)
    h[0], h[7] = 1.0, -0.3
    recorded, units, codes = two_channel_recording([h, h])
    result = separate_nonlinear(
        demultiplex(recorded, units, codes, 4410, total_periods=12)
    )
    assert np.all(result.deviation_rms < 1e-9)
    total = np.sum([d.samples for d in result.deviations], axis=0)
    assert np.max(np.abs(total)) < 1e-12
    assert result.pooled_deviation_rms >= 0.0
    stacked = np.stack([d.samples for d in result.deviations])
    assert result.pooled_deviation_rms == np.sqrt(np.mean(stacked**2))
    agree = np.max(np.abs(result.per_code_irs[0].samples - result.per_code_irs[1].samples))
    assert agree < 1e-9


def test_separation_needs_two_channels():
    pulse = make_pulse(3)
    codes = build_code_matrix(1)
    recorded = assemble_sequence(pulse, codes, 0, 4410, 8)
    result = demultiplex(recorded, [pulse], codes, 4410, total_periods=8)
    with pytest.raises(ValueError):
        separate_nonlinear(result)


def test_demultiplex_validation():
    pulse = make_pulse(0)
    codes = build_code_matrix(2)
    sig = SampledSignal(np.zeros(4410 * 12), FS)
    with pytest.raises(ValueError):
        demultiplex(sig, [], codes, 4410)
    with pytest.raises(ValueError):
        demultiplex(sig, [pulse], codes, 4410, code_row_indices=[0, 1])
    with pytest.raises(ValueError):
        demultiplex(sig, [pulse], codes, 4410, code_row_indices=[2])
    with pytest.raises(ValueError):  # numpy indexing would read the last row
        demultiplex(sig, [pulse], codes, 4410, code_row_indices=[-1])
    with pytest.raises(ValueError):
        demultiplex(SampledSignal(sig.samples, 48000.0), [pulse], codes, 4410)


@pytest.mark.parametrize("guard", [-1, -3])
def test_demultiplex_refuses_negative_guards(guard):
    """A negative guard would average more periods than the plan holds
    (14 of 12 at -1) and scale the IR down without an error."""
    h = np.zeros(8)
    h[0] = 1.0
    recorded, units, codes = two_channel_recording([h, h])
    with pytest.raises(ValueError, match=f"guard_periods must be >= 0, got {guard}"):
        demultiplex(recorded, units, codes, 4410, guard_periods=guard, total_periods=12)


def composed_irs(recorded, units, codes, period_no, rows, guard_periods, total_periods):
    """Per-code IRs by the reference path: a full-length compression per
    unit, then the code average."""
    return [
        synchronized_average(
            pulse_compress(recorded, unit),
            codes[row],
            period_no,
            guard_periods,
            total_periods=total_periods,
        ).samples
        for unit, row in zip(units, rows)
    ]


FOLD_GRID = pytest.mark.parametrize(
    "k_codes, period_no, unit_len, length, guard_periods, total_periods, count",
    [
        (1, 512, 4096, 12 * 512 + 4095, 2, 12, 8),  # L > P, tail capped
        (1, 512, 4096, 12 * 512 + 4095, 2, None, 15),  # L > P, zero-padded
        (2, 1000, 257, 19 * 1000 + 437, 2, None, 14),  # mid-period end, 1 left over
        (2, 300, 1023, 33 * 300 + 100, 0, 33, 32),  # no guards, zero-padded
        (8, 64, 100, 521 * 64 + 30, 2, None, 512),  # 5 left over, mid-period end
        (8, 200, 129, 530 * 200, 2, 519, 512),  # L < P, 3 left over
    ],
)


def grid_case(k_codes, period_no, unit_len, length):
    """A random recording and units of unequal length for one grid row."""
    rng = np.random.default_rng(30 + k_codes)
    codes = build_code_matrix(k_codes)
    recorded = SampledSignal(rng.standard_normal(length), FS)
    units = [SampledSignal(rng.standard_normal(unit_len + 37 * i), FS) for i in range(k_codes)]
    return recorded, units, codes


def assert_matches(result, expected, count):
    assert result.periods_averaged == count
    for ir, want in zip(result.per_code_irs, expected):
        assert ir.samples.shape == want.shape
        assert np.max(np.abs(ir.samples - want)) <= 1e-12 * np.max(np.abs(want))
    mean = np.mean(expected, axis=0)
    assert np.max(np.abs(result.linear_ir.samples - mean)) <= 1e-12 * np.max(np.abs(mean))


@FOLD_GRID
def test_fold_then_compress_matches_compress_then_average(
    k_codes, period_no, unit_len, length, guard_periods, total_periods, count
):
    recorded, units, codes = grid_case(k_codes, period_no, unit_len, length)
    rows = list(range(k_codes))[::-1]  # not the default pairing
    expected = composed_irs(
        recorded, units, codes, period_no, rows, guard_periods, total_periods
    )
    result = demultiplex(
        recorded, units, codes, period_no, code_row_indices=rows,
        guard_periods=guard_periods, total_periods=total_periods,
    )
    assert_matches(result, expected, count)


SLOPE = design_slope_filter(-3.0, FS)  # 32 poles


@FOLD_GRID
def test_shaped_fold_matches_unshaping_the_recording_first(
    k_codes, period_no, unit_len, length, guard_periods, total_periods, count
):
    """A(z) on each fold, started 32 samples early, gives inverse_shape of
    the whole recording: at the start of a guardless block, where the early
    start reads before the recording, and where the block runs past its
    end, where inverse_shape cuts A's spill and the periods are zero-padded."""
    recorded, units, codes = grid_case(k_codes, period_no, unit_len, length)
    rows = list(range(k_codes))[::-1]
    kw = dict(
        code_row_indices=rows, guard_periods=guard_periods, total_periods=total_periods
    )
    unshaped = inverse_shape(recorded, SLOPE)
    expected = composed_irs(
        unshaped, units, codes, period_no, rows, guard_periods, total_periods
    )
    result = demultiplex(recorded, units, codes, period_no, filt=SLOPE, **kw)
    assert_matches(result, expected, count)
    first = demultiplex(unshaped, units, codes, period_no, **kw)
    assert_matches(result, [ir.samples for ir in first.per_code_irs], count)


def shaped_case(periods, k_codes=8, period_no=4410):
    rng = np.random.default_rng(40)
    codes = build_code_matrix(k_codes)
    recorded = SampledSignal(rng.standard_normal(periods * period_no), FS)
    units = [SampledSignal(rng.standard_normal(4096), FS) for _ in range(k_codes)]
    return recorded, units, codes, period_no


def test_shaped_demultiplex_holds_no_record_length(traced_peak):
    """The fold reads the recording in place and A(z) runs on the folds:
    8 codes on a ~1 M-sample recording hold ~1.3 bytes per recorded sample.
    inverse_shape of the recording first holds ~9, and folds that copy the
    overlapping periods ~15."""
    recorded, units, codes, period_no = shaped_case(260)

    def shaped():
        return demultiplex(recorded, units, codes, period_no, filt=SLOPE)

    result, peak = traced_peak(shaped)
    assert result.periods_averaged == 256
    assert peak <= 2.0 * len(recorded)


BLAS_RUN = """
import sys
from test_measure import SLOPE, shaped_case
from fvnlab import demultiplex
result = demultiplex(*shaped_case(132), filt=SLOPE)
sys.stdout.buffer.write(b"".join(ir.samples.tobytes() for ir in result.per_code_irs))
"""


def test_shaped_demultiplex_is_the_same_on_one_and_two_blas_threads():
    """OpenBLAS may split the fold's products over threads; each output
    must still sum its periods in one order."""
    src = Path(fvnlab.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(Path(__file__).parent)])
    outputs = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", BLAS_RUN],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    assert len(outputs[0]) == 8 * 4410 * 8
    assert outputs[0] == outputs[1]


def test_demultiplex_stays_off_the_full_length_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full-length path called")

    monkeypatch.setattr(measure, "pulse_compress", refuse)
    monkeypatch.setattr(measure, "synchronized_average", refuse)
    recorded, units, codes = two_channel_recording([np.ones(1), np.ones(1)])
    result = demultiplex(recorded, units, codes, 4410, total_periods=12)
    assert result.periods_averaged == 8


def test_end_to_end_single_channel():
    spec = FvnSpec(sigma_t=0.005, seed=5)
    pulse = center_pulse(synthesize_unit_fvn(spec))
    codes = build_code_matrix(1)
    recorded = through_fir(
        assemble_sequence(pulse, codes, 0, 4410, 12),
        np.array([0.9, 0.0, 0.0, 0.2]),
    )
    result = demultiplex(recorded, [pulse], codes, 4410, total_periods=12)
    assert result.linear_ir.samples[0] == pytest.approx(0.9, abs=1e-6)
    assert result.linear_ir.samples[3] == pytest.approx(0.2, abs=1e-6)


def test_total_periods_guards_against_tail_dilution():
    """With the pulse longer than the period, the emission has tail-only
    periods at the end; averaging them in scales the IR down."""
    spec = FvnSpec(sigma_t=0.005, seed=6)
    pulse = center_pulse(synthesize_unit_fvn(spec))  # 4096 samples
    codes = build_code_matrix(1)
    recorded = assemble_sequence(pulse, codes, 0, 512, 12)
    capped = demultiplex(recorded, [pulse], codes, 512, total_periods=12)
    assert np.max(np.abs(capped.linear_ir.samples)) == pytest.approx(1.0, abs=1e-6)
    diluted = demultiplex(recorded, [pulse], codes, 512)
    # 10 of the 15 averaged periods (2..16) start a pulse
    assert np.max(np.abs(diluted.linear_ir.samples)) == pytest.approx(2 / 3, abs=0.05)


def test_noise_floor_of_silence_is_zero():
    codes = build_code_matrix(1)
    units = [make_pulse(0)]
    bg = SampledSignal(np.zeros(4410 * 12), FS)
    floor = noise_floor(bg, units, codes, 4410)
    assert np.all(floor.samples == 0.0)


def test_noise_floor_scales_linearly():
    rng = np.random.default_rng(20)
    noise = rng.standard_normal(4410 * 12)
    codes = build_code_matrix(1)
    units = [make_pulse(0)]
    one = noise_floor(SampledSignal(noise, FS), units, codes, 4410)
    two = noise_floor(SampledSignal(2.0 * noise, FS), units, codes, 4410)
    np.testing.assert_allclose(two.samples, 2.0 * one.samples, rtol=1e-12)


def test_noise_floor_drops_with_the_averaging_count():
    """All-pass compression preserves white-noise RMS, and averaging eight
    periods divides it by sqrt(8)."""
    rng = np.random.default_rng(21)
    noise = rng.standard_normal(4410 * 12)
    codes = build_code_matrix(1)
    units = [make_pulse(0)]
    floor = noise_floor(SampledSignal(noise, FS), units, codes, 4410)
    assert floor.rms() == pytest.approx(1.0 / np.sqrt(8.0), rel=0.05)


def test_noise_floor_length_check():
    codes = build_code_matrix(1)
    units = [make_pulse(0)]
    bg = SampledSignal(np.zeros(1000), FS)
    with pytest.raises(ValueError):
        noise_floor(bg, units, codes, 4410, expected_length=2000)
