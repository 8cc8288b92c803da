"""Phase tracking, block delay tracking and clock-warp correction on
synthetic signals.

Phase-tracked cases use plain tones: the tracker itself does not care
whether the fundamental comes from a pulse train or a cosine, and tones
have exactly known trajectories.  Block-tracked cases use white noise that
repeats every two periods: it covers the whole band, and like every fvnlab
emission it is periodic, so each block holds the same stretch of it.  The
tracker's walk is checked bit for bit against the loop that transformed
every reference block (oracle_block_lags), on fvnlab emissions and on
noise that does not repeat.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from fvnlab import (
    DriftSpec,
    SampledSignal,
    WarpMap,
    align,
    apply_drift,
    apply_warp,
    block_lags,
    build_code_matrix,
    coded_channels,
    multiplex,
    track_block_delays,
)
from fvnlab.align import (
    PhaseTrajectory,
    _interval_frequency,
    _median,
    build_probe,
    build_warp_map,
    track_phase,
)
from fvnlab.resample import HALF_TAPS

FS = 44100.0


def tracked_tone(f_o, eps=0.0, seconds=2.0):
    t = np.arange(int(seconds * FS)) / FS
    sig = SampledSignal(np.cos(2.0 * np.pi * f_o * (1.0 + eps) * t), FS)
    return track_phase(sig, build_probe(f_o, 1.0, FS))


def test_probe_shape():
    probe = build_probe(20.0, 1.0, FS)
    assert probe.taps.size == 2 * probe.half + 1
    assert probe.half == round(3.0 * FS / 20.0)
    assert probe.taps[probe.half] == pytest.approx(1.0 + 0.0j, abs=1e-12)
    # envelope nulls at both ends (alternating coefficient sum)
    assert abs(probe.taps[0]) < 1e-9
    assert abs(probe.taps[-1]) < 1e-9


def test_probe_validation():
    with pytest.raises(ValueError):
        build_probe(0.0, 1.0, FS)
    with pytest.raises(ValueError):
        build_probe(30000.0, 1.0, FS)
    with pytest.raises(ValueError):
        build_probe(20.0, 3.0, FS)


def test_instantaneous_frequency_of_a_tone():
    n = np.arange(5000)
    y = np.exp(2j * np.pi * 997.0 * n / FS)
    freq = _interval_frequency(y, FS)
    assert np.max(np.abs(freq - 997.0)) < 1e-8
    down = _interval_frequency(np.conj(y), FS)
    assert np.max(np.abs(down + 997.0)) < 1e-8


def test_instantaneous_frequency_of_a_chirp():
    n = np.arange(5000)
    phase = 2.0 * np.pi * (1000.0 * n + 0.05 * n**2) / FS
    freq = _interval_frequency(np.exp(1j * phase), FS)
    # interval n holds the average frequency over [n, n+1]
    expected = 1000.0 + 0.05 * (2.0 * n[:-1] + 1.0)
    assert np.max(np.abs(freq - expected)) < 1e-8


def test_tracked_tone_matches_nominal_phase():
    traj = tracked_tone(20.0)
    slope = np.polyfit(traj.times, traj.phase, 1)[0]
    assert slope == pytest.approx(2.0 * np.pi * 20.0, rel=1e-9)
    nominal = 2.0 * np.pi * 20.0 * traj.times
    assert np.max(np.abs(traj.phase - nominal)) < 1e-6


@pytest.mark.parametrize(
    "silent",
    [(0.0, 1.5), (3.0, 4.5)],  # leading silence; a gap after the longest run
)
def test_tracking_across_silence_drops_the_probe_transients(silent):
    """Samples whose probe window straddles an edge of digital silence are
    not kept: the kept run matches the nominal phase as closely as a tone
    without silence does."""
    t = np.arange(int(5.5 * FS)) / FS
    tone = np.cos(2.0 * np.pi * 20.0 * t)
    tone[(t >= silent[0]) & (t < silent[1])] = 0.0
    probe = build_probe(20.0, 1.0, FS)
    traj = track_phase(SampledSignal(tone, FS), probe)
    assert traj.times[-1] - traj.times[0] > 2.0
    reach = probe.half / FS  # a probe window spans +-reach around its sample
    straddling = (traj.times > silent[0] - reach) & (traj.times < silent[1] + reach)
    assert not np.any(straddling)
    nominal = 2.0 * np.pi * 20.0 * traj.times
    assert np.max(np.abs(traj.phase - nominal)) < 1e-6


def test_tracked_tone_sees_a_frequency_offset():
    eps = 1e-4
    traj = tracked_tone(20.0, eps=eps)
    slope = np.polyfit(traj.times, traj.phase, 1)[0]
    assert slope == pytest.approx(2.0 * np.pi * 20.0 * (1 + eps), rel=1e-9)


def test_tracking_silence_fails_loudly():
    probe = build_probe(20.0, 1.0, FS)
    with pytest.raises(ValueError):
        track_phase(SampledSignal(np.zeros(88200), FS), probe)


def test_tracking_rejects_short_recordings():
    probe = build_probe(20.0, 1.0, FS)
    with pytest.raises(ValueError):
        track_phase(SampledSignal(np.ones(1000), FS), probe)


def line_of(warp):
    """(slope, intercept) of t_da against t_ad, fitted to the small
    deviation t_da - t_ad so the intercept does not cancel."""
    tilt, intercept = np.polyfit(warp.t_ad, warp.t_da - warp.t_ad, 1)
    return 1.0 + tilt, intercept


def test_warp_of_identical_trajectories_is_identity():
    traj = tracked_tone(20.0)
    warp = build_warp_map(traj, traj)
    assert np.max(np.abs(warp.t_da - warp.t_ad)) < 1e-15


def test_warp_slope_reads_the_clock_ratio():
    """drifted[m] = rec(m (1 + eps)) shows up as t_da = (1 + eps) t_ad."""
    reference = tracked_tone(20.0)
    for eps in (-2e-4, -1e-4, 1e-4, 2e-4):
        measured = tracked_tone(20.0, eps=eps)
        slope, intercept = line_of(build_warp_map(reference, measured))
        assert abs(slope - (1.0 + eps)) < 1e-9
        assert abs(intercept) < 1e-8


def test_warp_slope_synthetic_trajectories_are_exact():
    t = np.linspace(0.5, 2.0, 400)
    reference = PhaseTrajectory(t, 2.0 * np.pi * 20.0 * t)
    eps = 1e-4
    measured = PhaseTrajectory(t, 2.0 * np.pi * 20.0 * (1 + eps) * t)
    slope, _ = line_of(build_warp_map(reference, measured))
    assert abs(slope - (1.0 + eps)) < 1e-12


def test_nonmonotone_trajectory_is_rejected():
    t = np.linspace(0.0, 1.0, 100)
    phase = 2.0 * np.pi * 20.0 * t
    bad = phase.copy()
    bad[50] = bad[48]  # tracker glitch
    good = PhaseTrajectory(t, phase)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would escape instead
        with pytest.raises(ValueError):
            build_warp_map(good, PhaseTrajectory(t, bad))


def test_disjoint_trajectories_are_rejected():
    t = np.linspace(0.0, 1.0, 100)
    a = PhaseTrajectory(t, 100.0 + 10.0 * t)
    b = PhaseTrajectory(t, 500.0 + 10.0 * t)
    with pytest.raises(ValueError):
        build_warp_map(a, b)


def test_warp_map_validation():
    with pytest.raises(ValueError):
        WarpMap(np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        WarpMap(np.array([0.0]), np.array([0.0]))


def test_apply_warp_identity_returns_the_signal():
    rng = np.random.default_rng(5)
    x = SampledSignal(rng.standard_normal(10000), FS)
    span = np.array([-0.1, len(x) / FS + 0.1])
    out = apply_warp(x, lambda: WarpMap(span, span))
    assert np.max(np.abs(out.samples - x.samples)) < 1e-9


def test_apply_warp_then_inverse_restores_the_interior():
    """Full-band noise through a warp and its inverse: limited only by the
    interpolation kernel's accuracy near the Nyquist frequency."""
    rng = np.random.default_rng(6)
    x = SampledSignal(rng.standard_normal(20000), FS)
    hi = len(x) / FS + 0.1
    grid = np.linspace(-0.1, hi, 50)
    forward = WarpMap(grid, 1.0001 * grid)
    backward = WarpMap(1.0001 * grid, grid)
    back = apply_warp(apply_warp(x, lambda: forward), lambda: backward)
    pad = 4 * HALF_TAPS
    err = np.max(np.abs(back.samples[pad:-pad] - x.samples[pad:-pad]))
    assert err < 1e-3


def test_apply_warp_requires_coverage():
    x = SampledSignal(np.zeros(10000), FS)
    short = np.array([0.01, 0.05])
    with pytest.raises(ValueError, match="does not cover the signal span"):
        apply_warp(x, lambda: WarpMap(short, short))


def noise_pair(ppm, delay=7, blocks=10, period=2205, seed=8):
    """Reference of `blocks` repeats of 2 x `period` white-noise samples, and
    its recording: delayed by `delay` samples, then read on a clock `ppm`
    slow."""
    rng = np.random.default_rng(seed)
    x = np.tile(rng.standard_normal(2 * period), blocks)
    delayed = np.concatenate([np.zeros(delay), x])
    y = apply_drift(SampledSignal(delayed, FS), DriftSpec("linear", ppm=ppm))
    return SampledSignal(x, FS), y


@pytest.mark.parametrize("ppm", [-500.0, 0.0, 20.0, 100.0, 500.0])
def test_block_delays_read_the_drift_and_the_delay(ppm):
    """Reference sample n sits at recording position (n + delay) / (1 + eps),
    so the lag slope is 1 / (1 + eps) - 1.  The intercept is pinned by the
    middle block's whole-sample lag, so it holds to a sample."""
    eps = ppm * 1e-6
    delays = track_block_delays(*noise_pair(ppm), 2205)
    assert abs(1.0 / (1.0 + delays.slope) - 1.0 - eps) < 1e-8
    assert abs(delays.intercept - 7.0 / (1.0 + eps)) < 1.0
    assert np.all(delays.used)
    assert delays.residual_rms < 1e-3
    np.testing.assert_array_equal(delays.centres, np.arange(10) * 4410 + 4409 / 2)


def test_block_delays_leave_out_a_block_that_disagrees():
    """A block whose recording is 3 samples late is left out of the line,
    and the blocks after it are still read right."""
    x, y = noise_pair(100.0)
    y.samples[5 * 4410 : 6 * 4410] = y.samples[5 * 4410 - 3 : 6 * 4410 - 3].copy()
    delays = track_block_delays(x, y, 2205)
    assert not delays.used[5] and np.count_nonzero(delays.used) == 9
    assert abs(1.0 / (1.0 + delays.slope) - 1.0 - 100e-6) < 1e-8


def test_block_delays_need_three_blocks():
    x, y = noise_pair(0.0, blocks=3)
    track_block_delays(x, y, 2205)
    with pytest.raises(ValueError, match="2 block"):
        track_block_delays(SampledSignal(x.samples[:-1], FS), y, 2205)


def test_block_delays_refuse_a_silent_recording():
    x, y = noise_pair(0.0)
    with pytest.raises(ValueError, match="hold signal"):
        track_block_delays(x, SampledSignal(np.zeros(len(y)), FS), 2205)


@pytest.mark.parametrize("n", [1_000_000, 4_000_000])
def test_block_delays_hold_a_few_blocks(traced_peak, n):
    """The tracker's buffers are block-sized whatever the record's length:
    at most 32 blocks of float64 at once."""
    period = 22050
    rng = np.random.default_rng(9)
    x = SampledSignal(rng.standard_normal(n), FS)
    y = SampledSignal(np.concatenate([np.zeros(5), x.samples[:-5]]), FS)
    delays, peak = traced_peak(track_block_delays, x, y, period)
    assert np.all(delays.used)
    assert peak <= 32 * 8 * 2 * period


def test_block_lags_follow_a_wobble_the_line_refuses():
    """A 0.5 Hz wobble of 1e-4 s leaves no two lags within half a sample of
    one line, so track_block_delays refuses; block_lags still reads every
    lag.  Reference sample n sits at the recording position m that solves
    m + D sin(w m) = n; the lags match m - n up to the middle block's
    whole-sample pin, a constant."""
    period, blocks = 2205, 40
    rng = np.random.default_rng(8)
    x = SampledSignal(np.tile(rng.standard_normal(2 * period), blocks), FS)
    y = apply_drift(x, DriftSpec("sinusoidal", depth_s=1e-4, rate_hz=0.5))
    with pytest.raises(ValueError, match="one line"):
        track_block_delays(x, y, period)
    centres, lags = block_lags(x, y, period)
    np.testing.assert_array_equal(centres, np.arange(blocks) * 4410 + 4409 / 2)
    depth, w = 1e-4 * FS, 2.0 * np.pi * 0.5 / FS
    m = centres.copy()
    for _ in range(10):  # a contraction: depth * w is 3e-4
        m = centres - depth * np.sin(w * m)
    assert np.max(np.abs(m - centres)) > 4.3
    assert np.ptp(lags - (m - centres)) < 0.02


def test_block_delay_warp_spans_the_record_at_the_fitted_rate():
    delays = track_block_delays(*noise_pair(100.0), 2205)
    warp = delays.warp(2.0)
    np.testing.assert_array_equal(warp.t_da, [0.0, 2.0])
    np.testing.assert_array_equal(warp.t_ad, [0.0, 2.0 * (1.0 + delays.slope)])
    folded = dataclasses.replace(delays, slope=-1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        folded.warp(2.0)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 37, 40, 399])
def test_median_is_np_median_bit_for_bit(size):
    """The lag line's median: the middle value, or the mean of the two
    middle ones, as np.median gives them, on odd and even sizes, ties
    included; its input is left unsorted.  (Zeros of both signs compare
    equal, so either may come out as a tie's middle value.)"""
    rng = np.random.default_rng(size)
    for x in (rng.standard_normal(size), 1e6 * rng.standard_normal(size),
              np.round(3.0 * rng.standard_normal(size)) + 0.5):
        before = x.copy()
        assert _median(x).tobytes() == np.median(x).tobytes()
        assert np.array_equal(x, before)


def _oracle_read_block(x, start, size):
    out = np.zeros(size)
    lo, hi = max(start, 0), min(start + size, x.size)
    if hi > lo:
        out[lo - start : hi - start] = x[lo:hi]
    return out


def oracle_block_lags(reference, recorded, period_no):
    """block_lags as it was before the reference pre-pass: every reference
    block transformed in the walk, the middle search at the segment's own
    length, the phase ramp applied at every shift."""
    x, y = reference.samples, recorded.samples
    size = 2 * period_no
    count = x.size // size
    window = np.hanning(size)
    freqs = np.fft.rfftfreq(size)
    lo, hi = np.searchsorted(freqs, 0.005), np.searchsorted(freqs, 0.4, "right")
    freqs = freqs[lo:hi]

    def spectrum(signal, start):
        block = _oracle_read_block(signal, start, size)
        block *= window
        return np.fft.rfft(block)[lo:hi]

    def cross_spectrum(b, k):
        spec = np.conj(spectrum(x, b * size))
        spec *= spectrum(y, b * size + k)
        return spec

    mid = count // 2
    reach = period_no // 4
    segment = _oracle_read_block(y, mid * size - reach, size + 2 * reach)
    spec = np.fft.rfft(segment)
    block = x[mid * size : (mid + 1) * size] * window
    spec *= np.conj(np.fft.rfft(block, segment.size))
    corr = np.fft.irfft(spec, segment.size)[: 2 * reach + 1]
    k_mid = int(np.argmax(np.abs(corr))) - reach
    mid_conj = np.conj(cross_spectrum(mid, k_mid))
    lags = np.full(count, np.nan)
    lags[mid] = k_mid
    padded = np.zeros(size // 2 + 1, dtype=np.complex128)
    for direction in (1, -1):
        previous, step = float(k_mid), 0.0
        for b in range(mid + direction, count if direction > 0 else -1, direction):
            k = int(round(previous + step))
            r = cross_spectrum(b, k)
            r *= mid_conj
            padded[lo:hi] = r
            shift = int(np.argmax(np.fft.irfft(padded, size)))
            shift -= size if shift > size // 2 else 0
            r *= np.exp(2j * np.pi * shift * freqs)
            weight = np.abs(r)
            norm = np.dot(weight, freqs * freqs)
            if norm > 0.0:
                slope = np.dot(weight * np.angle(r), freqs) / norm
                lags[b] = k + shift - slope / (2.0 * np.pi)
                step, previous = lags[b] - previous, lags[b]
    centres = np.arange(count) * float(size) + (size - 1) / 2.0
    return centres, lags


def emission(codes, period=2205, reps=36):
    """The mix of `codes` fvnlab channels: 18 blocks, repeating every code
    cycle (17 distinct blocks for 6 codes, more than the cache keeps)."""
    matrix = build_code_matrix(codes)
    _, channels = coded_channels(
        0.005, FS, list(range(3, 3 + codes)), list(range(codes)), matrix, period, reps
    )
    return multiplex(channels)


def delayed_drift(x, ppm, delay=7):
    delayed = np.concatenate([np.zeros(delay), x.samples])
    return apply_drift(SampledSignal(delayed, FS), DriftSpec("linear", ppm=ppm))


@pytest.mark.parametrize("ppm", [0.0, 100.0, -100.0, 500.0])
@pytest.mark.parametrize("codes", [1, 2, 3, 6])
def test_block_lags_match_the_oracle_on_emissions(codes, ppm):
    x = emission(codes)
    y = delayed_drift(x, ppm)
    for got, want in zip(block_lags(x, y, 2205), oracle_block_lags(x, y, 2205)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ppm", [0.0, 100.0, 500.0])
def test_block_lags_match_the_oracle_on_noise_that_does_not_repeat(ppm):
    """Twelve distinct blocks: eight spectra are cached, and the walk
    transforms the other four from the reference it keeps."""
    x = SampledSignal(np.random.default_rng(4).standard_normal(12 * 4410), FS)
    y = delayed_drift(x, ppm)
    blocks = align.ReferenceBlocks(x, 2205)
    assert blocks._samples is x.samples
    for got, want in zip(blocks.lags(y), oracle_block_lags(x, y, 2205)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("distinct", [1, 2, 5])
def test_each_distinct_reference_block_is_transformed_once(monkeypatch, distinct):
    """A reference cycling through `distinct` blocks, 12 blocks in all:
    block-length transforms are one per distinct reference block and one
    per recording block, and the middle search takes two more at its own
    length.  The reference is not kept, since every block has a spectrum."""
    period, count = 2205, 12
    rng = np.random.default_rng(distinct)
    cycle = rng.standard_normal((distinct, 2 * period))
    x = SampledSignal(cycle[np.arange(count) % distinct].ravel(), FS)
    y = delayed_drift(x, 100.0)
    lengths = []
    rfft = np.fft.rfft

    def spy(a, n=None, *args, **kwargs):
        lengths.append(len(a) if n is None else n)
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    blocks = align.ReferenceBlocks(x, period)
    assert blocks._samples is None
    assert lengths.count(2 * period) == distinct
    _, lags = blocks.lags(y)
    assert lengths.count(2 * period) == distinct + count
    assert len(lengths) == distinct + count + 2
    assert np.all(np.isfinite(lags))
