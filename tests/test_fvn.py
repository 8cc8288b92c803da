from dataclasses import dataclass

import numpy as np
import pytest

from fvnlab import (
    FvnSpec,
    SIX_TERM_COEFFS,
    center_pulse,
    fvn,
    fvn_phase,
    phase_unit,
    synthesize_unit_fvn,
)


@dataclass(frozen=True)
class EnvelopeDiagnostics:
    """Envelope-shape summary of a unit FVN.

    center_rms and flank_rms are RMS values of the peak-normalized smoothed
    envelope, sampled on a sigma_t / 4 grid around the envelope peak: the
    central 9 points (offsets -4..4) and the 10 flanking points (offsets
    5..9 on both sides).  A smooth, concentrated envelope has a large
    center-to-flank ratio; a ragged one does not.
    """

    center_rms: float
    flank_rms: float
    effective_duration: float

    @property
    def center_flank_ratio(self) -> float:
        return self.center_rms / self.flank_rms

    @property
    def smooth(self) -> bool:
        # Threshold picked from the ratio sweep: b_w / f_d = 2 designs sit
        # near 9 across seeds, b_w / f_d = 1 near 3.5, so 5 splits the
        # recommended regime from the rest with comfortable margin.
        return self.center_flank_ratio > 5.0


def _analytic_envelope(x: np.ndarray) -> np.ndarray:
    """Envelope magnitude via spectral one-siding (circular Hilbert)."""
    n = x.size
    spec = np.fft.fft(x)
    gains = np.zeros(n)
    gains[0] = 1.0
    gains[n // 2] = 1.0
    gains[1 : n // 2] = 2.0
    return np.abs(np.fft.ifft(spec * gains))


def _circular_moving_average(x: np.ndarray, width: int) -> np.ndarray:
    n = x.size
    kernel = np.zeros(n)
    idx = np.arange(-(width // 2), width - width // 2)
    kernel[idx % n] = 1.0 / width
    return np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(kernel), n)


def envelope_diagnostics(spec: FvnSpec) -> EnvelopeDiagnostics:
    """Measure envelope-shape statistics of one synthesized unit FVN.

    The envelope is the analytic magnitude smoothed by a moving average,
    normalized to unit peak.  The smoothing width and the sampling grid are
    tied to the duration implied by the frequency spacing (1 / (5 f_d),
    which equals sigma_t for default designs) rather than to sigma_t
    itself, so two specs with the same b_w / f_d ratio yield comparable
    diagnostics at any absolute scale.  effective_duration is the square
    root of the second moment of the squared envelope around its circular
    center of gravity, in seconds; for the default design the whole pulse
    (about +-2.5 standard deviations) then fits inside +-sigma_t.
    """
    unit = synthesize_unit_fvn(spec)
    samples = unit.samples
    k = samples.size
    sigma_ref = 1.0 / (5.0 * spec.f_d)
    width = max(1, int(round(sigma_ref / 8.0 * spec.fs)))
    env = _circular_moving_average(_analytic_envelope(samples), width)
    env = env / np.max(env)
    peak = int(np.argmax(env))

    step = max(1, int(round(sigma_ref / 4.0 * spec.fs)))
    center_offsets = np.arange(-4, 5)
    flank_offsets = np.concatenate([np.arange(-9, -4), np.arange(5, 10)])
    center = env[(peak + center_offsets * step) % k]
    flank = env[(peak + flank_offsets * step) % k]

    weights = env**2
    delta = ((np.arange(k) - peak + k // 2) % k) - k // 2
    mean = np.sum(weights * delta) / np.sum(weights)
    var = np.sum(weights * (delta - mean) ** 2) / np.sum(weights)
    return EnvelopeDiagnostics(
        center_rms=float(np.sqrt(np.mean(center**2))),
        flank_rms=float(np.sqrt(np.mean(flank**2))),
        effective_duration=float(np.sqrt(var) / spec.fs),
    )


def test_six_term_coefficients_sum_to_one():
    assert abs(SIX_TERM_COEFFS.sum() - 1.0) < 1e-10


def test_six_term_alternating_sum_vanishes():
    signs = (-1.0) ** np.arange(SIX_TERM_COEFFS.size)
    assert abs((SIX_TERM_COEFFS * signs).sum()) < 1e-10


def test_phase_unit_center_and_edges():
    assert phase_unit(0.0, 40.0) == pytest.approx(1.0, abs=1e-10)
    assert phase_unit(40.0, 40.0) == pytest.approx(0.0, abs=1e-10)
    assert phase_unit(-40.0, 40.0) == pytest.approx(0.0, abs=1e-10)
    assert phase_unit(41.0, 40.0) == 0.0
    assert phase_unit(-1000.0, 40.0) == 0.0


def test_phase_unit_is_even():
    offsets = np.linspace(0.0, 55.0, 111)
    np.testing.assert_allclose(
        phase_unit(offsets, 40.0), phase_unit(-offsets, 40.0), atol=1e-14
    )


def test_phase_unit_rejects_bad_half_width():
    with pytest.raises(ValueError):
        phase_unit(0.0, 0.0)


def _dense_phase_unit(offset, half_width):
    """phase_unit as six cosines of every offset: the reference for the
    separable form synthesis uses."""
    inside = np.abs(offset) <= half_width
    x = np.where(inside, offset, 0.0) * (np.pi / half_width)
    acc = np.zeros_like(x)
    for m, a in enumerate(SIX_TERM_COEFFS):
        acc += a * np.cos(m * x)
    return np.where(inside, acc, 0.0)


def _dense_accumulate_phase(dft_size, centers, signs, half_width):
    """fvn._accumulate_phase with every bump evaluated densely."""
    all_centers = np.concatenate([centers, -centers])
    all_signs = np.concatenate([signs, -signs])
    span = int(np.floor(2.0 * half_width)) + 2
    first = np.ceil(all_centers - half_width).astype(np.int64)
    bins = first[:, None] + np.arange(span)[None, :]
    weights = _dense_phase_unit(bins - all_centers[:, None], half_width)
    weights = weights * all_signs[:, None]
    return np.bincount(
        (bins % dft_size).ravel(), weights=weights.ravel(), minlength=dft_size
    )


# f_d one bin (44100 / 512 Hz on 512 bins) puts every center on a bin, and
# b_w = 2 f_d makes the half-width exactly 10 bins: the end bins of each
# bump sit at +-half_width, the edge of the support mask
ON_BIN = FvnSpec(
    sigma_t=0.001, f_d=44100.0 / 512, b_w=2 * 44100.0 / 512, dft_size_k=512
)


@pytest.mark.parametrize(
    "spec",
    [FvnSpec(sigma_t=t, seed=s) for t in (0.005, 0.010) for s in (0, 1, 2)]
    + [FvnSpec(sigma_t=0.1, seed=s) for s in (0, 1)]
    + [
        FvnSpec(sigma_t=0.01, b_w=20.0, seed=3),  # b_w = f_d
        FvnSpec(sigma_t=0.01, b_w=80.0, seed=3),  # b_w = 4 f_d
        FvnSpec(sigma_t=0.01, phi_max=np.pi, seed=3),
        FvnSpec(sigma_t=0.01, dft_size_k=16384, seed=3),  # twice the default
        ON_BIN,
    ],
)
def test_separable_phase_matches_the_dense_bumps(monkeypatch, spec):
    phase, unit = fvn_phase(spec), synthesize_unit_fvn(spec).samples
    monkeypatch.setattr(fvn, "_accumulate_phase", _dense_accumulate_phase)
    dense, dense_unit = fvn_phase(spec), synthesize_unit_fvn(spec).samples
    assert np.max(np.abs(phase - dense)) <= 1e-12
    assert np.max(np.abs(unit - dense_unit)) <= 1e-12 * np.max(np.abs(dense_unit))


def _full_mask_accumulate_phase(dft_size, centers, signs, half_width):
    """fvn._accumulate_phase testing every bin of every bump against the
    half-width."""
    j = np.arange(int(np.floor(2.0 * half_width)) + 2)
    first = np.ceil(centers - half_width).astype(np.int64)
    d = centers - first
    weights = fvn._bumps(signs, d, j, half_width)
    weights[np.abs(j - d[:, None]) > half_width] = 0.0
    bins = (first[:, None] + j) % dft_size
    q = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=dft_size)
    return q - np.roll(q[::-1], 1)


@pytest.mark.parametrize(
    "spec",
    [
        FvnSpec(sigma_t=t, seed=s)
        for t in (0.001, 0.003, 0.005, 0.010, 0.05, 0.1)
        for s in (0, 1)
    ]
    + [FvnSpec(sigma_t=0.01, b_w=b, seed=4) for b in (7.0, 13.3, 20.0, 55.5, 80.0)]
    + [ON_BIN],
)
def test_edge_columns_mask_as_the_full_mask(monkeypatch, spec):
    phase = fvn_phase(spec)
    monkeypatch.setattr(fvn, "_accumulate_phase", _full_mask_accumulate_phase)
    assert phase.tobytes() == fvn_phase(spec).tobytes()


def test_on_bin_case_reaches_the_support_edge():
    """ON_BIN's half-width is whole and its centers integers."""
    k = ON_BIN.dft_size_k
    assert (SIX_TERM_COEFFS.size - 1) * ON_BIN.b_w * k / ON_BIN.fs == 10.0
    assert ON_BIN.f_d * k / ON_BIN.fs == 1.0


def test_fvn_phase_is_odd_symmetric():
    """The mirrored half is the bump sum read backwards, so oddness holds
    bit for bit, not only to rounding."""
    for sigma_t in (0.005, 0.010, 0.1):
        for seed in range(20):
            phase = fvn_phase(FvnSpec(sigma_t=sigma_t, seed=seed))
            k = phase.size
            assert phase[0] == 0.0 and phase[k // 2] == 0.0
            assert np.array_equal(phase[1:], -phase[1:][::-1]), (sigma_t, seed)


def test_accumulate_phase_evaluates_each_bump_once(monkeypatch):
    rows = []
    bumps = fvn._bumps

    def spy(amplitudes, d, j, half_width):
        rows.append(d.size)
        return bumps(amplitudes, d, j, half_width)

    monkeypatch.setattr(fvn, "_bumps", spy)
    centers = np.array([3.25, 40.0, 100.5, 128.0])
    fvn._accumulate_phase(256, centers, np.array([1.0, -1.0, 1.0, -1.0]), 6.5)
    assert rows == [len(centers)]


def test_fvn_phase_holds_few_bytes_per_bin(traced_peak):
    """One (bumps x span) weight matrix and its bins, not a mirrored pair:
    ~258 B per bin at sigma_t 0.1, ~513 with the mirrored bumps."""
    spec = FvnSpec(sigma_t=0.1, seed=1)
    fvn_phase(spec)  # warm-up: first-call allocations are not the phase's
    phase, peak = traced_peak(fvn_phase, spec)
    assert peak <= 300 * phase.size


def test_unit_fvn_is_all_pass():
    for sigma_t in (0.01, 0.1):
        for seed in (0, 7):
            unit = synthesize_unit_fvn(FvnSpec(sigma_t=sigma_t, seed=seed))
            mags = np.abs(np.fft.fft(unit.samples))
            assert np.max(np.abs(mags - 1.0)) < 1e-9


def test_unit_fvn_self_compression_is_unit_impulse():
    unit = synthesize_unit_fvn(FvnSpec(sigma_t=0.01, seed=1))
    spec = np.fft.fft(unit.samples)
    circ = np.fft.ifft(spec * np.conj(spec)).real
    assert circ[0] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(circ[1:])) < 1e-8


def test_unit_fvn_buffer_covers_ten_sigma():
    spec = FvnSpec(sigma_t=0.01, fs=44100.0)
    assert spec.dft_size_k / spec.fs >= 10 * spec.sigma_t
    # smallest power of two with that property
    assert (spec.dft_size_k // 2) / spec.fs < 10 * spec.sigma_t


def test_default_design_rules():
    spec = FvnSpec(sigma_t=0.02)
    assert spec.f_d == pytest.approx(1.0 / (5.0 * 0.02))
    assert spec.b_w == pytest.approx(2.0 * spec.f_d)
    assert spec.phi_max == pytest.approx(np.pi / 4)


def test_same_seed_reproduces_bit_exactly():
    a = synthesize_unit_fvn(FvnSpec(sigma_t=0.01, seed=3))
    b = synthesize_unit_fvn(FvnSpec(sigma_t=0.01, seed=3))
    assert np.array_equal(a.samples, b.samples)


def test_different_seeds_differ():
    a = synthesize_unit_fvn(FvnSpec(sigma_t=0.01, seed=3))
    b = synthesize_unit_fvn(FvnSpec(sigma_t=0.01, seed=4))
    assert not np.array_equal(a.samples, b.samples)


def test_center_pulse_is_a_cyclic_roll():
    unit = synthesize_unit_fvn(FvnSpec(sigma_t=0.01, seed=2))
    pulse = center_pulse(unit)
    k = len(unit)
    assert np.array_equal(pulse.samples, np.roll(unit.samples, k // 2))
    # compact: the envelope peak sits in the middle and the edges are dead
    assert abs(int(np.argmax(np.abs(pulse.samples))) - k // 2) < k // 4
    edge = max(np.max(np.abs(pulse.samples[: k // 8])),
               np.max(np.abs(pulse.samples[-k // 8 :])))
    assert edge < 1e-9


def test_spec_validation():
    with pytest.raises(ValueError):
        FvnSpec(sigma_t=-0.01)
    with pytest.raises(ValueError):
        FvnSpec(sigma_t=0.01, fs=0.0)
    with pytest.raises(ValueError):
        FvnSpec(sigma_t=0.01, dft_size_k=64)  # cannot cover 10 sigma_t
    with pytest.raises(ValueError):
        FvnSpec(sigma_t=0.01, phi_max=4.0)


def test_default_design_envelope_is_smooth():
    diag = envelope_diagnostics(FvnSpec(sigma_t=0.01, seed=0))
    assert diag.smooth
    assert diag.center_flank_ratio > 5.0


def test_narrow_bumps_make_a_ragged_envelope():
    """Dropping b_w to f_d (half the recommended width) spreads the pulse."""
    spec = FvnSpec(sigma_t=0.01, seed=0)
    narrow = FvnSpec(sigma_t=0.01, b_w=spec.f_d, seed=0)
    assert not envelope_diagnostics(narrow).smooth


def test_effective_duration_tracks_sigma():
    diag = envelope_diagnostics(FvnSpec(sigma_t=0.01, seed=1))
    # the whole pulse (about 2.5 effective widths) fits inside +-sigma_t
    assert diag.effective_duration < 0.01 / 2
    assert diag.effective_duration > 0.01 / 10
