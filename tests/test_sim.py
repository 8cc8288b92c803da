import json

import numpy as np
import pytest

from fvnlab import (
    DriftSpec,
    NoiseSpec,
    SampledSignal,
    SimTarget,
    apply_drift,
    simulate,
)
from fvnlab.resample import fftconvolve
from fvnlab.sim import _generate_noise, _polynomial

FS = 44100.0


def test_identity_target_passes_the_signal_through():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3000)
    out = simulate(SimTarget(paths=[np.array([1.0])]), [SampledSignal(x, FS)])
    assert len(out) == 3000
    assert np.max(np.abs(out.samples - x)) < 1e-12


def test_fir_path_matches_direct_convolution():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2000)
    h = rng.standard_normal(32)
    out = simulate(SimTarget(paths=[h]), [SampledSignal(x, FS)])
    truth = np.convolve(x, h)
    assert len(out) == truth.size
    assert np.max(np.abs(out.samples - truth)) < 1e-12 * np.max(np.abs(truth))


def test_two_paths_sum_at_the_capture_point():
    x = SampledSignal(np.ones(100), FS)
    target = SimTarget(paths=[np.array([1.0]), np.array([0.5])])
    out = simulate(target, [x, x])
    assert out.samples[50] == pytest.approx(1.5, abs=1e-12)


def test_simulate_reads_a_stream_as_a_list_bit_for_bit():
    """A generator of inputs gives the bits of the same inputs in a list,
    and both those of a sum into a zero buffer of the longest output, added
    in path order; the outputs here grow from path to path but the last."""
    rng = np.random.default_rng(4)
    lengths, taps = (300, 900, 500), (40, 7, 300)
    xs = [SampledSignal(rng.standard_normal(n), FS) for n in lengths]
    target = SimTarget(
        paths=[rng.standard_normal(k) for k in taps],
        nonlinearity=np.array([1.0, 0.3, -0.2]),
    )
    listed = simulate(target, xs)
    streamed = simulate(target, (x for x in xs))
    want = np.zeros(max(n + k - 1 for n, k in zip(lengths, taps)))
    for x, fir in zip(xs, target.paths):
        want[: len(x) + fir.size - 1] += fftconvolve(
            _polynomial(x.samples, target.nonlinearity), fir
        )
    assert np.array_equal(listed.samples, want)
    assert np.array_equal(streamed.samples, want)


def test_simulate_holds_one_path_output_at_a_time(traced_peak):
    """Four 200-tap FIR paths after a cubic: the sum and the path being
    made with its temporaries (~25 B per recorded sample).  The previous
    path's output kept alive through the next path reads 33."""
    rng = np.random.default_rng(6)
    x = SampledSignal(rng.standard_normal(400_000), FS)
    target = SimTarget(
        paths=[rng.standard_normal(200) for _ in range(4)],
        nonlinearity=np.array([1.0, 0.0, 0.1]),
    )
    out, peak = traced_peak(simulate, target, [x] * 4)
    assert peak / len(out) <= 29.0


def power_sum(x, coeffs):
    """sum_k coeffs[k] x^(k+1) as a running power and a sum of its
    multiples: the oracle for _polynomial."""
    acc = np.zeros_like(x)
    term = np.ones_like(x)
    for c in coeffs:
        term *= x
        acc += c * term
    return acc


def test_polynomial_matches_the_power_sum():
    """Horner's rule stays within 2e-15 of the power sum's peak over random
    coefficient sets of 1-6 terms, zeros among them, on inputs scaled 0.1
    to 3; the identity [1.0] returns its input's bits."""
    rng = np.random.default_rng(8)
    for _ in range(300):
        coeffs = rng.standard_normal(rng.integers(1, 7))
        coeffs[rng.random(coeffs.size) < 0.3] = 0.0
        x = rng.uniform(0.1, 3.0) * rng.standard_normal(1000)
        want = power_sum(x, coeffs)
        err = np.max(np.abs(_polynomial(x, coeffs) - want))
        assert err <= 2e-15 * np.max(np.abs(want))
    x = rng.standard_normal(1000)
    identity = np.array([1.0])
    assert _polynomial(x, identity).tobytes() == power_sum(x, identity).tobytes()


def test_polynomial_holds_only_its_output(traced_peak):
    """The cubic on 1 M samples holds the buffer it returns (8 B/sample);
    the power sum's running power and per-term product read 24."""
    x = np.random.default_rng(9).standard_normal(1_000_000)
    _, peak = traced_peak(_polynomial, x, np.array([1.0, 0.0, 0.1]))
    assert peak / x.size <= 9.0


def test_cubic_nonlinearity_has_textbook_harmonic_amplitudes():
    """For A sin(wt) through x + 0.1 x^3: the fundamental grows to
    A + 0.075 A^3 and a third harmonic of 0.025 A^3 appears."""
    n = 4096
    a = 0.3
    cycles = 64
    t = np.arange(n)
    x = a * np.sin(2.0 * np.pi * cycles * t / n)
    target = SimTarget(paths=[np.array([1.0])], nonlinearity=np.array([1.0, 0.0, 0.1]))
    out = simulate(target, [SampledSignal(x, FS)])
    spec = np.abs(np.fft.rfft(out.samples)) * 2.0 / n
    assert spec[cycles] == pytest.approx(a + 0.075 * a**3, abs=1e-9)
    assert spec[3 * cycles] == pytest.approx(0.025 * a**3, abs=1e-9)
    others = np.delete(spec, [cycles, 3 * cycles])
    assert np.max(others) < 1e-9


def test_white_noise_level_is_relative_to_signal_rms():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(44100)
    target = SimTarget(paths=[np.array([1.0])], noise=NoiseSpec("white", -20.0))
    out = simulate(target, [SampledSignal(x, FS)], seed=7)
    expected = np.sqrt(np.mean(x**2)) * np.sqrt(1.0 + 10.0 ** (-20.0 / 10.0))
    assert out.rms() == pytest.approx(expected, rel=0.02)


def test_pink_noise_tilts_by_ten_db_per_decade():
    noise = _generate_noise(1 << 17, FS, NoiseSpec("pink", 0.0), np.random.default_rng(3))
    assert np.sqrt(np.mean(noise**2)) == pytest.approx(1.0, rel=1e-9)
    spec = np.abs(np.fft.rfft(noise)) ** 2
    freqs = np.fft.rfftfreq(1 << 17, 1.0 / FS)
    p_lo = np.mean(spec[(freqs > 40.0) & (freqs < 80.0)])
    p_hi = np.mean(spec[(freqs > 4000.0) & (freqs < 8000.0)])
    tilt = 10.0 * np.log10(p_lo / p_hi)  # two decades apart: expect ~20
    assert 15.0 < tilt < 25.0


def test_simulation_is_reproducible_per_seed():
    rng = np.random.default_rng(4)
    x = SampledSignal(rng.standard_normal(5000), FS)
    target = SimTarget(paths=[np.array([1.0])], noise=NoiseSpec("white", -30.0))
    a = simulate(target, [x], seed=11)
    b = simulate(target, [x], seed=11)
    c = simulate(target, [x], seed=12)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_zero_linear_drift_changes_nothing():
    rng = np.random.default_rng(5)
    x = SampledSignal(rng.standard_normal(8000), FS)
    out = apply_drift(x, DriftSpec("linear", ppm=0.0))
    assert np.max(np.abs(out.samples - x.samples)) < 1e-9


def test_linear_drift_scales_the_tracked_frequency():
    """The drifted tone is cos(w t) with w = 2 pi 20 (1 + 1e-4).  Fitted
    against that closed form with a free gain, phase and frequency offset
    dw, linearised as cos(w t) - (p + dw t) sin(w t), it runs at w - dw."""
    t = np.arange(2 * 44100) / FS
    tone = SampledSignal(np.cos(2.0 * np.pi * 20.0 * t), FS)
    drifted = apply_drift(tone, DriftSpec("linear", ppm=100.0)).samples
    w = 2.0 * np.pi * 20.0 * 1.0001
    inner = slice(4410, -4410)  # clear of the resampler's edges
    basis = np.column_stack(
        [np.cos(w * t), np.sin(w * t), t * np.sin(w * t), t * np.cos(w * t)]
    )
    coef, *_ = np.linalg.lstsq(basis[inner], drifted[inner], rcond=None)
    assert w - coef[2] == pytest.approx(2.0 * np.pi * 20.0 * 1.0001, rel=1e-8)


def test_sinusoidal_drift_modulates_the_phase():
    """The drifted tone is cos(phi) with phi = 2 pi 20 (t + 1e-4 sin(pi t)).
    Fitted against that closed form with a free gain, phase and residual
    modulation a sin(pi t) + b cos(pi t), linearised like the linear case,
    its phase modulation has the amplitude 2 pi 20 1e-4."""
    t = np.arange(4 * 44100) / FS
    tone = SampledSignal(np.cos(2.0 * np.pi * 20.0 * t), FS)
    drift = DriftSpec("sinusoidal", depth_s=1e-4, rate_hz=0.5)
    drifted = apply_drift(tone, drift).samples
    depth = 2.0 * np.pi * 20.0 * 1e-4
    phi = 2.0 * np.pi * 20.0 * t + depth * np.sin(np.pi * t)
    inner = slice(4410, -4410)
    basis = np.column_stack(
        [
            np.cos(phi),
            np.sin(phi),
            np.sin(np.pi * t) * np.sin(phi),
            np.cos(np.pi * t) * np.sin(phi),
        ]
    )
    coef, *_ = np.linalg.lstsq(basis[inner], drifted[inner], rcond=None)
    amplitude = float(np.hypot(depth - coef[2], coef[3]))
    assert amplitude == pytest.approx(2.0 * np.pi * 20.0 * 1e-4, rel=0.05)


def test_sinusoidal_drift_depth_limit():
    """|depth_s 2 pi rate_hz| >= 1 folds time back on itself, whatever the
    signs; 1 + ppm 1e-6 <= 0 stops or reverses it."""
    for depth_s, rate_hz in [(0.4, 0.5), (0.01, -100.0), (-0.01, 100.0)]:
        with pytest.raises(ValueError, match="too deep"):
            DriftSpec("sinusoidal", depth_s=depth_s, rate_hz=rate_hz)
    DriftSpec("sinusoidal", depth_s=-1e-4, rate_hz=-0.5)
    for ppm in [-1e6, -2e6]:
        with pytest.raises(ValueError, match="ppm"):
            DriftSpec("linear", ppm=ppm)
    DriftSpec("linear", ppm=-999_999.0)


def test_target_json_roundtrip(tmp_path):
    target = SimTarget(
        paths=[np.array([1.0, -0.2]), np.array([0.5])],
        nonlinearity=np.array([1.0, 0.0, 0.02]),
        noise=NoiseSpec("pink", -35.0),
        drift=DriftSpec("linear", ppm=40.0),
    )
    f = tmp_path / "target.json"
    target.to_json(f)
    back = SimTarget.from_dict(json.loads(f.read_text()))
    assert all(np.array_equal(a, b) for a, b in zip(back.paths, target.paths))
    assert np.array_equal(back.nonlinearity, target.nonlinearity)
    assert back.noise == target.noise
    assert back.drift == target.drift


def test_target_json_defaults(tmp_path):
    f = tmp_path / "minimal.json"
    f.write_text(json.dumps({"paths": [[1.0]]}))
    target = SimTarget.from_dict(json.loads(f.read_text()))
    assert np.array_equal(target.nonlinearity, [1.0])
    assert target.noise is None and target.drift is None


def test_simulate_validation():
    x = SampledSignal(np.ones(100), FS)
    y = SampledSignal(np.ones(100), 48000.0)
    target = SimTarget(paths=[np.array([1.0]), np.array([1.0])])
    with pytest.raises(ValueError):
        simulate(target, [x])
    with pytest.raises(ValueError):
        simulate(target, [x, y])
    with pytest.raises(ValueError):
        SimTarget(paths=[])
    with pytest.raises(ValueError):
        NoiseSpec("brown", -20.0)
    with pytest.raises(ValueError):
        DriftSpec("quadratic")


def test_noise_level_is_bounded_by_the_largest_float():
    """The noise gain is 10^(level_db / 20): 20 log10 of the largest float,
    ~6165.09 dB, is the first level whose gain overflows."""
    first = float(20.0 * np.log10(np.finfo(np.float64).max))
    below = NoiseSpec("white", float(np.nextafter(first, 0.0)))
    assert np.isfinite(10.0 ** (below.level_db / 20.0))
    with pytest.raises(ValueError, match="level_db"):
        NoiseSpec("white", first)


def test_a_path_whose_output_overflows_is_named_without_warnings(recwarn):
    """The second path's tap of 1e308 overflows its convolution; simulate
    raises OverflowError naming that path, and numpy warns of nothing."""
    x = SampledSignal(np.random.default_rng(0).standard_normal(1000), FS)
    target = SimTarget(paths=[np.array([1.0, 0.5]), np.array([1e308, 0.5])])
    with pytest.raises(OverflowError, match=r"^paths\[1\] gives a non-finite output$"):
        simulate(target, [x, x])
    assert len(recwarn) == 0
