import numpy as np
import pytest

from fvnlab import PowerSpectrum, SampledSignal, power_spectrum, third_octave_smooth
from fvnlab.spectrum import THIRD_OCTAVE_DOWN, THIRD_OCTAVE_UP

FS = 44100.0
GRID = np.fft.rfftfreq(4096, 1.0 / FS)


def test_constant_spectrum_smooths_to_itself():
    smoothed = third_octave_smooth(PowerSpectrum(GRID, np.full(GRID.size, 2.5)))
    np.testing.assert_allclose(smoothed.linear(), 2.5, rtol=1e-12)


def test_linear_ramp_has_closed_form_mean():
    # mean of f' over [f/s, f*s] with s = 2**(1/6) is f * (s + 1/s) / 2
    smoothed = third_octave_smooth(PowerSpectrum(GRID, GRID.copy()))
    expected = smoothed.freqs * (THIRD_OCTAVE_UP + THIRD_OCTAVE_DOWN) / 2.0
    np.testing.assert_allclose(smoothed.linear(), expected, rtol=1e-9)


def test_single_bin_matches_brute_force_integration():
    power = np.zeros(GRID.size)
    power[700] = 3.0
    smoothed = third_octave_smooth(PowerSpectrum(GRID, power))
    for j in range(0, smoothed.freqs.size, 37):
        f = smoothed.freqs[j]
        lo, hi = f * THIRD_OCTAVE_DOWN, f * THIRD_OCTAVE_UP
        inner = GRID[(GRID > lo) & (GRID < hi)]
        knots = np.concatenate([[lo], inner, [hi]])
        brute = np.trapezoid(np.interp(knots, GRID, power), knots) / (hi - lo)
        assert abs(smoothed.linear()[j] - brute) < 1e-9 * 3.0


def test_windows_over_zero_power_report_minus_infinity():
    power = np.zeros(GRID.size)
    power[700] = 3.0
    smoothed = third_octave_smooth(PowerSpectrum(GRID, power))
    f_bin = GRID[700]
    far = smoothed.freqs > f_bin * (2.0 * THIRD_OCTAVE_UP)
    assert far.any()
    assert np.all(np.isneginf(smoothed.level_db[far]))


def test_smoothing_band_edges():
    smoothed = third_octave_smooth(PowerSpectrum(GRID, np.ones(GRID.size)))
    f_low = GRID[1]
    assert smoothed.freqs[0] * THIRD_OCTAVE_DOWN >= f_low
    assert smoothed.freqs[-1] * THIRD_OCTAVE_UP <= GRID[-1]
    # the next bin outward would stick out of the analyzable band
    below = GRID[(GRID > 0) & (GRID < smoothed.freqs[0])]
    assert np.all(below * THIRD_OCTAVE_DOWN < f_low)


def test_truncation_separates_direct_sound_from_echo():
    """A 10 ms echo makes a comb; cutting the analysis window before the
    echo arrives removes the ripple entirely."""
    ir = np.zeros(4096)
    ir[0] = 1.0
    ir[441] = 0.7
    sig = SampledSignal(ir, FS)
    full = third_octave_smooth(power_spectrum(sig))
    short = third_octave_smooth(power_spectrum(sig, analysis_length=141))
    band = (full.freqs > 100.0) & (full.freqs < 1000.0)
    assert np.ptp(full.level_db[band]) > 0.1
    band = (short.freqs > 100.0) & (short.freqs < 1000.0)
    assert np.ptp(short.level_db[band]) < 0.01


def test_power_spectrum_grid_and_truncation():
    sig = SampledSignal(np.ones(100), 1000.0)
    spec = power_spectrum(sig, analysis_length=50)
    assert spec.freqs.size == 26
    assert spec.freqs[-1] == 500.0
    with pytest.raises(ValueError):
        power_spectrum(sig, analysis_length=1)
    with pytest.raises(ValueError):
        power_spectrum(sig, analysis_length=101)


def test_power_spectrum_validation():
    with pytest.raises(ValueError):
        PowerSpectrum(np.array([0.0, 1.0, 1.0]), np.ones(3))
    with pytest.raises(ValueError):
        PowerSpectrum(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, 1.0]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_that_fits_no_window_is_refused(n):
    """Below 6 DFT samples no window lies between the first nonzero bin and
    the top bin; 6 samples fit one, at fs / 3."""
    ir = SampledSignal(np.r_[1.0, np.zeros(7)], FS)
    with pytest.raises(ValueError, match="no third-octave window fits"):
        third_octave_smooth(power_spectrum(ir, analysis_length=n))
    one = third_octave_smooth(power_spectrum(ir, analysis_length=6))
    assert one.freqs.tolist() == [FS / 3]
