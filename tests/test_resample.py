import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.signal

from fvnlab import resample
from fvnlab.resample import (
    HALF_TAPS,
    fftconvolve,
    resample_at,
    resample_oversampled,
    upsample2,
)

_CHUNK = 1 << 16  # einsum_resample_at's chunk


def einsum_resample_at(
    x: np.ndarray, positions: np.ndarray, half_taps: int = HALF_TAPS
) -> np.ndarray:
    """Reference: resample_at as it was before the tap-outer rewrite."""
    x = np.asarray(x, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    if x.ndim != 1 or positions.ndim != 1:
        raise ValueError("x and positions must be 1-D")
    if half_taps < 1:
        raise ValueError("half_taps must be >= 1")
    taps = np.arange(-half_taps + 1, half_taps + 1)
    # sinc(f - n) = (-1)^n sin(pi f) / (pi (f - n)) and the Hann factor
    # expands by the cosine addition theorem, so the per-sample work needs
    # three transcendentals per position instead of two per tap.
    sign = np.where(taps % 2 == 0, 1.0, -1.0)
    cos_n = np.cos(np.pi * taps / half_taps)
    sin_n = np.sin(np.pi * taps / half_taps)
    out = np.empty(positions.size)
    for lo in range(0, positions.size, _CHUNK):
        pos = positions[lo : lo + _CHUNK]
        base = np.floor(pos).astype(np.int64)
        frac = pos - base
        u = frac[:, None] - taps[None, :]
        # sin(pi f) by reflection about 1/2: for f just under 1 the direct
        # pi * f cancels against pi, and the division by the nearest tap's
        # tiny u would blow that rounding error up by 1 / |u|.
        sin_pi_frac = np.sin(np.pi * np.minimum(frac, 1.0 - frac))
        with np.errstate(invalid="ignore", divide="ignore"):
            sinc = sign * sin_pi_frac[:, None] / (np.pi * u)
        sinc[np.abs(u) < 1e-15] = 1.0  # on-grid: 0/0 above, exactly 1 here
        hann = 0.5 + 0.5 * (
            np.cos(np.pi * frac / half_taps)[:, None] * cos_n
            + np.sin(np.pi * frac / half_taps)[:, None] * sin_n
        )
        idx = base[:, None] + taps[None, :]
        valid = (idx >= 0) & (idx < x.size)
        gathered = x[np.clip(idx, 0, x.size - 1)]
        out[lo : lo + _CHUNK] = np.einsum("ij,ij->i", gathered, sinc * hann * valid)
    return out


def padded_resample_at(
    x: np.ndarray, positions: np.ndarray, half_taps: int = HALF_TAPS
) -> np.ndarray:
    """Reference: resample_at as it was while it gathered from a copy of x
    with a zero at each end."""
    taps = np.arange(-half_taps + 1, half_taps + 1)
    sign = np.where(taps % 2 == 0, 1.0, -1.0)
    cos_n = sign * np.cos(np.pi * taps / half_taps)
    sin_n = sign * np.sin(np.pi * taps / half_taps)
    padded = np.concatenate(([0.0], x, [0.0]))
    out = np.empty(positions.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        for lo in range(0, positions.size, resample._CHUNK):
            pos = positions[lo : lo + resample._CHUNK]
            base = np.floor(pos)
            frac = pos - base
            up = frac > 1.0 - 1e-15
            base[up] += 1.0
            frac[up | (frac < 1e-15)] = 0.0
            idx = np.clip(base, -half_taps - 1, x.size + half_taps).astype(np.int64)
            idx += 2 - half_taps
            a = np.sin(np.pi * np.minimum(frac, 1.0 - frac)) / (2.0 * np.pi)
            c = a * np.cos(np.pi * frac / half_taps)
            d = a * np.sin(np.pi * frac / half_taps)
            minus_a = -a
            acc = np.zeros(pos.size)
            w, tmp = np.empty((2, pos.size))
            for j, k in enumerate(taps):
                np.multiply(c, cos_n[j], out=w)
                w += a if sign[j] > 0 else minus_a
                np.multiply(d, sin_n[j], out=tmp)
                w += tmp
                np.subtract(frac, k, out=tmp)
                w /= tmp
                np.take(padded, idx, out=tmp, mode="clip")
                w *= tmp
                acc += w
                idx += 1
            on_grid = frac == 0.0
            acc[on_grid] = np.take(padded, idx[on_grid] - half_taps - 1, mode="clip")
            out[lo : lo + resample._CHUNK] = acc
    return out


def padded_table_resample_at(
    x: np.ndarray, positions: np.ndarray, half_taps: int = HALF_TAPS
) -> np.ndarray:
    """Reference: resample_at's arithmetic in one (positions x taps) table,
    gathered from a zero-padded copy of x."""
    taps = np.arange(-half_taps + 1, half_taps + 1)
    angle = np.pi * taps / half_taps
    basis = np.where(taps % 2 == 0, 1.0, -1.0) * np.stack(
        [np.ones(taps.size), np.cos(angle), np.sin(angle)]
    )
    base = np.floor(positions)
    frac = positions - base
    up = frac > 1.0 - 1e-15
    base[up] += 1.0
    frac[up | (frac < 1e-15)] = 0.0
    base = np.clip(base, -half_taps - 1, x.size + half_taps).astype(np.int64)
    pad = 2 * half_taps + 1
    padded = np.concatenate((np.zeros(pad), x, np.zeros(pad)))
    with np.errstate(invalid="ignore", divide="ignore"):
        table = padded[pad + base[:, None] + taps] / (frac[:, None] - taps)
        sums = np.einsum("ij,kj->ik", table, basis)
        a = np.sin(np.pi * np.minimum(frac, 1.0 - frac)) / (2.0 * np.pi)
        out = a * sums[:, 0]
        out += np.cos(np.pi * frac / half_taps) * a * sums[:, 1]
        out += np.sin(np.pi * frac / half_taps) * a * sums[:, 2]
    on_grid = frac == 0.0
    out[on_grid] = padded[pad + base[on_grid]]
    return out


def edge_cases(n, half_taps):
    """x and positions for the padded references: the first chunk stays
    clear of both ends, and the later chunks hold positions before 0, past
    the end and far outside, on the grid (0, n - 1, and outside) and
    -1e-20."""
    rng = np.random.default_rng(n + half_taps)
    x = rng.standard_normal(n)
    inner = np.empty(0)
    if n > 2 * half_taps + 1:
        inner = rng.uniform(half_taps, n - 1 - half_taps, resample._CHUNK)
    edges = np.array(
        [-0.5, -3.7, -half_taps - 0.25, -40.0, -3.0, -1e-20, 0.0, n - 1.0,
         n - 0.5, n + 2.0, n + 3.7, n + half_taps + 0.5, -1e9, 1e9, 1e300, -1e300]
    )
    spread = rng.uniform(-2.0 * half_taps, n + 2.0 * half_taps, resample._CHUNK)
    spread[:100] = np.round(spread[:100])
    return x, np.concatenate([inner, edges, spread])


@pytest.mark.parametrize("n", [0, 1, 5, 1000])
@pytest.mark.parametrize("half_taps", [1, 3, 32])
def test_matches_the_zero_padded_reference_bit_for_bit(n, half_taps):
    """The table's arithmetic on a zero-padded copy of x: the chunks that
    read x itself, and set the taps off it to +0.0 as the copy's zeros
    are, give the same bits; x has negative samples, which a zero mask
    multiplied in would turn into -0.0."""
    x, positions = edge_cases(n, half_taps)
    got = resample_at(x, positions, half_taps)
    assert got.tobytes() == padded_table_resample_at(x, positions, half_taps).tobytes()


@pytest.mark.parametrize("shuffled", [False, True], ids=["in_place", "gathered"])
@pytest.mark.parametrize("start", [True, False], ids=["start", "end"])
@pytest.mark.parametrize("offset", [-0.5, 0.5])
def test_a_chunk_that_just_reaches_an_end(shuffled, start, offset):
    """One chunk whose outermost tap reads x[0] or x[n - 1] (offset -0.5
    at the end, 0.5 at the start), or one sample past it, read in place or
    gathered."""
    n = 500
    x = np.random.default_rng(9).standard_normal(n) + 2.0
    first = HALF_TAPS - 1 + offset if start else n - HALF_TAPS - 99 + offset
    positions = first + np.arange(100.0)
    if shuffled:
        np.random.default_rng(10).shuffle(positions)
    got = resample_at(x, positions)
    assert got.tobytes() == padded_table_resample_at(x, positions).tobytes()


def assert_matches_padded(x, positions, half_taps, got):
    """got is within 1e-14 of the padded reference's peak, and exact where
    the reference reads a sample: on the grid (-1e-20 included) and where
    every tap lies off the signal."""
    ref = padded_resample_at(x, positions, half_taps)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    off = (positions < -half_taps) | (positions >= x.size - 1 + half_taps)
    exact = off | (positions == np.round(positions)) | (np.abs(positions) < 1e-15)
    assert np.array_equal(got[exact], ref[exact])
    assert np.all(got[off] == 0.0)


@pytest.mark.parametrize("n", [0, 1, 5, 1000])
@pytest.mark.parametrize("half_taps", [1, 3, 32])
def test_matches_the_zero_padded_reference(n, half_taps):
    """The tap-outer arithmetic sums in another order: within 1e-14 of the
    peak, and exact where it reads a sample."""
    x, positions = edge_cases(n, half_taps)
    assert_matches_padded(x, positions, half_taps, resample_at(x, positions, half_taps))


def test_resample_oversampled_holds_few_record_lengths(traced_peak):
    """A 2x upsampled copy (16 B/sample), the doubled positions and the
    output (8 B/sample each) and transients; a whole-record padded copy of
    the upsampled signal or an out-of-place scaling would add 16 B/sample."""
    n = 1_000_000
    x = np.random.default_rng(5).standard_normal(n)
    positions = np.arange(n) * (1.0 + 20e-6)
    _, peak = traced_peak(resample_oversampled, x, lambda: positions)
    assert peak / n <= 40.0


@pytest.mark.parametrize("half_taps", [1, 3, 32])
def test_matches_the_einsum_reference(half_taps):
    """Random, unordered positions over more than two chunks (not a whole
    number of them), inside, across both edges of and beyond the signal,
    with some of them on the grid."""
    rng = np.random.default_rng(half_taps)
    x = rng.standard_normal(1000)
    positions = rng.uniform(-100.0, 1100.0, 2 * resample._CHUNK + 321)
    positions[:200] = np.round(positions[:200])
    out = resample_at(x, positions, half_taps)
    assert out.shape == positions.shape
    ref = einsum_resample_at(x, positions, half_taps)
    assert np.max(np.abs(out - ref)) < 1e-12


def test_empty_positions():
    out = resample_at(np.ones(10), np.array([]))
    assert out.shape == (0,)
    assert einsum_resample_at(np.ones(10), np.array([])).shape == (0,)


def test_fraction_that_rounds_up_to_one_reads_the_next_sample():
    """-1e-20 - floor(-1e-20) is exactly 1.0 in float64."""
    x = np.arange(1.0, 11.0)
    positions = np.array([-1e-20])
    assert positions[0] - np.floor(positions[0]) == 1.0
    assert einsum_resample_at(x, positions)[0] == 1.0
    assert resample_at(x, positions)[0] == pytest.approx(x[0], abs=1e-12)


def test_integer_positions_are_read_back_exactly():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(500)
    positions = np.arange(500, dtype=np.float64)
    assert np.array_equal(resample_at(x, positions), x)


def test_positions_a_few_ulp_off_grid():
    """Near-integer positions must not lose accuracy to cancellation in the
    kernel (sin(pi f) with f just under 1 against a tiny nearest-tap
    distance)."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal(500)
    inner = np.arange(100, 400, dtype=np.float64)
    for eps in (3e-12, -3e-12):
        out = resample_at(x, inner + eps)
        assert np.max(np.abs(out - x[100:400])) < 1e-9


def test_bandlimited_sine_between_samples():
    """Mid-grid accuracy floor of the Hann-windowed kernel is a few 1e-6
    (the windowed sinc is not an exact partition of unity); that is orders
    of magnitude below anything the alignment pipeline resolves."""
    n = np.arange(4000)
    f = 0.05  # cycles per sample, deep inside the kernel's flat band
    x = np.sin(2.0 * np.pi * f * n)
    positions = np.linspace(200.0, 3800.0, 1111)
    out = resample_at(x, positions)
    truth = np.sin(2.0 * np.pi * f * positions)
    assert np.max(np.abs(out - truth)) < 1e-5


def test_constant_signal_between_samples():
    out = resample_at(np.ones(200), np.linspace(50.0, 150.0, 333))
    assert np.max(np.abs(out - 1.0)) < 1e-5


def test_positions_outside_the_signal_read_zero():
    x = np.ones(100)
    out = resample_at(x, np.array([-200.0, -150.5, 300.0, 1e6]))
    assert np.all(out == 0.0)


def test_resample_validation():
    with pytest.raises(ValueError):
        resample_at(np.ones((2, 2)), np.array([0.0]))
    with pytest.raises(ValueError):
        resample_at(np.ones(10), np.array([0.0]), half_taps=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_positions_are_refused(bad):
    """inf would read NaN and NaN would pass through, where every other
    position off the signal reads zero."""
    positions = np.array([3.5, bad, 1e300])
    with pytest.raises(ValueError, match="positions must be finite"):
        resample_at(np.arange(10.0), positions)
    with pytest.raises(ValueError, match="positions must be finite"):
        resample_oversampled(np.arange(10.0), lambda: positions)


def test_positions_that_double_past_the_float_range_are_refused():
    assert resample_at(np.arange(10.0), np.array([1e308]))[0] == 0.0
    with pytest.raises(ValueError, match="positions must be finite"):
        resample_oversampled(np.arange(10.0), lambda: np.array([-1e308]))


def drift_and_spread(half_taps, n=5000):
    """x and positions for the threaded tests: positions before 0, past the
    end and far outside, -1e-20 and on the grid, between a linear drift
    (rows read in place, stepping by 1 and now and then by 2, then twice
    as fast around one repeated position, then reversed) and random positions,
    first inside the signal, then across its ends."""
    rng = np.random.default_rng(40 + half_taps)
    x = rng.standard_normal(n)
    edges = np.array(
        [-0.5, -3.7, -half_taps - 0.25, -1e-20, 0.0, 7.0, n - 1.0, n - 0.5,
         n + 2.0, n + half_taps + 0.5, -1e9, 1e9, 1e300, -1e300]
    )
    drift = np.arange(-100, n + 100) * (1.0 + 2e-3)
    inner = rng.uniform(half_taps, n - 1 - half_taps, 1500)
    spread = rng.uniform(-2.0 * half_taps, n + 2.0 * half_taps, 3 * resample._THREAD_CHUNK)
    spread[::97] = np.round(spread[::97])
    positions = np.concatenate(
        [edges, drift, 2.0 * drift[: n // 4], np.full(50, 2500.25),
         2.0 * drift[n // 4 : n // 2], inner, spread, drift[::-1], edges]
    )
    return x, positions


@pytest.mark.parametrize("half_taps", [5, 32])
def test_threaded_slices_match_one_worker_bit_for_bit(monkeypatch, half_taps):
    """Three slices of several thread chunks each, in three threads that
    switch as often as they can; the first and the last slice hold the
    edge positions."""
    x, positions = drift_and_spread(half_taps)
    monkeypatch.setattr(resample, "_workers", lambda count: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = resample_at(x, positions, half_taps)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(resample, "_workers", lambda count: 1)
    serial = resample_at(x, positions, half_taps)
    assert threaded.tobytes() == serial.tobytes()
    assert_matches_padded(x, positions, half_taps, threaded)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1000, 1537, 4099])
def test_output_does_not_depend_on_workers_or_chunks(monkeypatch, workers, chunk):
    """Every position's table row, sums and output are row-local, so any
    split of the positions gives the same bits as the default one worker."""
    x, positions = drift_and_spread(32)
    serial = resample_at(x, positions)
    monkeypatch.setattr(resample, "_workers", lambda count: workers)
    monkeypatch.setattr(resample, "_CHUNK", chunk)
    monkeypatch.setattr(resample, "_THREAD_CHUNK", chunk)
    assert resample_at(x, positions).tobytes() == serial.tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_chunks_of_a_few_positions_match_long_ones(monkeypatch, chunk):
    """Tables of one to a few rows, of both the in-place and the gathered
    kind, sum as the rows of a long table do."""
    x, positions = drift_and_spread(32)
    positions = np.concatenate([positions[:40], positions[3000:3100]])
    serial = resample_at(x, positions)
    monkeypatch.setattr(resample, "_CHUNK", chunk)
    assert resample_at(x, positions).tobytes() == serial.tobytes()


def test_a_strided_signal_reads_as_its_copy():
    """The in-place rows step through x by its own stride."""
    x, positions = drift_and_spread(32)
    every_other = np.repeat(x, 2)[::2]
    assert resample_at(every_other, positions).tobytes() == resample_at(x, positions).tobytes()


@pytest.mark.parametrize("fails", [True, False], ids=["failing", "clean"])
def test_a_failing_slice_raises_once_every_worker_is_joined(monkeypatch, fails):
    """Every slice runs once, and the workers are gone when the call
    returns or raises; a failing slice raises its error, and with none the
    output is the one-worker output."""
    kernel = resample._resample_chunks
    positions = np.linspace(0.0, 99.0, 3 * resample._THREAD_CHUNK)
    one_worker = resample_at(np.ones(100), positions)
    lock = threading.Lock()
    calls = []

    def fail_on_the_second_slice(*args):
        with lock:
            calls.append(args)
            second = len(calls) == 2
        if fails and second:
            raise RuntimeError("slice failed")
        kernel(*args)

    monkeypatch.setattr(resample, "_workers", lambda count: 3)
    monkeypatch.setattr(resample, "_resample_chunks", fail_on_the_second_slice)
    running = threading.active_count()
    if fails:
        with pytest.raises(RuntimeError, match="slice failed"):
            resample_at(np.ones(100), positions)
    else:
        assert np.array_equal(resample_at(np.ones(100), positions), one_worker)
    assert len(calls) == 3
    assert threading.active_count() == running


def test_a_traced_oversampled_call_records_one_span_each():
    """The benchmark's tracer keeps one span stack for every thread, so the
    workers must not call the traced public functions."""
    import fvnlab.cli  # noqa: F401  (install wraps every module it lists)

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    n = 1_000_000
    x = np.random.default_rng(6).standard_normal(n)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        resample.resample_oversampled(x, lambda: np.arange(n) * (1.0 + 20e-6))
    finally:
        tracer.uninstall()
    names = sorted(span[0] for span in tracer.spans)
    assert names == ["resample.resample_at", "resample.upsample2"]
    assert dict(tracer.counts) == {(None, "resample.resample_at.positions"): n}


def test_upsample2_keeps_the_original_samples():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(512)
    y = upsample2(x)
    assert y.size == 1024
    assert np.array_equal(y[::2], x)


def test_upsample2_spectrum_stays_in_the_lower_half_band():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(512)
    y = upsample2(x)
    spec = np.abs(np.fft.rfft(y))
    assert np.max(spec[257:]) < 1e-12 * np.max(spec)


@pytest.mark.parametrize("n", [1155, 4928, 52920, 2_647_563])
def test_upsample2_matches_scipy_at_its_fast_complex_length(n):
    """1155, 4928 and 52920 are 11-smooth but not 5-smooth, so a 5-smooth
    transform length would change the result; 1155 is odd and has no
    Nyquist bin.  2 647 563, the long benchmark record, pads to 2 654 208."""
    x = np.random.default_rng(n).standard_normal(n)
    m = scipy.fft.next_fast_len(n)
    spectrum = scipy.fft.rfft(x, m)
    padded = np.zeros(m + 1, dtype=complex)
    padded[: spectrum.size] = spectrum
    if m % 2 == 0:
        padded[m // 2] *= 0.5
    expected = scipy.fft.irfft(padded, 2 * m) * 2.0
    got = upsample2(x)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_upsample2_frees_its_spectrum_before_the_output(traced_peak):
    """The odd samples (8 B/sample) and the 2n output (16 B/sample); the
    n / 2 + 1 bin spectrum (8 B/sample) alive beside them reads 32."""
    n = 1_000_000
    x = np.random.default_rng(7).standard_normal(n)
    _, peak = traced_peak(upsample2, x)
    assert peak / n <= 28.0


def test_upsample2_validation():
    with pytest.raises(ValueError):
        upsample2(np.array([1.0]))


@pytest.mark.parametrize("n_kernel", [1, 7, 1000, 1009, 4000])
def test_fftconvolve_matches_scipy(n_kernel):
    """Kernels shorter than, as long as and longer than the 1009-sample
    signal; 1009 and 1009 + 1009 - 1 = 2017 are primes, not 5-smooth."""
    rng = np.random.default_rng(n_kernel)
    x = rng.standard_normal(1009)
    kernel = rng.standard_normal(n_kernel)
    got = fftconvolve(x, kernel)
    expected = scipy.signal.fftconvolve(x, kernel)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


# 1564 taps: the long benchmark's room FIR, whose 16384-point blocks step
# by 14821 samples; 20 such steps and one sample leave a one-sample block
@pytest.mark.parametrize(
    "n, n_kernel", [(300_000, 1564), (300_000, 4096), (20 * 14821 + 1, 1564)]
)
def test_fftconvolve_in_blocks_matches_scipy(n, n_kernel):
    rng = np.random.default_rng(n + n_kernel)
    x = rng.standard_normal(n)
    kernel = rng.standard_normal(n_kernel)
    for a, b in ((x, kernel), (kernel, x)):
        got = fftconvolve(a, b)
        expected = scipy.signal.fftconvolve(a, b)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("n_kernel, blocked", [(9600, True), (9601, False)])
def test_fftconvolve_switches_to_blocks_below_a_quarter_of_the_one_shot_length(
    monkeypatch, n_kernel, blocked
):
    """On 300 000 samples, 9600 taps take 76 800-point blocks against a
    303 750-point product; 9601 taps would take 77 760 against 311 040,
    so they keep the one product and scipy's exact arithmetic."""
    blocks = []
    overlap_add = resample._overlap_add

    def spy(long, short, block):
        blocks.append(block)
        return overlap_add(long, short, block)

    monkeypatch.setattr(resample, "_overlap_add", spy)
    rng = np.random.default_rng(n_kernel)
    x = rng.standard_normal(300_000)
    kernel = rng.standard_normal(n_kernel)
    got = fftconvolve(x, kernel)
    expected = scipy.signal.fftconvolve(x, kernel)
    assert blocks == ([76_800] if blocked else [])
    if blocked:
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    else:
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("real", [True, False])
def test_fast_len_matches_scipy(real):
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    lengths = [*range(1, 3000), 52919, 1 << 20, (1 << 20) + 1, 5_292_001]
    got = [resample._fast_len(n, primes) for n in lengths]
    assert got == [scipy.fft.next_fast_len(n, real) for n in lengths]
