"""Band-limited evaluation of a sampled signal at fractional positions.

The interpolator is a Hann-windowed sinc with 32 taps on each side of the
requested position (64 taps total).  At integer positions the kernel
collapses to a unit impulse, so on-grid evaluation is exact.  Taps and
positions outside the signal read zeros; the signal itself is read, with no
zero-padded copy.  Evaluation is blocked: cache-sized chunks of positions,
with the taps in the inner loop over one-chunk vectors.
resample_oversampled evaluates through a 2x upsampled copy, the one
record-length buffer it adds besides the output.  The FFT helpers upsample2
and fftconvolve use numpy.fft, the package's one FFT library, and scale and
multiply their spectra in place.
"""

from __future__ import annotations

import numpy as np

HALF_TAPS = 32
_CHUNK = 1 << 13


def resample_at(
    x: np.ndarray, positions: np.ndarray, half_taps: int = HALF_TAPS
) -> np.ndarray:
    """Evaluate x at (possibly fractional) sample positions.

    Position b + f (b = floor) reads sum_k x[b + k] w_k over the taps
    k = 1 - H .. H (H = half_taps).  sinc(f - k) = (-1)^k sin(pi f) /
    (pi (f - k)) and the Hann factor's cosine expands by the addition
    theorem, so w_k = (-1)^k (a + c cos(pi k / H) + d sin(pi k / H)) / (f - k)
    with a = sin(pi f) / 2 pi, c = a cos(pi f / H) and d = a sin(pi f / H)
    per position.  Each chunk of _CHUNK positions loops over the taps on
    vectors that stay in cache.  The gather reads x itself with clamped
    indices; only in a chunk whose taps reach past either end of x are the
    taps off the signal then set to zero, which gives the same sums as a
    zero-padded x.  Positions within 1e-15 of the grid, where w_k is 0 / 0,
    read the sample, or zero off the signal.
    """
    x = np.asarray(x, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    if x.ndim != 1 or positions.ndim != 1:
        raise ValueError("x and positions must be 1-D")
    if half_taps < 1:
        raise ValueError("half_taps must be >= 1")
    if x.size == 0:  # np.take refuses an empty source; every tap reads zero
        return np.zeros(positions.size)
    taps = np.arange(-half_taps + 1, half_taps + 1)
    sign = np.where(taps % 2 == 0, 1.0, -1.0)
    cos_n = sign * np.cos(np.pi * taps / half_taps)
    sin_n = sign * np.sin(np.pi * taps / half_taps)
    out = np.empty(positions.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        for lo in range(0, positions.size, _CHUNK):
            pos = positions[lo : lo + _CHUNK]
            base = np.floor(pos)
            frac = pos - base
            # Snap near-grid positions to frac 0; pos - floor(pos) even rounds
            # to exactly 1.0 for pos = -1e-20, which is the next sample.
            up = frac > 1.0 - 1e-15
            base[up] += 1.0
            frac[up | (frac < 1e-15)] = 0.0
            # x index of tap 1 - H; clipping keeps the int64 cast defined
            idx = np.clip(base, -half_taps - 1, x.size + half_taps).astype(np.int64)
            idx += 1 - half_taps
            edge = idx.min() < 0 or idx.max() + 2 * half_taps > x.size
            # sin(pi f) by reflection about 1/2: for f just under 1 the direct
            # pi * f cancels against pi, and the division by the nearest tap's
            # tiny f - k would blow that rounding error up by 1 / |f - k|.
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
                np.take(x, idx, out=tmp, mode="clip")
                if edge:
                    tmp[(idx < 0) | (idx >= x.size)] = 0.0
                w *= tmp
                acc += w
                idx += 1
            on_grid = frac == 0.0  # acc is NaN there
            idx = idx[on_grid] - half_taps - 1  # x index of tap 0
            sample = np.take(x, idx, mode="clip")
            if edge:
                sample[(idx < 0) | (idx >= x.size)] = 0.0
            acc[on_grid] = sample
            out[lo : lo + _CHUNK] = acc
    return out


def upsample2(x: np.ndarray) -> np.ndarray:
    """Upsample by exactly 2 via Fourier zero-padding.

    Returns a signal of twice the (fast-length-padded) size whose even
    samples reproduce x and whose spectrum is confined to the lower half
    band.  The inverse transform zero-pads the half spectrum itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x must be a 1-D array with at least 2 samples")
    n = _fast_len(x.size, (2, 3, 5, 7, 11))
    spectrum = np.fft.rfft(x, n)
    if n % 2 == 0:
        spectrum[n // 2] *= 0.5  # split the Nyquist bin between +-fs/2
    out = np.fft.irfft(spectrum, 2 * n)
    out *= 2.0
    return out


def resample_oversampled(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Evaluate x at (possibly fractional) positions via upsample2(x).

    The upsampled copy has its spectrum in the lower half band, where the
    windowed-sinc kernel is flat.  Signals with energy up to the Nyquist
    frequency, as measurement signals have, so keep their level; evaluated
    on x directly, the kernel's rolloff shaves about a percent off
    compressed peaks.
    """
    return resample_at(upsample2(x), 2.0 * positions)


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two non-empty real 1-D arrays via one FFT
    product at the next 5-smooth length.

    This is the arithmetic of scipy.signal.fftconvolve in mode "full" on
    real inputs, so the results are identical, without importing
    scipy.signal; like it, a length-1 input is a plain product.
    """
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    m = _fast_len(n, (2, 3, 5))
    spectrum = np.fft.rfft(a, m)
    spectrum *= np.fft.rfft(b, m)
    return np.fft.irfft(spectrum, m)[:n]


def _fast_len(n: int, primes: tuple[int, ...]) -> int:
    """The smallest m >= n with no prime factor outside primes: scipy.fft's
    next_fast_len(n, real) for primes (2, 3, 5) if real else (2, 3, 5, 7, 11)."""
    power_of_two = 1 << (n - 1).bit_length()  # the answer for primes (2,)
    odd = [1]  # every product of the odd primes below that, each doubled up to n
    for p in primes[1:]:
        for q in list(odd):
            while (q := q * p) < power_of_two:
                odd.append(q)
    return min(q << (-(-n // q) - 1).bit_length() for q in odd)

