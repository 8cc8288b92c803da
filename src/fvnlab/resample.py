"""Band-limited evaluation of a sampled signal at fractional positions.

The interpolator is a Hann-windowed sinc with 32 taps on each side of the
requested position (64 taps total).  At integer positions the kernel
collapses to a unit impulse, so on-grid evaluation is exact.  Taps and
positions outside the signal read zeros; the signal itself is read, with no
zero-padded copy.  Evaluation is blocked: each chunk of positions is one
(positions x taps) table of tap distances, which the taps divide in one
pass and a constant three-row tap basis sums in one product (Smith &
Gossett's windowed-sinc evaluation, with the weights' division hoisted
out of the per-tap arithmetic).

A long call splits its positions into one contiguous slice per available
CPU (at most one per _MIN_SLICE positions, _MAX_WORKERS in all) and runs
the slices at once on a concurrent.futures thread pool; numpy releases the
GIL inside each vector operation.  One worker runs in the calling thread,
with no pool.  Every step of a position is local to its table row: the one
BLAS product, which builds the distances, is exact, and the sums run in
numpy's einsum, because OpenBLAS's sum for a row depends on the row's
offset within the call.  So the output does not depend on the CPU count or
the chunk length.  Threads work in _THREAD_CHUNK chunks: with shorter ones
their vector operations are too brief, and the threads spend their time
handing the GIL back and forth.  One worker keeps the shorter _CHUNK, whose
table is smaller.  The calling thread allocates every worker's scratch, and
the workers allocate nothing of a chunk's length: glibc keeps what a thread
allocates in that thread's own arena, which raises the process's peak
memory.  resample_oversampled evaluates through a 2x upsampled copy, the
one record-length buffer it adds besides the output, and doubles the
positions chunk by chunk.  It asks the caller for the positions only once
the transforms have run, so no positions array is alive during them.

The FFT helpers upsample2 and fftconvolve use numpy.fft, the package's one
FFT library, and scale and multiply their spectra in place.  Neither runs
a transform longer than its output needs.  upsample2 transforms back only
the odd samples, at the record's own length; its even samples are copies
of x.  fftconvolve convolves a long record with a short kernel in
overlap-add blocks and everything else in one product, scipy's exact
arithmetic.  upsample2 and the blocks differ from the whole-record
transforms they replace by rounding alone, under 1e-15 of the peak.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

HALF_TAPS = 32
_CHUNK = 1 << 10  # positions per chunk with one worker
_THREAD_CHUNK = 1 << 12  # positions per chunk with several
_MIN_SLICE = 1 << 18  # keeps the scratch under 15 B per position
_MAX_RUNS = 32  # a chunk whose index step changes this often gathers
_MAX_WORKERS = 8
_BLOCK = 1 << 14  # shortest overlap-add transform
_BLOCK_TAPS = 8  # kernels per overlap-add transform, at least
_BLOCK_GAIN = 4  # overlap-add only below a quarter of the one-shot length


def resample_at(
    x: np.ndarray, positions: np.ndarray, half_taps: int = HALF_TAPS, *, _scale=1.0
) -> np.ndarray:
    """Evaluate x at (possibly fractional) sample positions.

    Position b + f (b = floor) reads sum_k x[b + k] w_k over the taps
    k = 1 - H .. H (H = half_taps).  sinc(f - k) = (-1)^k sin(pi f) /
    (pi (f - k)) and the Hann factor's cosine expands by the addition
    theorem, so w_k = s_k (a + c cos(pi k / H) + d sin(pi k / H)) / (f - k)
    with s_k = (-1)^k, a = sin(pi f) / 2 pi, c = a cos(pi f / H) and
    d = a sin(pi f / H) per position.  The output is therefore
    a S0 + c S1 + d S2, where S = U B, U[i, k] = x[b_i + k] / (f_i - k) and
    B is the 3 x 2H basis [s_k, s_k cos(pi k / H), s_k sin(pi k / H)].
    A chunk's table U reads x in place, one strided view per run of rows
    whose b steps by a constant, as a smooth warp's do; a chunk with many
    step changes, or with taps past either end of x, gathers x one tap
    column at a time instead, with the taps off the signal set to zero,
    which gives the same sums as a zero-padded x.  Positions within 1e-15
    of the grid, where w_k is 0 / 0, read the sample, or zero off the
    signal.  Positions must be finite.  resample_oversampled reads each
    position times _scale.
    """
    x = np.asarray(x, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    if x.ndim != 1 or positions.ndim != 1:
        raise ValueError("x and positions must be 1-D")
    if half_taps < 1:
        raise ValueError("half_taps must be >= 1")
    if positions.size == 0:
        return np.empty(0)
    # NaN propagates through min and max; scaling may overflow to inf
    if not np.isfinite(_scale * float(max(-positions.min(), positions.max()))):
        raise ValueError("positions must be finite")
    if x.size == 0:  # np.take refuses an empty source; every tap reads zero
        return np.zeros(positions.size)
    out = np.empty(positions.size)
    workers = _workers(positions.size)
    chunk = min(_CHUNK if workers == 1 else _THREAD_CHUNK, -(-positions.size // workers))
    # per worker: [frac, 1], the position x tap table, its three sums, then
    # a, c, d, tmp, the tap indices, their steps and two masks
    pairs = np.empty((workers, 2, chunk))
    pairs[:, 1] = 1.0
    tables = np.empty((workers, chunk, 2 * half_taps))
    sums = np.empty((workers, chunk, 3))
    floats = np.empty((workers, 4, chunk))
    ints = np.empty((workers, 2, chunk), dtype=np.int64)
    masks = np.empty((workers, 2, chunk), dtype=bool)
    bounds = [i * positions.size // workers for i in range(workers + 1)]
    scratch = zip(pairs, tables, sums, floats, ints, masks)
    slices = [
        (x, positions[lo:hi], _scale, out[lo:hi], half_taps, (p, t, s, *f, *i, *m))
        for lo, hi, (p, t, s, f, i, m) in zip(bounds, bounds[1:], scratch)
    ]
    if workers == 1:
        _resample_chunks(*slices[0])
        return out
    from concurrent.futures import ThreadPoolExecutor  # only long calls load it

    with ThreadPoolExecutor(workers) as pool:  # leaving it joins every worker
        # submit, not map: map cancels the slices not yet started if one fails
        futures = [pool.submit(_resample_chunks, *args) for args in slices]
        for future in futures:
            future.result()
    return out


def _workers(count: int) -> int:
    """Threads for count positions: one per available CPU, at most one per
    _MIN_SLICE positions and _MAX_WORKERS in all."""
    most = min(count // _MIN_SLICE, _MAX_WORKERS)
    if most < 2:
        return 1
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return min(most, len(cpus) if cpus else os.cpu_count() or 1)


def _resample_chunks(x, positions, scale, out, half_taps, scratch) -> None:
    """resample_at's arithmetic for one slice: out[i] is x at positions[i]
    times scale, chunk by chunk in the scratch buffers' length, allocating
    no array of that length."""
    taps = np.arange(-half_taps + 1, half_taps + 1)
    # [f, 1] @ lag is f * 1 + 1 * -k: both products are exact, so each entry
    # is f - k rounded once, whatever order BLAS sums in
    lag = np.stack([np.ones(taps.size), -taps])
    angle = np.pi * taps / half_taps
    basis = np.where(taps % 2 == 0, 1.0, -1.0) * np.stack(
        [np.ones(taps.size), np.cos(angle), np.sin(angle)]
    )
    pair, table, sums, *vectors = scratch
    stride = x.strides[0]
    # errstate is per thread, and a new thread starts with numpy's default
    with np.errstate(invalid="ignore", divide="ignore"):
        for lo in range(0, positions.size, pair.shape[1]):
            acc = out[lo : lo + pair.shape[1]]
            m = acc.size
            a, c, d, tmp, first, steps, off, mask = (v[:m] for v in vectors)
            frac, rows = pair[0, :m], table[:m]
            np.multiply(positions[lo : lo + m], scale, out=frac)
            base = np.floor(frac, out=a)
            frac -= base
            # Snap near-grid positions to frac 0; pos - floor(pos) even rounds
            # to exactly 1.0 for pos = -1e-20, which is the next sample.
            up = np.greater(frac, 1.0 - 1e-15, out=off)
            np.add(base, 1.0, out=base, where=up)
            up |= np.less(frac, 1e-15, out=mask)
            np.copyto(frac, 0.0, where=up)
            # x index of tap 1 - H; clipping keeps the int64 cast defined
            np.clip(base, -half_taps - 1, x.size + half_taps, out=base)
            np.copyto(first, base, casting="unsafe")
            first += 1 - half_taps
            edge = first.min() < 0 or first.max() + taps.size > x.size
            np.matmul(pair[:, :m].T, lag, out=rows)  # rows[i, k] = f_i - k
            runs = None if edge else _runs(first, steps, mask)
            if runs is None:  # taps off the signal, or irregular positions
                for j in range(taps.size):
                    _gather(x, first, edge, tmp, off)
                    np.divide(tmp, rows[:, j], out=rows[:, j])
                    first += 1
                first -= taps.size
            for p, q in runs or ():  # rows of x at a constant step, in place
                step = first[p + 1] - first[p] if q - p > 1 else 0
                view = as_strided(
                    x[first[p] :], (q - p, taps.size), (step * stride, stride),
                    writeable=False,
                )
                np.divide(view, rows[p:q], out=rows[p:q])
            # row-local, unlike BLAS, whose sums depend on a row's offset
            np.einsum("ij,kj->ik", rows, basis, out=sums[:m])
            # sin(pi f) by reflection about 1/2: for f just under 1 the direct
            # pi * f cancels against pi, and the division by the nearest tap's
            # tiny f - k would blow that rounding error up by 1 / |f - k|.
            np.subtract(1.0, frac, out=a)
            np.minimum(frac, a, out=a)
            a *= np.pi
            np.sin(a, out=a)
            a /= 2.0 * np.pi
            np.multiply(a, sums[:m, 0], out=acc)
            for trig, into, column in ((np.cos, c, 1), (np.sin, d, 2)):
                np.multiply(frac, np.pi, out=into)
                into /= half_taps
                trig(into, out=into)
                into *= a
                into *= sums[:m, column]
                acc += into
            on_grid = np.equal(frac, 0.0, out=mask)  # acc is NaN there
            if on_grid.any():
                first += half_taps - 1  # x index of tap 0
                _gather(x, first, edge, tmp, off)
                np.copyto(acc, tmp, where=on_grid)


def _runs(first, steps, mask) -> list[tuple[int, int]] | None:
    """Row ranges [p, q) over each of which first steps by a constant, or
    None when the step changes _MAX_RUNS times or more; steps and mask are
    scratch."""
    np.subtract(first[1:], first[:-1], out=steps[:-1])
    change = np.not_equal(steps[1:-1], steps[:-2], out=mask[:-2])
    if np.count_nonzero(change) >= _MAX_RUNS:
        return None
    # a change between the steps into rows j + 1 and j + 2 starts a range at j + 2
    bounds = [0, *(np.flatnonzero(change) + 2).tolist(), first.size]
    return list(zip(bounds, bounds[1:]))


def _gather(x, idx, edge, into, off) -> None:
    """into = x[idx], zero where idx is off x; off is scratch."""
    np.take(x, idx, out=into, mode="clip")
    if edge:
        np.copyto(into, 0.0, where=np.less(idx, 0, out=off))
        np.copyto(into, 0.0, where=np.greater_equal(idx, x.size, out=off))


def upsample2(x: np.ndarray) -> np.ndarray:
    """Upsample by exactly 2 via Fourier zero-padding.

    Returns a signal of twice the (fast-length-padded) size n whose even
    samples are x itself, zeros past it, and whose spectrum is confined to
    the lower half band.  Only the n odd samples take a transform: they are
    x's n-point spectrum advanced by half a sample, exp(i pi k / n) at bin
    k, and transformed back at length n.  That is a 2n-point inverse of
    the zero-padded spectrum up to rounding, under 1e-15 of the peak, with
    no 2n-point spectrum held.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x must be a 1-D array with at least 2 samples")
    n = _fast_len(x.size, (2, 3, 5, 7, 11))
    spectrum = np.fft.rfft(x, n)
    if n % 2 == 0:  # split between +-fs/2, the Nyquist bin cancels at odd samples
        spectrum[n // 2] = 0.0
    # exp(i pi k / n) at k = r j + i, over the spectrum viewed as rows j of
    # r bins i: exp(i pi i / n) along every row, exp(i pi r j / n) down the
    # columns; one record-length np.exp would cost more than the product
    r = math.isqrt(spectrum.size - 1) + 1
    rows, tail = divmod(spectrum.size, r)
    fine = np.exp(np.pi / n * 1j * np.arange(r))
    coarse = np.exp(np.pi * r / n * 1j * np.arange(rows + 1))
    view = spectrum[: rows * r].reshape(rows, r)
    view *= fine
    view *= coarse[:rows, None]
    spectrum[rows * r :] *= coarse[rows] * fine[:tail]
    odd = np.fft.irfft(spectrum, n)
    del view, spectrum  # the view holds the buffer too; both go before the output
    out = np.empty(2 * n)
    out[1::2] = odd
    out[0 : 2 * x.size : 2] = x
    out[2 * x.size :: 2] = 0.0
    return out


def resample_oversampled(
    x: np.ndarray, positions: Callable[[], np.ndarray]
) -> np.ndarray:
    """Evaluate x at (possibly fractional) positions via upsample2(x).

    positions is a function of no arguments that returns the positions.
    It is called once upsample2 has returned, so a record-length positions
    array built there is not alive while the transforms run.

    The upsampled copy has its spectrum in the lower half band, where the
    windowed-sinc kernel is flat.  Signals with energy up to the Nyquist
    frequency, as measurement signals have, so keep their level; evaluated
    on x directly, the kernel's rolloff shaves about a percent off
    compressed peaks.
    """
    upsampled = upsample2(x)
    return resample_at(upsampled, positions(), _scale=2.0)


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two non-empty real 1-D arrays.

    Where the shorter input fits _BLOCK_TAPS times into a 5-smooth block
    of at least _BLOCK samples, and the one FFT product at the next
    5-smooth length of the output would be more than _BLOCK_GAIN blocks
    long, the longer input is convolved in overlap-add blocks (Stockham
    1966): a long record with a short FIR.  That sums the same products in
    another order, under 1e-15 of the peak.  Every other call takes the
    one product, the arithmetic of scipy.signal.fftconvolve in mode "full"
    on real inputs, so the results are identical, without importing
    scipy.signal; like it, a length-1 input is a plain product.
    """
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    m = _fast_len(n, (2, 3, 5))
    short, long = (a, b) if a.size <= b.size else (b, a)
    block = _fast_len(max(_BLOCK, _BLOCK_TAPS * short.size), (2, 3, 5))
    if _BLOCK_GAIN * block < m:
        return _overlap_add(long, short, block)
    spectrum = np.fft.rfft(a, m)
    spectrum *= np.fft.rfft(b, m)
    return np.fft.irfft(spectrum, m)[:n]


def _overlap_add(long: np.ndarray, short: np.ndarray, block: int) -> np.ndarray:
    """The full convolution of long with short, one block-point FFT product
    per block - short.size + 1 samples of long, each added into the output
    where its block starts."""
    n = long.size + short.size - 1
    step = block - short.size + 1
    kernel = np.fft.rfft(short, block)
    out = np.zeros(n)
    for lo in range(0, long.size, step):
        spectrum = np.fft.rfft(long[lo : lo + step], block)
        spectrum *= kernel
        out[lo : lo + block] += np.fft.irfft(spectrum, block)[: n - lo]
    return out


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

