"""Frequency-domain velvet noise (FVN): phase construction and synthesis.

A unit FVN is the impulse response of an all-pass filter whose phase is a
superposition of compact six-term cosine bumps with random signs, centered
at velvet-noise-distributed frequencies.  Because the magnitude response is
exactly one, convolving a unit FVN with its time reversal restores a unit
impulse; that property is what makes FVNs usable as measurement stimuli.

Conventions used throughout:
  * DFT buffers are circular; the envelope of a unit FVN peaks at sample 0
    and its leading tail wraps to the end of the buffer.  center_pulse
    unwraps that buffer into the compact form used when the signal is
    actually emitted through a linear processing chain.
  * Phase spectra are odd-symmetric (phase[0] = phase[K/2] = 0 and
    phase[K - k] = -phase[k] exactly) so the synthesized waveform is real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import SampledSignal

# Coefficients of the six-term cosine series used for every localized bump
# (phase units in frequency, probe envelopes in time).  They sum to exactly 1
# and their alternating sum is exactly 0, so a bump is 1 at its center and
# reaches 0 at the edge of its support.
SIX_TERM_COEFFS = np.array(
    [
        0.2624710164,
        0.4265335164,
        0.2250165621,
        0.0726831633,
        0.0125124215,
        0.0007833203,
    ]
)


@dataclass(frozen=True)
class FvnSpec:
    """Design parameters of a unit FVN.

    Defaults follow the standard design rules: f_d = 1 / (5 sigma_t),
    b_w = 2 f_d, phi_max = pi / 4, and dft_size_k the smallest power of two
    whose duration covers 10 sigma_t.  Any field can be overridden.

    b_w is a nominal bandwidth: one half-period of the highest-order cosine
    in the six-term bump.  The full support of a bump is five times wider
    (the series runs up to order five), so each phase unit spans +-5 b_w in
    frequency.
    """

    sigma_t: float
    fs: float = 44100.0
    f_d: float | None = None
    b_w: float | None = None
    phi_max: float = np.pi / 4
    dft_size_k: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.sigma_t > 0:
            raise ValueError(f"sigma_t must be positive, got {self.sigma_t}")
        if not self.fs > 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        if self.f_d is None:
            object.__setattr__(self, "f_d", 1.0 / (5.0 * self.sigma_t))
        if self.b_w is None:
            object.__setattr__(self, "b_w", 2.0 * self.f_d)
        if self.dft_size_k is None:
            span = 10.0 * self.sigma_t * self.fs
            if not 1.0 < span < np.inf:  # an even power of two must cover it
                raise ValueError(
                    f"sigma_t {self.sigma_t} s at fs {self.fs} Hz spans {span} "
                    "samples (10 sigma_t fs); need a finite span above 1 sample"
                )
            k = 1 << int(np.ceil(np.log2(span)))
            object.__setattr__(self, "dft_size_k", k)
        if not self.f_d > 0:
            raise ValueError(f"f_d must be positive, got {self.f_d}")
        if not self.b_w > 0:
            raise ValueError(f"b_w must be positive, got {self.b_w}")
        if not 0 < self.phi_max <= np.pi:
            raise ValueError(f"phi_max must lie in (0, pi], got {self.phi_max}")
        if self.dft_size_k % 2 != 0:
            raise ValueError("dft_size_k must be even")
        if self.dft_size_k / self.fs < 10.0 * self.sigma_t:
            raise ValueError(
                "dft_size_k too small: buffer must cover 10 sigma_t "
                f"({self.dft_size_k} / {self.fs} < {10 * self.sigma_t})"
            )


def phase_unit(offset, half_width: float):
    """Six-term cosine bump evaluated `offset` bins away from its center.

    Even in offset, exactly 1 at the center, and 0 at and beyond
    +-half_width.  Accepts scalars or arrays of offsets.
    """
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    offset = np.asarray(offset, dtype=np.float64)
    inside = np.abs(offset) <= half_width
    x = np.where(inside, offset, 0.0).reshape(-1)
    w = _bumps(np.ones_like(x), -x, np.zeros(1), half_width).reshape(offset.shape)
    out = np.where(inside, w, 0.0)
    return out if out.ndim else float(out)


def _bumps(amplitudes, d, j, half_width: float) -> np.ndarray:
    """amplitudes[:, None] times the unmasked bump at offsets j - d[:, None]."""
    omega = np.arange(SIX_TERM_COEFFS.size) * (np.pi / half_width)
    dw, jw = d[:, None] * omega, omega[:, None] * j
    a = amplitudes[:, None] * SIX_TERM_COEFFS
    return (a * np.cos(dw)) @ np.cos(jw) + (a * np.sin(dw)) @ np.sin(jw)


def _accumulate_phase(
    dft_size: int, centers: np.ndarray, signs: np.ndarray, half_width: float
) -> np.ndarray:
    """Sum signed phase-unit bumps and their odd-symmetric mirrors.

    Each center c adds s * w(k - c) to q on the circular bin axis; its
    mirror at -c adds -s * w(k + c) = -s * w(-k - c), q read at -k, so the
    phase q[k] - q[-k mod K] is exactly odd.  Bin first + j lies j - d
    from c, d = c - first, and with w_m = m pi / half_width, cos(w_m (j -
    d)) = cos(w_m d) cos(w_m j) + sin(w_m d) sin(w_m j): all bumps' weights
    are two (bumps x 6) @ (6 x span) products, zeroed beyond half_width.
    As half_width - 1 < d <= half_width up to rounding, only the first
    column and the last two can lie beyond it.
    """
    if 2.0 * half_width >= dft_size:
        raise ValueError("phase-unit support exceeds the DFT grid")
    j = np.arange(int(np.floor(2.0 * half_width)) + 2)
    first = np.ceil(centers - half_width).astype(np.int64)
    d = centers - first
    weights = _bumps(signs, d, j, half_width)
    edge = [0, -2, -1]
    beyond = np.abs(j[edge] - d[:, None]) > half_width
    weights[:, edge] = np.where(beyond, 0.0, weights[:, edge])
    bins = (first[:, None] + j) % dft_size
    q = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=dft_size)
    return q - np.roll(q[::-1], 1)


def fvn_phase(spec: FvnSpec) -> np.ndarray:
    """Build the random all-pass phase of a unit FVN.

    Bump centers follow the velvet-noise rule m * f_d + r1 * (f_d - 1) on
    the bin axis (kept real-valued, not rounded), spanning DC to Nyquist;
    each carries a random sign times phi_max.  f_d must map to at least one
    DFT bin, otherwise the jitter term turns negative.  The result is the
    phase on the full dft_size_k-bin grid, odd-symmetric by construction.
    """
    k = spec.dft_size_k
    fd_bins = spec.f_d * k / spec.fs
    if fd_bins < 1.0:
        raise ValueError(
            f"f_d corresponds to {fd_bins:.3f} bins; need at least 1 "
            "(increase f_d or dft_size_k)"
        )
    # Support half-width of one bump: the nominal bandwidth b_w times the
    # highest cosine order (see FvnSpec).
    support_bins = (SIX_TERM_COEFFS.size - 1) * spec.b_w * k / spec.fs
    n_candidates = int(np.floor((k / 2) / fd_bins)) + 1
    rng = np.random.default_rng(spec.seed)
    r1 = rng.random(n_candidates)
    r2 = rng.random(n_candidates)
    centers = np.arange(n_candidates) * fd_bins + r1 * (fd_bins - 1.0)
    signs = np.where(r2 >= 0.5, spec.phi_max, -spec.phi_max)
    keep = centers <= k / 2
    return _accumulate_phase(k, centers[keep], signs[keep], support_bins)


def synthesize_unit_fvn(spec: FvnSpec) -> SampledSignal:
    """Synthesize a unit FVN as the inverse DFT of exp(j * phase).

    The result has unit energy (Parseval: every DFT bin has magnitude one)
    and its envelope is concentrated around sample 0 of the circular buffer.
    A non-negligible imaginary residue would mean the phase lost its odd
    symmetry, which is treated as a bug rather than rounded away.
    """
    h = np.fft.ifft(np.exp(1j * fvn_phase(spec)))
    peak = np.max(np.abs(h.real))
    if np.max(np.abs(h.imag)) > 1e-10 * peak:
        raise ValueError("imaginary residue too large; phase symmetry broken")
    return SampledSignal(h.real, spec.fs)


def center_pulse(unit: SampledSignal) -> SampledSignal:
    """Unwrap a circular unit-FVN buffer into a compact linear pulse.

    The synthesis buffer splits the envelope at its peak: the trailing half
    sits at the start and the leading half wraps to the end.  Rolling by
    half the buffer puts the peak in the middle, where the envelope decays
    to numerical zero well before either edge, so the rolled buffer behaves
    as an ordinary finite pulse under linear convolution.  Matched filtering
    a recording against the same rolled pulse puts the compression peak at
    the sample where the pulse buffer started.
    """
    samples = unit.samples
    return SampledSignal(np.roll(samples, samples.size // 2), unit.fs)
