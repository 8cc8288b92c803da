"""Built-in acceptance suite: ten numbered criteria, one verdict line each.

Every criterion is self-contained and deterministic, so a fresh install can
be checked with `fvnlab selftest` (or programmatically via run_all).  The
thresholds are frozen from oracle runs; where a criterion states a runtime
budget, the elapsed time is part of the verdict.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from . import fvn
from .align import apply_warp, block_lags, track_block_delays
from .codes import build_code_matrix, verify_orthogonality
from .fvn import FvnSpec, center_pulse, synthesize_unit_fvn
from .measure import demultiplex, separate_nonlinear
from .sequence import (
    assemble_sequence,
    coded_channels,
    design_slope_filter,
    inverse_shape,
    multiplex,
    shape_spectrum,
)
from .signal import SampledSignal
from .sim import DriftSpec, NoiseSpec, SimTarget, simulate
from .spectrum import PowerSpectrum, third_octave_smooth

FS = 44100.0


def criterion_all_pass() -> tuple[bool, str]:
    """Unit FVNs are all-pass and self-compress to a clean impulse."""
    start = time.perf_counter()
    worst_mag = 0.0
    worst_off = 0.0
    for sigma_t in (0.010, 0.100):
        for seed in range(20):
            unit = synthesize_unit_fvn(FvnSpec(sigma_t=sigma_t, fs=FS, seed=seed))
            spec = np.fft.fft(unit.samples)
            worst_mag = max(worst_mag, float(np.max(np.abs(np.abs(spec) - 1.0))))
            circ = np.fft.ifft(spec * np.conj(spec)).real
            worst_off = max(worst_off, float(np.max(np.abs(circ[1:]))))
    elapsed = time.perf_counter() - start
    ok = worst_mag < 1e-9 and worst_off < 1e-8 and elapsed < 10.0
    return ok, (
        f"DFT magnitude error {worst_mag:.2e} (< 1e-9), "
        f"off-peak {worst_off:.2e} (< 1e-8), {elapsed:.1f} s (< 10)"
    )


def criterion_window_quality() -> tuple[bool, str]:
    """Six-term window: sidelobes below -113 dB, rolloff near -54 dB/oct.

    The window is fvn.phase_unit, sampled densely over its support and
    zero-padded 64x.
    The rolloff is fitted to the sidelobe peaks over 4..16 cycles per unit
    offset: the last two octaves before the spectrum sinks under the
    double-precision floor (beyond that band only rounding noise remains).
    """
    start = time.perf_counter()
    n = 4096
    u = np.linspace(-1.0, 1.0, n, endpoint=False)
    w = fvn.phase_unit(u, 1.0)  # the bump every FVN phase is built from
    spec = np.abs(np.fft.rfft(w, 64 * n))
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(spec / spec[0])
    f = np.arange(db.size) / 128.0

    i = 1
    while i < db.size - 1 and db[i + 1] < db[i]:
        i += 1
    sidelobe = float(db[i:].max())

    band = (f >= 4.0) & (f <= 16.0)
    seg = db[band]
    peaks = np.nonzero((seg[1:-1] > seg[:-2]) & (seg[1:-1] > seg[2:]))[0] + 1
    slope = float(np.polyfit(np.log2(f[band][peaks]), seg[peaks], 1)[0])
    elapsed = time.perf_counter() - start
    ok = sidelobe <= -113.0 and -60.0 <= slope <= -48.0 and elapsed < 5.0
    return ok, (
        f"highest sidelobe {sidelobe:.2f} dB (<= -113), "
        f"rolloff {slope:.1f} dB/oct (in -54 +- 6), {elapsed:.1f} s (< 5)"
    )


def criterion_coefficients() -> tuple[bool, str]:
    """Window coefficients sum to 1; alternating sum vanishes."""
    coeffs = np.asarray(fvn.SIX_TERM_COEFFS, dtype=np.float64)
    total = abs(float(coeffs.sum()) - 1.0)
    alternating = abs(float((coeffs * (-1.0) ** np.arange(coeffs.size)).sum()))
    ok = total < 1e-10 and alternating < 1e-10
    return ok, (
        f"sum error {total:.1e}, alternating sum {alternating:.1e} (both < 1e-10)"
    )


def criterion_orthogonality() -> tuple[bool, str]:
    """Code matrices satisfy B B^T = N I exactly for 1..8 rows."""
    for k_codes in range(1, 9):
        codes = build_code_matrix(k_codes)
        if not verify_orthogonality(codes):
            return False, f"gram defect at k_codes={k_codes}"
    return True, "B B^T = N I exact (integer) for k_codes 1..8"


def criterion_demultiplex() -> tuple[bool, str]:
    """Two multiplexed channels through two FIR paths separate cleanly."""
    start = time.perf_counter()
    codes = build_code_matrix(2)
    units, seqs = coded_channels(0.005, FS, [500, 501], [0, 1], codes, 4410, 12)
    seqs = list(seqs)
    rng = np.random.default_rng(12)
    paths = []
    for _ in range(2):
        g = rng.standard_normal(64)
        paths.append(g / np.linalg.norm(g))
    recorded = simulate(SimTarget(paths=paths), seqs)
    result = demultiplex(recorded, units, codes, 4410, total_periods=12)
    worst = 0.0
    for ir, g in zip(result.per_code_irs, paths):
        truth = np.concatenate([g, np.zeros(len(ir) - g.size)])
        worst = max(worst, float(np.linalg.norm(ir.samples - truth)))

    # a single-channel recording averaged with the other code row must
    # cancel: its content is row-0 modulated, and the rows are orthogonal
    rec0 = simulate(SimTarget(paths=[paths[0]]), [seqs[0]])
    right = demultiplex(rec0, [units[0]], codes, 4410, total_periods=12)
    wrong = demultiplex(
        rec0, [units[0]], codes, 4410, code_row_indices=[1], total_periods=12
    )
    leak = wrong.linear_ir.rms() / right.linear_ir.rms()
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and leak < 1e-10 and elapsed < 30.0
    return ok, (
        f"channel IR error {worst:.2e} (< 1e-6 rel), wrong-code {leak:.2e} "
        f"(< 1e-10), {elapsed:.1f} s (< 30)"
    )


def criterion_nonlinear_separation() -> tuple[bool, str]:
    """A cubic Hammerstein path separates into linear IR plus deviations.

    With the cubic term 20 dB under the linear one the recovered linear IR
    carries an effective-gain bias of a few percent (the even part of the
    cubic correlates with the stimulus), so at that drive the frozen bounds
    are 6% raw and 5% after dividing out the fitted gain.  Backing the
    drive off to -40 dB brings the raw error under 1%.  The deviation
    channel must sit at least 40 dB above the zero-cubic run's floor.
    """
    start = time.perf_counter()
    codes = build_code_matrix(4)
    units, seqs = coded_channels(0.005, FS, range(300, 304), range(4), codes, 4410, 36)
    mux = multiplex(list(seqs))
    g = np.random.default_rng(11).standard_normal(64)
    g /= np.linalg.norm(g)
    truth = np.concatenate([g, np.zeros(4410 - g.size)])
    # drive scale putting the cubic term's RMS 20 dB below the linear one
    scale = (np.mean(mux.samples**2) / np.mean(mux.samples**6)) ** 0.25

    def run(drive: float, cubic: float):
        target = SimTarget(paths=[g], nonlinearity=np.array([1.0, 0.0, cubic]))
        rec = simulate(target, [SampledSignal(drive * mux.samples, FS)])
        return separate_nonlinear(
            demultiplex(rec, units, codes, 4410, total_periods=36)
        )

    res20 = run(scale, 0.1)
    ir = res20.linear_ir.samples / scale
    raw20 = float(np.linalg.norm(ir - truth))
    gain = float(ir @ truth)
    shape20 = float(np.linalg.norm(ir / gain - truth))
    floor = run(scale, 0.0).pooled_deviation_rms
    margin_db = float(20.0 * np.log10(res20.pooled_deviation_rms / floor))

    scale40 = scale / np.sqrt(10.0)
    res40 = run(scale40, 0.1)
    raw40 = float(np.linalg.norm(res40.linear_ir.samples / scale40 - truth))
    elapsed = time.perf_counter() - start
    ok = (
        raw20 < 0.06
        and shape20 < 0.05
        and raw40 < 0.01
        and margin_db >= 40.0
        and elapsed < 60.0
    )
    return ok, (
        f"-20 dB drive: raw {raw20:.3f} (< 0.06), gain {gain:.4f}, "
        f"shape {shape20:.3f} (< 0.05); -40 dB drive: raw {raw40:.4f} (< 0.01); "
        f"deviation margin {margin_db:.0f} dB (>= 40), {elapsed:.1f} s (< 60)"
    )


def criterion_shaping_roundtrip() -> tuple[bool, str]:
    """Shape then inverse-shape is the identity; all-pass magnitude survives.

    The identity also has to hold through float32 samples, which is all a
    WAV file keeps of the shaped signal between generate and measure.
    """
    filt = design_slope_filter(-3.0, FS)
    spec = FvnSpec(sigma_t=0.010, fs=FS, seed=3)
    unit = synthesize_unit_fvn(spec)
    seq = assemble_sequence(center_pulse(unit), build_code_matrix(1), 0, 8820, 8)

    shaped = shape_spectrum(seq, filt)
    restored = inverse_shape(shaped, filt)
    roundtrip = float(np.max(np.abs(restored.samples - seq.samples)))
    # what write_wav stores and read_wav hands back
    quantised = shaped.samples.astype(np.float32).astype(np.float64)
    restored32 = inverse_shape(SampledSignal(quantised, FS), filt)
    roundtrip32 = float(np.max(np.abs(restored32.samples - seq.samples)))
    unit_back = inverse_shape(shape_spectrum(unit, filt), filt)
    mags = np.abs(np.fft.fft(unit_back.samples))
    all_pass = float(np.max(np.abs(mags - 1.0)))
    ok = roundtrip < 1e-9 and roundtrip32 < 1e-6 and all_pass < 1e-6
    return ok, (
        f"samplewise roundtrip {roundtrip:.2e} (< 1e-9), "
        f"through float32 {roundtrip32:.2e} (< 1e-6), "
        f"all-pass magnitude error {all_pass:.2e} (< 1e-6)"
    )


def criterion_smoothing() -> tuple[bool, str]:
    """One-third-octave smoothing on constant, ramp, and single-bin spectra."""
    freqs = np.fft.rfftfreq(4096, 1.0 / FS)

    const = third_octave_smooth(PowerSpectrum(freqs, np.full(freqs.size, 2.5)))
    err_const = float(np.max(np.abs(const.linear() / 2.5 - 1.0)))

    ramp = third_octave_smooth(PowerSpectrum(freqs, freqs.copy()))
    expect = ramp.freqs * (2 ** (1 / 6) + 2 ** (-1 / 6)) / 2.0
    err_ramp = float(np.max(np.abs(ramp.linear() / expect - 1.0)))

    power = np.zeros(freqs.size)
    bin_i = 700
    power[bin_i] = 3.0
    single = third_octave_smooth(PowerSpectrum(freqs, power))
    err_bin = 0.0
    for f_c, got in zip(single.freqs, single.linear()):
        lo = f_c * 2 ** (-1 / 6)
        hi = f_c * 2 ** (1 / 6)
        # brute-force quadrature of the piecewise-linear power over the
        # window, integrating exactly by adding the window edges as knots
        knots = np.unique(np.concatenate([[lo, hi], freqs]))
        knots = knots[(knots >= lo) & (knots <= hi)]
        vals = np.interp(knots, freqs, power)
        brute = np.trapezoid(vals, knots) / (hi - lo)
        err_bin = max(err_bin, abs(got - brute))
    ok = err_const < 1e-12 and err_ramp < 1e-9 and err_bin < 1e-9
    return ok, (
        f"constant {err_const:.1e} (< 1e-12), ramp {err_ramp:.1e} (< 1e-9), "
        f"single-bin vs quadrature {err_bin:.1e} (< 1e-9)"
    )


def criterion_drift_recovery() -> tuple[bool, str]:
    """100 ppm linear drift and a sinusoidal wobble are measured and undone."""
    start = time.perf_counter()
    codes = build_code_matrix(1)
    period = 2205
    (unit,), seqs = coded_channels(0.005, FS, [9], [0], codes, period, 1200)
    (seq,) = seqs  # 60 s, fundamental 20 Hz

    def peak_of(recording: SampledSignal) -> float:
        res = demultiplex(recording, [unit], codes, period, total_periods=1200)
        return float(np.max(np.abs(res.linear_ir.samples)))

    clean = simulate(SimTarget(paths=[np.array([1.0])]), [seq])
    peak0 = peak_of(clean)
    drifted = simulate(
        SimTarget(paths=[np.array([1.0])], drift=DriftSpec("linear", ppm=100.0)),
        [seq],
    )

    # the tracker and warp `fvnlab align` runs, and the slope it reports
    delays = track_block_delays(seq, drifted, period)
    warp = delays.warp(drifted.duration)
    slope_err = abs(1.0 / (1.0 + delays.slope) - 1.0001)

    aligned_ratio = peak_of(apply_warp(drifted, warp)) / peak0
    raw_ratio = peak_of(drifted) / peak0  # recorded, not thresholded

    wobble = simulate(
        SimTarget(
            paths=[np.array([1.0])],
            drift=DriftSpec("sinusoidal", depth_s=1e-4, rate_hz=0.5),
        ),
        [seq],
    )
    # no line holds the wobble, so its sine is fitted to the block lags
    centres, lags = block_lags(seq, wobble, period)
    t = centres / FS
    dev = lags / FS
    dev = dev - np.polyval(np.polyfit(t, dev, 1), t)
    grid = np.fft.rfftfreq(t.size, 2 * period / FS)
    top = int(np.argmax(np.abs(np.fft.rfft(dev))[1:])) + 1
    period_exact = top == int(np.argmin(np.abs(grid - 0.5)))
    basis = np.stack([np.sin(2 * np.pi * 0.5 * t), np.cos(2 * np.pi * 0.5 * t)])
    coeffs = np.linalg.lstsq(basis.T, dev, rcond=None)[0]
    amp_err = abs(float(np.hypot(*coeffs)) / 1e-4 - 1.0)

    elapsed = time.perf_counter() - start
    ok = (
        slope_err < 1e-6
        and abs(aligned_ratio - 1.0) < 0.01
        and period_exact
        and amp_err < 0.05
        and elapsed < 60.0
    )
    return ok, (
        f"slope error {slope_err:.1e} (< 1e-6), aligned peak {aligned_ratio:.4f} "
        f"(within 1%), unaligned peak {raw_ratio:.3f} (recorded), "
        f"wobble period {'exact' if period_exact else 'WRONG'}, "
        f"amplitude error {amp_err * 100:.1f}% (< 5%), {elapsed:.0f} s (< 60)"
    )


def _pipeline_fingerprint() -> bytes:
    """One full generate/simulate/measure pass, reduced to raw bytes."""
    codes = build_code_matrix(2)
    units, seqs = coded_channels(0.005, FS, [700, 701], [0, 1], codes, 4410, 12)
    seqs = list(seqs)
    rng = np.random.default_rng(31)
    paths = [rng.standard_normal(64) for _ in range(2)]
    target = SimTarget(
        paths=paths,
        nonlinearity=np.array([1.0, 0.0, 0.05]),
        noise=NoiseSpec("white", -30.0),
        drift=DriftSpec("linear", ppm=50.0),
    )
    recorded = simulate(target, seqs, seed=99)
    result = separate_nonlinear(
        demultiplex(recorded, units, codes, 4410, total_periods=12)
    )
    blob = recorded.samples.tobytes() + result.linear_ir.samples.tobytes()
    for dev in result.deviations:
        blob += dev.samples.tobytes()
    return blob


def criterion_determinism() -> tuple[bool, str]:
    """The same seeded pipeline run twice is bit-identical."""
    ok = _pipeline_fingerprint() == _pipeline_fingerprint()
    return ok, "two seeded runs " + ("bit-identical" if ok else "DIFFER")


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("all-pass identity", criterion_all_pass),
    ("window quality", criterion_window_quality),
    ("coefficient identities", criterion_coefficients),
    ("code orthogonality", criterion_orthogonality),
    ("multichannel demultiplexing", criterion_demultiplex),
    ("nonlinearity separation", criterion_nonlinear_separation),
    ("shaping roundtrip", criterion_shaping_roundtrip),
    ("one-third-octave smoothing", criterion_smoothing),
    ("drift recovery", criterion_drift_recovery),
    ("determinism", criterion_determinism),
]


def run_all(emit=print) -> bool:
    """Run every criterion, emit one verdict line each, return overall pass."""
    all_ok = True
    for number, (title, check) in enumerate(CRITERIA, start=1):
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        emit(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}  {title}: {detail}")
    emit("selftest " + ("PASSED" if all_ok else "FAILED"))
    return all_ok
