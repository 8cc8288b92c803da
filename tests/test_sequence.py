import numpy as np
import pytest
import scipy.signal

from fvnlab import (
    FvnSpec,
    SampledSignal,
    ShapingFilter,
    assemble_sequence,
    build_code_matrix,
    center_pulse,
    demultiplex,
    design_slope_filter,
    inverse_shape,
    multiplex,
    shape_spectrum,
    synthesize_unit_fvn,
)
from fvnlab import sequence
from fvnlab.cli import MAX_SHAPE_RANGE_DB
from fvnlab.resample import fftconvolve

FS = 44100.0

_slope_cache = {}


def slope_filter(db_per_octave):
    """Design fits are the slow part here, so share them across tests."""
    if db_per_octave not in _slope_cache:
        _slope_cache[db_per_octave] = design_slope_filter(db_per_octave, FS)
    return _slope_cache[db_per_octave]


def test_assembly_places_code_signed_copies():
    codes = build_code_matrix(2)
    probe = SampledSignal(np.array([1.0]), FS)
    seq = assemble_sequence(probe, codes, 1, period_no=100, repetitions=12)
    assert len(seq) == 12 * 100
    row = codes[1]
    for r in range(12):
        assert seq.samples[r * 100] == row[r % codes.shape[1]]
    rest = seq.samples.copy()
    rest[::100] = 0.0
    assert np.all(rest == 0.0)


def test_assembly_energy_with_disjoint_periods():
    spec = FvnSpec(sigma_t=0.01, seed=2)
    unit = center_pulse(synthesize_unit_fvn(spec))
    seq = assemble_sequence(
        unit, build_code_matrix(1), 0, period_no=len(unit), repetitions=16
    )
    # non-overlapping copies: energies add with no cross terms at all
    energy = float(np.sum(seq.samples**2))
    assert energy == pytest.approx(16.0 * np.sum(unit.samples**2), rel=1e-12)
    assert seq.rms() == pytest.approx(np.sqrt(16.0 / len(seq)), rel=1e-9)


def test_too_few_repetitions_rejected():
    codes = build_code_matrix(2)  # code length 2, so 6 is the minimum
    unit = center_pulse(synthesize_unit_fvn(FvnSpec(sigma_t=0.005)))
    with pytest.raises(ValueError):
        assemble_sequence(unit, codes, 0, period_no=1000, repetitions=5)


@pytest.mark.parametrize("k_codes", [1, 2, 3, 4, 5, 6, 7, 8])
def test_emitter_and_receiver_share_one_averaging_rule(k_codes):
    """The emitter takes exactly n + 4 repetitions (one code period plus two
    guard periods at each end) and refuses n + 3, naming both counts; the
    receiver then averages exactly n periods of the accepted plan."""
    codes = build_code_matrix(k_codes)
    n = codes.shape[1]
    unit = SampledSignal(np.array([1.0]), FS)
    row = k_codes - 1
    with pytest.raises(ValueError, match=rf"{n + 3} repetitions.* {n + 4} "):
        assemble_sequence(unit, codes, row, period_no=16, repetitions=n + 3)
    emitted = assemble_sequence(unit, codes, row, period_no=16, repetitions=n + 4)
    result = demultiplex(
        emitted, [unit], codes, 16, code_row_indices=[row], total_periods=n + 4
    )
    assert result.periods_averaged == n
    np.testing.assert_allclose(result.linear_ir.samples, np.eye(1, 16)[0], atol=1e-12)


def test_plan_validation():
    codes = build_code_matrix(1)
    unit = SampledSignal(np.array([1.0]), FS)
    with pytest.raises(ValueError):
        assemble_sequence(unit, codes, 0, period_no=0, repetitions=8)
    with pytest.raises(ValueError):
        assemble_sequence(unit, codes, -1, period_no=100, repetitions=8)
    with pytest.raises(ValueError, match="code row index 1 out of range 0..0"):
        assemble_sequence(unit, codes, 1, period_no=100, repetitions=8)


def test_multiplex_sums_and_pads():
    a = SampledSignal(np.ones(5), FS)
    b = SampledSignal(2.0 * np.ones(3), FS)
    np.testing.assert_array_equal(multiplex([a, b]).samples, [3, 3, 3, 1, 1])


def test_multiplex_rejects_empty_and_mixed_rates():
    with pytest.raises(ValueError):
        multiplex([])
    with pytest.raises(ValueError):
        multiplex(iter([]))
    with pytest.raises(ValueError):
        multiplex(
            [SampledSignal(np.ones(4), 44100.0), SampledSignal(np.ones(4), 48000.0)]
        )


def test_multiplex_growing_sum_matches_the_final_length_sum_bit_for_bit():
    """Signals that get longer, shorter and longer again, with signed zeros
    and values whose sum depends on the order, against a sum in iteration
    order into a zero buffer of the final length."""
    rng = np.random.default_rng(7)
    signals = []
    for size in (3, 7, 2, 11, 11, 5):
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-17, 17, size)
        x[::3] = -0.0
        signals.append(SampledSignal(x, FS))
    expected = np.zeros(11)
    for s in signals:
        expected[: len(s)] += s.samples
    assert multiplex(iter(signals)).samples.tobytes() == expected.tobytes()
    assert multiplex(signals).samples.tobytes() == expected.tobytes()


def test_multiplex_of_a_generator_holds_few_signals_at_once(traced_peak):
    """Eight signals of 10^6 samples: the sum, the signal being added and the
    next one being made; a list of all eight and the sum would be nine."""
    n = 1_000_000
    signals = (SampledSignal(np.full(n, i + 1.0), FS) for i in range(8))
    mixed, peak = traced_peak(multiplex, signals)
    assert peak <= 4 * 8 * n
    assert np.array_equal(mixed.samples, np.full(n, 36.0))


def test_multiplexed_power_is_near_the_sum_of_powers():
    """Channels with different seeds are effectively uncorrelated."""
    codes = build_code_matrix(2)
    seqs = [
        assemble_sequence(
            center_pulse(synthesize_unit_fvn(FvnSpec(sigma_t=0.005, seed=40 + i))),
            codes, i, 2205, 12,
        )
        for i in range(2)
    ]
    mixed = multiplex(seqs)
    individual = sum(float(np.sum(s.samples**2)) for s in seqs)
    assert float(np.sum(mixed.samples**2)) == pytest.approx(individual, rel=0.05)


def test_shaping_roundtrip_is_exact():
    rng = np.random.default_rng(0)
    x = SampledSignal(rng.standard_normal(5000), FS)
    filt = slope_filter(-3.0)
    back = inverse_shape(shape_spectrum(x, filt), filt)
    assert np.max(np.abs(back.samples - x.samples)) < 1e-9


@pytest.mark.parametrize("db_per_octave", [-3.0, -6.0])
def test_shaping_roundtrip_survives_float32(db_per_octave):
    """WAV files hold float32; inverse_shape scales that rounding by |A|."""
    filt = slope_filter(db_per_octave)
    rng = np.random.default_rng(0)
    x = SampledSignal(rng.standard_normal(20000), FS)
    shaped = shape_spectrum(x, filt).samples.astype(np.float32)
    back = inverse_shape(SampledSignal(shaped.astype(np.float64), FS), filt)
    err = np.linalg.norm(back.samples - x.samples) / np.linalg.norm(x.samples)
    assert err < 1e-5
    assert filt.range_db(FS) < MAX_SHAPE_RANGE_DB  # generate accepts it
    # the designed response levels off outside [f_lo, f_hi], as documented
    edges = np.array([0.0, 50.0, 10000.0, FS / 2])
    dc, lo, hi, nyquist = filt.magnitude_db(edges, FS)
    assert -3.0 <= dc - lo <= 2.0 * abs(db_per_octave) + 3.0
    assert abs(nyquist - hi) <= 3.0


def test_slope_fit_minus_three_db_per_octave():
    filt = slope_filter(-3.0)
    grid = np.logspace(np.log10(50.0), np.log10(10000.0), 300)
    dev = filt.magnitude_db(grid, FS) + 3.0 * np.log2(grid / 10000.0)
    dev -= np.mean(dev)  # absolute gain is free
    assert np.max(np.abs(dev)) < 1.5


def test_slope_fit_minus_six_db_per_octave():
    """An integer-dB slope is close to a plain pole, so the fit is tight."""
    filt = slope_filter(-6.0)
    grid = np.logspace(np.log10(50.0), np.log10(10000.0), 300)
    dev = filt.magnitude_db(grid, FS) + 6.0 * np.log2(grid / 10000.0)
    dev -= np.mean(dev)
    assert np.max(np.abs(dev)) < 0.5


def test_zero_slope_fit_is_flat():
    filt = slope_filter(0.0)
    grid = np.logspace(np.log10(50.0), np.log10(10000.0), 300)
    mags = filt.magnitude_db(grid, FS)
    assert np.max(mags) - np.min(mags) < 0.01


@pytest.mark.parametrize("db_per_octave, fs", [(-9.0, 44100.0), (-12.0, 48000.0)])
def test_steep_slopes_keep_their_shelves(db_per_octave, fs):
    """Beyond -6 dB/octave the design still levels off outside [f_lo, f_hi]
    as documented, with no resonance at Nyquist or pole run-away at DC."""
    filt = design_slope_filter(db_per_octave, fs)
    dc, lo, hi, nyquist = filt.magnitude_db(np.array([0.0, 50.0, 10000.0, fs / 2]), fs)
    assert abs(nyquist - hi) <= 3.0
    assert -3.0 <= dc - lo <= 2.0 * abs(db_per_octave) + 3.0


# a_1..a_32 of the -3 and -6 dB/octave designs at 44.1 kHz as an earlier
# optimizer found them (scipy least squares on tanh-mapped reflection
# coefficients, climbing an order ladder)
EARLIER_SLOPE_DESIGNS = {
    -3.0: [
        -0.4057823981094899, -0.20312366270909443, -0.06897855376023271,
        -0.02421946759629475, -0.026276733822251444, -0.023226148010387696,
        -0.017893097473293464, -0.013102583998975584, -0.012720455031302104,
        -0.006317441888857531, -0.006497836373927761, -0.008756620866718192,
        -0.010670028628802593, -0.002185079774037148, -0.000801128754512152,
        -0.005534919243561513, -0.010971648609695022, -0.0017126556473172395,
        0.003091740209784836, -0.0023362976530011503, -0.01222973789255872,
        -0.003078313212617863, 0.0067398478389497545, 0.0013197060430863885,
        -0.015180368618029271, -0.005857060705787573, 0.013206537721016239,
        0.005562415740045396, -0.026923810186595495, -0.006392089601469206,
        0.04912640305383436, -0.06813716165777345,
    ],
    -6.0: [
        -0.8065531305292672, -0.2567543485578993, 0.023120912422878597,
        0.059509000542407466, 0.0026623345119141705, -0.024889979095855892,
        -0.006476219661439871, 0.012208633308460198, 0.0065148589547515635,
        -0.006512545526603825, -0.005863935157250574, 0.003155348675763595,
        0.0050199784168567345, -0.0013458505477344242, -0.004156964486356389,
        5.305394994621941e-05, 0.0034110250200604553, 0.0005957859429109218,
        -0.0026919803907073563, -0.001135505749024882, 0.002149259371176974,
        0.0013024144036056617, -0.0016415720421430646, -0.0015148284067243026,
        0.0013375409111536386, 0.0014631534888846992, -0.0011337841245101538,
        -0.0015472197266583796, 0.001265788222892727, 0.0012073537610070545,
        -0.002455095033636197, 0.0014601512615244096,
    ],
}


@pytest.mark.parametrize("db_per_octave", [-3.0, -6.0])
def test_slope_design_matches_the_earlier_optimum(db_per_octave):
    """The design reaches the optimum the earlier optimizer found: the same
    magnitude within 1e-3 dB over [0, fs/2], up to the free gain."""
    freqs = np.linspace(0.0, FS / 2, 2**14 + 1)
    earlier = ShapingFilter(np.array(EARLIER_SLOPE_DESIGNS[db_per_octave]))
    diff = slope_filter(db_per_octave).magnitude_db(freqs, FS)
    diff -= earlier.magnitude_db(freqs, FS)
    assert np.max(np.abs(diff - np.mean(diff))) < 1e-3


def test_shaping_filter_validation():
    with pytest.raises(ValueError):
        ShapingFilter(np.array([-2.5]))  # pole at 2.5
    with pytest.raises(ValueError):
        ShapingFilter(np.array([np.nan]))
    assert ShapingFilter(np.array([1.8, 0.81])).a.size == 2  # poles at -0.9


def test_design_validation():
    with pytest.raises(ValueError):
        design_slope_filter(-3.0, FS, order=0)
    with pytest.raises(ValueError):
        design_slope_filter(-3.0, FS, f_lo=0.0)


@pytest.mark.parametrize("db_per_octave", [0.5, 3.0, 6.0])
def test_rising_slopes_are_refused(db_per_octave):
    """An all-pole fit misses +3 and +6 dB/octave by 4.4 to 12 dB."""
    with pytest.raises(ValueError, match=f"got {db_per_octave}"):
        design_slope_filter(db_per_octave, FS)


def freqz_db(a, freqs, fs):
    """Reference: the magnitude through scipy.signal.freqz, as it was."""
    _, h = scipy.signal.freqz([1.0], np.concatenate([[1.0], a]), worN=freqs, fs=fs)
    return 20.0 * np.log10(np.abs(h))


def test_magnitude_db_matches_freqz():
    filt = slope_filter(-3.0)
    freqs = np.concatenate([[0.0, FS / 2], np.linspace(1.0, FS / 2, 997)])
    assert np.array_equal(filt.magnitude_db(freqs, FS), freqz_db(filt.a, freqs, FS))


@pytest.mark.parametrize("n", [1, 20, 33, 5000])
def test_inverse_shape_matches_lfilter(n):
    """Signals shorter than, as long as and longer than the FIR A(z)."""
    filt = slope_filter(-3.0)
    x = np.random.default_rng(n).standard_normal(n)
    expected = scipy.signal.lfilter(np.concatenate([[1.0], filt.a]), [1.0], x)
    assert np.array_equal(inverse_shape(SampledSignal(x, FS), filt).samples, expected)


def test_slope_design_matches_the_freqz_residual(monkeypatch):
    """The fit converges to the same coefficients with the old residual."""
    designed = slope_filter(-3.0)
    monkeypatch.setattr(sequence, "_all_pole_db", freqz_db)
    assert np.array_equal(designed.a, design_slope_filter(-3.0, FS).a)


def pole_near_the_range_limit():
    """One pole at DC whose full-band range is just under the limit the CLI
    accepts: r = 0.99994, the longest decay a shaped run can have."""
    q = 10 ** ((MAX_SHAPE_RANGE_DB - 0.01) / 20)  # (1 + r) / (1 - r)
    return ShapingFilter(np.array([-(q - 1) / (q + 1)]))


def test_impulse_response_is_cut_at_the_decay_or_the_length():
    """A pole at 0.5 decays to 1e-18 after 60 samples."""
    filt = ShapingFilter(np.array([-0.5]))
    h = filt.impulse_response(1000)
    np.testing.assert_allclose(h, 0.5 ** np.arange(60), rtol=0, atol=1e-15)
    assert filt.impulse_response(7).size == 7
    assert np.array_equal(ShapingFilter(np.zeros(0)).impulse_response(9), [1.0])
    # the cap does not shorten the transform: the kept samples stay unaliased
    slow = pole_near_the_range_limit()
    r = -slow.a[0]
    h = slow.impulse_response(50000)
    np.testing.assert_allclose(h, r ** np.arange(50000), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "which, period_no, reps",
    [
        ("-3 dB/oct", 2205, 12),
        ("-6 dB/oct", 4410, 12),  # T = 26 082 fits in the emission
        ("-6 dB/oct", 1000, 12),  # ... and here outlasts it
        ("near-limit pole", 4410, 160),  # T ~ 6.5e5 fits
        ("near-limit pole", 4410, 12),  # ... and here outlasts it
    ],
)
def test_shaping_matches_lfilter_over_the_emission(which, period_no, reps):
    """coded_channels shapes the unit and shape_spectrum convolves with the
    truncated impulse response; both stay within 1e-12 of the peak of the
    recursion scipy.signal.lfilter runs over the assembled emission."""
    if which == "near-limit pole":
        filt = pole_near_the_range_limit()
        assert filt.range_db(FS) < MAX_SHAPE_RANGE_DB
    else:
        filt = slope_filter(float(which.split()[0]))
    codes = build_code_matrix(2)
    units, emitted = sequence.coded_channels(
        0.005, FS, [3, 4], [0, 1], codes, period_no, reps, filt
    )
    a = np.concatenate([[1.0], filt.a])
    for row, unit, got in zip([0, 1], units, emitted):
        plain = assemble_sequence(unit, codes, row, period_no, reps)
        expected = scipy.signal.lfilter([1.0], a, plain.samples)
        peak = np.max(np.abs(expected))
        assert len(got) == len(plain)
        assert np.max(np.abs(got.samples - expected)) <= 1e-12 * peak
        shaped = shape_spectrum(plain, filt).samples
        assert np.max(np.abs(shaped - expected)) <= 1e-12 * peak


@pytest.mark.parametrize("period_no", [1000, 8192])
def test_check_plan_returns_the_emitted_length(period_no):
    """A 4096-sample pulse sticks 3096 samples out of a 1000-sample period's
    last copy and none out of an 8192-sample one; every channel coded_channels
    emits has the length check_plan returns."""
    codes = build_code_matrix(2)
    length = sequence.check_plan(0.005, FS, [0, 1], codes, period_no, 12)
    assert length == 12 * period_no + max(0, 4096 - period_no)
    seeds, rows = [3, 4], [0, 1]
    _, emitted = sequence.coded_channels(0.005, FS, seeds, rows, codes, period_no, 12)
    assert [len(signal) for signal in emitted] == [length, length]


def oracle_assemble(pulse, row, period_no, repetitions):
    """The copy-by-copy sum assembly ran before the block product: copy r
    added at r * period_no with polarity row[r mod n], in emission order."""
    n = row.size
    out = np.zeros(repetitions * period_no + max(0, pulse.size - period_no))
    for r in range(repetitions):
        out[r * period_no : r * period_no + pulse.size] += row[r % n] * pulse
    return out


@pytest.mark.parametrize("period_no", [5000, 4096, 3000, 2048])
def test_assembly_matches_the_copy_by_copy_sum_bit_for_bit(period_no):
    """A 4096-sample pulse in one block, with and without zero columns, and
    in two blocks, with the last period cut short (3000) or whole (2048)."""
    unit = center_pulse(synthesize_unit_fvn(FvnSpec(sigma_t=0.005, seed=3)))
    codes = build_code_matrix(3)
    for row in range(3):
        got = assemble_sequence(unit, codes, row, period_no, 9).samples
        expected = oracle_assemble(unit.samples, codes[row], period_no, 9)
        assert got.tobytes() == expected.tobytes()


BENCHMARK_PLANS = {  # perfbench's workloads: codes, sigma_t, period_no, reps, shaped
    "cli_short": (2, 0.005, 4410, 12, False),
    "long_drift": (3, 0.010, 22050, 120, False),
    "codes_shaped": (8, 0.005, 4410, 516, True),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_PLANS))
def test_benchmark_emissions_match_the_copy_by_copy_sum_bit_for_bit(workload):
    """Every channel of each benchmark workload's plan, a pulse of one
    period or (shaped at -3 dB/octave) two, comes out of coded_channels with
    the bytes of the copy-by-copy sum cut to check_plan's length."""
    k, sigma_t, period_no, reps, shaped = BENCHMARK_PLANS[workload]
    codes = build_code_matrix(k)
    filt = slope_filter(-3.0) if shaped else None
    rows = list(range(k))
    length = sequence.check_plan(sigma_t, FS, rows, codes, period_no, reps)
    seeds = [11 + row for row in rows]
    units, emitted = sequence.coded_channels(
        sigma_t, FS, seeds, rows, codes, period_no, reps, filt
    )
    h = np.ones(1) if filt is None else filt.impulse_response(length)
    for row, unit, got in zip(rows, units, emitted):
        pulse = fftconvolve(unit.samples, h)
        assert -(-pulse.size // period_no) == (2 if shaped else 1)
        expected = oracle_assemble(pulse, codes[row], period_no, reps)[:length]
        assert got.samples.tobytes() == expected.tobytes()


def test_a_slow_pole_unit_of_150_periods_assembles_within_rounding():
    """Shaped by the slowest pole the CLI accepts, a unit spans 150 periods
    of 4410 samples: 150 terms a sample, summed within 1e-15 of the peak
    of the copy-by-copy sum."""
    unit = center_pulse(synthesize_unit_fvn(FvnSpec(sigma_t=0.005, seed=3)))
    h = pole_near_the_range_limit().impulse_response(10**7)
    pulse = SampledSignal(fftconvolve(unit.samples, h), FS)
    assert -(-len(pulse) // 4410) == 150
    codes = build_code_matrix(3)
    got = assemble_sequence(pulse, codes, 2, 4410, 160).samples
    expected = oracle_assemble(pulse.samples, codes[2], 4410, 160)
    assert got.size == expected.size
    assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_check_plan_refuses_a_negative_period_as_a_period():
    with pytest.raises(ValueError, match=r"^period_no must be >= 1, got -1$"):
        sequence.check_plan(0.005, FS, [0], build_code_matrix(1), -1, 12)
