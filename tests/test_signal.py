import contextlib

import numpy as np
import pytest

from fvnlab import SampledSignal

FS = 44100.0

CALLER_STATES = {
    "default": contextlib.nullcontext,
    "all raise": lambda: np.errstate(all="raise"),
}


@pytest.mark.parametrize("caller", sorted(CALLER_STATES))
@pytest.mark.parametrize("at", [0, 500, 999])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_sample_that_is_not_finite_is_refused(bad, at, caller):
    """NaN, +inf and -inf at the first, middle and last sample; a caller
    whose numpy errors all raise gets the same refusal."""
    x = np.ones(1000)
    x[at] = bad
    with CALLER_STATES[caller]():
        with pytest.raises(ValueError, match="^samples must be finite$"):
            SampledSignal(x, FS)


@pytest.mark.parametrize("caller", sorted(CALLER_STATES))
def test_finite_samples_whose_sum_overflows_are_accepted(caller):
    """1e308 + 1e308 overflows, so the samples are tested one by one."""
    with CALLER_STATES[caller]():
        signal = SampledSignal(np.array([1e308, 1e308]), FS)
    assert signal.samples.tolist() == [1e308, 1e308]
