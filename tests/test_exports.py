"""The package's public names resolve, and retired ones stay retired."""

import dataclasses
import inspect

import fvnlab
from fvnlab import fileio


def test_every_exported_name_resolves():
    missing = [name for name in fvnlab.__all__ if not hasattr(fvnlab, name)]
    assert missing == []


def test_retired_names_are_gone():
    for name in ["SequencePlan", "CodeMatrix", "PhaseSpectrum"]:
        assert not hasattr(fvnlab, name)
        assert name not in fvnlab.__all__
    assert not hasattr(fvnlab.sequence, "SequencePlan")
    assert not hasattr(fileio, "write_manifest")
    assert not hasattr(fileio, "write_report")
    for cls, name in [
        (fvnlab.MeasurementResult, "code_row_indices"),
        (fvnlab.MeasurementResult, "pooled_deviation_power"),
        (fvnlab.AnalyticProbe, "c_mag"),
        (fvnlab.SmoothedSpectrum, "db_reference"),
    ]:
        assert name not in {field.name for field in dataclasses.fields(cls)}
    assert not hasattr(fvnlab.ShapingFilter, "order")
    for func, name in [
        (fvnlab.track_phase, "floor_rel"),
        (fvnlab.apply_warp, "half_taps"),
        (fvnlab.design_slope_filter, "n_grid"),
        (fvnlab.third_octave_smooth, "db_reference"),
    ]:
        assert name not in inspect.signature(func).parameters
