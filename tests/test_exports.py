"""The package's public names resolve, and retired ones stay retired."""

import dataclasses
import importlib
import inspect
import pkgutil

import fvnlab
from fvnlab import fileio, resample


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
    assert not hasattr(fvnlab.WarpMap, "extended")
    assert not hasattr(resample, "_fft")
    for func, name in [
        (fvnlab.track_phase, "floor_rel"),
        (fvnlab.apply_warp, "half_taps"),
        (fvnlab.design_slope_filter, "n_grid"),
        (fvnlab.third_octave_smooth, "db_reference"),
    ]:
        assert name not in inspect.signature(func).parameters


def test_only_align_binds_the_phase_tracker():
    """Drift is tracked by block delays alone: no module but align, the
    tracker's home, binds the phase tracker's names (selftest included)."""
    names = {"track_phase", "build_probe", "build_warp_map"}
    names |= {"AnalyticProbe", "PhaseTrajectory"}
    for info in pkgutil.iter_modules(fvnlab.__path__):
        if info.name != "align":
            module = importlib.import_module(f"fvnlab.{info.name}")
            assert names.isdisjoint(vars(module)), info.name
