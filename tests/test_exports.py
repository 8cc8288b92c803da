"""The package's public names resolve, and retired ones stay retired."""

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import fvnlab
from fvnlab import align, fileio, resample

PHASE_TRACKER = {
    "track_phase",
    "build_probe",
    "build_warp_map",
    "AnalyticProbe",
    "PhaseTrajectory",
}


def test_every_exported_name_resolves():
    missing = [name for name in fvnlab.__all__ if not hasattr(fvnlab, name)]
    assert missing == []


def test_retired_names_are_gone():
    retired = ["SequencePlan", "CodeMatrix", "PhaseSpectrum", *PHASE_TRACKER]
    for name in [*retired, "pulse_compress", "synchronized_average"]:
        assert not hasattr(fvnlab, name)
        assert name not in fvnlab.__all__
    assert not hasattr(fvnlab.sequence, "SequencePlan")
    assert not hasattr(fileio, "write_manifest")
    assert not hasattr(fileio, "write_report")
    for cls, name in [
        (fvnlab.MeasurementResult, "code_row_indices"),
        (fvnlab.MeasurementResult, "pooled_deviation_power"),
        (align.AnalyticProbe, "c_mag"),
        (fvnlab.SmoothedSpectrum, "db_reference"),
    ]:
        assert name not in {field.name for field in dataclasses.fields(cls)}
    assert not hasattr(fvnlab.ShapingFilter, "order")
    for name in ["extended", "linear_fit", "deviation"]:
        assert not hasattr(fvnlab.WarpMap, name)
    assert not hasattr(resample, "_fft")
    for func, name in [
        (align.track_phase, "floor_rel"),
        (fvnlab.apply_warp, "half_taps"),
        (fvnlab.design_slope_filter, "n_grid"),
        (fvnlab.third_octave_smooth, "db_reference"),
    ]:
        assert name not in inspect.signature(func).parameters


def test_only_align_binds_the_phase_tracker():
    """Drift is tracked by block delays alone: no module but align, the
    tracker's home, binds the phase tracker's names (selftest and the
    package root included)."""
    assert PHASE_TRACKER.isdisjoint(vars(fvnlab))
    assert PHASE_TRACKER <= set(vars(align))
    for info in pkgutil.iter_modules(fvnlab.__path__):
        if info.name != "align":
            module = importlib.import_module(f"fvnlab.{info.name}")
            assert PHASE_TRACKER.isdisjoint(vars(module)), info.name


def test_the_readme_filter_recipe_runs_in_a_fresh_interpreter(tmp_path):
    """`import fvnlab` alone binds fvnlab.fileio, so the README's one-line
    recipe for saving a slope filter works as written."""
    src = Path(fvnlab.__file__).resolve().parents[1]
    code = (
        "import fvnlab; fvnlab.fileio.write_filter"
        '("f.json", fvnlab.design_slope_filter(-3.0, 44100.0))'
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    design = fvnlab.design_slope_filter(-3.0, 44100.0)
    assert json.loads((tmp_path / "f.json").read_text()) == design.a.tolist()
