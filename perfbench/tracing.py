"""Outside-in tracing of fvnlab: wraps public functions where they are bound.

Nothing here runs at import time and nothing imports numpy, so the traced
CLI child can time `import fvnlab.cli` after importing this module.  A
Tracer replaces each listed function by a timing wrapper on its defining
module and on every other loaded fvnlab module that bound it by name (for
example both fvnlab.align.resample_at and fvnlab.sim.resample_at), and puts
the originals back on uninstall.  Spans stay in memory as
[name, start, end, parent index, pass id] until the caller writes them out.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> public functions wrapped.  codes and signal are too small to
# time (a matrix build and a dataclass), so they are not listed.
LAYERS = {
    "fvnlab.fvn": ["synthesize_unit_fvn"],
    "fvnlab.sequence": [
        "assemble_sequence",
        "multiplex",
        "shape_spectrum",
        "inverse_shape",
        "design_slope_filter",
    ],
    "fvnlab.sim": ["simulate", "apply_drift"],
    "fvnlab.resample": ["resample_at", "upsample2"],
    "fvnlab.align": ["track_phase", "build_warp_map", "apply_warp"],
    "fvnlab.measure": [
        "demultiplex",
        "pulse_compress",
        "synchronized_average",
        "separate_nonlinear",
    ],
    "fvnlab.spectrum": ["power_spectrum", "third_octave_smooth"],
    "fvnlab.fileio": ["write_wav", "read_wav", "write_warp_csv"],
    "fvnlab.cli": [
        "cmd_generate",
        "cmd_simulate",
        "cmd_align",
        "cmd_measure",
        "cmd_analyze",
    ],
}

# span name -> (counter name, amount taken from the call's arguments)
COUNTERS = {
    "fvn.synthesize_unit_fvn": ("fvn.synthesize_unit_fvn.calls", lambda a: 1),
    "resample.resample_at": ("resample.resample_at.positions", lambda a: len(a[1])),
    "measure.pulse_compress": ("measure.pulse_compress.samples", lambda a: len(a[0])),
    "fileio.write_wav": ("fileio.wav_bytes_written", lambda a: os.path.getsize(a[0])),
    "fileio.read_wav": ("fileio.wav_bytes_read", lambda a: os.path.getsize(a[0])),
}


def span_name(module: str, func: str) -> str:
    return f"{module.split('.')[-1]}.{func.removeprefix('cmd_')}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)  # (pass id, counter) -> total
        self.pass_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.pass_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, func):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                self.counts[(self.pass_id, counter[0])] += counter[1](args)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a loaded fvnlab module binds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "fvnlab" or key.startswith("fvnlab."))
        ]
        for module_name, funcs in LAYERS.items():
            home = sys.modules[module_name]
            for func_name in funcs:
                original = getattr(home, func_name)
                wrapper = self._wrap(span_name(module_name, func_name), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def adopt(self, spans: list[list], parent: int, pass_id) -> None:
        """Append spans recorded in a child process below span `parent`."""
        offset = len(self.spans)
        for name, start, end, child_parent, _ in spans:
            new_parent = parent if child_parent is None else child_parent + offset
            self.spans.append([name, start, end, new_parent, pass_id])

    def self_times(self) -> dict:
        """(pass id, span name) -> summed self time: duration minus children."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _, pass_id) in enumerate(self.spans):
            totals[(pass_id, name)] += end - start - child_time[index]
        return totals
