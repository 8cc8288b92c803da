"""Seeded workloads: inputs, CLI command sequences, output checks, accuracy.

Every input derives from the workload seed: the room-like target FIR, the
FVN base seed handed to `generate` and the noise seed handed to `simulate`.
The program only ever sees the files written here and the command flags.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FS = 44100.0
CUBIC = 0.1  # mild Hammerstein cubic: c1 x + c3 x^3
NOISE_DB = -40.0  # white noise re recording RMS
TAIL = 1500  # samples of decaying tail after the direct path
TAIL_DECAY = 250.0  # samples per neper


@dataclass(frozen=True)
class Workload:
    name: str
    codes: int
    sigma_t: float
    period_no: int
    reps: int
    drift_ppm: float | None
    shape_db_per_oct: float | None
    in_process: bool  # False: every command in a fresh interpreter


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_short", 2, 0.005, 4410, 12, 100.0, None, False),
        Workload("long_drift", 3, 0.010, 22050, 120, 20.0, None, True),
        Workload("codes_shaped", 8, 0.005, 4410, 516, None, -3.0, True),
    )
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def make_target(seed: int) -> np.ndarray:
    """Room-like FIR: direct path after a delay, then a decaying random tail."""
    rng = _rng(seed, 0)
    delay = int(rng.integers(16, 64))
    fir = np.zeros(delay + 1 + TAIL)
    fir[delay] = 1.0
    n = np.arange(1, TAIL + 1)
    fir[delay + 1 :] = 0.3 * rng.standard_normal(TAIL) * np.exp(-n / TAIL_DECAY)
    return fir


def fvn_seed(seed: int) -> int:
    return int(_rng(seed, 1).integers(0, 2**31 - 64))


def noise_seed(seed: int) -> int:
    return int(_rng(seed, 2).integers(0, 2**31 - 64))


def write_inputs(w: Workload, seed: int, out: Path) -> None:
    """Set-up: target JSON, generate config and, if shaped, the filter."""
    import fvnlab

    out.mkdir(parents=True, exist_ok=True)
    target = {
        "paths": [make_target(seed).tolist()],
        "nonlinearity": [1.0, 0.0, CUBIC],
        "noise": {"kind": "white", "level_db": NOISE_DB},
    }
    (out / "target.json").write_text(json.dumps(target))
    config = {
        "fs": FS,
        "sigma_t": w.sigma_t,
        "codes": w.codes,
        "period_no": w.period_no,
        "reps": w.reps,
        "seed": fvn_seed(seed),
    }
    if w.shape_db_per_oct is not None:
        filt = fvnlab.design_slope_filter(w.shape_db_per_oct, FS)
        fvnlab.fileio.write_filter(out / "filter.json", filt)
        config["shape"] = str(out / "filter.json")
    (out / "gen.json").write_text(json.dumps(config))


def commands(w: Workload, seed: int, inputs: Path, run: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of one pass of the README pipeline."""
    gen, sim, ali, meas, ana = (str(run / d) for d in ("gen", "sim", "ali", "meas", "ana"))
    simulate = [
        "simulate", gen, "--config", str(inputs / "target.json"),
        "--seed", str(noise_seed(seed)), "--out-dir", sim,
    ]
    if w.drift_ppm is not None:
        simulate[-2:-2] = ["--drift-ppm", repr(w.drift_ppm)]
    recording = f"{sim}/recording.wav"
    steps = [
        ("generate", ["generate", "--config", str(inputs / "gen.json"), "--out-dir", gen]),
        ("simulate", simulate),
    ]
    if w.drift_ppm is not None:
        steps.append(("align", ["align", recording, gen, "--out-dir", ali]))
        recording = f"{ali}/aligned.wav"
    steps += [
        ("measure", ["measure", recording, gen, "--out-dir", meas]),
        ("analyze", ["analyze", f"{meas}/linear_ir.wav", "--truncate-ms", "3.2", "--out-dir", ana]),
    ]
    return steps


# --- output checks -------------------------------------------------------


def read_wav(path: Path) -> np.ndarray:
    """Samples of a mono IEEE-float WAV, parsed independently of fvnlab."""
    data = path.read_bytes()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError(f"{path.name}: not a RIFF WAVE file")
    pos, fmt = 12, None
    while pos + 8 <= len(data):
        tag, size = data[pos : pos + 4], int.from_bytes(data[pos + 4 : pos + 8], "little")
        body = data[pos + 8 : pos + 8 + size]
        if tag == b"fmt ":
            fmt = (int.from_bytes(body[0:2], "little"), int.from_bytes(body[2:4], "little"),
                   int.from_bytes(body[14:16], "little"))
        elif tag == b"data":
            if fmt != (3, 1, 32):
                raise ValueError(f"{path.name}: expected mono float32, got {fmt}")
            return np.frombuffer(body, dtype="<f4").astype(np.float64)
        pos += 8 + size + (size & 1)
    raise ValueError(f"{path.name}: no data chunk")


def _wav(path: Path, length: int | None = None) -> np.ndarray:
    x = read_wav(path)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path.name}: non-finite samples")
    if length is not None and x.size != length:
        raise ValueError(f"{path.name}: {x.size} samples, expected {length}")
    return x


def _report(path: Path, key: str) -> float:
    value = float(json.loads(path.read_text())[key])
    if not math.isfinite(value):
        raise ValueError(f"{path.name}: {key} is not finite")
    return value


def _csv_rows(path: Path, header: list[str]) -> int:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != header or len(rows) < 3:
        raise ValueError(f"{path.name}: bad header or too few rows")
    if not all(math.isfinite(float(v)) for row in rows[1:] for v in row):
        raise ValueError(f"{path.name}: non-finite values")
    return len(rows) - 1


def check_step(step: str, w: Workload, run: Path, fir_len: int) -> None:
    """Raise ValueError when a step's expected outputs are missing or wrong."""
    emitted = w.reps * w.period_no  # the pulse buffer is shorter than a period
    if step == "generate":
        for i in range(w.codes):
            _wav(run / "gen" / f"channel_{i}.wav", emitted)
        if w.codes > 1:
            _wav(run / "gen" / "multiplexed.wav", emitted)
        json.loads((run / "gen" / "manifest.json").read_text())
    elif step == "simulate":
        _wav(run / "sim" / "recording.wav", emitted + fir_len - 1)
    elif step == "align":
        _wav(run / "ali" / "aligned.wav", emitted + fir_len - 1)
        _csv_rows(run / "ali" / "warp.csv", ["t_ad_s", "t_da_s"])
        _report(run / "ali" / "report.json", "drift_ppm")
    elif step == "measure":
        _wav(run / "meas" / "linear_ir.wav", w.period_no)
        for row in range(w.codes):
            _wav(run / "meas" / f"per_code_ir_{row}.wav", w.period_no)
            if w.codes > 1:
                _wav(run / "meas" / f"deviation_{row}.wav", w.period_no)
        _report(run / "meas" / "report.json", "linear_ir_rms")
    elif step == "analyze":
        _csv_rows(run / "ana" / "spectrum.csv", ["frequency_hz", "level_db"])
    else:
        raise ValueError(f"unknown step {step}")


def ir_err_db(measured: np.ndarray, fir: np.ndarray) -> float:
    """Error of the measured linear IR against the true FIR, in dB re its energy.

    The measured IR is rotated by the circular lag of best correlation (the
    aligner may move the response in time) and scaled by the least-squares
    gain, then compared over the FIR's length.
    """
    n = measured.size
    padded = np.zeros(n)
    padded[: fir.size] = fir
    xcorr = np.fft.irfft(np.fft.rfft(measured) * np.conj(np.fft.rfft(padded)), n)
    m = np.roll(measured, -int(np.argmax(np.abs(xcorr))))[: fir.size]
    gain = float(m @ fir) / float(m @ m)
    return 10.0 * math.log10(float(np.sum((gain * m - fir) ** 2)) / float(fir @ fir))


def accuracy(w: Workload, run: Path, fir: np.ndarray) -> dict:
    out = {"ir_err_db": ir_err_db(_wav(run / "meas" / "linear_ir.wav"), fir)}
    if w.drift_ppm is not None:
        reported = _report(run / "ali" / "report.json", "drift_ppm")
        out["drift_ppm_reported"] = reported
        out["drift_err_ppm"] = abs(reported - w.drift_ppm)
    out["linear_ir_rms"] = _report(run / "meas" / "report.json", "linear_ir_rms")
    return out
