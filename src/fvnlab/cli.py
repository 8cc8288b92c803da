"""File-based measurement pipelines behind one console command.

Subcommands: generate, simulate, measure, analyze, align, selftest.  Audio
moves as 32-bit float mono WAV; every generated signal set carries a JSON
manifest (seeds, code rows, period length) and measuring without one is
refused.  Exit codes: 0 success, 1 validation error, 2 processing error,
3 selftest failure.  The environment variable FVNLAB_SEED overrides any
configured seed.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fileio
from .align import apply_warp, track_block_delays
from .codes import build_code_matrix
from .measure import demultiplex, separate_nonlinear
from .sequence import ShapingFilter, check_plan, coded_channels, multiplex
from .signal import SampledSignal
from .sim import DriftSpec, SimTarget, _capture, _play
from .spectrum import power_spectrum, third_octave_smooth

_NUMBER, _INTEGER, _RATE = "a finite number", "an integer", "a whole number of Hz"
_SEED = "a non-negative integer"
# generate setting -> (default, kind of a --config value)
_SETTINGS = {
    "fs": (44100.0, _RATE),
    "sigma_t": (0.010, _NUMBER),
    "codes": (1, _INTEGER),
    "period_no": (22050, _INTEGER),
    "reps": (16, _INTEGER),
    "seed": (0, _SEED),
    "shape": (None, "null or a string path"),
}
# flag values main checks before any command runs; _plan bounds sigma_t, the
# counts and the rate before synthesis, naming their keys.
_FLAG_KINDS = {"fs": _RATE, "seed": _SEED, "drift_ppm": _NUMBER, "truncate_ms": _NUMBER}
_MANIFEST_KEYS = {
    "fs": _RATE, "sigma_t": _NUMBER, "codes": _INTEGER, "period_no": _INTEGER,
    "repetitions": _INTEGER, "seed": _SEED,
    "channels": "a non-empty list of objects", "shape": "null or a list of numbers",
}
_CHANNEL_KEYS = {"file": "a string", "seed": _SEED, "code_row": _INTEGER}
_TARGET_KEYS = {
    "paths": "a list of number lists", "nonlinearity": "a list of numbers",
    "noise": "null or an object", "drift": "null or an object",
}
_NOISE_KEYS = {"kind": "a string", "level_db": _NUMBER}
_DRIFT_KEYS = {
    "kind": "a string", "ppm": _NUMBER, "depth_s": _NUMBER, "rate_hz": _NUMBER,
}
# Widest full-band range of gain a shaping filter may span.  measure undoes
# the shaping of float32 WAV samples, which multiplies their rounding by |A|:
# at 90 dB, two poles at DC or at Nyquist and a 100 Hz resonance return white
# noise with a relative error up to 3.4e-5, growing about twofold per 10 dB.
MAX_SHAPE_RANGE_DB = 90.0
# bool is an int subclass; NaN, infinities and ints beyond float range fail
# the bound on abs(v).
_IS_KIND = {
    _NUMBER: lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool)
    and abs(v) <= sys.float_info.max,
    _INTEGER: lambda v: isinstance(v, int) and not isinstance(v, bool),
    _SEED: lambda v: _IS_KIND[_INTEGER](v) and v >= 0,
    _RATE: lambda v: _IS_KIND[_NUMBER](v) and float(v).is_integer(),
    "a string": lambda v: isinstance(v, str),
    "null or a string path": lambda v: v is None or isinstance(v, str),
    "a non-empty list of objects": lambda v: isinstance(v, list)
    and len(v) > 0
    and all(isinstance(c, dict) for c in v),
    "null or an object": lambda v: v is None or isinstance(v, dict),
    "a list of numbers": lambda v: isinstance(v, list)
    and all(_IS_KIND[_NUMBER](c) for c in v),
    "null or a list of numbers": lambda v: v is None
    or _IS_KIND["a list of numbers"](v),
    "a list of number lists": lambda v: isinstance(v, list)
    and all(_IS_KIND["a list of numbers"](p) for p in v),
}


def _check_keys(path, doc, kinds, prefix="", optional=(), closed=True) -> None:
    """`doc` is an object with every key of `kinds` but the `optional` ones,
    each of the named kind, and, if `closed`, with no other key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    unknown = sorted(prefix + key for key in doc if key not in kinds) if closed else []
    if unknown:
        raise ValueError(f"{path}: unknown key {', '.join(unknown)}")
    missing = [prefix + key for key in kinds if key not in doc and key not in optional]
    if missing:
        raise ValueError(f"{path}: missing key {', '.join(missing)}")
    for key, kind in kinds.items():
        if key in doc and not _IS_KIND[kind](doc[key]):
            raise ValueError(f"{path}: {prefix}{key} must be {kind}")


def _read_shape(path: str) -> list[float]:
    """A --shape file's coefficients as floats: a JSON list of numbers, the
    kind a manifest's shape key holds, or a refusal naming the file.
    _plan builds and checks the filter, as for align."""
    doc = fileio.read_json(path)
    kind = "a list of numbers"
    if not _IS_KIND[kind](doc):
        raise ValueError(f"{path}: expected {kind}")
    return [float(c) for c in doc]


def _resolve_config(args) -> dict:
    """Defaults < JSON config file < flags < FVNLAB_SEED."""
    cfg = {key: default for key, (default, _) in _SETTINGS.items()}
    if args.config:
        doc = fileio.read_json(args.config)
        kinds = {key: kind for key, (_, kind) in _SETTINGS.items()}
        _check_keys(args.config, doc, kinds, optional=kinds)
        cfg.update(doc)
    for key in _SETTINGS:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    env_seed = _env_seed()
    if env_seed is not None:
        cfg["seed"] = env_seed
    return cfg


def _env_seed() -> int | None:
    """FVNLAB_SEED as a non-negative integer, or None when it is not set."""
    value = os.environ.get("FVNLAB_SEED")
    if value is None:
        return None
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"FVNLAB_SEED must be {_SEED}, got {value!r}")
    return seed


def _read_manifest(arg: str) -> tuple[Path, dict]:
    """Path and contents of a generate manifest (a file or its directory)."""
    path = Path(arg)
    if path.is_dir():
        path = path / "manifest.json"
    if not path.is_file():
        raise ValueError(f"no manifest at {path}; measurement needs provenance")
    manifest = fileio.read_json(path)
    # open: simulate forwards the manifest with a "simulate" key added
    _check_keys(path, manifest, _MANIFEST_KEYS, optional=("shape",), closed=False)
    owners = {}  # code_row -> the first channel on it
    for i, channel in enumerate(manifest["channels"]):
        _check_keys(path, channel, _CHANNEL_KEYS, f"channels[{i}].", closed=False)
        row = channel["code_row"]
        if row in owners:  # one row's channels cannot be told apart
            raise ValueError(
                f"{path}: channels[{owners[row]}] and channels[{i}] share code_row {row}"
            )
        owners[row] = i
    return path, manifest


def _read_at_manifest_rate(path: str | Path, manifest: dict) -> SampledSignal:
    """The WAV file at `path`, refused, naming it, unless its rate is the
    manifest's."""
    signal = fileio.read_wav(path)
    if signal.fs != manifest["fs"]:
        raise ValueError(
            f"{path}: rate {signal.fs} does not match manifest {manifest['fs']}"
        )
    return signal


def _read_recording(args) -> tuple[Path, dict, SampledSignal]:
    """The manifest's path, the manifest and the recording `measure` and
    `align` work on."""
    path, manifest = _read_manifest(args.manifest)
    return path, manifest, _read_at_manifest_rate(args.recording, manifest)


def _read_target(path: str) -> SimTarget:
    """A simulate target file, checked key by key before SimTarget is built."""
    doc = fileio.read_json(path)
    _check_keys(path, doc, _TARGET_KEYS, optional=("nonlinearity", "noise", "drift"))
    if doc.get("noise"):  # absent, null or {}: from_dict adds none
        _check_keys(path, doc["noise"], _NOISE_KEYS, "noise.")
    if doc.get("drift"):
        optional = ("ppm", "depth_s", "rate_hz")
        _check_keys(path, doc["drift"], _DRIFT_KEYS, "drift.", optional=optional)
    try:
        return SimTarget.from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _plan(
    manifest: dict, shape_source: str, where: Path | None = None
) -> tuple[np.ndarray, ShapingFilter | None]:
    """The manifest's code matrix and shaping filter, once its plan passes
    every check made before synthesis: the code count, sequence.check_plan,
    an emission longer than a WAV file holds, a rate beyond a WAV header,
    and a filter that is unstable or whose range breaks the float32 round
    trip.  A refusal starts with `where`, the manifest's path, if one is
    given; a refused filter's with `shape_source`, where its coefficients
    came from."""
    source, filt = where, None  # what a refusal names
    try:
        codes = build_code_matrix(int(manifest["codes"]))
        fs = float(manifest["fs"])
        rows = [int(channel["code_row"]) for channel in manifest["channels"]]
        period, reps = int(manifest["period_no"]), int(manifest["repetitions"])
        length = check_plan(float(manifest["sigma_t"]), fs, rows, codes, period, reps)
        if length > fileio.MAX_WAV_SAMPLES:
            raise ValueError(
                f"period_no x repetitions plus the pulse tail is {length} samples, "
                f"more than the {fileio.MAX_WAV_SAMPLES} a WAV file holds"
            )
        if fs > fileio.MAX_WAV_RATE:
            raise ValueError(
                f"fs must be at most {fileio.MAX_WAV_RATE} Hz for a WAV file"
            )
        if manifest.get("shape"):
            source = shape_source
            filt = ShapingFilter(np.asarray(manifest["shape"], dtype=np.float64))
            span = filt.range_db(fs)
            if span > MAX_SHAPE_RANGE_DB:
                raise ValueError(
                    f"the filter's gain spans {span:.1f} dB over 0..fs/2, more than "
                    f"the {MAX_SHAPE_RANGE_DB:.0f} dB a float32 round trip survives"
                )
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}" if source else str(exc)) from None
    return codes, filt


def _channels_from_manifest(manifest: dict, shape_source: str, where=None) -> tuple[
    np.ndarray, ShapingFilter | None, list[SampledSignal], Iterator[SampledSignal]
]:
    """Code matrix, shaping filter, unit pulses and lazily emitted signals,
    once _plan passes the manifest."""
    codes, filt = _plan(manifest, shape_source, where)
    channels = manifest["channels"]
    units, emitted = coded_channels(
        float(manifest["sigma_t"]),
        float(manifest["fs"]),
        [int(channel["seed"]) for channel in channels],
        [int(channel["code_row"]) for channel in channels],
        codes,
        int(manifest["period_no"]),
        int(manifest["repetitions"]),
        filt,
    )
    return codes, filt, units, emitted


def _peak_and_headroom(signal: SampledSignal) -> tuple[float, float]:
    """The largest |sample| and -20 log10 of it, as a report gives them: the
    written file's float32 samples round the peak as they round every
    sample."""
    peak = float(np.float32(np.max(np.abs(signal.samples))))
    return peak, float(-20.0 * np.log10(peak))


def cmd_generate(args) -> int:
    cfg = _resolve_config(args)
    shape = _read_shape(cfg["shape"]) if cfg["shape"] else None
    seed = int(cfg["seed"])
    codes = build_code_matrix(int(cfg["codes"]))  # rejects bad counts first
    manifest = {
        "fs": float(cfg["fs"]),
        "sigma_t": float(cfg["sigma_t"]),
        "codes": len(codes),
        "period_no": int(cfg["period_no"]),
        "repetitions": int(cfg["reps"]),
        "seed": seed,
        "channels": [
            {"file": f"channel_{i}.wav", "seed": seed + i, "code_row": i}
            for i in range(len(codes))
        ],
        "shape": shape,
    }
    start = time.perf_counter()
    _, filt, _, emitted = _channels_from_manifest(manifest, cfg["shape"])
    synthesized = time.perf_counter()
    out = _out_dir(args)

    def written():
        """Each channel, written to its file as it is emitted."""
        for channel, signal in zip(manifest["channels"], emitted):
            fileio.write_wav(out / channel["file"], signal)
            yield signal

    if len(codes) > 1:
        drive = multiplex(written())
        fileio.write_wav(out / "multiplexed.wav", drive)
    else:
        drive = next(written())  # the one channel; there is nothing to mix
    peak, headroom = _peak_and_headroom(drive)
    report = {
        "emitted_peak": peak,
        "headroom_db": headroom,
        "shape_range_db": None if filt is None else filt.range_db(manifest["fs"]),
        "timings_s": {
            "synthesize_s": synthesized - start,
            "emit_s": time.perf_counter() - synthesized,
        },
    }
    fileio.write_json(out / "manifest.json", manifest)
    fileio.write_json(out / "report.json", report)
    extra = " + multiplexed.wav" if len(codes) > 1 else ""
    print(f"wrote {len(codes)} channel(s){extra}, manifest and report to {out}")
    return 0


def cmd_simulate(args) -> int:
    path, manifest = _read_manifest(args.manifest)
    _plan(manifest, f"{path}: shape", path)  # forward no plan measure refuses
    channels = manifest["channels"]
    if args.config:
        target = _read_target(args.config)
    else:
        target = SimTarget(paths=[np.array([1.0])] * len(channels))
    if args.drift_ppm is not None:
        target = replace(target, drift=DriftSpec("linear", ppm=args.drift_ppm))
    inputs = (
        _read_at_manifest_rate(path.parent / ch["file"], manifest) for ch in channels
    )
    if len(target.paths) == len(channels):
        drive = inputs  # each channel is read as its path plays it
    elif len(target.paths) == 1 and len(channels) > 1:
        # one transducer: the mixed feed drives the single path, summed as
        # the files are read
        drive = [multiplex(inputs)]
    else:
        raise ValueError(
            f"target has {len(target.paths)} paths for {len(channels)} channels"
        )
    seed = _env_seed()
    if seed is None:
        seed = int(manifest["seed"]) if args.seed is None else args.seed
    # sim.simulate in two steps, so the emission is freed before the drift
    start = time.perf_counter()
    try:
        played = _play(target, drive)
    except OverflowError as exc:  # only a target file's path can overflow
        raise ValueError(f"{args.config}: {exc}") from None
    del drive
    source = f"{args.config}: drift.ppm" if args.drift_ppm is None else "--drift-ppm"
    period_no = int(manifest["period_no"])
    _check_drift(source, target.drift, len(played), period_no)
    played_at = time.perf_counter()
    recorded = _capture(target, played, seed)
    captured = time.perf_counter()
    out = _out_dir(args)
    fileio.write_wav(out / "recording.wav", recorded)
    manifest = dict(manifest)
    manifest["simulate"] = {
        "target": str(args.config) if args.config else "identity",
        "seed": seed,
        "drift_ppm": args.drift_ppm,
    }
    fileio.write_json(out / "manifest.json", manifest)
    peak, headroom = _peak_and_headroom(recorded)
    longest = max(p.size for p in target.paths)
    report = {
        "recorded_peak": peak,
        "headroom_db": headroom,
        "period_no": period_no,
        "longest_path_samples": longest,
        "timings_s": {
            "paths_s": played_at - start,
            "capture_s": captured - played_at,
            "write_s": time.perf_counter() - captured,
        },
    }
    fileio.write_json(out / "report.json", report)
    print(f"wrote recording.wav ({recorded.duration:.2f} s) and report to {out}")
    if longest > period_no:
        print(
            f"note: a path FIR of {longest} samples outlasts the "
            f"{period_no}-sample period; its tail folds into the next period"
        )
    return 0


def _check_drift(
    source: str, drift: DriftSpec | None, length: int, period_no: int
) -> None:
    """Refuse a linear drift whose clock runs through the source more than
    one period before the record ends, naming `source`: time at 1 + s reads
    the last source sample at N / (1 + s), so the last s / (1 + s) * N of
    the N = length samples recorded would hear nothing."""
    if drift is None or drift.kind != "linear":
        return
    rate = drift.ppm * 1e-6
    silent = rate / (1.0 + rate) * length
    if silent > period_no:
        raise ValueError(
            f"{source} {drift.ppm:g} runs out of source {silent:.0f} samples before "
            f"the end of the {length}-sample record, more than one period ({period_no})"
        )


def cmd_measure(args) -> int:
    path, manifest, recorded = _read_recording(args)
    codes, filt, units, _ = _channels_from_manifest(manifest, f"{path}: shape", path)
    start = time.perf_counter()
    rows = [int(ch["code_row"]) for ch in manifest["channels"]]
    result = demultiplex(
        recorded,
        units,
        codes,
        int(manifest["period_no"]),
        code_row_indices=rows,
        total_periods=int(manifest["repetitions"]),
        filt=filt,
    )
    if len(units) > 1:  # the linear/nonlinear split needs several codes
        result = separate_nonlinear(result)
    demultiplexed = time.perf_counter()
    out = _out_dir(args)
    fileio.write_wav(out / "linear_ir.wav", result.linear_ir)
    for row, ir in zip(rows, result.per_code_irs):
        fileio.write_wav(out / f"per_code_ir_{row}.wav", ir)
    report = {
        "fs": recorded.fs,
        "period_no": result.period_no,
        "periods_averaged": result.periods_averaged,
        "code_rows": rows,
        "linear_ir_rms": result.linear_ir.rms(),
        "per_code_rms": [ir.rms() for ir in result.per_code_irs],
    }
    if result.deviations is not None:
        for row, dev in zip(rows, result.deviations):
            fileio.write_wav(out / f"deviation_{row}.wav", dev)
        report["deviation_rms"] = [float(r) for r in result.deviation_rms]
        report["pooled_deviation_rms"] = result.pooled_deviation_rms
    report["timings_s"] = {
        "demultiplex_s": demultiplexed - start,
        "write_s": time.perf_counter() - demultiplexed,
    }
    fileio.write_json(out / "report.json", report)
    print(
        f"wrote linear_ir.wav + {len(rows)} per-code IR(s) to {out} "
        f"({result.periods_averaged} periods averaged)"
    )
    return 0


def cmd_analyze(args) -> int:
    ir = fileio.read_wav(args.ir)
    length = None
    if args.truncate_ms is not None:
        # compared before rounding: a huge flag value gives inf samples
        samples = args.truncate_ms * 1e-3 * ir.fs
        if not 1.5 <= samples <= len(ir) + 0.5:
            raise ValueError(
                f"--truncate-ms is {samples:.0f} samples, outside 2..{len(ir)}"
            )
        length = int(round(samples))
    smoothed = third_octave_smooth(power_spectrum(ir, analysis_length=length))
    out = _out_dir(args)
    fileio.write_spectrum_csv(out / "spectrum.csv", smoothed.freqs, smoothed.level_db)
    print(
        f"wrote spectrum.csv ({smoothed.freqs.size} bands, "
        f"{smoothed.freqs[0]:.0f}..{smoothed.freqs[-1]:.0f} Hz) to {out}"
    )
    return 0


def cmd_align(args) -> int:
    path, manifest, recorded = _read_recording(args)
    *_, emitted = _channels_from_manifest(manifest, f"{path}: shape", path)
    start = time.perf_counter()
    reference = multiplex(emitted)
    try:
        delays = track_block_delays(reference, recorded, int(manifest["period_no"]))
        warp = delays.warp(recorded.duration)
    except ValueError as exc:
        raise RuntimeError(f"alignment failed: {exc}") from exc
    del reference  # apply_warp's buffers come next
    tracked = time.perf_counter()
    aligned = apply_warp(recorded, warp)
    warped = time.perf_counter()
    fs = recorded.fs
    out = _out_dir(args)
    fileio.write_wav(out / "aligned.wav", aligned)
    # one row per block: its centre on the capture and the playback clock
    fileio.write_warp_csv(
        out / "warp.csv", (delays.centres + delays.lags) / fs, delays.centres / fs
    )
    scale = 1.0 + delays.slope  # recording samples per reference sample
    report = {
        "slope": 1.0 / scale,
        "intercept_s": -delays.intercept / (scale * fs),
        "drift_ppm": (1.0 / scale - 1.0) * 1e6,
        "blocks": int(delays.lags.size),
        "blocks_used": int(np.count_nonzero(delays.used)),
        "lag_residual_rms_samples": delays.residual_rms,
        "timings_s": {
            "track_s": tracked - start,
            "warp_s": warped - tracked,
            "write_s": time.perf_counter() - warped,
        },
    }
    fileio.write_json(out / "report.json", report)
    print(
        f"wrote aligned.wav and warp.csv to {out} "
        f"(drift {report['drift_ppm']:+.2f} ppm)"
    )
    return 0


def cmd_selftest(args) -> int:
    from . import selftest  # no other command needs the acceptance suite

    return 0 if selftest.run_all() else 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on flag mistakes; here those are validation errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's private pattern for a value that looks like an option but
        # is a negative number takes -5 and -1.5 only; this one also takes
        # -1e6, -.5, -inf and -nan, which float() reads, so such a value
        # reaches its flag's own check
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fvnlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    gen = sub.add_parser("generate", help="synthesize test signals + manifest")
    gen.add_argument("--config", help="JSON file with generation parameters")
    gen.add_argument("--fs", type=float, help="sample rate in Hz")
    gen.add_argument("--sigma-t", dest="sigma_t", type=float, help="pulse spread in s")
    gen.add_argument("--codes", type=int, help="number of code-multiplexed channels")
    gen.add_argument("--period-no", dest="period_no", type=int, help="period in samples")
    gen.add_argument("--reps", type=int, help="repetitions per channel")
    gen.add_argument("--seed", type=int, help="base seed (channel i uses seed + i)")
    gen.add_argument("--shape", help="JSON shaping-filter file (see design_slope_filter)")
    gen.add_argument("--out-dir", dest="out_dir", required=True)
    gen.set_defaults(func=cmd_generate)

    sim = sub.add_parser("simulate", help="play signals through a simulated target")
    sim.add_argument("manifest", help="manifest file or generate output directory")
    sim.add_argument("--config", help="JSON target description (default: identity)")
    sim.add_argument("--seed", type=int, help="noise seed (default: manifest seed)")
    sim.add_argument(
        "--drift-ppm", dest="drift_ppm", type=float, help="add linear clock drift"
    )
    sim.add_argument("--out-dir", dest="out_dir", required=True)
    sim.set_defaults(func=cmd_simulate)

    mea = sub.add_parser("measure", help="demultiplex a recording into IRs")
    mea.add_argument("recording", help="recorded WAV file")
    mea.add_argument("manifest", help="manifest file or directory")
    mea.add_argument("--out-dir", dest="out_dir", required=True)
    mea.set_defaults(func=cmd_measure)

    ana = sub.add_parser("analyze", help="third-octave spectrum of an IR")
    ana.add_argument("ir", help="impulse-response WAV file")
    ana.add_argument(
        "--truncate-ms",
        dest="truncate_ms",
        type=float,
        help="analyze only the first N milliseconds",
    )
    ana.add_argument("--out-dir", dest="out_dir", required=True)
    ana.set_defaults(func=cmd_analyze)

    ali = sub.add_parser("align", help="estimate and undo clock drift")
    ali.add_argument("recording", help="recorded WAV file")
    ali.add_argument("manifest", help="manifest file or directory")
    ali.add_argument("--out-dir", dest="out_dir", required=True)
    ali.set_defaults(func=cmd_align)

    sub.add_parser("selftest", help="run the acceptance suite").set_defaults(
        func=cmd_selftest
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    flags = {k: v for k, v in vars(args).items() if k in _FLAG_KINDS and v is not None}
    try:
        _check_keys("command line", flags, _FLAG_KINDS, optional=_FLAG_KINDS)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
