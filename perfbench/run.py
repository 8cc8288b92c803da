"""Seeded benchmark of the fvnlab CLI pipeline (generate, simulate, align,
measure, analyze).

    python3 perfbench/run.py --workload cli_short --seed 1 --seconds 30 --trace 0

--workload is one of cli_short, long_drift, codes_shaped, or all.  With
--trace 0 the last line of standard output is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run.  Lines before it print every metric by name with its unit,
accuracy against the simulated truth, and provenance.  Work files go to
.perfbench_work/ in the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7  # set-ups per run; setup_s is their median
IMPORT_REPEATS = 3  # interpreter probes per traced run, for import.fvnlab_cli_s
STEP_TIMEOUT_S = 150


def _median(values):
    return statistics.median(values) if values else 0.0


def _timed_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=STEP_TIMEOUT_S
    )
    return time.perf_counter() - start, done


def _python(*args) -> list[str]:
    return [sys.executable, *map(str, args)]


class Runner:
    """One workload, one seed: set-up, timed passes, checks, metrics."""

    def __init__(self, w, seed: int, seconds: float, trace: bool):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.work = WORK / f"{w.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.tracer = None
        self.tracing = False  # wrappers installed: the pass is a traced one
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.passes: list[dict] = []

    # -- set-up -------------------------------------------------------------

    def setup(self) -> list[float]:
        """Fresh-interpreter set-ups; the last one leaves the inputs in place."""
        times = []
        for _ in range(SETUP_REPEATS):
            elapsed, done = _timed_child(
                _python(HERE / "child.py", "setup", self.w.name, self.seed, self.inputs)
            )
            if done.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{done.stderr}")
            times.append(elapsed)
        return times

    def traced_setup(self) -> None:
        """In-process set-up under the tracer (design_slope_filter's span)."""
        import fvnlab.cli  # noqa: F401
        from workloads import write_inputs

        self.tracer.install()
        self.tracer.pass_id = "setup"
        try:
            write_inputs(self.w, self.seed, self.inputs)
        finally:
            self.tracer.uninstall()

    # -- one pass -------------------------------------------------------------

    def _step_in_process(self, argv: list[str]) -> float:
        import fvnlab.cli  # loaded before the first pass, see run_workload

        span = self.tracer.span("cli.main") if self.tracing else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            with span:
                code = fvnlab.cli.main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return elapsed

    def _step_subprocess(self, argv: list[str], pass_dir: Path) -> float:
        if not self.tracing:
            elapsed, done = _timed_child(_python("-m", "fvnlab.cli", *argv))
        else:
            spans_file = pass_dir / f"spans-{argv[0]}.json"
            parent = len(self.tracer.spans)
            with self.tracer.span("cli.process"):
                elapsed, done = _timed_child(
                    _python(HERE / "child.py", "cli", spans_file, *argv)
                )
            if done.returncode == 0:
                doc = json.loads(spans_file.read_text())
                self.tracer.adopt(doc["spans"], parent, self.tracer.pass_id)
                for name, n in doc["counts"]:
                    self.tracer.counts[(self.tracer.pass_id, name)] += n
        if done.returncode != 0:
            raise RuntimeError(f"exit code {done.returncode}: {done.stderr.strip()[-400:]}")
        return elapsed

    def run_pass(self, fir) -> None:
        from workloads import accuracy, check_step, commands

        index = len(self.passes)
        pass_dir = self.work / f"pass{index}"
        steps = commands(self.w, self.seed, self.inputs, pass_dir)
        pass_dir.mkdir(parents=True)
        if self.tracing:
            self.tracer.pass_id = index
        gc.collect()
        times = {}
        for k, (step, argv) in enumerate(steps):
            self.attempted += 1
            try:
                if self.w.in_process:
                    times[step] = self._step_in_process(argv)
                else:
                    times[step] = self._step_subprocess(argv, pass_dir)
                check_step(step, self.w, pass_dir, fir.size)
            except Exception:  # any failure of the program is counted, not fatal
                self.failed += len(steps) - k
                self.attempted += len(steps) - k - 1
                self.errors.append(f"pass {index} {step}: {traceback.format_exc()}")
                break
        record = {"traced": self.tracing, "step_s": times}
        if len(times) == len(steps):
            record["pipeline_s"] = sum(times.values())
            record["analysis_s"] = sum(
                times.get(s, 0.0) for s in ("align", "measure", "analyze")
            )
            record["accuracy"] = accuracy(self.w, pass_dir, fir)
            ir = (pass_dir / "meas" / "linear_ir.wav").read_bytes()
            record["linear_ir_sha256"] = hashlib.sha256(ir).hexdigest()
        self.passes.append(record)
        shutil.rmtree(pass_dir)

    def run_passes(self, fir) -> None:
        """Passes while the next one is expected to end within the window, and
        at least one (two when traced).  A traced run alternates untraced and
        traced passes, starting untraced, so drift in machine speed falls on
        both kinds alike."""
        start = time.perf_counter()
        longest = 0.0
        while True:
            self.tracing = self.trace and len(self.passes) % 2 == 1
            if self.tracing:
                self.tracer.install()
            began = time.perf_counter()
            try:
                self.run_pass(fir)
            finally:
                if self.tracing:
                    self.tracer.uninstall()
                    self.tracing = False
            now = time.perf_counter()
            longest = max(longest, now - began)
            enough = len(self.passes) >= (2 if self.trace else 1)
            if enough and now - start + longest > self.seconds:
                return


def _import_probe() -> float:
    """Median fresh `import fvnlab.cli` minus median bare interpreter start."""
    bare = [_timed_child(_python("-c", "pass"))[0] for _ in range(IMPORT_REPEATS)]
    full = [
        _timed_child(_python("-c", "import fvnlab.cli"))[0] for _ in range(IMPORT_REPEATS)
    ]
    return _median(full) - _median(bare)


def _peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"tail percentile needs >= 11 samples, have {n}"
    p = 100.0 * (n - 10) / n
    return f"p{p:.0f} {sorted(values)[n - 11]:.4f} s"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "fvnlab").glob("*.py"))
    )
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": src_lines,
    }


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import tracing

    runner = Runner(w, seed, seconds, trace)
    if runner.work.exists():
        shutil.rmtree(runner.work)
    try:
        if trace:
            runner.tracer = tracing.Tracer()
            runner.traced_setup()
            setup_times = []
            import_s = _import_probe()
        else:
            setup_times = runner.setup()
        target = json.loads((runner.inputs / "target.json").read_text())
        fir = np.asarray(target["paths"][0])
        if w.in_process:
            import fvnlab.cli  # noqa: F401  paid once, as measured by setup_s
        runner.run_passes(fir)
        recorded = w.reps * w.period_no + fir.size - 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    done = [p for p in runner.passes if "pipeline_s" in p]
    untraced = [p for p in done if not p["traced"]]
    digests = {p["linear_ir_sha256"] for p in done}
    if len(digests) > 1:
        runner.errors.append("linear_ir.wav differs between passes of one seed")
    peak_mb = _peak_rss_mb(w.in_process)
    if trace:
        metrics = {
            "import.fvnlab_cli_s": (import_s, "s"),
            **_layer_metrics(runner, untraced, peak_mb, recorded),
        }
    else:
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "pipeline_s": (_median([p["pipeline_s"] for p in untraced]), "s"),
            "analysis_s": (_median([p["analysis_s"] for p in untraced]), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    result = {
        "workload": w.name,
        "trace": int(trace),
        "correct": runner.failed == 0 and bool(done) and len(digests) == 1,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "metrics": metrics,
        "accuracy": done[0]["accuracy"] if done else {},
        "passes": runner.passes,
        "setup_samples_s": setup_times,
        "tail": _tail([p["pipeline_s"] for p in untraced]),
        "errors": runner.errors,
        "provenance": provenance(seed),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if runner.tracer is not None:
        with open(results / f"{stem}-spans.jsonl", "w") as handle:
            for span in runner.tracer.spans:
                handle.write(json.dumps(span) + "\n")
    return result


def _layer_metrics(runner, untraced, peak_mb, recorded) -> dict:
    import tracing

    tracer = runner.tracer
    self_times = tracer.self_times()
    traced = [i for i, p in enumerate(runner.passes) if p["traced"] and "pipeline_s" in p]
    names = ["import.in_pass", "cli.process", "cli.main"] + [
        tracing.span_name(module, func)
        for module, funcs in tracing.LAYERS.items()
        for func in funcs
    ]
    out = {}
    for name in names:
        if name == "sequence.design_slope_filter":
            value = self_times.get(("setup", name), 0.0)
        else:
            value = _median([self_times.get((i, name), 0.0) for i in traced])
        out[f"{name}_s"] = (value, "s")
    for counter, _ in tracing.COUNTERS.values():
        unit = "B" if counter.startswith("fileio.") else "count"
        out[counter] = (_median([tracer.counts.get((i, counter), 0) for i in traced]), unit)
    traced_pipeline = _median([runner.passes[i]["pipeline_s"] for i in traced])
    untraced_pipeline = _median([p["pipeline_s"] for p in untraced])
    attributed = _median(
        [
            sum(t for (pid, name), t in self_times.items() if pid == i)
            for i in traced
        ]
    )
    out["memory.rss_bytes_per_sample"] = (peak_mb * 2**20 / recorded, "B")
    out["trace.pipeline_s"] = (traced_pipeline, "s")
    out["trace.untraced_pipeline_s"] = (untraced_pipeline, "s")
    out["trace.overhead_s"] = (traced_pipeline - untraced_pipeline, "s")
    out["trace.unattributed_s"] = (traced_pipeline - attributed, "s")
    return out


def summary(result: dict) -> list[str]:
    lines = [
        f"== {result['workload']} seed {result['provenance']['seed']} "
        f"trace {result['trace']}: {len(result['passes'])} pass(es)"
    ]
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"  {name:<36} {value:.6g} {unit}")
    lines.append(f"  {'fail_ratio':<36} {result['fail_ratio']:.6g} "
                 f"({result['failed']} of {result['attempted']} operations)")
    acc = result["accuracy"]
    if "ir_err_db" in acc:
        lines.append(f"  {'ir_err_db':<36} {acc['ir_err_db']:.6g} dB")
    if "drift_err_ppm" in acc:
        lines.append(
            f"  {'drift_err_ppm':<36} {acc['drift_err_ppm']:.6g} ppm "
            f"(reported {acc['drift_ppm_reported']:.4g} ppm)"
        )
    if "linear_ir_rms" in acc:
        lines.append(f"  {'linear_ir_rms':<36} {acc['linear_ir_rms']:.6g}")
    lines.append(f"  pipeline_s tail: {result['tail']}")
    lines.append(f"  provenance: {json.dumps(result['provenance'])}")
    lines.extend(f"  error: {e}" for e in result["errors"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fvnlab" / "cli.py").is_file():
        print(f"error: no fvnlab sources under {SRC}", file=sys.stderr)
        return 2
    # Thread pools are pinned before numpy loads, in this process and in
    # every child, so one driving process uses at most one core.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FVNLAB_SEED", None)  # would override the derived seeds
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary(result)))
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(line))
    return 0


def _run_all(names: list[str], args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run(
            _python(Path(__file__), "--workload", name, "--seed", args.seed,
                    "--seconds", args.seconds, "--trace", args.trace),
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout, end="")
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        total["correct"] = total["correct"] and last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
