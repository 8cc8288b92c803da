"""Child processes of the benchmark.

    python perfbench/child.py setup <workload> <seed> <dir>
        one set-up: fresh interpreter, `import fvnlab.cli`, write the
        workload's target, generate config and (if shaped) filter to <dir>.
    python perfbench/child.py cli <spans.json> <fvnlab argv...>
        one traced CLI call: time the import, wrap the layers, run
        fvnlab.cli.main and write the spans and counts to <spans.json>.

Both expect the repository's src/ on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        import fvnlab.cli  # noqa: F401  the import every CLI user pays

        from workloads import WORKLOADS, write_inputs

        write_inputs(WORKLOADS[sys.argv[2]], int(sys.argv[3]), Path(sys.argv[4]))
    elif mode == "cli":
        from tracing import Tracer

        tracer = Tracer()
        with tracer.span("import.in_pass"):
            import fvnlab.cli
        tracer.install()
        with tracer.span("cli.main"):
            code = fvnlab.cli.main(sys.argv[3:])
        counts = [[name, n] for (_, name), n in tracer.counts.items()]
        Path(sys.argv[2]).write_text(json.dumps({"spans": tracer.spans, "counts": counts}))
        raise SystemExit(code)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
