"""One workload job in a fresh process; started by run.py, one per job.

    python3 perfbench/job.py --workload W --seed S --mode plain|traced|setup \
        --spawned T --out result.json

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time runs from interpreter start to the first timed
call.  ``setup`` mode stops after the inputs are built.  ``traced`` mode
wraps the layers before set-up and writes its spans next to ``--out``.
The result is one JSON object written to ``--out``.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"),
                        required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import jflow  # first: it copies JFLOW_THREADS to the BLAS variables
    import numpy
    from perfbench.workloads import WORKLOADS

    tracer = installed = None
    if args.mode == "traced":
        from perfbench.tracer import Tracer

        tracer = Tracer()
        installed = tracer.install()
    prepare, execute, check = WORKLOADS[args.workload]
    inputs = prepare(args.seed)

    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    first_call = time.monotonic()
    out["setup_s"] = first_call - args.spawned
    if args.mode != "setup":
        t0 = time.perf_counter()
        outputs = execute(inputs)
        out["wall_s"] = time.perf_counter() - t0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        out["cpu_s"] = ((usage1.ru_utime - usage0.ru_utime)
                        + (usage1.ru_stime - usage0.ru_stime))
        out["peak_rss_mb"] = usage1.ru_maxrss / 1024.0
        out.update(check(inputs, outputs))
    out["machine"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "jflow": jflow.__version__,
        "JFLOW_THREADS": os.environ.get("JFLOW_THREADS"),
        "threads_at_exit": _threads(),
    }
    if tracer is not None:
        spans = Path(args.out).with_suffix(".spans.npz")
        tracer.dump(spans, installed)
        out["spans"] = str(spans)
        out["span_count"] = len(tracer)
    Path(args.out).write_text(json.dumps(out), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
