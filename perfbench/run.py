"""jflow benchmark: time to solution on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Every job runs in a fresh single-threaded
process (``JFLOW_THREADS=1``, which jflow copies to the BLAS thread variables
on import) started by this script, which waits for each one.

``--trace 0`` first starts set-up-only processes, then repeats the
workload's job, each in its own process, for as long as another job is
expected to finish within ``--seconds`` (at least once).  It reports the
medians of the end-to-end metrics: wall_s, cpu_s, setup_s (interpreter
start to the first timed call) and peak_rss_mb.

``--trace 1`` runs the job once untraced and twice with every layer wrapped
from outside (see tracer.py).  It reports the per-layer metrics of
layers.py; exact counts must agree between the two traced runs and timed
metrics are their mean.  trace.overhead_ratio compares traced and untraced
wall time.

Every job's results are checked (see workloads.py).  The last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics.  ``correct`` is false when a job did not finish, when repeats of one
seed disagree, or when a result that claims success fails its check;
operations that fail honestly are counted in ``failed``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROCESSES = 10
JOB_TIMEOUT_S = 150.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def machine_record(seed: int, job: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "seed": seed,
            **job.get("machine", {})}


class Runner:
    """Starts job processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.count = 0

    def job(self, mode: str) -> dict:
        self.count += 1
        out = OUT / f"{self.workload}-{os.getpid()}-{self.count}.json"
        cmd = [sys.executable, str(ROOT / "perfbench" / "job.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--out", str(out)]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)],
                                env={**os.environ, "JFLOW_THREADS": "1"},
                                stdout=subprocess.DEVNULL)
        try:
            returncode = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"mode": mode,
                    "error": f"timed out after {JOB_TIMEOUT_S} s"}
        finally:
            # also on SIGTERM (raised as SystemExit): leave no job behind
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if returncode != 0 or not out.exists():
            return {"mode": mode, "error": f"exit code {returncode}"}
        result = json.loads(out.read_text(encoding="ascii"))
        out.unlink()
        return result


def check_jobs(jobs: list) -> list:
    """Reasons the run is not correct: missing results, wrong claims,
    repeats that disagree."""
    problems = [f"job {j['mode']}: {j['error']}" for j in jobs if "error" in j]
    done = [j for j in jobs if "error" not in j and j["mode"] != "setup"]
    for j in done:
        for op in j["ops"]:
            if op["claimed"] and not op["ok"]:
                problems.append(f"{op['name']} claims success but fails its "
                                f"check: {op['detail']}")
    if len({j["fingerprint"] for j in done}) > 1:
        problems.append("repeats of one seed gave different results")
    return problems


def report_jobs(jobs: list) -> None:
    for j in jobs:
        if "error" in j or j["mode"] == "setup":
            continue
        print(f"job {j['mode']}: wall {j['wall_s']:.3f} s, cpu "
              f"{j['cpu_s']:.3f} s, setup {j['setup_s']:.3f} s, peak rss "
              f"{j['peak_rss_mb']:.1f} MB, {len(j['ops'])} ops, "
              f"fingerprint {j['fingerprint'][:16]}")
    first = next((j for j in jobs if "ops" in j), None)
    if first is not None:
        for op in first["ops"]:
            print(f"  {'ok  ' if op['ok'] else 'FAIL'} {op['name']}: "
                  f"{op['detail']}")


def end_to_end(runner: Runner, seconds: float) -> list:
    start = time.monotonic()
    jobs = [runner.job("setup") for _ in range(SETUP_PROCESSES)]
    job_start = time.monotonic()
    while True:
        jobs.append(runner.job("plain"))
        now = time.monotonic()
        per_job = (now - job_start) / (len(jobs) - SETUP_PROCESSES)
        if now - start + per_job > seconds or "error" in jobs[-1]:
            return jobs


def e2e_metrics(jobs: list) -> dict:
    ran = [j for j in jobs if "wall_s" in j]
    setups = [j["setup_s"] for j in jobs if "setup_s" in j]
    values = {"wall_s": [j["wall_s"] for j in ran],
              "cpu_s": [j["cpu_s"] for j in ran],
              "setup_s": setups,
              "peak_rss_mb": [j["peak_rss_mb"] for j in ran]}
    print(f"end-to-end, medians of {len(ran)} job(s) and {len(setups)} "
          f"set-up(s):")
    metrics = {}
    for name, v in values.items():
        if v:
            metrics[name] = {"value": statistics.median(v),
                             "unit": E2E_UNITS[name]}
            print(f"  {name:48s} {metrics[name]['value']:>14.6g} "
                  f"{E2E_UNITS[name]}")
    return metrics


def per_layer(workload: str, jobs: list, problems: list) -> dict:
    from perfbench.layers import METRICS, Spans, layer_metrics

    plain = jobs[0]
    traced = jobs[1:]
    if any("error" in j for j in jobs):
        return {}
    spans = [Spans(job["spans"]) for job in traced]
    for job in traced:
        Path(job["spans"]).unlink()
        print(f"traced job: {job['span_count']} spans")
    results = [layer_metrics(s, job, plain["wall_s"])
               for s, job in zip(spans, traced)]
    metrics = {}
    for name, (unit, _, exact, _, _) in METRICS.items():
        values = [r[name] for r in results]
        if values[0] is None:
            print(f"  {name:48s} ABSENT (its wrap target is gone or "
                  f"bypassed)")
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if exact and len(set(values)) > 1:
            problems.append(f"{name} differs between traced runs: {values}")
        value = values[0] if exact else statistics.mean(values)
        print(f"  {name:48s} {value:>14.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    if workload == "newton_ladder":
        print_cg_beside_applies(results[0], spans[0], traced[0])
    return metrics


def print_cg_beside_applies(result: dict, spans, job: dict) -> None:
    """The known Newton defect: _pcg reports maxiter when its stall guard
    or pap <= 0 ends it early, so the reported CG iterations overstate the
    operator applications made."""
    from perfbench.layers import applies_per_solve

    applies = result["critical.operator_applies"]
    print(f"critical.cg_iters_reported {result['critical.cg_iters_reported']}"
          f" beside critical.operator_applies "
          f"{'ABSENT' if applies is None else applies}; _pcg reports maxiter "
          f"when its stall guard or pap <= 0 ends it early:")
    for _, op, applied in applies_per_solve(spans, job):
        print(f"  {op['name']}: cg_iterations {op['cg_iterations']} "
              f"(sum {sum(op['cg_iterations'])}), operator applies "
              f"{'ABSENT' if applies is None else applied}")


def check_declaration(workload: str) -> str | None:
    """The metrics printed must be the ones BENCHMARK.json declares."""
    from perfbench.layers import METRICS
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != E2E_UNITS:
        return "end_to_end metrics differ from BENCHMARK.json"
    declared = {m["name"]: (m["unit"], m["better"])
                for m in spec["per_layer"]}
    if declared != {name: m[:2] for name, m in METRICS.items()}:
        return "per_layer metrics differ from BENCHMARK.json"
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        return "workloads differ from BENCHMARK.json"
    if workload not in WORKLOADS:
        return f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (ROOT / "src" / "jflow" / "__init__.py").is_file():
        return fail(f"no jflow sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    problem = check_declaration(args.workload)
    if problem:
        return fail(problem)
    OUT.mkdir(exist_ok=True)

    runner = Runner(args.workload, args.seed)
    if args.trace:
        jobs = [runner.job(mode) for mode in ("plain", "traced", "traced")]
    else:
        jobs = end_to_end(runner, args.seconds)
    done = [j for j in jobs if "machine" in j]
    if not done:
        return fail(f"no job finished: {jobs[0].get('error')}")
    print("machine " + json.dumps(machine_record(args.seed, done[-1])))
    report_jobs(jobs)
    problems = check_jobs(jobs)
    if args.trace:
        e2e_metrics(jobs[:1])
        print("per-layer, traced:")
        metrics = per_layer(args.workload, jobs, problems)
    else:
        metrics = e2e_metrics(jobs)

    # repeats of one seed must give the same results (check_jobs), so the
    # operations are counted once, whatever number of jobs fit in the run
    ops = next((j["ops"] for j in jobs if "ops" in j), [])
    failed = sum(not op["ok"] for op in ops)
    attempted = max(len(ops), 1)
    print(f"fail_ratio = {failed}/{len(ops)} = {failed / attempted:.4f} "
          f"(one job's operations)")
    fingerprints = {j["fingerprint"] for j in jobs if "fingerprint" in j}
    if args.workload == "proptest_seed":
        for digest in sorted(fingerprints):
            print(f"report digest {digest}")
    for problem in dict.fromkeys(problems):
        print(f"INCORRECT: {problem}")
    print(json.dumps({"correct": not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
