"""The three benchmark workloads: seeded inputs, the timed job, result checks.

Each workload is three functions.  ``prepare(seed)`` builds grids, the
``FlowSetup`` and every input potential from the seed; it is set-up and is
not part of the timed job.  ``execute(inputs)`` is the job: it calls the
program's public entry points on the prepared inputs and returns their
outputs untouched.  ``check(inputs, outputs)`` runs after the clock stops.
It returns one record per operation plus a fingerprint of the outputs, so
that repeats of one seed can be compared exactly.

A failed check marks its operation as failed.  An exception raised by the
program is caught, kept as the operation's output and counted the same way.
``claimed`` says whether the program itself reported success, so a result
that claims success but fails its check can be told apart from an honest
failure.
"""

from __future__ import annotations

import hashlib
import json

import jflow.critical
import jflow.flow
import jflow.sampling
import jflow.torus
import numpy as np

OMEGA = np.eye(2)
CHI0 = 2.0 * np.eye(2)

FLOW_POINTS = 16
LADDER_POINTS = (32, 64, 128)
LADDER_POTENTIALS = 9
NEWTON_TOL = 1e-10
SOLUTION_BOUND = 1e-6


def _attempt(fn, *args):
    """fn(*args), or the exception it raised; the program must not raise,
    so an exception is a failed operation, not a failed benchmark."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _op(name: str, ok: bool, claimed: bool, detail: str, **extra) -> dict:
    return {"name": name, "ok": bool(ok), "claimed": bool(claimed),
            "detail": detail, **extra}


def _raised(name: str, exc: Exception, **extra) -> dict:
    return _op(name, False, False, f"raised {exc!r}", **extra)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# flow16_converge ------------------------------------------------------------

def prepare_flow16(seed: int) -> dict:
    grid = jflow.torus.TorusGrid(n=2, points=FLOW_POINTS, mode="invariant")
    setup = jflow.flow.FlowSetup(grid=grid, omega=OMEGA, chi0=CHI0,
                                 deriv="fd4", sample_interval=10,
                                 tol_converge=1e-8)
    phi0 = jflow.sampling.random_admissible_potential(
        jflow.sampling.make_rng(seed, stream=7), grid, CHI0,
        band=2, amplitude=0.4)
    return {"setup": setup, "phi0": phi0}


def execute_flow16(inputs: dict):
    return _attempt(jflow.flow.run, inputs["setup"], inputs["phi0"])


def descent_mismatch(result) -> float:
    """Worst |dJhat/dt + dissipation rate| over its tolerance (criterion 5)."""
    records = result.records
    if len(records) < 2:
        return 0.0
    jhat = np.array([r.Jhat for r in records])
    t = np.array([r.t for r in records])
    diss = np.asarray(result.diss_totals)
    mismatch = np.abs(np.diff(jhat) + np.diff(diss)) / np.diff(t)
    tol = 1e-4 * np.maximum(np.abs(jhat[1:]), 1e-7 * abs(jhat[0]))
    return float(np.max(mismatch / tol))


def check_flow16(inputs: dict, result) -> dict:
    if isinstance(result, Exception):
        return {"ops": [_raised("run", result)],
                "fingerprint": f"raised {type(result).__name__}"}
    residual = float(result.final.residual)
    mismatch = descent_mismatch(result)
    checks = {
        "verdict": result.verdict == "converged",
        "residual": residual < 1e-8,
        "jhat_monotone": bool(result.jhat_monotone),
        "band_ok": bool(jflow.flow.monitor_max_principle(result)["band_ok"]),
        "descent": mismatch <= 1.0,
    }
    failed = [k for k, v in checks.items() if not v]
    detail = (f"verdict={result.verdict} steps={result.steps} "
              f"samples={len(result.records)} t={result.final.t:.1f} "
              f"residual={residual:.2e} descent={mismatch:.2e}"
              + (f" failed={failed}" if failed else ""))
    op = _op("run", not failed, result.verdict == "converged", detail)
    fingerprint = _digest([result.verdict, result.steps, repr(residual),
                           repr(float(result.records[-1].Jhat))])
    return {"ops": [op], "fingerprint": fingerprint}


# newton_ladder --------------------------------------------------------------

def prepare_newton(seed: int) -> dict:
    problems = []
    for points in LADDER_POINTS:
        grid = jflow.torus.TorusGrid(n=2, points=points, mode="invariant")
        for j in range(LADDER_POTENTIALS):
            phi0 = jflow.sampling.random_admissible_potential(
                jflow.sampling.make_rng(seed, stream=9 + j), grid, CHI0,
                band=2, amplitude=0.4)
            problems.append((f"N{points}.{j}", grid, phi0))
    settings = jflow.critical.NewtonSettings(tol=NEWTON_TOL)
    return {"problems": problems, "settings": settings}


def execute_newton(inputs: dict) -> list:
    return [_attempt(jflow.critical.newton_solve, grid, OMEGA, CHI0, phi0,
                     inputs["settings"])
            for _, grid, phi0 in inputs["problems"]]


def check_newton(inputs: dict, outputs: list) -> dict:
    ops = []
    for (name, grid, _), out in zip(inputs["problems"], outputs):
        if isinstance(out, Exception):
            ops.append(_raised(name, out, points=grid.points, iterations=0,
                               cg_iterations=[], accepted=0))
            continue
        phi, report = out
        sup = float(np.max(np.abs(phi)))
        detail = (f"converged={report.converged} iters={report.iterations} "
                  f"cg={report.cg_iterations} sup|phi*|={sup:.1e} "
                  f"message={report.message!r}")
        ops.append(_op(name, report.converged and sup <= SOLUTION_BOUND,
                       report.converged, detail, points=grid.points,
                       iterations=report.iterations,
                       cg_iterations=list(report.cg_iterations),
                       accepted=sum(s > 0.0 for s in report.damping_history)))
    fingerprint = _digest([[op["name"], op["ok"], op["detail"]] for op in ops])
    return {"ops": ops, "fingerprint": fingerprint}


# proptest_seed --------------------------------------------------------------

def prepare_proptest(seed: int) -> dict:
    return {"seed": seed}


def execute_proptest(inputs: dict):
    return _attempt(jflow.sampling.run_property_suites, inputs["seed"])


def check_proptest(inputs: dict, report) -> dict:
    if isinstance(report, Exception):
        return {"ops": [_raised("suites", report)],
                "fingerprint": f"raised {type(report).__name__}"}
    ops = [_op(name, suite["passed"], suite["passed"],
               f"passed={suite['passed']}")
           for name, suite in report["suites"].items()]
    return {"ops": ops, "fingerprint": jflow.sampling.report_digest(report)}


WORKLOADS = {
    "flow16_converge": (prepare_flow16, execute_flow16, check_flow16),
    "newton_ladder": (prepare_newton, execute_newton, check_newton),
    "proptest_seed": (prepare_proptest, execute_proptest, check_proptest),
}
