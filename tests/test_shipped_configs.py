"""The shipped configs at full size, through main(argv) in process.

Each test runs one file of configs/ as the README shows it and checks its
report with the bounds the CI report steps used to check inline: Newton
stays inexact, the functionals agree across paths and routes, and the
conditions report is consistent with its own eigenvalues.
"""

import json
from pathlib import Path

from jflow.cli import EXIT_OK, main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run_shipped(tmp_path, command: str, stem: str) -> dict:
    out = tmp_path / f"{stem}.report.json"
    code = main([command, str(CONFIG_DIR / f"{stem}.json"),
                 "--summary", str(out), "--quiet"])
    report = json.loads(out.read_text())
    assert code == EXIT_OK == report["exit_code"], report
    assert report["command"] == command
    return report


def test_critical_newton(tmp_path):
    # the inexact inner solves take a few CG iterations per Newton step
    r = run_shipped(tmp_path, "critical", "critical_newton")["newton"]
    assert r["converged"], r
    assert sum(r["cg_iterations"]) <= 3 * r["iterations"], r


def test_flow_reference(tmp_path):
    r = run_shipped(tmp_path, "flow", "flow_reference")
    assert r["verdict"] == "converged", r


def test_functionals_demo(tmp_path):
    # path independence, the two I^E routes, and Mabuchi = entropy on a flat
    # torus (Chen-Tian with zero Ricci curvature)
    r = run_shipped(tmp_path, "functionals", "functionals_demo")
    g, v = r["path_gaps"], r["values"]
    assert g["Jhat"]["rel"] < 1e-8 and g["mabuchi"]["rel"] < 1e-8, g
    assert r["ie_route_gap"] <= 1e-12, r
    assert abs(v["mabuchi"] - v["entropy"]) <= 1e-10 * abs(v["entropy"]), v


def test_conditions_pair(tmp_path):
    r = run_shipped(tmp_path, "conditions", "conditions_pair")
    assert sorted(r["conditions"]) == ["C1", "C2", "C3"], r
    assert r["cone"] == r["conditions"]["C3"], r
    t = sum(1.0 / x for x in r["lambdas"])
    assert abs(r["trace_of_inverse"] - t) <= 1e-12 * abs(t), r
