"""End-to-end CLI runs through main(argv): exit codes and report shapes."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from jflow.cli import (
    EXIT_BLOWUP,
    EXIT_BROKEN_PIPE,
    EXIT_INADMISSIBLE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PROPERTY_FAILURE,
    EXIT_SCHEMA,
    EXIT_TIMEOUT,
    main,
)
from jflow.critical import NewtonSettings
from jflow.flow import CSV_COLUMNS, FlowSetup
from jflow.torus import load_field
from jflow.cone import SurfaceLattice, builtin_lattice


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def flow_cfg(**overrides):
    cfg = {
        "n": 1, "points": 16,
        "omega": [[1.0]], "chi0": [[2.0]],
        "phi0": {"modes": [{"k": [1], "amplitude": 0.3}]},
        "t_max": 400.0, "tol_converge": 1e-8, "sample_interval": 5,
    }
    cfg.update(overrides)
    return cfg


# positive definite to a Cholesky test, but below hermitian's relative floor
NEAR_SINGULAR = [[1e-13, 0.0], [0.0, 1.0]]


def raw_cfg(raw, **overrides):
    """Writer of flow_cfg(**overrides) with every "@" value replaced by the
    JSON text raw, for numbers json.dumps cannot write."""
    def write(tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(flow_cfg(**overrides)).replace('"@"', raw))
        return str(path)
    return write


def bytes_cfg(data):
    def write(tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(data)
        return str(path)
    return write


# (writer of a config path, the field its config error names)
UNUSABLE_CONFIGS = [
    pytest.param(str, "(config)", id="directory"),
    pytest.param(bytes_cfg(b"\xff\xfe{}"), "(config)", id="utf16-bom"),
    pytest.param(raw_cfg("Infinity", tol_converge="@"), "(config)",
                 id="infinity"),
    pytest.param(raw_cfg("-Infinity", safety="@"), "(config)",
                 id="minus-infinity"),
    pytest.param(raw_cfg("NaN", phi0={"modes": [{"k": [1], "amplitude": "@"}]}),
                 "(config)", id="nan-amplitude"),
    pytest.param(raw_cfg("1e400", omega=[["@"]]), "omega[0][0]",
                 id="overflow-entry"),
    pytest.param(raw_cfg("[1.0, -1e400]", chi0=[["@"]]), "chi0[0][0]",
                 id="overflow-pair"),
    pytest.param(raw_cfg("1e400", t_max="@"), "t_max", id="overflow-float"),
    pytest.param(raw_cfg("1" + "0" * 400, t_max="@"), "t_max",
                 id="overflow-int"),
    pytest.param(raw_cfg("1e400", phi0={"modes": [
        {"k": [1], "amplitude": 0.3, "phase": "@"}]}),
        "phi0.modes[0].phase", id="overflow-phase"),
]


class TestExitCodes:
    def test_distinct_codes(self):
        codes = {EXIT_OK, EXIT_PROPERTY_FAILURE, EXIT_SCHEMA,
                 EXIT_INADMISSIBLE, EXIT_BLOWUP, EXIT_TIMEOUT, EXIT_INVARIANT}
        assert codes == {0, 1, 2, 3, 4, 5, 6}

    def test_flow_converged(self, tmp_path):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg())
        out = tmp_path / "summary.json"
        assert main(["flow", cfg, "--summary", str(out), "--quiet"]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "converged"
        assert payload["final"]["residual"] < 1e-8
        assert payload["jhat_monotone"]

    def test_flow_timeout(self, tmp_path):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(t_max=0.5))
        assert main(["flow", cfg, "--quiet"]) == EXIT_TIMEOUT

    def test_flow_blowup_ceiling(self, tmp_path):
        # a ceiling below the monitor's flat value trips at the first sample
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(blowup_ceiling=1e-3))
        out = tmp_path / "summary.json"
        assert main(["flow", cfg, "--summary", str(out),
                     "--quiet"]) == EXIT_BLOWUP
        assert json.loads(out.read_text())["verdict"] == "blowup"

    def test_schema_unknown_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(bogus=3))
        assert main(["flow", cfg]) == EXIT_SCHEMA
        assert "field 'bogus'" in capsys.readouterr().err

    def test_schema_missing_required(self, tmp_path, capsys):
        payload = flow_cfg()
        del payload["chi0"]
        cfg = write_cfg(tmp_path, "f.json", payload)
        assert main(["flow", cfg]) == EXIT_SCHEMA
        assert "chi0" in capsys.readouterr().err

    def test_schema_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["flow", str(path)]) == EXIT_SCHEMA

    def test_schema_missing_file(self, tmp_path):
        assert main(["flow", str(tmp_path / "absent.json")]) == EXIT_SCHEMA

    @pytest.mark.parametrize("write, field", UNUSABLE_CONFIGS)
    def test_unusable_config_is_a_schema_error(self, tmp_path, capsys, write,
                                               field):
        assert main(["flow", write(tmp_path)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field {field!r}")
        assert "Traceback" not in err

    def test_inadmissible_form(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(chi0=[[-2.0]]))
        assert main(["flow", cfg]) == EXIT_INADMISSIBLE
        assert "inadmissible" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["omega", "chi0"])
    def test_near_singular_form_is_inadmissible(self, tmp_path, capsys, key):
        pair = {"omega": [[1.0, 0.0], [0.0, 1.0]],
                "chi0": [[2.0, 0.0], [0.0, 2.0]], key: NEAR_SINGULAR}
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(
            n=2, phi0={"zero": True}, **pair))
        assert main(["flow", cfg]) == EXIT_INADMISSIBLE
        assert f"form {key!r} is not positive" in capsys.readouterr().err

    def test_out_of_range_setting_is_a_schema_error(self, tmp_path, capsys):
        # positive, so past the parser, but outside FlowSetup's range
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(safety=1.5))
        assert main(["flow", cfg]) == EXIT_SCHEMA
        assert "config error: field 'safety'" in capsys.readouterr().err

    def test_property_failure_via_fault(self, tmp_path):
        out = tmp_path / "prop.json"
        code = main(["proptest", "--seed", "42",
                     "--conditions-samples", "2000",
                     "--functionals-samples", "1",
                     "--cone-samples", "2",
                     "--inject-fault", "c2-sign",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_PROPERTY_FAILURE
        payload = json.loads(out.read_text())
        assert not payload["report"]["all_passed"]
        assert payload["report"]["fault"] == "c2-sign"


class TestFlowOutputs:
    def test_csv_header_and_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(t_max=2.0))
        csv_path = tmp_path / "series.csv"
        out = tmp_path / "summary.json"
        code = main(["flow", cfg, "--csv", str(csv_path),
                     "--summary", str(out), "--quiet"])
        assert code == EXIT_TIMEOUT
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) - 1 == json.loads(out.read_text())["samples"]

    def test_summary_deterministic_modulo_wall_time(self, tmp_path):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(t_max=2.0))
        payloads = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["flow", cfg, "--summary", str(out), "--quiet"])
            payload = json.loads(out.read_text())
            payload.pop("wall_time_s")
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_resolved_config_embedded(self, tmp_path):
        cfg = flow_cfg()
        for key in ("t_max", "tol_converge", "sample_interval"):
            del cfg[key]
        out = tmp_path / "summary.json"
        main(["flow", write_cfg(tmp_path, "f.json", cfg), "--summary",
              str(out), "--quiet"])
        resolved = json.loads(out.read_text())["config"]
        # defaults are filled in so the report stands on its own
        assert resolved["deriv"] == "fd4"
        assert resolved["normalize"] is False
        assert resolved["safety"] == 0.9
        # a config that sets no policy key echoes every FlowSetup default
        defaults = {f.name: f.default for f in fields(FlowSetup) if f.init
                    and f.name not in ("grid", "omega", "chi0", "deriv")}
        assert defaults == {
            "normalize": False, "tol_converge": 1e-8, "t_max": 1e3,
            "safety": 0.9, "sample_interval": 10, "blowup_ceiling": 1e6,
            "max_steps": 10_000_000,
        }
        assert {key: resolved[key] for key in defaults} == defaults

    def test_random_phi0_accepted(self, tmp_path):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(
            t_max=1.0, phi0={"random": {"seed": 3, "amplitude": 0.2}}))
        assert main(["flow", cfg, "--quiet"]) == EXIT_TIMEOUT

    def test_phi0_exactly_one_variant(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(
            phi0={"zero": True, "modes": [{"k": [1], "amplitude": 0.1}]}))
        assert main(["flow", cfg]) == EXIT_SCHEMA
        assert "phi0" in capsys.readouterr().err


class TestCritical:
    def crit_cfg(self, **overrides):
        cfg = {
            "n": 1, "points": 32,
            "omega": [[1.0]], "chi0": [[1.7]],
            "phi0": {"modes": [{"k": [1], "amplitude": 0.25}]},
            "newton": {"tol": 1e-10},
        }
        cfg.update(overrides)
        return cfg

    def test_converges_and_saves_field(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", self.crit_cfg())
        field_path = tmp_path / "phi.npz"
        out = tmp_path / "report.json"
        code = main(["critical", cfg, "--save-field", str(field_path),
                     "--summary", str(out), "--quiet"])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["newton"]["converged"]
        assert payload["final_residual"] < 1e-10
        field, meta = load_field(str(field_path))
        assert field.grid.n == 1 and field.grid.points == 32
        assert abs(float(np.mean(field.values))) < 1e-12
        assert meta["source"] == "critical"

    def test_newton_block_echoes_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", self.crit_cfg(
            newton={"tol": 1e-10, "max_iters": 7}))
        out = tmp_path / "report.json"
        main(["critical", cfg, "--summary", str(out), "--quiet"])
        echoed = json.loads(out.read_text())["config"]["newton"]
        expected = {f.name: f.default for f in fields(NewtonSettings)}
        expected.update(tol=1e-10, max_iters=7)
        assert echoed == expected

    @pytest.mark.parametrize("newton, field", [
        ({"bogus": 1}, "newton.bogus"),
        ({"tol": -1}, "newton.tol"),
        ({"damping": 1.5}, "newton.damping"),
    ])
    def test_newton_schema_errors(self, tmp_path, capsys, newton, field):
        cfg = write_cfg(tmp_path, "c.json", self.crit_cfg(newton=newton))
        assert main(["critical", cfg]) == EXIT_SCHEMA
        assert f"config error: field {field!r}" in capsys.readouterr().err

    def test_budget_exhaustion(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        self.crit_cfg(newton={"tol": 1e-10, "max_iters": 1}))
        assert main(["critical", cfg, "--quiet"]) == EXIT_TIMEOUT

    def test_saved_field_feeds_back_as_phi0(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", self.crit_cfg())
        field_path = tmp_path / "phi.npz"
        main(["critical", cfg, "--save-field", str(field_path), "--quiet"])
        func_cfg = write_cfg(tmp_path, "func.json", {
            "n": 1, "points": 32, "omega": [[1.0]], "chi0": [[1.7]],
            "phi0": {"file": str(field_path)},
        })
        assert main(["functionals", func_cfg, "--quiet"]) == EXIT_OK

    def test_stored_grid_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", self.crit_cfg())
        field_path = tmp_path / "phi.npz"
        main(["critical", cfg, "--save-field", str(field_path), "--quiet"])
        bad_cfg = write_cfg(tmp_path, "bad.json", self.crit_cfg(
            points=16, phi0={"file": str(field_path)}))
        assert main(["critical", bad_cfg]) == EXIT_SCHEMA
        assert "phi0.file" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [
        "missing", "not-npz", "no-values", "shape-mismatch",
    ])
    def test_unreadable_phi0_file(self, tmp_path, capsys, kind):
        field_path = tmp_path / "phi.npz"
        header = json.dumps({"n": 1, "points": 32, "mode": "invariant"})
        if kind == "not-npz":
            field_path.write_text("not an archive")
        elif kind == "no-values":
            np.savez(field_path, header=header)
        elif kind == "shape-mismatch":
            np.savez(field_path, values=np.zeros(5), header=header)
        cfg = write_cfg(tmp_path, "c.json", self.crit_cfg(
            phi0={"file": str(field_path)}))
        assert main(["critical", cfg]) == EXIT_SCHEMA
        assert "config error: field 'phi0.file'" in capsys.readouterr().err


class TestConditionsCommand:
    def test_equal_margins_n2(self, tmp_path):
        cfg = write_cfg(tmp_path, "p.json", {
            "omega": [[1.0, 0.0], [0.0, 1.0]],
            "chi": [[3.0, 0.0], [0.0, 3.0]],
        })
        out = tmp_path / "report.json"
        assert main(["conditions", cfg, "--summary", str(out),
                     "--quiet"]) == EXIT_OK
        payload = json.loads(out.read_text())
        margins = [payload["conditions"][k]["margin"]
                   for k in ("C1", "C2", "C3")]
        assert margins == pytest.approx([2 / 3, 2 / 3, 2 / 3])
        assert payload["cone"]["margin"] == pytest.approx(2 / 3)
        assert payload["nc"] == pytest.approx(2 / 3)

    def test_normalize_fixes_trace(self, tmp_path):
        cfg = write_cfg(tmp_path, "p.json", {
            "omega": [[1.0, 0.0], [0.0, 1.0]],
            "chi": [[3.0, 0.0], [0.0, 3.0]],
            "normalize": True,
        })
        out = tmp_path / "report.json"
        main(["conditions", cfg, "--summary", str(out), "--quiet"])
        payload = json.loads(out.read_text())
        assert payload["trace_of_inverse"] == pytest.approx(1.0, abs=1e-12)

    def test_complex_entries_accepted(self, tmp_path):
        cfg = write_cfg(tmp_path, "p.json", {
            "omega": [[1.0, 0.0], [0.0, 1.0]],
            "chi": [[2.0, [0.3, 0.1]], [[0.3, -0.1], 1.5]],
        })
        assert main(["conditions", cfg, "--quiet"]) == EXIT_OK

    def test_non_hermitian_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "p.json", {
            "omega": [[1.0, 0.2], [0.3, 1.0]],
            "chi": [[2.0, 0.0], [0.0, 2.0]],
        })
        assert main(["conditions", cfg]) == EXIT_SCHEMA
        assert "Hermitian" in capsys.readouterr().err

    def test_near_singular_omega_is_inadmissible(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "p.json", {
            "omega": NEAR_SINGULAR, "chi": [[2.0, 0.0], [0.0, 2.0]],
        })
        assert main(["conditions", cfg]) == EXIT_INADMISSIBLE
        assert "form 'omega' is not positive" in capsys.readouterr().err


class TestFunctionalsCommand:
    def test_values_and_gaps(self, tmp_path):
        cfg = write_cfg(tmp_path, "f.json", {
            "n": 2, "points": 12,
            "omega": [[1.0, 0.0], [0.0, 1.0]],
            "chi0": [[2.0, 0.3], [0.3, 1.6]],
            "phi0": {"modes": [{"k": [1, 0], "amplitude": 0.3},
                               {"k": [0, 1], "amplitude": 0.2, "phase": 0.7}]},
        })
        out = tmp_path / "report.json"
        assert main(["functionals", cfg, "--summary", str(out),
                     "--quiet"]) == EXIT_OK
        payload = json.loads(out.read_text())
        values = payload["values"]
        assert values["IE"] > 0 and values["JE"] > 0
        assert values["JE"] <= values["IE"]
        assert values["entropy"] >= -1e-12
        assert payload["ie_route_gap"] < 1e-10
        assert payload["path_gaps"]["Jhat"]["rel"] < 1e-5
        assert payload["path_gaps"]["mabuchi"]["rel"] < 1e-4


class TestConeCommand:
    def test_alpha_certificate(self, tmp_path):
        out = tmp_path / "cone.json"
        code = main(["cone", "blowup_p2_1", "--alpha", "3,1",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["search"]["status"] == "certificate"
        assert payload["verified"]
        assert payload["search"]["remainder"] == ["3", "-1"]

    def test_pair_condition(self, tmp_path):
        out = tmp_path / "cone.json"
        code = main(["cone", "blowup_p2_1", "--omega", "2,-1",
                     "--chi0", "5,-1", "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["c"] == "3/8"
        assert payload["identity_square"] and payload["identity_mixed"]
        assert payload["needs_divisor"]
        assert payload["verified"]

    def test_pair_inadmissible(self, tmp_path):
        code = main(["cone", "blowup_p2_1", "--omega", "0,1",
                     "--chi0", "5,-1", "--quiet"])
        assert code == EXIT_INADMISSIBLE

    def test_lattice_from_file(self, tmp_path):
        lattice_path = tmp_path / "lattice.json"
        lattice_path.write_text(
            json.dumps(builtin_lattice("blowup_p2_1").as_dict()))
        out = tmp_path / "cone.json"
        code = main(["cone", str(lattice_path), "--alpha", "3,-1",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["search"]["status"] == "kahler"

    @pytest.fixture
    def degenerate_lattice(self, tmp_path):
        # E and E2 = 2E are proportional negative curves, so any support
        # holding both has a singular Gram matrix and the search refuses
        lattice = SurfaceLattice(
            2, [[1, 0], [0, -1]],
            [{"name": "E", "class": [0, 1], "self": "-1"},
             {"name": "E2", "class": [0, 2], "self": "-4"}],
            [2, -1], name="degenerate")
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(lattice.as_dict()))
        return str(path)

    @pytest.mark.parametrize("target", [
        ["--alpha", "3,1"],
        # a Kahler pair whose condition class 2c chi0 - omega = (7/4, 1/4)
        # fails against both curves
        ["--omega", "2,-1", "--chi0", "5,-1"],
    ])
    def test_refused_search_fails_its_audit(self, tmp_path,
                                            degenerate_lattice, target):
        out = tmp_path / "cone.json"
        code = main(["cone", degenerate_lattice, *target,
                     "--out", str(out), "--quiet"])
        assert code == EXIT_INVARIANT
        payload = json.loads(out.read_text())
        assert payload["exit_code"] == EXIT_INVARIANT
        assert payload["search"]["status"] == "no-certificate"
        assert not payload["verified"]
        assert payload["note"] == "search result failed its independent audit"

    @pytest.mark.parametrize("mangle, names", [
        (lambda data: {k: v for k, v in data.items() if k != "rank"},
         "'rank'"),
        (lambda data: [data], "list"),
        (lambda data: dict(data, curves=[
            {k: v for k, v in c.items() if k != "self"}
            for c in data["curves"]]), "'self'"),
        (lambda data: dict(data, rank="x"), "'rank'"),
        (lambda data: dict(data, rank=True), "'rank'"),
        (lambda data: dict(data, Q=5), "'Q'"),
        (lambda data: dict(data, reference_kahler="2,-1"),
         "'reference_kahler'"),
        (lambda data: dict(data, curves=5), "'curves'"),
        (lambda data: dict(data, curves=[
            dict(c, **{"class": 1}) for c in data["curves"]]), "'class'"),
        (lambda data: dict(data, Q=["1", "0", "0", "x"]), "'x'"),
        (lambda data: dict(data, Q=["1", "0", "0", "1/0"]), "'1/0'"),
        (lambda data: dict(data, Q=["1", "0", "0", math.nan]), "float"),
    ], ids=["no-rank", "top-level-list", "curve-without-self", "rank-string",
            "rank-bool", "q-number", "reference-string", "curves-number",
            "class-number", "entry-not-rational", "entry-zero-denominator",
            "entry-nan"])
    def test_malformed_lattice_file(self, tmp_path, capsys, mangle, names):
        data = builtin_lattice("blowup_p2_1").as_dict()
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(mangle(data)))
        assert main(["cone", str(path), "--alpha", "3,1"]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("lattice error:") and names in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("write", [str, bytes_cfg(b"\xff\xfe{}")],
                             ids=["directory", "utf16-bom"])
    def test_unreadable_lattice_file(self, tmp_path, capsys, write):
        assert main(["cone", write(tmp_path), "--alpha", "1"]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("config error: field 'lattice'")
        assert "Traceback" not in err

    def test_unknown_lattice(self, tmp_path, capsys):
        assert main(["cone", "no_such_lattice", "--alpha", "1,0"]) == EXIT_SCHEMA
        assert "lattice" in capsys.readouterr().err

    def test_alpha_arity_checked(self, capsys):
        assert main(["cone", "blowup_p2_1", "--alpha", "3"]) == EXIT_SCHEMA
        assert "alpha" in capsys.readouterr().err

    def test_alpha_excludes_pair(self):
        assert main(["cone", "blowup_p2_1", "--alpha", "3,1",
                     "--omega", "2,-1"]) == EXIT_SCHEMA

    def test_missing_inputs(self):
        assert main(["cone", "blowup_p2_1"]) == EXIT_SCHEMA

    def test_closed_stdout_ends_without_traceback(self):
        # the read end is closed before the child starts, so its first
        # write fails with EPIPE, as under `jflow cone ... | head`
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "jflow.cli", "cone", "blowup_p2_2",
                 "--alpha", "3,1,0"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120)
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr, proc.stderr.decode()
        assert proc.stderr == b""
        assert proc.returncode == EXIT_BROKEN_PIPE


class TestProptestCommand:
    def test_digest_stable_across_runs(self, tmp_path):
        digests = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["proptest", "--seed", "11",
                         "--conditions-samples", "200",
                         "--functionals-samples", "3",
                         "--cone-samples", "10",
                         "--out", str(out), "--quiet"])
            assert code == EXIT_OK
            digests.append(json.loads(out.read_text())["digest"])
        assert digests[0] == digests[1]

    def test_headline_mentions_digest(self, capsys):
        # quiet without --out prints the one-line verdict on stdout
        main(["proptest", "--seed", "11", "--conditions-samples", "100",
              "--functionals-samples", "2", "--cone-samples", "5", "--quiet"])
        captured = capsys.readouterr().out
        assert "proptest: all passed" in captured
        assert "digest" in captured


# small inputs for every subcommand, without the report and --quiet flags
ENVELOPE_ARGV = {
    "flow": lambda tmp: ["flow", write_cfg(tmp, "c.json",
                                           flow_cfg(t_max=2.0))],
    "critical": lambda tmp: ["critical", write_cfg(tmp, "c.json", {
        "n": 1, "points": 32, "omega": [[1.0]], "chi0": [[1.7]],
        "phi0": {"modes": [{"k": [1], "amplitude": 0.25}]}})],
    "conditions": lambda tmp: ["conditions", write_cfg(tmp, "c.json", {
        "omega": [[1.0, 0.0], [0.0, 1.0]],
        "chi": [[3.0, 0.0], [0.0, 3.0]]})],
    "functionals": lambda tmp: ["functionals", write_cfg(tmp, "c.json", {
        "n": 1, "points": 16, "omega": [[1.0]], "chi0": [[2.0]],
        "phi0": {"modes": [{"k": [1], "amplitude": 0.3}]}})],
    "cone": lambda tmp: ["cone", "blowup_p2_1", "--alpha", "3,1"],
    "proptest": lambda tmp: ["proptest", "--seed", "11",
                             "--conditions-samples", "100",
                             "--functionals-samples", "2",
                             "--cone-samples", "5"],
}


class TestReportEnvelope:
    @pytest.mark.parametrize("command", list(ENVELOPE_ARGV))
    def test_envelope_and_quiet_headline(self, tmp_path, capsys, command):
        argv = ENVELOPE_ARGV[command](tmp_path)
        flag = "--out" if command in ("cone", "proptest") else "--summary"
        out = tmp_path / "report.json"
        code = main([*argv, flag, str(out), "--quiet"])
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["command"] == command
        assert payload["exit_code"] == code
        wall = payload["wall_time_s"]
        assert isinstance(wall, float) and math.isfinite(wall) and wall >= 0
        # quiet without a report path prints the headline alone
        assert main([*argv, "--quiet"]) == code
        assert len(capsys.readouterr().out.splitlines()) == 1
