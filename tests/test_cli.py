"""End-to-end CLI runs through main(argv): exit codes and report shapes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from jflow import cli, critical, flow, sampling
from jflow.cli import (
    EXIT_BLOWUP,
    EXIT_BROKEN_PIPE,
    EXIT_INADMISSIBLE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PROPERTY_FAILURE,
    EXIT_SCHEMA,
    EXIT_TIMEOUT,
    MAX_SUITE_SIZE,
    build_parser,
    main,
)
from jflow.critical import NewtonSettings
from jflow.flow import CSV_COLUMNS, FlowSetup
from jflow.torus import TorusGrid, load_field
from jflow.cone import BUILTIN_LATTICES, SurfaceLattice, builtin_lattice


def _no_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def read_report(path):
    """A report file parsed as strict JSON: NaN and Infinity raise."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


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


def cfg_of(**overrides):
    """Writer of flow_cfg(**overrides)."""
    return lambda tmp_path: write_cfg(tmp_path, "f.json",
                                      flow_cfg(**overrides))


# (writer of a config path, the field its config error names, the start of
# its reason)
UNUSABLE_CONFIGS = [
    pytest.param(str, "(config)", "cannot read", id="directory"),
    pytest.param(bytes_cfg(b"\xff\xfe{}"), "(config)", "invalid JSON",
                 id="utf16-bom"),
    pytest.param(raw_cfg("Infinity", tol_converge="@"), "(config)",
                 "Infinity is not a finite number", id="infinity"),
    pytest.param(raw_cfg("-Infinity", safety="@"), "(config)",
                 "-Infinity is not a finite number", id="minus-infinity"),
    pytest.param(raw_cfg("NaN", phi0={"modes": [{"k": [1], "amplitude": "@"}]}),
                 "(config)", "NaN is not a finite number", id="nan-amplitude"),
    pytest.param(raw_cfg("1e400", omega=[["@"]]), "omega[0][0]",
                 "matrix entries are finite numbers", id="overflow-entry"),
    pytest.param(raw_cfg("[1.0, -1e400]", chi0=[["@"]]), "chi0[0][0]",
                 "matrix entries are finite numbers", id="overflow-pair"),
    pytest.param(raw_cfg("1e400", t_max="@"), "t_max",
                 "must be a finite number", id="overflow-float"),
    pytest.param(raw_cfg("1" + "0" * 400, t_max="@"), "t_max",
                 "must be a finite number", id="overflow-int"),
    pytest.param(raw_cfg("1e400", phi0={"modes": [
        {"k": [1], "amplitude": 0.3, "phase": "@"}]}),
        "phi0.modes[0].phase", "must be a finite number", id="overflow-phase"),
    # grids past torus.MAX_GRID_CELLS are refused before any field exists
    pytest.param(raw_cfg("1" + "0" * 30, points="@"), "points",
                 "points ** 1 = ", id="points-huge"),
    pytest.param(raw_cfg("100000", n=2, points="@",
                         omega=[[1.0, 0.0], [0.0, 1.0]],
                         chi0=[[2.0, 0.0], [0.0, 2.0]], phi0={"zero": True}),
                 "points", "points ** 2 = ", id="points-n2"),
    # past points // 2 = 8 the grid holds no new mode
    pytest.param(raw_cfg("1" + "0" * 400, phi0={"modes": [
        {"k": ["@"], "amplitude": 0.3}]}), "phi0.modes[0].k",
        "components must be at most points // 2 = 8", id="k-huge"),
    pytest.param(raw_cfg("-9", phi0={"modes": [
        {"k": ["@"], "amplitude": 0.3}]}), "phi0.modes[0].k",
        "components must be at most points // 2 = 8", id="k-past-half"),
    pytest.param(raw_cfg("9", phi0={"random": {"band": "@"}}),
                 "phi0.random.band", "must be at most points // 2 = 8",
                 id="band-past-half"),
    pytest.param(raw_cfg("200", phi0={"random": {"band": "@"}}),
                 "phi0.random.band", "must be at most points // 2 = 8",
                 id="band-huge"),
    # the ranges and types of the grid, the method and phi0
    pytest.param(cfg_of(n=0), "n", "must be at least 1", id="n-zero"),
    pytest.param(cfg_of(points=4), "points", "must be at least 8",
                 id="points-4"),
    pytest.param(cfg_of(phi0={"random": {"band": 0}}), "phi0.random.band",
                 "must be at least 1", id="band-zero"),
    pytest.param(cfg_of(phi0={"random": {"amplitude": 0}}),
                 "phi0.random.amplitude", "must be positive",
                 id="amplitude-zero"),
    pytest.param(cfg_of(normalize="yes"), "normalize", "expected true/false",
                 id="normalize-string"),
    pytest.param(cfg_of(mode="half"), "mode", "must be one of",
                 id="mode-half"),
    pytest.param(cfg_of(deriv="fd2"), "deriv", "must be one of",
                 id="deriv-fd2"),
    pytest.param(cfg_of(phi0=[]), "phi0", "expected an object",
                 id="phi0-list"),
    pytest.param(cfg_of(phi0={"zero": False}), "phi0.zero",
                 "the only allowed value is true", id="phi0-zero-false"),
    pytest.param(cfg_of(phi0={"file": 3}), "phi0.file",
                 "expected a path string", id="phi0-file-number"),
    pytest.param(cfg_of(phi0={"modes": []}), "phi0.modes",
                 "expected a non-empty list", id="phi0-modes-empty"),
    pytest.param(cfg_of(phi0={"modes": [3]}), "phi0.modes[0]",
                 "expected an object", id="phi0-mode-number"),
    pytest.param(bytes_cfg(json.dumps([flow_cfg()]).encode()), "(config)",
                 "top level must be an object", id="top-level-list"),
]


def capped_cfg(n: int, points: int, mode: str = "invariant",
               band: int | None = None, modes: int | None = None) -> dict:
    """The problem fields alone, on an n x n pair, with a random phi0 if
    band is set and a list of that many modes if modes is: a config of
    flow, functionals and critical alike."""
    phi0 = {"random": {"band": band}} if band else {"zero": True}
    if modes:
        k = [1] + [0] * ((n if mode == "invariant" else 2 * n) - 1)
        phi0 = {"modes": [{"k": k, "amplitude": 0.1}] * modes}
    eye = np.eye(min(n, 8))  # the forms of a refused n are never read
    return {"n": n, "points": points, "mode": mode, "phi0": phi0,
            "omega": eye.tolist(), "chi0": (2 * eye).tolist()}


def _no_field(*args, **kwargs):
    raise AssertionError("a field was built past a work cap")


# (problem past a work cap, the field its config error names); each is
# refused before any field exists: the grid caps by TorusGrid, the mode
# caps by the sampler and cosine_mode before their first cosine
WORK_CAPS = [
    pytest.param({"n": 5, "points": 8}, "n", id="n5"),
    pytest.param({"n": 7, "points": 8}, "n", id="n7"),
    pytest.param({"n": 10**30, "points": 8}, "n", id="n-huge"),
    # 128^3 cells of 3 x 3 Hessians: 18.9 million entries
    pytest.param({"n": 3, "points": 128}, "points", id="n3-hessians"),
    pytest.param({"n": 4, "points": 33}, "points", id="n4-hessians"),
    # 364 modes over 8^6 cells; band 22 draws 2.1 million modes on 45^4
    pytest.param({"n": 3, "points": 8, "mode": "full", "band": 1},
                 "phi0.random.band", id="six-axes-band-1"),
    pytest.param({"n": 2, "points": 45, "mode": "full", "band": 22},
                 "phi0.random.band", id="n2-full-band-22"),
    pytest.param({"n": 2, "points": 1024, "band": 3}, "phi0.random.band",
                 id="band-3-of-24"),
    # 4,000 listed modes over 8,192 cells: 3.3e7 cosines
    pytest.param({"n": 1, "points": 8192, "modes": 4000}, "phi0.modes",
                 id="modes-4000"),
    pytest.param({"n": 1, "points": 2048, "mode": "full", "modes": 5},
                 "phi0.modes", id="modes-5-on-2048^2"),
]


def functionals_cfg(**overrides):
    cfg = {
        "n": 1, "points": 16, "omega": [[1.0]], "chi0": [[2.0]],
        "phi0": {"modes": [{"k": [1], "amplitude": 0.3}]},
    }
    cfg.update(overrides)
    return cfg


# (command, config, field) for method internals, which are module constants
# and not config keys: each is an unknown field
REMOVED_KEYS = [
    pytest.param("flow", flow_cfg(blowup_ceiling=1e-3), "blowup_ceiling",
                 id="blowup_ceiling"),
    pytest.param("flow", flow_cfg(phi0={"random": {"rel_margin": 0.2}}),
                 "phi0.random.rel_margin", id="rel_margin"),
    pytest.param("functionals", functionals_cfg(path_steps=64),
                 "path_steps", id="path_steps"),
    pytest.param("functionals", functionals_cfg(mabuchi_steps=32),
                 "mabuchi_steps", id="mabuchi_steps"),
    pytest.param("functionals", functionals_cfg(compare_paths=False),
                 "compare_paths", id="compare_paths"),
]


class TestExitCodes:
    def test_distinct_codes(self):
        codes = {EXIT_OK, EXIT_PROPERTY_FAILURE, EXIT_SCHEMA,
                 EXIT_INADMISSIBLE, EXIT_BLOWUP, EXIT_TIMEOUT, EXIT_INVARIANT}
        assert codes == {0, 1, 2, 3, 4, 5, 6}

    # (command, its arguments before the output flag's path; a dict is
    # written as the config)
    @pytest.mark.parametrize("command, args", [
        pytest.param("conditions", [{"omega": [[1.0]], "chi": [[2.0]]},
                                    "--summary"], id="summary"),
        pytest.param("cone", ["blowup_p2_1", "--alpha", "3,1", "--out"],
                     id="out"),
        pytest.param("flow", [flow_cfg(t_max=0.01), "--csv"], id="csv"),
        pytest.param("critical", [{"n": 1, "points": 16, "omega": [[1.0]],
                                   "chi0": [[2.0]]}, "--save-field"],
                     id="save-field"),
    ])
    def test_unwritable_output_path(self, tmp_path, capsys, command, args):
        argv = [write_cfg(tmp_path, "c.json", a) if isinstance(a, dict) else a
                for a in args]
        missing = str(tmp_path / "absent" / "output")
        assert main([command, *argv, missing, "--quiet"]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1, err

    def test_flow_converged(self, tmp_path):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg())
        out = tmp_path / "summary.json"
        assert main(["flow", cfg, "--summary", str(out), "--quiet"]) == EXIT_OK
        payload = read_report(out)
        assert payload["verdict"] == "converged"
        assert payload["final"]["residual"] < 1e-8
        assert payload["jhat_monotone"]

    def test_flow_timeout(self, tmp_path):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(t_max=0.5))
        assert main(["flow", cfg, "--quiet"]) == EXIT_TIMEOUT

    def test_flow_blowup_ceiling(self, tmp_path, monkeypatch):
        # a ceiling below the monitor's flat value trips at the first sample
        monkeypatch.setattr(flow, "BLOWUP_CEILING", 1e-3)
        cfg = write_cfg(tmp_path, "f.json", flow_cfg())
        out = tmp_path / "summary.json"
        assert main(["flow", cfg, "--summary", str(out),
                     "--quiet"]) == EXIT_BLOWUP
        assert read_report(out)["verdict"] == "blowup"

    def test_flow_positivity_loss_is_blowup(self, tmp_path, monkeypatch):
        # a first trial step at ten times the stability ceiling leaves the
        # cone (tests/test_flow.py reproduces it without the CLI)
        monkeypatch.setattr(flow, "SAFETY", 10.0)
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(
            phi0={"modes": [{"k": [1], "amplitude": 7.0}]}, t_max=50.0))
        out = tmp_path / "summary.json"
        assert main(["flow", cfg, "--summary", str(out),
                     "--quiet"]) == EXIT_BLOWUP
        payload = read_report(out)
        assert payload["verdict"] == "blowup"
        assert payload["steps"] == 0 and payload["samples"] == 1

    def test_flow_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # a NaN met in the 4th trial step gets the report of every other
        # blow-up: payload, monitor and the series up to the last accepted
        # state
        real_step, starts = flow.step, []

        def nan_fourth_step(setup, state, dt):
            starts.append(state.t)
            if len(starts) == 4:
                nan = np.full_like(state.phidot, np.nan)
                state = dataclasses.replace(state, phidot=nan)
            return real_step(setup, state, dt)

        monkeypatch.setattr(flow, "step", nan_fourth_step)
        cfg = write_cfg(tmp_path, "f.json", flow_cfg())
        out, csv = tmp_path / "summary.json", tmp_path / "series.csv"
        # with a report file, the headline is all that is printed
        assert main(["flow", cfg, "--summary", str(out),
                     "--csv", str(csv)]) == EXIT_BLOWUP
        payload = read_report(out)
        assert payload["verdict"] == "blowup"
        assert payload["exit_code"] == EXIT_BLOWUP
        # each accepted step moves t, so the distinct start times count them
        steps = len(set(starts)) - 1
        assert payload["steps"] == steps >= 1 and payload["samples"] == 2
        assert payload["final"]["t"] == starts[-1]
        assert payload["monitor"]["band_ok"] and payload["csv"] == str(csv)
        rows = csv.read_text().splitlines()
        assert rows[0] == ",".join(CSV_COLUMNS) and len(rows) == 3
        assert capsys.readouterr().out.startswith(
            f"flow: blowup after {steps} steps, residual ")

    def test_flow_non_monotone_jhat(self, tmp_path, monkeypatch):
        # the first sample's Jhat lowered by 1 makes the series rise once;
        # 115 samples later it has left the trailing window, so the run
        # converges and the descent invariant fails over the whole series
        real_sample = flow._sample

        def lowered_first(setup, state, dt):
            rec, eig_min = real_sample(setup, state, dt)
            if state.t == 0.0:
                rec = dataclasses.replace(rec, Jhat=rec.Jhat - 1.0)
            return rec, eig_min

        monkeypatch.setattr(flow, "_sample", lowered_first)
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(
            sample_interval=1, tol_converge=1e-10))
        out = tmp_path / "summary.json"
        assert main(["flow", cfg, "--summary", str(out),
                     "--quiet"]) == EXIT_INVARIANT
        payload = read_report(out)
        assert payload["verdict"] == "converged"
        assert payload["samples"] > 101
        assert not payload["jhat_monotone"]
        assert payload["note"] == (
            "descent invariant violated: sampled Jhat is not monotone")

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

    @pytest.mark.parametrize("write, field, reason", UNUSABLE_CONFIGS)
    def test_unusable_config_is_a_schema_error(self, tmp_path, capsys, write,
                                               field, reason):
        assert main(["flow", write(tmp_path)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field {field!r}: {reason}"), err
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
        # the parsers check types; FlowSetup owns the ranges, and its
        # SettingError reaches the user as a schema error at the field,
        # which the message names once
        for key, value, reason in (
                ("t_max", 0, "must be positive"),
                ("tol_converge", -1e-8, "must be positive"),
                ("sample_interval", 0, "must be at least 1"),
                ("max_steps", -2, "must be at least 1")):
            cfg = write_cfg(tmp_path, "f.json", flow_cfg(**{key: value}))
            assert main(["flow", cfg]) == EXIT_SCHEMA
            err = capsys.readouterr().err
            assert err == f"config error: field {key!r}: {reason}\n", err

    @pytest.mark.parametrize("problem, field", WORK_CAPS)
    def test_work_cap_refused_before_any_field(self, tmp_path, capsys,
                                               monkeypatch, cosine_sizes,
                                               problem, field):
        monkeypatch.setattr(TorusGrid, "zeros", _no_field)
        for command in ("flow", "functionals", "critical"):
            cfg = write_cfg(tmp_path, "f.json", capped_cfg(**problem))
            assert main([command, cfg]) == EXIT_SCHEMA
            err = capsys.readouterr().err
            assert err.startswith(f"config error: field {field!r}: "), err
        assert cosine_sizes == []

    @pytest.mark.parametrize("problem", [
        pytest.param({"n": 2, "points": 2048}, id="n2-cells-cap"),
        pytest.param({"n": 4, "points": 32}, id="n4-hessian-cap"),
    ])
    def test_largest_problems_under_the_caps(self, monkeypatch, problem):
        # exactly at a grid cap is accepted; nothing is built (the mode
        # caps at the cap are tests of the sampler and cosine_mode)
        monkeypatch.setattr(TorusGrid, "zeros", lambda *args: 0.0)
        built = cli._build_problem(capped_cfg(**problem))
        assert built["grid"].points == problem["points"]

    @pytest.mark.parametrize("command, payload, field", REMOVED_KEYS)
    def test_removed_key_is_a_schema_error(self, tmp_path, capsys, command,
                                           payload, field):
        cfg = write_cfg(tmp_path, "c.json", payload)
        assert main([command, cfg]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith(
            f"config error: field {field!r}: unknown field")

    def test_types_are_checked_before_ranges_and_caps(self, tmp_path,
                                                      capsys):
        # the CLI parses every field of phi0 before the library checks
        # the ranges and the mode cap, so a malformed field is reported
        random = flow_cfg(phi0={"random": {"band": 9, "amplitude": "x"}})
        listed = capped_cfg(n=1, points=8192, modes=2049)
        listed["phi0"]["modes"].append(3)
        for cfg, field, reason in (
                (random, "phi0.random.amplitude", "expected a number, got str"),
                (listed, "phi0.modes[2049]", "expected an object")):
            assert main(["flow", write_cfg(tmp_path, "f.json", cfg)]) == (
                EXIT_SCHEMA)
            err = capsys.readouterr().err
            assert err == f"config error: field {field!r}: {reason}\n", err

    def test_band_at_half_the_points_accepted(self, tmp_path):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(
            t_max=0.01, phi0={"random": {"band": 8, "amplitude": 0.2}}))
        assert main(["flow", cfg, "--quiet"]) == EXIT_TIMEOUT

    def test_property_failure_via_fault(self, tmp_path):
        out = tmp_path / "prop.json"
        code = main(["proptest", "--seed", "42",
                     "--conditions-samples", "2000",
                     "--functionals-samples", "1",
                     "--cone-samples", "2",
                     "--inject-fault", "c2-sign",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_PROPERTY_FAILURE
        payload = read_report(out)
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
        assert len(lines) - 1 == read_report(out)["samples"]

    def test_summary_deterministic_modulo_wall_time(self, tmp_path):
        cfg = write_cfg(tmp_path, "f.json", flow_cfg(t_max=2.0))
        payloads = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["flow", cfg, "--summary", str(out), "--quiet"])
            payload = read_report(out)
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
        resolved = read_report(out)["config"]
        # defaults are filled in so the report stands on its own
        assert resolved["deriv"] == "fd4"
        assert resolved["normalize"] is False
        # a config that sets no policy key echoes every FlowSetup default
        defaults = {f.name: f.default for f in fields(FlowSetup) if f.init
                    and f.name not in ("grid", "omega", "chi0", "deriv")}
        assert defaults == {
            "normalize": False, "tol_converge": 1e-8, "t_max": 1e3,
            "sample_interval": 10, "max_steps": 10_000_000,
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
        payload = read_report(out)
        assert payload["newton"]["converged"]
        assert payload["final_residual"] < 1e-10
        grid, values, header = load_field(str(field_path))
        assert grid.n == 1 and grid.points == 32
        assert abs(float(np.mean(values))) < 1e-12
        assert header["source"] == "critical"

    def test_newton_block_echoes_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", self.crit_cfg(
            newton={"tol": 1e-10, "max_iters": 7}))
        out = tmp_path / "report.json"
        main(["critical", cfg, "--summary", str(out), "--quiet"])
        echoed = read_report(out)["config"]["newton"]
        expected = {f.name: f.default for f in fields(NewtonSettings)}
        expected.update(tol=1e-10, max_iters=7)
        assert echoed == expected

    @pytest.mark.parametrize("newton, field", [
        ({"bogus": 1}, "newton.bogus"),
        ({"tol": -1}, "newton.tol"),
        ({"damping": 1.5}, "newton.damping"),
        ({"cg_rtol": 2}, "newton.cg_rtol"),
        ({"damping_floor": 2}, "newton.damping_floor"),
        ({"max_iters": 0}, "newton.max_iters"),
        ([], "newton"),
    ])
    def test_newton_schema_errors(self, tmp_path, capsys, newton, field):
        cfg = write_cfg(tmp_path, "c.json", self.crit_cfg(newton=newton))
        assert main(["critical", cfg]) == EXIT_SCHEMA
        assert f"config error: field {field!r}" in capsys.readouterr().err

    def test_no_admissible_step_exits_5(self, tmp_path, monkeypatch,
                                        capsys):
        # every trial along a stubbed inner-solve direction loses
        # positivity (tests/test_critical.py::TestNewtonFailure)
        grid = TorusGrid(n=1, points=32)
        monkeypatch.setattr(critical, "_pcg", lambda *args: (
            np.cos(grid.axis_coordinate(0)) * 1e9, 1))
        cfg = write_cfg(tmp_path, "c.json", self.crit_cfg())
        out = tmp_path / "report.json"
        assert main(["critical", cfg, "--summary", str(out)]) == EXIT_TIMEOUT
        report = read_report(out)["newton"]
        assert not report["converged"]
        assert report["damping_history"] == [0.0]
        message = "no admissible decreasing step above the damping floor"
        assert report["message"] == message
        assert capsys.readouterr().out.startswith(f"critical: {message} in 1")

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
        "missing", "not-npz", "no-values", "shape-mismatch", "strings",
        "nan", "inf", "complex",
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
        elif kind == "strings":
            np.savez(field_path, values=np.full(32, "0.1"), header=header)
        elif kind in ("nan", "inf"):
            values = np.zeros(32)
            values[3] = float(kind)
            np.savez(field_path, values=values, header=header)
        elif kind == "complex":
            np.savez(field_path, values=np.zeros(32, dtype=complex),
                     header=header)
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
        payload = read_report(out)
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
        payload = read_report(out)
        assert payload["trace_of_inverse"] == pytest.approx(1.0, abs=1e-12)

    def test_vacuous_margin_is_null(self, tmp_path):
        # C2 holds vacuously at n = 1; its margin inf is written as null
        cfg = write_cfg(tmp_path, "p.json", {"omega": [[1.0]],
                                            "chi": [[3.0]]})
        out = tmp_path / "report.json"
        assert main(["conditions", cfg, "--summary", str(out),
                     "--quiet"]) == EXIT_OK
        c2 = read_report(out)["conditions"]["C2"]
        assert c2 == {"passed": True, "margin": None, "boundary": False}

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

    def test_form_not_a_matrix_is_a_schema_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "p.json", {"omega": {}, "chi": [[2.0]]})
        assert main(["conditions", cfg]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith(
            "config error: field 'omega': expected a matrix (list of rows)")

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
        payload = read_report(out)
        values = payload["values"]
        assert values["IE"] > 0 and values["JE"] > 0
        assert values["JE"] <= values["IE"]
        assert values["entropy"] >= -1e-12
        assert payload["ie_route_gap"] < 1e-10
        assert payload["path_gaps"]["Jhat"]["rel"] < 1e-5
        assert payload["path_gaps"]["mabuchi"]["rel"] < 1e-4
        # one linear Mabuchi sweep serves the value and the comparison
        assert values["mabuchi"] == payload["path_gaps"]["mabuchi"]["linear"]
        # the config echoes the problem alone
        assert set(payload["config"]) == {"n", "points", "mode", "deriv",
                                          "omega", "chi0", "phi0"}


class TestConeCommand:
    def test_alpha_certificate(self, tmp_path):
        out = tmp_path / "cone.json"
        code = main(["cone", "blowup_p2_1", "--alpha", "3,1",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        payload = read_report(out)
        assert payload["search"]["status"] == "certificate"
        assert payload["verified"]
        assert payload["search"]["remainder"] == ["3", "-1"]

    def test_pair_condition(self, tmp_path):
        out = tmp_path / "cone.json"
        code = main(["cone", "blowup_p2_1", "--omega", "2,-1",
                     "--chi0", "5,-1", "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        payload = read_report(out)
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
        assert read_report(out)["search"]["status"] == "kahler"

    def test_crowded_support_certified(self, tmp_path, crowded_lattice):
        # the uniform margin alone left this class refused, and the refusal
        # failed the audit
        path = tmp_path / "crowded.json"
        path.write_text(json.dumps(crowded_lattice.as_dict()))
        out = tmp_path / "cone.json"
        code = main(["cone", str(path), "--alpha", "4,-2,0,2",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        payload = read_report(out)
        assert payload["search"]["certificate"] == {
            "support": ["C3", "C0"], "coefficients": ["283/341", "204/341"]}
        assert payload["search"]["margin"] == "1"
        assert payload["verified"]

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
        payload = read_report(out)
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
        (lambda data: dict(data, rank=0, Q=[]), "rank must be at least 1"),
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
            "rank-bool", "rank-zero", "q-number", "reference-string",
            "curves-number", "class-number", "entry-not-rational",
            "entry-zero-denominator", "entry-nan"])
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

    @pytest.mark.parametrize("alpha", ["1/0,1", "x,1"])
    def test_bad_alpha_component(self, capsys, alpha):
        assert main(["cone", "blowup_p2_1", "--alpha", alpha]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith(
            "config error: field 'alpha': bad rational component")

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
            digests.append(read_report(out)["digest"])
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("flag, value", [
        ("--functionals-samples", "0"), ("--conditions-samples", "-3"),
        ("--cone-samples", "0"), ("--cone-samples", "100001"),
        ("--functionals-samples", "2.5")])
    def test_suite_size_out_of_range(self, capsys, flag, value):
        # each size flag is an integer from 1 to MAX_SUITE_SIZE; argparse
        # exits 2 before any suite runs
        assert MAX_SUITE_SIZE == sampling.MAX_SUITE_SIZE == 100_000
        with pytest.raises(SystemExit) as exc:
            main(["proptest", flag, value, "--quiet"])
        assert exc.value.code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"error: argument {flag}: " in err and "Traceback" not in err

    def test_suite_size_bounds_accepted(self):
        # parsed only: a suite of MAX_SUITE_SIZE samples is not run here
        for value in ("1", str(MAX_SUITE_SIZE)):
            args = build_parser().parse_args(
                ["proptest", "--functionals-samples", value])
            assert args.functionals_samples == int(value)

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
        payload = read_report(out)
        assert payload["command"] == command
        assert payload["exit_code"] == code
        wall = payload["wall_time_s"]
        assert isinstance(wall, float) and math.isfinite(wall) and wall >= 0
        # quiet without a report path prints the headline alone
        assert main([*argv, "--quiet"]) == code
        assert len(capsys.readouterr().out.splitlines()) == 1


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
LATTICE_DIR = resources.files("jflow.data.lattices")


def _shipped_inputs() -> list:
    """[(name, payload, argv builder)] for every shipped config, its grid
    cut to 8 points, and every builtin lattice file with --alpha set to its
    reference class."""
    commands = {"conditions_pair": "conditions", "critical_newton": "critical",
                "flow_reference": "flow", "functionals_demo": "functionals"}
    inputs = []
    for stem, command in sorted(commands.items()):
        payload = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
        if "points" in payload:
            payload["points"] = 8
        inputs.append((stem, payload,
                       lambda path, c=command: [c, path, "--quiet"]))
    for name in BUILTIN_LATTICES:
        payload = json.loads((LATTICE_DIR / f"{name}.json").read_text())
        alpha = ",".join(payload["reference_kahler"])
        inputs.append((name, payload,
                       lambda p, a=alpha: ["cone", p, "--alpha", a,
                                           "--quiet"]))
    return inputs


SHIPPED = _shipped_inputs()


def _slots(node, path=()):
    """Every (container path, key) in a JSON tree."""
    keys = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in keys:
        yield path, key
        if isinstance(value, (dict, list)) and value:
            yield from _slots(value, path + (key,))


def _mutate(payload, path, key, kind, value):
    tree = json.loads(json.dumps(payload))
    parent = tree
    for step in path:
        parent = parent[step]
    if kind == "drop":
        del parent[key]
    elif kind == "list":
        old = parent[key]
        parent[key] = list(old.values()) if isinstance(old, dict) else [old]
    else:
        parent[key] = value
    return tree


class TestMutatedShippedInputs:
    """A shipped config or lattice file with one field dropped, retyped,
    made non-finite or turned into a list ends in a documented exit code,
    never in an exception out of main."""

    @given(data=st.data())
    @hsettings(max_examples=150)
    def test_documented_exit_code(self, data):
        name, payload, argv = data.draw(st.sampled_from(SHIPPED))
        path, key = data.draw(st.sampled_from(list(_slots(payload))))
        kind = data.draw(st.sampled_from(["drop", "list", "value"]))
        value = data.draw(st.sampled_from(
            ["x", True, None, 1, 2.5, {}, [], float("nan"), float("inf"),
             -float("inf")]))
        mutated = _mutate(payload, path, key, kind, value)
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / f"{name}.json"
            target.write_text(json.dumps(mutated), encoding="utf-8")
            err = io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(err)):
                code = main(argv(str(target)))
        assert code in {EXIT_OK, EXIT_SCHEMA, EXIT_INADMISSIBLE, EXIT_BLOWUP,
                        EXIT_TIMEOUT, EXIT_INVARIANT}
        assert "Traceback" not in err.getvalue()
