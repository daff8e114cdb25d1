"""Command line front end for the flow laboratory.

Subcommands:

  flow         integrate the trace-form flow from a JSON config
  critical     Newton solve for the critical potential
  conditions   pointwise condition margins for one constant pair
  functionals  evaluate the energy functionals for one potential
  cone         exact surface-lattice cone tests and divisor certificates
  proptest     run the randomized property suites under a fixed seed

Configs are strictly validated: any unknown or malformed field aborts with
exit code 2 and a message naming the field path; the CLI checks types, and
the ranges and work caps are the library's (TorusGrid, FlowSetup,
NewtonSettings, the sampler and cosine_mode).  Each cmd_* returns
its exit code, its JSON payload (with the fully resolved configuration, so
a report describes its own provenance) and a one-line headline; main adds
the keys "command", "exit_code" and "wall_time_s" and emits the report,
which --summary (flow, critical, conditions, functionals) and --out (cone,
proptest) both write to a file.  wall_time_s is the seconds from the
command's start to its report, the only field that may differ between
identical runs.

Exit codes:
  0  success
  1  property suite found a counterexample
  2  schema violation (config, lattice file, phi0.file archive) or an
     output path that cannot be written
  3  inadmissible input (non-positive form, potential outside the cone)
  4  flow blow-up (a trial step loses positivity or holds a NaN, or the
     monitor passes its ceiling)
  5  timeout or iteration budget exhausted
  6  internal invariant violation (descent monotonicity, certificate audit)
  141  stdout closed by its reader before the output was written

JFLOW_THREADS caps the BLAS thread pool best-effort: the package __init__
copies it into the usual thread-count variables, which takes effect when
jflow is imported before numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from fractions import Fraction
from zipfile import BadZipFile

import numpy as np

from .cone import (BUILTIN_LATTICES, ConeError, LatticeError, builtin_lattice,
                   class_condition, divisor_search, load_lattice, nakai_test,
                   verify_certificate)
from .critical import NewtonSettings, newton_solve
from .flow import FlowSetup, monitor_max_principle, run, write_series_csv
from .functionals import (eval_entropy, eval_mabuchi,
                          flow_functional_bundle, ie_second_form,
                          path_functional_bundle, path_independence_gap)
from .hermitian import (CONDITIONS, SettingError, SingularFormError,
                        as_matrix, condition_report, relative_spectrum,
                        require_positive)
from .sampling import (DEFAULT_SIZES, FAULTS, MAX_SUITE_SIZE, make_rng,
                       random_admissible_potential, report_digest,
                       run_property_suites)
from .torus import (DERIV_MODES, TorusGrid, class_constant_c, cosine_mode,
                    load_field, metric_field, save_field)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_SCHEMA = 2
EXIT_INADMISSIBLE = 3
EXIT_BLOWUP = 4
EXIT_TIMEOUT = 5
EXIT_INVARIANT = 6
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SettingError(_join(path, key), "unknown field")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SettingError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SettingError(path, f"expected a number, got {type(value).__name__}")
    # an exact comparison, so an integer past the float range fails too
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise SettingError(path, "must be a finite number")
    return float(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SettingError(path, f"expected true/false, got {type(value).__name__}")
    return value


# checks by f.type, a postponed annotation; the classes check the ranges
_SETTING_PARSERS = {"bool": _as_bool, "int": _as_int, "float": _as_float}


def _setting_fields(cls) -> dict:
    return {f.name: f for f in fields(cls)
            if f.init and f.type in _SETTING_PARSERS}


@contextmanager
def _fields_under(path: str):
    """Reraise a library SettingError from the block at its config path."""
    try:
        yield
    except SettingError as err:
        raise SettingError(_join(path, err.field), err.reason) from None


def _build_settings(cls, cfg: dict, path: str, **problem) -> tuple:
    """(cls instance, its policy fields from cfg or the class defaults)."""
    resolved = {name: _SETTING_PARSERS[f.type](cfg.get(name, f.default),
                                               _join(path, name))
                for name, f in _setting_fields(cls).items()}
    with _fields_under(path):
        return cls(**problem, **resolved), resolved


def _parse_entry(value, path: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    try:
        return complex(*(_as_float(v, path) for v in parts))
    except SettingError:
        raise SettingError(path, "matrix entries are finite numbers or "
                                 "[re, im] pairs") from None


def _parse_matrix(value, n: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise SettingError(path, f"expected {n} rows")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise SettingError(f"{path}[{i}]", f"expected {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_entry(entry, f"{path}[{i}][{j}]")
    if np.max(np.abs(out - out.conj().T)) > 1e-12 * max(1.0, np.abs(out).max()):
        raise SettingError(path, "matrix must be Hermitian")
    return out


def _matrix_to_json(m: np.ndarray) -> list:
    return [[float(v.real) if v.imag == 0.0 else [float(v.real), float(v.imag)]
             for v in row] for row in np.asarray(m, dtype=complex)]


def _parse_form(cfg: dict, key: str, n: int) -> np.ndarray:
    """The required n x n form cfg[key]; a non-positive one is inadmissible."""
    if key not in cfg:
        raise SettingError(key, "required field is missing")
    form = _parse_matrix(cfg[key], n, key)
    require_positive(form, key)
    return form


_PHI0_MODE_KEYS = ("k", "amplitude", "phase")
_PHI0_RANDOM_DEFAULTS = {"seed": 0, "band": 2, "amplitude": 0.5}


def _parse_phi0(value, grid: TorusGrid, chi0: np.ndarray, deriv: str,
                path: str) -> tuple:
    """Normalize the initial-potential spec to exactly one variant and build
    its field; returns (spec, phi0).

    Wavevector components are at most points // 2: past it the grid holds
    no new mode.  The sampler and cosine_mode check their own ranges and
    the mode cap before they draw or allocate.
    """
    if value is None:
        return {"zero": True}, grid.zeros()
    if not isinstance(value, dict):
        raise SettingError(path, "expected an object")
    variants = ("zero", "modes", "file", "random")
    half = grid.points // 2
    _reject_unknown(value, variants, path)
    if len(value) != 1:
        raise SettingError(path, f"exactly one of {variants} must be given")
    if "zero" in value:
        if value["zero"] is not True:
            raise SettingError(_join(path, "zero"), "the only allowed value is true")
        return {"zero": True}, grid.zeros()
    if "file" in value:
        if not isinstance(value["file"], str):
            raise SettingError(_join(path, "file"), "expected a path string")
        try:
            stored, values, _ = load_field(value["file"])
        except (OSError, ValueError, KeyError, BadZipFile) as err:
            raise SettingError("phi0.file", f"cannot load a stored "
                                            f"potential: {err}") from None
        if stored != grid:
            raise SettingError(
                "phi0.file",
                f"stored grid {stored.describe()} does not match the "
                f"configured grid {grid.describe()}")
        return {"file": value["file"]}, np.asarray(values, dtype=float)
    if "random" in value:
        spec, rpath = value["random"], _join(path, "random")
        if not isinstance(spec, dict):
            raise SettingError(rpath, "expected an object")
        _reject_unknown(spec, _PHI0_RANDOM_DEFAULTS, rpath)
        merged = dict(_PHI0_RANDOM_DEFAULTS, **spec)
        for key, parse in (("seed", _as_int), ("band", _as_int),
                           ("amplitude", _as_float)):
            merged[key] = parse(merged[key], _join(rpath, key))
        with _fields_under(rpath):
            phi = random_admissible_potential(
                make_rng(merged["seed"], stream=7), grid, chi0,
                band=merged["band"], amplitude=merged["amplitude"],
                deriv=deriv)
        return {"random": merged}, phi
    modes = value["modes"]
    if not isinstance(modes, list) or not modes:
        raise SettingError(_join(path, "modes"), "expected a non-empty list")
    parsed = []
    for i, mode in enumerate(modes):
        mpath = f"{path}.modes[{i}]"
        if not isinstance(mode, dict):
            raise SettingError(mpath, "expected an object")
        _reject_unknown(mode, _PHI0_MODE_KEYS, mpath)
        if "k" not in mode or "amplitude" not in mode:
            raise SettingError(mpath, "needs k and amplitude")
        k = mode["k"]
        if (not isinstance(k, list) or len(k) != grid.naxes
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           for x in k)):
            raise SettingError(_join(mpath, "k"),
                               f"expected {grid.naxes} integer components")
        if any(abs(x) > half for x in k):
            raise SettingError(_join(mpath, "k"), f"components must be at "
                               f"most points // 2 = {half} in magnitude")
        amplitude = _as_float(mode["amplitude"], _join(mpath, "amplitude"))
        phase = _as_float(mode.get("phase", 0.0), _join(mpath, "phase"))
        parsed.append({"k": list(k), "amplitude": amplitude, "phase": phase})
    table = zip(*(m.values() for m in parsed))  # k, amplitude, phase
    with _fields_under(path):
        return {"modes": parsed}, cosine_mode(grid, *table)


def _reject_constant(name: str):
    raise SettingError("(config)", f"{name} is not a finite number")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=_reject_constant)
    except OSError as err:
        raise SettingError("(config)",
                           f"cannot read {path}: {err.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise SettingError("(config)", f"invalid JSON: {err}") from None
    if not isinstance(data, dict):
        raise SettingError("(config)", "top level must be an object")
    return data


_PROBLEM_FIELDS = ("n", "points", "mode", "deriv", "omega", "chi0", "phi0")


def _build_problem(cfg: dict, extra_allowed=()) -> dict:
    """Grid, forms, and initial potential shared by several subcommands."""
    _reject_unknown(cfg, set(_PROBLEM_FIELDS) | set(extra_allowed), "")
    for key in ("n", "points"):
        if key not in cfg:
            raise SettingError(key, "required field is missing")
    # TorusGrid checks the grid's ranges and caps before any field exists
    grid, _ = _build_settings(TorusGrid, cfg, "",
                              mode=cfg.get("mode", "invariant"))
    omega = _parse_form(cfg, "omega", grid.n)
    chi0 = _parse_form(cfg, "chi0", grid.n)
    deriv = cfg.get("deriv", "fd4")
    if deriv not in DERIV_MODES:
        raise SettingError("deriv", f"must be one of {DERIV_MODES}")
    phi0_spec, phi0 = _parse_phi0(cfg.get("phi0"), grid, chi0, deriv, "phi0")
    resolved = dict(grid.describe(), deriv=deriv,
                    omega=_matrix_to_json(omega), chi0=_matrix_to_json(chi0),
                    phi0=phi0_spec)
    return {"grid": grid, "omega": omega, "chi0": chi0, "phi0": phi0,
            "deriv": deriv, "resolved": resolved}


def _emit(payload: dict, out_path: str | None, quiet: bool,
          headline: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if not out_path:
        print(headline if quiet else text)
        return
    with open(out_path, "w", encoding="ascii") as handle:
        handle.write(text + "\n")
    if not quiet:
        print(headline)


def cmd_flow(args) -> tuple:
    cfg = _load_config(args.config)
    problem = _build_problem(cfg, extra_allowed=_setting_fields(FlowSetup))
    setup, settings = _build_settings(
        FlowSetup, cfg, "", grid=problem["grid"], omega=problem["omega"],
        chi0=problem["chi0"], deriv=problem["deriv"])
    resolved = dict(problem["resolved"], **settings)
    result = run(setup, problem["phi0"])
    code = {"converged": EXIT_OK, "blowup": EXIT_BLOWUP,
            "timeout": EXIT_TIMEOUT}[result.verdict]
    note = ""
    if code == EXIT_OK and not result.jhat_monotone:
        code = EXIT_INVARIANT
        note = "descent invariant violated: sampled Jhat is not monotone"

    if args.csv:
        write_series_csv(args.csv, result.records)
    first, last = result.records[0], result.records[-1]
    monitor = monitor_max_principle(result)
    monitor["band"] = list(monitor["band"])
    payload = {
        "config": resolved,
        "verdict": result.verdict,
        "note": note,
        "c": setup.c,
        "omega_scale": setup.omega_scale,
        "steps": result.steps,
        "samples": len(result.records),
        "initial": {"t": first.t, "residual": first.residual,
                    "Jhat": first.Jhat, "lam_min": first.lam_min,
                    "lam_max": first.lam_max},
        "final": {"t": last.t, "residual": last.residual, "Jhat": last.Jhat,
                  "lam_min": last.lam_min, "lam_max": last.lam_max,
                  "sup_phi": last.sup_phi, "inf_phi": last.inf_phi,
                  "blowup": last.blowup, "entropy": last.entropy},
        "monitor": monitor,
        "jhat_monotone": result.jhat_monotone,
        "csv": args.csv,
    }
    return code, payload, (f"flow: {result.verdict} after {result.steps} "
                           f"steps, residual {last.residual:.3e}")


def cmd_critical(args) -> tuple:
    cfg = _load_config(args.config)
    problem = _build_problem(cfg, extra_allowed=("newton",))
    newton_cfg = cfg.get("newton", {})
    if not isinstance(newton_cfg, dict):
        raise SettingError("newton", "expected an object")
    _reject_unknown(newton_cfg, _setting_fields(NewtonSettings), "newton")
    settings, newton = _build_settings(NewtonSettings, newton_cfg, "newton")

    phi, report = newton_solve(problem["grid"], problem["omega"],
                               problem["chi0"], problem["phi0"],
                               settings, problem["deriv"])
    if args.save_field:
        save_field(args.save_field, problem["grid"], phi,
                   meta={"source": "critical"})
    final_res = report.residuals[-1]
    payload = {
        "config": dict(problem["resolved"], newton=newton),
        "newton": report.as_dict(),
        "final_residual": final_res,
        "c": class_constant_c(problem["omega"], problem["chi0"]),
        "sup_phi": float(np.max(phi)),
        "inf_phi": float(np.min(phi)),
        "field": args.save_field,
    }
    return (EXIT_OK if report.converged else EXIT_TIMEOUT, payload,
            f"critical: {'converged' if report.converged else report.message} "
            f"in {report.iterations} iterations, residual {final_res:.3e}")


_CONDITIONS_FIELDS = ("omega", "chi", "normalize")


def cmd_conditions(args) -> tuple:
    cfg = _load_config(args.config)
    _reject_unknown(cfg, _CONDITIONS_FIELDS, "")
    if "omega" in cfg and (not isinstance(cfg["omega"], list)
                           or not cfg["omega"]):
        raise SettingError("omega", "expected a matrix (list of rows)")
    n = len(cfg.get("omega", ()))
    omega = _parse_form(cfg, "omega", n)
    chi = _parse_form(cfg, "chi", n)
    normalize = _as_bool(cfg.get("normalize", False), "normalize")
    c = class_constant_c(omega, chi)
    scaled = omega / (n * c) if normalize else omega
    lam = relative_spectrum(scaled, chi)
    conditions = {}
    for which in CONDITIONS:
        rep = condition_report(lam, which)
        margin = rep.margin if np.isfinite(rep.margin) else None
        conditions[which] = {"passed": rep.passed, "margin": margin,
                             "boundary": rep.boundary}
    payload = {
        "config": {"omega": _matrix_to_json(omega),
                   "chi": _matrix_to_json(chi),
                   "normalize": normalize},
        "n": n,
        "c": c,
        "nc": n * c,
        "lambdas": [float(v) for v in lam],
        "trace_of_inverse": float(np.sum(1.0 / lam)),
        "conditions": conditions,
        "cone": conditions["C3"] if n >= 2 else None,
    }
    return EXIT_OK, payload, "conditions: " + ", ".join(
        f"{k}={'pass' if v['passed'] else 'fail'}"
        for k, v in conditions.items())


def cmd_functionals(args) -> tuple:
    cfg = _load_config(args.config)
    problem = _build_problem(cfg)
    grid, omega, chi0 = problem["grid"], problem["omega"], problem["chi0"]

    metric = metric_field(grid, as_matrix(chi0), problem["phi0"],
                          problem["deriv"])
    bundle = flow_functional_bundle(metric, omega)
    ie, je = bundle["IE"], bundle["JE"]
    ie2 = ie_second_form(metric)
    entropy = eval_entropy(metric)
    # the Mabuchi value is the linear leg of its path comparison
    j_lin, j_quad, j_rel = path_independence_gap(
        lambda path: path_functional_bundle(metric, omega, path)["Jhat"])
    m_lin, m_quad, m_rel = path_independence_gap(
        lambda path: eval_mabuchi(metric, path))
    payload = {
        "config": problem["resolved"],
        "c": class_constant_c(omega, chi0),
        "values": {
            "J": bundle["J"], "I": bundle["I"], "Jhat": bundle["Jhat"],
            "IE": ie, "JE": je, "IE_second_form": ie2,
            "entropy": entropy, "mabuchi": m_lin,
        },
        "ie_route_gap": abs(ie - ie2) / max(1.0, abs(ie)),
        "path_gaps": {
            "Jhat": {"linear": j_lin, "quadratic": j_quad, "rel": j_rel},
            "mabuchi": {"linear": m_lin, "quadratic": m_quad, "rel": m_rel},
        },
    }
    return EXIT_OK, payload, (f"functionals: Jhat={bundle['Jhat']:.6e} "
                              f"IE={ie:.6e} JE={je:.6e}")


def _parse_class(text: str, rank: int, name: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rank:
        raise SettingError(name, f"expected {rank} comma-separated components")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as err:
        raise SettingError(name, f"bad rational component: {err}") from None


def cmd_cone(args) -> tuple:
    if args.lattice in BUILTIN_LATTICES:
        lattice = builtin_lattice(args.lattice)
    else:
        try:
            lattice = load_lattice(args.lattice)
        except OSError:
            raise SettingError(
                "lattice",
                f"{args.lattice!r} is neither a builtin "
                f"({', '.join(BUILTIN_LATTICES)}) nor a readable file"
            ) from None
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise SettingError("lattice", f"invalid JSON: {err}") from None

    if args.alpha is None and (args.omega is None or args.chi0 is None):
        raise SettingError("alpha", "give --alpha, or both --omega and --chi0")
    if args.alpha is not None and (args.omega or args.chi0):
        raise SettingError("alpha", "--alpha excludes --omega/--chi0")

    code = EXIT_OK
    payload = {"lattice": lattice.as_dict()}
    target = None
    if args.alpha is not None:
        target = _parse_class(args.alpha, lattice.rank, "alpha")
        nakai = nakai_test(lattice, target)
        payload.update({
            "alpha": [str(x) for x in target],
            "nakai": {"passed": nakai.passed, "square": str(nakai.square),
                      "detail": nakai.describe()},
        })
    else:
        omega = _parse_class(args.omega, lattice.rank, "omega")
        chi0 = _parse_class(args.chi0, lattice.rank, "chi0")
        cond = class_condition(lattice, omega, chi0)
        payload.update({
            "omega": [str(x) for x in omega],
            "chi0": [str(x) for x in chi0],
            "c": str(cond["c"]),
            "target": [str(x) for x in cond["target"]],
            "identity_square": cond["identity_square"],
            "identity_mixed": cond["identity_mixed"],
            "target_nakai": cond["nakai"].describe(),
            "needs_divisor": cond["needs_divisor"],
        })
        if not (cond["identity_square"] and cond["identity_mixed"]):
            code = EXIT_INVARIANT
            payload["note"] = "exact class identities failed"
        elif cond["needs_divisor"]:
            target = cond["target"]
    if target is not None:
        search = divisor_search(lattice, target)
        verified = verify_certificate(lattice, target, search)
        payload["search"] = search.as_dict()
        payload["verified"] = verified
        if not verified:
            code = EXIT_INVARIANT
            payload["note"] = ("certificate failed its independent audit"
                               if search.status == "certificate" else
                               "search result failed its independent audit")
    status = payload.get("search", {}).get("status", "kahler")
    return code, payload, f"cone: {status}"


def cmd_proptest(args) -> tuple:
    sizes = {suite: size for suite in DEFAULT_SIZES
             if (size := getattr(args, f"{suite}_samples")) is not None}
    report = run_property_suites(args.seed, sizes=sizes or None,
                                 fault=args.inject_fault)
    digest = report_digest(report)
    passed = report["all_passed"]
    return (EXIT_OK if passed else EXIT_PROPERTY_FAILURE,
            {"report": report, "digest": digest},
            f"proptest: {'all passed' if passed else 'FAILED'} "
            f"(digest {digest[:16]})")


def _suite_size(text: str) -> int:
    """argparse type of the --*-samples flags, whose errors name the flag."""
    if not 1 <= int(text) <= MAX_SUITE_SIZE:
        raise argparse.ArgumentTypeError(f"{text} not in 1..{MAX_SUITE_SIZE}")
    return int(text)


def _add_command(sub, name: str, func, help: str, config: bool = True):
    """Subparser with --quiet and the report flag: a config command takes
    its config path and --summary, the others --out; both set args.report."""
    parser = sub.add_parser(name, help=help)
    if config:
        parser.add_argument("config", help="JSON config path")
    parser.add_argument("--summary" if config else "--out", dest="report",
                        metavar="PATH", help="write the JSON report here")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the one-line verdict")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jflow",
        description="flow runs, critical solves, cone certificates, and "
                    "property suites for constant Hermitian pairs on tori")
    sub = parser.add_subparsers(dest="command", required=True)

    flow_p = _add_command(sub, "flow", cmd_flow,
                          "integrate the flow from a config")
    flow_p.add_argument("--csv", help="write the sampled time series here")
    crit_p = _add_command(sub, "critical", cmd_critical,
                          "Newton solve from a config")
    crit_p.add_argument("--save-field", help="write the solution potential here")
    _add_command(sub, "conditions", cmd_conditions,
                 "condition margins for one constant pair")
    _add_command(sub, "functionals", cmd_functionals,
                 "evaluate the energies for one potential")

    cone_p = _add_command(sub, "cone", cmd_cone,
                          "exact cone tests and divisor certificates",
                          config=False)
    cone_p.add_argument("lattice",
                        help=f"builtin name ({', '.join(BUILTIN_LATTICES)}) "
                             f"or a lattice JSON path")
    cone_p.add_argument("--alpha", help="class to decompose, e.g. '3,1'")
    cone_p.add_argument("--omega", help="Kahler class for the pair condition")
    cone_p.add_argument("--chi0", help="Kahler class for the pair condition")

    prop_p = _add_command(sub, "proptest", cmd_proptest,
                          "randomized property suites", config=False)
    prop_p.add_argument("--seed", type=int, default=0)
    for suite in DEFAULT_SIZES:
        prop_p.add_argument(f"--{suite}-samples", type=_suite_size)
    prop_p.add_argument("--inject-fault", choices=FAULTS, default=None,
                        help="test-only: sabotage a checker to prove the "
                             "suite catches it")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, payload, headline = args.func(args)
        payload.update(command=args.command, exit_code=code,
                       wall_time_s=time.perf_counter() - t0)
        _emit(payload, args.report, args.quiet, headline)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: devnull keeps the flush at exit from raising
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as err:  # each read raises SettingError: this is a write
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except SettingError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except LatticeError as err:
        print(f"lattice error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except (SingularFormError, ConeError) as err:
        print(f"inadmissible input: {err}", file=sys.stderr)
        return EXIT_INADMISSIBLE


if __name__ == "__main__":
    sys.exit(main())
