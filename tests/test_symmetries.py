"""Exact symmetries of the flow and of Newton's method, asserted bitwise.

The flow phidot = c - Lambda_chi omega / n is homogeneous in its data.
Scaling omega by s scales c and phidot by s, so the trajectory runs s times
faster.  Scaling chi0 and phi by s divides phidot by s, so the trajectory of
s phi runs s^2 times slower.  A cyclic shift of the grid commutes with the
stencils.  With s = 4 every rescaled number of a run is rescaled by a power
of two: the Cholesky pivots and their square roots, c, the stability
ceiling, each step, the error test and its noise floor.  So the arithmetic
is exact and the identities hold bit for bit, for the flow and for the
Newton iterates alike.  The spectral derivative's FFT does not commute with
a shift exactly, so there the shift holds to a stated tolerance.
"""

import numpy as np
import pytest

from jflow import cli
from jflow.critical import NewtonSettings, newton_solve
from jflow.flow import FlowSetup, run
from jflow.hermitian import as_matrix
from jflow.sampling import random_admissible_potential
from jflow.torus import TorusGrid

T_MAX = 50.0
TOL = 1e-8

# gap of a shifted spectral run to the shifted run, about eps * max|phi|
SPECTRAL_SHIFT_TOL = 2e-15

# (mode, deriv, points, n, complex forms); each base run stops at T_MAX
CASES = [
    ("invariant", "fd4", 16, 2, False),
    ("invariant", "spectral", 16, 2, False),
    ("full", "fd4", 8, 2, True),
    ("invariant", "fd4", 8, 3, False),
]


def _form(rng, n, complex_entries):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return as_matrix(a @ a.conj().T + n * np.eye(n))


@pytest.fixture(scope="module", params=CASES,
                ids=lambda c: f"{c[0]}-{c[1]}-N{c[2]}-n{c[3]}")
def problem(request):
    mode, deriv, points, n, complex_forms = request.param
    grid = TorusGrid(n=n, points=points, mode=mode)
    rng = np.random.default_rng([n, points, len(mode), len(deriv)])
    omega = _form(rng, n, True) if complex_forms else np.eye(n)
    chi0 = _form(rng, n, True) if complex_forms else 2.0 * np.eye(n)
    phi0 = random_admissible_potential(rng, grid, as_matrix(chi0), band=2,
                                       amplitude=0.6, deriv=deriv)
    data = {"grid": grid, "omega": omega, "chi0": chi0, "deriv": deriv}
    base = run(FlowSetup(**data, t_max=T_MAX, tol_converge=TOL), phi0)
    # a timeout at T_MAX, so every scaled run is compared over its whole span
    assert base.verdict == "timeout" and base.final.t == T_MAX
    return data, phi0, base


def _columns(result, *names) -> list:
    return [[getattr(r, name) for name in names] for r in result.records]


class TestFlow:
    def test_omega_scaled_by_four_runs_four_times_faster(self, problem):
        data, phi0, base = problem
        fast = run(FlowSetup(**dict(data, omega=4.0 * data["omega"]),
                             t_max=T_MAX / 4.0, tol_converge=4.0 * TOL), phi0)
        assert (fast.steps, fast.rejected_steps) == (base.steps,
                                                     base.rejected_steps)
        assert np.array_equal(fast.final.phi, base.final.phi)
        assert _columns(fast, "t", "residual", "dt") == [
            [t / 4.0, 4.0 * res, dt / 4.0]
            for t, res, dt in _columns(base, "t", "residual", "dt")]

    def test_chi_and_phi_scaled_by_four_run_sixteen_times_slower(self,
                                                                 problem):
        data, phi0, base = problem
        slow = run(FlowSetup(**dict(data, chi0=4.0 * data["chi0"]),
                             t_max=16.0 * T_MAX, tol_converge=TOL / 4.0),
                   4.0 * phi0)
        assert (slow.steps, slow.rejected_steps) == (base.steps,
                                                     base.rejected_steps)
        assert np.array_equal(slow.final.phi, 4.0 * base.final.phi)
        assert _columns(slow, "t", "residual", "dt") == [
            [16.0 * t, res / 4.0, 16.0 * dt]
            for t, res, dt in _columns(base, "t", "residual", "dt")]

    def test_shifted_potential_gives_the_shifted_run(self, problem):
        data, phi0, base = problem
        shifted = run(FlowSetup(**data, t_max=T_MAX, tol_converge=TOL),
                      np.roll(phi0, 3, axis=0))
        assert (shifted.steps, shifted.rejected_steps) == (
            base.steps, base.rejected_steps)
        want = np.roll(base.final.phi, 3, axis=0)
        if data["deriv"] == "fd4":
            assert np.array_equal(shifted.final.phi, want)
        else:
            assert np.max(np.abs(shifted.final.phi - want)) <= (
                SPECTRAL_SHIFT_TOL)

    def test_normalize_builds_one_setup_from_omega_and_four_omega(self,
                                                                  problem):
        data, _, _ = problem
        one = FlowSetup(**data, normalize=True)
        four = FlowSetup(**dict(data, omega=4.0 * data["omega"]),
                         normalize=True)
        assert np.array_equal(one.omega, four.omega) and one.c == four.c
        assert four.omega_scale == one.omega_scale / 4.0


class TestNewton:
    """Newton's residual, operator and preconditioner scale like the flow's
    velocity, so every iterate and every CG count is the same; the stopping
    tolerance is scaled with the residual."""

    def test_omega_scaled_by_four(self, problem):
        data, phi0, _ = problem
        args = (data["grid"], data["omega"], data["chi0"], phi0)
        phi, report = newton_solve(*args, NewtonSettings(tol=1e-9),
                                   data["deriv"])
        phi4, report4 = newton_solve(
            data["grid"], 4.0 * data["omega"], data["chi0"], phi0,
            NewtonSettings(tol=4e-9), data["deriv"])
        assert report.converged
        assert np.array_equal(phi4, phi)
        assert report4.cg_iterations == report.cg_iterations
        assert report4.residuals == [4.0 * r for r in report.residuals]

    def test_chi_and_phi_scaled_by_four(self, problem):
        data, phi0, _ = problem
        phi, report = newton_solve(data["grid"], data["omega"], data["chi0"],
                                   phi0, NewtonSettings(tol=1e-9),
                                   data["deriv"])
        phi4, report4 = newton_solve(
            data["grid"], data["omega"], 4.0 * data["chi0"], 4.0 * phi0,
            NewtonSettings(tol=0.25e-9), data["deriv"])
        assert report.converged
        assert np.array_equal(phi4, 4.0 * phi)
        assert report4.cg_iterations == report.cg_iterations
        assert report4.residuals == [r / 4.0 for r in report.residuals]


def test_cli_normalize_gives_one_csv_for_omega_and_four_omega(tmp_path):
    csvs = []
    for scale in (1.0, 4.0):
        cfg = tmp_path / f"flow{scale:g}.json"
        cfg.write_text(
            '{"n": 2, "points": 16, "normalize": true, "t_max": 20.0, '
            f'"omega": [[{3.0 * scale}, {0.5 * scale}], '
            f'[{0.5 * scale}, {scale}]], "chi0": [[2.0, 0.0], [0.0, 2.0]], '
            '"phi0": {"modes": [{"k": [1, 0], "amplitude": 0.3}, '
            '{"k": [1, 1], "amplitude": 0.1}]}}', encoding="utf-8")
        csv = tmp_path / f"flow{scale:g}.csv"
        assert cli.main(["flow", str(cfg), "--csv", str(csv),
                         "--quiet"]) == cli.EXIT_TIMEOUT
        csvs.append(csv.read_bytes())
    assert csvs[0] == csvs[1]
