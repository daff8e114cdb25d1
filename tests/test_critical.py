"""Newton solver for the critical trace equation."""

import numpy as np
import pytest

from jflow import (
    NewtonSettings,
    SingularFormError,
    TorusGrid,
    cosine_mode,
    newton_solve,
)
from jflow.critical import _pcg, linearized_apply, residual_field
from jflow.torus import form_factor, metric_field


def fd4_symbol(k, dx):
    return (8.0 * np.sin(k * dx) - np.sin(2.0 * k * dx)) / (6.0 * dx)


class TestLinearizedOperator:
    def test_flat_mode_eigenfunction(self):
        # On a constant metric every cosine mode is an eigenfunction of
        # Ltilde with eigenvalue -(1/n) sum_a h_aa s_{k_a}^2 / 4; with the
        # composed stencil this is an exact identity.
        grid = TorusGrid(n=2, points=16)
        chi0 = np.diag([2.0, 2.5])
        g = np.diag([1.0, 0.8])
        metric = metric_field(grid, chi0, grid.zeros())
        v = cosine_mode(grid, [1, 2], 1.0, 0.3)
        h = np.linalg.inv(chi0) @ g @ np.linalg.inv(chi0)
        lam = -(h[0, 0] * fd4_symbol(1, grid.dx) ** 2
                + h[1, 1] * fd4_symbol(2, grid.dx) ** 2) / (4.0 * grid.n)
        got = linearized_apply(metric, g, v)
        assert np.max(np.abs(got - lam * v)) < 1e-13

    def test_spectral_mode_eigenfunction(self):
        grid = TorusGrid(n=1, points=16)
        metric = metric_field(grid, 2.0 * np.eye(1), grid.zeros(), "spectral")
        v = cosine_mode(grid, [3], 1.0)
        got = linearized_apply(metric, np.eye(1), v, "spectral")
        # h = 1/4 acting on ddbar cos(3x) = -(9/4) cos(3x)
        assert np.max(np.abs(got + (9.0 / 16.0) * v)) < 1e-12

    def test_negative_semidefinite_on_samples(self, rng):
        grid = TorusGrid(n=2, points=12)
        chi0 = np.array([[2.0, 0.3], [0.3, 1.5]])
        phi = cosine_mode(grid, [1, 0], 0.3)
        metric = metric_field(grid, chi0, phi)
        for _ in range(5):
            v = rng.standard_normal(grid.shape)
            val = float(np.sum(v * linearized_apply(metric, np.eye(2), v)))
            assert val <= 1e-10 * float(np.sum(v * v))


class TestPcg:
    def test_early_stop_reports_iterations_run(self):
        # a negative operator fails the positivity test p.Ap > 0 on the
        # first iteration; the count must say 1, not the budget
        grid = TorusGrid(n=1, points=16)
        b = cosine_mode(grid, [1], 1.0)
        x, iters = _pcg(lambda v: -v, b, np.ones(grid.shape), grid,
                        rtol=1e-10, maxiter=50)
        assert iters == 1
        assert np.array_equal(x, np.zeros_like(b))


class TestResidualField:
    def test_zero_at_equilibrium(self):
        grid = TorusGrid(n=2, points=12)
        res, _ = residual_field(grid, form_factor(np.eye(2)),
                                2.0 * np.eye(2), grid.zeros(), 0.5)
        assert np.max(np.abs(res)) < 1e-14

    def test_sign_convention(self):
        # where the hessian makes chi smaller, Lambda grows and the
        # residual c - Lambda/n dips negative
        grid = TorusGrid(n=1, points=16)
        phi = cosine_mode(grid, [1], 0.3)
        res, metric = residual_field(grid, form_factor(np.eye(1)),
                                     2.0 * np.eye(1), phi, 0.5)
        idx = int(np.argmin(metric.chi[..., 0, 0].real))
        assert res.ravel()[idx] < 0.0


class TestNewtonSolve:
    def test_settings_validation(self):
        with pytest.raises(ValueError):
            NewtonSettings(tol=0.0)
        with pytest.raises(ValueError):
            NewtonSettings(damping=0.0)

    def test_converges_from_moderate_seed(self):
        grid = TorusGrid(n=2, points=16)
        phi0 = cosine_mode(grid, [1, 0], 0.3) + cosine_mode(grid, [0, 2], 0.1)
        phi, report = newton_solve(grid, np.eye(2), 2.0 * np.eye(2), phi0)
        assert report.converged
        assert report.residuals[-1] < 1e-9
        assert report.iterations <= 8
        # constant background pairs have the trivial critical point
        assert np.max(np.abs(phi)) < 1e-8
        assert abs(phi.mean()) < 1e-12

    def test_residuals_decrease_strictly(self):
        grid = TorusGrid(n=2, points=16)
        phi0 = cosine_mode(grid, [1, 1], 0.4)
        _, report = newton_solve(grid, np.eye(2), 2.0 * np.eye(2), phi0)
        res = report.residuals
        assert all(b < a for a, b in zip(res, res[1:]))

    def test_quadratic_tail(self):
        grid = TorusGrid(n=2, points=16)
        phi0 = cosine_mode(grid, [1, 0], 0.3)
        _, report = newton_solve(grid, np.eye(2), 2.0 * np.eye(2), phi0)
        res = report.residuals
        # once inside the basin each iteration roughly squares the residual
        assert res[-1] <= 10.0 * res[-2] ** 2 / res[-3]

    def test_two_seeds_agree(self):
        grid = TorusGrid(n=1, points=32)
        omega = np.eye(1)
        chi0 = np.array([[1.7]])
        a, ra = newton_solve(grid, omega, chi0, cosine_mode(grid, [1], 0.5))
        b, rb = newton_solve(grid, omega, chi0,
                             cosine_mode(grid, [2], 0.3, 1.1))
        assert ra.converged and rb.converged
        assert np.max(np.abs(a - b)) < 1e-8

    def test_budget_exhaustion_reported(self):
        grid = TorusGrid(n=2, points=16)
        phi0 = cosine_mode(grid, [1, 0], 0.3)
        settings = NewtonSettings(tol=1e-12, max_iters=1)
        _, report = newton_solve(grid, np.eye(2), 2.0 * np.eye(2), phi0,
                                 settings)
        assert not report.converged
        assert report.iterations == 1
        assert "iteration budget" in report.message or report.message != ""

    def test_inadmissible_seed_raises(self):
        grid = TorusGrid(n=1, points=16)
        with pytest.raises(SingularFormError):
            newton_solve(grid, np.eye(1), np.eye(1),
                         cosine_mode(grid, [1], 4.5))

    def test_report_dict_roundtrip(self):
        grid = TorusGrid(n=1, points=16)
        _, report = newton_solve(grid, np.eye(1), 2.0 * np.eye(1),
                                 cosine_mode(grid, [1], 0.2))
        data = report.as_dict()
        assert data["converged"] is True
        assert len(data["residuals"]) == data["iterations"] + 1
        assert len(data["cg_iterations"]) == data["iterations"]

    def test_tiny_cg_budget_still_progresses(self):
        # an inexact inner solve leaves a quasi-Newton direction; the
        # backtracking line search must still find decrease
        grid = TorusGrid(n=1, points=16)
        settings = NewtonSettings(cg_maxiter=2, max_iters=30)
        phi, report = newton_solve(grid, np.eye(1), 2.0 * np.eye(1),
                                   cosine_mode(grid, [1], 0.3), settings)
        assert report.residuals[-1] < report.residuals[0]
