"""Newton solver for the critical trace equation."""

import numpy as np
import pytest

from jflow import (
    FlowSetup,
    NewtonSettings,
    SingularFormError,
    TorusGrid,
    cosine_mode,
    newton_solve,
)
from jflow import critical
from jflow.critical import (
    _ltilde,
    _mean_symbol_inverse,
    _pcg,
    residual_field,
)
from jflow.hermitian import as_matrix
from jflow.sampling import make_rng, random_admissible_potential
from jflow.torus import complex_hessian_of, metric_field, null_mode_projection
from oracles import linearized_apply

CHI0 = 2.0 * np.eye(2)


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
        got = linearized_apply(metric, np.eye(1), v)
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

    @pytest.mark.parametrize("deriv", ["fd4", "spectral"])
    @pytest.mark.parametrize("mode,n,points", [
        ("invariant", 1, 16), ("invariant", 2, 12), ("invariant", 3, 8),
        ("full", 1, 12), ("full", 2, 8),
    ])
    def test_matches_einsum_contraction(self, deriv, mode, n, points):
        # the upper-triangle contraction against the full einsum trace it
        # replaced
        grid = TorusGrid(n=n, points=points, mode=mode)
        rng = np.random.default_rng([n, points, deriv == "fd4"])
        a = rng.standard_normal((n, n))
        if mode == "full":
            a = a + 1j * rng.standard_normal((n, n))
        chi0 = as_matrix(a @ a.conj().T + n * np.eye(n))
        phi = random_admissible_potential(rng, grid, chi0, band=2,
                                          amplitude=0.8, rel_margin=0.2)
        metric = metric_field(grid, chi0, phi, deriv)
        h = metric.h_matrix(as_matrix(np.eye(n)))
        v = rng.standard_normal(grid.shape)
        want = np.einsum("...ab,...ba->...", h,
                         complex_hessian_of(v, grid, deriv)).real / n
        got = _ltilde(h, v, grid, deriv)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestPcg:
    def test_early_stop_reports_iterations_run(self):
        # a negative operator fails the positivity test p.Ap > 0 on the
        # first iteration; the count must say 1, not the budget
        grid = TorusGrid(n=1, points=16)
        b = cosine_mode(grid, [1], 1.0)
        x, iters = _pcg(lambda v: -v, b,
                        lambda r: null_mode_projection(r, grid), grid,
                        rtol=1e-10, maxiter=50)
        assert iters == 1
        assert np.array_equal(x, np.zeros_like(b))

    def test_zero_right_hand_side_returns_at_once(self):
        # a field of dead modes alone projects to zero: nothing to solve,
        # and neither the operator nor the preconditioner is applied
        grid = TorusGrid(n=1, points=16)

        def never(v):
            raise AssertionError("applied to a zero right-hand side")

        parity = np.where(np.arange(16) % 2, 1.0, -2.0)
        for b in (grid.zeros(), parity):
            x, iters = _pcg(never, b, never, grid, rtol=1e-10, maxiter=50)
            assert iters == 0
            assert not x.any()


class TestMeanSymbolPreconditioner:
    # On a constant metric h equals its grid mean, so the preconditioner is
    # the exact inverse of -Ltilde on the dead-mode complement.
    @pytest.mark.parametrize("deriv", ["fd4", "spectral"])
    @pytest.mark.parametrize("mode,n,points", [
        ("invariant", 1, 16), ("invariant", 2, 16), ("invariant", 2, 9),
        ("invariant", 3, 8), ("full", 1, 12), ("full", 2, 8),
    ])
    def test_inverts_constant_coefficient_operator(self, deriv, mode, n,
                                                   points):
        grid = TorusGrid(n=n, points=points, mode=mode)
        rng = np.random.default_rng(7 * n + points)
        shape = (n, n)
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        if mode == "full":
            a = a + 1j * rng.standard_normal(shape)
            b = b + 1j * rng.standard_normal(shape)
        chi0 = as_matrix(a @ a.conj().T + n * np.eye(n))
        g = as_matrix(b @ b.conj().T + n * np.eye(n))
        metric = metric_field(grid, chi0, grid.zeros(), deriv)
        precond = _mean_symbol_inverse(grid, metric.h_matrix(g), deriv)
        fields = [
            cosine_mode(grid, [1 + j for j in range(grid.naxes)], 1.0, 0.3),
            null_mode_projection(rng.standard_normal(grid.shape), grid),
        ]
        for v in fields:
            got = precond(-linearized_apply(metric, g, v))
            assert np.max(np.abs(got - v)) <= 1e-10 * np.max(np.abs(v))

    def test_dead_modes_map_to_zero(self):
        grid = TorusGrid(n=2, points=16)
        metric = metric_field(grid, CHI0, grid.zeros())
        precond = _mean_symbol_inverse(grid, metric.h_matrix(np.eye(2)),
                                       "fd4")
        dead = (2.5 + cosine_mode(grid, [8, 0]) + cosine_mode(grid, [0, 8])
                + cosine_mode(grid, [8, 8]))
        assert np.max(np.abs(precond(dead))) < 1e-12


class TestResidualField:
    def test_zero_at_equilibrium(self):
        grid = TorusGrid(n=2, points=12)
        setup = FlowSetup(grid=grid, omega=np.eye(2), chi0=2.0 * np.eye(2))
        res = residual_field(setup, grid.zeros()).phidot
        assert np.max(np.abs(res)) < 1e-14

    def test_sign_convention(self):
        # where the hessian makes chi smaller, Lambda grows and the
        # residual c - Lambda/n dips negative
        grid = TorusGrid(n=1, points=16)
        phi = cosine_mode(grid, [1], 0.3)
        setup = FlowSetup(grid=grid, omega=np.eye(1), chi0=2.0 * np.eye(1))
        state = residual_field(setup, phi)
        res, metric = state.phidot, state.metric
        idx = int(np.argmin(metric.chi[..., 0, 0].real))
        assert res.ravel()[idx] < 0.0


def stub_direction(monkeypatch, direction) -> list:
    """Make every inner solve return direction, and log each line-search
    trial: its residual, or "singular" where its metric lost positivity."""
    monkeypatch.setattr(critical, "_pcg", lambda *args: (direction, 1))
    real = critical.residual_field
    trials = []

    def logged(setup, phi):
        try:
            state = real(setup, phi)
        except SingularFormError:
            trials.append("singular")
            raise
        trials.append(state.residual)
        return state

    monkeypatch.setattr(critical, "residual_field", logged)
    return trials


class TestNewtonFailure:
    """The line search finds no step above DAMPING_FLOOR: the trials from
    s = 1 down to 2^-20 all lose positivity, or none decreases."""

    @pytest.mark.parametrize("scale, outcome", [
        pytest.param(1e9, "singular", id="positivity-lost"),
        pytest.param(0.0, None, id="no-decrease")])
    def test_no_admissible_decreasing_step(self, monkeypatch, scale, outcome):
        grid = TorusGrid(n=1, points=32)
        phi0 = cosine_mode(grid, [1], 0.25)
        trials = stub_direction(monkeypatch, cosine_mode(grid, [1], scale))
        phi, report = newton_solve(grid, np.eye(1), np.array([[1.7]]), phi0)
        assert not report.converged
        assert report.iterations == 1
        assert report.damping_history == [0.0]
        assert report.message == (
            "no admissible decreasing step above the damping floor")
        # the initial state, then one trial per halving of s
        start = trials[0]
        assert trials[1:] == [outcome or start] * 21
        assert report.residuals == [start, start]
        assert np.array_equal(phi, phi0 - phi0.mean())


class TestNewtonSolve:
    def test_settings_validation(self):
        for tol in (0.0, -1.0):
            with pytest.raises(ValueError):
                NewtonSettings(tol=tol)

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
        assert len(data["forcing"]) == len(data["cg_iterations"])
        assert min(data["forcing"]) >= critical.CG_RTOL

    def test_tiny_cg_budget_still_progresses(self, monkeypatch):
        # an inexact inner solve leaves a quasi-Newton direction; the
        # backtracking line search must still find decrease
        monkeypatch.setattr(critical, "CG_MAXITER", 2)
        grid = TorusGrid(n=1, points=16)
        settings = NewtonSettings(max_iters=30)
        phi, report = newton_solve(grid, np.eye(1), 2.0 * np.eye(1),
                                   cosine_mode(grid, [1], 0.3), settings)
        assert report.residuals[-1] < report.residuals[0]
        assert max(report.cg_iterations) <= 2

    @staticmethod
    def _ladder_solve(points, stream):
        grid = TorusGrid(n=2, points=points)
        phi0 = random_admissible_potential(make_rng(0, stream), grid, CHI0,
                                           band=2, amplitude=0.4)
        return newton_solve(grid, np.eye(2), CHI0, phi0,
                            NewtonSettings(tol=1e-10))

    @pytest.mark.parametrize("stream", [9, 13])
    def test_cg_iterations_flat_in_grid_size(self, stream):
        # Jacobi preconditioning needed O(N) iterations (217 on the first
        # step at N = 64); the mean-symbol inverse keeps the count flat
        totals = []
        for points in (32, 64):
            _, report = self._ladder_solve(points, stream)
            assert report.converged, report.message
            assert max(report.cg_iterations) <= 64
            totals.append(sum(report.cg_iterations))
        assert totals[1] <= 1.5 * totals[0]

    @pytest.mark.parametrize("stream", [9, 10, 11])
    @pytest.mark.parametrize("n,points,chi0", [
        (2, 32, CHI0), (3, 12, np.diag([2.0, 1.5, 1.0])),
    ])
    def test_inexact_matches_exact_solve(self, monkeypatch, n, points, chi0,
                                         stream):
        # the forcing term sizes each inner solve to its Newton step; a zero
        # ceiling leaves every step at CG_RTOL, the exact route
        grid = TorusGrid(n=n, points=points)
        phi0 = random_admissible_potential(make_rng(0, stream), grid, chi0,
                                           band=2, amplitude=0.4)
        settings = NewtonSettings(tol=1e-10)
        phi, report = newton_solve(grid, np.eye(n), chi0, phi0, settings)
        # Eisenstat-Walker choice 2 from the outer residuals
        res, top = report.residuals, critical.FORCING_MAX
        eta = [top] + [min(top, 0.9 * (b / a) ** 2)
                       for a, b in zip(res, res[1:])]
        assert report.forcing == [max(critical.CG_RTOL, e)
                                  for e in eta[:len(report.forcing)]]
        monkeypatch.setattr(critical, "FORCING_MAX", 0.0)
        exact, exact_report = newton_solve(grid, np.eye(n), chi0, phi0,
                                           settings)
        assert report.converged and exact_report.converged
        assert exact_report.forcing == [critical.CG_RTOL] * len(
            exact_report.cg_iterations)
        assert np.max(np.abs(phi - exact)) <= 1e-8
        assert report.iterations <= exact_report.iterations + 1
        assert 3 * sum(report.cg_iterations) <= sum(
            exact_report.cg_iterations)

    def test_fine_grid_solve_converges(self):
        # this N = 128 potential once stalled the inner CG into a zero
        # direction and ended with no admissible decreasing step
        phi, report = self._ladder_solve(128, 10)
        assert report.converged, report.message
        assert report.residuals[-1] < 1e-10
        assert np.max(np.abs(phi)) <= 1e-6
