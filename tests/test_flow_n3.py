"""Flow and Newton at n = 3, where the cone condition differs from n = 2.

One invariant N = 12 instance with chi0 not a multiple of omega runs the
n = 3 metric factor, Hessian, preconditioner and functionals through the
checks that the acceptance criteria 3-6 make at n = 2, with their bounds.
"""

import numpy as np
import pytest

from jflow import (
    FlowSetup,
    NewtonSettings,
    TorusGrid,
    cosine_mode,
    monitor_max_principle,
    newton_solve,
    run,
)
from jflow.sampling import make_rng, random_admissible_potential

OMEGA = np.eye(3)
CHI0 = np.diag([2.0, 1.5, 1.0])


@pytest.fixture(scope="module")
def flow_n3():
    grid = TorusGrid(n=3, points=12, mode="invariant")
    setup = FlowSetup(grid=grid, omega=OMEGA, chi0=CHI0, tol_converge=1e-8,
                      t_max=1000.0)
    phi0 = (cosine_mode(grid, [1, 0, 0], 0.2)
            + cosine_mode(grid, [0, 1, 1], 0.1, phase=0.4))
    return setup, run(setup, phi0)


def test_n3_flow_converges_to_reciprocal_trace_identity(flow_n3):
    setup, result = flow_n3
    assert result.verdict == "converged"
    assert result.records[-1].residual < 1e-8
    # sum_i 1/lambda_i = Lambda_chi omega, which is nc = 13/6 at the limit
    assert 3.0 * setup.c == pytest.approx(13.0 / 6.0, rel=1e-15)
    lam = result.final.metric.relative_eigenvalues(setup.omega)
    recip_gap = float(np.max(np.abs((1.0 / lam).sum(axis=-1) - 3.0 * setup.c)))
    assert recip_gap <= 1e-7


def test_n3_descent_identity(flow_n3):
    _, result = flow_n3
    jhat = np.array([r.Jhat for r in result.records])
    t = np.array([r.t for r in result.records])
    diss = np.asarray(result.diss_totals)
    mismatch = np.abs(np.diff(jhat) + np.diff(diss)) / np.diff(t)
    tol = 1e-4 * np.maximum(np.abs(jhat[1:]), 1e-7 * abs(jhat[0]))
    assert float(np.max(mismatch / tol)) <= 1.0
    assert bool(np.all(np.diff(jhat) <= 1e-12 * abs(jhat[0])))


def test_n3_trace_band(flow_n3):
    assert monitor_max_principle(flow_n3[1])["band_ok"]


def test_n3_newton_agrees_with_flow_limit(flow_n3):
    setup, result = flow_n3
    grid = setup.grid
    phi_flow = result.final.phi
    solutions = [phi_flow - phi_flow.mean()]
    for seed in (101, 202, 303):
        phi_seed = random_admissible_potential(make_rng(seed, stream=9), grid,
                                               setup.chi0, band=2,
                                               amplitude=0.4)
        phi_star, report = newton_solve(grid, setup.omega, setup.chi0,
                                        phi_seed, NewtonSettings(tol=1e-10))
        assert report.converged, report.message
        solutions.append(phi_star)
    gap = max(float(np.max(np.abs(a - b)))
              for i, a in enumerate(solutions) for b in solutions[i + 1:])
    assert gap <= 1e-6
