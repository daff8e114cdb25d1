"""Damped Newton solution of the critical equation Lambda_chi omega = nc.

The linearization of the residual c - Lambda/n in the direction v is the
second-order operator

    Ltilde v = (1/n) h^{ab} d^2 v / dz_a dzbar_b,   h = chi^{-1} g chi^{-1},

which is negative semidefinite with a null space consisting of the stencil
dead modes (axis frequencies in {0, N/2}).  Each Newton step solves
(-Ltilde) delta = residual by preconditioned conjugate gradients restricted
to the orthogonal complement of the dead modes, then halves the step
length from 1, down to DAMPING_FLOOR, until the sup residual strictly
decreases and the metric stays positive.  The inner solve is inexact: step
k stops CG at the relative residual max(CG_RTOL, eta_k), with
eta_0 = FORCING_MAX and eta_k = min(FORCING_MAX, 0.9 (r_k / r_{k-1})^2)
from the outer residuals r (Eisenstat and Walker's choice 2), so early
steps take a few CG iterations and the tail keeps quadratic convergence.
The additive gauge is fixed by removing the grid mean from every iterate.
Each iterate is a flow.FlowState of one FlowSetup, built by
flow.flow_state, so the residual is the flow velocity phidot of the state.

The preconditioner is the exact inverse of -Ltilde with h frozen at its
grid mean: a constant-coefficient operator, diagonal in Fourier space, whose
symbol is built from the first-derivative symbol of the stencil.  One real
FFT pair applies it and removes the dead modes, and the CG iteration count
stays flat under grid refinement.  The operator contracts h with the
complex Hessian of v in torus._hessian_trace, and its output is cleared of
dead modes by torus.null_mode_projection, which needs no FFT.

With variable coefficients the pointwise form of Ltilde is not exactly
self-adjoint; the solver tolerates that with a stagnation guard in the
inner iteration and treats the returned vector as a quasi-Newton direction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .flow import FlowSetup, FlowState, flow_state
from .hermitian import SettingError, SingularFormError
from .torus import (
    TorusGrid,
    _hessian_trace,
    complex_hessian_of,
    null_mode_projection,
    symbol_mesh,
)

# forcing term of the first Newton step and ceiling of every later one
FORCING_MAX = 0.1

# floor of the forcing term, and the iteration cap of each inner CG solve
CG_RTOL = 1e-10
CG_MAXITER = 5000

# the line search halves s from 1; it gives up below this step length
DAMPING_FLOOR = 2.0**-20


@dataclass(frozen=True)
class NewtonSettings:
    """Stopping rule of newton_solve: sup residual below tol, or max_iters
    Newton steps.  The inner solve and line search use module constants."""

    tol: float = 1e-9
    max_iters: int = 50

    def __post_init__(self):
        if not self.tol > 0.0:
            raise SettingError("tol", "must be positive")
        if self.max_iters < 1:
            raise SettingError("max_iters", "must be at least 1")


@dataclass
class NewtonReport:
    converged: bool
    iterations: int
    residuals: list = field(default_factory=list)
    damping_history: list = field(default_factory=list)
    cg_iterations: list = field(default_factory=list)
    forcing: list = field(default_factory=list)
    message: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _ltilde(h: np.ndarray, v: np.ndarray, grid: TorusGrid,
            deriv: str) -> np.ndarray:
    # Ltilde v; private, so traced Hessian calls sit under newton_solve
    return _hessian_trace(h, complex_hessian_of(v, grid, deriv)) / grid.n


def _mean_symbol_inverse(grid: TorusGrid, h: np.ndarray, deriv: str):
    """Exact inverse of -Ltilde with h frozen at its grid mean, as a map.

    With the per-variable symbols w_a of torus.symbol_mesh, the symbol of
    the frozen operator is (1/(4n)) Re sum_ab hbar_ab w_a conj(w_b).  It is
    real and even, so a real FFT pair applies its inverse to real fields;
    it is zero on exactly the dead modes, which the map sends to 0.
    """
    n = grid.n
    axes = tuple(range(grid.naxes))
    hbar = h.mean(axis=axes)
    w = symbol_mesh(grid, deriv)
    symbol = sum(hbar[a, b] * w[a] * np.conj(w[b])
                 for a in range(n) for b in range(n)).real / (4.0 * n)
    inv = np.zeros(symbol.shape)
    np.divide(1.0, symbol, out=inv, where=symbol > 0.0)

    def apply(r: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(np.fft.rfftn(r) * inv, s=grid.shape, axes=axes)

    return apply


def residual_field(setup: FlowSetup, phi: np.ndarray) -> FlowState:
    """The FlowState of phi with its grid mean removed, Newton's gauge; its
    phidot is the residual c - Lambda/n."""
    phi = np.asarray(phi, dtype=float)
    return flow_state(setup, phi - phi.mean())


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum runs its own loop; np.vdot goes to BLAS ddot, whose thread
    # pool stalls when the cores are shared
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _pcg(apply_a, b: np.ndarray, precond, grid: TorusGrid,
         rtol: float, maxiter: int) -> tuple:
    """Preconditioned CG on the dead-mode complement with stagnation guard.

    precond maps a residual to its preconditioned form and must return a
    field free of dead modes.

    Returns (x, iterations run): an early stop on a stall or on loss of
    positivity reports the iteration it stopped at, not maxiter.
    """
    b = null_mode_projection(b, grid)
    x = np.zeros_like(b)
    r = b.copy()
    norm_b = np.sqrt(_dot(r, r))
    if norm_b == 0.0:
        return x, 0
    z = precond(r)
    p = z.copy()
    rz = _dot(r, z)
    best_x, best_norm = x, norm_b
    stall = 0
    it = 0
    for it in range(1, maxiter + 1):
        ap = null_mode_projection(apply_a(p), grid)
        pap = _dot(p, ap)
        if pap <= 0.0:
            # loss of positivity in the projected operator: stop with the
            # best iterate; the outer backtracking absorbs the inexactness
            break
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        norm_r = np.sqrt(_dot(r, r))
        if norm_r < best_norm:
            best_x, best_norm = x, norm_r
            stall = 0
        else:
            stall += 1
            if stall >= 20:
                break
        if norm_r <= rtol * norm_b:
            return x, it
        z = precond(r)
        rz_new = _dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return best_x, it


def newton_solve(grid: TorusGrid, omega, chi0, phi_init: np.ndarray,
                 settings: NewtonSettings = NewtonSettings(),
                 deriv: str = "fd4") -> tuple:
    """Solve Lambda_{chi_phi} omega = nc; returns (phi, NewtonReport).

    phi_init must be admissible; the result is mean-zero.  Failure modes:
    admissibility cannot be kept at the damping floor, or max_iters is
    exhausted (typical when the class pair violates the cone condition).
    """
    setup = FlowSetup(grid=grid, omega=omega, chi0=chi0, deriv=deriv)
    report = NewtonReport(converged=False, iterations=0)
    state = residual_field(setup, phi_init)
    report.residuals.append(state.residual)
    eta = FORCING_MAX

    for it in range(1, settings.max_iters + 1):
        if state.residual < settings.tol:
            report.converged = True
            report.message = "residual below tolerance"
            break
        h = state.metric.h_matrix(setup.omega)
        precond = _mean_symbol_inverse(grid, h, deriv)
        rtol = max(CG_RTOL, eta)
        delta, cg_iters = _pcg(lambda v: -_ltilde(h, v, grid, deriv),
                               state.phidot, precond, grid, rtol, CG_MAXITER)
        report.cg_iterations.append(cg_iters)
        report.forcing.append(rtol)

        s = 1.0
        accepted = False
        while s >= DAMPING_FLOOR:
            try:
                trial = residual_field(setup, state.phi + s * delta)
            except SingularFormError:
                s *= 0.5
                continue
            if trial.residual < state.residual:
                state, accepted = trial, True
                break
            s *= 0.5
        report.iterations = it
        report.damping_history.append(s if accepted else 0.0)
        report.residuals.append(state.residual)
        if not accepted:
            report.message = (
                "no admissible decreasing step above the damping floor"
            )
            return state.phi, report
        # Eisenstat-Walker choice 2 with gamma = 0.9, alpha = 2
        eta = min(FORCING_MAX,
                  0.9 * (report.residuals[-1] / report.residuals[-2]) ** 2)
    else:
        report.converged = state.residual < settings.tol
        report.message = ("residual below tolerance" if report.converged
                          else "iteration budget exhausted")
    return state.phi, report
