"""Damped Newton solution of the critical equation Lambda_chi omega = nc.

The linearization of the residual c - Lambda/n in the direction v is the
second-order operator

    Ltilde v = (1/n) h^{ab} d^2 v / dz_a dzbar_b,   h = chi^{-1} g chi^{-1},

which is negative semidefinite with a null space consisting of the stencil
dead modes (axis frequencies in {0, N/2}).  Each Newton step solves
(-Ltilde) delta = residual by preconditioned conjugate gradients restricted
to the orthogonal complement of the dead modes, then backtracks on the step
length until the sup residual strictly decreases and the metric stays
positive.  The additive gauge is fixed by removing the grid mean after
every accepted step.

The preconditioner is the exact inverse of -Ltilde with h frozen at its
grid mean: a constant-coefficient operator, diagonal in Fourier space, whose
symbol is built from the first-derivative symbol of the stencil.  One real
FFT pair applies it and removes the dead modes, and the CG iteration count
stays flat under grid refinement.

With variable coefficients the pointwise form of Ltilde is not exactly
self-adjoint; the solver tolerates that with a stagnation guard in the
inner iteration and treats the returned vector as a quasi-Newton direction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .hermitian import SettingError, SingularFormError, as_matrix
from .torus import (
    MetricField,
    TorusGrid,
    class_constant_c,
    complex_hessian_of,
    form_factor,
    metric_field,
    null_mode_projection,
    symbol_mesh,
)


@dataclass(frozen=True)
class NewtonSettings:
    tol: float = 1e-9
    max_iters: int = 50
    damping: float = 1.0
    cg_rtol: float = 1e-10
    cg_maxiter: int = 5000
    damping_floor: float = 2.0**-20

    def __post_init__(self):
        if self.tol <= 0.0:
            raise SettingError("tol", "must be positive")
        if not (0.0 < self.damping <= 1.0):
            raise SettingError("damping", "must lie in (0, 1]")


@dataclass
class NewtonReport:
    converged: bool
    iterations: int
    residuals: list = field(default_factory=list)
    damping_history: list = field(default_factory=list)
    cg_iterations: list = field(default_factory=list)
    message: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _ltilde(h: np.ndarray, v: np.ndarray, grid: TorusGrid,
            deriv: str) -> np.ndarray:
    # Ltilde v; private, so traced Hessian calls sit under newton_solve
    out = np.einsum("...ab,...ba->...", h,
                    complex_hessian_of(v, grid, deriv)) / grid.n
    return out.real if np.iscomplexobj(out) else out


def linearized_apply(metric: MetricField, g, v: np.ndarray) -> np.ndarray:
    """Ltilde v = (1/n) h^{ab} (complex Hessian of v)_{ab} in the metric's
    derivative mode; g is coerced as for MetricField.h_matrix."""
    return _ltilde(metric.h_matrix(g), v, metric.grid, metric.deriv)


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


def residual_field(grid: TorusGrid, omega_factor: np.ndarray,
                   chi0: np.ndarray, phi: np.ndarray, c: float,
                   deriv: str = "fd4") -> tuple:
    """(c - Lambda/n, metric) for phi; omega_factor = form_factor(omega)
    and chi0 is coerced with as_matrix, as newton_solve does once."""
    metric = metric_field(grid, chi0, phi, deriv)
    lam = metric.trace_with(omega_factor)
    return c - lam / grid.n, metric


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
    om = as_matrix(omega)
    ch = as_matrix(chi0)
    c = class_constant_c(om, ch)
    om_factor = form_factor(om)
    phi = np.array(phi_init, dtype=float)
    phi -= phi.mean()
    report = NewtonReport(converged=False, iterations=0)

    res, metric = residual_field(grid, om_factor, ch, phi, c, deriv)
    sup_res = float(np.max(np.abs(res)))
    report.residuals.append(sup_res)

    for it in range(1, settings.max_iters + 1):
        if sup_res < settings.tol:
            report.converged = True
            report.message = "residual below tolerance"
            break
        h = metric.h_matrix(om)
        precond = _mean_symbol_inverse(grid, h, deriv)
        delta, cg_iters = _pcg(lambda v: -_ltilde(h, v, grid, deriv), res,
                               precond, grid, settings.cg_rtol,
                               settings.cg_maxiter)
        report.cg_iterations.append(cg_iters)

        s = settings.damping
        accepted = False
        while s >= settings.damping_floor:
            trial = phi + s * delta
            trial -= trial.mean()
            try:
                trial_res, trial_metric = residual_field(
                    grid, om_factor, ch, trial, c, deriv)
            except SingularFormError:
                s *= 0.5
                continue
            trial_sup = float(np.max(np.abs(trial_res)))
            if trial_sup < sup_res:
                phi, res, metric, sup_res = trial, trial_res, trial_metric, trial_sup
                accepted = True
                break
            s *= 0.5
        report.iterations = it
        report.damping_history.append(s if accepted else 0.0)
        report.residuals.append(sup_res)
        if not accepted:
            report.message = (
                "no admissible decreasing step above the damping floor"
            )
            return phi, report
    else:
        report.converged = sup_res < settings.tol
        report.message = ("residual below tolerance" if report.converged
                          else "iteration budget exhausted")
    return phi, report
