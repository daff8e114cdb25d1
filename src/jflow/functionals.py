"""Energy functionals of the potential: path integrals and closed forms.

Conventions.  Every top-degree integral is represented as a density against
Lebesgue measure dV on the torus (total mass (2pi)^{2n}): chi^n/n! becomes
det(chi), omega wedge chi^{n-1}/(n-1)! becomes (trace of omega against
chi^{-1}) times det(chi), and a general n-fold wedge product of (1,1)-forms
becomes its permutation-sum coefficient W divided by n!.  A single global
factor 2^n relating dz dzbar to dx dy is dropped everywhere; it cancels in
every ratio, identity, and inequality below.

Every functional takes the MetricField of its potential alone, which the
caller builds once with torus.metric_field: phi, its derivative mode and
chi all come from the metric, and none is rebuilt from phi.

J, I and Jhat come in closed form; the path sweeps stay as their oracles.
A sweep integrates over the segment phi_t = f(t) phi with
chi_t = chi0 + f(t) * i ddbar(phi).  Since f maps [0,1] into [0,1], every
chi_t is a convex combination of chi0 and chi_phi, so interior admissibility
follows from endpoint admissibility.  Quadrature is the trapezoid rule on
2M+1 nested nodes with one Richardson extrapolation step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hermitian import ShapeError, as_matrix, wedge_coefficient_batch
from .torus import (
    MetricField,
    TorusGrid,
    class_constant_c,
    form_factor,
    gradient,
    integrate_top,
    scalar_curvature,
)

PATH_KINDS = ("linear", "quadratic")


@dataclass(frozen=True)
class PathSpec:
    """Path phi_t = f(t) phi from 0 to phi, with quadrature resolution.

    linear: f(t) = t.  quadratic: f(t) = t^2.  steps is the coarse
    trapezoid count M; evaluation uses 2M+1 nodes plus Richardson
    extrapolation.
    """

    kind: str = "linear"
    steps: int = 64

    def __post_init__(self):
        if self.kind not in PATH_KINDS:
            raise ShapeError(f"path kind must be one of {PATH_KINDS}")
        if self.steps < 16:
            raise ShapeError("need at least 16 quadrature steps")

    def weight(self, t: float) -> float:
        return t if self.kind == "linear" else t * t

    def rate(self, t: float) -> float:
        return 1.0 if self.kind == "linear" else 2.0 * t


def _trapezoid(values: np.ndarray, dx: float) -> float:
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def _richardson(values: np.ndarray) -> float:
    """Trapezoid on all nodes and on every second node, extrapolated."""
    m2 = values.shape[0] - 1
    fine = _trapezoid(values, 1.0 / m2)
    coarse = _trapezoid(values[::2], 2.0 / m2)
    return float(fine + (fine - coarse) / 3.0)


def mixed_density(mats: list, grid: TorusGrid) -> np.ndarray:
    """Pointwise W(A_1,...,A_n)/n! for stacks of (1,1)-form coefficients.

    For a single repeated positive form this is its determinant field, so
    the output integrates like chi^n/n!.
    """
    return wedge_coefficient_batch(mats, grid.n) / math.factorial(grid.n)


def volume_of(chi0, grid: TorusGrid) -> float:
    """V = integral of chi0^n/n! for a constant background form."""
    m = as_matrix(chi0)
    det = float(np.linalg.det(m).real)
    return det * grid.volume


def dz_gradient(phi: np.ndarray, grid: TorusGrid, deriv: str = "fd4") -> list:
    """Holomorphic first derivatives f_a = d phi / dz_a on the grid."""
    du = gradient(phi, grid, deriv)
    n = grid.n
    if grid.mode == "invariant":
        return [0.5 * du[a] for a in range(n)]
    return [0.5 * (du[a] - 1j * du[n + a]) for a in range(n)]


def dbar_energy_matrix(phi: np.ndarray, grid: TorusGrid,
                       deriv: str = "fd4") -> np.ndarray:
    """Coefficient stack P_ab = f_a conj(f_b) of sqrt(-1) dphi wedge dbarphi."""
    f = np.stack(dz_gradient(phi, grid, deriv), axis=-1)
    return f[..., :, None] * np.conj(f[..., None, :])


def _path_samples(metric: MetricField, path: PathSpec,
                  kernel: Callable) -> np.ndarray:
    """rate(t) * kernel(metric_t) on every quadrature node, one row per
    kernel output; metric_t carries chi0 + f(t) i ddbar(phi).  Raises if a
    node loses positivity (cannot happen for f in [0,1] with admissible
    endpoints)."""
    rows = []
    for t in np.linspace(0.0, 1.0, 2 * path.steps + 1):
        w = path.weight(float(t))
        node = MetricField(metric.grid, metric.chi0, w * metric.phi,
                           w * metric.hessian, metric.deriv)
        rows.append(path.rate(float(t)) * np.atleast_1d(kernel(node)))
    return np.array(rows).T.copy()


def flow_functional_bundle(metric: MetricField, omega) -> dict:
    """J, I, and Jhat = J - nc I in closed form.

    Along the linear path chi_t = (1-t) chi0 + t chi_phi the integrands of
    J = int_0^1 int phidot_t (omega wedge chi_t^{n-1}/(n-1)!) dt and
    I = int_0^1 int phidot_t chi_t^n/n! dt are polynomials in t, so
    I = (1/(n+1)) sum_{i=0..n} int phi MD(chi0^i, chi_phi^{n-i}) and
    J = sum_{i=0..n-1} int phi MD(omega, chi0^i, chi_phi^{n-1-i}).  Jhat is
    the functional the flow descends; shifting phi by a constant changes
    nothing, because nc is exactly the class ratio.
    """
    grid, chi0, chi, phi = metric.grid, metric.chi0, metric.chi, metric.phi
    n, om = grid.n, as_matrix(omega)
    c = class_constant_c(omega, chi0)

    def moment(mats):
        return integrate_top(phi * mixed_density(mats, grid), grid)

    ival = sum(moment([chi0] * i + [chi] * (n - i))
               for i in range(n + 1)) / (n + 1)
    jval = sum(moment([om] + [chi0] * i + [chi] * (n - 1 - i))
               for i in range(n))
    return {"J": jval, "I": ival, "Jhat": jval - n * c * ival}


def path_functional_bundle(metric: MetricField, omega, path: PathSpec) -> dict:
    """J, I, and Jhat from one shared quadrature sweep over the path nodes:
    the oracle for flow_functional_bundle and for path independence."""
    grid, phi = metric.grid, metric.phi
    factor = form_factor(omega)
    c = class_constant_c(omega, metric.chi0)

    def kernel(node):
        det = node.det()
        return (integrate_top(phi * node.trace_with(factor) * det, grid),
                integrate_top(phi * det, grid))

    jval, ival = (_richardson(v) for v in _path_samples(metric, path, kernel))
    return {"J": jval, "I": ival, "Jhat": jval - grid.n * c * ival}


def aubin_yau_terms(metric: MetricField) -> list:
    """T_i = int W(P, chi0^i, chi_phi^{n-1-i}) dV for i = 0..n-1.

    Each integrand is a mixed discriminant with one rank-one positive
    semidefinite slot and positive definite remaining slots, hence
    pointwise nonnegative; every T_i is therefore nonnegative, which is
    what makes the energy inequality chain exact at grid level.
    """
    grid = metric.grid
    n = grid.n
    p = dbar_energy_matrix(metric.phi, grid, metric.deriv)
    chi = metric.chi
    chi0_m = metric.chi0
    if not np.iscomplexobj(chi):
        chi0_m = chi0_m.real
    terms = []
    for i in range(n):
        mats = [p] + [chi0_m] * i + [chi] * (n - 1 - i)
        dens = wedge_coefficient_batch(mats, n)
        terms.append(integrate_top(np.asarray(dens), grid))
    return terms


def eval_IE_JE(metric: MetricField) -> tuple:
    """Aubin-Yau energies (I^E, J^E) in closed form (no path).

    I^E = (1/(n! V)) sum_i T_i and J^E reweights term i by (i+1)/(n+1),
    so (1/(n+1)) I^E <= J^E <= (n/(n+1)) I^E holds term by term.  The
    gradient slot P differentiates phi in the metric's derivative mode.
    """
    n = metric.n
    terms = aubin_yau_terms(metric)
    norm = math.factorial(n) * volume_of(metric.chi0, metric.grid)
    ie = sum(terms) / norm
    je = sum((i + 1) * t for i, t in enumerate(terms)) / ((n + 1) * norm)
    return ie, je


def ie_second_form(metric: MetricField) -> float:
    """I^E recomputed as (1/(n! V)) int phi (chi0^n - chi_phi^n).

    Equality with the sum-of-terms route is the discrete integration by
    parts identity; with spectral derivatives and band-limited data both
    routes are exact and agree to rounding.
    """
    grid = metric.grid
    det0 = float(np.linalg.det(metric.chi0).real)
    return (integrate_top(metric.phi * (det0 - metric.det()), grid)
            / volume_of(metric.chi0, grid))


def eval_entropy(metric: MetricField) -> float:
    """int log(chi_phi^n / chi0^n) chi_phi^n/n! over the torus.

    Nonnegative by Jensen whenever the discrete total volume is conserved,
    which holds exactly for n = 2 with composed stencils.
    """
    det0 = float(np.linalg.det(metric.chi0).real)
    det = metric.det()
    if det0 <= 0.0 or np.any(det <= 0.0):
        raise ShapeError("volume forms must stay positive for the entropy")
    return integrate_top(np.log(det / det0) * det, metric.grid)


def average_scalar_curvature(metric: MetricField) -> float:
    """Volume-weighted mean of R over the grid (0 in the continuum)."""
    r = scalar_curvature(metric)
    det = metric.det()
    return integrate_top(r * det, metric.grid) / integrate_top(det, metric.grid)


def eval_mabuchi(metric: MetricField, path: PathSpec = PathSpec()) -> float:
    """Mabuchi energy -int_0^1 int phidot_t (R_t - Rbar_t) chi_t^n/n! dt.

    Rbar_t is recomputed from the discrete field at every node rather than
    set to its continuum value zero, keeping the integrand consistent with
    the discretization, and R_t reads the metric's derivative mode.
    """
    grid, phi = metric.grid, metric.phi

    def kernel(node):
        r = scalar_curvature(node)
        det = node.det()
        rbar = integrate_top(r * det, grid) / integrate_top(det, grid)
        return -integrate_top(phi * (r - rbar) * det, grid)

    return _richardson(_path_samples(metric, path, kernel)[0])


def path_independence_gap(evaluator: Callable, steps: int = 64) -> tuple:
    """Evaluate a path functional, given as a callable of its PathSpec, on
    the linear and quadratic paths.

    Returns (linear value, quadratic value, relative gap); the gap is
    normalized by the larger magnitude, with an absolute floor so that a
    functional that vanishes identically reports gap 0.
    """
    lin = evaluator(PathSpec("linear", steps))
    quad = evaluator(PathSpec("quadratic", steps))
    scale = max(abs(lin), abs(quad), 1e-300)
    return lin, quad, abs(lin - quad) / scale


def fit_properness(je_values: np.ndarray, mab_values: np.ndarray) -> dict:
    """Fit the affine lower bound M >= alpha J^E - C from sampled pairs.

    alpha is the least-squares slope; C is then the smallest constant
    making the bound hold on every sample.  Purely descriptive: a fitted
    pair says nothing beyond the sampled data.
    """
    je = np.asarray(je_values, dtype=float)
    mab = np.asarray(mab_values, dtype=float)
    if je.shape != mab.shape or je.ndim != 1 or je.shape[0] < 2:
        raise ShapeError("need two equal-length 1-d sample arrays")
    slope, intercept = np.polyfit(je, mab, 1)
    c_min = float(np.max(slope * je - mab))
    slack = float(np.min(mab - (slope * je - c_min)))
    return {
        "alpha": float(slope),
        "intercept": float(intercept),
        "C": c_min,
        "min_slack": slack,
        "samples": int(je.shape[0]),
    }
