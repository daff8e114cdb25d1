"""Energy functionals of the potential: exact node sums and path sweeps.

Conventions.  Every top-degree integral is represented as a density against
Lebesgue measure dV on the torus (total mass (2pi)^{2n}): chi^n/n! becomes
det(chi), and omega wedge chi^{n-1}/(n-1)! becomes (trace of omega against
chi^{-1}) times det(chi).  A single global factor 2^n relating dz dzbar to
dx dy is dropped everywhere; it cancels in every ratio, identity, and
inequality below.

Every functional takes the MetricField of its potential alone, which the
caller builds once with torus.metric_field: phi, its derivative mode and
chi all come from the metric, and none is rebuilt from phi.

Every energy is a node sum, _node_sums, of weights times a kernel at the
metrics of s phi.  Along chi_t = chi0 + t i ddbar(phi) the integrands of
J, I, I^E and J^E are polynomials of degree <= n in t, which the
right-Radau rule on (n+3)//2 nodes of [0, 1] integrates exactly; its last
node is the metric itself.  The path sweeps (the path-independence oracle
and the Mabuchi energy) run over phi_t = f(t) phi, f mapping [0,1] into
[0,1], so every chi_t is a convex combination of chi0 and chi_phi and
stays admissible; they sum Simpson's rule on 2M+1 nodes, f' in its weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .hermitian import ShapeError, as_matrix
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

    linear: f(t) = t.  quadratic: f(t) = t^2.  steps is the count M of
    Simpson panels; the sweep sums 2M+1 nodes.
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


@lru_cache(maxsize=None)
def _radau_rule(n: int) -> tuple:
    """(t, weight) of the right-Radau rule on [0, 1], exact to degree n:
    the Gauss nodes of the weight 1 - t (eigenvalues of its Jacobi matrix)
    and t = 1, weighted to match the moments 1/(j+1) of t^j."""
    m = (n + 3) // 2
    k = np.arange(m - 1)
    jac = np.diag(0.5 - 0.5 / ((2 * k + 1) * (2 * k + 3)))
    off = 0.5 * np.sqrt(k[1:] * (k[1:] + 1.0)) / (2 * k[1:] + 1)
    jac = jac + np.diag(off, 1) + np.diag(off, -1)
    nodes = np.append(np.linalg.eigvalsh(jac), 1.0)
    weights = np.linalg.solve(nodes ** np.arange(m)[:, None],
                              1.0 / np.arange(1, m + 1))
    return tuple(zip(nodes.tolist(), weights.tolist()))


@lru_cache(maxsize=None)
def _simpson_rule(path: PathSpec) -> tuple:
    """(f(t), f'(t) weight) of Simpson's rule on the 2M+1 nodes t of
    [0, 1]: the weights (1, 4, 2, ..., 4, 1)/(6M)."""
    m = path.steps
    coef = [1.0] + [4.0, 2.0] * (m - 1) + [4.0, 1.0]
    nodes = np.linspace(0.0, 1.0, 2 * m + 1).tolist()
    return tuple((path.weight(t), path.rate(t) * c / (6.0 * m))
                 for t, c in zip(nodes, coef))


def _node_sums(metric: MetricField, rule: tuple, kernel: Callable) -> list:
    """sum_i w_i kernel(node_i, s_i) over the (s_i, w_i) of rule, node_i the
    metric chi0 + s_i i ddbar(phi) read from metric's Hessian (metric itself
    at s_i = 1); term by term and node by node, so each field of a stack
    gets the bits it would get alone."""
    sums = None
    for s, w in rule:
        node = metric if s == 1.0 else MetricField(
            metric.grid, metric.chi0, s * metric.phi, s * metric.hessian,
            metric.deriv)
        terms = [w * v for v in kernel(node, s)]
        sums = terms if sums is None else [a + b for a, b in zip(sums, terms)]
    return sums


def _j_and_i(node: MetricField, phi: np.ndarray, factor: np.ndarray) -> tuple:
    """The J and I integrands int phi Lambda det and int phi det at a node,
    Lambda the trace of omega = F F^* for factor F."""
    det = node.det()
    return (integrate_top(phi * node.trace_with(factor) * det, node.grid),
            integrate_top(phi * det, node.grid))


def _radau_sums(metric: MetricField, factor=None) -> list:
    """Right-Radau sums of e_t = int |dphi|^2_{chi_t} det chi_t, of
    (1 - t) e_t and, given omega's factor, of the J and I integrands."""
    grid, phi = metric.grid, metric.phi
    column = np.stack(dz_gradient(phi, grid, metric.deriv))[:, None]

    def kernel(node, t):
        e = integrate_top(node.trace_with(column) * node.det(), grid)
        return (e, (1.0 - t) * e) + (
            () if factor is None else _j_and_i(node, phi, factor))

    return _node_sums(metric, _radau_rule(metric.n), kernel)


def flow_functional_bundle(metric: MetricField, omega) -> dict:
    """J, I, Jhat = J - nc I and eval_IE_JE's I^E, J^E from one pass over
    the right-Radau nodes.

    J = int_0^1 int phi Lambda_{chi_t} omega chi_t^n/n! dt and
    I = int_0^1 int phi chi_t^n/n! dt; Jhat is the functional the flow
    descends, and a constant shift of phi leaves it unchanged because nc is
    exactly the class ratio.
    """
    ie, je, jval, ival = _radau_sums(metric, form_factor(omega))
    vol = volume_of(metric.chi0, metric.grid)
    nc = metric.n * class_constant_c(omega, metric.chi0)
    return {"J": jval, "I": ival, "Jhat": jval - nc * ival,
            "IE": ie / vol, "JE": je / vol}


def path_functional_bundle(metric: MetricField, omega, path: PathSpec) -> dict:
    """J, I, and Jhat from one Simpson sweep over the path nodes: the
    oracle for flow_functional_bundle and for path independence."""
    factor = form_factor(omega)
    c = class_constant_c(omega, metric.chi0)
    jval, ival = _node_sums(metric, _simpson_rule(path),
                            lambda node, s: _j_and_i(node, metric.phi, factor))
    return {"J": jval, "I": ival, "Jhat": jval - metric.n * c * ival}


def eval_IE_JE(metric: MetricField) -> tuple:
    """Aubin-Yau energies (I^E, J^E) = (1/V) int_0^1 (1, 1 - t)
    int |dphi|^2_{chi_t} chi_t^n/n! dt along chi_t = chi0 + t i ddbar(phi).

    The integrand f^* adj(chi_t) f, f = dphi/dz in the metric's derivative
    mode, has degree n - 1 in t, so the right-Radau rule is exact.  Its
    Bernstein coefficients are nonnegative mixed discriminants, which gives
    (1/(n+1)) I^E <= J^E <= (n/(n+1)) I^E.
    """
    ie, je = _radau_sums(metric)
    vol = volume_of(metric.chi0, metric.grid)
    return ie / vol, je / vol


def ie_second_form(metric: MetricField) -> float:
    """I^E recomputed as (1/(n! V)) int phi (chi0^n - chi_phi^n).

    Equality with the node route of eval_IE_JE is the discrete integration
    by parts identity; with spectral derivatives and band-limited data both
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


def eval_mabuchi(metric: MetricField, path: PathSpec = PathSpec()) -> float:
    """Mabuchi energy -int_0^1 int phidot_t (R_t - Rbar_t) chi_t^n/n! dt.

    Rbar_t is recomputed from the discrete field at every node rather than
    set to its continuum value zero, keeping the integrand consistent with
    the discretization, and R_t reads the metric's derivative mode.  For a
    stack each field has its own Rbar_t.
    """
    grid, phi = metric.grid, metric.phi

    def kernel(node, s):
        r = scalar_curvature(node)
        det = node.det()
        rbar = integrate_top(r * det, grid) / integrate_top(det, grid)
        rbar = np.reshape(rbar, np.shape(rbar) + (1,) * grid.naxes)
        return (-integrate_top(phi * (r - rbar) * det, grid),)

    return _node_sums(metric, _simpson_rule(path), kernel)[0]


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
