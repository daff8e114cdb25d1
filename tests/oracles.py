"""Reference routes the tests check the package against.

Each one recomputes a quantity the package computes faster, or one no
package path needs: the brute-force wedge coefficient, the wedge form of
the flow velocity, the linearized operator of the critical equation at a
metric, the weighted Laplacian and the scalar curvature by a full einsum
over the n^2 Hessian entries, the energies by the (n!)^2 mixed-density
expansion, the path sweeps of J, I, Jhat and the Mabuchi energy by the
trapezoid rule with one Richardson step, the volume-weighted mean scalar
curvature, the random
admissible potential summed one mode per pass over wavevectors found by a
scan, the positive Hermitian pairs of the conditions suite drawn as one
whole batch, the spectral derivative with its multiplier rebuilt on every call,
and the exact inertia of a symmetric rational matrix.  They read the
package's private helpers where sharing a check keeps it in one place.
"""

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from jflow.critical import _ltilde
from jflow.flow import FlowSetup, FlowState
from jflow.functionals import PathSpec, _j_and_i, dz_gradient, volume_of
from jflow.hermitian import (ShapeError, _kept_indices, _perms_with_signs,
                             as_matrix, wedge_coefficient_batch)
from jflow.torus import (MetricField, TorusGrid, class_constant_c,
                         complex_hessian_of, derivative_symbol, form_factor,
                         integrate_top, scalar_curvature)


def _expand_factors(forms: Sequence) -> list:
    mats = []
    for form, mult in forms:
        if mult < 0:
            raise ShapeError("multiplicities must be nonnegative")
        m = as_matrix(form)
        mats.extend([m] * int(mult))
    if not mats:
        raise ShapeError("empty wedge product")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ShapeError("wedge factors must share one dimension")
    return mats


def wedge_oracle(forms: Sequence, k=None) -> float:
    """Coefficient of a wedge monomial by brute-force permutation summation.

    forms is a sequence of (form, multiplicity) pairs whose total degree m
    must be n (k is None, full top degree) or n - 1 (k names the omitted
    coordinate direction).  The returned value is the literal coefficient of
    beta_1 ^ ... ^ beta_n, respectively of the monomial omitting beta_k, in
    the expanded product; for a single form of multiplicity n this equals
    n! times its determinant.

    The sum runs over pairs of bijections from factor slots to the kept
    index set:

        sum_{sigma, tau} sign(sigma) sign(tau) prod_s A_s[sigma(s), tau(s)]
    """
    mats = _expand_factors(forms)
    m = len(mats)
    idx = _kept_indices(mats[0].shape[0], k, m)
    total = 0.0 + 0.0j
    perms = _perms_with_signs(m)
    for sigma, ssign in perms:
        for tau, tsign in perms:
            prod = 1.0 + 0.0j
            for s in range(m):
                prod *= mats[s][idx[sigma[s]], idx[tau[s]]]
            total += (ssign * tsign) * prod
    if abs(total.imag) > 1e-9 * (1.0 + abs(total.real)):
        raise ShapeError("wedge coefficient of Hermitian factors must be real")
    return float(total.real)


def wedge_trace_consistency(setup: FlowSetup, state: FlowState) -> float:
    """Max gap between the wedge and trace forms of the velocity.

    The right-hand side c - (omega wedge chi^{n-1})/(chi^n) evaluated with
    the brute-force wedge coefficients must match c - Lambda/n pointwise;
    checked on 16 evenly spaced grid points.
    """
    grid = setup.grid
    chi = state.metric.chi.reshape(-1, grid.n, grid.n)
    lam_flat = state.lam.reshape(-1)
    idx = np.linspace(0, chi.shape[0] - 1, min(16, chi.shape[0]))
    worst = 0.0
    for i in idx.astype(int):
        top = wedge_oracle([(setup.omega, 1), (chi[i], grid.n - 1)])
        bottom = wedge_oracle([(chi[i], grid.n)])
        wedge_rhs = setup.c - top / bottom
        trace_rhs = setup.c - lam_flat[i] / grid.n
        worst = max(worst, abs(wedge_rhs - trace_rhs))
    return worst


def linearized_apply(metric: MetricField, g, v: np.ndarray) -> np.ndarray:
    """Ltilde v = (1/n) h^{ab} (complex Hessian of v)_{ab} in the metric's
    derivative mode; g is coerced as for MetricField.h_matrix."""
    return _ltilde(metric.h_matrix(g), v, metric.grid, metric.deriv)


def laplacian_einsum(omega, hessian: np.ndarray) -> np.ndarray:
    """Weighted Laplacian omega^{ab} d^2 phi / dz_a dzbar_b from phi's
    complex Hessian stack, every entry of the trace summed by einsum."""
    inv = np.linalg.inv(as_matrix(omega))
    return np.einsum("ab,...ba->...", inv, hessian).real


def scalar_curvature_einsum(metric: MetricField) -> np.ndarray:
    """R = -chi^{ab} d^2(log det chi)/dz_a dzbar_b, every entry of the
    trace summed by einsum."""
    hess = complex_hessian_of(np.log(metric.det()), metric.grid, metric.deriv)
    return -np.einsum("...ab,...ba->...", metric.inverse(), hess).real


def mixed_density(mats: list, grid: TorusGrid) -> np.ndarray:
    """Pointwise W(A_1,...,A_n)/n! for stacks of (1,1)-form coefficients.

    For a single repeated positive form this is its determinant field, so
    the output integrates like chi^n/n!.
    """
    return wedge_coefficient_batch(mats, grid.n) / math.factorial(grid.n)


def dbar_energy_matrix(phi: np.ndarray, grid: TorusGrid,
                       deriv: str = "fd4") -> np.ndarray:
    """Coefficient stack P_ab = f_a conj(f_b) of sqrt(-1) dphi wedge dbarphi."""
    f = np.stack(dz_gradient(phi, grid, deriv), axis=-1)
    return f[..., :, None] * np.conj(f[..., None, :])


def mixed_density_bundle(metric: MetricField, omega) -> dict:
    """J, I and Jhat as sums of mixed-density moments over the linear path:
    I = (1/(n+1)) sum_{i=0..n} int phi MD(chi0^i, chi_phi^{n-i}) and
    J = sum_{i=0..n-1} int phi MD(omega, chi0^i, chi_phi^{n-1-i})."""
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


def aubin_yau_terms(metric: MetricField) -> list:
    """T_i = int W(P, chi0^i, chi_phi^{n-1-i}) dV for i = 0..n-1.

    Each integrand is a mixed discriminant with one rank-one positive
    semidefinite slot and positive definite remaining slots, hence
    pointwise nonnegative.
    """
    grid = metric.grid
    n = grid.n
    p = dbar_energy_matrix(metric.phi, grid, metric.deriv)
    chi = metric.chi
    chi0_m = metric.chi0
    if not np.iscomplexobj(chi):
        chi0_m = chi0_m.real
    return [integrate_top(np.asarray(wedge_coefficient_batch(
        [p] + [chi0_m] * i + [chi] * (n - 1 - i), n)), grid)
        for i in range(n)]


def aubin_yau_energies(metric: MetricField) -> tuple:
    """(I^E, J^E) from the terms: I^E = (1/(n! V)) sum_i T_i and J^E
    reweights term i by (i+1)/(n+1)."""
    n = metric.n
    terms = aubin_yau_terms(metric)
    norm = math.factorial(n) * volume_of(metric.chi0, metric.grid)
    ie = sum(terms) / norm
    je = sum((i + 1) * t for i, t in enumerate(terms)) / ((n + 1) * norm)
    return ie, je


def _richardson(values: np.ndarray) -> float:
    """The trapezoid rule on all 2M+1 nodes of [0, 1] and on every second
    node, extrapolated by one Richardson step."""
    def trapezoid(v, dx):
        return float(dx * (v.sum() - 0.5 * (v[0] + v[-1])))

    m2 = values.shape[0] - 1
    fine = trapezoid(values, 1.0 / m2)
    coarse = trapezoid(values[::2], 2.0 / m2)
    return float(fine + (fine - coarse) / 3.0)


def path_rows(metric: MetricField, path: PathSpec, kernel) -> np.ndarray:
    """rate(t) * kernel(metric_t) on every node t of the path sweep, one row
    per kernel output; metric_t carries chi0 + f(t) i ddbar(phi), read from
    the metric's Hessian.  One field only."""
    rows = []
    for t in np.linspace(0.0, 1.0, 2 * path.steps + 1):
        w = path.weight(float(t))
        node = metric if w == 1.0 else MetricField(
            metric.grid, metric.chi0, w * metric.phi, w * metric.hessian,
            metric.deriv)
        rows.append(path.rate(float(t)) * np.atleast_1d(kernel(node)))
    return np.array(rows).T.copy()


def path_bundle_richardson(metric: MetricField, omega, path: PathSpec) -> dict:
    """functionals.path_functional_bundle by collecting the node rows and
    extrapolating the trapezoid rule."""
    factor = form_factor(omega)
    c = class_constant_c(omega, metric.chi0)
    jval, ival = (_richardson(v) for v in path_rows(
        metric, path, lambda node: _j_and_i(node, metric.phi, factor)))
    return {"J": jval, "I": ival, "Jhat": jval - metric.n * c * ival}


def mabuchi_richardson(metric: MetricField, path: PathSpec) -> float:
    """functionals.eval_mabuchi by collecting the node rows and
    extrapolating the trapezoid rule."""
    grid, phi = metric.grid, metric.phi

    def kernel(node):
        r = scalar_curvature(node)
        det = node.det()
        rbar = integrate_top(r * det, grid) / integrate_top(det, grid)
        return -integrate_top(phi * (r - rbar) * det, grid)

    return _richardson(path_rows(metric, path, kernel)[0])


def average_scalar_curvature(metric: MetricField) -> float:
    """Volume-weighted mean of R over the grid (0 in the continuum)."""
    r = scalar_curvature(metric)
    det = metric.det()
    return integrate_top(r * det, metric.grid) / integrate_top(det, metric.grid)


def representatives_loop(naxes: int, band: int) -> list:
    """The wavevectors of sampling._mode_table, found by scanning for each
    wavevector's leading nonzero component."""
    out = []
    for k in itertools.product(range(-band, band + 1), repeat=naxes):
        if all(c == 0 for c in k):
            continue
        lead = next(c for c in k if c != 0)
        if lead > 0:
            out.append(k)
    return out


def admissible_potential_loop(rng: np.random.Generator, grid: TorusGrid,
                              chi0, band: int = 2, amplitude: float = 0.6,
                              rel_margin: float = 0.25,
                              deriv: str = "fd4") -> np.ndarray:
    """sampling.random_admissible_potential with one pass over the grid per
    mode: the wavevectors and every k.x rebuilt on each call."""
    coords = grid.meshgrid()
    phi = grid.zeros()
    for k in representatives_loop(grid.naxes, band):
        weight = amplitude / (1.0 + float(sum(c * c for c in k)))
        coef = weight * rng.standard_normal()
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(c * x for c, x in zip(k, coords))
        phi = phi + coef * np.cos(arg + phase)

    hess = complex_hessian_of(phi, grid, deriv)
    hmin = float(np.linalg.eigvalsh(hess).min())
    lam0 = float(np.linalg.eigvalsh(np.asarray(chi0, dtype=complex)).min())
    if hmin < 0.0:
        allowed = (1.0 - rel_margin) * lam0
        scale = min(1.0, allowed / (-hmin))
        phi = scale * phi
    return phi


def random_positive_pair_batch(rng: np.random.Generator, n: int,
                               count: int) -> tuple:
    """count independent positive Hermitian pairs (g, chi) of size n.

    Complex Wishart matrices normalized by n, plus 0.05 I so the Cholesky
    factorizations stay comfortably away from breakdown.  chi carries an
    extra per-sample log-uniform scale reaching past n(n-1), because the
    conditions under test compare reciprocal pencil eigenvalues against
    1/(n-1); without the scale almost every raw Wishart pair would sit on
    the failing side and the passing verdicts would go unexercised.
    """
    def draw():
        a = rng.standard_normal((count, n, n)) \
            + 1j * rng.standard_normal((count, n, n))
        return a @ a.conj().swapaxes(-1, -2) / n + 0.05 * np.eye(n)

    g = draw()
    chi = draw()
    top = max(8.0, 4.0 * n * n)
    scale = np.exp(rng.uniform(np.log(0.5), np.log(top), size=count))
    return g, chi * scale[:, None, None]


def spectral_derivative_per_call(values: np.ndarray, axis: int,
                                 grid: TorusGrid) -> np.ndarray:
    """torus._spectral_derivative with i s(k) rebuilt on every call."""
    shape = [1] * values.ndim
    shape[axis] = grid.points
    mult = (1j * derivative_symbol(grid, "spectral")).reshape(shape)
    out = np.fft.ifft(np.fft.fft(values, axis=axis) * mult, axis=axis)
    if not np.iscomplexobj(values):
        return out.real.copy()
    return out


def signature(q_rows) -> tuple:
    """(positive, negative, zero) inertia of a symmetric rational matrix.

    Exact congruence diagonalization: simultaneous row and column
    elimination preserves inertia, and a zero pivot with a nonzero
    off-diagonal partner is repaired by adding that row and column, since
    (e_i + e_j)' Q (e_i + e_j) = 2 Q_ij when both diagonal entries vanish.
    """
    rank = len(q_rows)
    m = [[Fraction(x) for x in row] for row in q_rows]
    pos = neg = zero = 0
    for i in range(rank):
        if m[i][i] == 0:
            swap = next((j for j in range(i + 1, rank) if m[j][j] != 0), None)
            if swap is not None:
                m[i], m[swap] = m[swap], m[i]
                for row in m:
                    row[i], row[swap] = row[swap], row[i]
            else:
                partner = next(
                    (j for j in range(i + 1, rank) if m[i][j] != 0), None)
                if partner is None:
                    zero += 1
                    continue
                for k in range(rank):
                    m[i][k] = m[i][k] + m[partner][k]
                for k in range(rank):
                    m[k][i] = m[k][i] + m[k][partner]
        pivot = m[i][i]
        if pivot == 0:
            zero += 1
            continue
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, rank):
            factor = m[j][i] / pivot
            if factor == 0:
                continue
            for k in range(rank):
                m[j][k] = m[j][k] - factor * m[i][k]
            for k in range(rank):
                m[k][j] = m[k][j] - factor * m[k][i]
    return pos, neg, zero
