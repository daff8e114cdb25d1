"""Pointwise algebra of positive Hermitian forms.

The scalar routes work on a single pair of n x n Hermitian coefficient
matrices (g, chi): the relative spectrum, the trace pairing
chi^{ij} g_{ij}, and the verdicts of the three pointwise cone conditions
at the normalization nc = 1, each read from one spectrum.  The batched
routes used by the grid code and the property suites live at the bottom:
pencil eigenvalues, condition margins and wedge coefficients, the latter
by the (n!)^2-term permutation expansion that only the conditions suite's
cone cross-check reads.  The scalar pencil and margin routes are
batch-of-one calls into them.  The scalar wedge oracle is in tests/oracles.py.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

# Positivity gate: smallest eigenvalue must exceed this times the largest.
POSITIVITY_RTOL = 1e-12
# Condition margins with absolute value at or below this are boundary cases
# and are reported as failures with the boundary flag set.
BOUNDARY_TOL = 1e-12


class ShapeError(ValueError):
    """Operands have incompatible dimensions or wedge degrees."""


class SingularFormError(ValueError):
    """A form required to be positive definite is not."""


class SettingError(ValueError):
    """A settings field lies outside its range, as reason says."""

    def __init__(self, field: str, reason: str):
        self.field, self.reason = field, reason
        super().__init__(f"field {field!r}: {reason}")


def as_matrix(form) -> np.ndarray:
    """Coerce an array-like to a Hermitian ndarray.

    Averaging with the conjugate transpose makes the Hermitian symmetry
    m[j, i] == conj(m[i, j]) hold exactly in floating point.
    """
    a = np.asarray(form, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.conj().T)


def require_positive(m: np.ndarray, name: str) -> None:
    ev = np.linalg.eigvalsh(m)
    if not ev[0] > POSITIVITY_RTOL * max(float(ev[-1]), 0.0):
        raise SingularFormError(
            f"form {name!r} is not positive definite (eigenvalue range "
            f"[{ev[0]:.3e}, {ev[-1]:.3e}])"
        )


def trace_pair(a, b) -> float:
    """Trace of b against the inverse of a, i.e. a^{ij} b_{ij} = tr(a^-1 b)."""
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise ShapeError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    require_positive(am, "a")
    val = np.trace(np.linalg.solve(am, bm))
    return float(val.real)


def relative_spectrum(g, chi) -> np.ndarray:
    """Eigenvalues of chi relative to g via Cholesky pencil reduction: the
    roots of det(chi - lambda g), ascending, as a read-only array."""
    gm = as_matrix(g)
    cm = as_matrix(chi)
    if gm.shape != cm.shape:
        raise ShapeError(f"dimension mismatch: {gm.shape} vs {cm.shape}")
    require_positive(gm, "g")
    lam = pencil_eigenvalues_batch(gm, cm)
    if lam[0] <= 0.0:
        raise SingularFormError(
            f"chi is not positive against g (pencil minimum {lam[0]:.3e})"
        )
    lam.setflags(write=False)
    return lam


@dataclass(frozen=True)
class ConditionReport:
    """Verdict for one pointwise condition at the normalization nc = 1.

    margin is the distance to the defining inequality's boundary (positive
    means the strict inequality holds).  Margins within BOUNDARY_TOL of zero
    fail with the boundary flag raised.
    """

    which: str
    passed: bool
    margin: float
    boundary: bool
    lambdas: tuple


CONDITIONS = ("C1", "C2", "C3")


def condition_report(lambdas, which: str) -> ConditionReport:
    """Verdict of C1/C2/C3 for relative eigenvalues lambda, at nc = 1.

    C1: 1/lambda_i < 1 for all i.
    C2: 1/lambda_i < 1/(n-1) for all i (vacuous for n = 1).
    C3: sum over i != k of 1/lambda_i < 1 for all k.
    """
    lam = np.asarray(lambdas, dtype=float)
    margins = condition_margins_batch(lam)
    if which not in margins:
        raise ValueError(
            f"unknown condition {which!r}; expected one of {CONDITIONS}")
    margin = float(margins[which])
    return ConditionReport(
        which=which,
        passed=bool(margin > BOUNDARY_TOL),
        margin=margin,
        boundary=abs(margin) <= BOUNDARY_TOL,
        lambdas=tuple(float(x) for x in lam),
    )


def cone_form_positive(omega, chi_prime) -> ConditionReport:
    """Positivity of (chi' - (n-1) omega) wedge chi'^{n-2} at nc = 1.

    In coordinates diagonalizing chi' against omega the (n-1, n-1)-form is
    diagonal, and positivity of each coefficient

        prod_{i != k} lambda_i  -  sum_{i != k} prod_{j != i,k} lambda_j  >  0

    is equivalent to condition C3 for the pair.  The reported margin is the
    normalized one, min_k (1 - sum_{i != k} 1/lambda_i): it is the C3
    report of the pair's spectrum under the label "cone".
    """
    return replace(condition_report(relative_spectrum(omega, chi_prime), "C3"),
                   which="cone")


@lru_cache(maxsize=None)
def _perms_with_signs(m: int) -> tuple:
    """Permutations of range(m), each with its sign (-1)^(inversions)."""
    return tuple(
        (p, (-1) ** sum(a > b for a, b in itertools.combinations(p, 2)))
        for p in itertools.permutations(range(m)))


def _kept_indices(n: int, k, m: int) -> list:
    """Indices a wedge monomial keeps (all n, or all but k), checked
    against the total degree m of its factors."""
    if k is not None and not 0 <= k < n:
        raise ShapeError(f"omitted index {k} out of range for dimension {n}")
    idx = [i for i in range(n) if i != k]
    if m != len(idx):
        raise ShapeError(
            f"total degree {m} does not match kept index count {len(idx)}"
        )
    return idx


def wedge_coefficient_batch(mats: Sequence[np.ndarray], n: int, k=None):
    """Vectorized permutation expansion over a leading batch shape.

    mats is a list of arrays broadcastable to a common (..., n, n) shape, one
    per wedge slot (multiplicities already expanded).  Returns the real
    coefficient array of shape (...,).
    """
    m = len(mats)
    idx = _kept_indices(n, k, m)
    perms = _perms_with_signs(m)
    total = None
    for sigma, ssign in perms:
        for tau, tsign in perms:
            prod = None
            for s in range(m):
                factor = mats[s][..., idx[sigma[s]], idx[tau[s]]]
                prod = factor if prod is None else prod * factor
            term = (ssign * tsign) * prod
            total = term if total is None else total + term
    return total.real if np.iscomplexobj(total) else total


def _pencil_reduction(g: np.ndarray, chi: np.ndarray) -> tuple:
    """(L, M): g = L L^* and the Hermitian part M of L^-1 chi L^-*, whose
    eigenvalues are chi's against g; SingularFormError if a g has no L."""
    g = np.asarray(g, dtype=np.complex128)
    chi = np.asarray(chi, dtype=np.complex128)
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise SingularFormError("g is not positive definite") from exc
    x = np.linalg.solve(low, chi)
    m = np.linalg.solve(low, x.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
    return low, 0.5 * (m + m.conj().swapaxes(-1, -2))


def pencil_eigenvalues_batch(g: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Eigenvalues of chi relative to g for stacked Hermitian pairs.

    g may be a single (n, n) matrix shared across the batch or a stack
    matching chi's leading shape.  Raises SingularFormError if any g in the
    batch fails to factor.
    """
    return np.linalg.eigvalsh(_pencil_reduction(g, chi)[1])


def condition_margins_batch(lambdas: np.ndarray) -> dict:
    """C1/C2/C3 margins for a (..., n) array of relative eigenvalues."""
    inv = 1.0 / lambdas
    n = lambdas.shape[-1]
    out = {"C1": 1.0 - inv.max(axis=-1)}
    if n == 1:
        out["C2"] = np.full(lambdas.shape[:-1], np.inf)
    else:
        out["C2"] = 1.0 / (n - 1) - inv.max(axis=-1)
    # the worst k omits the smallest reciprocal (largest lambda)
    out["C3"] = 1.0 - (inv.sum(axis=-1) - inv.min(axis=-1))
    return out
