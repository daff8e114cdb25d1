"""Pointwise algebra of positive Hermitian forms.

Everything here works on a single pair of n x n Hermitian coefficient
matrices (g, chi): relative eigenvalues, the trace pairing chi^{ij} g_{ij},
the three pointwise cone conditions at the normalization nc = 1, and a
brute-force wedge-coefficient oracle that expands (1,1)-form products by
explicit permutation sums.  Batched variants used by the grid code live at
the bottom; they implement the same permutation expansion vectorized over a
leading sample axis, and the scalar pencil and margin routes are
batch-of-one calls into them.
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
    """A settings field lies outside its range; field is its name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field} {message}")


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


@dataclass(frozen=True)
class RelativeSpectrum:
    """Pencil spectrum of a positive pair (g, chi).

    lambdas[i] are the roots of det(chi - lambda g), ascending.
    """

    lambdas: np.ndarray

    def trace_of_inverse(self) -> float:
        """chi^{ij} g_{ij} recovered from the spectrum: sum of 1/lambda."""
        return float(np.sum(1.0 / self.lambdas))


def relative_spectrum(g, chi) -> RelativeSpectrum:
    """Eigenvalues of chi relative to g via Cholesky pencil reduction."""
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
    return RelativeSpectrum(lambdas=lam)


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


def condition_margin(lambdas: np.ndarray, which: str) -> float:
    """Margin of C1/C2/C3 for relative eigenvalues lambda, at nc = 1.

    C1: 1/lambda_i < 1 for all i.
    C2: 1/lambda_i < 1/(n-1) for all i (vacuous for n = 1).
    C3: sum over i != k of 1/lambda_i < 1 for all k.
    """
    margins = condition_margins_batch(np.asarray(lambdas, dtype=float))
    if which not in margins:
        raise ValueError(
            f"unknown condition {which!r}; expected one of {CONDITIONS}")
    return float(margins[which])


def check_condition(g, chi, which: str) -> ConditionReport:
    """Evaluate one of the pointwise conditions C1/C2/C3 for the pair (g, chi)."""
    spec = relative_spectrum(g, chi)
    margin = condition_margin(spec.lambdas, which)
    return ConditionReport(
        which=which,
        passed=bool(margin > BOUNDARY_TOL),
        margin=margin,
        boundary=abs(margin) <= BOUNDARY_TOL,
        lambdas=tuple(float(x) for x in spec.lambdas),
    )


def cone_form_positive(omega, chi_prime) -> ConditionReport:
    """Positivity of (chi' - (n-1) omega) wedge chi'^{n-2} at nc = 1.

    In coordinates diagonalizing chi' against omega the (n-1, n-1)-form is
    diagonal, and positivity of each coefficient

        prod_{i != k} lambda_i  -  sum_{i != k} prod_{j != i,k} lambda_j  >  0

    is equivalent to condition C3 for the pair.  The reported margin is the
    normalized one, min_k (1 - sum_{i != k} 1/lambda_i), which matches
    check_condition(omega, chi', "C3") identically: it is that report
    under the label "cone".
    """
    return replace(check_condition(omega, chi_prime, "C3"), which="cone")


def _perm_sign(p: tuple) -> int:
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def _perms_with_signs(m: int) -> tuple:
    return tuple((p, _perm_sign(p)) for p in itertools.permutations(range(m)))


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


def pencil_eigenvalues_batch(g: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Eigenvalues of chi relative to g for stacked Hermitian pairs.

    g may be a single (n, n) matrix shared across the batch or a stack
    matching chi's leading shape.  Raises SingularFormError if any g in the
    batch fails to factor.
    """
    g = np.asarray(g, dtype=np.complex128)
    chi = np.asarray(chi, dtype=np.complex128)
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise SingularFormError("g is not positive definite") from exc
    x = np.linalg.solve(low, chi)
    m = np.linalg.solve(low, x.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
    return np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))


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
